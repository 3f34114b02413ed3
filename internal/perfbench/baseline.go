package perfbench

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"apecache/internal/cachepolicy"
	"apecache/internal/coherence"
	"apecache/internal/dnswire"
	"apecache/internal/httplite"
	"apecache/internal/vclock"
)

// mutexStore is a frozen replica of the seed store's lookup path — one
// sync.Mutex around everything, domain queries answered by scanning every
// hash ever seen. It exists so the trajectory report can keep measuring
// the speedup of the read-optimized store against the design it replaced,
// even after the old code is gone.
type mutexStore struct {
	mu      sync.Mutex
	entries map[string]expiringEntry
	byHash  map[uint64]string
}

type expiringEntry struct{ expiry time.Time }

func newMutexStore(residents, domains int) *mutexStore {
	s := &mutexStore{entries: make(map[string]expiringEntry), byHash: make(map[uint64]string)}
	for i := 0; i < residents; i++ {
		url := fmt.Sprintf("http://app%d.example/obj/%d", i%domains, i)
		s.entries[url] = expiringEntry{expiry: time.Now().Add(time.Hour)}
		s.byHash[dnswire.HashURL(url)] = url
	}
	return s
}

// newMutexStoreKnown builds a baseline with a fixed-size resident domain
// and totalKnown hashes overall (the rest evicted-but-known).
func newMutexStoreKnown(domainEntries, totalKnown int) *mutexStore {
	s := newMutexStore(domainEntries, 1)
	for i := len(s.byHash); i < totalKnown; i++ {
		url := fmt.Sprintf("http://other%d.example/old/%d", i%32, i)
		s.byHash[dnswire.HashURL(url)] = url
	}
	return s
}

func (s *mutexStore) flagLocked(url string) dnswire.CacheFlag {
	if e, ok := s.entries[url]; ok && time.Now().Before(e.expiry) {
		return dnswire.FlagCacheHit
	}
	return dnswire.FlagDelegation
}

func (s *mutexStore) Flag(url string) dnswire.CacheFlag {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.flagLocked(url)
}

func (s *mutexStore) FlagByHash(h uint64) dnswire.CacheFlag {
	s.mu.Lock()
	defer s.mu.Unlock()
	if url, ok := s.byHash[h]; ok {
		return s.flagLocked(url)
	}
	return dnswire.FlagDelegation
}

func (s *mutexStore) KnownHashesForDomain(domain string) []dnswire.CacheEntry {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []dnswire.CacheEntry
	for h, url := range s.byHash {
		if dnswire.URLDomain(url) == domain {
			out = append(out, dnswire.CacheEntry{Hash: h, Flag: s.flagLocked(url)})
		}
	}
	return out
}

// legacySortSelect replays the seed's PACM victim selection: recompute
// every utility, fully sort by density, greedy-fill, then the fairness
// repair — the per-admission cost the heapified selection replaced.
func legacySortSelect(p *cachepolicy.PACM, now time.Time, entries []*cachepolicy.Entry, incoming *cachepolicy.Entry, capacity int64, freq *cachepolicy.FreqTracker) []*cachepolicy.Entry {
	avail := capacity
	if incoming != nil {
		avail -= incoming.Size()
	}
	type scored struct {
		e       *cachepolicy.Entry
		density float64
	}
	ranked := make([]scored, 0, len(entries))
	for _, e := range entries {
		u := cachepolicy.Utility(e, now, freq)
		size := e.Size()
		if size <= 0 {
			size = 1
		}
		ranked = append(ranked, scored{e: e, density: u / float64(size)})
	}
	sort.SliceStable(ranked, func(i, j int) bool { return ranked[i].density > ranked[j].density })
	var keep []*cachepolicy.Entry
	var used int64
	for _, sc := range ranked {
		if used+sc.e.Size() <= avail {
			keep = append(keep, sc.e)
			used += sc.e.Size()
		}
	}
	keep = legacyEnforceFairness(p, keep, incoming, now, freq)

	kept := make(map[*cachepolicy.Entry]struct{}, len(keep))
	for _, e := range keep {
		kept[e] = struct{}{}
	}
	var victims []*cachepolicy.Entry
	for _, e := range entries {
		if _, ok := kept[e]; !ok {
			victims = append(victims, e)
		}
	}
	return victims
}

func legacyEnforceFairness(p *cachepolicy.PACM, keep []*cachepolicy.Entry, incoming *cachepolicy.Entry, now time.Time, freq *cachepolicy.FreqTracker) []*cachepolicy.Entry {
	theta := p.Theta
	if theta <= 0 {
		theta = cachepolicy.DefaultFairnessThreshold
	}
	for len(keep) > 0 {
		eff := legacyStorageEfficiency(keep, incoming, freq)
		if len(eff) < 2 || cachepolicy.Gini(eff) <= theta {
			return keep
		}
		victimIdx := -1
		var victimUtil float64
		worstApp := legacyWorstApp(eff, keep)
		for i, e := range keep {
			if e.Object.App != worstApp {
				continue
			}
			u := cachepolicy.Utility(e, now, freq)
			if victimIdx < 0 || u < victimUtil {
				victimIdx = i
				victimUtil = u
			}
		}
		if victimIdx < 0 {
			return keep
		}
		keep = append(keep[:victimIdx], keep[victimIdx+1:]...)
	}
	return keep
}

func legacyStorageEfficiency(keep []*cachepolicy.Entry, incoming *cachepolicy.Entry, freq *cachepolicy.FreqTracker) map[string]float64 {
	bytes := make(map[string]int64)
	for _, e := range keep {
		bytes[e.Object.App] += e.Size()
	}
	if incoming != nil {
		bytes[incoming.Object.App] += incoming.Size()
	}
	eff := make(map[string]float64, len(bytes))
	for app, b := range bytes {
		r := freq.Rate(app)
		if r < cachepolicy.MinRate {
			r = cachepolicy.MinRate
		}
		eff[app] = float64(b) / r
	}
	return eff
}

func legacyWorstApp(eff map[string]float64, keep []*cachepolicy.Entry) string {
	present := make(map[string]bool, len(keep))
	for _, e := range keep {
		present[e.Object.App] = true
	}
	worst, worstVal := "", math.Inf(-1)
	for app, v := range eff {
		if present[app] && v > worstVal {
			worst, worstVal = app, v
		}
	}
	return worst
}

// legacyHub is a frozen replica of the coherence hub's retired
// goroutine-per-delivery fan-out: each publication copies the subscriber
// list under the hub mutex and spawns one relay task per subscriber. It
// keeps the publish-legacy micro measuring the design the sharded
// dispatcher replaced. Dead-subscriber eviction is left out; the micro
// always ran with it disabled.
type legacyHub struct {
	env    vclock.Env
	client *httplite.Client

	mu   sync.Mutex
	subs []coherence.Subscription
}

func (h *legacyHub) ServeHTTP(req *httplite.Request) *httplite.Response {
	switch req.Path {
	case coherence.PathSubscribe:
		var sub coherence.Subscription
		if err := json.Unmarshal(req.Body, &sub); err != nil || sub.Addr.IsZero() {
			return httplite.NewResponse(400, []byte("bad subscription body"))
		}
		h.mu.Lock()
		defer h.mu.Unlock()
		for i, s := range h.subs {
			if s.Addr == sub.Addr {
				h.subs[i] = sub
				return httplite.NewResponse(200, nil)
			}
		}
		h.subs = append(h.subs, sub)
		return httplite.NewResponse(200, nil)
	case coherence.PathPublish:
		msg, err := coherence.ParseMsg(req.Body)
		if err != nil {
			return httplite.NewResponse(400, []byte(err.Error()))
		}
		h.mu.Lock()
		subs := make([]coherence.Subscription, len(h.subs))
		copy(subs, h.subs)
		h.mu.Unlock()
		body, _ := json.Marshal(msg)
		for _, sub := range subs {
			h.env.Go("coherence.relay", func() {
				preq := httplite.NewRequest("POST", sub.Addr.Host, sub.Path)
				preq.Body = body
				h.client.Do(sub.Addr, preq)
			})
		}
		return httplite.NewResponse(200, nil)
	}
	return httplite.NewResponse(404, nil)
}
