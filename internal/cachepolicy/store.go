package cachepolicy

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"apecache/internal/decisionlog"
	"apecache/internal/dnswire"
	"apecache/internal/objstore"
	"apecache/internal/vclock"
)

// DefaultMaxObjectSize is the block-list threshold: "if the data size
// exceeds a threshold (set at 500kb in our implementation), it will be
// added to the block list".
const DefaultMaxObjectSize = 500 << 10

// ErrBlocked reports that an object was refused and block-listed.
var ErrBlocked = errors.New("cachepolicy: object block-listed")

// Entry is one object resident in the AP cache, with the bookkeeping PACM
// needs (e_d via Expiry, l_d via FetchLatency) and LRU needs (LastUsed).
//
// Entries are immutable snapshots once published: a refresh installs a new
// Entry rather than rewriting Data in place, so a handler that obtained an
// entry under the read lock can keep serving its payload after releasing
// it. Recency (LastUsed/Hits) is the one exception — Get records it in
// atomic shadows so lookups stay on the read path, and the store folds the
// shadows into the exported fields (syncRecency) before any policy code
// reads them under the write lock.
type Entry struct {
	Object *objstore.Object
	Data   []byte
	// Expiry is insertion time + the object's TTL; e_d is the remaining
	// distance to it.
	Expiry time.Time
	// FetchLatency is the measured latency of retrieving the object from
	// the edge/cloud server — the paper's approximation of l_d, the time
	// a client saves per AP hit.
	FetchLatency time.Duration
	LastUsed     time.Time
	Inserted     time.Time
	// Hits counts Get operations served by this entry (GDSF input).
	Hits int
	// Version is the origin version of the cached payload (coherence).
	Version int64
	// Stale marks a purged-but-resident entry: the origin published a
	// newer version, and under stale-while-revalidate the copy stays
	// servable exactly once while a background revalidation runs.
	Stale bool
	// StaleServed records that the one allowed stale serve has happened.
	StaleServed bool

	// seq is the store's insertion sequence, used as a deterministic
	// tie-break wherever entries compare equal (densities, fallback
	// eviction order). Zero for entries built outside a store.
	seq uint64
	// lastUsed/hits are the atomic recency shadows written by Get under
	// the read lock; syncRecency folds them into LastUsed/Hits.
	lastUsed atomic.Pointer[time.Time]
	hits     atomic.Int64
}

// Size returns the entry's payload size in bytes.
func (e *Entry) Size() int64 { return int64(len(e.Data)) }

// Fresh reports whether the entry is still within TTL at the given time.
func (e *Entry) Fresh(now time.Time) bool { return now.Before(e.Expiry) }

// touch records a lookup at now without requiring the write lock (or a
// second map lookup): the caller already holds the entry.
func (e *Entry) touch(now time.Time) {
	t := now
	e.lastUsed.Store(&t)
	e.hits.Add(1)
}

// syncRecency folds the atomic recency shadows into the exported fields.
// Callers hold the store's write lock, so no Get can run concurrently.
func (e *Entry) syncRecency() {
	if n := e.hits.Swap(0); n != 0 {
		e.Hits += int(n)
	}
	if p := e.lastUsed.Load(); p != nil && p.After(e.LastUsed) {
		e.LastUsed = *p
	}
}

// Seq returns the store insertion sequence (0 outside a store).
func (e *Entry) Seq() uint64 { return e.seq }

// Policy selects eviction victims when the cache must make room.
type Policy interface {
	// Name identifies the policy in logs and experiment tables.
	Name() string
	// SelectVictims returns the entries to evict so that incoming (whose
	// Data is already set) fits within capacity. The store guarantees
	// need > 0 and that incoming fits in an empty cache. freq carries
	// the per-app request frequencies.
	SelectVictims(now time.Time, entries []*Entry, incoming *Entry, capacity int64, freq *FreqTracker) []*Entry
}

// StoreStats counts cache-management outcomes.
type StoreStats struct {
	Insertions int
	Updates    int
	Evictions  int
	Expired    int
	Blocked    int
	// Purged counts coherence purges that touched a resident entry.
	Purged int
	// StaleServes counts GetStale serves of purged entries (SWR).
	StaleServes int
	// StaleDrops counts Put/insert attempts rejected because the payload
	// version was older than the purge high-water mark.
	StaleDrops int
}

// Store is the AP cache: a capacity-bounded object store with TTL expiry,
// a block list for oversized objects, and a pluggable eviction policy.
//
// The hot lookup path — Flag, FlagByHash, KnownHashesForDomain, Get —
// runs under a read lock so concurrent DNS and HTTP handlers never
// serialize against each other; only mutations (Put, eviction, the
// sweeper, coherence purges) take the write side. Domain queries are
// answered from a per-domain known-hash index instead of scanning every
// hash the AP has ever seen, and TTL expiry is tracked in a min-heap so
// admissions no longer scan all entries. Every lifecycle decision goes
// through one recorder (record), which keeps StoreStats, the telemetry
// counters, the event log and the decision ledger in step.
type Store struct {
	mu            sync.RWMutex
	clock         vclock.Clock
	capacity      int64
	maxObjectSize int64
	policy        Policy
	freq          *FreqTracker
	entries       map[string]*Entry // keyed by basic URL
	byHash        map[uint64]string // DNS-Cache hash -> URL
	used          int64
	blocklist     map[string]struct{}
	stats         StoreStats
	// purged is the coherence high-water mark: the newest version the
	// origin has announced per URL. Puts of older payloads are dropped so
	// an in-flight delegation cannot resurrect purged bytes.
	purged map[string]int64
	// negative holds purged-and-gone URLs with the time their negative-
	// cache window ends; within the window the flag is Cache-Miss and
	// delegation answers 410 without contacting the edge.
	negative    map[string]time.Time
	negativeTTL time.Duration
	// seq numbers insertions for deterministic tie-breaks.
	seq uint64
	// expiries is the store-wide lazy min-heap over resident entries'
	// expiries (stale entries included — they expire too).
	expiries expiryHeap
	// domains maps each canonical domain to the DNS-Cache hashes ever
	// seen under it and their basic URLs (see indexKnown).
	domains map[string]map[uint64]string
	// tel holds the telemetry instruments (see telemetry.go); until
	// Instrument runs they are nil, and nil instruments are no-ops.
	tel *storeTel
	// ledger is the optional decision ledger (see ledger.go); nil keeps
	// the miss path classification-free and every record a no-op.
	ledger *decisionlog.Ledger
}

// NewStore builds a cache with the given capacity and policy. A zero
// maxObjectSize applies DefaultMaxObjectSize.
func NewStore(clock vclock.Clock, capacity int64, maxObjectSize int64, policy Policy, freq *FreqTracker) *Store {
	if maxObjectSize <= 0 {
		maxObjectSize = DefaultMaxObjectSize
	}
	if freq == nil {
		freq = NewFreqTracker(clock, DefaultAlpha, DefaultFreqWindow)
	}
	return &Store{
		clock:         clock,
		capacity:      capacity,
		maxObjectSize: maxObjectSize,
		policy:        policy,
		freq:          freq,
		entries:       make(map[string]*Entry),
		byHash:        make(map[uint64]string),
		blocklist:     make(map[string]struct{}),
		purged:        make(map[string]int64),
		negative:      make(map[string]time.Time),
		negativeTTL:   DefaultNegativeTTL,
		domains:       make(map[string]map[uint64]string),
		tel:           &storeTel{},
	}
}

// Freq exposes the frequency tracker (the AP runtime records every client
// request on it, cache hit or not).
func (s *Store) Freq() *FreqTracker { return s.freq }

// Policy exposes the eviction policy (ablation benchmarks tweak its
// parameters in place).
func (s *Store) Policy() Policy { return s.policy }

// Stats returns a copy of the management counters.
func (s *Store) Stats() StoreStats {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.stats
}

// Used returns the bytes currently stored.
func (s *Store) Used() int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.used
}

// Capacity returns the configured capacity in bytes.
func (s *Store) Capacity() int64 { return s.capacity }

// Len returns the number of resident entries.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.entries)
}

// Flag returns the DNS-Cache status for a basic URL, implementing the
// three-way classification of §IV-B.
func (s *Store) Flag(url string) dnswire.CacheFlag {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.flagLocked(url)
}

func (s *Store) flagLocked(url string) dnswire.CacheFlag {
	if _, blocked := s.blocklist[url]; blocked {
		return dnswire.FlagCacheMiss
	}
	if until, ok := s.negative[url]; ok && s.clock.Now().Before(until) {
		// Purged-and-gone: refetching would only 410 at the origin, so
		// steer the client away from both AP and delegation.
		return dnswire.FlagCacheMiss
	}
	if e, ok := s.entries[url]; ok && e.Fresh(s.clock.Now()) {
		if e.Stale {
			if e.StaleServed {
				// The one allowed stale serve is spent; the client must
				// wait out the revalidation via delegation.
				return dnswire.FlagDelegation
			}
			return dnswire.FlagStale
		}
		return dnswire.FlagCacheHit
	}
	return dnswire.FlagDelegation
}

// FlagByHash resolves a hashed URL from a DNS-Cache request. Unknown
// hashes are Delegation (the AP has never seen the URL; it will learn it
// when the client delegates).
func (s *Store) FlagByHash(h uint64) dnswire.CacheFlag {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if url, ok := s.byHash[h]; ok {
		return s.flagLocked(url)
	}
	return dnswire.FlagDelegation
}

// KnownHashesForDomain returns the ⟨hash, flag⟩ entries for every URL the
// store has ever seen under the domain — the batching behaviour of §IV-B
// ("respond with the cache status for all URLs under the same domain").
// Cost is proportional to the domain's entry count, not the total number
// of hashes the AP has ever seen.
func (s *Store) KnownHashesForDomain(domain string) []dnswire.CacheEntry {
	s.mu.RLock()
	defer s.mu.RUnlock()
	known := s.domains[dnswire.CanonicalName(domain)]
	if len(known) == 0 {
		return nil
	}
	out := make([]dnswire.CacheEntry, 0, len(known))
	for h, url := range known {
		out = append(out, dnswire.CacheEntry{Hash: h, Flag: s.flagLocked(url)})
	}
	return out
}

// Get returns the entry for url if fresh and not purged, updating recency
// without leaving the read path (the update rides on the entry already in
// hand — no write lock, no second lookup). Purged entries are only
// reachable through GetStale.
func (s *Store) Get(url string) (*Entry, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	now := s.clock.Now()
	e, ok := s.entries[url]
	if !ok || !e.Fresh(now) || e.Stale {
		s.tel.misses.Inc()
		if s.ledger != nil {
			// The classification site mirrors the miss counter exactly:
			// that is what makes Σ cause counts == total misses an
			// identity rather than an approximation.
			s.ledger.Classify(url, now)
		}
		return nil, false
	}
	e.touch(now)
	s.tel.hits.Inc()
	return e, true
}

// RecordRequest counts one client request for app a toward R(a).
func (s *Store) RecordRequest(app string) { s.freq.Record(app) }

// Put inserts (or refreshes) an object fetched by delegation. fetchLatency
// is the observed edge/cloud retrieval latency (l_d). Oversized objects
// are block-listed and ErrBlocked returned.
func (s *Store) Put(obj *objstore.Object, data []byte, fetchLatency time.Duration) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	now := s.clock.Now()
	size := int64(len(data))
	if size > s.maxObjectSize || size > s.capacity {
		s.blocklist[obj.URL] = struct{}{}
		s.indexKnown(obj.Hash(), obj.URL)
		s.record(decision{op: decisionlog.OpRejectBlocked, now: now, obj: obj, size: size})
		return fmt.Errorf("%w: %s (%d bytes)", ErrBlocked, obj.URL, size)
	}
	if hw, ok := s.purged[obj.URL]; ok && obj.Version < hw {
		// An in-flight fetch raced a purge: the bytes are already known
		// stale, so caching them would resurrect exactly what the origin
		// invalidated.
		s.record(decision{op: decisionlog.OpRejectStale, now: now, obj: obj, size: size})
		return fmt.Errorf("%w: %s (version %d < purge %d)", ErrStaleVersion, obj.URL, obj.Version, hw)
	}
	// A current-or-newer payload supersedes any negative-cache window (the
	// object was re-created at the origin).
	delete(s.negative, obj.URL)

	if old, ok := s.entries[obj.URL]; ok {
		// Refresh: install a new entry rather than rewriting the old one,
		// so handlers still holding the previous snapshot keep a stable
		// payload. Bookkeeping (Inserted, Hits, seq) carries over.
		old.syncRecency()
		fresh := &Entry{
			Object:       obj,
			Data:         data,
			Expiry:       now.Add(obj.TTL),
			FetchLatency: fetchLatency,
			LastUsed:     now,
			Inserted:     old.Inserted,
			Hits:         old.Hits,
			Version:      obj.Version,
			seq:          old.seq,
		}
		s.used += size - old.Size()
		s.entries[obj.URL] = fresh
		s.pushExpiry(obj.URL, fresh.Expiry)
		s.record(decision{op: decisionlog.OpUpdate, now: now, e: fresh})
		s.makeRoom(nil) // in case the refresh grew the entry
		return nil
	}

	s.seq++
	entry := &Entry{
		Object:       obj,
		Data:         data,
		Expiry:       now.Add(obj.TTL),
		FetchLatency: fetchLatency,
		LastUsed:     now,
		Inserted:     now,
		Version:      obj.Version,
		seq:          s.seq,
	}
	s.makeRoom(entry)
	s.entries[obj.URL] = entry
	s.indexKnown(obj.Hash(), obj.URL)
	s.pushExpiry(obj.URL, entry.Expiry)
	s.used += size
	s.record(decision{op: decisionlog.OpAdmit, now: now, e: entry})
	return nil
}

// decision is one store lifecycle decision, as record takes it.
type decision struct {
	op  decisionlog.Op
	now time.Time
	// e is the entry decided on; the ledger event carries its utility
	// standing. Nil for rejected puts and for purges of an absent URL.
	e *Entry
	// obj and size describe the object a rejected put refused.
	obj  *objstore.Object
	size int64
	// url and version name an absent URL's purge.
	url     string
	version int64
	// gone marks a purge of an object the origin deleted; evicted, a
	// purge that removed the resident copy.
	gone, evicted bool
}

// record is the store's one bookkeeping path: every lifecycle decision
// calls it exactly once, under the write lock. It bumps the StoreStats
// count and the telemetry counter the decision falls under, writes the
// /events line, and, only when a ledger is attached, appends the decision
// to it. Gini-forced evictions count as capacity evictions everywhere but
// in the ledger, so the metric families stay as they were.
func (s *Store) record(d decision) {
	url := d.url
	switch {
	case d.e != nil:
		url = d.e.Object.URL
	case d.obj != nil:
		url = d.obj.URL
	}
	t := s.tel
	switch d.op {
	case decisionlog.OpAdmit:
		s.stats.Insertions++
		t.insertions.Inc()
	case decisionlog.OpUpdate:
		s.stats.Updates++
		t.updates.Inc()
	case decisionlog.OpRejectBlocked:
		s.stats.Blocked++
		t.blocked.Inc()
		t.tel.Emit("blocked", "url", url)
	case decisionlog.OpRejectStale:
		s.stats.StaleDrops++
		t.staleDrops.Inc()
		t.tel.Emit("stale-drop", "url", url)
	case decisionlog.OpExpire:
		s.stats.Expired++
		t.evictExpired.Inc()
		t.tel.Emit("evict", "url", url, "cause", "expired")
	case decisionlog.OpEvictCapacity, decisionlog.OpEvictGini:
		s.stats.Evictions++
		t.evictCapacity.Inc()
		t.tel.Emit("evict", "url", url, "cause", "capacity")
	case decisionlog.OpStaleServe:
		s.stats.StaleServes++
		t.staleServes.Inc()
		t.tel.Emit("stale-serve", "url", url)
	case decisionlog.OpPurge:
		// Purged counts purges that touched a resident copy; the purged
		// eviction cause only those that removed it.
		if d.e != nil {
			s.stats.Purged++
			t.tel.Emit("purge", "url", url, "gone", d.gone)
		}
		if d.evicted {
			t.evictPurged.Inc()
			t.tel.Emit("evict", "url", url, "cause", "purged")
		}
	}
	if s.ledger == nil {
		return
	}
	var ev decisionlog.Event
	switch {
	case d.e != nil:
		ev = s.ledgerEvent(d.op, d.e, d.now)
		ev.Gone = d.gone
	case d.obj != nil:
		ev = decisionlog.Event{Time: d.now, Op: d.op, URL: url, App: d.obj.App,
			Size: d.size, Version: d.obj.Version, Priority: d.obj.Priority}
	default:
		ev = decisionlog.Event{Time: d.now, Op: d.op, URL: url, Version: d.version, Gone: d.gone}
	}
	s.ledger.Record(ev)
}

// dropExpiredLocked removes every TTL-expired resident entry, driven by
// the expiry min-heap: cost is O(log n) per actually-expired entry instead
// of a scan over all residents on every admission. Superseded heap items
// (refreshed or already-removed entries) are discarded as they surface.
func (s *Store) dropExpiredLocked(now time.Time) int {
	dropped := 0
	for s.expiries.Len() > 0 {
		top := s.expiries[0]
		e, ok := s.entries[top.url]
		if !ok || !e.Expiry.Equal(top.expiry) {
			popExpiry(&s.expiries)
			continue
		}
		if e.Fresh(now) {
			break // earliest live expiry is in the future: nothing expired
		}
		popExpiry(&s.expiries)
		s.record(decision{op: decisionlog.OpExpire, now: now, e: e})
		s.removeEntry(top.url)
		dropped++
	}
	return dropped
}

// makeRoom evicts expired entries, then asks the policy for victims until
// incoming fits. incoming may be nil (capacity repair after a refresh).
func (s *Store) makeRoom(incoming *Entry) {
	now := s.clock.Now()
	s.dropExpiredLocked(now)
	var need int64 = s.used - s.capacity
	if incoming != nil {
		need = s.used + incoming.Size() - s.capacity
	}
	if need <= 0 {
		return
	}
	entries := s.entriesSlice()
	for _, e := range entries {
		e.syncRecency() // policies read LastUsed/Hits
	}
	// Selection time is measured on the wall clock even under simnet:
	// compute does not advance virtual time, and the point of the metric
	// is the real CPU cost of a PACM pass.
	var selStart time.Time
	if s.tel.selection != nil {
		selStart = time.Now()
	}
	victims := s.policy.SelectVictims(now, entries, incoming, s.capacity, s.freq)
	if s.tel.selection != nil {
		s.tel.selection.ObserveDuration(time.Since(selStart))
	}
	// Policies return victims in the order of entries, which follows map
	// iteration; record them oldest insertion first so the ledger and
	// /events read the same on every run.
	slices.SortFunc(victims, func(a, b *Entry) int { return cmp.Compare(a.seq, b.seq) })
	// Only the ledger tells Gini-forced drops from capacity evictions, and
	// PACM remembers its fairness victims only while a ledger is attached.
	var pacm *PACM
	if s.ledger != nil {
		pacm, _ = s.policy.(*PACM)
	}
	for _, v := range victims {
		if _, ok := s.entries[v.Object.URL]; !ok {
			continue
		}
		op := decisionlog.OpEvictCapacity
		if pacm != nil && pacm.fairnessVictim(v) {
			op = decisionlog.OpEvictGini
		}
		s.record(decision{op: op, now: now, e: v})
		s.removeEntry(v.Object.URL)
		need -= v.Size()
	}
	// The policy is trusted but verified: if it under-evicted, fall back
	// to dropping the least-recently-used entries (deterministic order) so
	// the capacity invariant holds.
	if need > 0 {
		rest := s.entriesSlice()
		sort.Slice(rest, func(i, j int) bool {
			a, b := rest[i], rest[j]
			if !a.LastUsed.Equal(b.LastUsed) {
				return a.LastUsed.Before(b.LastUsed)
			}
			if a.seq != b.seq {
				return a.seq < b.seq
			}
			return a.Object.URL < b.Object.URL
		})
		for _, e := range rest {
			if need <= 0 {
				break
			}
			need -= e.Size()
			s.record(decision{op: decisionlog.OpEvictCapacity, now: now, e: e})
			s.removeEntry(e.Object.URL)
		}
	}
}

// removeEntry drops a resident entry but keeps its hash known (the AP has
// "seen" the URL; a later DNS-Cache query gets Delegation, not silence).
// Heap items referencing the entry are invalidated implicitly and cleaned
// lazily. Callers hold the write lock.
func (s *Store) removeEntry(url string) {
	e, ok := s.entries[url]
	if !ok {
		return
	}
	s.used -= e.Size()
	delete(s.entries, url)
}

// entriesSlice snapshots the resident entries.
func (s *Store) entriesSlice() []*Entry {
	out := make([]*Entry, 0, len(s.entries))
	for _, e := range s.entries {
		out = append(out, e)
	}
	return out
}

// Entries exposes a snapshot for tests and the experiment harness, with
// recency shadows folded in (hence the write lock).
func (s *Store) Entries() []*Entry {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := s.entriesSlice()
	for _, e := range out {
		e.syncRecency()
	}
	return out
}

// SweepExpired evicts every TTL-expired entry, returning how many were
// dropped. The store also expires lazily on insert; the AP's background
// sweeper calls this so idle caches release memory promptly.
func (s *Store) SweepExpired() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	now := s.clock.Now()
	dropped := s.dropExpiredLocked(now)
	for url, until := range s.negative {
		if !now.Before(until) {
			delete(s.negative, url)
		}
	}
	return dropped
}

// Blocked reports whether a URL is on the block list.
func (s *Store) Blocked(url string) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	_, ok := s.blocklist[url]
	return ok
}
