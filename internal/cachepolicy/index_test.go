package cachepolicy

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"
	"time"

	"apecache/internal/dnswire"
	"apecache/internal/vclock"
)

// scratchKnown recomputes KnownHashesForDomain the way the pre-index store
// did: a full scan over every hash ever seen. The incremental index must
// agree with it after any mutation sequence.
func scratchKnown(s *Store, domain string) map[uint64]dnswire.CacheFlag {
	domain = dnswire.CanonicalName(domain)
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make(map[uint64]dnswire.CacheFlag)
	for h, url := range s.byHash {
		if dnswire.URLDomain(url) == domain {
			out[h] = s.flagLocked(url)
		}
	}
	return out
}

func checkIndexAgreement(t *testing.T, s *Store, domains []string, step int, op string) {
	t.Helper()
	for _, d := range domains {
		want := scratchKnown(s, d)
		got := make(map[uint64]dnswire.CacheFlag, len(want))
		for _, ce := range s.KnownHashesForDomain(d) {
			got[ce.Hash] = ce.Flag
		}
		if len(got) != len(want) {
			t.Fatalf("step %d (%s) domain %s: index knows %d hashes, scan %d", step, op, d, len(got), len(want))
		}
		for h, f := range want {
			if got[h] != f {
				t.Fatalf("step %d (%s) domain %s hash %d: index flag %v, scan flag %v", step, op, d, h, got[h], f)
			}
		}
	}
}

// TestDomainIndexAgreesWithScratchScan drives the store through random
// mutation sequences — puts, refreshes, TTL expiry (with and without
// sweeps), coherence purges in every flavour, stale serves, revalidations,
// deletions — and after every operation asserts that the incrementally
// maintained per-domain index gives exactly the answers a from-scratch
// scan over all known hashes gives.
func TestDomainIndexAgreesWithScratchScan(t *testing.T) {
	domains := []string{"a.example", "b.example", "c.example"}
	var urls []string
	for _, d := range domains {
		for p := 0; p < 4; p++ {
			urls = append(urls, fmt.Sprintf("http://%s/obj/%d", d, p))
		}
	}

	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		sim := vclock.NewSim(time.Time{})
		sim.Run("main", func() {
			s := NewStore(sim, 32<<10, 0, NewPACM(), nil)
			s.SetNegativeTTL(45 * time.Second)
			version := make(map[string]int64)

			for step := 0; step < 300; step++ {
				url := urls[rng.Intn(len(urls))]
				op := ""
				switch rng.Intn(10) {
				case 0, 1, 2: // put (insert or refresh)
					op = "put"
					version[url]++
					obj := testObj(url, dnswire.URLDomain(url), 512+rng.Intn(3<<10), 1+rng.Intn(3),
						time.Duration(30+rng.Intn(240))*time.Second)
					obj.Version = version[url]
					_ = s.Put(obj, make([]byte, obj.Size), time.Duration(5+rng.Intn(40))*time.Millisecond)
				case 3: // advance virtual time past some TTLs
					op = "sleep"
					sim.Sleep(time.Duration(rng.Intn(90)) * time.Second)
				case 4: // purge: version bump, randomly gone / stale-while-revalidate
					op = "purge"
					version[url]++
					s.Purge(url, version[url], rng.Intn(4) == 0, rng.Intn(2) == 0)
				case 5:
					op = "getstale"
					_, _ = s.GetStale(url)
				case 6:
					op = "revalidated"
					s.Revalidated(url, version[url])
				case 7:
					op = "markgone"
					s.MarkGone(url)
				case 8:
					op = "sweep"
					s.SweepExpired()
				case 9:
					op = "get"
					_, _ = s.Get(url)
				}
				checkIndexAgreement(t, s, domains, step, op)
			}
		})
	}
}

// TestStoreConcurrentAccess hammers every read-path method concurrently
// with puts, sweeps, purges and revalidations under the real clock. Run
// with -race this is the store's data-race certification; the final
// index-vs-scan agreement check guards the invariants too.
func TestStoreConcurrentAccess(t *testing.T) {
	s := NewStore(&vclock.Real{}, 64<<10, 0, NewPACM(), nil)
	domains := []string{"x.example", "y.example"}
	var urls []string
	for _, d := range domains {
		for p := 0; p < 8; p++ {
			urls = append(urls, fmt.Sprintf("http://%s/obj/%d", d, p))
		}
	}

	const (
		goroutines = 8
		iters      = 400
	)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g + 1)))
			for i := 0; i < iters; i++ {
				url := urls[rng.Intn(len(urls))]
				switch rng.Intn(12) {
				case 0:
					obj := testObj(url, dnswire.URLDomain(url), 512+rng.Intn(2<<10), 1+rng.Intn(3), time.Minute)
					obj.Version = int64(i)
					_ = s.Put(obj, make([]byte, obj.Size), 10*time.Millisecond)
				case 1:
					s.Purge(url, int64(i), false, true)
				case 2:
					s.Purge(url, int64(i), true, false)
				case 3:
					_, _ = s.GetStale(url)
				case 4:
					s.Revalidated(url, int64(i))
				case 5:
					s.SweepExpired()
				case 6:
					if e, ok := s.Get(url); ok && len(e.Data) == 0 {
						t.Error("Get returned an entry with no payload")
					}
				case 7:
					_ = s.Flag(url)
				case 8:
					_ = s.FlagByHash(dnswire.HashURL(url))
				case 9:
					_ = s.KnownHashesForDomain(domains[rng.Intn(len(domains))])
				case 10:
					_, _ = s.MeshView()
				case 11:
					s.RecordRequest(dnswire.URLDomain(url))
					_ = s.Freq().Rate(dnswire.URLDomain(url))
				}
			}
		}(g)
	}
	wg.Wait()

	checkIndexAgreement(t, s, domains, -1, "final")
	if s.Used() < 0 || s.Used() > s.Capacity() {
		t.Errorf("capacity invariant violated: used=%d capacity=%d", s.Used(), s.Capacity())
	}
}

// sortedGreedyKeepSet is the pre-heap reference implementation: full sort
// by descending density (deterministic tie-breaks matching the heap's),
// then the fits-else-skip fill.
func sortedGreedyKeepSet(entries []*Entry, avail int64, now time.Time, freq *FreqTracker) []*Entry {
	rc := newRateCache(freq)
	type ranked struct {
		e       *Entry
		density float64
	}
	rs := make([]ranked, 0, len(entries))
	for _, e := range entries {
		size := e.Size()
		if size <= 0 {
			size = 1
		}
		rs = append(rs, ranked{e: e, density: rc.utility(e, now) / float64(size)})
	}
	sort.Slice(rs, func(i, j int) bool {
		a, b := rs[i], rs[j]
		if a.density != b.density {
			return a.density > b.density
		}
		if a.e.seq != b.e.seq {
			return a.e.seq < b.e.seq
		}
		return a.e.Object.URL < b.e.Object.URL
	})
	var keep []*Entry
	var used int64
	for _, r := range rs {
		if used+r.e.Size() <= avail {
			keep = append(keep, r.e)
			used += r.e.Size()
		}
	}
	return keep
}

// TestPACMHeapSelectionMatchesSortReference asserts the heapify-and-pop
// keep-set equals the full-sort keep-set on random instances, including
// duplicate densities and zero-utility (expired) entries.
func TestPACMHeapSelectionMatchesSortReference(t *testing.T) {
	p := NewPACM()
	for seed := int64(1); seed <= 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		sim := vclock.NewSim(time.Time{})
		sim.Run("main", func() {
			now := sim.Now()
			freq := NewFreqTracker(sim, DefaultAlpha, DefaultFreqWindow)
			n := 1 + rng.Intn(60)
			entries := make([]*Entry, n)
			for i := range entries {
				app := fmt.Sprintf("app%d", rng.Intn(4))
				size := 256 << rng.Intn(4) // duplicate sizes → duplicate densities
				ttl := time.Duration(rng.Intn(5)) * time.Minute
				e := &Entry{
					Object:       testObj(fmt.Sprintf("http://%s.example/%d", app, i), app, size, 1+rng.Intn(3), ttl),
					Data:         make([]byte, size),
					Expiry:       now.Add(ttl), // ttl may be 0 → expired, zero utility
					FetchLatency: time.Duration(1+rng.Intn(3)) * 10 * time.Millisecond,
					seq:          uint64(i + 1),
				}
				entries[i] = e
				freq.Record(app)
			}
			avail := int64(rng.Intn(48 << 10))

			got := p.greedyKeepSet(entries, avail, now, freq)
			want := sortedGreedyKeepSet(entries, avail, now, freq)

			gotSet := make(map[*Entry]bool, len(got))
			for _, e := range got {
				gotSet[e] = true
			}
			if len(got) != len(want) {
				t.Fatalf("seed %d: heap keep-set size %d, sort reference %d", seed, len(got), len(want))
			}
			for _, e := range want {
				if !gotSet[e] {
					t.Fatalf("seed %d: sort reference keeps %s, heap does not", seed, e.Object.URL)
				}
			}
		})
	}
}

// TestStoreHeapsStayProportionalToResidents runs 20,000 Puts over 400
// URLs of one domain into a store that holds about 128 of them. Every Put
// pushes an expiry item, so a heap that only sheds items when they
// surface at its top grows with the Put count rather than with the
// resident set; the store's heaps must stay within a constant factor of
// the residents throughout.
func TestStoreHeapsStayProportionalToResidents(t *testing.T) {
	for _, policy := range []Policy{NewPACM(), NewLRU()} {
		runStore(t, 128<<10, policy, func(sim *vclock.Sim, s *Store) {
			rng := rand.New(rand.NewSource(1))
			for i := 0; i < 20000; i++ {
				url := fmt.Sprintf("http://api.one.example/o%d", rng.Intn(400))
				o := testObj(url, "one", 1024, 1+rng.Intn(3), 10*time.Minute)
				_ = s.Put(o, o.Body(), time.Duration(5+rng.Intn(40))*time.Millisecond)
				sim.Sleep(10 * time.Millisecond)
				s.mu.RLock()
				items, residents := s.expiries.Len(), len(s.entries)
				s.mu.RUnlock()
				if items > 2*residents+expirySlack+1 {
					t.Fatalf("%s: after %d Puts the expiry heap holds %d items for %d residents",
						policy.Name(), i+1, items, residents)
				}
			}
			if n := s.Len(); n < 100 || n > 128 {
				t.Fatalf("%s: %d residents, want about 128", policy.Name(), n)
			}
		})
	}
}
