// Package perfbench is the benchmark trajectory harness behind
// `apebench -perf`: it times the AP hot paths (lookup, admission,
// eviction, wire codec), checks the end-to-end latency sweeps of Fig. 11,
// and records everything in BENCH_apcache.json so each change to the
// cache can be compared against the last recorded trajectory.
//
// The microbenchmarks use fixed iteration counts with a warm-up pass
// (rather than testing.Benchmark's 1-second auto-targeting) so a full
// report stays cheap enough to regenerate on every PR, and quick mode
// stays cheap enough for the test suite.
package perfbench

import (
	"fmt"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"testing"
	"time"

	"apecache/internal/cachepolicy"
	"apecache/internal/dnswire"
	"apecache/internal/experiments"
	"apecache/internal/objstore"
	"apecache/internal/vclock"
)

// Micro is one microbenchmark measurement.
type Micro struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	Note        string  `json:"note,omitempty"`
}

// Invariant is a scalar the trajectory must hold on to (hit ratios,
// speedups, scaling factors).
type Invariant struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Note  string  `json:"note,omitempty"`
}

// Sweep embeds one end-to-end experiment table.
type Sweep struct {
	ID     string     `json:"id"`
	Title  string     `json:"title"`
	Header []string   `json:"header"`
	Rows   [][]string `json:"rows"`
}

// Report is the full perf trajectory snapshot serialized to
// BENCH_apcache.json.
type Report struct {
	GoVersion  string      `json:"go_version"`
	GOMAXPROCS int         `json:"gomaxprocs"`
	NumCPU     int         `json:"num_cpu"`
	Scale      float64     `json:"scale"`
	Seed       int64       `json:"seed"`
	Micros     []Micro     `json:"micros"`
	Invariants []Invariant `json:"invariants"`
	Sweeps     []Sweep     `json:"sweeps"`
}

// Config tunes a harness run.
type Config struct {
	// Scale is forwarded to the Fig-11/Table-4 experiment runs.
	Scale float64
	// Seed is forwarded to the experiment runs.
	Seed int64
	// Quick shrinks microbenchmark iteration counts and skips the
	// end-to-end sweeps (used by the smoke test).
	Quick bool
}

// lookupWorkers is the fan-in of the concurrent lookup benchmarks: the
// paper's AP serves a roomful of clients, so the acceptance bar is 8-way.
const lookupWorkers = 8

// Run produces a full trajectory report.
func Run(cfg Config) (*Report, error) {
	if cfg.Scale <= 0 {
		cfg.Scale = 0.05
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	r := &Report{
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		Scale:      cfg.Scale,
		Seed:       cfg.Seed,
	}
	iters := 20000
	if cfg.Quick {
		iters = 500
	}

	r.benchLookups(iters)
	r.benchDomainScaling(iters)
	r.benchAdmission(iters / 10)
	r.benchCodec(iters)
	r.benchFreq(iters)
	r.benchTelemetry(iters)
	r.benchSnapshot(iters / 10)
	r.benchMesh(iters)
	r.benchFanout(iters)
	r.benchDecisionLog(iters)

	if !cfg.Quick {
		if err := r.runSweeps(cfg); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// timeOp runs fn n times after a short warm-up and returns ns/op.
func timeOp(n int, fn func(i int)) float64 {
	warm := n / 10
	if warm > 100 {
		warm = 100
	}
	for i := 0; i < warm; i++ {
		fn(i)
	}
	start := time.Now()
	for i := 0; i < n; i++ {
		fn(i)
	}
	return float64(time.Since(start).Nanoseconds()) / float64(n)
}

// timeOpParallel runs fn n times on each of lookupWorkers goroutines and
// returns wall-clock ns per round (one round = one call on every worker).
// Contention-free paths approach the single-call cost; fully serialized
// paths approach lookupWorkers × the single-call cost, which is what the
// rwmutex-vs-mutex speedup below measures. GOMAXPROCS is raised to the
// worker count for the measurement so the workers can actually overlap on
// hosts with the cores to do it.
func timeOpParallel(n int, fn func(w, i int)) float64 {
	prev := runtime.GOMAXPROCS(lookupWorkers)
	defer runtime.GOMAXPROCS(prev)
	run := func(iters int) time.Duration {
		var wg sync.WaitGroup
		start := time.Now()
		for w := 0; w < lookupWorkers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; i < iters; i++ {
					fn(w, i)
				}
			}(w)
		}
		wg.Wait()
		return time.Since(start)
	}
	run(n / 10) // warm-up
	return float64(run(n).Nanoseconds()) / float64(n)
}

func allocsOf(fn func()) float64 { return testing.AllocsPerRun(100, fn) }

// populatedStore builds a store holding residents entries spread over
// domains, plus extraKnown evicted-but-known hashes (the population the
// pre-index KnownHashesForDomain scanned in full).
func populatedStore(residents, domains, extraKnown int) (*cachepolicy.Store, []string) {
	s := cachepolicy.NewStore(&vclock.Real{}, 1<<30, 1<<20, cachepolicy.NewPACM(), nil)
	urls := make([]string, 0, residents)
	for i := 0; i < residents; i++ {
		url := fmt.Sprintf("http://app%d.example/obj/%d", i%domains, i)
		obj := &objstore.Object{URL: url, App: fmt.Sprintf("app%d", i%domains), Size: 1 << 10, TTL: time.Hour, Priority: 1 + i%3}
		if err := s.Put(obj, make([]byte, obj.Size), 10*time.Millisecond); err != nil {
			panic(err)
		}
		urls = append(urls, url)
	}
	for i := 0; i < extraKnown; i++ {
		// Known but long expired, in unrelated domains: they grow the
		// total hash population without touching the measured domain.
		url := fmt.Sprintf("http://other%d.example/old/%d", i%32, i)
		obj := &objstore.Object{URL: url, App: fmt.Sprintf("app%d", i%domains), Size: 256, TTL: time.Nanosecond, Priority: 1}
		if err := s.Put(obj, make([]byte, obj.Size), 10*time.Millisecond); err != nil {
			panic(err)
		}
	}
	s.SweepExpired()
	return s, urls
}

// benchLookups measures 8-way concurrent Flag/FlagByHash on the
// read-locked store against the frozen single-mutex baseline replica and
// records the speedup.
func (r *Report) benchLookups(iters int) {
	const residents, domains = 256, 8
	s, urls := populatedStore(residents, domains, 0)
	base := newMutexStore(residents, domains)

	hashes := make([]uint64, len(urls))
	for i, u := range urls {
		hashes[i] = dnswire.HashURL(u)
	}

	newNs := timeOpParallel(iters, func(w, i int) {
		k := (w*7919 + i) % len(urls)
		if i%2 == 0 {
			s.Flag(urls[k])
		} else {
			s.FlagByHash(hashes[k])
		}
	})
	baseNs := timeOpParallel(iters, func(w, i int) {
		k := (w*7919 + i) % len(urls)
		if i%2 == 0 {
			base.Flag(urls[k])
		} else {
			base.FlagByHash(hashes[k])
		}
	})

	note := fmt.Sprintf("one op = %d concurrent lookups, one per worker", lookupWorkers)
	r.Micros = append(r.Micros,
		Micro{Name: "store/lookup-8way/rwmutex", NsPerOp: newNs, Note: note},
		Micro{Name: "store/lookup-8way/mutex-baseline", NsPerOp: baseNs, Note: note},
	)
	note2 := "read-locked store throughput over the seed's single-mutex store, 8 concurrent readers (acceptance bar: >= 5 with >= 8 cores)"
	if runtime.NumCPU() < lookupWorkers {
		note2 = fmt.Sprintf("measured on %d CPU(s): readers cannot physically overlap, so the ratio reflects only the mutex's handoff overhead; on >= %d cores this is the parallel speedup (acceptance bar: >= 5)",
			runtime.NumCPU(), lookupWorkers)
	}
	r.Invariants = append(r.Invariants, Invariant{
		Name:  "lookup-8way-speedup",
		Value: round2(baseNs / newNs),
		Note:  note2,
	})
}

// benchDomainScaling measures KnownHashesForDomain on a fixed 16-entry
// domain while the store's total known-hash population grows 64×. The
// indexed store must stay flat; the scan baseline is recorded alongside
// to show what the index replaces.
func (r *Report) benchDomainScaling(iters int) {
	const domainEntries = 16
	small, _ := populatedStore(domainEntries, 1, 256-domainEntries)
	large, _ := populatedStore(domainEntries, 1, 16384-domainEntries)
	baseSmall := newMutexStoreKnown(domainEntries, 256)
	baseLarge := newMutexStoreKnown(domainEntries, 16384)
	const domain = "app0.example"

	smallNs := timeOp(iters, func(int) { small.KnownHashesForDomain(domain) })
	largeNs := timeOp(iters, func(int) { large.KnownHashesForDomain(domain) })
	baseSmallNs := timeOp(iters, func(int) { baseSmall.KnownHashesForDomain(domain) })
	baseLargeNs := timeOp(iters/20, func(int) { baseLarge.KnownHashesForDomain(domain) })

	r.Micros = append(r.Micros,
		Micro{Name: "store/known-hashes/indexed/256-total", NsPerOp: smallNs, Note: "16-entry domain"},
		Micro{Name: "store/known-hashes/indexed/16384-total", NsPerOp: largeNs, Note: "16-entry domain"},
		Micro{Name: "store/known-hashes/scan-baseline/256-total", NsPerOp: baseSmallNs, Note: "16-entry domain"},
		Micro{Name: "store/known-hashes/scan-baseline/16384-total", NsPerOp: baseLargeNs, Note: "16-entry domain"},
	)
	r.Invariants = append(r.Invariants,
		Invariant{
			Name:  "known-hashes-population-scaling",
			Value: round2(largeNs / smallNs),
			Note:  "indexed cost ratio under a 64x larger total hash population; O(domain entries) keeps it near 1, the seed's scan sat near 64",
		},
		Invariant{
			Name:  "known-hashes-scan-baseline-scaling",
			Value: round2(baseLargeNs / baseSmallNs),
			Note:  "the replaced full-scan's cost ratio on the same populations",
		},
	)
}

// benchAdmission measures PACM victim selection (heapified, incremental in
// the victim count) against the seed's full-sort selection on identical
// inputs, plus the end-to-end Put churn through a store at capacity.
func (r *Report) benchAdmission(iters int) {
	now := time.Now()
	freq := cachepolicy.NewFreqTracker(&vclock.Real{}, cachepolicy.DefaultAlpha, cachepolicy.DefaultFreqWindow)
	const n = 1024
	entries := make([]*cachepolicy.Entry, n)
	var used int64
	for i := range entries {
		app := fmt.Sprintf("app%d", i%8)
		size := 1 << (9 + i%4)
		entries[i] = &cachepolicy.Entry{
			Object:       &objstore.Object{URL: fmt.Sprintf("http://%s.example/%d", app, i), App: app, Size: size, TTL: time.Hour, Priority: 1 + i%3},
			Data:         make([]byte, size),
			Expiry:       now.Add(time.Duration(1+i%120) * time.Minute),
			FetchLatency: time.Duration(5+i%40) * time.Millisecond,
			LastUsed:     now,
			Inserted:     now,
		}
		used += int64(size)
		freq.Record(app)
	}
	incoming := &cachepolicy.Entry{
		Object:       &objstore.Object{URL: "http://app0.example/incoming", App: "app0", Size: 32 << 10, TTL: time.Hour, Priority: 3},
		Data:         make([]byte, 32<<10),
		Expiry:       now.Add(time.Hour),
		FetchLatency: 20 * time.Millisecond,
	}
	capacity := used // incoming never fits: a handful of victims per call
	p := cachepolicy.NewPACM()

	heapNs := timeOp(iters, func(int) { p.SelectVictims(now, entries, incoming, capacity, freq) })
	sortNs := timeOp(iters, func(int) { legacySortSelect(p, now, entries, incoming, capacity, freq) })
	heapAllocs := allocsOf(func() { p.SelectVictims(now, entries, incoming, capacity, freq) })
	sortAllocs := allocsOf(func() { legacySortSelect(p, now, entries, incoming, capacity, freq) })

	r.Micros = append(r.Micros,
		Micro{Name: "pacm/select-1024/heap", NsPerOp: heapNs, AllocsPerOp: heapAllocs, Note: "heapify + pop victims only"},
		Micro{Name: "pacm/select-1024/sort-baseline", NsPerOp: sortNs, AllocsPerOp: sortAllocs, Note: "seed behaviour: full sort every admission"},
	)
	r.Invariants = append(r.Invariants, Invariant{
		Name:  "pacm-select-speedup",
		Value: round2(sortNs / heapNs),
		Note:  "heap selection over full-sort selection, 1024 residents",
	})

	// End-to-end admission: Put into a store pinned at capacity, every
	// call paying flag/index maintenance and eviction.
	store := cachepolicy.NewStore(&vclock.Real{}, 256<<10, 1<<20, cachepolicy.NewPACM(), nil)
	putNs := timeOp(iters, func(i int) {
		app := fmt.Sprintf("app%d", i%8)
		obj := &objstore.Object{URL: fmt.Sprintf("http://%s.example/churn/%d", app, i%512), App: app, Size: 4 << 10, TTL: time.Hour, Priority: 1 + i%3}
		if err := store.Put(obj, make([]byte, obj.Size), 10*time.Millisecond); err != nil {
			panic(err)
		}
	})
	r.Micros = append(r.Micros, Micro{Name: "store/put-churn-at-capacity", NsPerOp: putNs, Note: "4 KiB objects through a 256 KiB PACM store"})

	// Exact-DP solver at its dpMaxEntries ceiling (bitset DP table).
	dp := &cachepolicy.PACM{Theta: cachepolicy.DefaultFairnessThreshold, UseDP: true}
	dpEntries := entries[:256]
	var dpUsed int64
	for _, e := range dpEntries {
		dpUsed += e.Size()
	}
	dpIters := iters / 10
	if dpIters < 10 {
		dpIters = 10
	}
	dpNs := timeOp(dpIters, func(int) { dp.SelectVictims(now, dpEntries, incoming, dpUsed, freq) })
	r.Micros = append(r.Micros, Micro{Name: "pacm/select-dp-256", NsPerOp: dpNs, Note: "exact knapsack DP at dpMaxEntries (bitset reconstruction table)"})
}

// benchCodec measures the DNS wire codec on a representative DNS-Cache
// response: the one-shot Encode, the pooled AppendEncode, and Decode.
func (r *Report) benchCodec(iters int) {
	entries := make([]dnswire.CacheEntry, 32)
	for i := range entries {
		entries[i] = dnswire.CacheEntry{Hash: dnswire.HashURL(fmt.Sprintf("http://api.movie.example/clip/%d", i)), Flag: dnswire.CacheFlag(i % 4)}
	}
	q := dnswire.NewQuery(0x1234, "api.movie.example", dnswire.TypeA)
	msg := q.Reply()
	msg.Answers = append(msg.Answers, dnswire.NewA("api.movie.example", 60, dnswire.IPv4{10, 0, 0, 7}))
	msg.Additional = append(msg.Additional, dnswire.NewCacheRR("api.movie.example", dnswire.ClassCacheResponse, entries))

	wire, err := msg.Encode()
	if err != nil {
		panic(err)
	}
	buf := make([]byte, 0, 4<<10)

	encodeNs := timeOp(iters, func(int) {
		if _, err := msg.Encode(); err != nil {
			panic(err)
		}
	})
	appendNs := timeOp(iters, func(int) {
		out, err := msg.AppendEncode(buf[:0])
		if err != nil {
			panic(err)
		}
		buf = out
	})
	decodeNs := timeOp(iters, func(int) {
		if _, err := dnswire.Decode(wire); err != nil {
			panic(err)
		}
	})
	encodeAllocs := allocsOf(func() { _, _ = msg.Encode() })
	appendAllocs := allocsOf(func() { out, _ := msg.AppendEncode(buf[:0]); buf = out })
	decodeAllocs := allocsOf(func() { _, _ = dnswire.Decode(wire) })

	r.Micros = append(r.Micros,
		Micro{Name: "dnswire/encode-cache-response", NsPerOp: encodeNs, AllocsPerOp: encodeAllocs, Note: "32-entry DNS-Cache batch"},
		Micro{Name: "dnswire/append-encode-pooled", NsPerOp: appendNs, AllocsPerOp: appendAllocs, Note: "recycled buffer + pooled offsets map"},
		Micro{Name: "dnswire/decode-cache-response", NsPerOp: decodeNs, AllocsPerOp: decodeAllocs},
	)
	r.Invariants = append(r.Invariants, Invariant{
		Name:  "append-encode-allocs",
		Value: appendAllocs,
		Note:  "allocations per pooled encode of a representative DNS-Cache response (target 0)",
	})
}

// benchFreq measures concurrent FreqTracker.Record — touched by every
// client request — under the 8-way workload.
func (r *Report) benchFreq(iters int) {
	f := cachepolicy.NewFreqTracker(&vclock.Real{}, cachepolicy.DefaultAlpha, cachepolicy.DefaultFreqWindow)
	apps := make([]string, 16)
	for i := range apps {
		apps[i] = fmt.Sprintf("app%d", i)
		f.Record(apps[i])
	}
	recordNs := timeOpParallel(iters, func(w, i int) { f.Record(apps[(w+i)%len(apps)]) })
	rateNs := timeOpParallel(iters, func(w, i int) { f.Rate(apps[(w+i)%len(apps)]) })
	r.Micros = append(r.Micros,
		Micro{Name: "freq/record-8way", NsPerOp: recordNs, Note: fmt.Sprintf("one op = %d concurrent records", lookupWorkers)},
		Micro{Name: "freq/rate-8way", NsPerOp: rateNs, Note: fmt.Sprintf("one op = %d concurrent reads", lookupWorkers)},
	)
}

// runSweeps embeds the Fig-11 latency sweeps and turns the first Table-4
// row into hit-ratio invariants, pinning that the hot-path rework did not
// move policy outcomes.
func (r *Report) runSweeps(cfg Config) error {
	rc := experiments.RunConfig{Scale: cfg.Scale, Seed: cfg.Seed}
	for _, id := range []string{"fig11a", "fig11b", "fig11c"} {
		e, ok := experiments.ByID(id)
		if !ok {
			return fmt.Errorf("perfbench: experiment %q not registered", id)
		}
		res, err := e.Run(rc)
		if err != nil {
			return fmt.Errorf("perfbench: %s: %w", id, err)
		}
		r.Sweeps = append(r.Sweeps, Sweep{ID: res.ID, Title: res.Title, Header: res.Header, Rows: res.Rows})
	}

	t4, ok := experiments.ByID("table4")
	if !ok {
		return fmt.Errorf("perfbench: table4 not registered")
	}
	res, err := t4.Run(rc)
	if err != nil {
		return fmt.Errorf("perfbench: table4: %w", err)
	}
	r.Sweeps = append(r.Sweeps, Sweep{ID: res.ID, Title: res.Title, Header: res.Header, Rows: res.Rows})

	// The fleet-storm scenario: relay amplification under the two fan-out
	// planes, with the worst observed reduction pinned as an invariant.
	storm, ok := experiments.ByID("fleet-storm")
	if !ok {
		return fmt.Errorf("perfbench: fleet-storm not registered")
	}
	sres, err := storm.Run(rc)
	if err != nil {
		return fmt.Errorf("perfbench: fleet-storm: %w", err)
	}
	r.Sweeps = append(r.Sweeps, Sweep{ID: sres.ID, Title: sres.Title, Header: sres.Header, Rows: sres.Rows})
	reductions, match := experiments.StormOutcome(sres)
	minRed := 0.0
	for i, v := range reductions {
		if i == 0 || v < minRed {
			minRed = v
		}
	}
	matchVal := 0.0
	if match {
		matchVal = 1
	}
	r.Invariants = append(r.Invariants,
		Invariant{
			Name:  "fleet-storm-relay-reduction-x",
			Value: round2(minRed),
			Note:  "worst relay-message reduction, sharded over legacy fan-out, across storm fleet sizes (acceptance bar: >= 10)",
		},
		Invariant{
			Name:  "fleet-storm-effective-match",
			Value: matchVal,
			Note:  "1 when the sharded plane purged exactly the resident set the legacy broadcast purged",
		},
	)
	if len(res.Rows) > 0 && len(res.Rows[0]) >= 4 {
		row := res.Rows[0]
		for i, name := range []string{"pacm-avg", "pacm-high", "lru"} {
			v, err := strconv.ParseFloat(row[i+1], 64)
			if err != nil {
				return fmt.Errorf("perfbench: table4 cell %q: %w", row[i+1], err)
			}
			r.Invariants = append(r.Invariants, Invariant{
				Name:  "table4/" + row[0] + "/" + name,
				Value: v,
				Note:  "hit ratio at this scale/seed; must not move when only performance changes",
			})
		}
	}
	return nil
}

// Summary renders the human-readable digest apebench prints.
func (r *Report) Summary() string {
	out := fmt.Sprintf("perf trajectory (%s, GOMAXPROCS=%d, scale=%g, seed=%d)\n",
		r.GoVersion, r.GOMAXPROCS, r.Scale, r.Seed)
	name := 0
	for _, m := range r.Micros {
		if len(m.Name) > name {
			name = len(m.Name)
		}
	}
	for _, m := range r.Micros {
		out += fmt.Sprintf("  %-*s  %10.1f ns/op  %6.1f allocs/op\n", name, m.Name, m.NsPerOp, m.AllocsPerOp)
	}
	inv := append([]Invariant(nil), r.Invariants...)
	sort.Slice(inv, func(i, j int) bool { return inv[i].Name < inv[j].Name })
	for _, v := range inv {
		out += fmt.Sprintf("  invariant %-40s %10.3f\n", v.Name, v.Value)
	}
	return out
}

func round2(v float64) float64 { return float64(int64(v*100+0.5)) / 100 }
