package main

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"apecache/internal/coherence"
	"apecache/internal/objstore"
)

// workload is one traffic mix. Only the generated requests reach the
// program; the seed never does.
type workload struct {
	name string
	why  string
	// objects spread round-robin over domains; sizes are uniform in
	// [minKB, maxKB] KiB.
	objects, domains int
	minKB, maxKB     int
	zipfS            float64
	ttl              time.Duration
	// rate is the open-loop arrival rate in operations per second.
	rate float64
	// writeShare is the fraction of operations that are origin writes
	// (Catalog.Mutate + coherence.Publish) instead of reads.
	writeShare float64
	// warm selects the set-up warm-up: warmAll requests every object
	// once; warmFill draws from the workload until the cache is full.
	warm      warmKind
	coherence coherence.Mode
}

type warmKind int

const (
	warmAll warmKind = iota
	warmFill
)

var workloads = []workload{
	{
		name:    "hit-warm",
		why:     "small objects that all fit the pre-warmed cache: every request is a DNS-Cache lookup plus an AP cache hit, so only the per-request fixed cost is measured",
		objects: 200, domains: 20, minKB: 1, maxKB: 16, zipfS: 1.1, ttl: time.Hour,
		rate: 500, warm: warmAll, coherence: coherence.ModeOff,
	},
	{
		name:    "miss-churn",
		why:     "a 100 MiB catalog against the 5 MiB cache, filled before timing: about half the requests delegate, so admission, eviction and the edge fetch do the work",
		objects: 2000, domains: 20, minKB: 1, maxKB: 100, zipfS: 1.0, ttl: time.Hour,
		rate: 400, warm: warmFill, coherence: coherence.ModeOff,
	},
	{
		name:    "purge-mix",
		why:     "the hit-warm catalog with 5% origin writes purged through the coherence hub: purge delivery, store invalidation and refill run beside reads",
		objects: 200, domains: 20, minKB: 1, maxKB: 16, zipfS: 1.1, ttl: time.Hour,
		rate: 500, writeShare: 0.05, warm: warmAll, coherence: coherence.ModeInvalidate,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// Independent random streams derived from the seed, so adding draws to
// one phase never shifts another phase's inputs.
const (
	streamCatalog int64 = iota + 1
	streamRank
	streamWarm
	streamOpen
	streamTraced
	streamClient
	// Round r of an untraced run draws its open-loop schedule from
	// stream streamRound+r; clients use streamClient+i, i < GOMAXPROCS.
	streamRound int64 = 1 << 20
)

func rngFor(seed, which int64) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + which*7_919))
}

// catalog builds the workload's objects and their popularity from the
// seed. Sizes and priorities are stratified over popularity ranks: each
// run of ten consecutive ranks holds one size from every tenth of the
// size range and five objects of each priority, shuffled. Seeds then
// differ in which URL is hot and in its exact size, but every seed's
// hot set has the same size profile, so runs with different seeds
// measure the program rather than the luck of the draw.
func (w workload) catalog(seed int64) ([]*objstore.Object, *zipf) {
	rng := rngFor(seed, streamCatalog)
	z := newZipf(w.objects, w.zipfS, rngFor(seed, streamRank))
	objs := make([]*objstore.Object, w.objects)
	span := (w.maxKB - w.minKB) << 10
	for block := 0; block < w.objects; block += strata {
		tenths, prios := rng.Perm(strata), rng.Perm(strata)
		for k := block; k < min(block+strata, w.objects); k++ {
			lo := span * tenths[k-block] / strata
			hi := span * (tenths[k-block] + 1) / strata
			i := z.perm[k]
			objs[i] = &objstore.Object{
				URL:      fmt.Sprintf("http://d%02d.%s.example/obj%04d", i%w.domains, w.name, i),
				App:      fmt.Sprintf("app%02d", i%w.domains),
				Size:     w.minKB<<10 + lo + rng.Intn(hi-lo+1),
				TTL:      w.ttl,
				Priority: 1 + prios[k-block]%2,
				// No origin delay: the edge is prepopulated, and refills
				// after a purge should cost the stack's own work only.
			}
		}
	}
	return objs, z
}

// strata is the number of popularity ranks over which sizes and
// priorities are balanced.
const strata = 10

// zipf draws object indices with P(rank k) ∝ 1/k^s, ranks mapped to
// objects through a seeded permutation (math/rand.Zipf needs s > 1).
type zipf struct {
	cdf  []float64
	perm []int
}

func newZipf(n int, s float64, rng *rand.Rand) *zipf {
	cdf := make([]float64, n)
	total := 0.0
	for k := range n {
		total += 1 / math.Pow(float64(k+1), s)
		cdf[k] = total
	}
	for k := range cdf {
		cdf[k] /= total
	}
	return &zipf{cdf: cdf, perm: rng.Perm(n)}
}

func (z *zipf) draw(rng *rand.Rand) int {
	k := sort.SearchFloat64s(z.cdf, rng.Float64())
	if k >= len(z.cdf) {
		k = len(z.cdf) - 1
	}
	return z.perm[k]
}

// op is one scheduled operation: a read of obj, or an origin write.
type op struct {
	due   time.Duration // offset from the phase start (open loop only)
	obj   int
	write bool
}

// nextOp draws one operation from the workload mix.
func (w workload) nextOp(z *zipf, rng *rand.Rand) op {
	o := op{obj: z.draw(rng)}
	o.write = w.writeShare > 0 && rng.Float64() < w.writeShare
	return o
}

// schedule draws a Poisson arrival schedule at the workload's rate.
func (w workload) schedule(z *zipf, rng *rand.Rand, d time.Duration) []op {
	var ops []op
	at := time.Duration(0)
	for {
		at += time.Duration(rng.ExpFloat64() / w.rate * float64(time.Second))
		if at >= d {
			return ops
		}
		o := w.nextOp(z, rng)
		o.due = at
		ops = append(ops, o)
	}
}

// refs holds every body version the origin has produced, for the
// byte-for-byte check of each read. Writers add a version while holding
// the origin lock, so a version's reference exists before any server
// can hand it out.
type refs struct {
	mu       sync.RWMutex
	versions [][][]byte // per object, indexed by version
	current  []atomic.Int64
}

func newRefs(objs []*objstore.Object) *refs {
	r := &refs{versions: make([][][]byte, len(objs)), current: make([]atomic.Int64, len(objs))}
	for i, o := range objs {
		r.versions[i] = [][]byte{o.Body()}
	}
	return r
}

// add records version v of object i.
func (r *refs) add(i int, o *objstore.Object, v int64) {
	body := objstore.VersionedBody(o.URL, o.Size, v)
	r.mu.Lock()
	for int64(len(r.versions[i])) <= v {
		r.versions[i] = append(r.versions[i], nil)
	}
	r.versions[i][v] = body
	r.mu.Unlock()
	r.current[i].Store(v)
}

// check compares a body with the versions of object i. A read issued
// when version want was current may also see a newer version (a write
// landed during the read); an older one is a stale read.
func (r *refs) check(i int, body []byte, want int64) (ok, stale bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	vs := r.versions[i]
	if want < int64(len(vs)) && bytes.Equal(body, vs[want]) {
		return true, false
	}
	for v := len(vs) - 1; v >= 0; v-- {
		if int64(v) != want && vs[v] != nil && bytes.Equal(body, vs[v]) {
			return true, int64(v) < want
		}
	}
	return false, false
}
