package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"apecache/internal/apeclient"
	"apecache/internal/coherence"
	"apecache/internal/httplite"
)

// clients is the number of load workers, one per processor the Go
// runtime uses; each is an apeclient.Client with its own keep-alive
// connection to the AP.
func clients() int { return runtime.GOMAXPROCS(0) }

// worker is one load generator: a client library instance for reads and
// an HTTP client to the coherence hub for origin writes.
type worker struct {
	id     int
	host   *host
	client *apeclient.Client
	pub    *httplite.Client
	pacer  *pacer
	rng    *rand.Rand
	// traced phases record one entry per read, in execution order.
	records []record
}

// record is one read's timeline, kept for the traced breakdown.
type record struct {
	obj                   int
	due, start, got, done time.Time
}

func (s *stack) newWorkers(traced bool) ([]*worker, error) {
	n := clients()
	workers := make([]*worker, n)
	for i := range workers {
		h := s.newHost(fmt.Sprintf("w%d", i))
		h.client = true
		if traced {
			h.dns = &dnsCapture{}
		}
		cfg := apeclient.Config{
			Env:      s.env,
			Host:     h,
			Registry: s.registry,
			APDNS:    s.ap.DNSAddr(),
			APHTTP:   s.ap.HTTPAddr(),
			Rng:      rand.New(rand.NewSource(s.seed + int64(i))),
			// Shorter than any inter-request gap: every Get runs the
			// full two-stage path (DNS-Cache lookup, then fetch).
			FlagTTL: time.Nanosecond,
		}
		if traced {
			cfg.Telemetry = s.tel
		}
		p, err := newPacer()
		if err != nil {
			closeWorkers(workers[:i])
			return nil, err
		}
		workers[i] = &worker{
			id:     i,
			host:   h,
			client: apeclient.New(cfg),
			pub:    httplite.NewClient(h),
			pacer:  p,
			rng:    rngFor(s.seed, streamClient+int64(i)),
		}
	}
	return workers, nil
}

func closeWorkers(workers []*worker) {
	for _, wk := range workers {
		wk.pacer.Close()
	}
}

// runOps hands operation indices 0..n-1 to the workers in order.
func runOps(workers []*worker, n int, fn func(wk *worker, i int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for _, wk := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				fn(wk, i)
			}
		}()
	}
	wg.Wait()
}

// phase accumulates one measured phase. Workers add under mu.
type phase struct {
	mu      sync.Mutex
	reads   int
	writes  int
	failed  int
	stale   int
	errs    []string
	lat     []time.Duration // open-loop reads: due → verified body
	lag     []time.Duration // every op: due → sent
	publish []time.Duration

	// Process resources over the phase: wall time, CPU (user+sys),
	// the machine's CPU steal (see steal.go) and bytes allocated.
	dur, cpu, steal time.Duration
	alloc           uint64

	numGC    uint32
	pauseNs  uint64
	ap       apSnap
	net      netSnap
	backhaul int64 // AP→edge payload bytes
	sleepNs  int64
	// Struct counters, read once the phase is quiescent.
	apDelegations, apPurges, edgeRequests int
}

func (p *phase) addErr(format string, args ...any) {
	p.failed++
	if len(p.errs) < 5 {
		p.errs = append(p.errs, fmt.Sprintf(format, args...))
	}
}

func (p *phase) firstErr() error {
	if p.failed == 0 {
		return nil
	}
	return fmt.Errorf("%d failed operations, first: %s", p.failed, p.errs[0])
}

// merge adds phases up into one, for the figures taken over a run.
func merge(ps []*phase) *phase {
	t := &phase{}
	for _, p := range ps {
		t.reads += p.reads
		t.writes += p.writes
		t.stale += p.stale
		t.lat = append(t.lat, p.lat...)
		t.lag = append(t.lag, p.lag...)
		t.dur += p.dur
		t.cpu += p.cpu
		t.steal += p.steal
		t.alloc += p.alloc
		t.backhaul += p.backhaul
		t.ap.hit += p.ap.hit
		t.ap.stale += p.ap.stale
	}
	return t
}

// do runs one operation, checks its result and accounts it. rec is set
// for open-loop reads, whose latency runs from rec.due.
func (s *stack) do(wk *worker, o op, rec *record, p *phase) {
	obj := s.objs[o.obj]
	start := time.Now()
	if o.write {
		s.originMu.Lock()
		v, _ := s.catalog.Mutate(obj.URL)
		s.refs.add(o.obj, obj, v)
		s.originMu.Unlock()
		t0 := time.Now()
		err := coherence.Publish(wk.pub, s.edgeAddr, coherence.Msg{URL: obj.URL, Version: v})
		d := time.Since(t0)
		p.mu.Lock()
		p.writes++
		p.publish = append(p.publish, d)
		if err != nil {
			p.addErr("publish %s: %v", obj.URL, err)
		}
		p.mu.Unlock()
		return
	}
	want := s.refs.current[o.obj].Load()
	body, err := wk.client.Get(obj.URL)
	got := time.Now()
	ok, stale := false, false
	if err == nil {
		ok, stale = s.refs.check(o.obj, body, want)
	}
	done := time.Now()
	if rec != nil {
		rec.obj, rec.start, rec.got, rec.done = o.obj, start, got, done
		wk.records = append(wk.records, *rec)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.reads++
	switch {
	case err != nil:
		p.addErr("get %s: %v", obj.URL, err)
	case !ok:
		p.addErr("get %s: body of %d bytes matches no origin version", obj.URL, len(body))
	case stale:
		p.stale++
	}
	if rec != nil && !rec.due.IsZero() {
		p.lat = append(p.lat, done.Sub(rec.due))
	}
}

// openLoop runs a fixed schedule: each operation is due at its offset
// from the phase start, whichever worker is free sends it, and its
// latency runs from the due time, so waiting behind a busy client or a
// late generator counts.
func (s *stack) openLoop(workers []*worker, ops []op) (*phase, error) {
	p := &phase{}
	mark := s.begin()
	start := time.Now().Add(5 * time.Millisecond)
	var pacerErr atomic.Value
	runOps(workers, len(ops), func(wk *worker, i int) {
		due := start.Add(ops[i].due)
		if err := wk.pacer.until(due); err != nil {
			pacerErr.Store(err)
		}
		sent := time.Now()
		p.mu.Lock()
		p.lag = append(p.lag, sent.Sub(due))
		p.mu.Unlock()
		s.do(wk, ops[i], &record{due: due}, p)
	})
	if err, _ := pacerErr.Load().(error); err != nil {
		return nil, err
	}
	s.end(p, mark)
	return p, nil
}

// closedLoop keeps every worker busy for d: the next operation is sent
// as soon as the previous one completes.
func (s *stack) closedLoop(workers []*worker, d time.Duration) *phase {
	p := &phase{}
	mark := s.begin()
	deadline := time.Now().Add(d)
	var wg sync.WaitGroup
	for _, wk := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				s.do(wk, s.w.nextOp(s.zipf, wk.rng), nil, p)
			}
		}()
	}
	wg.Wait()
	s.end(p, mark)
	return p
}

// mark is the state at a phase start.
type mark struct {
	at                                    time.Time
	cpu, steal                            time.Duration
	mem                                   runtime.MemStats
	ap                                    apSnap
	net                                   netSnap
	backhaul                              int64
	sleepNs                               int64
	apDelegations, apPurges, edgeRequests int
}

// maxRSSMiB is the process's peak resident set size.
func maxRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // kilobytes on Linux
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func (s *stack) begin() *mark {
	m := &mark{
		ap:            s.ctr.snap(),
		net:           s.net.snap(),
		backhaul:      s.sink.backhaul.Load(),
		sleepNs:       s.env.sleepNs.Load(),
		apDelegations: s.ap.Delegations,
		apPurges:      s.ap.Purges,
		edgeRequests:  s.edge.Hits + s.edge.Misses,
	}
	runtime.ReadMemStats(&m.mem)
	m.at, m.cpu, m.steal = time.Now(), cpuTime(), stealTime()
	return m
}

// end closes the phase's books: resource deltas first, then, once the
// purge relays have drained, the struct counters and the identities
// between layers.
func (s *stack) end(p *phase, m *mark) {
	p.dur, p.cpu, p.steal = time.Since(m.at), cpuTime()-m.cpu, stealTime()-m.steal
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	p.alloc = mem.TotalAlloc - m.mem.TotalAlloc
	p.numGC = mem.NumGC - m.mem.NumGC
	p.pauseNs = mem.PauseTotalNs - m.mem.PauseTotalNs
	p.backhaul = s.sink.backhaul.Load() - m.backhaul
	p.sleepNs = s.env.sleepNs.Load() - m.sleepNs

	// The hub relays purges in background tasks; wait for them before
	// reading counters the relay path moves.
	wait := time.Now().Add(3 * time.Second)
	for s.ctr.purges.Value()-m.ap.purges < int64(p.writes) && time.Now().Before(wait) {
		time.Sleep(time.Millisecond)
	}
	p.ap = s.ctr.snap().sub(m.ap)
	p.net = s.net.snap().sub(m.net)
	p.apDelegations = s.ap.Delegations - m.apDelegations
	p.apPurges = s.ap.Purges - m.apPurges
	p.edgeRequests = s.edge.Hits + s.edge.Misses - m.edgeRequests
	p.checkIdentities()
}

// checkIdentities cross-checks the AP's own counters against what the
// clients put on the wire and what the edge and hub saw.
func (p *phase) checkIdentities() {
	served := p.ap.hit + p.ap.stale
	eq := func(name string, got, want int64) {
		if got != want {
			p.addErr("identity broken: %s: %d != %d", name, got, want)
		}
	}
	eq("AP /cache serves == client /cache requests", served+p.ap.miss, p.net.cacheGets)
	eq("AP hits + /delegate requests == reads", served+p.net.delegatePosts, int64(p.reads))
	eq("AP Delegations field == apcache_delegations_total", int64(p.apDelegations), p.ap.deleg)
	eq("edge requests == AP delegations", int64(p.edgeRequests), p.ap.deleg)
	if p.ap.deleg > p.net.delegatePosts {
		p.addErr("identity broken: edge fills %d > /delegate requests %d", p.ap.deleg, p.net.delegatePosts)
	}
	eq("hub publications == origin writes", p.ap.published, int64(p.writes))
	eq("AP Purges field == origin writes", int64(p.apPurges), int64(p.writes))
	eq("apcache_purges_total == origin writes", p.ap.purges, int64(p.writes))
}

// cpuPerReq is the phase's process CPU per operation, in µs.
func cpuPerReq(p *phase) float64 {
	return ratio(float64(p.cpu)/1e3, float64(p.reads+p.writes))
}

// stealShare is the machine's CPU steal over the phase as a share of
// the machine's CPU time.
func (p *phase) stealShare() float64 {
	return ratio(float64(p.steal), float64(p.dur)*float64(runtime.NumCPU()))
}
