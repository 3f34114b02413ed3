package main

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"time"

	"apecache/internal/apcache"
	"apecache/internal/apeclient"
	"apecache/internal/cachepolicy"
	"apecache/internal/coherence"
	"apecache/internal/httplite"
	"apecache/internal/objstore"
	"apecache/internal/realnet"
	"apecache/internal/telemetry"
	"apecache/internal/transport"
)

// AP settings, as in the paper's evaluation and aped's defaults
// (decision ledger, mesh and fleet push off).
const (
	cacheCapacity = 5 << 20
	maxObjectSize = 500 << 10
)

// stack is one complete system on loopback sockets: objstore origin,
// prepopulated edge cache with the coherence hub on its port, and one
// AP. Load workers and their clients are made per phase.
type stack struct {
	w    workload
	seed int64

	objs    []*objstore.Object
	catalog *objstore.Catalog
	refs    *refs
	// originMu orders origin writes (Catalog.Mutate, which the catalog
	// leaves to its caller to serialize) against origin serves.
	originMu sync.RWMutex

	env   *env
	tel   *telemetry.Telemetry
	net   *netCounters
	track *tracker
	sink  *sink

	real     transport.Host
	apHost   *host
	ap       *apcache.AP
	edge     *objstore.EdgeCacheServer
	hub      *coherence.Hub
	edgeAddr transport.Addr
	registry *apeclient.Registry
	zipf     *zipf
	ctr      apCounters
	spanCap  int
}

// lockedOrigin serves the origin under the read side of originMu.
type lockedOrigin struct {
	mu *sync.RWMutex
	h  httplite.Handler
}

func (o lockedOrigin) ServeHTTP(req *httplite.Request) *httplite.Response {
	o.mu.RLock()
	defer o.mu.RUnlock()
	return o.h.ServeHTTP(req)
}

// newStack builds and starts the system and runs the warm-up. spanCap
// sizes the span ring for a traced run (0 keeps the default).
func newStack(w workload, seed int64, spanCap int) (*stack, error) {
	s := &stack{
		w:       w,
		seed:    seed,
		env:     newEnv(apcache.DefaultSweepInterval),
		net:     &netCounters{},
		track:   newTracker(),
		sink:    &sink{},
		real:    realnet.NewHost("127.0.0.1"),
		spanCap: telemetry.DefaultSpanCapacity,
	}
	s.tel = telemetry.New(s.env)
	if spanCap > 0 {
		s.spanCap = spanCap
		s.tel.Tracer = telemetry.NewTracer(spanCap)
	}
	s.objs, s.zipf = w.catalog(seed)
	s.catalog = objstore.NewCatalog(s.objs...)
	if err := s.catalog.Validate(); err != nil {
		return nil, err
	}
	s.refs = newRefs(s.objs)
	s.registry = apeclient.NewRegistry("loopbench")
	for _, o := range s.objs {
		if err := s.registry.Register(apeclient.Cacheable{ID: o.URL, Priority: o.Priority, TTL: o.TTL}); err != nil {
			return nil, err
		}
	}
	if err := s.start(); err != nil {
		s.close()
		return nil, err
	}
	if err := s.warmUp(); err != nil {
		s.close()
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	return s, nil
}

func (s *stack) newHost(name string) *host {
	return &host{inner: s.real, name: name, net: s.net, track: s.track}
}

func (s *stack) start() error {
	originHost, edgeHost := s.newHost("127.0.0.1"), s.newHost("127.0.0.1")
	origin := objstore.NewOriginServer(s.env, s.catalog)
	origin.Instrument(s.tel)
	originL, err := originHost.Listen(0)
	if err != nil {
		return err
	}
	originSrv := httplite.NewServer(s.env, lockedOrigin{mu: &s.originMu, h: origin})
	s.env.Go("origin", func() { originSrv.Serve(originL) })

	s.edge = objstore.NewEdgeCacheServer(s.env, edgeHost, s.catalog, originL.Addr())
	s.edge.Instrument(s.tel)
	s.edge.Prepopulate()
	s.hub = coherence.NewHub(s.env, edgeHost, func(m coherence.Msg) { s.edge.Invalidate(m.URL) })
	s.hub.Instrument(s.tel)
	edgeL, err := edgeHost.Listen(0)
	if err != nil {
		return err
	}
	s.edgeAddr = edgeL.Addr()
	edgeSrv := httplite.NewServer(s.env, s.hub.Wrap(s.edge))
	s.env.Go("edge", func() { edgeSrv.Serve(edgeL) })

	// apcache.Config reads port 0 as the privileged defaults, so pick
	// free ports first; another process may take one in between, hence
	// the retries.
	s.apHost = s.newHost("127.0.0.1")
	for attempt := 0; ; attempt++ {
		dnsPort, httpPort, err := freePorts()
		if err != nil {
			return err
		}
		s.ap = apcache.New(apcache.Config{
			Env:           s.env,
			Host:          s.apHost,
			EdgeAddr:      s.edgeAddr,
			CacheCapacity: cacheCapacity,
			MaxObjectSize: maxObjectSize,
			Policy:        cachepolicy.NewPACM(),
			Rng:           rand.New(rand.NewSource(s.seed)),
			DNSPort:       dnsPort,
			HTTPPort:      httpPort,
			Resources:     s.sink,
			Coherence:     s.w.coherence,
			Telemetry:     s.tel,
		})
		err = s.ap.Start()
		if err == nil {
			break
		}
		if attempt == 4 {
			return fmt.Errorf("start AP: %w", err)
		}
	}
	s.ctr = newAPCounters(s.tel.Metrics)
	return nil
}

// freePorts returns a port free for both UDP and TCP (the AP's DNS
// listens on both) and a second free TCP port.
func freePorts() (dnsPort, httpPort uint16, err error) {
	for range 20 {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return 0, 0, err
		}
		port := l.Addr().(*net.TCPAddr).Port
		pc, uerr := net.ListenPacket("udp", fmt.Sprintf("127.0.0.1:%d", port))
		if uerr != nil {
			l.Close()
			continue
		}
		h, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			l.Close()
			pc.Close()
			return 0, 0, err
		}
		httpPort = uint16(h.Addr().(*net.TCPAddr).Port)
		l.Close()
		pc.Close()
		h.Close()
		return uint16(port), httpPort, nil
	}
	return 0, 0, errors.New("no free UDP+TCP port pair on 127.0.0.1")
}

// warmUp brings the AP to the workload's steady state: every object
// cached (warmAll), or the cache filled to capacity by the workload's
// own draws (warmFill). Bodies are checked as in the timed phases.
func (s *stack) warmUp() error {
	workers, err := s.newWorkers(false)
	if err != nil {
		return err
	}
	defer closeWorkers(workers)
	rng := rngFor(s.seed, streamWarm)
	var ops []op
	settle := 500
	switch s.w.warm {
	case warmAll:
		for i := range s.objs {
			ops = append(ops, op{obj: i})
		}
	case warmFill:
		// Draw in rounds until the store is nearly full, then let the
		// cache turn over many times: PACM's keep-set takes a while to
		// reach its steady state.
		for round := 0; s.ap.Store().Used() < cacheCapacity*9/10; round++ {
			if round == 50 {
				return fmt.Errorf("cache holds %d bytes after %d rounds", s.ap.Store().Used(), round)
			}
			if err := s.runReads(workers, s.drawReads(rng, 200)); err != nil {
				return err
			}
		}
		settle = 4000
	}
	ops = append(ops, s.drawReads(rng, settle)...)
	return s.runReads(workers, ops)
}

func (s *stack) drawReads(rng *rand.Rand, n int) []op {
	ops := make([]op, n)
	for i := range ops {
		ops[i] = op{obj: s.zipf.draw(rng)}
	}
	return ops
}

// runReads executes reads as fast as the workers go and fails on the
// first bad result.
func (s *stack) runReads(workers []*worker, ops []op) error {
	p := &phase{}
	runOps(workers, len(ops), func(wk *worker, i int) {
		s.do(wk, ops[i], nil, p)
	})
	return p.firstErr()
}

// close stops everything the stack started and waits for every task.
func (s *stack) close() error {
	if s.ap != nil {
		s.ap.Stop()
	}
	s.env.halt()
	s.track.closeAll()
	done := make(chan struct{})
	go func() {
		s.env.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-time.After(10 * time.Second):
		return errors.New("teardown: tasks still running 10s after close")
	}
}

// apCounters are the AP's registry instruments, safe to read while it
// serves (registration is idempotent, so these are the AP's own).
type apCounters struct {
	hit, stale, miss, dnsCache, dummy, deleg, inserts, evictions, purges *telemetry.Counter
	published                                                            *telemetry.Counter
	selection                                                            *telemetry.Histogram
}

func newAPCounters(m *telemetry.Registry) apCounters {
	serves := func(result string) *telemetry.Counter {
		return m.LabeledCounter("apcache_cache_serves_total", telemetry.LabelPair("result", result), "AP object serves by result")
	}
	return apCounters{
		hit:       serves("hit"),
		stale:     serves("stale"),
		miss:      serves("miss"),
		dnsCache:  m.LabeledCounter("apcache_dns_queries_total", telemetry.LabelPair("kind", "cache"), "DNS queries by kind"),
		dummy:     m.Counter("apcache_dummy_ip_total", "DNS-Cache answers short-circuited with the dummy IP"),
		deleg:     m.Counter("apcache_delegations_total", "edge fetch-throughs completed"),
		inserts:   m.Counter("apcache_store_insertions_total", "objects admitted"),
		evictions: m.LabeledCounter("apcache_store_evictions_total", telemetry.LabelPair("cause", "capacity"), "evictions by cause"),
		purges:    m.Counter("apcache_purges_total", "coherence bus purge messages applied"),
		published: m.Counter("coherence_published_total", "purge publications accepted"),
		selection: m.Histogram("apcache_pacm_selection_seconds", "victim-selection wall time per admission", telemetry.ComputeBuckets),
	}
}

type apSnap struct {
	hit, stale, miss, dnsCache, dummy, deleg, inserts, evictions, purges, published int64
	selection                                                                       telemetry.HistData
}

func (c apCounters) snap() apSnap {
	return apSnap{
		hit: c.hit.Value(), stale: c.stale.Value(), miss: c.miss.Value(),
		dnsCache: c.dnsCache.Value(), dummy: c.dummy.Value(), deleg: c.deleg.Value(),
		inserts: c.inserts.Value(), evictions: c.evictions.Value(), purges: c.purges.Value(),
		published: c.published.Value(), selection: c.selection.Data(),
	}
}

func (a apSnap) sub(b apSnap) apSnap {
	d := apSnap{
		hit: a.hit - b.hit, stale: a.stale - b.stale, miss: a.miss - b.miss,
		dnsCache: a.dnsCache - b.dnsCache, dummy: a.dummy - b.dummy, deleg: a.deleg - b.deleg,
		inserts: a.inserts - b.inserts, evictions: a.evictions - b.evictions,
		purges: a.purges - b.purges, published: a.published - b.published,
		selection: a.selection,
	}
	d.selection.Counts = append([]uint64(nil), a.selection.Counts...)
	for i := range d.selection.Counts {
		d.selection.Counts[i] -= b.selection.Counts[i]
	}
	d.selection.Sum -= b.selection.Sum
	return d
}
