package coherence

import (
	"encoding/json"
	"fmt"
	"sort"
	"sync"
	"testing"
	"time"

	"apecache/internal/httplite"
	"apecache/internal/simnet"
	"apecache/internal/transport"
	"apecache/internal/vclock"
)

// batchSink is a subscriber endpoint that accepts both wire forms and
// records the received messages plus the wire request count.
type batchSink struct {
	mu       sync.Mutex
	msgs     []Msg
	requests int
}

func (p *batchSink) handle(req *httplite.Request) *httplite.Response {
	msgs, err := ParseMsgs(req.Body)
	if err != nil {
		return httplite.NewResponse(400, nil)
	}
	p.mu.Lock()
	p.requests++
	p.msgs = append(p.msgs, msgs...)
	p.mu.Unlock()
	return httplite.NewResponse(200, nil)
}

func (p *batchSink) snapshot() ([]Msg, int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]Msg(nil), p.msgs...), p.requests
}

func sortedURLs(msgs []Msg) []string {
	out := make([]string, 0, len(msgs))
	for _, m := range msgs {
		out = append(out, fmt.Sprintf("%s@%d", m.URL, m.Version))
	}
	sort.Strings(out)
	return out
}

// startSink binds a batchSink at name:8080 on the simulated network.
func startSink(t *testing.T, sim *vclock.Sim, net *simnet.Network, name string) *batchSink {
	t.Helper()
	sink := &batchSink{}
	mux := httplite.NewMux()
	mux.HandleFunc(DefaultPurgePath, sink.handle)
	l, err := net.Node(name).Listen(8080)
	if err != nil {
		t.Fatalf("%s listen: %v", name, err)
	}
	srv := httplite.NewServer(sim, mux)
	sim.Go(name+".server", func() { srv.Serve(l) })
	return sink
}

// TestDispatchBatchedEqualsPerMessage is the batch-path property test: a
// batch-capable subscriber and a legacy single-Msg subscriber on the
// same sharded hub must receive exactly the same purge set for the same
// publications — batching changes the wire framing, never the delivered
// content — while the batch endpoint sees far fewer wire requests.
func TestDispatchBatchedEqualsPerMessage(t *testing.T) {
	const purges = 40
	sim := vclock.NewSim(time.Time{})
	sim.Run("main", func() {
		net := simnet.New(sim, 7)
		for _, n := range []string{"origin", "apb", "apl"} {
			net.SetLink(n, "edge", simnet.Path{Latency: 5 * time.Millisecond})
		}
		hub := NewHub(sim, net.Node("edge"), nil)
		hub.SetDispatch(DispatchConfig{Shards: 8, Workers: 2, FlushInterval: 5 * time.Millisecond})
		l, err := net.Node("edge").Listen(80)
		if err != nil {
			t.Errorf("listen: %v", err)
			return
		}
		srv := httplite.NewServer(sim, hub.Wrap(httplite.HandlerFunc(func(*httplite.Request) *httplite.Response {
			return httplite.NewResponse(404, nil)
		})))
		sim.Go("hub.server", func() { srv.Serve(l) })
		hubAddr := transport.Addr{Host: "edge", Port: 80}

		batched := startSink(t, sim, net, "apb")
		legacy := startSink(t, sim, net, "apl")
		cb := httplite.NewClient(net.Node("apb"))
		if err := SubscribeWith(cb, hubAddr, Subscription{Addr: transport.Addr{Host: "apb", Port: 8080}, Batch: true}); err != nil {
			t.Errorf("batch subscribe: %v", err)
			return
		}
		cl := httplite.NewClient(net.Node("apl"))
		if err := Subscribe(cl, hubAddr, transport.Addr{Host: "apl", Port: 8080}, ""); err != nil {
			t.Errorf("legacy subscribe: %v", err)
			return
		}

		// A purge storm: all publications in flight concurrently, the way
		// an origin-side bulk update arrives, so the dispatcher actually
		// has something to coalesce.
		origin := httplite.NewClient(net.Node("origin"))
		for i := 0; i < purges; i++ {
			i := i
			sim.Go("storm.pub", func() {
				msg := Msg{URL: fmt.Sprintf("http://app%d.example/obj%d", i%4, i), Version: int64(i + 1)}
				if err := Publish(origin, hubAddr, msg); err != nil {
					t.Errorf("publish %d: %v", i, err)
				}
			})
		}
		sim.Sleep(2 * time.Second)

		bmsgs, breqs := batched.snapshot()
		lmsgs, lreqs := legacy.snapshot()
		bu, lu := sortedURLs(bmsgs), sortedURLs(lmsgs)
		if len(bu) != purges || len(lu) != purges {
			t.Fatalf("delivered %d batched / %d legacy msgs, want %d each", len(bu), len(lu), purges)
		}
		for i := range bu {
			if bu[i] != lu[i] {
				t.Fatalf("delivered sets diverge at %d: %s vs %s", i, bu[i], lu[i])
			}
		}
		if lreqs != purges {
			t.Errorf("legacy endpoint saw %d wire requests, want %d", lreqs, purges)
		}
		if breqs*4 > lreqs {
			t.Errorf("batch endpoint saw %d wire requests vs %d per-message: expected >= 4x coalescing", breqs, lreqs)
		}
		if got := hub.Stats().Published; got != purges {
			t.Errorf("published = %d, want %d", got, purges)
		}
	})
	sim.Shutdown()
	sim.Wait()
	if err := sim.Err(); err != nil {
		t.Fatal(err)
	}
}

// TestDispatchShardRouting checks that domain interest confines purges
// to matching shards while interest-free subscribers receive everything.
func TestDispatchShardRouting(t *testing.T) {
	sim := vclock.NewSim(time.Time{})
	sim.Run("main", func() {
		net := simnet.New(sim, 3)
		for _, n := range []string{"origin", "apa", "apb", "apc"} {
			net.SetLink(n, "edge", simnet.Path{Latency: 2 * time.Millisecond})
		}
		hub := NewHub(sim, net.Node("edge"), nil)
		d := hub.SetDispatch(DispatchConfig{Shards: 8, FlushInterval: 2 * time.Millisecond})

		sinkA := startSink(t, sim, net, "apa")
		sinkB := startSink(t, sim, net, "apb")
		sinkC := startSink(t, sim, net, "apc")
		d.Register(Subscription{Addr: transport.Addr{Host: "apa", Port: 8080}, Path: DefaultPurgePath, Domains: []string{"a.example"}, Batch: true})
		d.Register(Subscription{Addr: transport.Addr{Host: "apb", Port: 8080}, Path: DefaultPurgePath, Domains: []string{"b.example"}, Batch: true})
		d.Register(Subscription{Addr: transport.Addr{Host: "apc", Port: 8080}, Path: DefaultPurgePath, Batch: true})

		aMsg := Msg{URL: "http://a.example/x", Version: 1}
		bMsg := Msg{URL: "http://b.example/y", Version: 2}
		d.Publish(aMsg)
		d.Publish(bMsg)
		sim.Sleep(time.Second)

		am, _ := sinkA.snapshot()
		bm, _ := sinkB.snapshot()
		cm, _ := sinkC.snapshot()
		if len(cm) != 2 {
			t.Errorf("interest-free subscriber got %d msgs, want 2", len(cm))
		}
		hasURL := func(msgs []Msg, url string) bool {
			for _, m := range msgs {
				if m.URL == url {
					return true
				}
			}
			return false
		}
		if !hasURL(am, aMsg.URL) {
			t.Errorf("a-subscriber missed its own domain's purge: %+v", am)
		}
		if !hasURL(bm, bMsg.URL) {
			t.Errorf("b-subscriber missed its own domain's purge: %+v", bm)
		}
		// The two domains may or may not share a shard; cross-delivery is
		// allowed exactly when they collide.
		sm := NewShardMap(8)
		if sm.Shard("a.example") != sm.Shard("b.example") {
			if hasURL(am, bMsg.URL) || hasURL(bm, aMsg.URL) {
				t.Errorf("cross-shard delivery: a=%+v b=%+v", am, bm)
			}
		}
	})
	sim.Shutdown()
	sim.Wait()
	if err := sim.Err(); err != nil {
		t.Fatal(err)
	}
}

// TestDispatchEvictsDeadSubscriber: after MaxFailures consecutive failed
// deliveries the dispatcher drops the registration; a re-subscribe (the
// restarted daemon) re-registers it.
func TestDispatchEvictsDeadSubscriber(t *testing.T) {
	sim := vclock.NewSim(time.Time{})
	sim.Run("main", func() {
		net := simnet.New(sim, 3)
		net.SetLink("edge", "deadap", simnet.Path{Latency: time.Millisecond})
		hub := NewHub(sim, net.Node("edge"), nil)
		d := hub.SetDispatch(DispatchConfig{FlushInterval: 2 * time.Millisecond, MaxFailures: 2})
		dead := Subscription{Addr: transport.Addr{Host: "deadap", Port: 8080}, Path: DefaultPurgePath}
		d.Register(dead)

		for i := 0; i < 2; i++ {
			d.Publish(Msg{URL: "http://a.example/x", Version: int64(i + 1)})
			sim.Sleep(50 * time.Millisecond) // one failed flush per round
		}
		if st := d.Stats(); st.Evicted != 1 || st.Subscribers != 0 {
			t.Errorf("stats = %+v, want one eviction, no subscribers", st)
		}
		if st := hub.Stats(); st.Evicted != 1 {
			t.Errorf("hub stats evicted = %d, want 1", st.Evicted)
		}
		d.Register(dead)
		if st := d.Stats(); st.Subscribers != 1 {
			t.Errorf("re-subscribe did not restore the registration: %+v", st)
		}
	})
	sim.Shutdown()
	sim.Wait()
	if err := sim.Err(); err != nil {
		t.Fatal(err)
	}
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	body, err := json.Marshal(v)
	if err != nil {
		t.Fatalf("marshal %T: %v", v, err)
	}
	return body
}

// deadHost is a transport.Host whose dials fail immediately — the
// cheapest way to drive the dispatcher's failure paths from real
// goroutines.
type deadHost struct{ name string }

func (h deadHost) Name() string { return h.name }
func (h deadHost) Listen(uint16) (transport.Listener, error) {
	return nil, transport.ErrRefused
}
func (h deadHost) ListenPacket(uint16) (transport.PacketConn, error) {
	return nil, transport.ErrRefused
}
func (h deadHost) Dial(transport.Addr) (transport.Stream, error) {
	return nil, transport.ErrRefused
}

// TestHubConcurrentSubscribePublishDispatch hammers subscribe, publish,
// dispatch and stats from real goroutines under the race detector, with
// worker tasks starting and exiting as the queues fill and drain. The
// subtest is named for the dispatch plane the publications go through.
func TestHubConcurrentSubscribePublishDispatch(t *testing.T) {
	t.Run("dispatch", func(t *testing.T) {
		env := &vclock.Real{}
		hub := NewHub(env, deadHost{name: "edge"}, nil)
		d := hub.SetDispatch(DispatchConfig{
			Shards:        8,
			Workers:       4,
			FlushInterval: time.Millisecond,
			MaxFailures:   3,
		})
		const workers, rounds = 8, 200
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			w := w
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < rounds; i++ {
					switch (w + i) % 4 {
					case 0:
						sub := Subscription{
							Addr:    transport.Addr{Host: fmt.Sprintf("ap%d", i%16), Port: 8080},
							Domains: []string{fmt.Sprintf("app%d.example", i%8)},
							Batch:   i%2 == 0,
						}
						hub.ServeHTTP(&httplite.Request{Path: PathSubscribe, Body: mustJSON(t, sub)})
					case 1:
						body := []byte(fmt.Sprintf(`{"url":"http://app%d.example/obj%d","version":%d}`, i%8, i, i))
						hub.ServeHTTP(&httplite.Request{Path: PathPublish, Body: body})
					case 2:
						hub.Stats()
						hub.Subscribers()
					case 3:
						hub.ServeHTTP(&httplite.Request{Path: PathStats})
					}
				}
			}()
		}
		wg.Wait()
		d.Stop()
		env.Wait()
		if hub.Stats().Published == 0 {
			t.Error("no publications recorded")
		}
	})
}

// taskCountingEnv wraps a Sim and counts the tasks started through it,
// per name: how many ever started and how many are still running.
type taskCountingEnv struct {
	*vclock.Sim
	mu      sync.Mutex
	started map[string]int
	live    map[string]int
}

func (e *taskCountingEnv) Go(name string, fn func()) {
	e.mu.Lock()
	e.started[name]++
	e.live[name]++
	e.mu.Unlock()
	e.Sim.Go(name, func() {
		defer func() {
			e.mu.Lock()
			e.live[name]--
			e.mu.Unlock()
		}()
		fn()
	})
}

func (e *taskCountingEnv) counts(name string) (started, live int) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.started[name], e.live[name]
}

// TestDispatchWorkersRunOnlyWhileQueued pins the worker lifecycle: a hub
// with subscribers but no purges schedules no drain task, a purge starts
// one and is delivered, and the task exits once its queues drain, so an
// idle hub never ticks the clock.
func TestDispatchWorkersRunOnlyWhileQueued(t *testing.T) {
	sim := vclock.NewSim(time.Time{})
	env := &taskCountingEnv{Sim: sim, started: map[string]int{}, live: map[string]int{}}
	sim.Run("main", func() {
		net := simnet.New(sim, 5)
		for _, n := range []string{"ap1", "ap2"} {
			net.SetLink("edge", n, simnet.Path{Latency: time.Millisecond})
		}
		hub := NewHub(env, net.Node("edge"), nil)
		sinks := []*batchSink{startSink(t, sim, net, "ap1"), startSink(t, sim, net, "ap2")}
		for _, host := range []string{"ap1", "ap2"} {
			body := mustJSON(t, Subscription{Addr: transport.Addr{Host: host, Port: 8080}})
			if resp := hub.ServeHTTP(&httplite.Request{Path: PathSubscribe, Body: body}); resp.Status != 200 {
				t.Errorf("subscribe %s: %d", host, resp.Status)
			}
		}

		sim.Sleep(time.Second)
		if started, _ := env.counts("coherence.dispatch"); started != 0 {
			t.Errorf("%d dispatch tasks started before any purge, want 0", started)
		}

		body := mustJSON(t, Msg{URL: "http://a.example/x", Version: 1})
		if resp := hub.ServeHTTP(&httplite.Request{Path: PathPublish, Body: body}); resp.Status != 200 {
			t.Errorf("publish: %d", resp.Status)
		}
		if started, _ := env.counts("coherence.dispatch"); started == 0 {
			t.Error("a purge was queued but no dispatch task started")
		}
		sim.Sleep(time.Second)
		for i, sink := range sinks {
			if msgs, _ := sink.snapshot(); len(msgs) != 1 {
				t.Errorf("ap%d received %d purges, want 1", i+1, len(msgs))
			}
		}
		if st := hub.Stats().Dispatch; st.Queued != 0 || st.Delivered != 2 {
			t.Errorf("dispatch stats = %+v, want 2 delivered and nothing queued", st)
		}
		if _, live := env.counts("coherence.dispatch"); live != 0 {
			t.Errorf("%d dispatch tasks still alive after the queues drained, want 0", live)
		}
	})
	sim.Shutdown()
	sim.Wait()
	if err := sim.Err(); err != nil {
		t.Fatal(err)
	}
}
