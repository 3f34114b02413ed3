package coherence

import (
	"encoding/json"
	"sync"

	"apecache/internal/httplite"
	"apecache/internal/telemetry"
	"apecache/internal/transport"
	"apecache/internal/vclock"
)

// Hub is the invalidation bus: it accepts purge publications from the
// origin, applies them locally (normally to the colocated edge cache)
// and relays them to every subscribed downstream cache. It implements
// httplite.Handler for the PathSubscribe, PathPublish and PathStats
// routes, so it shares the edge server's port via Wrap.
//
// Every publication fans out through one sharded, batched Dispatcher,
// so publication cost stays near-independent of fleet size and a dead
// subscriber costs bounded queue space, not a task per purge.
// Subscribers that did not declare Batch keep receiving single-Msg
// bodies, so the wire stays compatible with every endpoint.
type Hub struct {
	// onPurge invalidates the local (edge) copy before the fan-out, so a
	// revalidating AP never re-fetches the stale bytes it just purged.
	onPurge func(Msg)

	mu       sync.Mutex
	dispatch *Dispatcher
	tel      *telemetry.Telemetry
	// published counts accepted purge publications, relayed the
	// per-subscriber deliveries ordered (message granularity, whatever
	// the wire batching). Standalone until Instrument registers them.
	published *telemetry.Counter
	relayed   *telemetry.Counter
}

// NewHub builds a hub that dials subscribers from host through a
// default-configured dispatcher (see SetDispatch). onPurge may be nil
// when there is no colocated cache to invalidate.
func NewHub(env vclock.Env, host transport.Host, onPurge func(Msg)) *Hub {
	return &Hub{
		onPurge:   onPurge,
		dispatch:  NewDispatcher(env, httplite.NewClient(host), DispatchConfig{}),
		published: new(telemetry.Counter),
		relayed:   new(telemetry.Counter),
	}
}

// Instrument registers the bus counters and a subscriber-count gauge,
// and enables purge event logging. Call before serving traffic: counts
// taken earlier stay on the hub's standalone counters.
func (h *Hub) Instrument(tel *telemetry.Telemetry) {
	if tel == nil {
		return
	}
	m := tel.Metrics
	m.GaugeFunc("coherence_subscribers", "downstream caches registered on the bus", func() float64 {
		return float64(len(h.Subscribers()))
	})
	h.mu.Lock()
	h.tel = tel
	h.published = m.Counter("coherence_published_total", "purge publications accepted")
	h.relayed = m.Counter("coherence_relayed_total", "per-subscriber purge deliveries attempted")
	h.mu.Unlock()
}

// SetDispatch replaces the hub's dispatcher with one tuned by cfg (zero
// fields default) and returns it; registered subscribers move over.
// Call before serving traffic.
func (h *Hub) SetDispatch(cfg DispatchConfig) *Dispatcher {
	h.mu.Lock()
	defer h.mu.Unlock()
	old := h.dispatch
	old.Stop()
	d := NewDispatcher(old.env, old.client, cfg)
	for _, sub := range old.Subscribers() {
		d.Register(sub)
	}
	h.dispatch = d
	return d
}

// Dispatcher returns the hub's fan-out dispatcher.
func (h *Hub) Dispatcher() *Dispatcher {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.dispatch
}

var _ httplite.Handler = (*Hub)(nil)

// Subscribers returns a snapshot of the registered subscriber endpoints.
func (h *Hub) Subscribers() []transport.Addr {
	subs := h.Dispatcher().Subscribers()
	out := make([]transport.Addr, 0, len(subs))
	for _, s := range subs {
		out = append(out, s.Addr)
	}
	return out
}

// HubStats is the PathStats payload.
type HubStats struct {
	Published   int64         `json:"published"`
	Relayed     int64         `json:"relayed"`
	Subscribers int           `json:"subscribers"`
	Evicted     int64         `json:"evicted"`
	Dispatch    DispatchStats `json:"dispatch"`
}

// Stats snapshots the hub counters and its dispatcher's.
func (h *Hub) Stats() HubStats {
	h.mu.Lock()
	d, published, relayed := h.dispatch, h.published, h.relayed
	h.mu.Unlock()
	ds := d.Stats()
	return HubStats{
		Published:   published.Value(),
		Relayed:     relayed.Value(),
		Subscribers: ds.Subscribers,
		Evicted:     ds.Evicted,
		Dispatch:    ds,
	}
}

// ServeHTTP implements httplite.Handler for the bus routes.
func (h *Hub) ServeHTTP(req *httplite.Request) *httplite.Response {
	switch {
	case req.Path == PathSubscribe:
		return h.handleSubscribe(req)
	case req.Path == PathPublish:
		return h.handlePublish(req)
	case req.Path == PathStats:
		return h.handleStats(req)
	default:
		return httplite.NewResponse(404, []byte("unknown bus route"))
	}
}

// Wrap returns a handler that routes bus paths to the hub and everything
// else to next — how the hub shares the edge cache server's port.
func (h *Hub) Wrap(next httplite.Handler) httplite.Handler {
	mux := httplite.NewMux()
	mux.Handle(PathPrefix, h)
	mux.Handle("/", next)
	return mux
}

func (h *Hub) handleStats(req *httplite.Request) *httplite.Response {
	body, err := json.MarshalIndent(h.Stats(), "", "  ")
	if err != nil {
		return httplite.NewResponse(500, []byte(err.Error()))
	}
	resp := httplite.NewResponse(200, body)
	resp.Set("Content-Type", "application/json")
	return resp
}

// handleSubscribe registers a downstream cache. Re-subscribing is
// idempotent: a restarted daemon (possibly announcing a new purge path)
// replaces its old registration instead of doubling every delivery.
func (h *Hub) handleSubscribe(req *httplite.Request) *httplite.Response {
	var sub Subscription
	if err := json.Unmarshal(req.Body, &sub); err != nil || sub.Addr.IsZero() {
		return httplite.NewResponse(400, []byte("bad subscription body"))
	}
	if sub.Path == "" {
		sub.Path = DefaultPurgePath
	}
	h.Dispatcher().Register(sub)
	return httplite.NewResponse(200, nil)
}

// handlePublish applies one purge locally and queues it for every
// interested subscriber. Delivery is best-effort, like the edge's TTLs
// it rides over: a lost purge degrades to TTL-only behaviour.
func (h *Hub) handlePublish(req *httplite.Request) *httplite.Response {
	msg, err := ParseMsg(req.Body)
	if err != nil {
		return httplite.NewResponse(400, []byte(err.Error()))
	}
	// Invalidate the colocated edge copy first: by the time any
	// subscriber revalidates, the edge fetch-through path already serves
	// the new version.
	if h.onPurge != nil {
		h.onPurge(msg)
	}
	h.mu.Lock()
	d, tel, published, relayed := h.dispatch, h.tel, h.published, h.relayed
	h.mu.Unlock()
	n := d.Publish(msg)
	published.Inc()
	relayed.Add(int64(n))
	tel.Emit("purge", "url", msg.URL, "version", msg.Version, "gone", msg.Gone, "subscribers", n)
	return httplite.NewResponse(200, nil)
}
