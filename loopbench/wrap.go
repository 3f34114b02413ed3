package main

import (
	"bytes"
	"io"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"apecache/internal/apcache"
	"apecache/internal/telemetry"
	"apecache/internal/transport"
	"apecache/internal/vclock"
)

// The wrappers in this file sit between the program and the interfaces
// its Config structs already accept (transport.Host, vclock.Env,
// apcache.ResourceSink). They count and time work at each layer
// boundary from the outside, and they remember every socket so a stack
// can be torn down completely between runs.

// netCounters totals socket work across every wrapped host of a stack.
type netCounters struct {
	dials       atomic.Int64 // TCP connections opened
	datagrams   atomic.Int64 // UDP datagrams sent
	packetReads atomic.Int64 // UDP datagrams received
	readBufs    atomic.Int64 // capacity of the buffers those reads returned
	streamBytes atomic.Int64 // TCP payload bytes written
	// cacheGets and delegatePosts count the client requests seen on the
	// wire, for the AP-counter identities.
	cacheGets     atomic.Int64
	delegatePosts atomic.Int64
}

type netSnap struct {
	dials, datagrams, packetReads, readBufs, streamBytes, cacheGets, delegatePosts int64
}

func (c *netCounters) snap() netSnap {
	return netSnap{
		dials: c.dials.Load(), datagrams: c.datagrams.Load(), packetReads: c.packetReads.Load(),
		readBufs: c.readBufs.Load(), streamBytes: c.streamBytes.Load(),
		cacheGets: c.cacheGets.Load(), delegatePosts: c.delegatePosts.Load(),
	}
}

func (a netSnap) sub(b netSnap) netSnap {
	return netSnap{
		dials: a.dials - b.dials, datagrams: a.datagrams - b.datagrams, packetReads: a.packetReads - b.packetReads,
		readBufs: a.readBufs - b.readBufs, streamBytes: a.streamBytes - b.streamBytes,
		cacheGets: a.cacheGets - b.cacheGets, delegatePosts: a.delegatePosts - b.delegatePosts,
	}
}

// tracker remembers every open listener and socket so teardown can
// close them all, including the keep-alive connections the program's
// HTTP clients keep privately.
type tracker struct {
	mu   sync.Mutex
	open map[io.Closer]struct{}
}

func newTracker() *tracker { return &tracker{open: make(map[io.Closer]struct{})} }

func (t *tracker) add(c io.Closer) {
	t.mu.Lock()
	t.open[c] = struct{}{}
	t.mu.Unlock()
}

func (t *tracker) remove(c io.Closer) {
	t.mu.Lock()
	delete(t.open, c)
	t.mu.Unlock()
}

// closeAll closes everything still open; closing twice is harmless for
// realnet sockets.
func (t *tracker) closeAll() {
	t.mu.Lock()
	open := make([]io.Closer, 0, len(t.open))
	for c := range t.open {
		open = append(open, c)
	}
	t.open = make(map[io.Closer]struct{})
	t.mu.Unlock()
	for _, c := range open {
		_ = c.Close() // teardown: the peer may already have closed it
	}
}

// host wraps a transport.Host. Name may differ from the wrapped host's
// so spans from different load workers stay apart.
type host struct {
	inner transport.Host
	name  string
	net   *netCounters
	track *tracker
	// client marks a load worker's host: its request lines are counted.
	client bool
	// dns, when set, keeps copies of the DNS-Cache messages sent and
	// received (traced runs only).
	dns *dnsCapture
	// server, when set, times each request/response exchange on
	// connections accepted on its port from then on (traced runs only).
	server atomic.Pointer[exchangeTimes]
	// dialed, when set before the host dials, times each exchange on
	// connections it dials to that port (traced load workers only).
	dialed *exchangeTimes
}

var _ transport.Host = (*host)(nil)

func (h *host) Name() string { return h.name }

func (h *host) Listen(port uint16) (transport.Listener, error) {
	l, err := h.inner.Listen(port)
	if err != nil {
		return nil, err
	}
	w := &listener{Listener: l, h: h}
	h.track.add(w)
	return w, nil
}

func (h *host) ListenPacket(port uint16) (transport.PacketConn, error) {
	pc, err := h.inner.ListenPacket(port)
	if err != nil {
		return nil, err
	}
	w := &packetConn{PacketConn: pc, h: h}
	h.track.add(w)
	return w, nil
}

func (h *host) Dial(remote transport.Addr) (transport.Stream, error) {
	s, err := h.inner.Dial(remote)
	if err != nil {
		return nil, err
	}
	h.net.dials.Add(1)
	var ex *exchange
	if h.dialed != nil && remote.Port == h.dialed.port {
		ex = &exchange{sink: h.dialed, dialed: true}
	}
	return h.wrapStream(s, ex), nil
}

func (h *host) wrapStream(s transport.Stream, ex *exchange) *stream {
	w := &stream{Stream: s, h: h, ex: ex}
	h.track.add(w)
	return w
}

type listener struct {
	transport.Listener
	h *host
}

func (l *listener) Accept() (transport.Stream, error) {
	s, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	var ex *exchange
	if st := l.h.server.Load(); st != nil && l.Addr().Port == st.port {
		ex = &exchange{sink: st}
	}
	return l.h.wrapStream(s, ex), nil
}

func (l *listener) Close() error {
	l.h.track.remove(l)
	return l.Listener.Close()
}

type stream struct {
	transport.Stream
	h  *host
	ex *exchange
}

var (
	cacheLine    = []byte("GET /cache?")
	delegateLine = []byte("POST /delegate ")
)

func (s *stream) Read(p []byte) (int, error) {
	n, err := s.Stream.Read(p)
	if s.ex != nil && n > 0 {
		if s.ex.dialed {
			s.ex.response(p[:n])
		} else {
			s.ex.request(p[:n])
		}
	}
	return n, err
}

func (s *stream) Write(p []byte) (int, error) {
	if s.h.client {
		switch {
		case bytes.HasPrefix(p, cacheLine):
			s.h.net.cacheGets.Add(1)
		case bytes.HasPrefix(p, delegateLine):
			s.h.net.delegatePosts.Add(1)
		}
	}
	n, err := s.Stream.Write(p)
	s.h.net.streamBytes.Add(int64(n))
	if s.ex != nil && n > 0 {
		if s.ex.dialed {
			s.ex.request(p[:n])
		} else {
			s.ex.response(p[:n])
		}
	}
	return n, err
}

func (s *stream) Close() error {
	s.h.track.remove(s)
	return s.Stream.Close()
}

type packetConn struct {
	transport.PacketConn
	h *host
}

func (p *packetConn) WriteTo(payload []byte, to transport.Addr) error {
	p.h.net.datagrams.Add(1)
	p.h.dns.sent(payload)
	return p.PacketConn.WriteTo(payload, to)
}

func (p *packetConn) ReadFrom() (transport.Packet, error) {
	return p.received(p.PacketConn.ReadFrom())
}

func (p *packetConn) ReadFromTimeout(d time.Duration) (transport.Packet, error) {
	return p.received(p.PacketConn.ReadFromTimeout(d))
}

func (p *packetConn) received(pkt transport.Packet, err error) (transport.Packet, error) {
	if err == nil {
		p.h.net.packetReads.Add(1)
		p.h.net.readBufs.Add(int64(cap(pkt.Payload)))
		p.h.dns.received(pkt.Payload)
	}
	return pkt, err
}

func (p *packetConn) Close() error {
	p.h.track.remove(p)
	return p.PacketConn.Close()
}

// dnsCapture keeps copies of the first dnsCaptureMax DNS-Cache queries
// and responses a client exchanged, so the codec can be timed on the
// run's real messages afterwards. Safe on a nil receiver.
type dnsCapture struct {
	mu                 sync.Mutex
	queries, responses [][]byte
}

const dnsCaptureMax = 512

func (c *dnsCapture) sent(payload []byte) {
	if c != nil {
		c.keep(&c.queries, payload)
	}
}

func (c *dnsCapture) received(payload []byte) {
	if c != nil {
		c.keep(&c.responses, payload)
	}
}

func (c *dnsCapture) keep(dst *[][]byte, payload []byte) {
	c.mu.Lock()
	if len(*dst) < dnsCaptureMax {
		*dst = append(*dst, append([]byte(nil), payload...))
	}
	c.mu.Unlock()
}

// exchangeTimes collects, per trace, how long the HTTP exchanges on
// one port took: from the first request byte to the last response
// byte, as seen by the AP's server (accepted connections) or by a
// client (dialed connections).
type exchangeTimes struct {
	port uint16
	mu   sync.Mutex
	by   map[telemetry.TraceID]time.Duration
}

func newExchangeTimes(port uint16) *exchangeTimes {
	return &exchangeTimes{port: port, by: make(map[telemetry.TraceID]time.Duration)}
}

func (et *exchangeTimes) add(trace telemetry.TraceID, d time.Duration) {
	if trace == 0 {
		return // purge relays and other untraced requests
	}
	et.mu.Lock()
	et.by[trace] += d
	et.mu.Unlock()
}

// times returns the collected durations by trace.
func (et *exchangeTimes) times() map[telemetry.TraceID]time.Duration {
	et.mu.Lock()
	defer et.mu.Unlock()
	return et.by
}

// exchange follows one connection. httplite uses a connection for one
// request at a time, so an exchange starts with the first request byte
// (read by a server, written by a client) and ends when the response
// has passed as many body bytes as its head announced.
type exchange struct {
	sink   *exchangeTimes
	dialed bool // the client's end of the connection
	active bool
	start  time.Time
	req    []byte // request head, up to headKeep bytes
	resp   []byte // response bytes until the head is complete
	inBody bool
	left   int // response body bytes still to pass
}

const headKeep = 2 << 10

var (
	traceKey  = []byte("\r\n" + telemetry.TraceHeader + ": ")
	lengthKey = []byte("content-length: ")
	headEnd   = []byte("\r\n\r\n")
)

func (e *exchange) request(p []byte) {
	if !e.active {
		e.active, e.inBody = true, false
		e.start = time.Now()
		e.req, e.resp = e.req[:0], e.resp[:0]
	}
	if room := headKeep - len(e.req); room > 0 {
		e.req = append(e.req, p[:min(room, len(p))]...)
	}
}

func (e *exchange) response(p []byte) {
	if !e.active {
		return
	}
	if e.inBody {
		e.left -= len(p)
	} else {
		e.resp = append(e.resp, p...)
		i := bytes.Index(e.resp, headEnd)
		if i < 0 {
			return
		}
		e.inBody = true
		e.left = headerInt(e.resp[:i], lengthKey) - (len(e.resp) - i - len(headEnd))
	}
	if e.left <= 0 {
		trace, _ := telemetry.ParseTraceID(headerValue(e.req, traceKey))
		e.sink.add(trace, time.Since(e.start))
		e.active = false
	}
}

func headerValue(head, key []byte) string {
	i := bytes.Index(head, key)
	if i < 0 {
		return ""
	}
	v := head[i+len(key):]
	if j := bytes.IndexByte(v, '\r'); j >= 0 {
		v = v[:j]
	}
	return string(v)
}

func headerInt(head, key []byte) int {
	n, _ := strconv.Atoi(headerValue(head, key))
	return n
}

// env wraps the real clock: Sleep is timed (the AP's singleflight
// followers poll with it) and returns early once the stack stops, so
// the sweeper's long sleep does not hold up teardown.
type env struct {
	*vclock.Real
	stop     chan struct{}
	stopOnce sync.Once
	// Sleeps shorter than background cadence count as request-path
	// waiting.
	cadence time.Duration
	sleepNs atomic.Int64
}

var _ vclock.Env = (*env)(nil)

func newEnv(cadence time.Duration) *env {
	return &env{Real: &vclock.Real{}, stop: make(chan struct{}), cadence: cadence}
}

func (e *env) Sleep(d time.Duration) {
	if d <= 0 {
		return
	}
	start := time.Now()
	t := time.NewTimer(d)
	select {
	case <-t.C:
	case <-e.stop:
		t.Stop()
	}
	if d < e.cadence {
		e.sleepNs.Add(int64(time.Since(start)))
	}
}

func (e *env) halt() { e.stopOnce.Do(func() { close(e.stop) }) }

// sink implements apcache.ResourceSink; it keeps the payload bytes the
// AP fetched from the edge (the backhaul).
type sink struct {
	backhaul atomic.Int64
}

var _ apcache.ResourceSink = (*sink)(nil)

func (s *sink) Account(op apcache.OpKind, n int) {
	if op == apcache.OpDelegation {
		s.backhaul.Add(int64(n))
	}
}
