package main

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"time"

	"apecache/internal/dnswire"
	"apecache/internal/metrics"
	"apecache/internal/telemetry"
)

// traceSpans are the spans one traced read produced, by name.
type traceSpans struct {
	dnsLookup, apDNS, apCache, delegation, edgeFetch time.Duration
	hasCache, hasDelegation, hasEdge                 bool
}

// layerView joins a traced phase's reads with their spans and the
// times of their HTTP exchanges with the AP.
type layerView struct {
	reads []joinedRead
	spans int
}

type joinedRead struct {
	rec   record
	spans *traceSpans
	// get is the read's client-get span; client and server are its HTTP
	// exchanges with the AP, timed on the client's and on the AP's end
	// of the connection.
	get, client, server time.Duration
}

// joinTraces pairs each worker's reads, in execution order, with that
// worker's client-get spans in start order: a worker runs one Get at a
// time, and every traced Get records exactly one client-get span. Every
// read must have both exchange times, or the breakdown would be wrong.
func joinTraces(s *stack, workers []*worker, server, client *exchangeTimes) (*layerView, error) {
	all := s.tel.Tracer.Recent(s.spanCap)
	if len(all) >= s.spanCap {
		return nil, fmt.Errorf("span ring full (%d spans): spans were lost", len(all))
	}
	by := make(map[telemetry.TraceID]*traceSpans)
	gets := make(map[string][]telemetry.Span)
	for _, sp := range all {
		ts := by[sp.Trace]
		if ts == nil {
			ts = &traceSpans{}
			by[sp.Trace] = ts
		}
		switch sp.Name {
		case "client-get":
			gets[sp.Node] = append(gets[sp.Node], sp)
		case "dns-lookup":
			ts.dnsLookup += sp.Duration
		case "ap-dns":
			ts.apDNS += sp.Duration
		case "ap-cache":
			ts.apCache += sp.Duration
			ts.hasCache = true
		case "delegation":
			ts.delegation += sp.Duration
			ts.hasDelegation = true
		case "edge-fetch":
			ts.edgeFetch += sp.Duration
			ts.hasEdge = true
		}
	}
	serverBy, clientBy := server.times(), client.times()
	v := &layerView{spans: len(all)}
	for _, wk := range workers {
		node := "client:" + wk.host.Name()
		spans := gets[node]
		sort.Slice(spans, func(i, j int) bool { return spans[i].Start.Before(spans[j].Start) })
		if len(spans) != len(wk.records) {
			return nil, fmt.Errorf("worker %d: %d reads but %d client-get spans", wk.id, len(wk.records), len(spans))
		}
		for i, rec := range wk.records {
			sp := spans[i]
			if want := "url=" + s.objs[rec.obj].URL; sp.Detail != want {
				return nil, fmt.Errorf("worker %d read %d: span %q, want %q", wk.id, i, sp.Detail, want)
			}
			j := joinedRead{rec: rec, spans: by[sp.Trace], get: sp.Duration, client: clientBy[sp.Trace], server: serverBy[sp.Trace]}
			if j.client <= 0 || j.server <= 0 {
				return nil, fmt.Errorf("worker %d read %d: HTTP exchange not timed (client %v, server %v)", wk.id, i, j.client, j.server)
			}
			v.reads = append(v.reads, j)
		}
	}
	return v, nil
}

// parts splits one read's latency (due → verified body) into the self
// times of the layers it crossed; each is a measured interval minus the
// measured intervals it covers. What no interval covers, such as the
// time the Get call spends outside its client-get span, is left out and
// shows up in other_us.
func (j joinedRead) parts() map[string]time.Duration {
	ts := j.spans
	handlers := ts.apCache + ts.delegation
	return map[string]time.Duration{
		"loadgen.queue":         j.rec.start.Sub(j.rec.due),
		"dns.transport":         ts.dnsLookup - ts.apDNS,
		"apcache.dns":           ts.apDNS,
		"apeclient.self":        j.get - ts.dnsLookup - j.client,
		"http.transport":        j.client - j.server,
		"httplite.server_self":  j.server - handlers,
		"apcache.cache":         ts.apCache,
		"apcache.delegate_self": ts.delegation - ts.edgeFetch,
		"objstore.edge":         ts.edgeFetch,
		"loadgen.verify":        j.rec.done.Sub(j.rec.got),
	}
}

// breakdownOrder lists the parts in request order.
var breakdownOrder = []string{
	"loadgen.queue", "dns.transport", "apcache.dns", "apeclient.self",
	"http.transport", "httplite.server_self", "apcache.cache", "apcache.delegate_self",
	"objstore.edge", "loadgen.verify",
}

// breakdown averages the parts over the reads whose latency lies within
// ±5 percentiles of the median, so the parts describe reads of median
// latency; other_us is the median minus their sum: the time no
// measured interval accounts for.
func (v *layerView) breakdown() (p50 float64, parts map[string]float64, other float64) {
	lats := make([]float64, len(v.reads))
	for i, j := range v.reads {
		lats[i] = float64(j.rec.done.Sub(j.rec.due)) / 1e3
	}
	sorted := append([]float64(nil), lats...)
	p50 = quantile(sorted, 0.5)
	lo, hi := quantile(sorted, 0.45), quantile(sorted, 0.55)
	parts = make(map[string]float64)
	n := 0
	for i, j := range v.reads {
		if lats[i] < lo || lats[i] > hi {
			continue
		}
		n++
		for k, d := range j.parts() {
			parts[k] += float64(d) / 1e3
		}
	}
	sum := 0.0
	for k := range parts {
		parts[k] /= float64(max(n, 1))
		sum += parts[k]
	}
	return p50, parts, p50 - sum
}

// spanP50 is the median over reads that have the span, in µs.
func (v *layerView) spanP50(get func(j joinedRead) (time.Duration, bool)) float64 {
	var ds []time.Duration
	for _, j := range v.reads {
		if d, ok := get(j); ok {
			ds = append(ds, d)
		}
	}
	return durQuantile(ds, 0.5, time.Microsecond)
}

// codecCost times dnswire on the DNS-Cache messages the run exchanged:
// mean encode and decode time per message in µs, and allocations per
// decode.
func codecCost(caps []*dnsCapture) (encodeUs, decodeUs, decodeAllocs float64, err error) {
	var wires [][]byte
	for _, c := range caps {
		c.mu.Lock()
		wires = append(wires, c.queries...)
		wires = append(wires, c.responses...)
		c.mu.Unlock()
	}
	if len(wires) == 0 {
		return 0, 0, 0, fmt.Errorf("no DNS-Cache messages captured")
	}
	msgs := make([]*dnswire.Message, len(wires))
	for i, w := range wires {
		if msgs[i], err = dnswire.Decode(w); err != nil {
			return 0, 0, 0, fmt.Errorf("captured DNS message %d: %w", i, err)
		}
	}
	const budget = 30 * time.Millisecond
	n, start := 0, time.Now()
	for time.Since(start) < budget {
		for _, m := range msgs {
			if _, err := m.Encode(); err != nil {
				return 0, 0, 0, err
			}
		}
		n += len(msgs)
	}
	encodeUs = float64(time.Since(start)) / 1e3 / float64(n)

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	n, start = 0, time.Now()
	for time.Since(start) < budget {
		for _, w := range wires {
			if _, err := dnswire.Decode(w); err != nil {
				return 0, 0, 0, err
			}
		}
		n += len(wires)
	}
	decodeUs = float64(time.Since(start)) / 1e3 / float64(n)
	runtime.ReadMemStats(&after)
	decodeAllocs = float64(after.Mallocs-before.Mallocs) / float64(n)
	return encodeUs, decodeUs, decodeAllocs, nil
}

// clientStats merges the workers' apeclient.Client.Stats().
func clientStats(workers []*worker) (lookup, retrieval metrics.LatencyStats) {
	for _, wk := range workers {
		st := wk.client.Stats()
		lookup.Merge(&st.Lookup)
		retrieval.Merge(&st.RetrievalAll)
	}
	return lookup, retrieval
}

func usP50(s *metrics.LatencyStats) float64 {
	return float64(s.Percentile(50)) / 1e3
}

// layerMetrics derives every per-layer metric. untraced is the same
// stack's untraced open-loop phase, traced the traced one.
func layerMetrics(s *stack, workers []*worker, untraced, traced *phase, v *layerView) (map[string]float64, error) {
	reads := float64(traced.reads)
	kreq := reads / 1000
	out := make(map[string]float64)

	lookup, retrieval := clientStats(workers)
	out["apeclient.lookup_us_p50"] = usP50(&lookup)
	out["apeclient.retrieval_us_p50"] = usP50(&retrieval)

	caps := make([]*dnsCapture, len(workers))
	for i, wk := range workers {
		caps[i] = wk.host.dns
	}
	enc, dec, allocs, err := codecCost(caps)
	if err != nil {
		return nil, err
	}
	out["dnswire.encode_us"] = enc
	out["dnswire.decode_us"] = dec
	out["dnswire.decode_allocs"] = allocs

	out["realnet.datagrams_per_req"] = ratio(float64(traced.net.datagrams), reads)
	out["realnet.stream_bytes_per_req"] = ratio(float64(traced.net.streamBytes), reads)
	out["realnet.read_alloc_kb"] = ratio(float64(traced.net.readBufs)/1024, float64(traced.net.packetReads))

	out["apcache.dns_us_p50"] = v.spanP50(func(j joinedRead) (time.Duration, bool) { return j.spans.apDNS, true })
	out["apcache.cache_us_p50"] = v.spanP50(func(j joinedRead) (time.Duration, bool) { return j.spans.apCache, j.spans.hasCache })
	out["apcache.dummy_ip_ratio"] = ratio(float64(traced.ap.dummy), float64(traced.ap.dnsCache))
	out["apcache.delegate_self_us_p50"] = v.spanP50(func(j joinedRead) (time.Duration, bool) {
		return j.spans.delegation - j.spans.edgeFetch, j.spans.hasDelegation
	})
	out["apcache.sleep_ms_per_kreq"] = ratio(float64(traced.sleepNs)/1e6, kreq)
	out["apcache.backhaul_kb_per_req"] = ratio(float64(traced.backhaul)/1024, reads)

	out["httplite.server_self_us_p50"] = v.spanP50(func(j joinedRead) (time.Duration, bool) {
		return j.server - j.spans.apCache - j.spans.delegation, true
	})
	out["httplite.dials_per_kreq"] = ratio(float64(traced.net.dials), kreq)

	out["cachepolicy.select_us_p50"] = traced.ap.selection.Quantile(0.5) * 1e6
	out["cachepolicy.evictions_per_kreq"] = ratio(float64(traced.ap.evictions), kreq)
	out["cachepolicy.admit_ratio"] = ratio(float64(traced.ap.inserts), float64(traced.ap.deleg))

	out["objstore.edge_us_p50"] = v.spanP50(func(j joinedRead) (time.Duration, bool) { return j.spans.edgeFetch, j.spans.hasEdge })

	out["coherence.publish_us_p50"] = durQuantile(traced.publish, 0.5, time.Microsecond)
	out["coherence.purges_applied_ratio"] = ratio(float64(traced.ap.purges), float64(traced.writes))
	out["coherence.stale_read_ratio"] = ratio(float64(traced.stale), reads)

	out["telemetry.spans_per_req"] = ratio(float64(v.spans), reads)
	base := cpuPerReq(untraced)
	out["telemetry.trace_overhead_pct"] = ratio(cpuPerReq(traced)-base, base) * 100

	ukreq := float64(untraced.reads) / 1000
	out["runtime.gc_per_kreq"] = ratio(float64(untraced.numGC), ukreq)
	out["runtime.gc_pause_ms_per_kreq"] = ratio(float64(untraced.pauseNs)/1e6, ukreq)
	out["runtime.lat_p99_ms"] = durQuantile(untraced.lat, 0.99, time.Millisecond)
	out["loadgen.lag_ms_p99"] = durQuantile(untraced.lag, 0.99, time.Millisecond)
	out["loadgen.error_ratio"] = errorRatio(untraced, traced)

	p50, parts, other := v.breakdown()
	out["breakdown.traced_p50_us"] = p50
	out["breakdown.untraced_p50_us"] = durQuantile(untraced.lat, 0.5, time.Microsecond)
	for _, k := range breakdownOrder {
		out["breakdown."+strings.ReplaceAll(k, ".", "_")+"_us"] = parts[k]
	}
	out["breakdown.other_us"] = other
	return out, nil
}
