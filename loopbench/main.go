// Command loopbench is the repository's wall-clock benchmark. It runs
// the unchanged APE-CACHE program in one process over loopback sockets
// (objstore origin, prepopulated edge cache with the coherence hub, one
// AP, apeclient clients) and reports request latency, saturation
// throughput and per-request cost, or, with --trace 1, a per-layer
// breakdown. See README.md for the metric and workload definitions.
//
// Run it from the repository root through its build script:
//
//	bash loopbench/run.sh --workload hit-warm --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. The command exits non-zero
// when any output check fails.
package main

import (
	"cmp"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// An untraced run alternates an open-loop and a closed-loop phase in
// rounds of about roundLen, on one set of clients, so both phases see
// the whole run's conditions. The first tenth of the rounds (at least
// one) warm the load path up and are checked but not measured. Each
// end-to-end time metric is the median over the calm measured rounds,
// at the reference host speed (see calm and probe.go). The rounds are
// short because a shared host's speed changes within seconds: a CPU
// loop on a shared 2-vCPU VM took 127–234 ms from one second to the
// next. A short round mostly falls in a fast or a slow spell, and the
// median over the rounds does not move while slow spells cover fewer
// than half of them.
const (
	roundLen  = time.Second
	openShare = 0.7 // of each round
)

// A traced run gives untracedShare of --seconds to an untraced
// open-loop phase, the rest to the traced one.
const untracedShare = 0.4

// An untraced run sets up at least minSetups times and until
// setupBudget has passed; setup_s is the median. A set-up of the small
// catalogs is some 200 loopback requests, so one scheduling hiccup moves
// it by several percent; the median of a dozen does not move.
const (
	minSetups   = 3
	setupBudget = 2 * time.Second
)

type config struct {
	w       workload
	seed    int64
	seconds float64
	trace   bool
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("loopbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: hit-warm, miss-churn or purge-mix")
	seed := fs.Int64("seed", 1, "input seed (catalog, popularity, schedules)")
	seconds := fs.Float64("seconds", 10, "measured seconds per run")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := findWorkload(*name)
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "loopbench: need --workload hit-warm|miss-churn|purge-mix, --seconds > 0, --trace 0|1")
		return 2
	}
	cfg := config{w: w, seed: *seed, seconds: *seconds, trace: *trace == 1}
	rep, err := measure(cfg)
	if err != nil {
		fmt.Fprintln(stderr, "loopbench:", err)
		return 1
	}
	if err := rep.print(stdout); err != nil {
		fmt.Fprintln(stderr, "loopbench:", err)
		return 1
	}
	for _, e := range rep.errs {
		fmt.Fprintln(stderr, "loopbench: check failed:", e)
	}
	if !rep.correct() {
		return 1
	}
	return 0
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is everything one run prints.
type report struct {
	cfg       config
	attempted int
	failed    int
	errs      []string
	// metrics are the ones BENCHMARK.json names for this mode; extra
	// are printed for reading but kept off the result line.
	metrics map[string]metric
	extra   map[string]metric
	samples map[string]int
	// rounds holds one row per measured round of an untraced run.
	rounds [][]float64
}

func (r *report) correct() bool { return r.failed == 0 }

func (r *report) absorb(p *phase) {
	r.attempted += p.reads + p.writes
	r.failed += p.failed
	r.errs = append(r.errs, p.errs...)
}

func measure(cfg config) (*report, error) {
	rep := &report{cfg: cfg, metrics: map[string]metric{}, extra: map[string]metric{}, samples: map[string]int{}}
	if cfg.trace {
		return rep, measureLayers(cfg, rep)
	}
	return rep, measureEndToEnd(cfg, rep)
}

func seconds(f float64) time.Duration { return time.Duration(f * float64(time.Second)) }

// measureEndToEnd sets up repeatedly (keeping the last stack), then
// runs the rounds.
func measureEndToEnd(cfg config, rep *report) (err error) {
	var s *stack
	var setupS []float64
	for i, spent := 0, 0.0; i < minSetups || spent < setupBudget.Seconds(); i++ {
		if i > 0 {
			if err := s.close(); err != nil {
				return err
			}
			debug.FreeOSMemory()
		}
		start := time.Now()
		if s, err = newStack(cfg.w, cfg.seed, 0); err != nil {
			return err
		}
		setupS = append(setupS, time.Since(start).Seconds())
		spent += setupS[i]
	}
	defer func() { err = errors.Join(err, s.close()) }()

	workers, err := s.newWorkers(false)
	if err != nil {
		return err
	}
	defer closeWorkers(workers)
	n := max(2, int(cfg.seconds/roundLen.Seconds()))
	d := cfg.seconds / float64(n)
	warm := max(1, n/10)
	var rounds []round
	hp := newProbe()
	for r := range n {
		ops := cfg.w.schedule(s.zipf, rngFor(cfg.seed, streamRound+int64(r)), seconds(d*openShare))
		open, err := s.openLoop(workers, ops)
		if err != nil {
			return err
		}
		closed := s.closedLoop(workers, seconds(d*(1-openShare)))
		probe := (hp.run() + hp.run()) / 2
		rep.absorb(open)
		rep.absorb(closed)
		if r >= warm {
			rounds = append(rounds, round{open, closed, probe})
		}
	}
	used := calm(rounds)
	// med is the median over the calm rounds of f, each round's figure
	// taken at the reference host speed (see probe.go).
	med := func(f func(round) float64, rate bool) float64 {
		xs := make([]float64, len(used))
		for i, r := range used {
			if rate {
				xs[i] = f(r) / r.speed()
			} else {
				xs[i] = f(r) * r.speed()
			}
		}
		return quantile(xs, 0.5)
	}
	raw := func(f func(round) float64) float64 {
		xs := make([]float64, len(used))
		for i, r := range used {
			xs[i] = f(r)
		}
		return quantile(xs, 0.5)
	}
	var opens, all []*phase
	for _, r := range rounds {
		opens = append(opens, r.open)
		all = append(all, r.open, r.closed)
	}
	tot, open := merge(all), merge(opens)
	rep.metrics["lat_p50_ms"] = metric{med(round.p50, false), "ms"}
	rep.metrics["lat_p90_ms"] = metric{med(round.p90, false), "ms"}
	rep.metrics["sat_rps"] = metric{med(round.sat, true), "1/s"}
	rep.metrics["cpu_us_per_req"] = metric{med(round.cpu, false), "us"}
	rep.metrics["alloc_kb_per_req"] = metric{ratio(float64(open.alloc)/1024, float64(open.reads+open.writes)), "KiB"}
	rep.metrics["hit_ratio"] = metric{ratio(float64(tot.ap.hit+tot.ap.stale), float64(tot.reads)), "ratio"}
	rep.metrics["setup_s"] = metric{quantile(setupS, 0.5), "s"}

	rep.extra["error_ratio"] = metric{ratio(float64(rep.failed), float64(rep.attempted)), "ratio"}
	rep.extra["backhaul_kb_per_req"] = metric{ratio(float64(open.backhaul)/1024, float64(open.reads)), "KiB"}
	rep.extra["lat_p99_ms"] = metric{durQuantile(open.lat, 0.99, time.Millisecond), "ms"}
	rep.extra["lag_ms_p99"] = metric{durQuantile(open.lag, 0.99, time.Millisecond), "ms"}
	rep.extra["offered_rps"] = metric{ratio(float64(open.reads+open.writes), open.dur.Seconds()), "1/s"}
	rep.extra["open_hit_ratio"] = metric{ratio(float64(open.ap.hit+open.ap.stale), float64(open.reads)), "ratio"}
	rep.extra["stale_read_ratio"] = metric{ratio(float64(open.stale), float64(open.reads)), "ratio"}
	rep.extra["rss_max_mib"] = metric{maxRSSMiB(), "MiB"}
	rep.extra["steal_pct"] = metric{tot.stealShare() * 100, "%"}
	rep.extra["calm_round_share"] = metric{ratio(float64(len(used)), float64(len(rounds))), "ratio"}
	rep.extra["raw_lat_p50_ms"] = metric{raw(round.p50), "ms"}
	rep.extra["raw_lat_p90_ms"] = metric{raw(round.p90), "ms"}
	rep.extra["raw_sat_rps"] = metric{raw(round.sat), "1/s"}
	rep.extra["raw_cpu_us_per_req"] = metric{raw(round.cpu), "us"}
	rep.extra["probe_ms"] = metric{raw(func(r round) float64 { return float64(r.probe) / 1e6 }), "ms"}
	for _, r := range rounds {
		rep.rounds = append(rep.rounds, []float64{r.p50(), r.p90(), r.sat(), r.cpu(), r.stealShare() * 100, r.hitRatio(), float64(r.probe) / 1e6})
	}
	rep.samples["rounds"] = len(rounds)
	rep.samples["open_reads"] = open.reads
	rep.samples["open_writes"] = open.writes
	rep.samples["closed_ops"] = tot.reads + tot.writes - open.reads - open.writes
	rep.samples["setups"] = len(setupS)
	return nil
}

// round is one measured round of an untraced run and the host probe's
// time right after it.
type round struct {
	open, closed *phase
	probe        time.Duration
}

// speed is the host's speed during the round relative to the
// reference host: a round's times are multiplied by it and its rates
// divided by it to give their values at the reference speed.
func (r round) speed() float64 { return ratio(float64(probeRef), float64(r.probe)) }

func (r round) p50() float64 { return durQuantile(r.open.lat, 0.5, time.Millisecond) }
func (r round) p90() float64 { return durQuantile(r.open.lat, 0.9, time.Millisecond) }
func (r round) sat() float64 {
	return ratio(float64(r.closed.reads+r.closed.writes), r.closed.dur.Seconds())
}
func (r round) cpu() float64 { return cpuPerReq(r.open) }
func (r round) hitRatio() float64 {
	hits := r.open.ap.hit + r.open.ap.stale + r.closed.ap.hit + r.closed.ap.stale
	return ratio(float64(hits), float64(r.open.reads+r.closed.reads))
}
func (r round) stealShare() float64 { return merge([]*phase{r.open, r.closed}).stealShare() }

// The time metrics come from the calm rounds: those in which the
// hypervisor stole at most stealLimit of the machine's CPU time or, when
// fewer than minCalm of the rounds qualify, the least-stolen minCalm of
// them. On a shared host other guests sometimes take a third of the
// CPUs for minutes, which moves latency far more than most changes to
// the program would; steal is the hypervisor's, so the program cannot
// cause it. Every round, calm or not, is kept in the report.
const (
	stealLimit = 0.05
	minCalm    = 0.25
)

func calm(rs []round) []round {
	sorted := slices.Clone(rs)
	slices.SortStableFunc(sorted, func(a, b round) int { return cmp.Compare(a.stealShare(), b.stealShare()) })
	n := int(math.Ceil(minCalm * float64(len(sorted))))
	for n < len(sorted) && sorted[n].stealShare() <= stealLimit {
		n++
	}
	return sorted[:n]
}

// measureLayers runs an untraced open-loop phase (the tracing-overhead
// baseline and the runtime diagnostics) and a traced one on one stack.
func measureLayers(cfg config, rep *report) (err error) {
	w := cfg.w
	plan := seconds(cfg.seconds * (1 - untracedShare))
	// Enough ring for every span of the traced phase: about six per read
	// even at twice the nominal arrival rate.
	spanCap := int(2*w.rate*plan.Seconds())*8 + 4096
	s, err := newStack(w, cfg.seed, spanCap)
	if err != nil {
		return err
	}
	defer func() { err = errors.Join(err, s.close()) }()

	untraced, err := s.phaseOpen(w.schedule(s.zipf, rngFor(cfg.seed, streamOpen), seconds(cfg.seconds*untracedShare)))
	if err != nil {
		return err
	}
	port := s.ap.HTTPAddr().Port
	server, client := newExchangeTimes(port), newExchangeTimes(port)
	s.apHost.server.Store(server)
	workers, err := s.newWorkers(true)
	if err != nil {
		return err
	}
	defer closeWorkers(workers)
	for _, wk := range workers {
		wk.host.dialed = client
	}
	traced, err := s.openLoop(workers, w.schedule(s.zipf, rngFor(cfg.seed, streamTraced), plan))
	if err != nil {
		return err
	}
	rep.absorb(untraced)
	rep.absorb(traced)
	v, err := joinTraces(s, workers, server, client)
	if err != nil {
		return err
	}
	layers, err := layerMetrics(s, workers, untraced, traced, v)
	if err != nil {
		return err
	}
	for name, value := range layers {
		rep.metrics[name] = metric{value, layerUnit(name)}
	}
	rep.samples["untraced_reads"] = untraced.reads
	rep.samples["traced_reads"] = traced.reads
	rep.samples["spans"] = v.spans
	return nil
}

// phaseOpen runs one untraced open-loop phase with fresh clients.
func (s *stack) phaseOpen(ops []op) (*phase, error) {
	workers, err := s.newWorkers(false)
	if err != nil {
		return nil, err
	}
	defer closeWorkers(workers)
	return s.openLoop(workers, ops)
}

func errorRatio(ps ...*phase) float64 {
	var failed, attempted int
	for _, p := range ps {
		failed += p.failed
		attempted += p.reads + p.writes
	}
	return ratio(float64(failed), float64(attempted))
}

// layerUnit derives a per-layer metric's unit from its name suffix.
func layerUnit(name string) string {
	for _, u := range []struct{ suffix, unit string }{
		{"_us_p50", "us"}, {"_us", "us"}, {"_ms_p99", "ms"}, {"_ms", "ms"},
		{"_ms_per_kreq", "ms/kreq"}, {"_per_kreq", "1/kreq"}, {"_kb_per_req", "KiB/req"},
		{"_bytes_per_req", "B/req"}, {"_per_req", "1/req"}, {"_kb", "KiB"}, {"_ratio", "ratio"}, {"_pct", "%"},
	} {
		if len(name) >= len(u.suffix) && name[len(name)-len(u.suffix):] == u.suffix {
			return u.unit
		}
	}
	return "count"
}

// print writes the human-readable table, the full report with the
// run's set-up stamp, and the result line last.
func (r *report) print(out io.Writer) error {
	mode := "end-to-end"
	if r.cfg.trace {
		mode = "per-layer (traced run)"
	}
	fmt.Fprintf(out, "# loopbench %s, seed %d, %s, %d client(s), GOMAXPROCS %d, %d CPU(s), %s\n",
		r.cfg.w.name, r.cfg.seed, mode, clients(), runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.Version())
	all := map[string]metric{}
	for k, m := range r.metrics {
		all[k] = m
	}
	for k, m := range r.extra {
		all[k] = m
	}
	names := make([]string, 0, len(all))
	for k := range all {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(out, "%-36s %14.4f %s\n", k, all[k].Value, all[k].Unit)
	}
	full := map[string]any{
		"setup":   r.stamp(),
		"metrics": all,
		"samples": r.samples,
		"errors":  r.errs,
	}
	if r.rounds != nil {
		full["rounds"] = map[string]any{
			"columns": "raw lat_p50_ms, lat_p90_ms, sat_rps, cpu_us_per_req; steal_pct, hit_ratio, probe_ms",
			"rows":    r.rounds,
		}
	}
	stamp, err := json.Marshal(map[string]any{"report": full})
	if err != nil {
		return err
	}
	fmt.Fprintln(out, string(stamp))
	result, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.correct(), r.attempted, r.failed, r.metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(out, string(result))
	return err
}

// stamp records the conditions of the run.
func (r *report) stamp() map[string]any {
	w := r.cfg.w
	return map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"os_arch":    runtime.GOOS + "/" + runtime.GOARCH,
		"seed":       r.cfg.seed,
		"seconds":    r.cfg.seconds,
		"trace":      r.cfg.trace,
		"clients":    clients(),
		"transport":  "realnet on 127.0.0.1: DNS-Cache over UDP, HTTP over keep-alive TCP; no WiFi link modelled",
		"ap":         fmt.Sprintf("PACM, %d KiB cache, %d KiB block-list, decision ledger, mesh and fleet push off", cacheCapacity>>10, maxObjectSize>>10),
		"workload": map[string]any{
			"name": w.name, "objects": w.objects, "domains": w.domains,
			"size_kib": []int{w.minKB, w.maxKB}, "zipf_s": w.zipfS, "ttl": w.ttl.String(),
			"open_loop_rps": w.rate, "write_share": w.writeShare,
			"coherence": w.coherence.String(), "warm_up": [...]string{"every object once", "fill the cache"}[w.warm],
		},
	}
}
