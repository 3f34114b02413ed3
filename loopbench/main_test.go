package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"
)

// benchmarkFile is the part of BENCHMARK.json the smoke tests check
// the output against.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []spec `json:"end_to_end"`
	PerLayer []spec `json:"per_layer"`
}

type spec struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

type resultLine struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type reportLine struct {
	Report struct {
		Metrics map[string]metric `json:"metrics"`
		Setup   map[string]any    `json:"setup"`
	} `json:"report"`
}

func loadBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

// runShort runs the command with short phases and returns the parsed
// report and result lines.
func runShort(t *testing.T, args ...string) (reportLine, resultLine) {
	t.Helper()
	var out, errOut bytes.Buffer
	if code := run(append(args, "--seconds", "0.8"), &out, &errOut); code != 0 {
		t.Fatalf("exit %d\nstdout:\n%s\nstderr:\n%s", code, out.String(), errOut.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) < 2 {
		t.Fatalf("output too short:\n%s", out.String())
	}
	var rep reportLine
	var res resultLine
	if err := json.Unmarshal([]byte(lines[len(lines)-2]), &rep); err != nil {
		t.Fatalf("report line: %v", err)
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("result line: %v", err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Fatalf("result correct=%v failed=%d attempted=%d", res.Correct, res.Failed, res.Attempted)
	}
	for _, key := range []string{"nproc", "gomaxprocs", "go", "seed", "transport", "workload"} {
		if _, ok := rep.Report.Setup[key]; !ok {
			t.Errorf("report stamp lacks %q", key)
		}
	}
	return rep, res
}

// checkMetrics requires exactly the named metrics, each with its unit.
func checkMetrics(t *testing.T, got map[string]metric, want []spec) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%d metrics reported, BENCHMARK.json names %d", len(got), len(want))
	}
	for _, s := range want {
		m, ok := got[s.Name]
		switch {
		case !ok:
			t.Errorf("metric %s missing", s.Name)
		case m.Unit != s.Unit:
			t.Errorf("metric %s: unit %q, BENCHMARK.json says %q", s.Name, m.Unit, s.Unit)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			t.Errorf("metric %s: value %v", s.Name, m.Value)
		}
	}
}

func TestWorkloadsMatchBenchmarkFile(t *testing.T) {
	bf := loadBenchmarkFile(t)
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the command %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range bf.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json %q / %q, command %q / %q", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
	}
}

func TestEndToEndSmoke(t *testing.T) {
	bf := loadBenchmarkFile(t)
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			rep, res := runShort(t, "--workload", w.name, "--seed", "7", "--trace", "0")
			checkMetrics(t, res.Metrics, bf.EndToEnd)
			if e := rep.Report.Metrics["error_ratio"]; e.Value != 0 {
				t.Errorf("error_ratio %v", e.Value)
			}
			for _, m := range bf.EndToEnd {
				if res.Metrics[m.Name].Value <= 0 {
					t.Errorf("%s = %v, want > 0", m.Name, res.Metrics[m.Name].Value)
				}
			}
			if hr := res.Metrics["hit_ratio"].Value; hr > 1 {
				t.Errorf("hit_ratio %v > 1", hr)
			}
		})
	}
}

func TestLayersSmoke(t *testing.T) {
	bf := loadBenchmarkFile(t)
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			_, res := runShort(t, "--workload", w.name, "--seed", "7", "--trace", "1")
			checkMetrics(t, res.Metrics, bf.PerLayer)
			value := func(name string) float64 { return res.Metrics[name].Value }
			// Every part is a measured interval minus the ones it covers,
			// so none is negative, and together they leave little of the
			// traced run's median latency unaccounted for.
			for _, k := range breakdownOrder {
				name := "breakdown." + strings.ReplaceAll(k, ".", "_") + "_us"
				if v := value(name); v < 0 {
					t.Errorf("%s = %v µs, want >= 0", name, v)
				}
			}
			for _, name := range []string{"breakdown.apeclient_self_us", "breakdown.http_transport_us", "breakdown.httplite_server_self_us"} {
				if v := value(name); v <= 0 {
					t.Errorf("%s = %v µs: every read crosses this layer", name, v)
				}
			}
			const maxOther = 0.05
			if other, p50 := value("breakdown.other_us"), value("breakdown.traced_p50_us"); math.Abs(other) > maxOther*p50 {
				t.Errorf("breakdown.other_us = %v µs, more than %.0f%% of the traced p50 %v µs", other, maxOther*100, p50)
			}
			if got := value("realnet.datagrams_per_req"); got < 2 {
				t.Errorf("realnet.datagrams_per_req %v: every read makes a DNS-Cache exchange", got)
			}
			if got := value("loadgen.error_ratio"); got != 0 {
				t.Errorf("loadgen.error_ratio %v", got)
			}
			if w.writeShare > 0 {
				if got := value("coherence.purges_applied_ratio"); got != 1 {
					t.Errorf("coherence.purges_applied_ratio %v, want 1", got)
				}
			}
		})
	}
}

func TestBadArgumentsFail(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"--workload", "nope"}, &out, &errOut); code == 0 {
		t.Fatal("unknown workload accepted")
	}
	if out.Len() != 0 {
		t.Fatalf("printed a result for bad arguments: %s", out.String())
	}
}

func TestRefsCheckVersions(t *testing.T) {
	w, _ := findWorkload("purge-mix")
	all, _ := w.catalog(1)
	objs := all[:2]
	r := newRefs(objs)
	v0 := objs[0].Body()
	r.add(0, objs[0], 1)
	if ok, stale := r.check(0, v0, 1); !ok || !stale {
		t.Errorf("old version: ok=%v stale=%v, want accepted and stale", ok, stale)
	}
	if ok, stale := r.check(0, r.versions[0][1], 0); !ok || stale {
		t.Errorf("newer version: ok=%v stale=%v, want accepted and fresh", ok, stale)
	}
	if ok, _ := r.check(0, objs[1].Body(), 1); ok {
		t.Error("another object's body accepted")
	}
}

func TestTeardownStopsEveryTask(t *testing.T) {
	before := runtime.NumGoroutine()
	w, _ := findWorkload("purge-mix")
	s, err := newStack(w, 5, 0)
	if err != nil {
		t.Fatal(err)
	}
	workers, err := s.newWorkers(false)
	if err != nil {
		t.Fatal(err)
	}
	p := s.closedLoop(workers, 200*time.Millisecond)
	closeWorkers(workers)
	if err := p.firstErr(); err != nil {
		t.Error(err)
	}
	if err := s.close(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Errorf("%d goroutines after teardown, %d before", n, before)
	}
}

func TestCalmRoundsLeaveStolenOnesOut(t *testing.T) {
	stolen := func(steal time.Duration) round {
		return round{open: &phase{dur: time.Second, steal: steal}, closed: &phase{}}
	}
	mostlyCalm := []round{stolen(0), stolen(time.Hour), stolen(0), stolen(0)}
	if got := calm(mostlyCalm); len(got) != 3 || got[2].open.steal != 0 {
		t.Errorf("calm kept %d rounds, want the 3 without steal", len(got))
	}
	allStolen := []round{stolen(3 * time.Hour), stolen(time.Hour), stolen(2 * time.Hour), stolen(4 * time.Hour)}
	if got := calm(allStolen); len(got) != 1 || got[0].open.steal != time.Hour {
		t.Errorf("calm kept %d rounds, want only the least-stolen quarter", len(got))
	}
}

func TestProbeTakesTime(t *testing.T) {
	p := newProbe()
	if d := p.run(); d <= 0 {
		t.Errorf("probe took %v", d)
	}
}
