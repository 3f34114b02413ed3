// Command steady checks that the benchmark is steady enough to gate on.
// It runs the benchmark command from BENCHMARK.json on each workload
// several times with different seeds, in two sets, and prints for every
// metric the median, the quartiles and their spread (interquartile range
// over median), then compares the two sets' medians. It fails when a
// spread exceeds the metric's bound or when the second set's median is
// worse than the first's by more than the bound.
//
// Run from the repository root:
//
//	bash loopbench/run.sh steady --runs 10
//	bash loopbench/run.sh steady --runs 5 --workloads miss-churn
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
)

type benchmarkFile struct {
	Command    []string `json:"command"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type result struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

func main() {
	runs := flag.Int("runs", 10, "runs per workload and set, each with its own seed")
	seedBase := flag.Int64("seed", 1, "seed of the first run; later runs count up")
	only := flag.String("workloads", "", "comma-separated workloads (default: all in BENCHMARK.json)")
	flag.Parse()
	if err := steady(*runs, *seedBase, *only); err != nil {
		fmt.Fprintln(os.Stderr, "steady:", err)
		os.Exit(1)
	}
}

// sets is the number of sets of runs; set 2 is compared against set 1.
const sets = 2

func steady(runs int, seedBase int64, only string) error {
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	var names []string
	for _, w := range bf.Workloads {
		if only == "" || strings.Contains(","+only+",", ","+w.Name+",") {
			names = append(names, w.Name)
		}
	}
	failures := 0
	seed := seedBase
	for _, name := range names {
		// values[set][metric] holds one value per run.
		values := make([]map[string][]float64, sets)
		for set := range values {
			values[set] = make(map[string][]float64)
			for range runs {
				res, err := runOnce(bf.Command, name, seed, bf.RunSeconds)
				if err != nil {
					return fmt.Errorf("%s seed %d: %w", name, seed, err)
				}
				line := fmt.Sprintf("%s set %d seed %d: attempted=%d", name, set+1, seed, res.Attempted)
				for _, m := range bf.EndToEnd {
					v, ok := res.Metrics[m.Name]
					if !ok {
						return fmt.Errorf("%s seed %d: metric %s missing", name, seed, m.Name)
					}
					values[set][m.Name] = append(values[set][m.Name], v.Value)
					line += fmt.Sprintf(" %s=%.5g", m.Name, v.Value)
				}
				fmt.Fprintln(os.Stderr, line)
				seed++
			}
		}
		failures += printWorkload(name, bf.EndToEnd, values)
	}
	if failures > 0 {
		return fmt.Errorf("%d check(s) failed", failures)
	}
	fmt.Println("steady: every spread within its bound and every median comparison within its bound")
	return nil
}

// runOnce runs the benchmark command and parses its last output line.
func runOnce(command []string, workload string, seed int64, secs int) (*result, error) {
	args := append(append([]string(nil), command[1:]...),
		"--workload", workload, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.Itoa(secs), "--trace", "0")
	cmd := exec.Command(command[0], args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%s: %w", strings.Join(cmd.Args, " "), err)
	}
	var last string
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if line := strings.TrimSpace(sc.Text()); line != "" {
			last = line
		}
	}
	var res result
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		return nil, fmt.Errorf("last line is not a result: %w", err)
	}
	if !res.Correct || res.Failed != 0 {
		return nil, fmt.Errorf("run reports correct=%v failed=%d", res.Correct, res.Failed)
	}
	return &res, nil
}

// printWorkload prints one workload's table and returns the number of
// failed checks.
func printWorkload(name string, specs []metricSpec, values []map[string][]float64) int {
	failures := 0
	fmt.Printf("\n%s\n", name)
	fmt.Printf("%-18s %-6s %12s %12s %12s %8s %6s  %s\n", "metric", "unit", "median", "q1", "q3", "spread", "bound", "verdict")
	for _, m := range specs {
		var medians []float64
		for set, vals := range values {
			xs := vals[m.Name]
			q := quartiles(xs)
			med := median(xs)
			medians = append(medians, med)
			spread := 0.0
			if med != 0 {
				spread = (q[2] - q[0]) / med
			}
			verdict := "ok"
			switch {
			case spread > m.Bound:
				verdict = "SPREAD ABOVE BOUND"
				failures++
			case spread > m.Bound/3:
				verdict = "ok, but above a third of the bound"
			}
			fmt.Printf("%-18s %-6s %12.5g %12.5g %12.5g %8.4f %6.3f  set %d: %s\n",
				m.Name, m.Unit, med, q[0], q[2], spread, m.Bound, set+1, verdict)
		}
		change := worsening(m, medians[0], medians[1])
		verdict := "ok"
		if change > m.Bound {
			verdict = "SECOND MEDIAN WORSE BEYOND BOUND"
			failures++
		}
		fmt.Printf("%-18s %-6s set 2 vs set 1: worse by %+.4f of the first median (bound %.3f): %s\n",
			m.Name, m.Unit, change, m.Bound, verdict)
	}
	return failures
}

// worsening is how much worse b is than a, as a share of a (negative
// when b is better).
func worsening(m metricSpec, a, b float64) float64 {
	if a == 0 {
		return 0
	}
	if m.Better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles matches Python's statistics.quantiles(xs, n=4) (the
// "exclusive" method).
func quartiles(xs []float64) [3]float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	var out [3]float64
	ld := len(s)
	if ld < 2 {
		for i := range out {
			if ld == 1 {
				out[i] = s[0]
			}
		}
		return out
	}
	const n = 4
	m := ld + 1
	for i := 1; i < n; i++ {
		j := i * m / n
		j = max(1, min(j, ld-1))
		delta := i*m - j*n
		out[i-1] = (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return out
}
