// Package metrics provides the small measurement toolkit used by the
// experiment harness: latency statistics (mean and percentiles), hit-ratio
// counters split by priority class, and sampled time series for resource
// usage plots.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// LatencyStats accumulates duration samples and reports summary
// statistics. The zero value is ready to use and keeps every sample, so
// percentiles are exact (suited to bounded experiment runs).
type LatencyStats struct {
	// samples stays in insertion order; Percentile works on a private
	// sorted shadow so callers reading the series chronologically (or
	// holding a slice from Samples) never observe a reordering.
	samples []time.Duration
	sorted  []time.Duration
}

// Add records one sample.
func (s *LatencyStats) Add(d time.Duration) { s.samples = append(s.samples, d) }

// Count returns the number of samples.
func (s *LatencyStats) Count() int { return len(s.samples) }

// Samples returns the recorded durations in insertion order (a copy).
func (s *LatencyStats) Samples() []time.Duration {
	return append([]time.Duration(nil), s.samples...)
}

// Mean returns the arithmetic mean, or zero with no samples.
func (s *LatencyStats) Mean() time.Duration {
	if len(s.samples) == 0 {
		return 0
	}
	var sum time.Duration
	for _, d := range s.samples {
		sum += d
	}
	return sum / time.Duration(len(s.samples))
}

// Percentile returns the p-th percentile (0 < p <= 100), nearest-rank
// over the exact samples.
func (s *LatencyStats) Percentile(p float64) time.Duration {
	if len(s.samples) == 0 {
		return 0
	}
	sorted := s.sortedShadow()
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// sortedShadow returns the lazily rebuilt sorted copy of the samples.
// Add and Merge only ever grow the sample slice, so a length mismatch is
// exactly the staleness condition.
func (s *LatencyStats) sortedShadow() []time.Duration {
	if len(s.sorted) != len(s.samples) {
		s.sorted = append(s.sorted[:0], s.samples...)
		sort.Slice(s.sorted, func(i, j int) bool { return s.sorted[i] < s.sorted[j] })
	}
	return s.sorted
}

// P95 is the 95th-percentile tail latency reported throughout the paper.
func (s *LatencyStats) P95() time.Duration { return s.Percentile(95) }

// Min returns the smallest sample.
func (s *LatencyStats) Min() time.Duration {
	if len(s.samples) == 0 {
		return 0
	}
	return s.Percentile(0.0001)
}

// Max returns the largest sample.
func (s *LatencyStats) Max() time.Duration { return s.Percentile(100) }

// Merge folds other's samples into s.
func (s *LatencyStats) Merge(other *LatencyStats) {
	s.samples = append(s.samples, other.samples...)
}

// String renders "mean/p95 (n)" for logs.
func (s *LatencyStats) String() string {
	return fmt.Sprintf("mean=%v p95=%v n=%d", s.Mean().Round(10*time.Microsecond), s.P95().Round(10*time.Microsecond), s.Count())
}

// RatioCounter tracks a hit/miss ratio. The zero value is ready to use.
type RatioCounter struct {
	hits, total int
}

// Record adds one observation.
func (r *RatioCounter) Record(hit bool) {
	r.total++
	if hit {
		r.hits++
	}
}

// Hits returns the number of positive observations.
func (r *RatioCounter) Hits() int { return r.hits }

// Total returns the number of observations.
func (r *RatioCounter) Total() int { return r.total }

// Ratio returns hits/total, or zero with no observations.
func (r *RatioCounter) Ratio() float64 {
	if r.total == 0 {
		return 0
	}
	return float64(r.hits) / float64(r.total)
}

// Merge folds other's counts into r.
func (r *RatioCounter) Merge(other *RatioCounter) {
	r.hits += other.hits
	r.total += other.total
}

// HitStats tracks cache hit ratios overall and for the high-priority
// class, matching the PACM-Avg / PACM-High-Priority columns of
// Tables IV–VI.
type HitStats struct {
	All  RatioCounter
	High RatioCounter
}

// Record adds one lookup observation for an object of the given priority.
func (h *HitStats) Record(priority int, hit bool) {
	h.All.Record(hit)
	if priority >= 2 {
		h.High.Record(hit)
	}
}

// Merge folds other's counts into h.
func (h *HitStats) Merge(other *HitStats) {
	h.All.Merge(&other.All)
	h.High.Merge(&other.High)
}

// Point is one time-series sample.
type Point struct {
	T time.Time
	V float64
}

// TimeSeries is an append-only sampled series (CPU %, memory bytes, …).
// Mean and Max are computed from exact running aggregates, so bounding
// the stored points with SetMaxPoints never changes them; only the
// resolution of Points decays (by stride doubling) on long runs.
type TimeSeries struct {
	points []Point

	maxPoints int
	stride    int // keep every stride-th sample once decimation kicks in
	sinceKept int

	count int
	sum   float64
	maxV  float64
}

// SetMaxPoints bounds the stored point buffer to at most n points. When
// the buffer fills, every other stored point is dropped and the keep
// stride doubles, halving the series resolution — the classic scheme
// for unbounded-duration monitoring. n <= 0 restores unbounded storage.
func (ts *TimeSeries) SetMaxPoints(n int) {
	ts.maxPoints = n
	if n <= 0 {
		ts.stride = 0
		ts.sinceKept = 0
	}
}

// Sample appends one point.
func (ts *TimeSeries) Sample(t time.Time, v float64) {
	ts.count++
	ts.sum += v
	if v > ts.maxV {
		ts.maxV = v
	}
	if ts.stride > 1 {
		ts.sinceKept++
		if ts.sinceKept < ts.stride {
			return
		}
		ts.sinceKept = 0
	}
	ts.points = append(ts.points, Point{T: t, V: v})
	if ts.maxPoints > 0 && len(ts.points) >= ts.maxPoints {
		kept := ts.points[:0]
		for i := 0; i < len(ts.points); i += 2 {
			kept = append(kept, ts.points[i])
		}
		ts.points = kept
		if ts.stride == 0 {
			ts.stride = 1
		}
		ts.stride *= 2
		ts.sinceKept = 0
	}
}

// Points returns the stored samples (not a copy; treat as read-only).
func (ts *TimeSeries) Points() []Point { return ts.points }

// Count returns the number of samples ever recorded, including points
// decimation has dropped.
func (ts *TimeSeries) Count() int { return ts.count }

// Mean returns the average over every recorded sample.
func (ts *TimeSeries) Mean() float64 {
	if ts.count == 0 {
		return 0
	}
	return ts.sum / float64(ts.count)
}

// Max returns the maximum recorded value.
func (ts *TimeSeries) Max() float64 { return ts.maxV }
