package main

import "testing"

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	got := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if want := [3]float64{2.75, 5.5, 8.25}; got != want {
		t.Fatalf("quartiles %v, want %v", got, want)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	if got, want := quartiles([]float64{4, 1, 2}), [3]float64{1, 2, 4}; got != want {
		t.Fatalf("quartiles %v, want %v", got, want)
	}
}

func TestWorsening(t *testing.T) {
	lower := metricSpec{Better: "lower"}
	higher := metricSpec{Better: "higher"}
	if got := worsening(lower, 1, 1.2); got < 0.199 || got > 0.201 {
		t.Errorf("lower-is-better 1 → 1.2: %v", got)
	}
	if got := worsening(higher, 100, 80); got < 0.199 || got > 0.201 {
		t.Errorf("higher-is-better 100 → 80: %v", got)
	}
}
