package main

import (
	"math"
	"testing"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 100..1, unsorted on purpose
	}
	for _, c := range []struct {
		q    float64
		want float64
	}{{0.5, 50}, {0.9, 90}, {0.01, 1}} {
		got, err := percentile(xs, c.q)
		if err != nil || got != c.want {
			t.Errorf("p%g = %v, %v; want %v", 100*c.q, got, err, c.want)
		}
	}
	if xs[0] != 100 {
		t.Fatal("percentile sorted its input in place")
	}
}

func TestPercentileCountsFailuresAsInf(t *testing.T) {
	// 1000 samples, 8 of them failures (ranks 993..1000 once sorted): the p99
	// (rank 990) lands on a success, the p99.5 (rank 995) on a failure.
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i)
	}
	for i := 0; i < 8; i++ {
		xs[i*100] = math.Inf(1)
	}
	p99, err := percentile(xs, 0.99)
	if err != nil || math.IsInf(p99, 1) {
		t.Fatalf("p99 = %v, %v; want a finite latency", p99, err)
	}
	if p995, _ := percentile(xs, 0.995); !math.IsInf(p995, 1) {
		t.Fatalf("p99.5 = %v; want +Inf (a failure)", p995)
	}
}

func TestPercentileNeedsTenBeyond(t *testing.T) {
	xs := make([]float64, 1000)
	if _, err := percentile(xs, 0.99); err != nil {
		t.Fatalf("p99 of 1000 samples (10 beyond): %v", err)
	}
	if _, err := percentile(xs[:999], 0.99); err == nil {
		t.Fatal("p99 of 999 samples (9 beyond) reported no error")
	}
	if _, err := percentile(xs[:19], 0.5); err == nil {
		t.Fatal("p50 of 19 samples (9 beyond) reported no error")
	}
	if v, err := percentile(nil, 0.5); err == nil || !math.IsNaN(v) {
		t.Fatalf("p50 of nothing = %v, %v; want NaN and an error", v, err)
	}
}
