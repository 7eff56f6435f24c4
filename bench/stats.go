package main

import (
	"fmt"
	"math"
	"slices"
	"time"
)

// minBeyond is how many samples must lie above a reported percentile. A tail
// percentile read off fewer samples is one outlier, not a distribution.
const minBeyond = 10

// percentile returns the nearest-rank q-quantile (0 < q < 1) of xs: the
// smallest sample with at least q·n samples at or below it. Failures are
// passed in as +Inf, so they sort last and count as missing every latency
// limit. The value is returned even when the error reports that fewer than
// minBeyond samples lie above it, so a short run still prints a number.
func percentile(xs []float64, q float64) (float64, error) {
	n := len(xs)
	if n == 0 {
		return math.NaN(), fmt.Errorf("p%g of no samples", 100*q)
	}
	// The epsilon keeps q·n = 990.0000000000001 at rank 990.
	rank := int(math.Ceil(q*float64(n) - 1e-9))
	rank = max(rank, 1)
	s := slices.Clone(xs)
	slices.Sort(s)
	v := s[rank-1]
	if n-rank < minBeyond {
		return v, fmt.Errorf("p%g of %d samples has %d beyond it, want >= %d", 100*q, n, n-rank, minBeyond)
	}
	return v, nil
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// metric is one reported number. Names and units match BENCHMARK.json.
type metric struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// Info marks a number that is printed and recorded but is not one of
	// BENCHMARK.json's metrics (see bench/README.md for why).
	Info bool `json:"info,omitempty"`
}

// report accumulates metrics and the reasons a run is invalid.
type report struct {
	metrics []metric
	invalid []string
}

func (r *report) add(name string, v float64, unit string) {
	r.metrics = append(r.metrics, metric{Name: name, Value: v, Unit: unit})
}

// pct adds a percentile metric, recording an invalid run when the sample is
// too small for it.
func (r *report) pct(name string, xs []float64, q float64, unit string) float64 {
	v, err := percentile(xs, q)
	if err != nil {
		r.fail("samples", "%s: %v", name, err)
	}
	r.add(name, v, unit)
	return v
}

// info marks the named metrics as recorded-only.
func (r *report) info(names ...string) {
	for i := range r.metrics {
		for _, n := range names {
			if r.metrics[i].Name == n {
				r.metrics[i].Info = true
			}
		}
	}
}

func (r *report) fail(kind, format string, args ...any) {
	r.invalid = append(r.invalid, kind+": "+fmt.Sprintf(format, args...))
}

func (r *report) value(name string) (float64, bool) {
	for _, m := range r.metrics {
		if m.Name == name {
			return m.Value, true
		}
	}
	return 0, false
}
