// Package obs is the repository's observability layer: a stdlib-only metrics
// subsystem with atomic counters, gauges and fixed-bucket histograms behind a
// named registry.
//
// Design goals, in order:
//
//  1. Zero allocations on the hot path. Counter.Add, Gauge.Set and
//     Histogram.Observe are lock-free atomic operations on memory allocated
//     at registration time, so instrumenting the online training step keeps
//     the repository's AllocsPerRun == 0 pins green (DESIGN.md §11–12).
//     Handles are resolved once (at construction or package init) and then
//     incremented directly — the hot path never touches the registry map.
//  2. Safe concurrent access. Every metric may be mutated from any number of
//     goroutines (multi-seed runs share process-wide counters) while an HTTP
//     scraper reads it; all reads and writes are atomic.
//  3. One export path, three formats: Prometheus text exposition
//     (WritePrometheus / the /metrics endpoint), expvar-compatible JSON
//     (WriteJSON, the /vars endpoint, and true expvar publication under
//     /debug/vars), and a structured end-of-run Report.
//
// Metric methods are nil-receiver safe: a nil *Counter/*Gauge/*Histogram is a
// no-op, so optional instrumentation needs no branches at call sites.
package obs

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n. Nil-safe and allocation-free.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count. Nil-safe.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomic float64 gauge.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v. Nil-safe and allocation-free.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Add adds d to the gauge (CAS loop). Nil-safe and allocation-free.
func (g *Gauge) Add(d float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		nv := math.Float64bits(math.Float64frombits(old) + d)
		if g.bits.CompareAndSwap(old, nv) {
			return
		}
	}
}

// Value returns the current gauge value. Nil-safe.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram is a fixed-bucket histogram: bucket upper bounds are set at
// registration and never change, so Observe is a bounded linear scan plus two
// atomic updates — no locks, no allocations.
type Histogram struct {
	// bounds are the inclusive upper bounds of the finite buckets, ascending.
	// counts has len(bounds)+1 slots; the last is the +Inf overflow bucket.
	bounds  []float64
	counts  []atomic.Int64
	sumBits atomic.Uint64
	count   atomic.Int64
}

// DefTimeBuckets is the default bucket layout for duration histograms, in
// seconds: 1µs to 10s, roughly 2.5× steps. It spans everything from a single
// atomic counter bump to a full checkpoint fsync.
var DefTimeBuckets = []float64{
	1e-6, 2.5e-6, 5e-6, 1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4, 5e-4,
	1e-3, 2.5e-3, 5e-3, 1e-2, 2.5e-2, 5e-2, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

func newHistogram(bounds []float64) *Histogram {
	for i := 1; i < len(bounds); i++ {
		if !(bounds[i] > bounds[i-1]) {
			panic(fmt.Sprintf("obs: histogram bounds not strictly ascending: %v", bounds))
		}
	}
	return &Histogram{
		bounds: append([]float64(nil), bounds...),
		counts: make([]atomic.Int64, len(bounds)+1),
	}
}

// Observe records one value. Nil-safe and allocation-free.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		nv := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, nv) {
			return
		}
	}
}

// ObserveSince records the seconds elapsed since t0 — the per-stage timer
// primitive: t := time.Now(); ...work...; h.ObserveSince(t).
func (h *Histogram) ObserveSince(t0 time.Time) {
	if h == nil {
		return
	}
	h.Observe(time.Since(t0).Seconds())
}

// Count returns the number of observations. Nil-safe.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of observed values. Nil-safe.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sumBits.Load())
}

// Registry is a named collection of metrics. Registration (get-or-create by
// name) takes a mutex; the returned handles bypass the registry entirely, so
// only scrapes and registration pay for the lock.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	funcs    map[string]func() float64
	hists    map[string]*Histogram
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: map[string]*Counter{},
		gauges:   map[string]*Gauge{},
		funcs:    map[string]func() float64{},
		hists:    map[string]*Histogram{},
	}
}

var defaultRegistry = NewRegistry()

// Default returns the process-wide registry every subsystem registers into;
// the cmd binaries export it via -metrics-addr.
func Default() *Registry { return defaultRegistry }

// validName enforces the Prometheus metric-name charset so the text
// exposition is always parseable.
func validName(name string) bool {
	if name == "" {
		return false
	}
	for i, r := range name {
		alpha := (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') || r == '_' || r == ':'
		if !alpha && (i == 0 || r < '0' || r > '9') {
			return false
		}
	}
	return true
}

// checkName panics on invalid or cross-kind duplicate names — both are
// programming errors that would corrupt the exposition.
func (r *Registry) checkName(name, kind string) {
	if !validName(name) {
		panic(fmt.Sprintf("obs: invalid metric name %q", name))
	}
	taken := func(k string, ok bool) {
		if ok && k != kind {
			panic(fmt.Sprintf("obs: metric %q already registered as %s, requested as %s", name, k, kind))
		}
	}
	_, ok := r.counters[name]
	taken("counter", ok)
	_, ok = r.gauges[name]
	taken("gauge", ok)
	_, ok = r.funcs[name]
	taken("gaugefunc", ok)
	_, ok = r.hists[name]
	taken("histogram", ok)
}

// Counter returns the counter with the given name, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.checkName(name, "counter")
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the gauge with the given name, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.checkName(name, "gauge")
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// GaugeFunc registers (or replaces) a computed gauge: f is called at scrape
// time. f must be safe to call from any goroutine concurrently with the code
// it observes.
func (r *Registry) GaugeFunc(name string, f func() float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.checkName(name, "gaugefunc")
	r.funcs[name] = f
}

// Histogram returns the histogram with the given name, creating it with the
// given bucket upper bounds on first use (nil bounds select DefTimeBuckets).
// Later calls return the existing histogram regardless of bounds — the first
// registration fixes the layout.
func (r *Registry) Histogram(name string, bounds ...float64) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.checkName(name, "histogram")
	h, ok := r.hists[name]
	if !ok {
		if len(bounds) == 0 {
			bounds = DefTimeBuckets
		}
		h = newHistogram(bounds)
		r.hists[name] = h
	}
	return h
}
