package obs

import (
	"encoding/json"
	"expvar"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"sync"
)

// Bucket is one cumulative histogram bucket: the count of observations less
// than or equal to UpperBound (Prometheus `le` semantics).
type Bucket struct {
	UpperBound float64 `json:"le"`
	Count      int64   `json:"count"`
}

// MarshalJSON renders the bound as a string (Prometheus `le` label style)
// because encoding/json rejects the +Inf overflow bucket as a number.
func (b Bucket) MarshalJSON() ([]byte, error) {
	return []byte(fmt.Sprintf("{%q:%q,%q:%d}", "le", fmtFloat(b.UpperBound), "count", b.Count)), nil
}

// UnmarshalJSON parses the string-bound form written by MarshalJSON.
func (b *Bucket) UnmarshalJSON(data []byte) error {
	var raw struct {
		Le    string `json:"le"`
		Count int64  `json:"count"`
	}
	if err := json.Unmarshal(data, &raw); err != nil {
		return err
	}
	if raw.Le == "+Inf" {
		b.UpperBound = math.Inf(1)
	} else {
		v, err := strconv.ParseFloat(raw.Le, 64)
		if err != nil {
			return fmt.Errorf("obs: bucket bound %q: %w", raw.Le, err)
		}
		b.UpperBound = v
	}
	b.Count = raw.Count
	return nil
}

// HistogramValue is a point-in-time histogram snapshot.
type HistogramValue struct {
	Count   int64    `json:"count"`
	Sum     float64  `json:"sum"`
	Buckets []Bucket `json:"buckets"`
}

// Report is the structured end-of-run snapshot of a registry, the export for
// anything that wants metrics as data rather than as an exposition format.
// GaugeFuncs are evaluated at snapshot time and land in Gauges.
type Report struct {
	Counters   map[string]int64          `json:"counters,omitempty"`
	Gauges     map[string]float64        `json:"gauges,omitempty"`
	Histograms map[string]HistogramValue `json:"histograms,omitempty"`
}

// snapshot copies the histogram under no lock: counts are atomics, and the
// cumulative view tolerates a concurrent Observe (the scrape is a point in
// time, not a barrier).
func (h *Histogram) snapshot() HistogramValue {
	v := HistogramValue{Count: h.Count(), Sum: h.Sum(), Buckets: make([]Bucket, 0, len(h.bounds)+1)}
	var cum int64
	for i, b := range h.bounds {
		cum += h.counts[i].Load()
		v.Buckets = append(v.Buckets, Bucket{UpperBound: b, Count: cum})
	}
	cum += h.counts[len(h.bounds)].Load()
	v.Buckets = append(v.Buckets, Bucket{UpperBound: math.Inf(1), Count: cum})
	return v
}

// Report snapshots every metric in the registry.
func (r *Registry) Report() Report {
	r.mu.Lock()
	defer r.mu.Unlock()
	rep := Report{
		Counters:   make(map[string]int64, len(r.counters)),
		Gauges:     make(map[string]float64, len(r.gauges)+len(r.funcs)),
		Histograms: make(map[string]HistogramValue, len(r.hists)),
	}
	for name, c := range r.counters {
		rep.Counters[name] = c.Value()
	}
	for name, g := range r.gauges {
		rep.Gauges[name] = g.Value()
	}
	for name, f := range r.funcs {
		rep.Gauges[name] = f()
	}
	for name, h := range r.hists {
		rep.Histograms[name] = h.snapshot()
	}
	return rep
}

// sortedKeys returns the map keys in ascending order (stable exposition).
func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// fmtFloat renders a float the way Prometheus expects (no exponent for +Inf).
func fmtFloat(v float64) string {
	if math.IsInf(v, 1) {
		return "+Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WritePrometheus writes the registry in the Prometheus text exposition
// format (version 0.0.4): every counter, gauge, computed gauge, and histogram
// with cumulative `le` buckets, `_sum` and `_count` series.
func (r *Registry) WritePrometheus(w io.Writer) error {
	rep := r.Report()
	for _, name := range sortedKeys(rep.Counters) {
		if _, err := fmt.Fprintf(w, "# TYPE %s counter\n%s %d\n", name, name, rep.Counters[name]); err != nil {
			return err
		}
	}
	for _, name := range sortedKeys(rep.Gauges) {
		if _, err := fmt.Fprintf(w, "# TYPE %s gauge\n%s %s\n", name, name, fmtFloat(rep.Gauges[name])); err != nil {
			return err
		}
	}
	for _, name := range sortedKeys(rep.Histograms) {
		h := rep.Histograms[name]
		if _, err := fmt.Fprintf(w, "# TYPE %s histogram\n", name); err != nil {
			return err
		}
		for _, b := range h.Buckets {
			if _, err := fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", name, fmtFloat(b.UpperBound), b.Count); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "%s_sum %s\n%s_count %d\n", name, fmtFloat(h.Sum), name, h.Count); err != nil {
			return err
		}
	}
	return nil
}

// jsonMap flattens the report into one expvar-style JSON object: counters and
// gauges map name → number, histograms map name → {count, sum, buckets}.
func (r *Registry) jsonMap() map[string]any {
	rep := r.Report()
	out := make(map[string]any, len(rep.Counters)+len(rep.Gauges)+len(rep.Histograms))
	for name, v := range rep.Counters {
		out[name] = v
	}
	for name, v := range rep.Gauges {
		out[name] = v
	}
	for name, h := range rep.Histograms {
		buckets := make(map[string]int64, len(h.Buckets))
		for _, b := range h.Buckets {
			buckets[fmtFloat(b.UpperBound)] = b.Count
		}
		out[name] = map[string]any{"count": h.Count, "sum": h.Sum, "buckets": buckets}
	}
	return out
}

// WriteJSON writes the registry as one expvar-compatible JSON object
// (the /vars endpoint payload).
func (r *Registry) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.jsonMap())
}

// Var adapts the registry to the expvar.Var interface: String() renders the
// same JSON object WriteJSON emits.
func (r *Registry) Var() expvar.Var {
	return expvar.Func(func() any { return r.jsonMap() })
}

// published tracks expvar names already claimed, because expvar.Publish
// panics on duplicates and metrics servers start more than once in tests.
var published = struct {
	sync.Mutex
	byName map[string]*Registry
}{byName: map[string]*Registry{}}

// PublishExpvar publishes the registry into the process-global expvar
// namespace under the given name (it then appears in the standard
// /debug/vars JSON next to memstats and cmdline). Re-publishing the same
// registry under the same name is a no-op; claiming a name held by a
// different registry is an error.
func (r *Registry) PublishExpvar(name string) error {
	published.Lock()
	defer published.Unlock()
	if prev, ok := published.byName[name]; ok {
		if prev == r {
			return nil
		}
		return fmt.Errorf("obs: expvar name %q already published by a different registry", name)
	}
	expvar.Publish(name, r.Var())
	published.byName[name] = r
	return nil
}
