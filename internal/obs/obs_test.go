package obs

import (
	"encoding/json"
	"io"
	"math"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"chameleon/internal/race"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_counter_total")
	c.Add(3)
	c.Inc()
	if got := c.Value(); got != 4 {
		t.Fatalf("counter = %d, want 4", got)
	}
	if again := r.Counter("test_counter_total"); again != c {
		t.Fatal("get-or-create returned a different counter")
	}
	g := r.Gauge("test_gauge")
	g.Set(2.5)
	g.Add(-0.5)
	if got := g.Value(); got != 2.0 {
		t.Fatalf("gauge = %v, want 2", got)
	}
	r.GaugeFunc("test_func", func() float64 { return 7 })
	if got := r.Report().Gauges["test_func"]; got != 7 {
		t.Fatalf("gauge func = %v, want 7", got)
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("test_seconds", 0.1, 1, 10)
	for _, v := range []float64{0.05, 0.1, 0.5, 2, 100} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("count = %d, want 5", h.Count())
	}
	if math.Abs(h.Sum()-102.65) > 1e-9 {
		t.Fatalf("sum = %v, want 102.65", h.Sum())
	}
	snap := h.snapshot()
	// Cumulative le buckets: ≤0.1 → 2 (0.05 and the boundary value 0.1),
	// ≤1 → 3, ≤10 → 4, +Inf → 5.
	wantCum := []int64{2, 3, 4, 5}
	for i, want := range wantCum {
		if snap.Buckets[i].Count != want {
			t.Fatalf("bucket %d (le=%v) = %d, want %d", i, snap.Buckets[i].UpperBound, snap.Buckets[i].Count, want)
		}
	}
	if !math.IsInf(snap.Buckets[3].UpperBound, 1) {
		t.Fatalf("last bucket bound = %v, want +Inf", snap.Buckets[3].UpperBound)
	}
}

func TestNilMetricsAreNoops(t *testing.T) {
	var c *Counter
	var g *Gauge
	var h *Histogram
	c.Add(1)
	c.Inc()
	g.Set(1)
	g.Add(1)
	h.Observe(1)
	h.ObserveSince(time.Now())
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || h.Sum() != 0 {
		t.Fatal("nil metrics must read as zero")
	}
}

func TestNameValidation(t *testing.T) {
	r := NewRegistry()
	for _, bad := range []string{"", "1abc", "has space", "has-dash", "ütf"} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("name %q did not panic", bad)
				}
			}()
			r.Counter(bad)
		}()
	}
	// Cross-kind duplicates are a programming error.
	r.Counter("kind_clash")
	defer func() {
		if recover() == nil {
			t.Fatal("cross-kind duplicate did not panic")
		}
	}()
	r.Gauge("kind_clash")
}

func TestPrometheusExposition(t *testing.T) {
	r := NewRegistry()
	r.Counter("reqs_total").Add(5)
	r.Gauge("depth").Set(1.5)
	r.Histogram("lat_seconds", 0.5, 1).Observe(0.7)
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# TYPE reqs_total counter\nreqs_total 5\n",
		"# TYPE depth gauge\ndepth 1.5\n",
		"# TYPE lat_seconds histogram\n",
		`lat_seconds_bucket{le="0.5"} 0`,
		`lat_seconds_bucket{le="1"} 1`,
		`lat_seconds_bucket{le="+Inf"} 1`,
		"lat_seconds_sum 0.7",
		"lat_seconds_count 1",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestJSONAndReport(t *testing.T) {
	r := NewRegistry()
	r.Counter("a_total").Add(2)
	r.Histogram("b_seconds", 1).Observe(0.5)
	var sb strings.Builder
	if err := r.WriteJSON(&sb); err != nil {
		t.Fatal(err)
	}
	var decoded map[string]any
	if err := json.Unmarshal([]byte(sb.String()), &decoded); err != nil {
		t.Fatalf("WriteJSON output is not valid JSON: %v\n%s", err, sb.String())
	}
	if decoded["a_total"].(float64) != 2 {
		t.Fatalf("a_total = %v", decoded["a_total"])
	}
	// The expvar adapter renders the same object.
	var fromVar map[string]any
	if err := json.Unmarshal([]byte(r.Var().String()), &fromVar); err != nil {
		t.Fatalf("expvar Var output is not valid JSON: %v", err)
	}
	rep := r.Report()
	if rep.Counters["a_total"] != 2 || rep.Histograms["b_seconds"].Count != 1 {
		t.Fatalf("report = %+v", rep)
	}
}

func TestHTTPServe(t *testing.T) {
	r := NewRegistry()
	r.Counter("served_total").Inc()
	srv, err := r.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	get := func(path string) string {
		resp, err := http.Get("http://" + srv.Addr() + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		return string(body)
	}
	if prom := get("/metrics"); !strings.Contains(prom, "served_total 1") {
		t.Fatalf("/metrics missing counter:\n%s", prom)
	}
	var vars map[string]any
	if err := json.Unmarshal([]byte(get("/vars")), &vars); err != nil {
		t.Fatalf("/vars not JSON: %v", err)
	}
	var debugVars map[string]any
	if err := json.Unmarshal([]byte(get("/debug/vars")), &debugVars); err != nil {
		t.Fatalf("/debug/vars not JSON: %v", err)
	}
}

func TestPublishExpvar(t *testing.T) {
	a, b := NewRegistry(), NewRegistry()
	if err := a.PublishExpvar("obs_test_publish"); err != nil {
		t.Fatal(err)
	}
	if err := a.PublishExpvar("obs_test_publish"); err != nil {
		t.Fatalf("same registry re-publish should be a no-op, got %v", err)
	}
	if err := b.PublishExpvar("obs_test_publish"); err == nil {
		t.Fatal("different registry claiming the name should error")
	}
}

func TestConcurrentMutationAndScrape(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("conc_total")
	h := r.Histogram("conc_seconds", 1e-6, 1e-3, 1)
	g := r.Gauge("conc_gauge")
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				c.Inc()
				g.Set(float64(i))
				h.Observe(float64(i%3) * 1e-4)
			}
		}()
	}
	for c.Value() == 0 {
		runtime.Gosched()
	}
	for i := 0; i < 50; i++ {
		var sb strings.Builder
		if err := r.WritePrometheus(&sb); err != nil {
			t.Fatal(err)
		}
		if err := r.WriteJSON(io.Discard); err != nil {
			t.Fatal(err)
		}
		_ = r.Report()
	}
	close(stop)
	wg.Wait()
	if c.Value() == 0 || h.Count() == 0 {
		t.Fatal("no mutations recorded")
	}
}

// TestAllocsHotPath pins the tentpole guarantee: the instrumentation
// primitives allocate nothing, so threading them through the zero-alloc
// training step cannot regress the AllocsPerRun == 0 pins.
func TestAllocsHotPath(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation pins are measured without -race instrumentation")
	}
	r := NewRegistry()
	c := r.Counter("alloc_total")
	g := r.Gauge("alloc_gauge")
	h := r.Histogram("alloc_seconds")
	if got := testing.AllocsPerRun(100, func() {
		t0 := time.Now()
		c.Add(2)
		g.Set(3)
		h.Observe(1e-4)
		h.ObserveSince(t0)
	}); got != 0 {
		t.Fatalf("hot-path instrumentation allocates %.0f times/op, want 0", got)
	}
}
