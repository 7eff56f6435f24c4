// Command bench is the repository benchmark. It builds the current
// chameleon-serve, drives it over HTTP with an open-loop generator on four
// workloads, checks every answer against an in-process replay of the same
// stream, and prints the end-to-end metrics; with -trace 1 it adds a traced
// run against the bench's own server host and prints a per-layer breakdown.
//
//	bash bench/run.sh -workload latent-serve -seed 1 -seconds 15 -trace 0
//
// Run it from the repository root. The last line of standard output is one
// JSON object: {"correct", "attempted", "failed", "metrics"}. The exit status
// is 1 when the correctness gate fails. See bench/README.md.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

const (
	// buildDir holds everything a run builds or writes, relative to the
	// repository root.
	buildDir = ".bench_build"
	// warmup precedes every window and is excluded from the metrics.
	warmup = 3 * time.Second
	// setupStarts is how many times an untraced run starts the server;
	// setup_s is the fastest start.
	setupStarts = 21
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == hostArg {
		os.Exit(hostMain(os.Args[2:]))
	}
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// options configure one benchmark invocation.
type options struct {
	seed   int64
	warmup time.Duration
	window time.Duration
	trace  bool
	out    string // results and span files
	tmp    string // server directories and scratch files
	server []string
	host   []string // the traced host: the bench binary with hostArg
	starts int
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	only := fs.String("workload", "all", "workload: all|"+strings.Join(names, "|"))
	seed := fs.Int64("seed", 1, "input seed: the same seed generates the same requests")
	seconds := fs.Int("seconds", 15, "measured window in seconds (durable-ingest sizes its fixed batch count from it)")
	trace := fs.Int("trace", 0, "1 adds a traced run and prints the per-layer metrics instead of the end-to-end ones")
	out := fs.String("out", filepath.Join(buildDir, "out"), "directory for the results and span files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	logf := func(format string, a ...any) { fmt.Fprintf(stderr, "bench: "+format+"\n", a...) }
	selected := workloads
	if *only != "all" {
		w, ok := workloadByName(*only)
		if !ok {
			logf("unknown workload %q (want all|%s)", *only, strings.Join(names, "|"))
			return 2
		}
		selected = []workload{*w}
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		logf("-seconds must be >= 1 and -trace 0 or 1")
		return 2
	}
	if _, err := os.Stat(filepath.Join("cmd", "chameleon-serve")); err != nil {
		logf("run from the repository root: %v", err)
		return 2
	}

	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()
	opt := options{
		seed: *seed, warmup: warmup, window: time.Duration(*seconds) * time.Second, trace: *trace == 1,
		out: *out, tmp: filepath.Join(buildDir, "tmp"), starts: setupStarts,
	}
	for _, d := range []string{opt.out, opt.tmp, filepath.Join(buildDir, "bin")} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			logf("%v", err)
			return 2
		}
	}
	bin, err := buildServer(ctx, filepath.Join(buildDir, "bin"))
	if err != nil {
		logf("build chameleon-serve: %v", err)
		return 2
	}
	self, err := os.Executable()
	if err != nil {
		logf("%v", err)
		return 2
	}
	opt.server, opt.host = []string{bin}, []string{self, hostArg}
	in, err := core50Inputs(filepath.Join(buildDir, "cache"), logf)
	if err != nil {
		logf("inputs: %v", err)
		return 2
	}

	code := 0
	for i := range selected {
		res, err := runWorkload(ctx, &selected[i], in, opt)
		if err != nil {
			logf("%s: %v", selected[i].name, err)
			return 2
		}
		if err := res.print(stdout, stderr, opt.out); err != nil {
			logf("%s: %v", selected[i].name, err)
			return 2
		}
		if len(res.Invalid) > 0 {
			code = 1
		}
	}
	return code
}

// buildServer builds ./cmd/chameleon-serve from the working tree.
func buildServer(ctx context.Context, dir string) (string, error) {
	bin, err := filepath.Abs(filepath.Join(dir, "chameleon-serve"))
	if err != nil {
		return "", err
	}
	cmd := exec.CommandContext(ctx, "go", "build", "-o", bin, "./cmd/chameleon-serve")
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	return bin, cmd.Run()
}

// result is one workload's outcome, as written to the results file.
type result struct {
	Workload string `json:"workload"`
	Trace    bool   `json:"trace"`
	Host     stamp  `json:"host"`
	// Metrics are the end-to-end metrics, or with -trace 1 the per-layer
	// ones; EndToEnd keeps the untraced run's numbers in a traced result.
	Metrics   []metric `json:"metrics"`
	EndToEnd  []metric `json:"end_to_end,omitempty"`
	Invalid   []string `json:"invalid"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
}

func (res *result) count(ps *pass) {
	for _, o := range ps.load.all() {
		res.Attempted++
		if !o.ok() {
			res.Failed++
		}
	}
	for _, a := range ps.answers {
		res.Attempted += len(a)
	}
	res.Failed += ps.sweepFailed
}

// runWorkload plans a workload's requests, runs them against chameleon-serve,
// checks the answers, and with opt.trace repeats the run against the traced
// host for the per-layer metrics.
func runWorkload(ctx context.Context, w *workload, in *inputs, opt options) (*result, error) {
	p, err := newPlan(w, in, opt.seed, opt.warmup, opt.window)
	if err != nil {
		return nil, err
	}
	un, err := runPass(ctx, p, opt.server, opt.starts, opt.tmp, "")
	if err != nil {
		return nil, fmt.Errorf("untraced run: %w", err)
	}
	ref, err := replay(p)
	if err != nil {
		return nil, fmt.Errorf("replay: %w", err)
	}
	var e2e report
	endToEnd(&e2e, p, un)
	check(&e2e, p, ref, un)
	res := &result{Workload: w.name, Trace: opt.trace, Host: newStamp(p, un)}
	res.count(un)
	if !opt.trace {
		res.Metrics, res.Invalid = e2e.metrics, e2e.invalid
		return res, nil
	}

	spansPath, err := filepath.Abs(filepath.Join(opt.tmp, w.name+".host-spans.jsonl"))
	if err != nil {
		return nil, err
	}
	defer os.Remove(spansPath)
	tr, err := runPass(ctx, p, opt.host, 1, opt.tmp, spansPath)
	if err != nil {
		return nil, fmt.Errorf("traced run: %w", err)
	}
	res.count(tr)
	var layers report
	check(&layers, p, ref, tr)
	clients := clientSpans(p, tr.load)
	ids := map[string]bool{}
	for _, c := range clients {
		ids[c.ID] = true
	}
	linkSpans(p, tr.spans, ids)
	layerMetrics(&layers, p, tr)
	scratch, err := os.MkdirTemp(opt.tmp, w.name+"-direct-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(scratch)
	if err := direct(&layers, p, ref, scratch); err != nil {
		return nil, fmt.Errorf("direct timings: %w", err)
	}
	layers.pct("gen.late_ms.p99", lateMs(tr.load), 0.99, "ms")
	// Tracing overhead: the traced run's medians against the untraced run's.
	var traced report
	endToEnd(&traced, p, tr)
	var over []float64
	for _, name := range []string{"predict_p50_ms", "observe_p50_ms"} {
		t, _ := traced.value(name)
		u, _ := e2e.value(name)
		over = append(over, 100*(t/u-1))
	}
	layers.add("trace.overhead_pct", mean(over), "%")
	if err := writeSpans(filepath.Join(opt.out, w.name+".spans.jsonl"), append(clients, tr.spans...)); err != nil {
		return nil, fmt.Errorf("write spans: %w", err)
	}
	res.Metrics, res.EndToEnd = layers.metrics, e2e.metrics
	res.Invalid = e2e.invalid
	for _, why := range layers.invalid {
		res.Invalid = append(res.Invalid, "traced run: "+why)
	}
	return res, nil
}

// print writes one "workload metric value unit" line per metric, the results
// file, and last the JSON summary line.
func (res *result) print(stdout, stderr io.Writer, outDir string) error {
	line := struct {
		Correct   bool                      `json:"correct"`
		Attempted int                       `json:"attempted"`
		Failed    int                       `json:"failed"`
		Metrics   map[string]map[string]any `json:"metrics"`
	}{Attempted: res.Attempted, Failed: res.Failed, Metrics: map[string]map[string]any{}}
	// A number that is not finite (a percentile that landed on a failure)
	// cannot be reported; it invalidates the run instead.
	finite := func(ms []metric) []metric {
		var out []metric
		for _, m := range ms {
			if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
				res.Invalid = append(res.Invalid, fmt.Sprintf("value: %s is %v", m.Name, m.Value))
				continue
			}
			out = append(out, m)
		}
		return out
	}
	res.Metrics, res.EndToEnd = finite(res.Metrics), finite(res.EndToEnd)
	for _, m := range res.Metrics {
		fmt.Fprintf(stdout, "%s %s %s %s\n", res.Workload, m.Name, strconv.FormatFloat(m.Value, 'g', -1, 64), m.Unit)
		if !m.Info {
			line.Metrics[m.Name] = map[string]any{"value": m.Value, "unit": m.Unit}
		}
	}
	fmt.Fprintf(stdout, "%s requests_failed %d of %d\n", res.Workload, res.Failed, res.Attempted)
	for _, why := range res.Invalid {
		fmt.Fprintf(stderr, "bench: %s: INVALID %s\n", res.Workload, why)
	}
	line.Correct = len(res.Invalid) == 0
	name := res.Workload + ".json"
	if res.Trace {
		name = res.Workload + ".trace.json"
	}
	b, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(outDir, name), append(b, '\n'), 0o644); err != nil {
		return err
	}
	b, err = json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(stdout, "%s\n", b)
	return err
}
