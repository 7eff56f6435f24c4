// Package cli is the shared flag/config surface of the cmd binaries. Before
// it existed every main.go re-declared its own -workers, -metrics-addr,
// -checkpoint*, -seed and dataset/method flags, and the spellings (and
// validation gaps) drifted between them; now each flag is declared exactly
// once here, grouped by concern, and every binary binds the groups it needs:
//
//	Perf        -workers, -metrics-addr      worker pool + metrics listener
//	Pipeline    -scale, -cache              latent-set construction tier
//	Method      -method, -buffer, -st       learner selection and sizing
//	Stream      -dataset, -seed             benchmark stream selection
//	Checkpoint  -checkpoint, -checkpoint-every, -resume
//	Fleet       -fleet-users, -fleet-hot, -fleet-dir, -fleet-shards, -fleet-queue
//	Replication -wal-dir, -wal-sync-every, -wal-segment-mb, -standby,
//	            -primary-wal, -replication-poll, -failover-after, -handoff-timeout
//
// RunConfig composes all five into the full "drive one learner over one
// stream" configuration used by chameleon-train and chameleon-serve; the
// narrower binaries (chameleon-bench, chameleon-hw, benchjson) bind subsets.
// Validate must be called after flag.Parse and before any group is used —
// every accepted value is checked against the canonical sets exported by
// internal/exp, so a typo fails fast with the allowed spellings instead of
// deep inside the pipeline.
package cli

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"chameleon/internal/cl"
	"chameleon/internal/exp"
	"chameleon/internal/obs"
	"chameleon/internal/parallel"
)

// Precision tier names accepted by -precision.
const (
	PrecisionFP32 = "fp32"
	PrecisionFP64 = "fp64"
)

// Perf is the performance/observability group shared by every binary.
type Perf struct {
	// Workers sizes the shared worker pool (0 = GOMAXPROCS).
	Workers int
	// MetricsAddr serves live metrics when non-empty.
	MetricsAddr string
	// Precision selects the kernel tier: "fp32" is the fast tier every hot
	// path uses; "fp64" is the reference tier (double-precision training to
	// bound fp32 rounding error; finetune only, see cl.Ref64).
	Precision string
}

// Bind registers the group's flags on fs.
func (p *Perf) Bind(fs *flag.FlagSet) {
	fs.IntVar(&p.Workers, "workers", 0, "worker-pool size for parallel kernels and experiment fan-out (0 = GOMAXPROCS)")
	fs.StringVar(&p.MetricsAddr, "metrics-addr", "", "serve live metrics on this address: Prometheus text on /metrics, expvar JSON on /vars and /debug/vars ('' disables)")
	fs.StringVar(&p.Precision, "precision", PrecisionFP32, "kernel precision tier: fp32 (fast, default) | fp64 (reference; finetune only)")
}

// Validate checks the precision tier name.
func (p Perf) Validate() error {
	switch p.Precision {
	case "", PrecisionFP32, PrecisionFP64:
		return nil
	}
	return fmt.Errorf("unknown precision %q (want %s or %s)", p.Precision, PrecisionFP32, PrecisionFP64)
}

// Start applies the group: it sizes the worker pool and, when MetricsAddr is
// set, starts the metrics listener (announced via logf when non-nil). The
// returned stop function closes the listener and is always non-nil.
func (p Perf) Start(logf func(string, ...any)) (stop func(), err error) {
	parallel.SetWorkers(p.Workers)
	if p.MetricsAddr == "" {
		return func() {}, nil
	}
	srv, err := obs.Default().Serve(p.MetricsAddr)
	if err != nil {
		return nil, fmt.Errorf("metrics: %w", err)
	}
	if logf != nil {
		logf("metrics: http://%s/metrics (Prometheus), /vars (JSON)", srv.Addr())
	}
	return func() { _ = srv.Close() }, nil
}

// Pipeline selects the latent-set construction tier.
type Pipeline struct {
	// ScaleName is the reproduction tier ("test" or "small").
	ScaleName string
	// CacheDir caches backbones and latents ("" disables).
	CacheDir string
	// BackboneInt8 extracts latents through the integer backbone path
	// (per-channel int8 weights, per-tensor int8 activations, int32 GEMM).
	BackboneInt8 bool
}

// Options returns the exp pipeline options this group selects.
func (p Pipeline) Options() exp.PipelineOptions {
	return exp.PipelineOptions{Int8Backbone: p.BackboneInt8}
}

// Bind registers the group's flags on fs; defScale is the binary's default
// tier ("test" for interactive binaries, "small" for the benchmark suite).
func (p *Pipeline) Bind(fs *flag.FlagSet, defScale string) {
	fs.StringVar(&p.ScaleName, "scale", defScale, "scale tier: test|small")
	fs.StringVar(&p.CacheDir, "cache", exp.DefaultCacheDir(), "latent cache directory ('' disables)")
	fs.BoolVar(&p.BackboneInt8, "backbone-int8", false, "quantise the frozen backbone's im2col convolutions to int8 for latent extraction")
}

// Validate checks the tier name.
func (p Pipeline) Validate() error {
	_, err := exp.ScaleByName(p.ScaleName)
	return err
}

// Scale resolves the tier (call Validate first; unknown names error here
// too).
func (p Pipeline) Scale() (exp.Scale, error) { return exp.ScaleByName(p.ScaleName) }

// Method selects and sizes one continual learner.
type Method struct {
	// Name is the method family.
	Name string
	// Buffer is the replay-buffer size (long-term size for chameleon).
	Buffer int
	// ST is chameleon's short-term size.
	ST int
	// ReplayInt8 stores replay payloads as int8 latents (symmetric
	// per-tensor scale): ~4× the samples per byte at the same budget.
	ReplayInt8 bool
}

// Bind registers the group's flags on fs.
func (m *Method) Bind(fs *flag.FlagSet) {
	fs.StringVar(&m.Name, "method", "chameleon", "method: "+strings.Join(exp.Methods(), "|"))
	fs.IntVar(&m.Buffer, "buffer", 100, "replay buffer size in samples (long-term size for chameleon)")
	fs.IntVar(&m.ST, "st", 10, "chameleon short-term size")
	fs.BoolVar(&m.ReplayInt8, "replay-int8", false, "store replay buffers as int8 latents with per-tensor scales (quantize on insert, dequantize on rehearsal)")
}

// Validate checks the method family and sizing.
func (m Method) Validate() error {
	if !exp.ValidMethod(m.Name) {
		return fmt.Errorf("unknown method %q (want one of %s)", m.Name, strings.Join(exp.Methods(), ", "))
	}
	if m.Buffer < 0 {
		return fmt.Errorf("-buffer must be >= 0, got %d", m.Buffer)
	}
	if m.ST < 0 {
		return fmt.Errorf("-st must be >= 0, got %d", m.ST)
	}
	return nil
}

// Spec converts the group to an experiment method spec.
func (m Method) Spec() exp.MethodSpec {
	return exp.MethodSpec{Name: m.Name, Buffer: m.Buffer, ST: m.ST, ReplayInt8: m.ReplayInt8}
}

// Datasets lists the benchmark streams the pipeline can build.
func Datasets() []string { return []string{"core50", "openloris"} }

// Stream selects the benchmark stream.
type Stream struct {
	// Dataset is the benchmark name.
	Dataset string
	// Seed drives stream order and head initialisation.
	Seed int64
	// ExtraDatasets extends the accepted -dataset values for binaries with
	// additional sources (chameleon-serve's "synthetic"). Set before Validate.
	ExtraDatasets []string
}

// Bind registers the group's flags on fs.
func (s *Stream) Bind(fs *flag.FlagSet) {
	usage := "dataset: " + strings.Join(append(Datasets(), s.ExtraDatasets...), "|")
	fs.StringVar(&s.Dataset, "dataset", "core50", usage)
	fs.Int64Var(&s.Seed, "seed", 1, "run seed (stream order + head init)")
}

// Validate checks the dataset name.
func (s Stream) Validate() error {
	for _, d := range append(Datasets(), s.ExtraDatasets...) {
		if s.Dataset == d {
			return nil
		}
	}
	return fmt.Errorf("unknown dataset %q (want one of %s)",
		s.Dataset, strings.Join(append(Datasets(), s.ExtraDatasets...), ", "))
}

// Checkpoint configures crash-safe persistence.
type Checkpoint struct {
	// Path is the checkpoint file or directory ("" disables).
	Path string
	// Every is the save period in batches.
	Every int
	// Resume restarts from an existing checkpoint.
	Resume bool
}

// Bind registers the group's flags on fs; pathUsage describes what Path means
// for this binary (file for single runs, directory for grids).
func (c *Checkpoint) Bind(fs *flag.FlagSet, pathUsage string) {
	fs.StringVar(&c.Path, "checkpoint", "", pathUsage)
	fs.IntVar(&c.Every, "checkpoint-every", 100, "batches between checkpoint saves (with -checkpoint)")
	fs.BoolVar(&c.Resume, "resume", false, "resume from -checkpoint if it exists")
}

// Validate checks the save period.
func (c Checkpoint) Validate() error {
	if c.Path != "" && c.Every <= 0 {
		return fmt.Errorf("-checkpoint-every must be > 0, got %d", c.Every)
	}
	return nil
}

// Plan converts the group to a single-run checkpoint plan.
func (c Checkpoint) Plan(meter *cl.TrafficMeter) cl.CheckpointPlan {
	return cl.CheckpointPlan{Path: c.Path, Every: c.Every, Resume: c.Resume, Meter: meter}
}

// Grid converts the group to a grid checkpoint config, creating the
// directory when set.
func (c Checkpoint) Grid() (exp.Checkpointing, error) {
	ck := exp.Checkpointing{Dir: c.Path, Every: c.Every, Resume: c.Resume}
	if ck.Dir != "" {
		if err := os.MkdirAll(ck.Dir, 0o755); err != nil {
			return exp.Checkpointing{}, fmt.Errorf("checkpoint dir: %w", err)
		}
	}
	return ck, nil
}

// Fleet configures multi-tenant serving: per-user learners behind one HTTP
// surface, with a bounded hot-set and LRU eviction to per-user checkpoints
// (see internal/fleet). Bound by chameleon-serve only; the zero value means
// single-learner mode.
type Fleet struct {
	// Users caps the distinct user ids admitted (0 = single-learner mode).
	Users int
	// Hot bounds learners resident in memory across all shards (0 = default).
	Hot int
	// Dir is where evicted and drained learners checkpoint to.
	Dir string
	// Shards is the number of single-writer engine goroutines (0 = default).
	Shards int
	// QueueDepth bounds each shard's request queue (0 = default).
	QueueDepth int
}

// Bind registers the group's flags on fs.
func (f *Fleet) Bind(fs *flag.FlagSet) {
	fs.IntVar(&f.Users, "fleet-users", 0, "serve a fleet of per-user learners, admitting up to this many distinct user ids (0 = single-learner mode)")
	fs.IntVar(&f.Hot, "fleet-hot", 0, "max learners resident in memory across the fleet; colder users are LRU-evicted to -fleet-dir (0 = default 256)")
	fs.StringVar(&f.Dir, "fleet-dir", "", "directory for evicted and drained per-user checkpoints (required with -fleet-users)")
	fs.IntVar(&f.Shards, "fleet-shards", 0, "single-writer engine goroutines users are consistent-hashed onto (0 = default 4)")
	fs.IntVar(&f.QueueDepth, "fleet-queue", 0, "bounded per-shard request queue depth; full queues shed with 429 (0 = default 256)")
}

// Enabled reports whether any fleet flag was set.
func (f Fleet) Enabled() bool {
	return f.Users > 0 || f.Hot != 0 || f.Dir != "" || f.Shards != 0 || f.QueueDepth != 0
}

// Validate fails fast on a partial or inconsistent fleet spec, so a typo'd
// or half-configured fleet never silently falls back to single-learner mode.
func (f Fleet) Validate() error {
	if !f.Enabled() {
		return nil
	}
	if f.Users <= 0 {
		return fmt.Errorf("fleet flags set but -fleet-users is %d; fleet mode requires -fleet-users > 0", f.Users)
	}
	if f.Dir == "" {
		return fmt.Errorf("-fleet-users %d requires -fleet-dir (evicted learners checkpoint there)", f.Users)
	}
	if f.Hot < 0 {
		return fmt.Errorf("-fleet-hot must be >= 0, got %d", f.Hot)
	}
	if f.Shards < 0 {
		return fmt.Errorf("-fleet-shards must be >= 0, got %d", f.Shards)
	}
	if f.QueueDepth < 0 {
		return fmt.Errorf("-fleet-queue must be >= 0, got %d", f.QueueDepth)
	}
	if f.Hot > 0 && f.Hot > f.Users {
		return fmt.Errorf("-fleet-hot %d exceeds -fleet-users %d (the hot-set cannot outgrow the fleet)", f.Hot, f.Users)
	}
	return nil
}

// Replication configures the durable observe log and warm-standby
// replication (internal/replication, DESIGN.md §18). Bound by
// chameleon-serve only; the zero value disables both.
type Replication struct {
	// WALDir is the durable observe-log directory ("" disables the log).
	WALDir string
	// SyncEvery batches log fsyncs (records per fsync).
	SyncEvery int
	// SegmentMB rotates log segments at this size.
	SegmentMB int
	// Standby, when non-empty, starts the server as a warm standby of the
	// primary at this base URL: it bootstraps from the primary's snapshot,
	// tails its observe log, and serves 503 not_ready until promoted.
	Standby string
	// PrimaryWAL is the (dead) primary's observe-log directory on shared
	// disk: a probe-failure promotion replays the records the primary logged
	// but never streamed, so even SIGKILL loses no acknowledged observe.
	PrimaryWAL string
	// Poll spaces a caught-up standby's log pulls.
	Poll time.Duration
	// FailoverAfter promotes the standby after this many consecutive failed
	// pulls (<0 disables probe-based failover).
	FailoverAfter int
	// HandoffTimeout bounds how long a draining primary waits for its
	// standby to pull the rest of the log.
	HandoffTimeout time.Duration
}

// Bind registers the group's flags on fs.
func (r *Replication) Bind(fs *flag.FlagSet) {
	fs.StringVar(&r.WALDir, "wal-dir", "", "durable observe-log directory: every accepted observe batch is appended before it is applied ('' disables)")
	fs.IntVar(&r.SyncEvery, "wal-sync-every", 16, "observe-log appends per fsync (1 = fsync every append)")
	fs.IntVar(&r.SegmentMB, "wal-segment-mb", 4, "observe-log segment rotation size in MiB")
	fs.StringVar(&r.Standby, "standby", "", "run as a warm standby of the primary at this base URL (e.g. http://127.0.0.1:8080); requires -wal-dir")
	fs.StringVar(&r.PrimaryWAL, "primary-wal", "", "the primary's -wal-dir on shared disk; a probe-failure promotion recovers its unstreamed log tail from here")
	fs.DurationVar(&r.Poll, "replication-poll", 50*time.Millisecond, "standby log-pull interval when caught up")
	fs.IntVar(&r.FailoverAfter, "failover-after", 5, "consecutive failed pulls before the standby promotes itself (negative disables probe failover)")
	fs.DurationVar(&r.HandoffTimeout, "handoff-timeout", 10*time.Second, "max time a draining primary waits for its standby to finish pulling the log")
}

// Enabled reports whether the observe log is configured.
func (r Replication) Enabled() bool { return r.WALDir != "" }

// Validate fails fast on an inconsistent replication spec.
func (r Replication) Validate() error {
	if r.Standby != "" && r.WALDir == "" {
		return fmt.Errorf("-standby requires -wal-dir (the standby keeps its own durable copy of the observe log)")
	}
	if r.PrimaryWAL != "" && r.Standby == "" {
		return fmt.Errorf("-primary-wal only makes sense with -standby")
	}
	if r.WALDir != "" && r.SyncEvery <= 0 {
		return fmt.Errorf("-wal-sync-every must be > 0, got %d", r.SyncEvery)
	}
	if r.WALDir != "" && r.SegmentMB <= 0 {
		return fmt.Errorf("-wal-segment-mb must be > 0, got %d", r.SegmentMB)
	}
	if r.Standby != "" && r.PrimaryWAL == r.WALDir && r.PrimaryWAL != "" {
		return fmt.Errorf("-wal-dir and -primary-wal must differ (the standby's log would clobber the primary's)")
	}
	return nil
}

// RunConfig is the full "drive one learner over one benchmark stream"
// configuration: chameleon-train and chameleon-serve bind it whole, so the
// two binaries expose one identical flag surface for everything they share.
type RunConfig struct {
	Perf
	Pipeline
	Method
	Stream
	Checkpoint
}

// Bind registers every group's flags on fs.
func (c *RunConfig) Bind(fs *flag.FlagSet) {
	c.Perf.Bind(fs)
	c.Pipeline.Bind(fs, "test")
	c.Method.Bind(fs)
	c.Stream.Bind(fs)
	c.Checkpoint.Bind(fs, "checkpoint file for crash-safe runs ('' disables)")
}

// Validate checks every group, reporting the first problem.
func (c RunConfig) Validate() error {
	for _, err := range []error{
		c.Perf.Validate(), c.Pipeline.Validate(), c.Method.Validate(), c.Stream.Validate(), c.Checkpoint.Validate(),
	} {
		if err != nil {
			return err
		}
	}
	return nil
}
