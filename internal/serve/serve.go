// Package serve is the online serving subsystem: a stdlib-only net/http
// front end that exposes a single cl.Learner to concurrent network clients
// while preserving Algorithm 1's single-pass, single-writer semantics.
//
// Architecture (DESIGN.md §13):
//
//   - One engine goroutine owns the learner. Every Observe and Predict the
//     process performs happens on that goroutine, so the learner never sees
//     concurrent calls and the observe order is a total order — a resumed or
//     replayed run that feeds the same batches in the same order is
//     bit-identical.
//   - Predict requests are micro-batched: the engine takes every queued
//     request (up to Config.MaxBatch) and, while other predicts are still
//     being decoded by their handlers, waits up to Config.BatchWindow for
//     them, then answers the lot with one PredictBatch call. A lone predict
//     never waits. The batched path is bit-identical to per-sample Predict
//     (the BatchPredictor contract), so coalescing is invisible to clients.
//   - Queues are bounded. A full queue sheds the request with 429 +
//     Retry-After instead of growing without bound; memory stays constant
//     under overload.
//   - Shutdown drains: new requests are refused with 503, everything already
//     queued is processed, and the learner state is written as an
//     internal/checkpoint snapshot so a restarted server resumes
//     bit-identically.
//
// Every stage is instrumented on the internal/obs registry (queue depths,
// batch-size histogram, shed counts, drain latency), so the serving path
// shows up on the same /metrics surface as the training internals.
package serve

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"chameleon/internal/api"
	"chameleon/internal/checkpoint"
	"chameleon/internal/cl"
	"chameleon/internal/fleet"
	"chameleon/internal/mobilenet"
	"chameleon/internal/obs"
	"chameleon/internal/replication"
	"chameleon/internal/tensor"
)

// stateKind tags drain checkpoints in the internal/checkpoint file framing.
const stateKind = "serve.state"

// Config sizes the serving subsystem. The zero value of every optional field
// selects a sensible default; LatentShape and Classes are required (they
// bound payload validation before anything touches the learner).
type Config struct {
	// LatentShape is the expected shape of request latents.
	LatentShape []int
	// Classes bounds observe labels: 0 <= label < Classes.
	Classes int
	// Backbone, when non-nil, enables the image form of /v1/predict and
	// /v1/observe: raw [3,R,R] frames are run through the frozen extractor
	// (safe concurrently — eval-mode forwards allocate locally) before they
	// reach the queue.
	Backbone *mobilenet.Model
	// BatchWindow is the longest the engine waits for predicts that are
	// already being decoded, to answer them in the same PredictBatch call
	// (default 2ms). With none in flight it does not wait at all; 0 still
	// coalesces whatever is already queued, without waiting.
	BatchWindow time.Duration
	// MaxBatch caps one coalesced predict batch (default 64).
	MaxBatch int
	// QueueDepth bounds the predict and observe queues each (default 256).
	// A full queue sheds with 429.
	QueueDepth int
	// RequestTimeout bounds how long a handler waits for the engine before
	// answering 504 (default 10s). The queued work still completes; only the
	// response is abandoned.
	RequestTimeout time.Duration
	// MaxObserveBatch caps samples per observe request (default 64).
	MaxObserveBatch int
	// CheckpointPath, when set, is where drain (and the periodic saver)
	// writes the learner snapshot. Requires the learner to implement
	// cl.Snapshotter.
	CheckpointPath string
	// CheckpointEvery saves a snapshot every that many observed batches
	// while serving (default 100; only with CheckpointPath). Drain always
	// saves regardless.
	CheckpointEvery int
	// StartBatches/StartSamples seed the stream position counters when the
	// learner was restored from a drain checkpoint (see Resume).
	StartBatches int
	StartSamples int
	// WAL, when non-nil, is the durable observe log: every accepted observe
	// batch is appended (and thus made durable) before the engine applies it,
	// and the /v1/replication endpoints are served from it (DESIGN.md §18).
	// On a single-learner server the log's sequence numbers coincide with the
	// batch stream indices, so New requires WAL.End() == StartBatches — replay
	// the log tail into the learner first (ReplayLog) if a crash left the log
	// ahead of the checkpoint.
	WAL *replication.Log
	// Standby starts the server in 503-read-only mode: /v1/predict and
	// /v1/observe answer not_ready until Promote is called (normally by a
	// replication.Follower that has caught up). Requires WAL; incompatible
	// with Fleet.
	Standby bool
	// NewLearner constructs a fresh learner identical to the one New was
	// given before any observes (same method, same seed). Required by the
	// /v1/replication/verify endpoint, which rebuilds state from (base
	// snapshot, log suffix) and compares it against the live learner.
	NewLearner func() (cl.Learner, error)
	// SnapshotsEqual compares two learner snapshots for state equality
	// (core.SnapshotsEqual for the chameleon method). Required by
	// /v1/replication/verify.
	SnapshotsEqual func(a, b []byte) (bool, error)
	// HandoffTimeout bounds how long Shutdown waits, after draining, for a
	// warm standby to pull the rest of the observe log before the listener
	// closes (default 10s; only with WAL, and only if a follower has ever
	// pulled).
	HandoffTimeout time.Duration
	// Fleet, when non-nil, switches the server into multi-tenant mode: the
	// learner argument to New must be nil, every /v1/predict and /v1/observe
	// must carry a user id, and requests are routed to the fleet's per-user
	// learners instead of the single-learner engine. Fleet checkpointing is
	// the fleet's own eviction/drain machinery, so CheckpointPath must be
	// empty in this mode.
	Fleet *fleet.Fleet
	// Registry receives the serve metrics (nil: the process default).
	Registry *obs.Registry
}

// withDefaults fills unset fields.
func (c Config) withDefaults() Config {
	if c.BatchWindow < 0 {
		c.BatchWindow = 0
	} else if c.BatchWindow == 0 {
		c.BatchWindow = 2 * time.Millisecond
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = 64
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 256
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 10 * time.Second
	}
	if c.MaxObserveBatch <= 0 {
		c.MaxObserveBatch = 64
	}
	if c.CheckpointEvery <= 0 {
		c.CheckpointEvery = 100
	}
	if c.HandoffTimeout <= 0 {
		c.HandoffTimeout = 10 * time.Second
	}
	if c.Registry == nil {
		c.Registry = obs.Default()
	}
	return c
}

// predictReq is one client latent waiting for the engine.
type predictReq struct {
	z    *tensor.Tensor
	ctx  context.Context
	resp chan predictResp // buffered (cap 1): the engine never blocks on it
}

type predictResp struct {
	class int
	err   error
}

// observeReq is one labelled mini-batch waiting for the engine.
type observeReq struct {
	samples []cl.LatentSample
	domain  int
	// rec, when non-nil, marks a replicated record (ApplyRecord): it already
	// carries its primary-assigned sequence number and batch index, which the
	// engine verifies instead of assigning.
	rec  *api.LogRecord
	resp chan observeResp // buffered (cap 1)
}

type observeResp struct {
	batch   int // stream index the engine assigned
	samples int // total samples observed after this batch
	err     error
}

// Server fronts one learner. Construct with New, start with Start (or drive
// Handler directly in tests), and always stop with Shutdown or Close.
type Server struct {
	cfg  Config
	l    cl.Learner
	caps cl.Capabilities
	m    *metrics

	predictQ chan *predictReq
	observeQ chan *observeReq
	// ctrlQ carries control closures (snapshot capture, restore) onto the
	// engine goroutine; unbuffered, so a successful send guarantees the
	// engine runs the closure to completion.
	ctrlQ chan func()
	// postDrainMu serializes control closures once the engine has exited
	// (the handoff window keeps replication endpoints alive after drain).
	postDrainMu sync.Mutex

	// mu guards the draining flag against handler enqueues: handlers hold
	// the read side across the check-then-enqueue window, Shutdown takes the
	// write side before draining, so no request can slip into a queue after
	// the drain loop has emptied it.
	mu       sync.RWMutex
	draining bool

	stopOnce   sync.Once
	stopCh     chan struct{}
	engineDone chan struct{}

	// batches/samples mirror the engine's stream position for /v1/stats.
	batches atomic.Int64
	samples atomic.Int64
	start   time.Time

	// ready gates /v1/predict and /v1/observe: false on a standby until
	// Promote. Servers without Config.Standby start ready.
	ready atomic.Bool

	// predictsDecoding counts single-learner predict handlers between their
	// ready check and their enqueue attempt: the company doPredictBatch may
	// wait for. Fleet mode never touches it.
	predictsDecoding atomic.Int64

	// replMu guards the replication snapshots. baseSnap anchors the local
	// log: restoring it and replaying records from baseSnap.Cursor rebuilds
	// live state (the verify endpoint's contract). replSnap is the cached
	// snapshot the /v1/replication/snapshot endpoint serves, refreshed every
	// CheckpointEvery batches.
	replMu   sync.Mutex
	baseSnap *api.SnapshotResponse
	replSnap *api.SnapshotResponse

	// Follower-pull bookkeeping on a primary: the cursor and time of the last
	// served /v1/replication/log pull (handoff waits on these), whether a
	// caught-up pull has been answered Final (the follower's promotion
	// trigger — handoff is only complete once one was served), and the
	// standby-side lag published via SetLag.
	replLastPullSeq  atomic.Uint64
	replLastPullNano atomic.Int64
	replFinalServed  atomic.Bool
	replLagBatches   atomic.Int64
	replLastSyncNano atomic.Int64

	mux  *http.ServeMux
	ln   net.Listener
	hsrv *http.Server
}

// New validates the config and starts the engine goroutine. In fleet mode
// (Config.Fleet set) l must be nil — the fleet owns every learner — and no
// single-learner engine is started. The caller must eventually call Shutdown
// (or Close) even if Start is never called.
func New(l cl.Learner, cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	if len(cfg.LatentShape) == 0 {
		return nil, errors.New("serve: Config.LatentShape is required")
	}
	n := 1
	for _, d := range cfg.LatentShape {
		if d <= 0 {
			return nil, fmt.Errorf("serve: invalid latent shape %v", cfg.LatentShape)
		}
		n *= d
	}
	if cfg.Classes <= 0 {
		return nil, fmt.Errorf("serve: Config.Classes must be > 0, got %d", cfg.Classes)
	}
	if cfg.Fleet != nil {
		if l != nil {
			return nil, errors.New("serve: fleet mode takes no single learner (pass nil)")
		}
		if cfg.CheckpointPath != "" {
			return nil, errors.New("serve: fleet mode persists per user via the fleet's eviction dir; CheckpointPath must be empty")
		}
	} else if l == nil {
		return nil, errors.New("serve: a learner is required outside fleet mode")
	}
	if cfg.Standby {
		if cfg.WAL == nil {
			return nil, errors.New("serve: standby mode requires an observe log (Config.WAL)")
		}
		if cfg.Fleet != nil {
			return nil, errors.New("serve: standby mode replicates a single learner; it is incompatible with fleet mode")
		}
	}
	s := &Server{
		cfg:        cfg,
		l:          l,
		m:          newMetrics(cfg.Registry),
		predictQ:   make(chan *predictReq, cfg.QueueDepth),
		observeQ:   make(chan *observeReq, cfg.QueueDepth),
		ctrlQ:      make(chan func()),
		stopCh:     make(chan struct{}),
		engineDone: make(chan struct{}),
		start:      time.Now(),
	}
	if l != nil {
		s.caps = cl.Caps(l)
	}
	if cfg.CheckpointPath != "" && s.caps.Snapshotter == nil {
		return nil, fmt.Errorf("serve: method %q does not support checkpointing", l.Name())
	}
	if cfg.WAL != nil && cfg.Fleet == nil {
		if s.caps.Snapshotter == nil {
			return nil, fmt.Errorf("serve: method %q does not support snapshots; an observe log needs them for replication", l.Name())
		}
		if !cfg.Standby && cfg.WAL.End() != uint64(cfg.StartBatches) {
			return nil, fmt.Errorf("serve: observe log ends at seq %d but the start position is batch %d; replay the log tail (ReplayLog) or reset the log first",
				cfg.WAL.End(), cfg.StartBatches)
		}
	}
	s.ready.Store(!cfg.Standby)
	s.batches.Store(int64(cfg.StartBatches))
	s.samples.Store(int64(cfg.StartSamples))
	if cfg.WAL != nil && cfg.Fleet == nil && !cfg.Standby {
		// Anchor the log: the initial snapshot is what verify (and a
		// bootstrapping standby, until the first periodic refresh) replays
		// forward from. The engine is not running yet, so touching the
		// learner here is safe.
		if err := s.publishSnapshot(); err != nil {
			return nil, fmt.Errorf("serve: initial replication snapshot: %w", err)
		}
	}
	s.m.bindQueues(s)
	s.mux = s.buildMux()
	if cfg.Fleet != nil {
		// The fleet's shard engines replace the single-learner loop; nothing
		// ever reaches this server's queues.
		close(s.engineDone)
	} else {
		go s.engine()
	}
	return s, nil
}

// Start listens on addr and serves in the background.
func (s *Server) Start(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("serve: listen %s: %w", addr, err)
	}
	s.ln = ln
	s.hsrv = &http.Server{Handler: s.Handler()}
	go func() { _ = s.hsrv.Serve(ln) }()
	return nil
}

// Addr returns the bound listen address (useful with ":0").
func (s *Server) Addr() string {
	if s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// engine is the single goroutine that owns the learner.
func (s *Server) engine() {
	defer close(s.engineDone)
	for {
		select {
		case <-s.stopCh:
			s.drain()
			return
		case r := <-s.observeQ:
			s.doObserve(r)
		case r := <-s.predictQ:
			s.doPredictBatch(r, true)
		case fn := <-s.ctrlQ:
			fn()
		}
	}
}

// onEngine runs fn on the engine goroutine (single-writer discipline: fn may
// touch the learner). Once the engine has drained and exited, fn runs on the
// caller under postDrainMu instead — nothing else touches the learner then,
// and the handoff window still needs snapshot capture.
func (s *Server) onEngine(ctx context.Context, fn func()) error {
	done := make(chan struct{})
	select {
	case s.ctrlQ <- func() { fn(); close(done) }:
		<-done
		return nil
	case <-s.engineDone:
		s.postDrainMu.Lock()
		defer s.postDrainMu.Unlock()
		fn()
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// doPredictBatch answers one coalesced micro-batch: first plus everything
// already queued, up to MaxBatch. With wait set, and while handlers are still
// decoding predicts, it also waits for those — each arrival re-checks the
// count — for at most BatchWindow in total. During drain, or with no predict
// in flight, it only takes what is already queued.
func (s *Server) doPredictBatch(first *predictReq, wait bool) {
	reqs := append(make([]*predictReq, 0, s.cfg.MaxBatch), first)
	wait = wait && s.cfg.BatchWindow > 0
	var timer *time.Timer
	for {
		reqs = s.takeQueued(reqs)
		if !wait || len(reqs) == s.cfg.MaxBatch || s.predictsDecoding.Load() == 0 {
			break
		}
		if timer == nil {
			timer = time.NewTimer(s.cfg.BatchWindow)
			defer timer.Stop()
		}
		select {
		case r := <-s.predictQ:
			reqs = append(reqs, r)
		case <-timer.C:
			wait = false
		}
	}
	s.m.batchSize.Observe(float64(len(reqs)))

	zs := make([]*tensor.Tensor, len(reqs))
	for i, r := range reqs {
		zs[i] = r.z
	}
	out := make([]int, len(reqs))
	err := s.safePredict(zs, out)
	for i, r := range reqs {
		r.resp <- predictResp{class: out[i], err: err}
	}
}

// takeQueued appends queued predicts to reqs, without blocking, until the
// queue is empty or the batch holds MaxBatch.
func (s *Server) takeQueued(reqs []*predictReq) []*predictReq {
	for len(reqs) < s.cfg.MaxBatch {
		select {
		case r := <-s.predictQ:
			reqs = append(reqs, r)
		default:
			return reqs
		}
	}
	return reqs
}

// safePredict converts a learner panic into an error so the engine survives
// hostile or buggy inputs.
func (s *Server) safePredict(zs []*tensor.Tensor, out []int) (err error) {
	defer func() {
		if p := recover(); p != nil {
			s.m.panics.Inc()
			err = fmt.Errorf("serve: predict panicked: %v", p)
		}
	}()
	return cl.PredictInto(s.l, zs, out)
}

// doObserve feeds one batch to the learner, assigning the next stream index.
// With an observe log the record is appended — made durable — before the
// learner applies it (DESIGN.md §18); on the replica path (r.rec set) the
// primary-assigned sequence and batch index are verified instead of assigned.
func (s *Server) doObserve(r *observeReq) {
	idx := int(s.batches.Load())
	if r.rec != nil && r.rec.Batch != idx {
		r.resp <- observeResp{err: fmt.Errorf("serve: replicated record is batch %d, engine is at %d", r.rec.Batch, idx)}
		return
	}
	if s.cfg.WAL != nil {
		rec := r.rec
		if rec == nil {
			rec = logRecordFrom(r.samples, idx, r.domain)
		} else if want := s.cfg.WAL.End(); rec.Seq != want {
			r.resp <- observeResp{err: fmt.Errorf("serve: replicated record has seq %d, local log expects %d", rec.Seq, want)}
			return
		}
		if _, err := s.cfg.WAL.Append(rec); err != nil {
			r.resp <- observeResp{err: fmt.Errorf("serve: observe log append: %w", err)}
			return
		}
	}
	err := s.safeObserve(cl.LatentBatch{Samples: r.samples, Index: idx, Domain: r.domain})
	if err != nil {
		// With a WAL the record is already durable but was never applied: the
		// log is now one record ahead of live state. Learner panics are the
		// only path here; count the orphan so operators can see the skew
		// (replay treats the log as truth — DESIGN.md §18).
		if s.cfg.WAL != nil {
			s.m.walOrphans.Inc()
		}
		r.resp <- observeResp{err: err}
		return
	}
	b := s.batches.Add(1)
	n := s.samples.Add(int64(len(r.samples)))
	if b%int64(s.cfg.CheckpointEvery) == 0 {
		if s.cfg.CheckpointPath != "" {
			// Periodic crash protection; drain still writes the authoritative
			// final snapshot. Failures surface in the error counter, not to
			// the client whose observe already succeeded.
			if err := s.saveState(); err != nil {
				s.m.checkpointErrors.Inc()
			}
		}
		if s.cfg.WAL != nil && s.cfg.Fleet == nil {
			// Refresh the snapshot the replication endpoint serves, so a
			// bootstrapping standby replays at most CheckpointEvery batches.
			if err := s.publishSnapshot(); err != nil {
				s.m.checkpointErrors.Inc()
			}
		}
	}
	r.resp <- observeResp{batch: idx, samples: int(n)}
}

// logRecordFrom builds the durable log form of one observe batch. Latents are
// always logged fp32 — quantized wire payloads were dequantized at the
// handler boundary — so replay feeds the learner byte-identical inputs.
func logRecordFrom(samples []cl.LatentSample, idx, domain int) *api.LogRecord {
	rec := &api.LogRecord{Batch: idx, Domain: domain, Samples: make([]api.LogSample, len(samples))}
	for i, sm := range samples {
		rec.Samples[i] = api.LogSample{Latent: sm.Z.Data(), Label: sm.Label}
	}
	return rec
}

// safeObserve converts a learner panic into an error.
func (s *Server) safeObserve(b cl.LatentBatch) (err error) {
	defer func() {
		if p := recover(); p != nil {
			s.m.panics.Inc()
			err = fmt.Errorf("serve: observe panicked: %v", p)
		}
	}()
	t0 := time.Now()
	s.l.Observe(b)
	s.m.observeApply.ObserveSince(t0)
	return nil
}

// drain empties both queues (no handler can enqueue anymore: Shutdown flips
// the draining flag under the write lock first), then persists the learner.
func (s *Server) drain() {
	t0 := time.Now()
	for {
		select {
		case r := <-s.observeQ:
			s.doObserve(r)
			continue
		default:
		}
		select {
		case r := <-s.predictQ:
			s.doPredictBatch(r, false)
			continue
		default:
		}
		break
	}
	if s.cfg.CheckpointPath != "" {
		if err := s.saveState(); err != nil {
			s.m.checkpointErrors.Inc()
		}
	}
	s.m.drainSeconds.ObserveSince(t0)
}

// State is the drain-checkpoint payload: the learner's opaque snapshot plus
// the stream position the server had assigned. A restarted server restores
// the learner and continues numbering batches from Batches, so the combined
// observe sequence across restarts is one uninterrupted stream.
type State struct {
	// Method guards against restoring a snapshot into a different learner.
	Method string
	// Batches and Samples are the stream position at save time.
	Batches int
	Samples int
	// Cursor is the observe-log position the snapshot is consistent with (the
	// next sequence number at save time; equal to Batches on single-learner
	// servers). Zero-valued in checkpoints written before the log existed.
	Cursor uint64
	// Learner is the method's cl.Snapshotter payload.
	Learner []byte
}

// saveState snapshots the learner and writes the drain checkpoint. Engine
// goroutine only.
func (s *Server) saveState() error {
	state, err := s.caps.Snapshotter.Snapshot()
	if err != nil {
		return fmt.Errorf("serve: snapshot %s: %w", s.l.Name(), err)
	}
	st := State{
		Method:  s.l.Name(),
		Batches: int(s.batches.Load()),
		Samples: int(s.samples.Load()),
		Learner: state,
	}
	st.Cursor = uint64(st.Batches)
	if s.cfg.WAL != nil {
		st.Cursor = s.cfg.WAL.End()
	}
	return checkpoint.Save(s.cfg.CheckpointPath, stateKind, st)
}

// LoadState reads a drain checkpoint without touching any learner.
func LoadState(path string) (State, error) {
	var st State
	if err := checkpoint.Load(path, stateKind, &st); err != nil {
		return State{}, err
	}
	return st, nil
}

// Resume restores a drain checkpoint into a freshly constructed learner of
// the same method and returns the saved stream position (wire it into
// Config.StartBatches/StartSamples). The learner must implement
// cl.Snapshotter.
func Resume(path string, l cl.Learner) (State, error) {
	st, err := LoadState(path)
	if err != nil {
		return State{}, err
	}
	if st.Method != l.Name() {
		return State{}, fmt.Errorf("serve: checkpoint %s holds method %q, learner is %q", path, st.Method, l.Name())
	}
	snap := cl.Caps(l).Snapshotter
	if snap == nil {
		return State{}, fmt.Errorf("serve: method %q does not support checkpointing", l.Name())
	}
	if err := snap.Restore(st.Learner); err != nil {
		return State{}, fmt.Errorf("serve: restore %s from %s: %w", l.Name(), path, err)
	}
	return st, nil
}

// Shutdown gracefully stops the server: it refuses new work (503), lets the
// engine drain everything already queued, writes the drain checkpoint, and
// then closes the HTTP listener, waiting up to ctx for the pieces. It is
// idempotent; only the first call drains.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
	s.stopOnce.Do(func() { close(s.stopCh) })

	select {
	case <-s.engineDone:
	case <-ctx.Done():
		return fmt.Errorf("serve: drain interrupted: %w", ctx.Err())
	}
	if s.cfg.WAL != nil {
		// Flush the log tail so a post-mortem reader (or a failing-over
		// standby on shared disk) sees every drained record.
		if err := s.cfg.WAL.Sync(); err != nil {
			s.m.checkpointErrors.Inc()
		}
		// Graceful handoff: if a standby has been tailing this server, keep
		// the replication endpoints alive until it has pulled the whole log
		// (the log handler now reports Final, telling it to promote).
		s.awaitHandoff(ctx)
	}
	if s.cfg.Fleet != nil {
		// Fleet mode: drain every shard and demote all resident learners to
		// their per-user checkpoint files.
		if err := s.cfg.Fleet.Shutdown(ctx); err != nil {
			return err
		}
	}
	if s.hsrv != nil {
		return s.hsrv.Shutdown(ctx)
	}
	return nil
}

// Close is Shutdown with a short grace period, for defer use in tests.
func (s *Server) Close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	return s.Shutdown(ctx)
}

// Batches returns the number of observe batches applied so far (fleet mode:
// summed across all users).
func (s *Server) Batches() int {
	if s.cfg.Fleet != nil {
		return int(s.cfg.Fleet.Stats().Batches)
	}
	return int(s.batches.Load())
}

// Samples returns the number of labelled samples applied so far (fleet mode:
// summed across all users).
func (s *Server) Samples() int {
	if s.cfg.Fleet != nil {
		return int(s.cfg.Fleet.Stats().Samples)
	}
	return int(s.samples.Load())
}
