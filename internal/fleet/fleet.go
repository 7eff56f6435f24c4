// Package fleet hosts many independent per-user continual learners behind
// one shared frozen backbone — the "millions of users" half of the paper's
// user-aware personalization premise. One cl.Learner per user is the model;
// this package is the memory hierarchy around it:
//
//   - A registry keyed by user id. Learners are created lazily on first
//     request from a deterministic factory (same user ⇒ same construction),
//     so the fleet never pays for users it has not seen.
//   - Consistent-hash routing (ring.go) of every request to one of N shards.
//     Each shard is a single-writer engine goroutine — the serve-package
//     engine loop (DESIGN.md §13) replicated per shard — so one user's
//     observes and predicts form a total order without any lock around the
//     learner, and different users on different shards run concurrently.
//   - A bounded hot-set with LRU eviction. RAM holds at most ~HotSet resident
//     learners; when a shard exceeds its share, the least-recently-used
//     learner is drained to an internal/checkpoint snapshot on disk and
//     dropped. The next request for that user faults it back in: fresh
//     construction + snapshot restore, bit-identical to never having been
//     evicted (the cl.Snapshotter contract). A restored head never draws
//     its initial weights, so construction costs only the head's zeroed
//     layers. This is exactly the RAM/storage cost-management hierarchy
//     Miro (Ma et al., 2023) argues for on-device. A Chameleon snapshot at
//     the serve defaults (-buffer 100 -st 10) is about 300 KB: 110 fp32
//     latents of 512 values, plus the head's weights and momentum.
//
// Shutdown drains every shard queue and demotes all resident learners to
// their checkpoint files, so a restarted fleet faults each user back in
// exactly where it left off.
package fleet

import (
	"container/list"
	"context"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"chameleon/internal/api"
	"chameleon/internal/checkpoint"
	"chameleon/internal/cl"
	"chameleon/internal/obs"
	"chameleon/internal/replication"
	"chameleon/internal/tensor"
)

// userKind tags per-user eviction checkpoints in the file framing.
const userKind = "fleet.user"

// maxUserLen bounds user ids: hex-encoded ids become file names, and 64
// bytes keeps them comfortably under every filesystem's name limit.
const maxUserLen = 64

// Sentinel errors the serving layer maps to HTTP statuses.
var (
	// ErrQueueFull reports a full shard queue (shed; the client may retry).
	ErrQueueFull = errors.New("fleet: shard queue full")
	// ErrDraining reports a fleet that is shutting down.
	ErrDraining = errors.New("fleet: draining")
	// ErrTooManyUsers reports the MaxUsers registry cap.
	ErrTooManyUsers = errors.New("fleet: user capacity reached")
)

// Config sizes a learner fleet. New and Dir are required; the zero value of
// every other field selects a default.
type Config struct {
	// New constructs a fresh learner for a user. It must be deterministic
	// (same user ⇒ identical construction: fault-in restores a snapshot into
	// a freshly built learner, and the restore contract needs the same
	// shapes, capacities and seeds every time) and safe to call from any
	// shard goroutine. Derive per-user seeds with UserSeed.
	New func(user string) (cl.Learner, error)
	// Dir is where evicted learners are checkpointed, one file per user.
	Dir string
	// MaxUsers caps the number of distinct user ids the registry will ever
	// accept (0 = unbounded). Requests for users beyond the cap fail with
	// ErrTooManyUsers.
	MaxUsers int
	// HotSet bounds the resident learners across the fleet (default 256).
	// The bound is apportioned per shard (at least one each), so the true
	// ceiling is Shards*ceil(HotSet/Shards).
	HotSet int
	// Shards is the number of single-writer engine goroutines (default 4).
	Shards int
	// QueueDepth bounds each shard's request queue (default 256). A full
	// queue sheds with ErrQueueFull.
	QueueDepth int
	// WAL, when non-nil, is the fleet's durable observe log: every user's
	// observe batch is appended (tagged with the user id) before the learner
	// applies it. The log is the fleet's recovery story — a corrupt or
	// missing eviction checkpoint is rebuilt by deterministic reconstruction
	// (Config.New) plus a replay of the user's log records (DESIGN.md §18).
	// Appends from all shards interleave through the log's own lock; each
	// user's subsequence stays ordered because a user lives on one shard.
	WAL *replication.Log
	// LatentShape is the tensor shape replayed log latents are decoded into.
	// Required when WAL is set.
	LatentShape []int
	// Registry receives the fleet metrics (nil: the process default).
	Registry *obs.Registry
}

func (c Config) withDefaults() Config {
	if c.HotSet <= 0 {
		c.HotSet = 256
	}
	if c.Shards <= 0 {
		c.Shards = 4
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 256
	}
	if c.Registry == nil {
		c.Registry = obs.Default()
	}
	return c
}

// Stats is a point-in-time snapshot of the fleet, embedded in /v1/stats.
// The wire declaration lives in internal/api with the rest of the /v1
// surface; the alias keeps engine code reading fleet.Stats.
type Stats = api.FleetStats

// request is one unit of work routed to a shard. Exactly one of z (predict)
// or samples (observe) is set, except for a Sync barrier, which carries no
// user and no work.
type request struct {
	user    string
	z       *tensor.Tensor
	samples []cl.LatentSample
	domain  int
	resp    chan response // buffered (cap 1): the shard never blocks on it
}

type response struct {
	class   int // predict result
	batch   int // observe: per-user stream index assigned
	samples int // observe: user's cumulative sample count
	err     error
}

// entry is one resident learner plus its per-user stream position. Owned by
// exactly one shard goroutine; never shared.
type entry struct {
	user    string
	l       cl.Learner
	caps    cl.Capabilities
	batches int
	samples int
	elem    *list.Element // position in the shard's LRU list
}

// userState is the eviction-checkpoint payload: the learner's opaque
// snapshot plus the user's stream position, so a faulted-in learner keeps
// numbering its observe stream without a gap.
type userState struct {
	// Method guards against restoring a snapshot into a different learner
	// family; User guards against file-name collisions.
	Method  string
	User    string
	Batches int
	Samples int
	Learner []byte
}

// shard is one single-writer engine goroutine plus the state it owns.
type shard struct {
	f      *Fleet
	id     int
	q      chan *request
	done   chan struct{}
	budget int
	// drainErr is the first eviction failure seen while draining; written by
	// the shard goroutine before done closes, read after.
	drainErr error

	// Everything below is owned by the shard goroutine.
	resident map[string]*entry
	lru      *list.List // front = least recently used
	known    map[string]struct{}

	nResident atomic.Int64 // mirrored for scrape-time gauges
}

// Fleet is a registry of per-user learners behind consistent-hash shard
// routing and a bounded, evicting hot-set. Construct with New, stop with
// Shutdown.
type Fleet struct {
	cfg    Config
	ring   *hashRing
	shards []*shard
	m      *metrics

	// mu guards draining against request enqueues, exactly like the serve
	// package's drain guard: Enqueuers hold the read side across the
	// check-then-send window, Shutdown takes the write side first.
	mu       sync.RWMutex
	draining bool

	stopOnce sync.Once
	stopCh   chan struct{}

	usersKnown atomic.Int64
	batches    atomic.Int64
	samples    atomic.Int64
}

// New validates the config, creates the checkpoint directory, and starts the
// shard engines. The caller must eventually call Shutdown.
func New(cfg Config) (*Fleet, error) {
	cfg = cfg.withDefaults()
	if cfg.New == nil {
		return nil, errors.New("fleet: Config.New (learner factory) is required")
	}
	if cfg.Dir == "" {
		return nil, errors.New("fleet: Config.Dir (eviction checkpoint directory) is required")
	}
	if cfg.WAL != nil && len(cfg.LatentShape) == 0 {
		return nil, errors.New("fleet: Config.LatentShape is required with an observe log (log replay must shape latents)")
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("fleet: checkpoint dir: %w", err)
	}
	f := &Fleet{
		cfg:    cfg,
		ring:   newRing(cfg.Shards),
		shards: make([]*shard, cfg.Shards),
		m:      newMetrics(cfg.Registry),
		stopCh: make(chan struct{}),
	}
	// Apportion the hot-set: every shard gets at least one resident slot,
	// and the shares sum to >= HotSet so the configured bound is reachable.
	budget := (cfg.HotSet + cfg.Shards - 1) / cfg.Shards
	if budget < 1 {
		budget = 1
	}
	for i := range f.shards {
		f.shards[i] = &shard{
			f:        f,
			id:       i,
			q:        make(chan *request, cfg.QueueDepth),
			done:     make(chan struct{}),
			budget:   budget,
			resident: map[string]*entry{},
			lru:      list.New(),
			known:    map[string]struct{}{},
		}
		go f.shards[i].run()
	}
	f.m.bind(f)
	return f, nil
}

// validUser bounds user ids before they reach routing or the filesystem.
func validUser(user string) error {
	if user == "" {
		return errors.New("fleet: user id must be non-empty")
	}
	if len(user) > maxUserLen {
		return fmt.Errorf("fleet: user id longer than %d bytes", maxUserLen)
	}
	return nil
}

// userPath is the eviction-checkpoint file for a user. Hex encoding makes
// any id filesystem-safe; the User field inside the payload guards the
// (already impossible) collision case.
func (f *Fleet) userPath(user string) string {
	return filepath.Join(f.cfg.Dir, hex.EncodeToString([]byte(user))+".ckpt")
}

// enqueue routes r to its user's shard under the drain guard.
func (f *Fleet) enqueue(r *request) error {
	f.mu.RLock()
	defer f.mu.RUnlock()
	if f.draining {
		return ErrDraining
	}
	sh := f.shards[f.ring.lookup(r.user)]
	select {
	case sh.q <- r:
		return nil
	default:
		f.m.shed.Inc()
		return ErrQueueFull
	}
}

// Predict classifies one latent with the user's learner, faulting the
// learner in if it was evicted (or creating it on first contact). Blocks
// until the shard answers or ctx ends.
func (f *Fleet) Predict(ctx context.Context, user string, z *tensor.Tensor) (int, error) {
	if err := validUser(user); err != nil {
		return 0, err
	}
	f.m.predicts.Inc()
	r := &request{user: user, z: z, resp: make(chan response, 1)}
	if err := f.enqueue(r); err != nil {
		return 0, err
	}
	select {
	case resp := <-r.resp:
		return resp.class, resp.err
	case <-ctx.Done():
		return 0, ctx.Err()
	}
}

// Observe feeds one labelled mini-batch to the user's learner. It returns
// the per-user stream index assigned to the batch and the user's cumulative
// sample count — each user's stream is numbered independently, and the
// numbering survives eviction and restarts via the checkpoint files.
func (f *Fleet) Observe(ctx context.Context, user string, samples []cl.LatentSample, domain int) (batch, total int, err error) {
	if err := validUser(user); err != nil {
		return 0, 0, err
	}
	f.m.observes.Inc()
	r := &request{user: user, samples: samples, domain: domain, resp: make(chan response, 1)}
	if err := f.enqueue(r); err != nil {
		return 0, 0, err
	}
	select {
	case resp := <-r.resp:
		return resp.batch, resp.samples, resp.err
	case <-ctx.Done():
		return 0, 0, ctx.Err()
	}
}

// Sync is a barrier: it returns once every shard has finished each request
// enqueued before the call, including the eviction pass that runs after a
// request's response is sent. Eviction stays off the request path; Sync is
// how a caller waits for its side effects (checkpoint files, eviction
// counters). On a draining fleet it waits for the drain to finish. Returns
// ctx's error if the wait outruns it.
func (f *Fleet) Sync(ctx context.Context) error {
	f.mu.RLock()
	if f.draining {
		f.mu.RUnlock()
		for _, sh := range f.shards {
			select {
			case <-sh.done:
			case <-ctx.Done():
				return ctx.Err()
			}
		}
		return nil
	}
	barriers := make([]*request, len(f.shards))
	for i, sh := range f.shards {
		barriers[i] = &request{resp: make(chan response, 1)}
		select {
		case sh.q <- barriers[i]:
		case <-ctx.Done():
			f.mu.RUnlock()
			return ctx.Err()
		}
	}
	f.mu.RUnlock()
	for _, r := range barriers {
		select {
		case <-r.resp:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	return nil
}

// Stats snapshots the fleet counters.
func (f *Fleet) Stats() Stats {
	var resident int64
	for _, sh := range f.shards {
		resident += sh.nResident.Load()
	}
	return Stats{
		Shards:     f.cfg.Shards,
		HotSet:     f.cfg.HotSet,
		UsersKnown: f.usersKnown.Load(),
		Resident:   resident,
		Evictions:  f.m.evictions.Value(),
		FaultIns:   f.m.faultIns.Value(),
		Batches:    f.batches.Load(),
		Samples:    f.samples.Load(),
	}
}

// Shutdown drains the fleet: new requests are refused with ErrDraining,
// every shard finishes its queue, and all resident learners are demoted to
// their checkpoint files. Idempotent. Returns the first drain error (a
// learner whose eviction save failed) after all shards stop, or ctx's error
// if the drain outruns it.
func (f *Fleet) Shutdown(ctx context.Context) error {
	f.mu.Lock()
	f.draining = true
	f.mu.Unlock()
	f.stopOnce.Do(func() { close(f.stopCh) })
	for _, sh := range f.shards {
		select {
		case <-sh.done:
		case <-ctx.Done():
			return fmt.Errorf("fleet: drain interrupted: %w", ctx.Err())
		}
	}
	var errs []string
	for _, sh := range f.shards {
		if sh.drainErr != nil {
			errs = append(errs, sh.drainErr.Error())
		}
	}
	if len(errs) > 0 {
		return fmt.Errorf("fleet: drain: %s", strings.Join(errs, "; "))
	}
	return nil
}

// run is the shard's engine loop — the serve-package single-writer loop,
// one instance per shard: every learner this shard owns is only ever
// touched from here.
func (s *shard) run() {
	defer close(s.done)
	for {
		select {
		case <-s.f.stopCh:
			s.drain()
			return
		case r := <-s.q:
			s.handle(r)
		}
	}
}

// handle resolves the user's learner (fault-in or first-contact creation),
// applies the request, refreshes the LRU position, and evicts past-budget
// learners. A Sync barrier is answered at once: everything queued before it
// has already been handled, evictions included.
func (s *shard) handle(r *request) {
	if r.user == "" {
		r.resp <- response{}
		return
	}
	e, err := s.entryFor(r.user)
	if err != nil {
		r.resp <- response{err: err}
		return
	}
	s.lru.MoveToBack(e.elem) // back = most recently used
	if r.z != nil {
		class, err := s.safePredict(e, r.z)
		r.resp <- response{class: class, err: err}
	} else {
		resp := s.safeObserve(e, r)
		r.resp <- resp
	}
	s.evictOver()
}

// safePredict converts a learner panic into an error so one hostile request
// cannot take the shard down.
func (s *shard) safePredict(e *entry, z *tensor.Tensor) (class int, err error) {
	defer func() {
		if p := recover(); p != nil {
			s.f.m.panics.Inc()
			err = fmt.Errorf("fleet: predict for user %q panicked: %v", e.user, p)
		}
	}()
	return e.l.Predict(z), nil
}

// safeObserve applies one observe batch, assigning the user's next stream
// index, with learner panics converted to errors.
func (s *shard) safeObserve(e *entry, r *request) (resp response) {
	defer func() {
		if p := recover(); p != nil {
			s.f.m.panics.Inc()
			resp = response{err: fmt.Errorf("fleet: observe for user %q panicked: %v", e.user, p)}
		}
	}()
	idx := e.batches
	if s.f.cfg.WAL != nil {
		// Durability first: the user-tagged record hits the log before the
		// learner sees the batch, so the (checkpoint, log suffix) pair always
		// covers acknowledged observes.
		rec := &api.LogRecord{User: e.user, Batch: idx, Domain: r.domain, Samples: make([]api.LogSample, len(r.samples))}
		for i, sm := range r.samples {
			rec.Samples[i] = api.LogSample{Latent: sm.Z.Data(), Label: sm.Label}
		}
		if _, err := s.f.cfg.WAL.Append(rec); err != nil {
			return response{err: fmt.Errorf("fleet: observe log append for user %q: %w", e.user, err)}
		}
	}
	e.l.Observe(cl.LatentBatch{Samples: r.samples, Index: idx, Domain: r.domain})
	e.batches++
	e.samples += len(r.samples)
	s.f.batches.Add(1)
	s.f.samples.Add(int64(len(r.samples)))
	return response{batch: idx, samples: e.samples}
}

// entryFor returns the user's resident entry, faulting it in from its
// eviction checkpoint or creating it on first contact.
func (s *shard) entryFor(user string) (*entry, error) {
	if e, ok := s.resident[user]; ok {
		return e, nil
	}
	_, seen := s.known[user]
	if !seen {
		// First contact on this shard: admit against the fleet-wide cap.
		if max := s.f.cfg.MaxUsers; max > 0 {
			if n := s.f.usersKnown.Add(1); n > int64(max) {
				s.f.usersKnown.Add(-1)
				return nil, fmt.Errorf("%w (max %d)", ErrTooManyUsers, max)
			}
		} else {
			s.f.usersKnown.Add(1)
		}
		s.known[user] = struct{}{}
	}
	l, err := s.f.cfg.New(user)
	if err != nil {
		return nil, fmt.Errorf("fleet: construct learner for user %q: %w", user, err)
	}
	e := &entry{user: user, l: l, caps: cl.Caps(l)}
	if e.caps.Snapshotter == nil {
		return nil, fmt.Errorf("fleet: method %q does not support snapshotting; it cannot live in an evicting fleet", l.Name())
	}
	path := s.f.userPath(user)
	if _, statErr := os.Stat(path); statErr == nil {
		// The user was evicted (or drained by a previous process): restore.
		t0 := time.Now()
		var st userState
		loadErr := checkpoint.Load(path, userKind, &st)
		if loadErr == nil {
			if st.User != user {
				return nil, fmt.Errorf("fleet: checkpoint %s holds user %q, want %q", path, st.User, user)
			}
			if st.Method != l.Name() {
				return nil, fmt.Errorf("fleet: checkpoint %s holds method %q, learner is %q", path, st.Method, l.Name())
			}
			loadErr = e.caps.Snapshotter.Restore(st.Learner)
		}
		switch {
		case loadErr == nil:
			e.batches, e.samples = st.Batches, st.Samples
		case s.f.cfg.WAL != nil:
			// Corrupt checkpoint. The observe log is the durable truth: fall
			// back to deterministic reconstruction plus a replay of every one
			// of the user's logged batches (the log-replay pass below starts
			// from batch 0). A failed Restore may have half-written the
			// learner, so build a clean one.
			l, err = s.f.cfg.New(user)
			if err != nil {
				return nil, fmt.Errorf("fleet: reconstruct learner for user %q: %w", user, err)
			}
			e.l, e.caps = l, cl.Caps(l)
			e.batches, e.samples = 0, 0
			s.f.m.logRebuilds.Inc()
		default:
			return nil, fmt.Errorf("fleet: fault-in user %q: %w", user, loadErr)
		}
		s.f.m.faultIns.Inc()
		s.f.m.faultInSeconds.ObserveSince(t0)
	}
	if s.f.cfg.WAL != nil {
		// Replay any of the user's logged batches past the checkpoint: a
		// crash before eviction leaves them only in the log, and a corrupt
		// checkpoint (handled above) replays the whole stream from zero.
		if err := s.replayUser(e); err != nil {
			return nil, err
		}
	}
	e.elem = s.lru.PushBack(e)
	s.resident[user] = e
	s.nResident.Store(int64(len(s.resident)))
	return e, nil
}

// replayUser applies every logged batch of e's user with index >= e.batches,
// in log order. Per-user batch indices are contiguous from zero, so a replay
// resuming at a checkpoint's position must find the next index or nothing —
// a gap means the log does not cover this user's stream and the fault-in
// fails rather than silently skipping observes.
func (s *shard) replayUser(e *entry) error {
	want := 1
	for _, d := range s.f.cfg.LatentShape {
		want *= d
	}
	replayed := 0
	var applyErr error
	err := s.f.cfg.WAL.Scan(s.f.cfg.WAL.Start(), func(rec *api.LogRecord) bool {
		if rec.User != e.user || rec.Batch < e.batches {
			return true
		}
		if rec.Batch != e.batches {
			applyErr = fmt.Errorf("fleet: observe log gap for user %q: at batch %d, next logged batch is %d (seq %d)",
				e.user, e.batches, rec.Batch, rec.Seq)
			return false
		}
		samples := make([]cl.LatentSample, len(rec.Samples))
		for i, sm := range rec.Samples {
			if len(sm.Latent) != want {
				applyErr = fmt.Errorf("fleet: log seq %d sample %d has %d elements, want %d", rec.Seq, i, len(sm.Latent), want)
				return false
			}
			samples[i] = cl.LatentSample{Z: tensor.FromSlice(sm.Latent, s.f.cfg.LatentShape...), Label: sm.Label, Domain: rec.Domain}
		}
		e.l.Observe(cl.LatentBatch{Samples: samples, Index: rec.Batch, Domain: rec.Domain})
		e.batches++
		e.samples += len(samples)
		replayed++
		return true
	})
	if err == nil {
		err = applyErr
	}
	if err != nil {
		return err
	}
	s.f.m.logReplayed.Add(int64(replayed))
	return nil
}

// evictOver demotes least-recently-used learners until the shard is within
// budget. A failed save keeps the learner resident (state is never dropped
// on the floor) and surfaces on the error counter; the next request retries.
func (s *shard) evictOver() {
	for len(s.resident) > s.budget {
		front := s.lru.Front()
		if front == nil {
			return
		}
		e := front.Value.(*entry)
		if err := s.evict(e); err != nil {
			s.f.m.evictionErrors.Inc()
			// Re-arm: move the failing entry to MRU so the loop does not
			// spin on it, and stop trying this round.
			s.lru.MoveToBack(front)
			return
		}
	}
}

// evict snapshots one learner to its checkpoint file and drops it from the
// hot-set.
func (s *shard) evict(e *entry) error {
	t0 := time.Now()
	state, err := e.caps.Snapshotter.Snapshot()
	if err != nil {
		return fmt.Errorf("fleet: snapshot user %q: %w", e.user, err)
	}
	st := userState{Method: e.l.Name(), User: e.user, Batches: e.batches, Samples: e.samples, Learner: state}
	if err := checkpoint.Save(s.f.userPath(e.user), userKind, st); err != nil {
		return fmt.Errorf("fleet: evict user %q: %w", e.user, err)
	}
	s.lru.Remove(e.elem)
	delete(s.resident, e.user)
	s.nResident.Store(int64(len(s.resident)))
	s.f.m.evictions.Inc()
	s.f.m.evictionSeconds.ObserveSince(t0)
	return nil
}

// drain finishes the queue (no enqueuer can add more: Shutdown flips the
// drain flag under the write lock before stopCh closes), then demotes every
// resident learner to disk so a restarted fleet resumes each user
// bit-identically.
func (s *shard) drain() {
	for {
		select {
		case r := <-s.q:
			s.handle(r)
		default:
			for s.lru.Front() != nil {
				e := s.lru.Front().Value.(*entry)
				if err := s.evict(e); err != nil {
					s.f.m.evictionErrors.Inc()
					if s.drainErr == nil {
						s.drainErr = err
					}
					// Unpersistable state: drop it rather than loop forever;
					// the error reaches the caller through Shutdown.
					s.lru.Remove(e.elem)
					delete(s.resident, e.user)
					s.nResident.Store(int64(len(s.resident)))
				}
			}
			return
		}
	}
}
