package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"chameleon/internal/api"
	"chameleon/internal/cl"
	"chameleon/internal/core"
	"chameleon/internal/mobilenet"
	"chameleon/internal/obs"
	"chameleon/internal/replication"
)

// --- replication test rig ---------------------------------------------------

// chameleonFactory returns a NewLearner closure that builds backbone+learner
// pairs bit-identical to chameleonAt(t, classes, seed) — the factory the
// verify endpoint and the standby rig use.
func chameleonFactory(classes int, seed int64) func() (cl.Learner, error) {
	return func() (cl.Learner, error) {
		model, err := mobilenet.New(mobilenet.DefaultConfig(classes, seed))
		if err != nil {
			return nil, err
		}
		head := cl.NewHead(model, cl.HeadConfig{LR: 0.01, Seed: seed})
		return core.New(head, core.Config{
			STCap: 5, LTCap: 20, AccessRate: 2, PromoteEvery: 2, LTSampleSize: 5, Seed: seed,
		}), nil
	}
}

// replServer builds a server with an observe log in dir. standby==true makes
// it a warm standby (503 not_ready until promoted).
func replServer(t *testing.T, dir string, classes int, seed int64, standby bool) (*Server, cl.Learner, *replication.Log) {
	t.Helper()
	model, l := chameleonAt(t, classes, seed)
	wlog, err := replication.Open(dir, replication.Options{Registry: obs.NewRegistry()})
	if err != nil {
		t.Fatalf("wal open: %v", err)
	}
	t.Cleanup(func() { _ = wlog.Close() })
	cfg := Config{
		LatentShape:     model.LatentShape,
		Classes:         classes,
		Registry:        obs.NewRegistry(),
		WAL:             wlog,
		Standby:         standby,
		CheckpointEvery: 4, // frequent snapshot refresh: bootstraps replay short suffixes
		NewLearner:      chameleonFactory(classes, seed),
		SnapshotsEqual:  core.SnapshotsEqual,
		HandoffTimeout:  2 * time.Second,
	}
	s, err := New(l, cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(func() { _ = s.Close() })
	return s, l, wlog
}

// engineSnapshot captures the learner through the engine goroutine, so the
// bytes are a consistent observe-stream point.
func engineSnapshot(t *testing.T, s *Server) []byte {
	t.Helper()
	var b []byte
	var serr error
	if err := s.onEngine(context.Background(), func() {
		b, serr = s.caps.Snapshotter.Snapshot()
	}); err != nil {
		t.Fatalf("onEngine: %v", err)
	}
	if serr != nil {
		t.Fatalf("snapshot: %v", serr)
	}
	return b
}

func requireSnapshotsEqual(t *testing.T, a, b []byte, context string) {
	t.Helper()
	eq, err := core.SnapshotsEqual(a, b)
	if err != nil {
		t.Fatalf("%s: %v", context, err)
	}
	if !eq {
		t.Fatalf("%s: learner state diverged", context)
	}
}

// errCode decodes the machine-readable error envelope of a non-200 response.
func errCode(t *testing.T, body []byte) string {
	t.Helper()
	var e api.Error
	if err := json.Unmarshal(body, &e); err != nil {
		t.Fatalf("error envelope: %v (%q)", err, body)
	}
	return e.Code
}

// --- log replay bit-identity ------------------------------------------------

// TestLogReplayBitIdentity is the durability contract: with predict load on
// the wire (1 worker, then 8), the observe log alone must rebuild exactly the
// state a never-crashed serial control reaches, and exactly the state the
// live server holds. Run under -race this also proves the log sits correctly
// inside the single-writer discipline.
func TestLogReplayBitIdentity(t *testing.T) {
	const (
		classes  = 4
		seed     = 21
		nBatches = 16
	)
	for _, workers := range []int{1, 8} {
		t.Run(fmt.Sprintf("workers%d", workers), func(t *testing.T) {
			s, _, wlog := replServer(t, t.TempDir(), classes, seed, false)
			url := serveURL(t, s)
			client := &http.Client{Timeout: 10 * time.Second}
			latentLen := 1
			for _, d := range s.cfg.LatentShape {
				latentLen *= d
			}

			stop := make(chan struct{})
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(int64(w) + 100))
					for {
						select {
						case <-stop:
							return
						default:
						}
						body := predictBody(rng, latentLen, "", false)
						_, _, _ = post(client, url+"/v1/predict", body)
					}
				}(w)
			}

			rng := rand.New(rand.NewSource(7))
			batches := makeWireBatches(rng, nBatches, 5, latentLen, classes)
			for i, wb := range batches {
				or, status := httpObserve(t, client, url, wb)
				if status != http.StatusOK {
					t.Fatalf("observe %d: HTTP %d", i, status)
				}
				if or.Batch != i {
					t.Fatalf("observe %d assigned batch %d", i, or.Batch)
				}
			}
			close(stop)
			wg.Wait()

			// Serial control: the same stream applied directly.
			_, control := chameleonAt(t, classes, seed)
			for i, wb := range batches {
				control.Observe(wb.latentBatch(i, s.cfg.LatentShape))
			}

			// Reconstruction: fresh learner + full log replay.
			fresh, err := chameleonFactory(classes, seed)()
			if err != nil {
				t.Fatalf("fresh learner: %v", err)
			}
			nb, ns, err := ReplayLog(fresh, wlog, 0, 0, s.cfg.LatentShape)
			if err != nil {
				t.Fatalf("ReplayLog: %v", err)
			}
			if nb != nBatches || ns != nBatches*5 {
				t.Fatalf("replayed %d batches / %d samples, want %d / %d", nb, ns, nBatches, nBatches*5)
			}
			requireSameState(t, fresh, control, "log replay vs serial control")

			// And the live server agrees with both.
			live := engineSnapshot(t, s)
			requireSnapshotsEqual(t, live, snapshotOf(t, fresh), "live server vs log replay")
		})
	}
}

// TestVerifyEndpoint exercises GET /v1/replication/verify: the server rebuilds
// itself from (base snapshot, log suffix) and must find the reconstruction
// bit-identical to the live learner.
func TestVerifyEndpoint(t *testing.T) {
	const classes = 4
	s, _, _ := replServer(t, t.TempDir(), classes, 23, false)
	latentLen := 1
	for _, d := range s.cfg.LatentShape {
		latentLen *= d
	}
	rng := rand.New(rand.NewSource(3))
	batches := makeWireBatches(rng, 10, 4, latentLen, classes)
	for i, wb := range batches {
		if w := postJSON(t, s, "/v1/observe", wb.observeRequest()); w.Code != http.StatusOK {
			t.Fatalf("observe %d: HTTP %d", i, w.Code)
		}
	}
	w := getPath(t, s, "/v1/replication/verify")
	if w.Code != http.StatusOK {
		t.Fatalf("verify: HTTP %d: %s", w.Code, w.Body.String())
	}
	var vr api.VerifyResponse
	if err := json.Unmarshal(w.Body.Bytes(), &vr); err != nil {
		t.Fatalf("verify decode: %v", err)
	}
	if !vr.Equal {
		t.Fatalf("verify: reconstruction diverged from live state: %+v", vr)
	}
	if vr.Batches != 10 || vr.Cursor != 10 {
		t.Fatalf("verify bookkeeping: %+v", vr)
	}
	// The reconstruction root is the startup snapshot (base anchors the log's
	// start; only replSnap refreshes), so the whole 10-batch log replays.
	if vr.Replayed != 10 {
		t.Fatalf("verify replayed %d batches, want 10 (from the base snapshot)", vr.Replayed)
	}
}

// --- standby gating and error codes ----------------------------------------

func TestStandbyGatesTrafficUntilPromoted(t *testing.T) {
	s, _, _ := replServer(t, t.TempDir(), 4, 25, true)
	latentLen := 1
	for _, d := range s.cfg.LatentShape {
		latentLen *= d
	}

	w := postJSON(t, s, "/v1/predict", PredictRequest{Latent: latent(latentLen)})
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("standby predict: HTTP %d, want 503", w.Code)
	}
	if c := errCode(t, w.Body.Bytes()); c != api.CodeNotReady {
		t.Fatalf("standby predict code %q, want %q", c, api.CodeNotReady)
	}
	if w.Header().Get("Retry-After") == "" {
		t.Fatal("standby 503 carries no Retry-After")
	}
	if w := postJSON(t, s, "/v1/observe", ObserveRequest{Samples: []ObserveSample{{Latent: latent(latentLen)}}}); w.Code != http.StatusServiceUnavailable {
		t.Fatalf("standby observe: HTTP %d, want 503", w.Code)
	}

	var st Stats
	if w := getPath(t, s, "/v1/stats"); true {
		if err := json.Unmarshal(w.Body.Bytes(), &st); err != nil {
			t.Fatalf("stats: %v", err)
		}
	}
	if st.Role != api.RoleStandby {
		t.Fatalf("stats role %q, want %q", st.Role, api.RoleStandby)
	}

	if err := s.Promote(); err != nil {
		t.Fatalf("Promote: %v", err)
	}
	if w := postJSON(t, s, "/v1/predict", PredictRequest{Latent: latent(latentLen)}); w.Code != http.StatusOK {
		t.Fatalf("promoted predict: HTTP %d: %s", w.Code, w.Body.String())
	}
	if w := getPath(t, s, "/v1/stats"); true {
		var st2 Stats
		_ = json.Unmarshal(w.Body.Bytes(), &st2)
		if st2.Role != api.RolePrimary {
			t.Fatalf("promoted role %q, want %q", st2.Role, api.RolePrimary)
		}
	}
}

// TestErrorCodes pins the machine-readable error contract clients retry on:
// every shed and refusal carries a stable code, and every 429/503 carries
// Retry-After.
func TestErrorCodes(t *testing.T) {
	t.Run("bad_request", func(t *testing.T) {
		s, _ := newStubServer(t, stubConfig())
		w := postJSON(t, s, "/v1/predict", PredictRequest{Latent: latent(1)})
		if w.Code != http.StatusBadRequest {
			t.Fatalf("HTTP %d, want 400", w.Code)
		}
		if c := errCode(t, w.Body.Bytes()); c != api.CodeBadRequest {
			t.Fatalf("code %q, want %q", c, api.CodeBadRequest)
		}
	})
	t.Run("draining", func(t *testing.T) {
		s, _ := newStubServer(t, stubConfig())
		if err := s.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
		w := postJSON(t, s, "/v1/predict", PredictRequest{Latent: latent(4)})
		if w.Code != http.StatusServiceUnavailable {
			t.Fatalf("HTTP %d, want 503", w.Code)
		}
		if c := errCode(t, w.Body.Bytes()); c != api.CodeDraining {
			t.Fatalf("code %q, want %q", c, api.CodeDraining)
		}
		if w.Header().Get("Retry-After") == "" {
			t.Fatal("draining 503 carries no Retry-After")
		}
	})
	t.Run("queue_full", func(t *testing.T) {
		cfg := stubConfig()
		cfg.QueueDepth = 1
		cfg.BatchWindow = -1 // no coalescing wait: the engine grabs one and blocks
		l := &stubLearner{gate: make(chan struct{}), predictStarted: make(chan struct{})}
		s, err := New(l, cfg)
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		t.Cleanup(func() { _ = s.Close() })
		// One predict occupies the engine (blocked in the stub), one fills the
		// depth-1 queue, the third sheds. The second is sent only once the
		// engine holds the first: sent together, it can find the first still
		// queued and be shed itself.
		body, _ := json.Marshal(PredictRequest{Latent: latent(4)})
		send := func() {
			req := httptest.NewRequest(http.MethodPost, "/v1/predict", bytes.NewReader(body))
			s.Handler().ServeHTTP(httptest.NewRecorder(), req)
		}
		go send()
		<-l.predictStarted
		go send()
		waitFor(t, func() bool { return len(s.predictQ) == 1 })
		w := postJSON(t, s, "/v1/predict", PredictRequest{Latent: latent(4)})
		close(l.gate)
		if w.Code != http.StatusTooManyRequests {
			t.Fatalf("HTTP %d, want 429", w.Code)
		}
		if c := errCode(t, w.Body.Bytes()); c != api.CodeQueueFull {
			t.Fatalf("code %q, want %q", c, api.CodeQueueFull)
		}
		if w.Header().Get("Retry-After") == "" {
			t.Fatal("429 carries no Retry-After")
		}
	})
}

// --- warm standby sync, handoff, failover ----------------------------------

// standbyRig wires a primary (listening on a real socket) to a warm standby
// tailing it through a Follower.
type standbyRig struct {
	primary  *Server
	pLog     *replication.Log
	pURL     string
	standby  *Server
	sLog     *replication.Log
	follower *replication.Follower
	folDone  chan error
	cancel   context.CancelFunc
	client   *http.Client
	latLen   int
	batches  []wireBatch
}

func newStandbyRig(t *testing.T, classes int, seed int64, folCfg replication.FollowerConfig) *standbyRig {
	t.Helper()
	r := &standbyRig{client: &http.Client{Timeout: 10 * time.Second}}
	r.primary, _, r.pLog = replServer(t, t.TempDir(), classes, seed, false)
	r.pURL = serveURL(t, r.primary)
	r.standby, _, r.sLog = replServer(t, t.TempDir(), classes, seed, true)

	folCfg.PrimaryURL = r.pURL
	folCfg.Target = r.standby
	folCfg.Registry = obs.NewRegistry()
	if folCfg.PollInterval == 0 {
		folCfg.PollInterval = 5 * time.Millisecond
	}
	fol, err := replication.NewFollower(folCfg)
	if err != nil {
		t.Fatalf("NewFollower: %v", err)
	}
	r.follower = fol
	ctx, cancel := context.WithCancel(context.Background())
	r.cancel = cancel
	t.Cleanup(cancel)
	r.folDone = make(chan error, 1)
	go func() { r.folDone <- fol.Run(ctx) }()

	r.latLen = 1
	for _, d := range r.primary.cfg.LatentShape {
		r.latLen *= d
	}
	rng := rand.New(rand.NewSource(seed))
	r.batches = makeWireBatches(rng, 64, 4, r.latLen, classes)
	return r
}

// feedPrimary posts stream batches [from, to) to the primary over HTTP.
func (r *standbyRig) feedPrimary(t *testing.T, from, to int) {
	t.Helper()
	for i := from; i < to; i++ {
		or, status := httpObserve(t, r.client, r.pURL, r.batches[i])
		if status != http.StatusOK {
			t.Fatalf("observe %d: HTTP %d", i, status)
		}
		if or.Batch != i {
			t.Fatalf("observe %d assigned batch %d", i, or.Batch)
		}
	}
}

// awaitSync blocks until the standby has applied the primary's whole log.
func (r *standbyRig) awaitSync(t *testing.T, end uint64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for r.standby.LogEnd() < end {
		if time.Now().After(deadline) {
			t.Fatalf("standby stuck at seq %d, want %d", r.standby.LogEnd(), end)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// requireBitIdentical compares primary and standby learner state at a sync
// point (both engines quiescent for new observes).
func (r *standbyRig) requireBitIdentical(t *testing.T, context string) {
	t.Helper()
	requireSnapshotsEqual(t, engineSnapshot(t, r.primary), engineSnapshot(t, r.standby), context)
}

// TestStandbySyncsBitIdenticalAndHandsOff is the tentpole path: a standby
// bootstraps from a snapshot, tails the log staying bit-identical at every
// sync point, and on the primary's graceful drain finishes the log, promotes
// and serves — with the observe stream continuing at the exact batch index
// the primary stopped at.
func TestStandbySyncsBitIdenticalAndHandsOff(t *testing.T) {
	const classes = 4
	rig := newStandbyRig(t, classes, 31, replication.FollowerConfig{FailoverAfter: -1})

	rig.feedPrimary(t, 0, 12)
	rig.awaitSync(t, 12)
	rig.requireBitIdentical(t, "sync point at batch 12")

	rig.feedPrimary(t, 12, 20)
	rig.awaitSync(t, 20)
	rig.requireBitIdentical(t, "sync point at batch 20")

	// Graceful handoff: drain the primary; the standby must finish the log,
	// promote and take the stream over with nothing lost.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := rig.primary.Shutdown(ctx); err != nil {
		t.Fatalf("primary shutdown: %v", err)
	}
	select {
	case err := <-rig.folDone:
		if err != nil {
			t.Fatalf("follower: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("follower did not promote after primary drain")
	}
	if !rig.standby.Ready() {
		t.Fatal("standby not ready after promotion")
	}
	if got := rig.standby.Batches(); got != 20 {
		t.Fatalf("standby took over at batch %d, want 20 (zero loss)", got)
	}
	// The promoted server continues the stream where the primary stopped.
	w := postJSON(t, rig.standby, "/v1/observe", rig.batches[20].observeRequest())
	if w.Code != http.StatusOK {
		t.Fatalf("post-handoff observe: HTTP %d: %s", w.Code, w.Body.String())
	}
	var or ObserveResponse
	_ = json.Unmarshal(w.Body.Bytes(), &or)
	if or.Batch != 20 {
		t.Fatalf("post-handoff observe assigned batch %d, want 20", or.Batch)
	}
	// And its own (snapshot, log) still reconstructs its state.
	wv := getPath(t, rig.standby, "/v1/replication/verify")
	if wv.Code != http.StatusOK {
		t.Fatalf("survivor verify: HTTP %d: %s", wv.Code, wv.Body.String())
	}
	var vr api.VerifyResponse
	_ = json.Unmarshal(wv.Body.Bytes(), &vr)
	if !vr.Equal {
		t.Fatalf("survivor verify diverged: %+v", vr)
	}
}

// TestStandbyKillAndResumeMidSync kills the standby partway through a sync
// and starts a replacement against the same primary: the new standby must
// re-bootstrap and converge to bit-identical state.
func TestStandbyKillAndResumeMidSync(t *testing.T) {
	const classes = 4
	rig := newStandbyRig(t, classes, 41, replication.FollowerConfig{FailoverAfter: -1})

	rig.feedPrimary(t, 0, 10)
	// Kill mid-sync: stop the follower as soon as it has applied anything.
	waitFor(t, func() bool { return rig.standby.LogEnd() > 0 })
	rig.cancel()
	<-rig.folDone
	if err := rig.standby.Close(); err != nil {
		t.Fatalf("standby close: %v", err)
	}
	if err := rig.sLog.Close(); err != nil {
		t.Fatalf("standby log close: %v", err)
	}

	// Resume: a fresh standby process over the SAME log directory (its stale
	// records are reset by the bootstrap) tails the same primary.
	dir := rig.sLog.Dir()
	wlog2, err := replication.Open(dir, replication.Options{Registry: obs.NewRegistry()})
	if err != nil {
		t.Fatalf("reopen standby log: %v", err)
	}
	t.Cleanup(func() { _ = wlog2.Close() })
	model, l := chameleonAt(t, classes, 41)
	s2, err := New(l, Config{
		LatentShape:     model.LatentShape,
		Classes:         classes,
		Registry:        obs.NewRegistry(),
		WAL:             wlog2,
		Standby:         true,
		CheckpointEvery: 4,
		NewLearner:      chameleonFactory(classes, 41),
		SnapshotsEqual:  core.SnapshotsEqual,
	})
	if err != nil {
		t.Fatalf("standby2: %v", err)
	}
	t.Cleanup(func() { _ = s2.Close() })
	fol2, err := replication.NewFollower(replication.FollowerConfig{
		PrimaryURL:    rig.pURL,
		Target:        s2,
		PollInterval:  5 * time.Millisecond,
		FailoverAfter: -1,
		Registry:      obs.NewRegistry(),
	})
	if err != nil {
		t.Fatalf("follower2: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	done2 := make(chan error, 1)
	go func() { done2 <- fol2.Run(ctx) }()

	rig.feedPrimary(t, 10, 16)
	deadline := time.Now().Add(10 * time.Second)
	for s2.LogEnd() < 16 {
		if time.Now().After(deadline) {
			t.Fatalf("resumed standby stuck at seq %d, want 16", s2.LogEnd())
		}
		time.Sleep(2 * time.Millisecond)
	}
	requireSnapshotsEqual(t, engineSnapshot(t, rig.primary), engineSnapshot(t, s2), "resumed standby at batch 16")
}

// TestProbeFailoverRecoversDiskTail hard-kills the primary's HTTP frontend
// (the SIGKILL shape: no drain, no Final) with acknowledged observes the
// standby never streamed. Probe failover must replay those records from the
// dead primary's on-disk log before promoting, so even a SIGKILL loses no
// acknowledged observe.
func TestProbeFailoverRecoversDiskTail(t *testing.T) {
	const classes = 4
	rig := newStandbyRig(t, classes, 51, replication.FollowerConfig{
		FailoverAfter: 2,
	})
	// The follower needs the primary's log directory for tail recovery; the
	// rig built it, so rebuild the follower with the dir wired in. Its pulls
	// go through a gate the test can hold, so the tail observes below land
	// before the follower may see a failed pull.
	rig.cancel()
	<-rig.folDone
	gate := &holdTransport{}
	fol, err := replication.NewFollower(replication.FollowerConfig{
		PrimaryURL:    rig.pURL,
		Target:        rig.standby,
		Client:        &http.Client{Transport: gate, Timeout: 5 * time.Second},
		PollInterval:  5 * time.Millisecond,
		FailoverAfter: 2,
		PrimaryWALDir: rig.pLog.Dir(),
		Registry:      obs.NewRegistry(),
	})
	if err != nil {
		t.Fatalf("follower: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	done := make(chan error, 1)
	go func() { done <- fol.Run(ctx) }()

	rig.feedPrimary(t, 0, 10)
	rig.awaitSync(t, 10)

	// Hold the follower's pulls, hard-kill the primary's HTTP frontend, then
	// land 4 more observes through its still-running engine (driving the
	// handler directly, the way in-flight requests would have landed around
	// a SIGKILL): they are durably logged but never streamed. Only once all
	// four are acknowledged may the follower probe the dead primary.
	gate.hold()
	if err := rig.primary.hsrv.Close(); err != nil {
		t.Fatalf("kill primary listener: %v", err)
	}
	for i := 10; i < 14; i++ {
		w := postJSON(t, rig.primary, "/v1/observe", rig.batches[i].observeRequest())
		if w.Code != http.StatusOK {
			t.Fatalf("direct observe %d: HTTP %d", i, w.Code)
		}
	}
	gate.release()

	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("follower: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("follower never failed over")
	}
	if !rig.standby.Ready() {
		t.Fatal("standby not promoted after probe failover")
	}
	if got := rig.standby.Batches(); got != 14 {
		t.Fatalf("standby promoted at batch %d, want 14 (disk tail lost)", got)
	}
	requireSnapshotsEqual(t, engineSnapshot(t, rig.primary), engineSnapshot(t, rig.standby), "survivor vs dead primary at batch 14")
}

// holdTransport is an HTTP transport whose requests can be held: hold waits
// for in-flight requests to finish and blocks new ones until release.
type holdTransport struct {
	mu   sync.RWMutex
	base http.Transport
}

func (h *holdTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	h.mu.RLock()
	defer h.mu.RUnlock()
	return h.base.RoundTrip(r)
}

func (h *holdTransport) hold()    { h.mu.Lock() }
func (h *holdTransport) release() { h.mu.Unlock() }

// TestRollingRestartZeroFailedRequests is the end-to-end client contract: a
// loadgen run with -failover across a graceful primary restart must finish
// with zero failed requests — retryable refusals and the handoff window are
// absorbed by retries, never surfaced as errors.
func TestRollingRestartZeroFailedRequests(t *testing.T) {
	const classes = 4
	rig := newStandbyRig(t, classes, 61, replication.FollowerConfig{FailoverAfter: -1})
	sURL := serveURL(t, rig.standby)

	repCh := make(chan LoadReport, 1)
	errCh := make(chan error, 1)
	go func() {
		rep, err := RunLoad(rig.pURL, LoadOptions{
			Clients:        4,
			Duration:       3 * time.Second,
			ObserveBatches: 30,
			Failover:       sURL,
			Seed:           61,
		})
		repCh <- rep
		errCh <- err
	}()

	// Mid-run, gracefully restart the primary out from under the load.
	time.Sleep(500 * time.Millisecond)
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if err := rig.primary.Shutdown(ctx); err != nil {
		t.Fatalf("primary shutdown: %v", err)
	}

	rep := <-repCh
	if err := <-errCh; err != nil {
		t.Fatalf("RunLoad: %v", err)
	}
	if rep.Errors != 0 {
		t.Fatalf("rolling restart failed %d requests:\n%s", rep.Errors, rep)
	}
	if rep.Requests == 0 {
		t.Fatal("loadgen completed no requests")
	}
	if rep.Failovers == 0 {
		t.Fatalf("loadgen never flipped to the standby:\n%s", rep)
	}
	waitFor(t, func() bool { return rig.standby.Ready() })
	// The survivor's (snapshot, log) must still reconstruct its live state.
	w := getPath(t, rig.standby, "/v1/replication/verify")
	if w.Code != http.StatusOK {
		t.Fatalf("survivor verify: HTTP %d: %s", w.Code, w.Body.String())
	}
	var vr api.VerifyResponse
	_ = json.Unmarshal(w.Body.Bytes(), &vr)
	if !vr.Equal {
		t.Fatalf("survivor verify diverged: %+v", vr)
	}
}

// TestStatsReplicationSection pins the role/replication surface of /v1/stats.
func TestStatsReplicationSection(t *testing.T) {
	s, _, _ := replServer(t, t.TempDir(), 4, 71, false)
	latentLen := 1
	for _, d := range s.cfg.LatentShape {
		latentLen *= d
	}
	rng := rand.New(rand.NewSource(5))
	for i, wb := range makeWireBatches(rng, 3, 2, latentLen, 4) {
		if w := postJSON(t, s, "/v1/observe", wb.observeRequest()); w.Code != http.StatusOK {
			t.Fatalf("observe %d: HTTP %d", i, w.Code)
		}
	}
	var st Stats
	w := getPath(t, s, "/v1/stats")
	if err := json.Unmarshal(w.Body.Bytes(), &st); err != nil {
		t.Fatalf("stats: %v", err)
	}
	if st.Role != api.RolePrimary {
		t.Fatalf("role %q, want primary", st.Role)
	}
	if st.Replication == nil || st.Replication.Cursor != 3 {
		t.Fatalf("replication section: %+v", st.Replication)
	}
}
