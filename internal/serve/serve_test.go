package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"chameleon/internal/cl"
	"chameleon/internal/core"
	"chameleon/internal/mobilenet"
	"chameleon/internal/obs"
	"chameleon/internal/tensor"
)

// stubLearner is a controllable fake: Predict can be gated (to hold the
// engine mid-batch while tests fill queues) or made to panic; Observe records
// every batch it is fed. The engine calls it from one goroutine only, but
// tests read observed concurrently, hence the mutex.
type stubLearner struct {
	mu             sync.Mutex
	observed       []cl.LatentBatch
	gate           chan struct{} // non-nil: Predict blocks until it closes
	predictStarted chan struct{} // non-nil: signalled once when Predict first blocks
	startedOnce    sync.Once
	panicPredict   atomic.Bool
	panicObserve   atomic.Bool
}

func (s *stubLearner) Name() string { return "stub" }

func (s *stubLearner) Observe(b cl.LatentBatch) {
	if s.panicObserve.Load() {
		panic("stub observe panic")
	}
	s.mu.Lock()
	s.observed = append(s.observed, b)
	s.mu.Unlock()
}

func (s *stubLearner) Predict(z *tensor.Tensor) int {
	if s.panicPredict.Load() {
		panic("stub predict panic")
	}
	if s.gate != nil {
		if s.predictStarted != nil {
			s.startedOnce.Do(func() { close(s.predictStarted) })
		}
		<-s.gate
	}
	return 0
}

func (s *stubLearner) batches() []cl.LatentBatch {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]cl.LatentBatch(nil), s.observed...)
}

// stubShape is the latent shape every stub-learner test serves.
var stubShape = []int{2, 2}

func stubConfig() Config {
	return Config{LatentShape: stubShape, Classes: 3, Registry: obs.NewRegistry()}
}

func newStubServer(t *testing.T, cfg Config) (*Server, *stubLearner) {
	t.Helper()
	l := &stubLearner{}
	s, err := New(l, cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(func() { _ = s.Close() })
	return s, l
}

// postJSON drives the handler directly (no listener) and returns the
// recorded response.
func postJSON(t *testing.T, s *Server, path string, v any) *httptest.ResponseRecorder {
	t.Helper()
	body, err := json.Marshal(v)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, req)
	return w
}

func getPath(t *testing.T, s *Server, path string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, path, nil)
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, req)
	return w
}

func latent(n int) []float32 { return make([]float32, n) }

func TestPredictObserveStatsRoundTrip(t *testing.T) {
	s, l := newStubServer(t, stubConfig())

	w := postJSON(t, s, "/v1/predict", PredictRequest{Latent: latent(4)})
	if w.Code != http.StatusOK {
		t.Fatalf("predict: HTTP %d: %s", w.Code, w.Body)
	}
	var pr PredictResponse
	if err := json.Unmarshal(w.Body.Bytes(), &pr); err != nil {
		t.Fatalf("predict response: %v", err)
	}
	if pr.Class != 0 {
		t.Fatalf("predict class = %d, want 0", pr.Class)
	}

	for i := 0; i < 3; i++ {
		w = postJSON(t, s, "/v1/observe", ObserveRequest{
			Samples: []ObserveSample{{Latent: latent(4), Label: 1}, {Latent: latent(4), Label: 2}},
			Domain:  7,
		})
		if w.Code != http.StatusOK {
			t.Fatalf("observe %d: HTTP %d: %s", i, w.Code, w.Body)
		}
		var or ObserveResponse
		if err := json.Unmarshal(w.Body.Bytes(), &or); err != nil {
			t.Fatalf("observe response: %v", err)
		}
		if or.Batch != i {
			t.Fatalf("observe %d assigned batch %d", i, or.Batch)
		}
		if or.SamplesTotal != 2*(i+1) {
			t.Fatalf("observe %d samples_total = %d, want %d", i, or.SamplesTotal, 2*(i+1))
		}
	}
	got := l.batches()
	if len(got) != 3 {
		t.Fatalf("learner observed %d batches, want 3", len(got))
	}
	for i, b := range got {
		if b.Index != i || b.Domain != 7 || len(b.Samples) != 2 {
			t.Fatalf("batch %d = {Index:%d Domain:%d n:%d}", i, b.Index, b.Domain, len(b.Samples))
		}
	}

	w = getPath(t, s, "/v1/stats")
	if w.Code != http.StatusOK {
		t.Fatalf("stats: HTTP %d", w.Code)
	}
	var st Stats
	if err := json.Unmarshal(w.Body.Bytes(), &st); err != nil {
		t.Fatalf("stats: %v", err)
	}
	if st.Method != "stub" || st.Classes != 3 || st.Batches != 3 || st.Samples != 6 || st.AcceptsImages {
		t.Fatalf("stats = %+v", st)
	}
	if w := getPath(t, s, "/healthz"); w.Code != http.StatusOK {
		t.Fatalf("healthz: HTTP %d", w.Code)
	}
	if w := getPath(t, s, "/metrics"); w.Code != http.StatusOK ||
		!strings.Contains(w.Body.String(), "serve_queue_depth_predict") {
		t.Fatalf("metrics: HTTP %d, body missing serve gauges", w.Code)
	}
}

func TestRequestValidation(t *testing.T) {
	s, l := newStubServer(t, stubConfig())
	cases := []struct {
		name string
		path string
		body any
	}{
		{"short latent", "/v1/predict", PredictRequest{Latent: latent(3)}},
		{"long latent", "/v1/predict", PredictRequest{Latent: latent(5)}},
		{"empty request", "/v1/predict", PredictRequest{}},
		{"latent and image", "/v1/predict", PredictRequest{Latent: latent(4), Image: latent(12)}},
		{"image without backbone", "/v1/predict", PredictRequest{Image: latent(3 * 32 * 32)}},
		{"unknown field", "/v1/predict", map[string]any{"latemt": latent(4)}},
		{"empty observe", "/v1/observe", ObserveRequest{}},
		{"label too big", "/v1/observe", ObserveRequest{Samples: []ObserveSample{{Latent: latent(4), Label: 3}}}},
		{"negative label", "/v1/observe", ObserveRequest{Samples: []ObserveSample{{Latent: latent(4), Label: -1}}}},
		{"bad sample latent", "/v1/observe", ObserveRequest{Samples: []ObserveSample{{Latent: latent(9), Label: 0}}}},
	}
	for _, tc := range cases {
		if w := postJSON(t, s, tc.path, tc.body); w.Code != http.StatusBadRequest {
			t.Errorf("%s: HTTP %d, want 400 (%s)", tc.name, w.Code, w.Body)
		}
	}
	// An oversized observe batch is rejected before any learner work.
	big := ObserveRequest{Samples: make([]ObserveSample, 65)}
	for i := range big.Samples {
		big.Samples[i] = ObserveSample{Latent: latent(4)}
	}
	if w := postJSON(t, s, "/v1/observe", big); w.Code != http.StatusBadRequest {
		t.Errorf("oversized batch: HTTP %d, want 400", w.Code)
	}
	if w := getPath(t, s, "/v1/predict"); w.Code != http.StatusMethodNotAllowed {
		t.Errorf("GET predict: HTTP %d, want 405", w.Code)
	}
	if n := len(l.batches()); n != 0 {
		t.Fatalf("invalid requests reached the learner: %d batches", n)
	}
}

// TestBackpressure fills the bounded queues while the engine is pinned inside
// a gated Predict, and checks the overflow request is shed with 429 +
// Retry-After instead of queueing without bound.
func TestBackpressure(t *testing.T) {
	cfg := stubConfig()
	cfg.QueueDepth = 1
	cfg.MaxBatch = 1
	l := &stubLearner{gate: make(chan struct{}), predictStarted: make(chan struct{})}
	s, err := New(l, cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer func() {
		_ = s.Close()
	}()

	var wg sync.WaitGroup
	codes := make(chan int, 2)
	wg.Add(1)
	go func() {
		defer wg.Done()
		codes <- postJSON(t, s, "/v1/predict", PredictRequest{Latent: latent(4)}).Code
	}()
	<-l.predictStarted // the engine is now blocked inside Predict

	// Fill the one predict slot, then overflow it.
	wg.Add(1)
	go func() {
		defer wg.Done()
		codes <- postJSON(t, s, "/v1/predict", PredictRequest{Latent: latent(4)}).Code
	}()
	waitFor(t, func() bool { return len(s.predictQ) == 1 })
	w := postJSON(t, s, "/v1/predict", PredictRequest{Latent: latent(4)})
	if w.Code != http.StatusTooManyRequests {
		t.Fatalf("overflow predict: HTTP %d, want 429", w.Code)
	}
	if w.Header().Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}

	// Same for the observe queue while the engine is still pinned.
	wg.Add(1)
	go func() {
		defer wg.Done()
		postJSON(t, s, "/v1/observe", ObserveRequest{Samples: []ObserveSample{{Latent: latent(4)}}})
	}()
	waitFor(t, func() bool { return len(s.observeQ) == 1 })
	w = postJSON(t, s, "/v1/observe", ObserveRequest{Samples: []ObserveSample{{Latent: latent(4)}}})
	if w.Code != http.StatusTooManyRequests {
		t.Fatalf("overflow observe: HTTP %d, want 429", w.Code)
	}

	close(l.gate)
	wg.Wait()
	close(codes)
	for c := range codes {
		if c != http.StatusOK {
			t.Fatalf("queued request finished with HTTP %d", c)
		}
	}
}

// TestRequestTimeout checks a request stuck behind a wedged engine gets 504
// instead of hanging the client forever.
func TestRequestTimeout(t *testing.T) {
	cfg := stubConfig()
	cfg.RequestTimeout = 30 * time.Millisecond
	cfg.MaxBatch = 1
	l := &stubLearner{gate: make(chan struct{}), predictStarted: make(chan struct{})}
	s, err := New(l, cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	done := make(chan int, 1)
	go func() { done <- postJSON(t, s, "/v1/predict", PredictRequest{Latent: latent(4)}).Code }()
	<-l.predictStarted
	w := postJSON(t, s, "/v1/predict", PredictRequest{Latent: latent(4)})
	if w.Code != http.StatusGatewayTimeout {
		t.Fatalf("stuck request: HTTP %d, want 504", w.Code)
	}
	// Release the engine only once the gated handler has given up too: with
	// its answer and its timeout both ready, its select could pick either.
	waitFor(t, func() bool { return s.m.timeouts.Value() == 2 })
	close(l.gate)
	// The gated request's handler also timed out (only the response is
	// abandoned; the engine finished the work), and the engine is free again.
	if c := <-done; c != http.StatusGatewayTimeout {
		t.Fatalf("gated request: HTTP %d, want 504", c)
	}
	if w := postJSON(t, s, "/v1/predict", PredictRequest{Latent: latent(4)}); w.Code != http.StatusOK {
		t.Fatalf("predict after engine freed: HTTP %d", w.Code)
	}
	_ = s.Close()
}

// TestPanicRecovery checks a panicking learner yields 500s while the server
// keeps serving afterwards.
func TestPanicRecovery(t *testing.T) {
	s, l := newStubServer(t, stubConfig())
	l.panicObserve.Store(true)
	w := postJSON(t, s, "/v1/observe", ObserveRequest{Samples: []ObserveSample{{Latent: latent(4)}}})
	if w.Code != http.StatusInternalServerError {
		t.Fatalf("panicking observe: HTTP %d, want 500", w.Code)
	}
	if !strings.Contains(w.Body.String(), "panicked") {
		t.Fatalf("panicking observe body: %s", w.Body)
	}
	l.panicPredict.Store(true)
	if w := postJSON(t, s, "/v1/predict", PredictRequest{Latent: latent(4)}); w.Code != http.StatusInternalServerError {
		t.Fatalf("panicking predict: HTTP %d, want 500", w.Code)
	}
	// The engine survived both panics; normal service resumes.
	l.panicObserve.Store(false)
	l.panicPredict.Store(false)
	if w := postJSON(t, s, "/v1/predict", PredictRequest{Latent: latent(4)}); w.Code != http.StatusOK {
		t.Fatalf("predict after panic: HTTP %d", w.Code)
	}
	if w := postJSON(t, s, "/v1/observe", ObserveRequest{Samples: []ObserveSample{{Latent: latent(4)}}}); w.Code != http.StatusOK {
		t.Fatalf("observe after panic: HTTP %d", w.Code)
	}
	// A failed observe must not advance the stream position.
	if got := s.Batches(); got != 1 {
		t.Fatalf("batches after one failed + one good observe = %d, want 1", got)
	}
}

// TestShutdownRefusesNewWork checks post-drain requests get 503, not 429.
func TestShutdownRefusesNewWork(t *testing.T) {
	s, _ := newStubServer(t, stubConfig())
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	w := postJSON(t, s, "/v1/predict", PredictRequest{Latent: latent(4)})
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("predict while draining: HTTP %d, want 503", w.Code)
	}
	w = postJSON(t, s, "/v1/observe", ObserveRequest{Samples: []ObserveSample{{Latent: latent(4)}}})
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("observe while draining: HTTP %d, want 503", w.Code)
	}
}

func TestNewRejectsBadConfig(t *testing.T) {
	l := &stubLearner{}
	if _, err := New(l, Config{Classes: 3, Registry: obs.NewRegistry()}); err == nil {
		t.Error("New accepted a missing latent shape")
	}
	if _, err := New(l, Config{LatentShape: stubShape, Registry: obs.NewRegistry()}); err == nil {
		t.Error("New accepted zero classes")
	}
	// A checkpoint path demands a snapshotting learner.
	cfg := stubConfig()
	cfg.CheckpointPath = t.TempDir() + "/s.ckpt"
	if _, err := New(l, cfg); err == nil {
		t.Error("New accepted a checkpoint path for a non-snapshotting learner")
	}
}

// waitFor polls cond for up to a second.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached within 1s")
		}
		time.Sleep(time.Millisecond)
	}
}

// --- bit-identity against the real learner ---------------------------------

// chameleonAt builds an independent backbone + Chameleon learner pair from
// one seed; two calls with the same seed are bit-identical by construction.
func chameleonAt(t *testing.T, classes int, seed int64) (*mobilenet.Model, cl.Learner) {
	t.Helper()
	model, err := mobilenet.New(mobilenet.DefaultConfig(classes, seed))
	if err != nil {
		t.Fatalf("backbone: %v", err)
	}
	head := cl.NewHead(model, cl.HeadConfig{LR: 0.01, Seed: seed})
	l := core.New(head, core.Config{
		STCap: 5, LTCap: 20, AccessRate: 2, PromoteEvery: 2, LTSampleSize: 5, Seed: seed,
	})
	return model, l
}

// wireBatches generates the raw float32 stream payloads both the HTTP path
// and the serial reference consume, so any divergence is the server's fault.
type wireBatch struct {
	latents [][]float32
	labels  []int
}

func makeWireBatches(rng *rand.Rand, n, batch, latentLen, classes int) []wireBatch {
	out := make([]wireBatch, n)
	for i := range out {
		wb := wireBatch{latents: make([][]float32, batch), labels: make([]int, batch)}
		for j := range wb.latents {
			z := make([]float32, latentLen)
			for k := range z {
				z[k] = float32(rng.NormFloat64())
			}
			wb.latents[j] = z
			wb.labels[j] = rng.Intn(classes)
		}
		out[i] = wb
	}
	return out
}

func (wb wireBatch) observeRequest() ObserveRequest {
	req := ObserveRequest{Samples: make([]ObserveSample, len(wb.latents))}
	for j, z := range wb.latents {
		req.Samples[j] = ObserveSample{Latent: z, Label: wb.labels[j]}
	}
	return req
}

func (wb wireBatch) latentBatch(index int, shape []int) cl.LatentBatch {
	b := cl.LatentBatch{Samples: make([]cl.LatentSample, len(wb.latents)), Index: index}
	for j, z := range wb.latents {
		b.Samples[j] = cl.LatentSample{Z: tensor.FromSlice(z, shape...), Label: wb.labels[j]}
	}
	return b
}

func snapshotOf(t *testing.T, l cl.Learner) []byte {
	t.Helper()
	snap := cl.Caps(l).Snapshotter
	if snap == nil {
		t.Fatalf("learner %s has no snapshotter", l.Name())
	}
	b, err := snap.Snapshot()
	if err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	return b
}

// requireSameState compares two learners through decoded snapshots (raw
// snapshot bytes are not comparable: gob randomizes map encoding order).
func requireSameState(t *testing.T, got, want cl.Learner, context string) {
	t.Helper()
	same, err := core.SnapshotsEqual(snapshotOf(t, got), snapshotOf(t, want))
	if err != nil {
		t.Fatalf("%s: %v", context, err)
	}
	if !same {
		t.Fatalf("%s: learner state diverged", context)
	}
}

func serveURL(t *testing.T, s *Server) string {
	t.Helper()
	if err := s.Start("127.0.0.1:0"); err != nil {
		t.Fatalf("Start: %v", err)
	}
	return "http://" + s.Addr()
}

// httpObserve posts one stream batch. A transport error (the listener closed
// mid-shutdown) is reported as status 0 so callers can treat it like a 503.
func httpObserve(t *testing.T, client *http.Client, url string, wb wireBatch) (ObserveResponse, int) {
	t.Helper()
	body, err := json.Marshal(wb.observeRequest())
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	resp, err := client.Post(url+"/v1/observe", "application/json", bytes.NewReader(body))
	if err != nil {
		return ObserveResponse{}, 0
	}
	defer resp.Body.Close()
	var or ObserveResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&or); err != nil {
			t.Fatalf("observe decode: %v", err)
		}
	}
	return or, resp.StatusCode
}

// TestConcurrentLoadMatchesSerialReplay is the core serving contract: a
// sequential observe stream applied through the server — with 8 concurrent
// predict clients hammering the micro-batching path the whole time — must
// leave the learner in exactly the state a plain serial replay of the same
// stream produces. Run under -race this also proves the single-writer design
// keeps the learner data-race-free.
func TestConcurrentLoadMatchesSerialReplay(t *testing.T) {
	const (
		classes  = 4
		seed     = 11
		nBatches = 24
		batch    = 5
		clients  = 8
	)
	model, served := chameleonAt(t, classes, seed)
	_, serial := chameleonAt(t, classes, seed)
	latentLen := 1
	for _, d := range model.LatentShape {
		latentLen *= d
	}
	stream := makeWireBatches(rand.New(rand.NewSource(99)), nBatches, batch, latentLen, classes)

	s, err := New(served, Config{
		LatentShape: model.LatentShape, Classes: classes,
		BatchWindow: time.Millisecond, MaxBatch: 8, QueueDepth: 64,
		Registry: obs.NewRegistry(),
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	url := serveURL(t, s)
	client := &http.Client{Timeout: 30 * time.Second}

	stopPredict := make(chan struct{})
	var wg sync.WaitGroup
	var predicted atomic.Int64
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(1000 + int64(c)))
			for {
				select {
				case <-stopPredict:
					return
				default:
				}
				z := make([]float32, latentLen)
				for k := range z {
					z[k] = float32(rng.NormFloat64())
				}
				body, _ := json.Marshal(PredictRequest{Latent: z})
				resp, err := client.Post(url+"/v1/predict", "application/json", bytes.NewReader(body))
				if err != nil {
					t.Errorf("predict client %d: %v", c, err)
					return
				}
				var pr PredictResponse
				code := resp.StatusCode
				decErr := json.NewDecoder(resp.Body).Decode(&pr)
				resp.Body.Close()
				switch code {
				case http.StatusOK:
					if decErr != nil {
						t.Errorf("predict client %d: decode: %v", c, decErr)
						return
					}
					if pr.Class < 0 || pr.Class >= classes {
						t.Errorf("predict client %d: class %d out of range", c, pr.Class)
						return
					}
					predicted.Add(1)
				case http.StatusTooManyRequests:
					time.Sleep(time.Millisecond)
				default:
					t.Errorf("predict client %d: HTTP %d", c, code)
					return
				}
			}
		}(c)
	}

	for i, wb := range stream {
		or, code := httpObserve(t, client, url, wb)
		if code != http.StatusOK {
			t.Fatalf("observe %d: HTTP %d", i, code)
		}
		if or.Batch != i {
			t.Fatalf("observe %d assigned stream index %d", i, or.Batch)
		}
	}
	close(stopPredict)
	wg.Wait()
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if predicted.Load() == 0 {
		t.Fatal("predict clients completed no requests")
	}

	for i, wb := range stream {
		serial.Observe(wb.latentBatch(i, model.LatentShape))
	}
	requireSameState(t, served, serial, "served learner vs serial replay")
}

// TestShutdownUnderLoadResumesBitIdentical kills the server mid-stream (with
// predict load running), restarts from the drain checkpoint, feeds the
// remainder of the stream, and demands the final state match an uninterrupted
// serial replay bit for bit.
func TestShutdownUnderLoadResumesBitIdentical(t *testing.T) {
	const (
		classes  = 4
		seed     = 23
		nBatches = 20
		batch    = 4
	)
	ckpt := t.TempDir() + "/serve.ckpt"
	model, servedA := chameleonAt(t, classes, seed)
	latentLen := 1
	for _, d := range model.LatentShape {
		latentLen *= d
	}
	stream := makeWireBatches(rand.New(rand.NewSource(77)), nBatches, batch, latentLen, classes)

	s1, err := New(servedA, Config{
		LatentShape: model.LatentShape, Classes: classes,
		CheckpointPath: ckpt, CheckpointEvery: 1000, // drain writes the snapshot
		BatchWindow: time.Millisecond, MaxBatch: 8, QueueDepth: 64,
		Registry: obs.NewRegistry(),
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	url := serveURL(t, s1)
	client := &http.Client{Timeout: 30 * time.Second}

	// Background predict load across the shutdown (responses may be 200, 429
	// or 503 — never a hang or a crash).
	stopPredict := make(chan struct{})
	var wg sync.WaitGroup
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(2000 + int64(c)))
			for {
				select {
				case <-stopPredict:
					return
				default:
				}
				z := make([]float32, latentLen)
				for k := range z {
					z[k] = float32(rng.NormFloat64())
				}
				body, _ := json.Marshal(PredictRequest{Latent: z})
				resp, err := client.Post(url+"/v1/predict", "application/json", bytes.NewReader(body))
				if err != nil {
					return // listener closed during shutdown
				}
				resp.Body.Close()
				switch resp.StatusCode {
				case http.StatusOK, http.StatusTooManyRequests, http.StatusServiceUnavailable:
				default:
					t.Errorf("predict during shutdown: HTTP %d", resp.StatusCode)
				}
			}
		}(c)
	}

	// Sequential observer: after the fifth ack the server is shut down
	// concurrently, so the tail of the stream is refused with 503.
	acked := 0
	shutdownDone := make(chan error, 1)
	for i, wb := range stream {
		or, code := httpObserve(t, client, url, wb)
		switch code {
		case http.StatusOK:
			if or.Batch != i {
				t.Fatalf("observe %d assigned index %d", i, or.Batch)
			}
			acked++
		case http.StatusServiceUnavailable, 0:
			// Draining (or the listener already closed): the stream stops here.
		default:
			t.Fatalf("observe %d: HTTP %d", i, code)
		}
		if acked == 5 && code == http.StatusOK {
			go func() {
				ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
				defer cancel()
				shutdownDone <- s1.Shutdown(ctx)
			}()
			// Predicts stay in flight; once the drain flag is up every further
			// observe is deterministically refused.
			waitFor(t, func() bool {
				s1.mu.RLock()
				defer s1.mu.RUnlock()
				return s1.draining
			})
		}
		if code != http.StatusOK {
			break
		}
	}
	if err := <-shutdownDone; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	close(stopPredict)
	wg.Wait()
	if acked < 5 || acked >= nBatches {
		t.Fatalf("shutdown was not mid-stream: %d/%d batches acked", acked, nBatches)
	}

	// The drain checkpoint records exactly the acked prefix.
	st, err := LoadState(ckpt)
	if err != nil {
		t.Fatalf("LoadState: %v", err)
	}
	if st.Batches != acked || st.Samples != acked*batch || st.Method != "chameleon" {
		t.Fatalf("checkpoint state = {%s %d %d}, want {chameleon %d %d}", st.Method, st.Batches, st.Samples, acked, acked*batch)
	}

	// Restart from the checkpoint and feed the rest of the stream.
	_, servedB := chameleonAt(t, classes, seed)
	st2, err := Resume(ckpt, servedB)
	if err != nil {
		t.Fatalf("Resume: %v", err)
	}
	s2, err := New(servedB, Config{
		LatentShape: model.LatentShape, Classes: classes,
		StartBatches: st2.Batches, StartSamples: st2.Samples,
		Registry: obs.NewRegistry(),
	})
	if err != nil {
		t.Fatalf("New (resumed): %v", err)
	}
	url2 := serveURL(t, s2)
	for i := acked; i < nBatches; i++ {
		or, code := httpObserve(t, client, url2, stream[i])
		if code != http.StatusOK {
			t.Fatalf("resumed observe %d: HTTP %d", i, code)
		}
		if or.Batch != i {
			t.Fatalf("resumed observe %d assigned index %d — numbering did not continue", i, or.Batch)
		}
	}
	if err := s2.Close(); err != nil {
		t.Fatalf("Close (resumed): %v", err)
	}

	// Uninterrupted serial replay of the full stream.
	_, serial := chameleonAt(t, classes, seed)
	for i, wb := range stream {
		serial.Observe(wb.latentBatch(i, model.LatentShape))
	}
	requireSameState(t, servedB, serial, "resumed learner vs uninterrupted replay")
}

// TestResumeRejectsMethodMismatch guards the checkpoint against being
// restored into the wrong learner.
func TestResumeRejectsMethodMismatch(t *testing.T) {
	const seed = 31
	ckpt := t.TempDir() + "/serve.ckpt"
	model, l := chameleonAt(t, 4, seed)
	s, err := New(l, Config{
		LatentShape: model.LatentShape, Classes: 4,
		CheckpointPath: ckpt, Registry: obs.NewRegistry(),
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if _, err := Resume(ckpt, &stubLearner{}); err == nil ||
		!strings.Contains(err.Error(), "chameleon") {
		t.Fatalf("Resume into a stub learner: err = %v, want method mismatch", err)
	}
}

// TestRunLoadSmoke drives the load generator against a live server and
// sanity-checks the report: exactly the requested closed-loop work completes
// with percentile ordering intact.
func TestRunLoadSmoke(t *testing.T) {
	s, l := newStubServer(t, stubConfig())
	url := serveURL(t, s)
	rep, err := RunLoad(url, LoadOptions{
		Clients:           4,
		RequestsPerClient: 25,
		ObserveBatches:    3,
		ObserveBatchSize:  2,
		Seed:              1,
	})
	if err != nil {
		t.Fatalf("RunLoad: %v", err)
	}
	if rep.Requests != 100 || rep.Errors != 0 {
		t.Fatalf("report = %+v, want 100 requests / 0 errors", rep)
	}
	if rep.ObserveBatches != 3 || len(l.batches()) != 3 {
		t.Fatalf("observer fed %d batches (server saw %d), want 3", rep.ObserveBatches, len(l.batches()))
	}
	if rep.ThroughputRPS <= 0 || rep.P50Ms <= 0 {
		t.Fatalf("degenerate throughput/latency: %+v", rep)
	}
	if rep.P50Ms > rep.P95Ms+1e-9 || rep.P95Ms > rep.P99Ms+1e-9 {
		t.Fatalf("percentiles out of order: %+v", rep)
	}
	if !strings.Contains(rep.String(), "p95") {
		t.Fatalf("report String() = %q", rep.String())
	}
}

// TestStateRoundTrip covers the checkpoint payload alone.
func TestStateRoundTrip(t *testing.T) {
	path := t.TempDir() + "/state.ckpt"
	model, l := chameleonAt(t, 4, 41)
	s, err := New(l, Config{
		LatentShape: model.LatentShape, Classes: 4,
		CheckpointPath: path, CheckpointEvery: 1,
		Registry: obs.NewRegistry(),
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	// One observe through the handler triggers the periodic saver (Every=1).
	wb := makeWireBatches(rand.New(rand.NewSource(5)), 1, 3, latentLenOf(model), 4)[0]
	if w := postJSON(t, s, "/v1/observe", wb.observeRequest()); w.Code != http.StatusOK {
		t.Fatalf("observe: HTTP %d", w.Code)
	}
	st, err := LoadState(path)
	if err != nil {
		t.Fatalf("LoadState after periodic save: %v", err)
	}
	if st.Batches != 1 || st.Samples != 3 {
		t.Fatalf("periodic state = {%d %d}", st.Batches, st.Samples)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

func latentLenOf(m *mobilenet.Model) int {
	n := 1
	for _, d := range m.LatentShape {
		n *= d
	}
	return n
}

// TestImagePredict exercises the raw-image form end to end with a backbone.
func TestImagePredict(t *testing.T) {
	model, l := chameleonAt(t, 4, 51)
	cfg := Config{LatentShape: model.LatentShape, Classes: 4, Backbone: model, Registry: obs.NewRegistry()}
	s, err := New(l, cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer func() { _ = s.Close() }()
	res := model.Cfg.Resolution
	img := make([]float32, 3*res*res)
	rng := rand.New(rand.NewSource(9))
	for i := range img {
		img[i] = float32(rng.Float64())
	}
	w := postJSON(t, s, "/v1/predict", PredictRequest{Image: img})
	if w.Code != http.StatusOK {
		t.Fatalf("image predict: HTTP %d: %s", w.Code, w.Body)
	}
	// The image path must agree with handing the extracted latent directly.
	z := model.ExtractLatent(tensor.FromSlice(img, 3, res, res))
	var pr PredictResponse
	if err := json.Unmarshal(w.Body.Bytes(), &pr); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if want := l.Predict(z); pr.Class != want {
		t.Fatalf("image predict class %d, want %d", pr.Class, want)
	}
	// Wrong image size is a 400.
	if w := postJSON(t, s, "/v1/predict", PredictRequest{Image: img[:10]}); w.Code != http.StatusBadRequest {
		t.Fatalf("short image: HTTP %d, want 400", w.Code)
	}
}
