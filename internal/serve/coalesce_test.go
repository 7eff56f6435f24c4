package serve

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"sync"
	"testing"
	"time"

	"chameleon/internal/tensor"
)

// batchStub is a stubLearner with the batched eval path: it records the size
// of every PredictBatch call and, with gate set, holds each call until the
// gate closes (predictStarted fires when the first call arrives).
type batchStub struct {
	stubLearner
	sizesMu sync.Mutex
	sizes   []int
}

func (b *batchStub) PredictBatch(zs []*tensor.Tensor, out []int) {
	b.sizesMu.Lock()
	b.sizes = append(b.sizes, len(zs))
	b.sizesMu.Unlock()
	if b.gate != nil {
		b.startedOnce.Do(func() { close(b.predictStarted) })
		<-b.gate
	}
	for i := range zs {
		out[i] = 0
	}
}

func (b *batchStub) batchSizes() []int {
	b.sizesMu.Lock()
	defer b.sizesMu.Unlock()
	return append([]int(nil), b.sizes...)
}

func newBatchStubServer(t *testing.T, cfg Config, l *batchStub) *Server {
	t.Helper()
	s, err := New(l, cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(func() { _ = s.Close() })
	return s
}

// TestLonePredictDoesNotWait checks a predict against an idle engine is
// answered at once: with no other predict being decoded there is nobody to
// wait for, so even an hour-long batch window costs nothing (a waiting engine
// would leave the handler to its 504 timeout instead).
func TestLonePredictDoesNotWait(t *testing.T) {
	cfg := stubConfig()
	cfg.BatchWindow = time.Hour
	l := &batchStub{}
	s := newBatchStubServer(t, cfg, l)
	for i := 0; i < 3; i++ {
		if w := postJSON(t, s, "/v1/predict", PredictRequest{Latent: latent(4)}); w.Code != http.StatusOK {
			t.Fatalf("predict %d: HTTP %d: %s", i, w.Code, w.Body)
		}
	}
	if got := l.batchSizes(); !slices.Equal(got, []int{1, 1, 1}) {
		t.Fatalf("PredictBatch sizes %v, want [1 1 1]", got)
	}
}

// TestPredictWaitsForDecodingPeer holds a second predict's body mid-read
// through a pipe while the first reaches the engine: the engine must wait for
// the one still being decoded and answer both in one PredictBatch call once
// the body is released.
func TestPredictWaitsForDecodingPeer(t *testing.T) {
	cfg := stubConfig()
	cfg.BatchWindow = time.Hour
	l := &batchStub{}
	s := newBatchStubServer(t, cfg, l)

	body, err := json.Marshal(PredictRequest{Latent: latent(4)})
	if err != nil {
		t.Fatal(err)
	}
	pr, pw := io.Pipe()
	t.Cleanup(func() { _ = pr.Close() }) // a failed test must not leave the handler blocked
	held := httptest.NewRecorder()
	heldDone := make(chan struct{})
	go func() {
		defer close(heldDone)
		s.Handler().ServeHTTP(held, httptest.NewRequest(http.MethodPost, "/v1/predict", pr))
	}()
	// Write returns once the handler's decoder has read the first half; it
	// then blocks reading the rest.
	if _, err := pw.Write(body[:len(body)/2]); err != nil {
		t.Fatal(err)
	}
	if got := s.predictsDecoding.Load(); got != 1 {
		t.Fatalf("%d predicts counted in flight, want 1", got)
	}

	firstDone := make(chan int, 1)
	go func() { firstDone <- postJSON(t, s, "/v1/predict", PredictRequest{Latent: latent(4)}).Code }()
	// The first predict is accepted and the engine has taken it off the queue:
	// it is now waiting for the held one.
	waitFor(t, func() bool { return s.m.predictRequests.Value() == 1 && len(s.predictQ) == 0 })
	if got := l.batchSizes(); len(got) != 0 {
		t.Fatalf("engine answered %v before the decoding predict arrived", got)
	}

	if _, err := pw.Write(body[len(body)/2:]); err != nil {
		t.Fatal(err)
	}
	_ = pw.Close()
	if c := <-firstDone; c != http.StatusOK {
		t.Fatalf("first predict: HTTP %d", c)
	}
	<-heldDone
	if held.Code != http.StatusOK {
		t.Fatalf("held predict: HTTP %d: %s", held.Code, held.Body)
	}
	if got := l.batchSizes(); !slices.Equal(got, []int{2}) {
		t.Fatalf("PredictBatch sizes %v, want [2]", got)
	}
}

// TestQueuedPredictsSplitAtMaxBatch queues MaxBatch+3 predicts behind an
// engine pinned inside PredictBatch: once released it answers them as one
// full batch and one batch of the remaining three.
func TestQueuedPredictsSplitAtMaxBatch(t *testing.T) {
	const maxBatch = 4
	cfg := stubConfig()
	cfg.MaxBatch = maxBatch
	l := &batchStub{}
	l.gate = make(chan struct{})
	l.predictStarted = make(chan struct{})
	s := newBatchStubServer(t, cfg, l)

	codes := make(chan int, maxBatch+4)
	var wg sync.WaitGroup
	post := func() {
		defer wg.Done()
		codes <- postJSON(t, s, "/v1/predict", PredictRequest{Latent: latent(4)}).Code
	}
	wg.Add(1)
	go post()
	<-l.predictStarted // the engine is pinned on the first predict
	for i := 0; i < maxBatch+3; i++ {
		wg.Add(1)
		go post()
	}
	waitFor(t, func() bool { return len(s.predictQ) == maxBatch+3 })
	close(l.gate)
	wg.Wait()
	close(codes)
	for c := range codes {
		if c != http.StatusOK {
			t.Fatalf("predict: HTTP %d", c)
		}
	}
	if got := l.batchSizes(); !slices.Equal(got, []int{1, maxBatch, 3}) {
		t.Fatalf("PredictBatch sizes %v, want [1 %d 3]", got, maxBatch)
	}
}
