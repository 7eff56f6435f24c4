package serve

import (
	"bytes"
	"context"
	"encoding/gob"
	"encoding/json"
	"net/http"
	"testing"
	"time"

	"chameleon/internal/cl"
	"chameleon/internal/fleet"
	"chameleon/internal/obs"
	"chameleon/internal/tensor"
)

// snapLearner is the fleet-test double: deterministic, snapshotable (the
// fleet refuses snapshotless learners), with Predict reporting how many
// labels it has seen so restored state is visible through the HTTP surface.
type snapLearner struct {
	labels []int
}

func (l *snapLearner) Name() string { return "snap" }

func (l *snapLearner) Observe(b cl.LatentBatch) {
	for _, s := range b.Samples {
		l.labels = append(l.labels, s.Label)
	}
}

func (l *snapLearner) Predict(z *tensor.Tensor) int { return len(l.labels) }

func (l *snapLearner) Snapshot() ([]byte, error) {
	var buf bytes.Buffer
	err := gob.NewEncoder(&buf).Encode(l.labels)
	return buf.Bytes(), err
}

func (l *snapLearner) Restore(state []byte) error {
	return gob.NewDecoder(bytes.NewReader(state)).Decode(&l.labels)
}

// newFleetServer stands up a serve.Server fronting a small fleet (2 shards,
// shared registry) on the stub latent shape.
func newFleetServer(t *testing.T, fcfg fleet.Config) (*Server, *fleet.Fleet) {
	t.Helper()
	reg := obs.NewRegistry()
	if fcfg.New == nil {
		fcfg.New = func(string) (cl.Learner, error) { return &snapLearner{}, nil }
	}
	if fcfg.Dir == "" {
		fcfg.Dir = t.TempDir()
	}
	if fcfg.Shards == 0 {
		fcfg.Shards = 2
	}
	fcfg.Registry = reg
	fl, err := fleet.New(fcfg)
	if err != nil {
		t.Fatalf("fleet.New: %v", err)
	}
	s, err := New(nil, Config{LatentShape: stubShape, Classes: 3, Registry: reg, Fleet: fl})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	})
	return s, fl
}

func TestFleetModeConfigRules(t *testing.T) {
	reg := obs.NewRegistry()
	fl, err := fleet.New(fleet.Config{
		New:      func(string) (cl.Learner, error) { return &snapLearner{}, nil },
		Dir:      t.TempDir(),
		Registry: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer fl.Shutdown(context.Background())
	// A fleet server must not also carry a single learner or a drain target.
	if _, err := New(&stubLearner{}, Config{LatentShape: stubShape, Classes: 3, Registry: reg, Fleet: fl}); err == nil {
		t.Fatal("fleet + single learner accepted")
	}
	if _, err := New(nil, Config{LatentShape: stubShape, Classes: 3, Registry: reg, Fleet: fl, CheckpointPath: "x.ckpt"}); err == nil {
		t.Fatal("fleet + checkpoint path accepted")
	}
	// And without a fleet, a learner is required.
	if _, err := New(nil, Config{LatentShape: stubShape, Classes: 3, Registry: obs.NewRegistry()}); err == nil {
		t.Fatal("no learner, no fleet accepted")
	}
}

func TestFleetUserFieldRules(t *testing.T) {
	s, _ := newFleetServer(t, fleet.Config{})
	// Fleet servers require the user field.
	w := postJSON(t, s, "/v1/predict", PredictRequest{Latent: latent(4)})
	if w.Code != http.StatusBadRequest {
		t.Fatalf("userless predict on fleet: HTTP %d", w.Code)
	}
	w = postJSON(t, s, "/v1/observe", ObserveRequest{Samples: []ObserveSample{{Latent: latent(4), Label: 1}}})
	if w.Code != http.StatusBadRequest {
		t.Fatalf("userless observe on fleet: HTTP %d", w.Code)
	}

	// Single-learner servers reject it.
	single, _ := newStubServer(t, stubConfig())
	w = postJSON(t, single, "/v1/predict", PredictRequest{User: "u1", Latent: latent(4)})
	if w.Code != http.StatusBadRequest {
		t.Fatalf("user field on single-learner predict: HTTP %d", w.Code)
	}
	w = postJSON(t, single, "/v1/observe", ObserveRequest{User: "u1", Samples: []ObserveSample{{Latent: latent(4), Label: 1}}})
	if w.Code != http.StatusBadRequest {
		t.Fatalf("user field on single-learner observe: HTTP %d", w.Code)
	}
}

func TestFleetPredictObserveStats(t *testing.T) {
	s, _ := newFleetServer(t, fleet.Config{})
	observe := func(user string, labels ...int) ObserveResponse {
		t.Helper()
		req := ObserveRequest{User: user}
		for _, lab := range labels {
			req.Samples = append(req.Samples, ObserveSample{Latent: latent(4), Label: lab})
		}
		w := postJSON(t, s, "/v1/observe", req)
		if w.Code != http.StatusOK {
			t.Fatalf("observe(%s): HTTP %d: %s", user, w.Code, w.Body)
		}
		var or ObserveResponse
		if err := json.Unmarshal(w.Body.Bytes(), &or); err != nil {
			t.Fatal(err)
		}
		return or
	}

	if or := observe("u1", 0, 1); or.Batch != 0 || or.SamplesTotal != 2 {
		t.Fatalf("u1 first batch: %+v", or)
	}
	if or := observe("u2", 2); or.Batch != 0 || or.SamplesTotal != 1 {
		t.Fatalf("u2 first batch: %+v (streams must be numbered per user)", or)
	}
	if or := observe("u1", 2); or.Batch != 1 || or.SamplesTotal != 3 {
		t.Fatalf("u1 second batch: %+v", or)
	}

	w := postJSON(t, s, "/v1/predict", PredictRequest{User: "u1", Latent: latent(4)})
	if w.Code != http.StatusOK {
		t.Fatalf("predict: HTTP %d: %s", w.Code, w.Body)
	}
	var pr PredictResponse
	if err := json.Unmarshal(w.Body.Bytes(), &pr); err != nil {
		t.Fatal(err)
	}
	if pr.Class != 3 {
		t.Fatalf("u1 predict = %d, want 3 (its own labels only)", pr.Class)
	}

	w = getPath(t, s, "/v1/stats")
	if w.Code != http.StatusOK {
		t.Fatalf("stats: HTTP %d", w.Code)
	}
	var st Stats
	if err := json.Unmarshal(w.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if st.Method != "fleet" {
		t.Fatalf("stats method = %q", st.Method)
	}
	if st.Fleet == nil {
		t.Fatal("stats missing fleet section")
	}
	if st.Fleet.UsersKnown != 2 || st.Batches != 3 || st.Samples != 4 {
		t.Fatalf("fleet stats: %+v (batches %d samples %d)", st.Fleet, st.Batches, st.Samples)
	}
}

func TestFleetTooManyUsersMapsTo429(t *testing.T) {
	s, _ := newFleetServer(t, fleet.Config{MaxUsers: 1})
	w := postJSON(t, s, "/v1/predict", PredictRequest{User: "u1", Latent: latent(4)})
	if w.Code != http.StatusOK {
		t.Fatalf("u1: HTTP %d: %s", w.Code, w.Body)
	}
	w = postJSON(t, s, "/v1/predict", PredictRequest{User: "u2", Latent: latent(4)})
	if w.Code != http.StatusTooManyRequests {
		t.Fatalf("over-cap user: HTTP %d, want 429", w.Code)
	}
}

func TestFleetShutdownDrainsToDisk(t *testing.T) {
	dir := t.TempDir()
	s, fl := newFleetServer(t, fleet.Config{Dir: dir})
	w := postJSON(t, s, "/v1/observe", ObserveRequest{User: "u1", Samples: []ObserveSample{{Latent: latent(4), Label: 2}}})
	if w.Code != http.StatusOK {
		t.Fatalf("observe: HTTP %d: %s", w.Code, w.Body)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if err := fl.Sync(ctx); err != nil {
		t.Fatalf("fleet Sync after drain: %v", err)
	}
	if st := fl.Stats(); st.Resident != 0 || st.Evictions == 0 {
		t.Fatalf("post-drain fleet stats: %+v", st)
	}
	// Requests after the drain are refused, not queued.
	w = postJSON(t, s, "/v1/observe", ObserveRequest{User: "u1", Samples: []ObserveSample{{Latent: latent(4), Label: 2}}})
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("post-drain observe: HTTP %d, want 503", w.Code)
	}
}
