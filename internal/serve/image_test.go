package serve

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"

	"chameleon/internal/api"
	"chameleon/internal/cl"
	"chameleon/internal/fleet"
	"chameleon/internal/mobilenet"
	"chameleon/internal/nn"
	"chameleon/internal/obs"
	"chameleon/internal/parallel"
	"chameleon/internal/tensor"
)

// countingLayer delegates to the layer it wraps and counts forward passes:
// at the bottom of the extractor it counts the frames extracted.
type countingLayer struct {
	nn.Layer
	n atomic.Int64
}

func (c *countingLayer) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	c.n.Add(1)
	return c.Layer.Forward(x, train)
}

// countedBackbone builds a small backbone whose extracted frames are counted.
func countedBackbone(t *testing.T, classes int, seed int64) (*mobilenet.Model, *countingLayer) {
	t.Helper()
	model, err := mobilenet.New(mobilenet.DefaultConfig(classes, seed))
	if err != nil {
		t.Fatalf("backbone: %v", err)
	}
	frames := &countingLayer{Layer: model.Features.Layers[0]}
	model.Features.Layers[0] = frames
	return model, frames
}

// withWorkers runs f at each worker count, restoring the pool afterwards.
func withWorkers(t *testing.T, f func(t *testing.T)) {
	prev := parallel.Workers()
	t.Cleanup(func() { parallel.SetWorkers(prev) })
	for _, w := range []int{1, 8} {
		t.Run(fmt.Sprintf("workers=%d", w), func(t *testing.T) {
			parallel.SetWorkers(w)
			f(t)
		})
	}
}

// checkImageObserve drives the image form of /v1/observe on s. A batch with
// one invalid sample, at every index in turn, must be rejected with the
// per-sample message before any frame is extracted; a valid batch mixing
// images and a latent must reach the learner (received) with every image's
// latent bit-identical to extracting that frame on its own.
func checkImageObserve(t *testing.T, s *Server, model *mobilenet.Model, frames *countingLayer, classes int, user string, received func() []cl.LatentSample) {
	t.Helper()
	const n = 6
	const latentAt = 2
	res := model.Cfg.Resolution
	rng := rand.New(rand.NewSource(3))
	samples := make([]ObserveSample, n)
	for i := range samples {
		samples[i].Label = i % classes
		if i == latentAt {
			samples[i].Latent = make([]float32, latentLenOf(model))
			for k := range samples[i].Latent {
				samples[i].Latent[k] = float32(rng.NormFloat64())
			}
			continue
		}
		samples[i].Image = make([]float32, 3*res*res)
		for k := range samples[i].Image {
			samples[i].Image[k] = float32(rng.Float64())
		}
	}

	for bad := 0; bad < n; bad++ {
		batch := append([]ObserveSample(nil), samples...)
		var want string
		if bad%2 == 0 {
			batch[bad].Label = classes + 5
			want = fmt.Sprintf("bad request: sample %d label %d out of range [0,%d)", bad, classes+5, classes)
		} else {
			batch[bad] = ObserveSample{Image: make([]float32, 10), Label: 0}
			want = fmt.Sprintf("bad request: sample %d: image has 10 elements, want %d (shape [3,%d,%d])", bad, 3*res*res, res, res)
		}
		frames.n.Store(0)
		w := postJSON(t, s, "/v1/observe", ObserveRequest{User: user, Samples: batch})
		if w.Code != http.StatusBadRequest {
			t.Fatalf("invalid sample %d: HTTP %d, want 400", bad, w.Code)
		}
		var e api.Error
		if err := json.Unmarshal(w.Body.Bytes(), &e); err != nil {
			t.Fatalf("invalid sample %d: decode error body: %v", bad, err)
		}
		if e.Message != want {
			t.Fatalf("invalid sample %d: error %q, want %q", bad, e.Message, want)
		}
		if got := frames.n.Load(); got != 0 {
			t.Fatalf("invalid sample %d: %d frames extracted before the batch was rejected", bad, got)
		}
	}
	if got := received(); len(got) != 0 {
		t.Fatalf("rejected batches reached the learner: %d samples", len(got))
	}

	if w := postJSON(t, s, "/v1/observe", ObserveRequest{User: user, Samples: samples}); w.Code != http.StatusOK {
		t.Fatalf("image observe: HTTP %d: %s", w.Code, w.Body)
	}
	got := received()
	if len(got) != n {
		t.Fatalf("learner received %d samples, want %d", len(got), n)
	}
	for i, sm := range samples {
		want := sm.Latent
		if sm.Image != nil {
			want = model.ExtractLatent(tensor.FromSlice(sm.Image, 3, res, res)).Data()
		}
		z := got[i].Z.Data()
		if len(z) != len(want) {
			t.Fatalf("sample %d: latent has %d elements, want %d", i, len(z), len(want))
		}
		for k := range want {
			if z[k] != want[k] {
				t.Fatalf("sample %d: element %d is %v, per-frame extraction gives %v", i, k, z[k], want[k])
			}
		}
		if got[i].Label != sm.Label {
			t.Fatalf("sample %d: label %d, want %d", i, got[i].Label, sm.Label)
		}
	}
}

// TestImageObserveBatchExtraction pins the single-learner image observe:
// validation before extraction, and batch extraction bit-identical to the
// per-frame extractor at one and eight workers.
func TestImageObserveBatchExtraction(t *testing.T) {
	const classes = 4
	withWorkers(t, func(t *testing.T) {
		model, frames := countedBackbone(t, classes, 51)
		l := &stubLearner{}
		s, err := New(l, Config{LatentShape: model.LatentShape, Classes: classes, Backbone: model, Registry: obs.NewRegistry()})
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		t.Cleanup(func() { _ = s.Close() })
		checkImageObserve(t, s, model, frames, classes, "", func() []cl.LatentSample {
			var out []cl.LatentSample
			for _, b := range l.batches() {
				out = append(out, b.Samples...)
			}
			return out
		})
	})
}

// latentSnapLearner is a snapLearner that also keeps every latent it
// observes, for checking what a fleet user's learner was fed.
type latentSnapLearner struct {
	snapLearner
	mu      sync.Mutex
	samples []cl.LatentSample
}

func (l *latentSnapLearner) Observe(b cl.LatentBatch) {
	l.snapLearner.Observe(b)
	l.mu.Lock()
	l.samples = append(l.samples, b.Samples...)
	l.mu.Unlock()
}

// TestFleetImageObserveBatchExtraction is TestImageObserveBatchExtraction on
// a fleet server: the user's learner receives the same latents.
func TestFleetImageObserveBatchExtraction(t *testing.T) {
	const classes = 4
	withWorkers(t, func(t *testing.T) {
		model, frames := countedBackbone(t, classes, 52)
		var learners sync.Map
		reg := obs.NewRegistry()
		fl, err := fleet.New(fleet.Config{
			New: func(user string) (cl.Learner, error) {
				l := &latentSnapLearner{}
				learners.Store(user, l)
				return l, nil
			},
			Dir: t.TempDir(), Shards: 2, Registry: reg,
		})
		if err != nil {
			t.Fatalf("fleet.New: %v", err)
		}
		s, err := New(nil, Config{LatentShape: model.LatentShape, Classes: classes, Backbone: model, Registry: reg, Fleet: fl})
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		t.Cleanup(func() { _ = s.Close() })
		checkImageObserve(t, s, model, frames, classes, "alice", func() []cl.LatentSample {
			v, ok := learners.Load("alice")
			if !ok {
				return nil
			}
			l := v.(*latentSnapLearner)
			l.mu.Lock()
			defer l.mu.Unlock()
			return append([]cl.LatentSample(nil), l.samples...)
		})
	})
}
