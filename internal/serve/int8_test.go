package serve

import (
	"math"
	"net/http"
	"sync"
	"testing"

	"chameleon/internal/cl"
	"chameleon/internal/fleet"
	"chameleon/internal/quant"
	"chameleon/internal/tensor"
)

// probeLearner records the exact tensors the engine hands it, so wire tests
// can compare what arrived against what the encoding promises.
type probeLearner struct {
	mu        sync.Mutex
	predicted []*tensor.Tensor
	observed  []cl.LatentBatch
}

func (p *probeLearner) Name() string { return "probe" }

func (p *probeLearner) Observe(b cl.LatentBatch) {
	p.mu.Lock()
	p.observed = append(p.observed, b)
	p.mu.Unlock()
}

func (p *probeLearner) Predict(z *tensor.Tensor) int {
	p.mu.Lock()
	p.predicted = append(p.predicted, z.Clone())
	p.mu.Unlock()
	return 0
}

func newProbeServer(t *testing.T) (*Server, *probeLearner) {
	t.Helper()
	l := &probeLearner{}
	s, err := New(l, stubConfig())
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(func() { _ = s.Close() })
	return s, l
}

// wireInt8 quantizes an fp32 latent into the wire's (latent_int8, scale)
// pair using the same symmetric scheme as the stores.
func wireInt8(lat []float32) ([]byte, float32) {
	q := make([]int8, len(lat))
	scale := quant.QuantizeInt8(q, lat)
	b := make([]byte, len(q))
	for i, v := range q {
		b[i] = byte(v)
	}
	return b, scale
}

// TestQuantizedWirePredictDecodesExactly pins the /v1/predict int8 encoding:
// the learner receives exactly float32(q)*scale — the identical values an
// int8 store would rehearse — for the quantized payload.
func TestQuantizedWirePredictDecodesExactly(t *testing.T) {
	s, l := newProbeServer(t)
	lat := []float32{0.5, -1.25, 0.125, 2.0}
	qz, scale := wireInt8(lat)

	w := postJSON(t, s, "/v1/predict", PredictRequest{LatentInt8: qz, Scale: scale})
	if w.Code != http.StatusOK {
		t.Fatalf("int8 predict: HTTP %d: %s", w.Code, w.Body)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.predicted) != 1 {
		t.Fatalf("learner saw %d predicts, want 1", len(l.predicted))
	}
	got := l.predicted[0].Data()
	for i, b := range qz {
		want := float32(int8(b)) * scale
		if math.Float32bits(got[i]) != math.Float32bits(want) {
			t.Fatalf("element %d: decoded %v != float32(q)*scale %v", i, got[i], want)
		}
	}
}

// TestQuantizedWireObserveDecodesExactly pins the /v1/observe int8 encoding
// end to end through the engine.
func TestQuantizedWireObserveDecodesExactly(t *testing.T) {
	s, l := newProbeServer(t)
	lat := []float32{-3, 1.5, 0, 0.75}
	qz, scale := wireInt8(lat)

	w := postJSON(t, s, "/v1/observe", ObserveRequest{
		Samples: []ObserveSample{{LatentInt8: qz, Scale: scale, Label: 2}},
	})
	if w.Code != http.StatusOK {
		t.Fatalf("int8 observe: HTTP %d: %s", w.Code, w.Body)
	}
	if err := s.Close(); err != nil { // drain so the batch lands
		t.Fatalf("close: %v", err)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.observed) != 1 || len(l.observed[0].Samples) != 1 {
		t.Fatalf("learner observed %+v, want one 1-sample batch", l.observed)
	}
	sm := l.observed[0].Samples[0]
	if sm.Label != 2 {
		t.Fatalf("label %d, want 2", sm.Label)
	}
	got := sm.Z.Data()
	for i, b := range qz {
		want := float32(int8(b)) * scale
		if math.Float32bits(got[i]) != math.Float32bits(want) {
			t.Fatalf("element %d: decoded %v != float32(q)*scale %v", i, got[i], want)
		}
	}
}

// TestQuantizedWireRejectsBadPayloads pins the int8 wire validation: length,
// scale and exactly-one-payload errors all answer 400 before any learner work.
// A scale past MaxFloat32/128 is rejected too: 127·3e38 dequantizes to +Inf.
func TestQuantizedWireRejectsBadPayloads(t *testing.T) {
	s, _ := newProbeServer(t)
	qz, scale := wireInt8([]float32{1, 2, 3, 4})
	cases := []struct {
		name string
		path string
		body any
	}{
		{"short int8 latent", "/v1/predict", PredictRequest{LatentInt8: qz[:3], Scale: scale}},
		{"long int8 latent", "/v1/predict", PredictRequest{LatentInt8: append(append([]byte(nil), qz...), 0), Scale: scale}},
		{"zero scale", "/v1/predict", PredictRequest{LatentInt8: qz, Scale: 0}},
		{"negative scale", "/v1/predict", PredictRequest{LatentInt8: qz, Scale: -1}},
		{"fp32 and int8", "/v1/predict", PredictRequest{Latent: latent(4), LatentInt8: qz, Scale: scale}},
		{"int8 and image", "/v1/predict", PredictRequest{LatentInt8: qz, Scale: scale, Image: latent(12)}},
		{"overflowing scale", "/v1/predict", PredictRequest{LatentInt8: qz, Scale: 3e38}},
		{"observe zero scale", "/v1/observe", ObserveRequest{Samples: []ObserveSample{{LatentInt8: qz, Scale: 0, Label: 0}}}},
		{"observe overflowing scale", "/v1/observe", ObserveRequest{Samples: []ObserveSample{{LatentInt8: qz, Scale: 3e38, Label: 0}}}},
		{"observe both payloads", "/v1/observe", ObserveRequest{Samples: []ObserveSample{{Latent: latent(4), LatentInt8: qz, Scale: scale, Label: 0}}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if w := postJSON(t, s, tc.path, tc.body); w.Code != http.StatusBadRequest {
				t.Fatalf("%s: HTTP %d, want 400: %s", tc.name, w.Code, w.Body)
			}
		})
	}
}

// TestQuantizedWireFleet pins the fleet surface: the same int8 encoding is
// accepted by a fleet server's predict and observe handlers.
func TestQuantizedWireFleet(t *testing.T) {
	s, _ := newFleetServer(t, fleet.Config{})
	qz, scale := wireInt8([]float32{0.5, -0.5, 1, -1})
	w := postJSON(t, s, "/v1/predict", PredictRequest{User: "u1", LatentInt8: qz, Scale: scale})
	if w.Code != http.StatusOK {
		t.Fatalf("fleet int8 predict: HTTP %d: %s", w.Code, w.Body)
	}
	w = postJSON(t, s, "/v1/observe", ObserveRequest{User: "u1",
		Samples: []ObserveSample{{LatentInt8: qz, Scale: scale, Label: 1}}})
	if w.Code != http.StatusOK {
		t.Fatalf("fleet int8 observe: HTTP %d: %s", w.Code, w.Body)
	}
	w = postJSON(t, s, "/v1/predict", PredictRequest{User: "u1", LatentInt8: qz, Scale: 0})
	if w.Code != http.StatusBadRequest {
		t.Fatalf("fleet bad scale: HTTP %d, want 400", w.Code)
	}
	w = postJSON(t, s, "/v1/observe", ObserveRequest{User: "u1",
		Samples: []ObserveSample{{LatentInt8: qz, Scale: 3e38, Label: 1}}})
	if w.Code != http.StatusBadRequest {
		t.Fatalf("fleet overflowing scale: HTTP %d, want 400", w.Code)
	}
}
