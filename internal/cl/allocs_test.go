package cl

import (
	"testing"

	"chameleon/internal/parallel"
	"chameleon/internal/race"
	"chameleon/internal/tensor"
)

// allocEnv builds a trained head plus a latent batch and test pool, with the
// worker pool pinned to 1 (the steady-state pin is a single-goroutine
// property; the sharded kernels' parallel branch necessarily allocates its
// closure and is gated off at workers <= 1).
func allocEnv(t *testing.T) (*Head, []LatentSample, []*tensor.Tensor) {
	t.Helper()
	if race.Enabled {
		t.Skip("allocation pins are measured without -race instrumentation")
	}
	parallel.SetWorkers(1)
	t.Cleanup(func() { parallel.SetWorkers(0) })
	set := testEnv(t)
	h := NewHead(set.Backbone, HeadConfig{Seed: 5})
	batch := set.Train[:8]
	zs := make([]*tensor.Tensor, len(set.Test))
	for i, s := range set.Test {
		zs[i] = s.Z
	}
	// Warm-up: first pass populates every workspace bucket and layer scratch.
	h.TrainCEOn(batch)
	out := make([]int, len(zs))
	h.PredictBatch(zs, out)
	h.Predict(zs[0])
	return h, batch, zs
}

// TestAllocsTrainStep pins the tentpole guarantee: one online SGD step over a
// replay-sized batch — and over a single sample, which takes the same batched
// path — performs zero heap allocations after warm-up.
func TestAllocsTrainStep(t *testing.T) {
	h, batch, _ := allocEnv(t)
	for _, b := range [][]LatentSample{batch, batch[:1]} {
		h.TrainCEOn(b) // warm the B-sized workspace buckets
		got := testing.AllocsPerRun(50, func() { h.TrainCEOn(b) })
		if got != 0 {
			t.Fatalf("TrainCEOn at B=%d allocates %.0f times/op, want 0", len(b), got)
		}
	}
}

// TestAllocsTrainBatched pins the mixed-objective forms of the batched step:
// a DER-shaped Train (CE, logit-MSE and weighted-CE rows), an LwF-shaped
// Train (CE plus soft-CE on every row) and a grad-only Accumulate + Step all
// run the GAP pack, one GEMM per Dense forward, the row-wise loss kernels and
// the batched backward without a heap allocation.
func TestAllocsTrainBatched(t *testing.T) {
	h, batch, _ := allocEnv(t)
	targets := make([]*tensor.Tensor, len(batch))
	for i, s := range batch {
		targets[i] = h.Logits(s.Z).Clone()
	}
	der := make([]LossRow, len(batch))
	lwf := make([]LossRow, len(batch))
	for i := range batch {
		switch i % 3 {
		case 0:
			der[i] = LossRow{CE: 1}
		case 1:
			der[i] = LossRow{Aux: 0.5, Target: targets[i]}
		default:
			der[i] = LossRow{CE: 0.5}
		}
		lwf[i] = LossRow{CE: 1, Aux: 4, Target: targets[i]}
	}
	steps := map[string]func(){
		"der":        func() { h.Train(batch, Loss{Rows: der}) },
		"lwf":        func() { h.Train(batch, Loss{Rows: lwf, Temperature: 2}) },
		"accumulate": func() { h.ZeroGrad(); h.Accumulate(batch, Loss{}); h.Step(float64(len(batch))) },
	}
	for name, step := range steps {
		step()
		if got := testing.AllocsPerRun(50, step); got != 0 {
			t.Errorf("%s step allocates %.0f times/op, want 0", name, got)
		}
	}
}

// TestAllocsEvalBatch pins the batched-evaluation half: classifying the whole
// test pool through PredictBatch allocates nothing after warm-up.
func TestAllocsEvalBatch(t *testing.T) {
	h, _, zs := allocEnv(t)
	out := make([]int, len(zs))
	got := testing.AllocsPerRun(50, func() { h.PredictBatch(zs, out) })
	if got != 0 {
		t.Fatalf("PredictBatch allocates %.0f times/op, want 0", got)
	}
}

// TestAllocsPredict pins the single-sample path a pooled head uses inside
// Observe-time scoring.
func TestAllocsPredict(t *testing.T) {
	h, _, zs := allocEnv(t)
	got := testing.AllocsPerRun(100, func() { h.Predict(zs[0]) })
	if got != 0 {
		t.Fatalf("Predict allocates %.0f times/op, want 0", got)
	}
}
