package cl

import (
	"math"
	"testing"

	"chameleon/internal/nn"
	"chameleon/internal/parallel"
	"chameleon/internal/tensor"
)

// batchHeadLearner adapts a bare Head to Learner + BatchPredictor for
// equivalence tests (the baselines package provides the real adapters;
// cl_test.go's headLearner stays batch-free to cover the fallback).
type batchHeadLearner struct{ h *Head }

func (hl batchHeadLearner) Name() string                              { return "head" }
func (hl batchHeadLearner) Observe(LatentBatch)                       {}
func (hl batchHeadLearner) Predict(z *tensor.Tensor) int              { return hl.h.Predict(z) }
func (hl batchHeadLearner) PredictBatch(zs []*tensor.Tensor, o []int) { hl.h.PredictBatch(zs, o) }

// TestPredictIntoMatchesSerialAcrossWorkers is the batched-evaluation
// equivalence contract: PredictInto must agree with a per-sample Predict
// loop — over the pooled head and over a hand-built head with the same
// weights but no workspace, which classifies through the allocating forward
// — and with itself at every worker count.
func TestPredictIntoMatchesSerialAcrossWorkers(t *testing.T) {
	defer parallel.SetWorkers(0)
	set := testEnv(t)
	h := NewHead(set.Backbone, HeadConfig{Seed: 9})
	h.TrainCEOn(set.Train[:16])
	bare := &Head{Net: set.Backbone.Head, Opt: nn.NewSGD(0.01), Classes: h.Classes}
	bare.Restore(h.Snapshot())
	if bare.Workspace() != nil {
		t.Fatal("hand-built head has a workspace before training")
	}
	zs := make([]*tensor.Tensor, len(set.Test))
	for i, s := range set.Test {
		zs[i] = s.Z
	}
	var ref []int
	for _, w := range []int{1, 8} {
		parallel.SetWorkers(w)
		batched := make([]int, len(zs))
		if err := PredictInto(batchHeadLearner{h}, zs, batched); err != nil {
			t.Fatal(err)
		}
		for name, serialHead := range map[string]*Head{"pooled": h, "hand-built": bare} {
			for i, z := range zs {
				if got := serialHead.Predict(z); got != batched[i] {
					t.Fatalf("workers=%d: sample %d %s serial=%d batched=%d", w, i, name, got, batched[i])
				}
			}
		}
		if ref == nil {
			ref = batched
			continue
		}
		for i := range zs {
			if batched[i] != ref[i] {
				t.Fatalf("sample %d differs across worker counts: %d vs %d", i, batched[i], ref[i])
			}
		}
	}
}

// TestPredictBatchStableAcrossResume checks that batched predictions survive
// a snapshot/restore round trip bit-for-bit even after intervening training —
// the property checkpointed grid runs rely on.
func TestPredictBatchStableAcrossResume(t *testing.T) {
	set := testEnv(t)
	h := NewHead(set.Backbone, HeadConfig{Seed: 13})
	h.TrainCEOn(set.Train[:16])
	zs := make([]*tensor.Tensor, len(set.Test))
	for i, s := range set.Test {
		zs[i] = s.Z
	}
	snap := h.Snapshot()
	want := make([]int, len(zs))
	h.PredictBatch(zs, want)

	h.TrainCEOn(set.Train[16:32]) // drift the weights
	h.Restore(snap)
	got := make([]int, len(zs))
	h.PredictBatch(zs, got)
	serial := make([]int, len(zs))
	for i, z := range zs {
		serial[i] = h.Predict(z)
	}
	for i := range zs {
		if got[i] != want[i] || serial[i] != want[i] {
			t.Fatalf("sample %d: pre-resume=%d batched=%d serial=%d", i, want[i], got[i], serial[i])
		}
	}
}

// TestPredictIntoFallback covers the legacy adapter: a learner without
// PredictBatch goes through the serial loop.
func TestPredictIntoFallback(t *testing.T) {
	zs := []*tensor.Tensor{tensor.New(2), tensor.New(2), tensor.New(2)}
	out := make([]int, 3)
	if err := PredictInto(constLearner{class: 2}, zs, out); err != nil {
		t.Fatal(err)
	}
	for i, v := range out {
		if v != 2 {
			t.Fatalf("out[%d] = %d, want 2", i, v)
		}
	}
}

func TestPredictIntoErrorOnShortOut(t *testing.T) {
	if err := PredictInto(constLearner{}, make([]*tensor.Tensor, 2), make([]int, 1)); err == nil {
		t.Fatal("expected error for short out slice")
	}
}

// TestEvaluatePerClassGapNaN pins the one-pass Evaluate's per-class
// semantics: classes below the max label with no test support report NaN,
// supported classes report their hit rate, and PerClass spans 0..maxLabel.
func TestEvaluatePerClassGapNaN(t *testing.T) {
	test := []LatentSample{
		{Z: tensor.New(2), Label: 0},
		{Z: tensor.New(2), Label: 0},
		{Z: tensor.New(2), Label: 2},
	}
	res := Evaluate(constLearner{class: 0}, test)
	if len(res.PerClass) != 3 {
		t.Fatalf("PerClass = %v, want length 3", res.PerClass)
	}
	if res.PerClass[0] != 1 {
		t.Fatalf("PerClass[0] = %v, want 1", res.PerClass[0])
	}
	if !math.IsNaN(res.PerClass[1]) {
		t.Fatalf("PerClass[1] = %v, want NaN (no test support)", res.PerClass[1])
	}
	if res.PerClass[2] != 0 {
		t.Fatalf("PerClass[2] = %v, want 0", res.PerClass[2])
	}
	if math.Abs(res.AccAll-2.0/3.0) > 1e-12 {
		t.Fatalf("AccAll = %v", res.AccAll)
	}
}
