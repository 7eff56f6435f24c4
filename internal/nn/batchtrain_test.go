package nn

import (
	"math/rand"
	"testing"

	"chameleon/internal/tensor"
)

// batchTestNet builds a small head-shaped chain: every layer implements the
// batched training protocol, and both Dense layers take the fused fold.
func batchTestNet(seed int64) *Sequential {
	rng := rand.New(rand.NewSource(seed))
	return NewSequential("batch-test",
		NewDense("fc1", 5, 8, rng),
		NewReLU(),
		NewDense("fc2", 8, 3, rng),
	)
}

// runBatchSteps drives `steps` four-sample cross-entropy steps through the
// batched chain, either with the update folded into the backward
// (BackwardSGDBatchFrom, what cl.Head.Train runs) or as BackwardBatchFrom
// followed by the split Scale + StepParam + Zero sequence.
func runBatchSteps[T tensor.Float](net *SequentialOf[T], opt *SGDOf[T], fused bool, steps int) {
	const n, d = 4, 5
	ws := tensor.NewWorkspaceOf[T]()
	AttachWorkspaceOf(net, ws)
	opt.SetWorkspace(ws)
	rng := rand.New(rand.NewSource(99))
	labels := []int{0, 1, 2, 1}
	inv := T(1) / T(n)
	for s := 0; s < steps; s++ {
		x := ws.Get(n, d)
		for i := range x.Data() {
			x.Data()[i] = T(rng.NormFloat64())
		}
		logits := net.ForwardBatchTrain(x, 0, ws)
		CrossEntropyRowsInto(logits, labels, nil, logits)
		if fused {
			net.BackwardSGDBatchFrom(logits, 0, opt, inv, ws)
			continue
		}
		net.BackwardBatchFrom(logits, 0, ws)
		for _, p := range net.Params() {
			p.Grad.Scale(inv)
			opt.StepParam(p)
			p.ZeroGrad()
		}
	}
}

// requireParamsEqual asserts bitwise equality of every weight.
func requireParamsEqual[T tensor.Float](t *testing.T, split, fused *SequentialOf[T]) {
	t.Helper()
	sp, fp := split.Params(), fused.Params()
	if len(sp) != len(fp) {
		t.Fatalf("param count mismatch: %d vs %d", len(sp), len(fp))
	}
	for i := range sp {
		sd, fd := sp[i].Data.Data(), fp[i].Data.Data()
		for j := range sd {
			if sd[j] != fd[j] {
				t.Fatalf("param %s[%d]: split %v, fused %v (not bit-identical)",
					sp[i].Name, j, sd[j], fd[j])
			}
		}
	}
}

// TestFusedStepBitIdentityF32 checks that the batched backward with the SGD
// update folded in produces bit-identical weights to the batched backward
// followed by the split update, on the fast tier, across optimizer
// configurations that exercise every branch of the fused row kernel.
func TestFusedStepBitIdentityF32(t *testing.T) {
	for _, cfg := range []struct {
		name            string
		momentum, decay float64
	}{
		{"plain", 0, 0},
		{"momentum", 0.9, 0},
		{"momentum+decay", 0.9, 1e-4},
	} {
		t.Run(cfg.name, func(t *testing.T) {
			mkOpt := func() *SGD {
				o := NewSGD(0.05)
				o.Momentum = cfg.momentum
				o.WeightDecay = cfg.decay
				return o
			}
			split, fusedNet := batchTestNet(7), batchTestNet(7)
			runBatchSteps(split, mkOpt(), false, 5)
			runBatchSteps(fusedNet, mkOpt(), true, 5)
			requireParamsEqual(t, split, fusedNet)
		})
	}
}

// TestFusedStepBitIdentityF64 is the same check on the reference tier, with
// the nets built by widening identically seeded fast-tier models.
func TestFusedStepBitIdentityF64(t *testing.T) {
	widen := func() *SequentialOf[float64] {
		w, err := WidenLayer(batchTestNet(7))
		if err != nil {
			t.Fatalf("WidenLayer: %v", err)
		}
		return w.(*SequentialOf[float64])
	}
	mkOpt := func() *SGDOf[float64] {
		o := NewSGDOf[float64](0.05)
		o.Momentum = 0.9
		o.WeightDecay = 1e-4
		return o
	}
	split, fusedNet := widen(), widen()
	runBatchSteps(split, mkOpt(), false, 5)
	runBatchSteps(fusedNet, mkOpt(), true, 5)
	requireParamsEqual(t, split, fusedNet)
}

// TestFusedGradClipFallback checks that a clipping optimizer routed through
// the fused entry point still matches the split path: the fold must fall
// back, because clipping needs the whole gradient's norm first.
func TestFusedGradClipFallback(t *testing.T) {
	mkOpt := func() *SGD {
		o := NewSGD(0.5) // large LR so clipping actually triggers
		o.Momentum = 0.9
		o.GradClip = 1e-3
		return o
	}
	split, fusedNet := batchTestNet(3), batchTestNet(3)
	runBatchSteps(split, mkOpt(), false, 4)
	runBatchSteps(fusedNet, mkOpt(), true, 4)
	requireParamsEqual(t, split, fusedNet)
}
