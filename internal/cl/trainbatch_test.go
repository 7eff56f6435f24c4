package cl

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"chameleon/internal/nn"
	"chameleon/internal/parallel"
	"chameleon/internal/tensor"
)

// trainChunks slices samples into batches of size b (last one may be short).
func trainChunks(samples []LatentSample, b int) [][]LatentSample {
	var out [][]LatentSample
	for lo := 0; lo < len(samples); lo += b {
		hi := lo + b
		if hi > len(samples) {
			hi = len(samples)
		}
		out = append(out, samples[lo:hi])
	}
	return out
}

// maxParamDiff returns the largest absolute element-wise parameter difference
// between two heads.
func maxParamDiff(a, b *Head) float64 {
	pa, pb := a.Params(), b.Params()
	var max float64
	for i := range pa {
		da, db := pa[i].Data.Data(), pb[i].Data.Data()
		for j := range da {
			if d := math.Abs(float64(da[j]) - float64(db[j])); d > max {
				max = d
			}
		}
	}
	return max
}

// paramsEqual reports bit-exact parameter equality between two heads.
func paramsEqual(a, b *Head) bool {
	pa, pb := a.Params(), b.Params()
	for i := range pa {
		da, db := pa[i].Data.Data(), pb[i].Data.Data()
		for j := range da {
			if da[j] != db[j] {
				return false
			}
		}
	}
	return true
}

// perSampleCE is the per-sample reference the batched step replaces: one
// train-mode Forward, CrossEntropyInto and Layer.Backward per sample, then a
// Step averaging over the batch. Returns the mean loss.
func perSampleCE(h *Head, samples []LatentSample) float64 {
	h.ZeroGrad()
	var loss float64
	for _, s := range samples {
		logits := h.Net().Forward(s.Z, true)
		g := tensor.New(logits.Len())
		loss += nn.CrossEntropyInto(logits, s.Label, g)
		h.Net().Backward(g)
	}
	h.Step(float64(len(samples)))
	return loss / float64(len(samples))
}

// TestTrainBatchedMatchesPerSampleFP32 is the fast-tier equivalence contract:
// the batched training step must track the per-sample reference within fp32
// rounding tolerance (the batched forward GEMM accumulates through a strictly
// serial chain while the per-sample GEMV reassociates four-way, so
// bit-identity is not expected — closeness and matching decisions are),
// across optimizer configurations and worker counts.
func TestTrainBatchedMatchesPerSampleFP32(t *testing.T) {
	defer parallel.SetWorkers(0)
	set := testEnv(t)
	configs := []struct {
		name     string
		cfg      HeadConfig
		gradClip float64
	}{
		{name: "plain", cfg: HeadConfig{Seed: 3}},
		{name: "momentum", cfg: HeadConfig{Seed: 3, Momentum: 0.9}},
		{name: "weight-decay", cfg: HeadConfig{Seed: 3, WeightDecay: 1e-4}},
		{name: "grad-clip-split", cfg: HeadConfig{Seed: 3}, gradClip: 1},
	}
	for _, w := range []int{1, 8} {
		parallel.SetWorkers(w)
		for _, tc := range configs {
			hb := NewHead(set.Backbone, tc.cfg)
			hs := NewHead(set.Backbone, tc.cfg)
			hb.Opt.GradClip = tc.gradClip
			hs.Opt.GradClip = tc.gradClip
			for step, batch := range trainChunks(set.Train, 8) {
				lb := hb.TrainCEOn(batch)
				ls := perSampleCE(hs, batch)
				if d := math.Abs(lb - ls); d > 1e-3 {
					t.Fatalf("workers=%d %s step %d: batched loss %.6f vs per-sample %.6f (|Δ| %.2e)",
						w, tc.name, step, lb, ls, d)
				}
			}
			if d := maxParamDiff(hb, hs); d > 5e-3 {
				t.Errorf("workers=%d %s: max param diff %.2e after training", w, tc.name, d)
			}
			flips := 0
			for _, s := range set.Test {
				if hb.Predict(s.Z) != hs.Predict(s.Z) {
					flips++
				}
			}
			if flips > 1 {
				t.Errorf("workers=%d %s: %d/%d test predictions differ between paths",
					w, tc.name, flips, len(set.Test))
			}
		}
	}
}

// TestTrainBatchedSingleSampleBitIdentical pins the B=1 contract: a
// one-sample step takes the same batched path as any other. On the fp64
// reference tier that path is bit-identical to the per-sample loop; on the
// fast tier it tracks the per-sample reference within rounding.
func TestTrainBatchedSingleSampleBitIdentical(t *testing.T) {
	set := testEnv(t)
	h := NewHead(set.Backbone, HeadConfig{Seed: 4, Momentum: 0.5})
	serial, err := NewRef64(h)
	if err != nil {
		t.Fatal(err)
	}
	batched, err := NewRef64(h)
	if err != nil {
		t.Fatal(err)
	}
	batched.Batched = true
	hb := NewHead(set.Backbone, HeadConfig{Seed: 4, Momentum: 0.5})
	hs := NewHead(set.Backbone, HeadConfig{Seed: 4, Momentum: 0.5})
	for i, s := range set.Train[:8] {
		one := []LatentSample{s}
		serial.Observe(LatentBatch{Samples: one})
		batched.Observe(LatentBatch{Samples: one})
		if !ref64ParamsEqual(serial, batched) {
			t.Fatalf("fp64 B=1 step %d diverged bitwise from the per-sample loop", i)
		}
		if lb, ls := hb.TrainCEOn(one), perSampleCE(hs, one); math.Abs(lb-ls) > 1e-4 {
			t.Fatalf("fp32 B=1 step %d: batched loss %v vs per-sample %v", i, lb, ls)
		}
	}
	if d := maxParamDiff(hb, hs); d > 1e-4 {
		t.Fatalf("fp32 B=1 training drifted %.2e from the per-sample reference", d)
	}
}

// TestTrainBatchedEmptyAndRagged covers the packing edge cases: empty
// batches are no-ops, latents whose spatial extents differ (same channel
// count) still pack through the pooling kernel, and latents that cannot
// share a matrix are a loud programming error rather than a silent
// fallback.
func TestTrainBatchedEmptyAndRagged(t *testing.T) {
	set := testEnv(t)
	hb := NewHead(set.Backbone, HeadConfig{Seed: 6})
	hs := NewHead(set.Backbone, HeadConfig{Seed: 6})
	if loss := hb.TrainCEOn(nil); loss != 0 {
		t.Fatalf("empty batch loss = %v, want 0", loss)
	}
	if loss := hb.TrainCEOn([]LatentSample{}); loss != 0 {
		t.Fatalf("empty batch loss = %v, want 0", loss)
	}
	// Reshape alternate latents from [C,H,W] to [C,H*W,1]: the same data pools
	// to the same mean, but the batch is now spatially ragged.
	ragged := make([]LatentSample, 8)
	for i, s := range set.Train[:8] {
		ragged[i] = s
		if i%2 == 1 {
			c, h, w := s.Z.Dim(0), s.Z.Dim(1), s.Z.Dim(2)
			z := tensor.New(c, h*w, 1)
			copy(z.Data(), s.Z.Data())
			ragged[i].Z = z
		}
	}
	lb := hb.TrainCEOn(ragged)
	ls := perSampleCE(hs, ragged)
	if d := math.Abs(lb - ls); d > 1e-3 {
		t.Fatalf("ragged batch losses diverge: %.6f vs %.6f", lb, ls)
	}
	if d := maxParamDiff(hb, hs); d > 5e-3 {
		t.Errorf("ragged batch: max param diff %.2e", d)
	}
	// A flat latent cannot share a matrix with [C,H,W] ones.
	bad := []LatentSample{set.Train[0], {Z: tensor.New(set.Train[0].Z.Len()), Label: 0}}
	defer func() {
		if p := recover(); p == nil || !strings.Contains(p.(string), "do not pack") {
			t.Fatalf("mismatched latents: panic %v, want a packing error", p)
		}
	}()
	hb.TrainCEOn(bad)
}

// TestTrainBatchedHandBuiltHeadGetsWorkspace pins the struct-literal case: a
// head built without NewHead has no tensor pool, so its first training step
// attaches one and trains on the same batched path, tracking an explicit
// per-sample twin.
func TestTrainBatchedHandBuiltHeadGetsWorkspace(t *testing.T) {
	build := func() *Head {
		rng := rand.New(rand.NewSource(42))
		net := nn.NewSequential("head",
			nn.NewDense("fc1", 6, 8, rng), nn.NewReLU(), nn.NewDense("fc2", 8, 3, rng))
		return &Head{net: net, Opt: nn.NewSGD(0.1), Classes: 3}
	}
	hb, hs := build(), build()
	rng := rand.New(rand.NewSource(7))
	var samples []LatentSample
	for i := 0; i < 12; i++ {
		z := tensor.New(6)
		for j := range z.Data() {
			z.Data()[j] = rng.Float32()
		}
		samples = append(samples, LatentSample{Z: z, Label: i % 3})
	}
	for _, batch := range trainChunks(samples, 4) {
		if lb, ls := hb.TrainCEOn(batch), perSampleCE(hs, batch); math.Abs(lb-ls) > 1e-5 {
			t.Fatalf("hand-built head losses diverge: %v vs %v", lb, ls)
		}
	}
	if hb.Workspace() == nil {
		t.Fatal("training did not attach a workspace to the hand-built head")
	}
	if d := maxParamDiff(hb, hs); d > 1e-5 {
		t.Fatalf("hand-built head drifted %.2e from the per-sample twin", d)
	}
}

// TestTrainBatchedCheckpointResume pins determinism across a mid-run
// State/SetState round trip: resuming a batched run and continuing must land
// bit-identical to the uninterrupted run.
func TestTrainBatchedCheckpointResume(t *testing.T) {
	set := testEnv(t)
	a := NewHead(set.Backbone, HeadConfig{Seed: 17, Momentum: 0.5})
	batches := trainChunks(set.Train, 8)
	for _, b := range batches[:2] {
		a.TrainCEOn(b)
	}
	snap := a.State()
	for _, b := range batches[2:] {
		a.TrainCEOn(b)
	}
	resumed := NewHead(set.Backbone, HeadConfig{Seed: 17, Momentum: 0.5})
	if err := resumed.SetState(snap); err != nil {
		t.Fatal(err)
	}
	for _, b := range batches[2:] {
		resumed.TrainCEOn(b)
	}
	if !paramsEqual(a, resumed) {
		t.Fatal("resumed batched run diverged from the uninterrupted run")
	}
	for _, s := range set.Test {
		if a.Predict(s.Z) != resumed.Predict(s.Z) {
			t.Fatal("resumed batched run predicts differently")
		}
	}
}

// ref64ParamsEqual compares two reference-tier learners bit for bit.
func ref64ParamsEqual(a, b *Ref64) bool {
	pa, pb := a.Net.Params(), b.Net.Params()
	for i := range pa {
		da, db := pa[i].Data.Data(), pb[i].Data.Data()
		for j := range da {
			if da[j] != db[j] {
				return false
			}
		}
	}
	return true
}

// TestRef64BatchedBitIdentity is the reference-tier contract: the fp64 batched
// path accumulates every parameter-gradient element over samples in the same
// ascending stream order as the per-sample loop, so a batched Ref64 must stay
// bit-identical to a per-sample Ref64 — at every worker count, with and
// without momentum.
func TestRef64BatchedBitIdentity(t *testing.T) {
	defer parallel.SetWorkers(0)
	set := testEnv(t)
	for _, w := range []int{1, 8} {
		for _, mom := range []float64{0, 0.9} {
			parallel.SetWorkers(w)
			h := NewHead(set.Backbone, HeadConfig{Seed: 7, Momentum: mom})
			serial, err := NewRef64(h)
			if err != nil {
				t.Fatal(err)
			}
			batched, err := NewRef64(h)
			if err != nil {
				t.Fatal(err)
			}
			batched.Batched = true
			if !batched.Net.SupportsBatchTrain(1) {
				t.Fatal("widened test head does not support the batched protocol")
			}
			for step, b := range trainChunks(set.Train, 8) {
				serial.Observe(LatentBatch{Samples: b})
				batched.Observe(LatentBatch{Samples: b})
				if !ref64ParamsEqual(serial, batched) {
					t.Fatalf("workers=%d momentum=%v: fp64 params diverge after step %d", w, mom, step)
				}
			}
			for i, s := range set.Test {
				if serial.Predict(s.Z) != batched.Predict(s.Z) {
					t.Fatalf("workers=%d momentum=%v: fp64 prediction %d diverges", w, mom, i)
				}
			}
		}
	}
}

// TestMixedLossStepBitIdentityFP64 is the reference-tier contract of the
// per-row objective: a DER-shaped batched step — cross-entropy rows, logit-MSE
// rows of weight α and cross-entropy rows of weight β, one loss per row — on
// a float64 chain must be bit-identical to the per-sample loop it replaces:
// each row's weighted gradient through Layer.Backward, accumulated in stream
// order, then the split scale/step/zero update. The batched arm runs both the
// split and the fused update (they are bit-identical too).
func TestMixedLossStepBitIdentityFP64(t *testing.T) {
	const d, classes, n, alpha, beta = 6, 3, 9, 0.5, 0.25
	widen := func() *nn.SequentialOf[float64] {
		rng := rand.New(rand.NewSource(11))
		w, err := nn.WidenLayer(nn.NewSequential("head",
			nn.NewDense("fc1", d, 8, rng), nn.NewReLU(), nn.NewDense("fc2", 8, classes, rng)))
		if err != nil {
			t.Fatal(err)
		}
		return w.(*nn.SequentialOf[float64])
	}
	rng := rand.New(rand.NewSource(12))
	samples := make([]LatentSample, n)
	rows := make([]LossRowOf[float64], n)
	for i := range samples {
		z := tensor.New(d)
		for j := range z.Data() {
			z.Data()[j] = float32(rng.NormFloat64())
		}
		samples[i] = LatentSample{Z: z, Label: i % classes}
		switch {
		case i < n/3:
			rows[i] = LossRowOf[float64]{CE: 1}
		case i < 2*n/3:
			target := tensor.New64(classes)
			for j := range target.Data() {
				target.Data()[j] = rng.NormFloat64()
			}
			rows[i] = LossRowOf[float64]{Aux: alpha, Target: target}
		default:
			rows[i] = LossRowOf[float64]{CE: beta}
		}
	}
	newOpt := func(fused bool) *nn.SGDOf[float64] {
		opt := nn.NewSGDOf[float64](0.1)
		opt.Momentum, opt.Fused = 0.9, fused
		return opt
	}
	for _, fused := range []bool{false, true} {
		ref, refOpt := widen(), newOpt(false)
		net, opt := widen(), newOpt(fused)
		ws := tensor.NewWorkspaceOf[float64]()
		nn.AttachWorkspaceOf(net, ws)
		opt.SetWorkspace(ws)
		var sc stepScratch
		for step := 0; step < 4; step++ {
			// Per-sample reference.
			grad := tensor.New64(classes)
			for i, s := range samples {
				logits := ref.Forward(tensor.Widen(s.Z), true)
				w := rows[i].CE
				if rows[i].Target != nil {
					nn.MSELogitsInto(logits, rows[i].Target, grad)
					w = rows[i].Aux
				} else {
					nn.CrossEntropyInto(logits, s.Label, grad)
				}
				if w != 1 {
					grad.Scale(w)
				}
				ref.Backward(grad)
			}
			for _, p := range ref.Params() {
				p.Grad.Scale(1 / float64(n))
				refOpt.StepParam(p)
				p.ZeroGrad()
			}
			// Batched step.
			x := ws.Get(n, d)
			for i, s := range samples {
				for j, v := range s.Z.Data() {
					x.Data()[i*d+j] = float64(v)
				}
			}
			sc.setLabels(samples)
			trainStep(net, opt, ws, x, 0, LossOf[float64]{Rows: rows}, &sc)
			pr, pb := ref.Params(), net.Params()
			for i := range pr {
				for j, v := range pr[i].Data.Data() {
					if got := pb[i].Data.Data()[j]; got != v {
						t.Fatalf("fused=%v step %d: param %s[%d] = %v, per-sample reference %v",
							fused, step, pr[i].Name, j, got, v)
					}
				}
			}
		}
	}
}
