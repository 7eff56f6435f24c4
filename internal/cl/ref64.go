package cl

import (
	"fmt"

	"chameleon/internal/nn"
	"chameleon/internal/tensor"
)

// Ref64 is the float64 reference-tier learner: a finetune-style head trained
// in double precision on the same latent stream the fast tier sees. It exists
// to bound the fast tier's accumulated rounding error — the fp32 kernels are
// the product, the fp64 run is the measuring stick (chameleon-train
// -precision fp64 -method finetune). Like every learner it is single-owner:
// Observe and Predict run on the trainer goroutine only.
type Ref64 struct {
	Net *nn.SequentialOf[float64]
	Opt *nn.SGDOf[float64]
	// Classes is the logit width.
	Classes int
	ws      *tensor.WorkspaceOf[float64]
	zBuf    *tensor.Tensor64 // widened-latent scratch
	grad    *tensor.Tensor64 // logit-gradient scratch
	params  []*nn.ParamOf[float64]
	// Batched opts the reference tier into the fast tier's batched training
	// step through the same serial float64 kernels. Off by default — the
	// per-sample loop is the auditable reference — and when on, every step is
	// bit-identical to the per-sample run: each parameter-gradient element
	// accumulates over samples in ascending stream order either way.
	Batched bool
	// scratch is reusable packing scratch for the batched path.
	scratch stepScratch
}

// NewRef64 widens a fast-tier head into an independent float64 learner. The
// widened net starts from bit-exact copies of the head's current weights (an
// fp32 value is exactly representable in fp64), so a fresh head yields a
// fresh reference run with the same initialisation. Heads whose net cannot be
// widened (stateful Dropout) are rejected.
func NewRef64(h *Head) (*Ref64, error) {
	wide, err := nn.WidenLayer(h.Net())
	if err != nil {
		return nil, fmt.Errorf("cl: widening head for the fp64 reference tier: %w", err)
	}
	net, ok := wide.(*nn.SequentialOf[float64])
	if !ok {
		return nil, fmt.Errorf("cl: widened head is %T, want sequential", wide)
	}
	opt := nn.NewSGDOf[float64](h.Opt.LR)
	opt.Momentum = h.Opt.Momentum
	opt.WeightDecay = h.Opt.WeightDecay
	opt.GradClip = h.Opt.GradClip
	// The reference tier always runs the split (scale → step → zero) update
	// path: it is the measuring stick, not the product, so it favours the
	// straightforward kernels. Since split and fused are bit-identical
	// (TestFusedStepBitIdentity*), this also makes the fp32↔fp64 parity test a
	// cross-check of the fast tier's fused fold rather than fused-vs-fused.
	opt.Fused = false
	r := &Ref64{Net: net, Opt: opt, Classes: h.Classes, ws: tensor.NewWorkspaceOf[float64]()}
	nn.AttachWorkspaceOf(r.Net, r.ws)
	opt.SetWorkspace(r.ws)
	r.params = r.Net.Params()
	return r, nil
}

// Name implements Learner.
func (r *Ref64) Name() string { return "finetune-fp64" }

// widen copies a fast-tier latent into the reusable float64 scratch.
func (r *Ref64) widen(z *tensor.Tensor) *tensor.Tensor64 {
	if r.zBuf == nil || r.zBuf.Len() != z.Len() {
		r.zBuf = tensor.NewOf[float64](z.Shape()...)
	}
	zd, wd := z.Data(), r.zBuf.Data()
	for i, v := range zd {
		wd[i] = float64(v)
	}
	return r.zBuf
}

// Observe implements Learner: one averaged cross-entropy step over the batch
// through the double-precision kernels — per sample, then the split update,
// unless Batched routes it through the shared batched step.
func (r *Ref64) Observe(b LatentBatch) {
	n := len(b.Samples)
	if n == 0 {
		return
	}
	for _, p := range r.params {
		p.ZeroGrad()
	}
	if r.Batched {
		x, start := r.pack(b.Samples)
		trainStep(r.Net, r.Opt, r.ws, x, start, LossOf[float64]{}, &r.scratch)
		return
	}
	for _, s := range b.Samples {
		logits := r.Net.Forward(r.widen(s.Z), true)
		if r.grad == nil || r.grad.Len() != logits.Len() {
			r.grad = tensor.NewOf[float64](logits.Len())
		}
		nn.CrossEntropyInto(logits, s.Label, r.grad)
		r.Net.Backward(r.grad)
	}
	for _, p := range r.params {
		if n > 1 {
			p.Grad.Scale(1 / float64(n))
		}
		r.Opt.StepParam(p)
		p.ZeroGrad()
	}
}

// pack is the reference tier's Head.pack: each latent is widened into its
// row of the batch matrix, and GAP-first heads pool with the exact serial
// loop of GlobalAvgPoolInto — ascending-element sums, bit-identical to the
// per-sample GAP forward on the widened tensor.
func (r *Ref64) pack(samples []LatentSample) (*tensor.Tensor64, int) {
	start := batchStart(r.Net, samples)
	r.scratch.setLabels(samples)
	n := len(samples)
	if start == 1 {
		c := samples[0].Z.Dim(0)
		x := r.ws.Get(n, c)
		xd := x.Data()
		for i, s := range samples {
			zd := r.widen(s.Z).Data()
			hh, ww := s.Z.Dim(1), s.Z.Dim(2)
			inv := 1 / float64(hh*ww)
			row := xd[i*c : (i+1)*c]
			for ci := 0; ci < c; ci++ {
				var sum float64
				for _, v := range zd[ci*hh*ww : (ci+1)*hh*ww] {
					sum += v
				}
				row[ci] = sum * inv
			}
		}
		return x, start
	}
	d := samples[0].Z.Len()
	x := r.ws.Get(n, d)
	xd := x.Data()
	for i, s := range samples {
		row := xd[i*d : (i+1)*d]
		for j, v := range s.Z.Data() {
			row[j] = float64(v)
		}
	}
	return x, start
}

// Predict implements Learner.
func (r *Ref64) Predict(z *tensor.Tensor) int {
	return r.Net.Forward(r.widen(z), false).ArgMax()
}

// Logits runs a forward pass and returns the double-precision logits (a live
// reusable buffer, valid until the next call).
func (r *Ref64) Logits(z *tensor.Tensor) *tensor.Tensor64 {
	return r.Net.Forward(r.widen(z), false)
}
