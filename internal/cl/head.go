package cl

import (
	"fmt"
	"math/rand"
	"time"

	"chameleon/internal/checkpoint"
	"chameleon/internal/mobilenet"
	"chameleon/internal/nn"
	"chameleon/internal/tensor"
)

// Head wraps a trainable head g(·) with its optimizer and exposes the one
// training protocol the continual learners share: every update packs its
// samples into one [B, D] matrix, so each Dense layer runs one GEMM per pass
// (Train, Accumulate). Every learner owns its own Head; the frozen extractor
// is shared via LatentSet.
//
// NewHead's initial weights are written on first use: every method that
// reads or updates them (Net included) runs the pending init first, and
// SetState, which overwrites every parameter, discards it undrawn. A head
// restored before first use — a fleet fault-in, a resumed checkpoint — never
// draws.
type Head struct {
	net *nn.Sequential
	Opt *nn.SGD
	// Classes is the logit width.
	Classes int
	// init writes the initial weights; nil once they are written or
	// overwritten.
	init func()
	// ws is the head's private tensor pool, threaded through every layer and
	// the optimizer. It makes the steady-state train step and eval batch
	// allocation-free. NewHead attaches it; hand-built Heads (struct literals
	// in tests) get one on their first training step, and evaluate through
	// allocating paths until then.
	ws *tensor.Workspace
	// params caches net.Params() — the walk allocates, and ZeroGrad/Step run
	// once per online step.
	params []*nn.Param
	// scratch and zsBuf are reusable packing scratch for the training step; a
	// Head belongs to exactly one learner, so reuse is race-free.
	scratch stepScratch
	zsBuf   []*tensor.Tensor
}

// HeadConfig controls head construction.
type HeadConfig struct {
	// LR is the SGD learning rate (paper: 0.001 at batch 10; the default here
	// is 0.01, re-tuned for the laptop-scale backbone).
	LR float64
	// Momentum is the SGD momentum (default 0).
	Momentum float64
	// WeightDecay is the L2 coefficient (default 0).
	WeightDecay float64
	// Seed drives head initialisation; different seeds = different runs.
	Seed int64
}

// NewHead builds a head matching the backbone's architecture, starting from
// the head of mobilenet.New with the backbone config and cfg.Seed. Only the
// head's layers are built; their initial values are drawn on first use, or
// never if SetState overwrites them first, unless mobilenet.NewHead wrote
// them already.
func NewHead(backbone *mobilenet.Model, cfg HeadConfig) *Head {
	if cfg.LR <= 0 {
		cfg.LR = 0.01
	}
	cfgM := backbone.Cfg
	cfgM.Seed = cfg.Seed
	net, init, err := mobilenet.NewHead(cfgM)
	if err != nil {
		// The backbone config was already validated at construction; a
		// failure here is a programming error.
		panic("cl: building head from validated config failed: " + err.Error())
	}
	opt := nn.NewSGD(cfg.LR)
	opt.Momentum = cfg.Momentum
	opt.WeightDecay = cfg.WeightDecay
	h := &Head{net: net, Opt: opt, Classes: cfgM.NumClasses, init: init}
	h.attachWorkspace()
	h.params = net.Params()
	if init == nil {
		headInits.Add(1)
	}
	return h
}

// initWeights runs the pending init, if any.
func (h *Head) initWeights() {
	if h.init != nil {
		init := h.init
		h.init = nil
		init()
		headInits.Add(1)
	}
}

// Net returns the head's layer chain, with its initial weights written.
func (h *Head) Net() *nn.Sequential {
	h.initWeights()
	return h.net
}

// attachWorkspace gives the head its private tensor pool.
func (h *Head) attachWorkspace() {
	h.ws = tensor.NewWorkspace()
	nn.AttachWorkspace(h.net, h.ws)
	h.Opt.SetWorkspace(h.ws)
}

// Workspace exposes the head's tensor pool (nil for a hand-built head that
// has not trained yet). It is single-owner: only the goroutine driving this
// head may touch it.
func (h *Head) Workspace() *tensor.Workspace { return h.ws }

// paramList returns the parameter list, walking the layer tree only once. It
// leaves a pending init pending; Params is the initialising accessor.
func (h *Head) paramList() []*nn.Param {
	if h.params == nil {
		h.params = h.net.Params()
	}
	return h.params
}

// Logits runs the head in eval mode.
func (h *Head) Logits(z *tensor.Tensor) *tensor.Tensor {
	h.initWeights()
	return h.net.Forward(z, false)
}

// Predict returns the argmax class.
func (h *Head) Predict(z *tensor.Tensor) int { return h.Logits(z).ArgMax() }

// Probs returns softmax probabilities.
func (h *Head) Probs(z *tensor.Tensor) *tensor.Tensor { return tensor.Softmax(h.Logits(z)) }

// LogitsBatch runs the head in eval mode over a slice of latents at once,
// returning an [N, Classes] logit matrix borrowed from the head's workspace
// (PredictBatch puts it back; other callers should too). When every layer
// supports the batched protocol the whole pool flows through one GEMM per
// Dense layer; mixed chains (conv tails) fall back to per-sample Forwards
// into the same matrix. Either way each row is bit-identical to Logits on
// that sample: the batched kernels preserve the per-sample accumulation
// order exactly.
func (h *Head) LogitsBatch(zs []*tensor.Tensor) *tensor.Tensor {
	h.initWeights()
	n := len(zs)
	layers := h.net.Layers
	var x *tensor.Tensor
	start := 0
	if len(layers) > 0 && n > 0 {
		if _, ok := layers[0].(*nn.GlobalAvgPool2D); ok && zs[0].NDim() == 3 {
			x = h.ws.Get(n, zs[0].Dim(0))
			tensor.GlobalAvgPoolRowsInto(x, zs)
			start = 1
		}
	}
	if x == nil {
		if n == 0 || zs[0].NDim() != 1 {
			return h.logitsBatchFallback(zs)
		}
		d := zs[0].Len()
		x = h.ws.Get(n, d)
		xd := x.Data()
		for i, z := range zs {
			copy(xd[i*d:(i+1)*d], z.Data())
		}
	}
	for _, l := range layers[start:] {
		bl, ok := l.(nn.BatchLayer)
		if !ok {
			h.ws.Put(x)
			return h.logitsBatchFallback(zs)
		}
		if y := bl.ForwardBatch(x, h.ws); y != x {
			h.ws.Put(x)
			x = y
		}
	}
	return x
}

// logitsBatchFallback evaluates sample by sample into one output matrix.
func (h *Head) logitsBatchFallback(zs []*tensor.Tensor) *tensor.Tensor {
	out := h.ws.Get(len(zs), h.Classes)
	od := out.Data()
	for i, z := range zs {
		copy(od[i*h.Classes:(i+1)*h.Classes], h.Logits(z).Data())
	}
	return out
}

// PredictBatch classifies zs into out[:len(zs)] via the batched eval path.
func (h *Head) PredictBatch(zs []*tensor.Tensor, out []int) {
	if len(zs) == 0 {
		return
	}
	defer headPredictBatch.ObserveSince(time.Now())
	logits := h.LogitsBatch(zs)
	logits.ArgMaxRowsInto(out[:len(zs)])
	h.ws.Put(logits)
}

// ZeroGrad clears accumulated gradients.
func (h *Head) ZeroGrad() {
	for _, p := range h.Params() {
		p.ZeroGrad()
	}
}

// Train performs one complete SGD step over the samples under a per-row
// objective (see LossOf): the batch packs into one [B, D] matrix, runs one
// batched forward, turns its [B, C] logits into one gradient matrix and
// walks one batched backward with the update folded in, averaging over B.
// Every learner trains through here, B = 1 included. Returns the mean
// row-weighted loss.
func (h *Head) Train(samples []LatentSample, loss Loss) float64 {
	if len(samples) == 0 {
		return 0
	}
	defer observeTrainStep(time.Now(), len(samples))
	h.ZeroGrad()
	x, start := h.pack(samples)
	return trainStep(h.net, h.Opt, h.ws, x, start, loss, &h.scratch) / float64(len(samples))
}

// Accumulate is Train without the update: the batch's summed gradient is
// added to the parameters' Grad (not cleared first), for learners that edit
// gradients before their own Step — EWC's penalty, GSS's gradient sketch.
// Returns the summed row-weighted loss.
func (h *Head) Accumulate(samples []LatentSample, loss Loss) float64 {
	if len(samples) == 0 {
		return 0
	}
	h.initWeights()
	x, start := h.pack(samples)
	return trainStep(h.net, nil, h.ws, x, start, loss, &h.scratch)
}

// TrainCEOn is Train with unit-weight cross-entropy on every sample, the
// common "interleave incoming and replay" update.
func (h *Head) TrainCEOn(samples []LatentSample) float64 {
	return h.Train(samples, Loss{})
}

// pack lays the samples out as the step's input matrix, borrowed from the
// head's workspace (attached here on a hand-built head's first step), fills
// the label scratch, and returns the layer the matrix enters. GAP-first
// heads pool each [C,H,W] latent straight into its row.
func (h *Head) pack(samples []LatentSample) (*tensor.Tensor, int) {
	if h.ws == nil {
		h.attachWorkspace()
	}
	start := batchStart(h.net, samples)
	h.scratch.setLabels(samples)
	n := len(samples)
	if start == 1 {
		zs := resize(h.zsBuf, n)
		for i, s := range samples {
			zs[i] = s.Z
		}
		h.zsBuf = zs
		x := h.ws.Get(n, samples[0].Z.Dim(0))
		tensor.GlobalAvgPoolRowsInto(x, zs)
		return x, start
	}
	d := samples[0].Z.Len()
	x := h.ws.Get(n, d)
	xd := x.Data()
	for i, s := range samples {
		copy(xd[i*d:(i+1)*d], s.Z.Data())
	}
	return x, start
}

// Step applies the optimizer with gradients scaled by 1/denom (denom ≤ 0 is
// treated as 1), then clears them. With a fused-capable optimizer (NewSGD
// default, no grad clipping) the scale/update/zero triple runs as one sweep
// per parameter; otherwise FusedStepParam runs the bit-identical split
// sequence.
func (h *Head) Step(denom float64) {
	inv := float32(1)
	if denom > 0 && denom != 1 {
		inv = float32(1 / denom)
	}
	for _, p := range h.Params() {
		h.Opt.FusedStepParam(p, inv)
	}
}

// Params returns the head's trainable parameters, with their initial values
// written.
func (h *Head) Params() []*nn.Param {
	h.initWeights()
	return h.paramList()
}

// Snapshot deep-copies the current parameter values (for LwF teachers, EWC
// anchors, ...). The returned tensors are ordered like Params.
func (h *Head) Snapshot() []*tensor.Tensor {
	ps := h.Params()
	out := make([]*tensor.Tensor, len(ps))
	for i, p := range ps {
		out[i] = p.Data.Clone()
	}
	return out
}

// Restore loads parameter values captured by Snapshot.
func (h *Head) Restore(snap []*tensor.Tensor) {
	ps := h.Params()
	for i, p := range ps {
		p.Data.CopyFrom(snap[i])
	}
}

// HeadState is the complete trainable state of a Head: parameter values plus
// the optimizer's momentum buffers (Velocity is nil when no momentum state
// has accumulated). Both slices are ordered like Params, so the state is
// positional and survives serialization.
type HeadState struct {
	Params   []*tensor.Tensor
	Velocity []*tensor.Tensor
}

// State deep-copies the head's full trainable state for checkpointing.
// Unlike Snapshot it includes the optimizer's momentum, which changes the
// next update — resuming without it would diverge from the uninterrupted run.
func (h *Head) State() HeadState {
	return HeadState{Params: h.Snapshot(), Velocity: h.Opt.VelocitySnapshot(h.net)}
}

// SetState restores state captured by State against an identically shaped
// head. All shapes are validated before any parameter is touched. It
// overwrites every parameter and momentum buffer, so a pending init is
// discarded without drawing.
func (h *Head) SetState(st HeadState) error {
	ps := h.paramList()
	if len(st.Params) != len(ps) {
		return fmt.Errorf("cl: head state has %d param tensors, head has %d", len(st.Params), len(ps))
	}
	for i, p := range ps {
		if st.Params[i] == nil || !st.Params[i].SameShape(p.Data) {
			return fmt.Errorf("cl: head state param %d does not match shape %v", i, p.Data.Shape())
		}
	}
	if err := h.Opt.SetVelocitySnapshot(h.net, st.Velocity); err != nil {
		return err
	}
	for i, p := range ps {
		p.Data.CopyFrom(st.Params[i])
	}
	h.init = nil
	return nil
}

// RNG derives a deterministic RNG stream for learner-internal randomness.
func RNG(seed int64, salt int64) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + salt))
}

// RNGSource is RNG with a checkpointable source: the returned rand.Rand draws
// from the counting Source, whose position can be saved and fast-forwarded on
// resume. The seed derivation (and therefore the bit stream) is identical to
// RNG's.
func RNGSource(seed int64, salt int64) (*rand.Rand, *checkpoint.Source) {
	src := checkpoint.NewSource(seed*1_000_003 + salt)
	return rand.New(src), src
}
