package nn

import (
	"fmt"

	"chameleon/internal/tensor"
)

// SGDOf is stochastic gradient descent with classical momentum and decoupled
// L2 weight decay, the optimizer the paper trains with (lr=0.001).
type SGDOf[T tensor.Float] struct {
	LR          float64
	Momentum    float64
	WeightDecay float64
	// GradClip, when positive, rescales each parameter's gradient so its L2
	// norm does not exceed this value. The paper attributes EWC++/LwF's
	// collapse to gradient explosion; clipping is exposed so that behaviour
	// can be studied.
	GradClip float64
	// Fused opts the optimizer into the single-pass fused update kernels
	// (FusedStepParam / layer BackwardSGDBatch): scale, weight decay,
	// momentum, weight update and gradient zeroing happen in one sweep per
	// parameter, bit-identical to the split Scale+StepParam+ZeroGrad sequence.
	// NewSGD enables it; zero-value SGD literals keep the split path.
	// GradClip > 0 always falls back to the split path (clipping needs the
	// whole gradient's norm before any element updates).
	Fused bool

	velocity map[*ParamOf[T]]*tensor.Of[T]
	ws       *tensor.WorkspaceOf[T]
}

// SGD is the fast-tier optimizer.
type SGD = SGDOf[float32]

// SetWorkspace implements WorkspaceUser: clip/decay scratch is borrowed from
// ws instead of cloning the gradient on every step.
func (s *SGDOf[T]) SetWorkspace(ws *tensor.WorkspaceOf[T]) { s.ws = ws }

// NewSGD creates a fast-tier optimizer with the given learning rate, no
// momentum, and the fused update kernels enabled.
func NewSGD(lr float64) *SGD { return NewSGDOf[float32](lr) }

// NewSGDOf creates an optimizer for either precision tier with the given
// learning rate, no momentum, and the fused update kernels enabled.
func NewSGDOf[T tensor.Float](lr float64) *SGDOf[T] {
	return &SGDOf[T]{LR: lr, Fused: true, velocity: map[*ParamOf[T]]*tensor.Of[T]{}}
}

// Step applies one update to every parameter of the layer tree using the
// gradients accumulated since the last ZeroGrads, then leaves the gradients
// untouched (call ZeroGrads before the next accumulation).
func (s *SGDOf[T]) Step(model LayerOf[T]) {
	for _, p := range model.Params() {
		s.StepParam(p)
	}
}

// velocityFor returns the momentum buffer for p, creating it on first use.
func (s *SGDOf[T]) velocityFor(p *ParamOf[T]) *tensor.Of[T] {
	if s.velocity == nil {
		s.velocity = map[*ParamOf[T]]*tensor.Of[T]{}
	}
	v, ok := s.velocity[p]
	if !ok {
		v = tensor.NewOf[T](p.Data.Shape()...)
		s.velocity[p] = v
	}
	return v
}

// StepParam updates a single parameter. Clip and weight decay share one
// scratch tensor borrowed from the workspace (a fresh clone when none is
// attached), returned after the final in-place update.
func (s *SGDOf[T]) StepParam(p *ParamOf[T]) {
	g := p.Grad
	var scratch *tensor.Of[T]
	if s.GradClip > 0 {
		if n := g.Norm2(); n > s.GradClip {
			scratch = s.ws.Get(g.Shape()...)
			scratch.CopyFrom(g)
			scratch.Scale(T(s.GradClip / n))
			g = scratch
		}
	}
	if s.WeightDecay != 0 {
		// L2 penalty folded into the gradient.
		if scratch == nil {
			scratch = s.ws.Get(g.Shape()...)
			scratch.CopyFrom(g)
			g = scratch
		}
		g.AddScaled(T(s.WeightDecay), p.Data)
	}
	if s.Momentum != 0 {
		v := s.velocityFor(p)
		v.Scale(T(s.Momentum))
		v.AddScaled(1, g)
		g = v
	}
	p.Data.AddScaled(T(-s.LR), g)
	s.ws.Put(scratch)
}

// FusedStepParam is the single-pass update kernel for one parameter: in one
// sweep over the weights it scales the accumulated gradient by invScale,
// folds in weight decay, advances momentum, applies the learning-rate update
// and zeroes the gradient for the next accumulation. Bit-identical to
// Grad.Scale(invScale) + StepParam(p) + Grad.Zero(), which is also what it
// runs when GradClip > 0 or Fused is unset.
func (s *SGDOf[T]) FusedStepParam(p *ParamOf[T], invScale T) {
	if s.GradClip > 0 || !s.Fused {
		if invScale != 1 {
			p.Grad.Scale(invScale)
		}
		s.StepParam(p)
		p.Grad.Zero()
		return
	}
	w, gd := p.Data.Data(), p.Grad.Data()
	wdec := T(s.WeightDecay)
	m := T(s.Momentum)
	lrNeg := T(-s.LR)
	var vd []T
	if s.Momentum != 0 {
		vd = s.velocityFor(p).Data()
	}
	for i := range w {
		g := gd[i]
		if invScale != 1 {
			g *= invScale
		}
		if wdec != 0 {
			g += wdec * w[i]
		}
		if vd != nil {
			v := vd[i]
			v *= m
			v += g
			vd[i] = v
			g = v
		}
		w[i] += lrNeg * g
		gd[i] = 0
	}
}

// VelocitySnapshot deep-copies the momentum state aligned with model.Params()
// (zero tensors where a parameter has not been stepped yet). Returns nil when
// the optimizer holds no momentum state at all — the velocity map is keyed by
// parameter pointer, so checkpoints must serialize it positionally.
func (s *SGDOf[T]) VelocitySnapshot(model LayerOf[T]) []*tensor.Of[T] {
	if len(s.velocity) == 0 {
		return nil
	}
	ps := model.Params()
	out := make([]*tensor.Of[T], len(ps))
	for i, p := range ps {
		if v, ok := s.velocity[p]; ok {
			out[i] = v.Clone()
		} else {
			out[i] = tensor.NewOf[T](p.Data.Shape()...)
		}
	}
	return out
}

// SetVelocitySnapshot restores momentum state captured by VelocitySnapshot
// against the same architecture. A nil snapshot clears all momentum; shapes
// are validated before any state is touched.
func (s *SGDOf[T]) SetVelocitySnapshot(model LayerOf[T], vs []*tensor.Of[T]) error {
	if vs == nil {
		s.velocity = map[*ParamOf[T]]*tensor.Of[T]{}
		return nil
	}
	ps := model.Params()
	if len(vs) != len(ps) {
		return fmt.Errorf("nn: velocity snapshot has %d tensors, model has %d params", len(vs), len(ps))
	}
	for i, p := range ps {
		if vs[i] == nil || !vs[i].SameShape(p.Data) {
			return fmt.Errorf("nn: velocity snapshot %d does not match param shape %v", i, p.Data.Shape())
		}
	}
	s.velocity = make(map[*ParamOf[T]]*tensor.Of[T], len(ps))
	for i, p := range ps {
		s.velocity[p] = vs[i].Clone()
	}
	return nil
}
