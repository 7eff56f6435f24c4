// Package nn is a compact neural-network training framework: explicit-layer
// forward/backward propagation, SGD with momentum and weight decay, and the
// loss functions used by the continual-learning methods in this repository
// (cross-entropy, soft-target distillation, logit MSE).
//
// The design is a deliberate substitute for the PyTorch stack the paper uses:
// layers cache what their backward pass needs, and a Sequential chains them.
// Batch processing is done one sample at a time internally (NCHW without the
// N), matching the paper's online single-sample training regime.
//
// Every layer is generic over tensor.Float. The float32 instantiations carry
// their historical names (Dense = DenseOf[float32], ...) and are the fast
// tier all hot paths use; float64 instantiations form the reference tier,
// built by widening a float32 net with WidenLayer (see convert.go).
package nn

import "chameleon/internal/tensor"

// ParamOf is a trainable parameter with its accumulated gradient.
type ParamOf[T tensor.Float] struct {
	Name string
	Data *tensor.Of[T]
	Grad *tensor.Of[T]
}

// Param is the fast-tier parameter type.
type Param = ParamOf[float32]

// ZeroGrad clears the accumulated gradient.
func (p *ParamOf[T]) ZeroGrad() { p.Grad.Zero() }

// Numel returns the number of scalar weights in the parameter.
func (p *ParamOf[T]) Numel() int { return p.Data.Len() }

// LayerOf is one differentiable stage. Forward consumes a single-sample input
// and returns the output; Backward consumes the gradient of the loss with
// respect to the output and returns the gradient with respect to the input,
// accumulating parameter gradients along the way. Backward must be called
// only after a Forward in train mode, whose intermediate values the layer
// caches.
type LayerOf[T tensor.Float] interface {
	// Name returns a short human-readable identifier.
	Name() string
	// Forward runs the layer. train selects training behaviour (caching of
	// intermediates).
	Forward(x *tensor.Of[T], train bool) *tensor.Of[T]
	// Backward back-propagates grad through the most recent training Forward.
	Backward(grad *tensor.Of[T]) *tensor.Of[T]
	// Params returns the trainable parameters (possibly none).
	Params() []*ParamOf[T]
	// OutShape returns the output shape for a given input shape.
	OutShape(in []int) []int
}

// Layer is the fast-tier layer interface.
type Layer = LayerOf[float32]

// FrozenOf wraps a layer so its parameters are hidden from optimizers and its
// backward pass still propagates input gradients (needed when frozen layers
// sit between trainable ones).
type FrozenOf[T tensor.Float] struct{ Inner LayerOf[T] }

// Frozen is the fast-tier frozen wrapper.
type Frozen = FrozenOf[float32]

// Name implements Layer.
func (f *FrozenOf[T]) Name() string { return "frozen(" + f.Inner.Name() + ")" }

// Forward implements Layer.
func (f *FrozenOf[T]) Forward(x *tensor.Of[T], train bool) *tensor.Of[T] {
	return f.Inner.Forward(x, train)
}

// Backward implements Layer.
func (f *FrozenOf[T]) Backward(grad *tensor.Of[T]) *tensor.Of[T] { return f.Inner.Backward(grad) }

// Params implements Layer: a frozen layer exposes no trainable parameters.
func (f *FrozenOf[T]) Params() []*ParamOf[T] { return nil }

// OutShape implements Layer.
func (f *FrozenOf[T]) OutShape(in []int) []int { return f.Inner.OutShape(in) }

// SequentialOf chains layers. It is itself a layer.
type SequentialOf[T tensor.Float] struct {
	Label  string
	Layers []LayerOf[T]

	// bwStop caches the bottom-most parameterized layer index for
	// BackwardSGDBatchFrom (Params() allocates, so the scan must not run every
	// step). bwStopKey holds start+1; the zero value means "not yet computed".
	bwStopKey, bwStop int
}

// Sequential is the fast-tier layer chain.
type Sequential = SequentialOf[float32]

// NewSequential builds a fast-tier Sequential with the given label and layers.
func NewSequential(label string, layers ...Layer) *Sequential {
	return &Sequential{Label: label, Layers: layers}
}

// Name implements Layer.
func (s *SequentialOf[T]) Name() string { return s.Label }

// Forward implements Layer.
func (s *SequentialOf[T]) Forward(x *tensor.Of[T], train bool) *tensor.Of[T] {
	for _, l := range s.Layers {
		x = l.Forward(x, train)
	}
	return x
}

// Backward implements Layer.
func (s *SequentialOf[T]) Backward(grad *tensor.Of[T]) *tensor.Of[T] {
	for i := len(s.Layers) - 1; i >= 0; i-- {
		grad = s.Layers[i].Backward(grad)
	}
	return grad
}

// Params implements Layer.
func (s *SequentialOf[T]) Params() []*ParamOf[T] {
	var ps []*ParamOf[T]
	for _, l := range s.Layers {
		ps = append(ps, l.Params()...)
	}
	return ps
}

// OutShape implements Layer.
func (s *SequentialOf[T]) OutShape(in []int) []int {
	for _, l := range s.Layers {
		in = l.OutShape(in)
	}
	return in
}

// Append adds layers to the end of the chain.
func (s *SequentialOf[T]) Append(layers ...LayerOf[T]) { s.Layers = append(s.Layers, layers...) }

// NumParams returns the total scalar parameter count.
func NumParams(l Layer) int {
	n := 0
	for _, p := range l.Params() {
		n += p.Numel()
	}
	return n
}

// ZeroGrads clears all parameter gradients of a layer tree.
func ZeroGrads(l Layer) {
	for _, p := range l.Params() {
		p.ZeroGrad()
	}
}
