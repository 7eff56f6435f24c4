package nn

import "chameleon/internal/tensor"

// ReLUOf applies max(0, x). With a positive Cap it becomes ReLU-N (e.g.
// ReLU6, MobileNet's activation).
type ReLUOf[T tensor.Float] struct {
	Cap  T      // 0 means unbounded
	mask []bool // true where the gradient passes
	// y and gx are reusable output buffers: gx always (backward is train-only
	// and single-owner), y on the train path always and on the eval path once
	// a workspace is attached (workspace-free eval must stay mutation-free).
	y, gx *tensor.Of[T]
	ws    *tensor.WorkspaceOf[T]
}

// ReLU is the fast-tier activation.
type ReLU = ReLUOf[float32]

// NewReLU returns an unbounded fast-tier ReLU.
func NewReLU() *ReLU { return &ReLU{} }

// NewReLU6 returns the ReLU6 activation used by MobileNet.
func NewReLU6() *ReLU { return &ReLU{Cap: 6} }

// Name implements Layer.
func (r *ReLUOf[T]) Name() string {
	if r.Cap > 0 {
		return "relu6"
	}
	return "relu"
}

// SetWorkspace implements WorkspaceUser.
func (r *ReLUOf[T]) SetWorkspace(ws *tensor.WorkspaceOf[T]) { r.ws = ws }

// Forward implements Layer.
func (r *ReLUOf[T]) Forward(x *tensor.Of[T], train bool) *tensor.Of[T] {
	var y *tensor.Of[T]
	if train || r.ws != nil {
		if r.y == nil || !r.y.SameShape(x) {
			r.ws.Put(r.y)
			r.y = r.ws.Get(x.Shape()...)
		}
		y = r.y
		y.CopyFrom(x)
	} else {
		y = x.Clone()
	}
	if train {
		if cap(r.mask) < y.Len() {
			r.mask = make([]bool, y.Len())
		}
		r.mask = r.mask[:y.Len()]
	}
	for i, v := range y.Data() {
		pass := v > 0
		if v < 0 {
			y.Data()[i] = 0
		}
		if r.Cap > 0 && v > r.Cap {
			y.Data()[i] = r.Cap
			pass = false
		}
		if train {
			r.mask[i] = pass
		}
	}
	return y
}

// Backward implements Layer.
func (r *ReLUOf[T]) Backward(grad *tensor.Of[T]) *tensor.Of[T] {
	if r.gx == nil || !r.gx.SameShape(grad) {
		r.ws.Put(r.gx)
		r.gx = r.ws.Get(grad.Shape()...)
	}
	g := r.gx
	g.CopyFrom(grad)
	for i := range g.Data() {
		if !r.mask[i] {
			g.Data()[i] = 0
		}
	}
	return g
}

// Params implements Layer.
func (r *ReLUOf[T]) Params() []*ParamOf[T] { return nil }

// OutShape implements Layer.
func (r *ReLUOf[T]) OutShape(in []int) []int { return in }
