package nn

import (
	"fmt"
	"math/rand"

	"chameleon/internal/tensor"
)

// DenseOf is a fully connected layer y = Wx + b on 1-D inputs.
type DenseOf[T tensor.Float] struct {
	label string
	w     *ParamOf[T] // [out, in]
	b     *ParamOf[T] // [out]
	inCap int
	x     *tensor.Of[T] // cached input (train mode), reused across steps
	xB    *tensor.Of[T] // cached [N,in] input matrix (batched train mode)
	// y and gx are reusable output/input-gradient buffers. gx (and x) serve
	// only the training path, which is single-owner by the Layer contract, so
	// they are recycled unconditionally; y is additionally reused on the eval
	// path once a workspace is attached (eval without one must stay
	// mutation-free for concurrent extraction).
	y, gx *tensor.Of[T]
	ws    *tensor.WorkspaceOf[T]
}

// Dense is the fast-tier fully connected layer.
type Dense = DenseOf[float32]

// NewDense creates a fast-tier Dense layer with He-normal weights (zero when
// rng is nil) and zero bias.
func NewDense(label string, in, out int, rng *rand.Rand) *Dense {
	return &Dense{
		label: label,
		w:     &Param{Name: label + ".w", Data: heNormal(rng, in, out, in), Grad: tensor.New(out, in)},
		b:     &Param{Name: label + ".b", Data: tensor.New(out), Grad: tensor.New(out)},
		inCap: in,
	}
}

// heNormal is tensor.HeNormal, or a zero tensor when rng is nil: a builder
// that writes the initial weights later (mobilenet.NewHead) constructs its
// layers without drawing.
func heNormal(rng *rand.Rand, fanIn int, shape ...int) *tensor.Tensor {
	if rng == nil {
		return tensor.New(shape...)
	}
	return tensor.HeNormal(rng, fanIn, shape...)
}

// Name implements Layer.
func (d *DenseOf[T]) Name() string { return d.label }

// Out returns the output width.
func (d *DenseOf[T]) Out() int { return d.w.Data.Dim(0) }

// SetWorkspace implements WorkspaceUser.
func (d *DenseOf[T]) SetWorkspace(ws *tensor.WorkspaceOf[T]) { d.ws = ws }

// Forward implements Layer for a [in] input, producing [out].
func (d *DenseOf[T]) Forward(x *tensor.Of[T], train bool) *tensor.Of[T] {
	if x.Len() != d.inCap {
		panic(fmt.Sprintf("nn: %s expects %d inputs, got shape %v", d.label, d.inCap, x.Shape()))
	}
	if train || d.ws != nil {
		if d.y == nil {
			d.y = d.ws.Get(d.Out())
		}
		d.ForwardInto(d.y, x, train)
		return d.y
	}
	// Eval without a workspace: allocation-fresh and mutation-free, so a
	// shared model can serve concurrent callers.
	flat := x
	if x.NDim() != 1 {
		flat = x.Reshape(d.inCap)
	}
	y := tensor.MatVec(d.w.Data, flat)
	y.AddInPlace(d.b.Data)
	return y
}

// ForwardInto is Forward writing y = Wx + b into a caller-owned [out] tensor,
// mirroring the tensor MatMul*Into API: the inner training loop reuses one
// output buffer instead of allocating per call. train selects input caching
// for the subsequent Backward.
func (d *DenseOf[T]) ForwardInto(dst, x *tensor.Of[T], train bool) {
	if x.Len() != d.inCap {
		panic(fmt.Sprintf("nn: %s expects %d inputs, got shape %v", d.label, d.inCap, x.Shape()))
	}
	if dst.Len() != d.Out() {
		panic(fmt.Sprintf("nn: %s ForwardInto dst has %d elements, want %d", d.label, dst.Len(), d.Out()))
	}
	flat := x
	if x.NDim() != 1 {
		flat = x.Reshape(d.inCap)
	}
	if train {
		if d.x == nil {
			d.x = d.ws.Get(d.inCap)
		}
		d.x.CopyFrom(flat)
	}
	tensor.MatVecInto(dst, d.w.Data, flat)
	dst.AddInPlace(d.b.Data)
}

// Backward implements Layer.
func (d *DenseOf[T]) Backward(grad *tensor.Of[T]) *tensor.Of[T] {
	if d.gx == nil {
		d.gx = d.ws.Get(d.inCap)
	}
	d.BackwardInto(d.gx, grad)
	return d.gx
}

// BackwardInto is Backward writing the input gradient into a caller-owned
// [in] tensor (overwritten), accumulating parameter gradients as usual.
func (d *DenseOf[T]) BackwardInto(dst, grad *tensor.Of[T]) {
	if d.x == nil {
		panic("nn: Dense.Backward before training Forward")
	}
	out, in := d.Out(), d.inCap
	if grad.Len() != out || dst.Len() != in {
		panic(fmt.Sprintf("nn: %s BackwardInto grad %d/dst %d, want %d/%d", d.label, grad.Len(), dst.Len(), out, in))
	}
	gw, gb := d.w.Grad.Data(), d.b.Grad.Data()
	gd, wd, xd := grad.Data(), d.w.Data.Data(), d.x.Data()
	dst.Zero()
	gxd := dst.Data()
	for o := 0; o < out; o++ {
		g := gd[o]
		gb[o] += g
		if g == 0 {
			continue
		}
		wRow := wd[o*in : (o+1)*in]
		gwRow := gw[o*in : (o+1)*in]
		// Fast-tier dispatch (resolved at instantiation time): float32 rows
		// go through the unrolled kernel, which computes the same per-element
		// expressions and is therefore bit-identical to the generic loop.
		if gw32, ok := any(gwRow).([]float32); ok {
			tensor.DenseBackwardRow32(gw32, any(gxd).([]float32), any(wRow).([]float32), any(xd).([]float32), any(g).(float32))
			continue
		}
		for i, xv := range xd {
			gwRow[i] += g * xv
			gxd[i] += g * wRow[i]
		}
	}
}

// Params implements Layer.
func (d *DenseOf[T]) Params() []*ParamOf[T] { return []*ParamOf[T]{d.w, d.b} }

// OutShape implements Layer.
func (d *DenseOf[T]) OutShape(in []int) []int { return []int{d.Out()} }
