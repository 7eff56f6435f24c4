package nn

import (
	"fmt"

	"chameleon/internal/tensor"
)

// WorkspaceUserOf is implemented by layers (and the optimizer) that can
// recycle their scratch tensors through a tensor workspace. Attaching a
// workspace opts the layer into buffer reuse on the *eval* path too; without
// one, eval Forward stays allocation-fresh and mutation-free so a frozen
// model can serve concurrent extraction workers (the Layer contract).
// Train-path scratch is reused either way — training is single-owner by
// contract.
type WorkspaceUserOf[T tensor.Float] interface {
	SetWorkspace(ws *tensor.WorkspaceOf[T])
}

// WorkspaceUser is the fast-tier workspace hook.
type WorkspaceUser = WorkspaceUserOf[float32]

// AttachWorkspace walks a fast-tier layer tree and installs ws on every layer
// that can use one. The workspace must be owned by the same single goroutine
// that drives the model (see tensor.Workspace); cl.NewHead attaches one to
// each learner's private head, while shared backbones are never given one.
func AttachWorkspace(l Layer, ws *tensor.Workspace) { AttachWorkspaceOf[float32](l, ws) }

// AttachWorkspaceOf is AttachWorkspace for either precision tier.
func AttachWorkspaceOf[T tensor.Float](l LayerOf[T], ws *tensor.WorkspaceOf[T]) {
	switch v := l.(type) {
	case *SequentialOf[T]:
		for _, inner := range v.Layers {
			AttachWorkspaceOf(inner, ws)
		}
	case *FrozenOf[T]:
		AttachWorkspaceOf(v.Inner, ws)
	default:
		if u, ok := l.(WorkspaceUserOf[T]); ok {
			u.SetWorkspace(ws)
		}
	}
}

// BatchLayerOf is an optional Layer extension for batched evaluation: the
// layer transforms a whole [N, ...] matrix of samples at once, in eval mode.
// The input tensor is owned by the caller's workspace chain; implementations
// may transform it in place and return it, or Get a fresh output from ws (the
// caller Puts the input back when the returned tensor differs). Results must
// be bit-identical to N single-sample eval Forwards.
type BatchLayerOf[T tensor.Float] interface {
	ForwardBatch(x *tensor.Of[T], ws *tensor.WorkspaceOf[T]) *tensor.Of[T]
}

// BatchLayer is the fast-tier batched-evaluation extension.
type BatchLayer = BatchLayerOf[float32]

// ForwardBatch implements BatchLayer: one GEMM over the whole sample matrix.
// The weight matrix is transposed into workspace scratch first so the product
// runs on the saxpy-style MatMul kernel, which pays its zero-check once per
// input element instead of once per MAC (the dot-product MatMulT2 kernel
// measures ~2× slower per MAC here). Per output element the accumulation
// order over the input dimension is ascending, exactly like the per-sample
// MatVec path, so every logit equals that path's result (the two kernels skip
// zero factors on opposite sides of the product, which can only flip the sign
// of a floating-point zero — invisible to argmax, ReLU and ==).
func (d *DenseOf[T]) ForwardBatch(x *tensor.Of[T], ws *tensor.WorkspaceOf[T]) *tensor.Of[T] {
	if x.NDim() != 2 || x.Dim(1) != d.inCap {
		panic(fmt.Sprintf("nn: %s ForwardBatch expects [N,%d], got %v", d.label, d.inCap, x.Shape()))
	}
	return d.forwardBatchGEMM(x, ws)
}

// forwardBatchGEMM is the shared GEMM+bias body of the eval and train batched
// forwards (the two must stay bit-identical; factoring the kernel out makes
// that structural).
func (d *DenseOf[T]) forwardBatchGEMM(x *tensor.Of[T], ws *tensor.WorkspaceOf[T]) *tensor.Of[T] {
	n, in, out := x.Dim(0), d.inCap, d.Out()
	wt := ws.Get(in, out)
	wtd, wd := wt.Data(), d.w.Data.Data()
	for o := 0; o < out; o++ {
		row := wd[o*in : (o+1)*in]
		for i, v := range row {
			wtd[i*out+o] = v
		}
	}
	y := ws.Get(n, out)
	tensor.MatMulInto(y, x, wt)
	ws.Put(wt)
	bd, yd := d.b.Data.Data(), y.Data()
	for r := 0; r < n; r++ {
		row := yd[r*out : (r+1)*out]
		for i, bv := range bd {
			row[i] += bv
		}
	}
	return y
}

// ForwardBatch implements BatchLayer: the clamp runs in place on the batch
// matrix, with the same branch structure as the per-sample eval Forward so
// results (including signed zeros) are bit-identical.
func (r *ReLUOf[T]) ForwardBatch(x *tensor.Of[T], ws *tensor.WorkspaceOf[T]) *tensor.Of[T] {
	data := x.Data()
	for i, v := range data {
		if v < 0 {
			data[i] = 0
		}
		if r.Cap > 0 && v > r.Cap {
			data[i] = r.Cap
		}
	}
	return x
}
