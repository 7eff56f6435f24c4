package nn

import (
	"fmt"

	"chameleon/internal/tensor"
)

// TrainBatchLayerOf is the training twin of BatchLayerOf: the layer runs its
// train-mode forward (caching whatever its backward needs) and backward over a
// whole [N, ...] matrix of samples at once. It is the only way a head trains;
// the per-sample Layer.Backward remains for backbone pretraining and the fp64
// reference loop. The buffer protocol matches the eval batch path — the input
// tensor is owned by the caller's workspace chain, implementations may
// transform it in place and return it, or Get a fresh output from ws (the
// caller Puts the input back when the returned tensor differs).
//
// Equivalence contract: one batched step must compute the same optimizer step
// as N per-sample forward/backwards accumulated into one Step. On the float64
// reference tier that means bit-identical — every parameter-gradient element
// accumulates over samples in ascending stream order, exactly the per-sample
// loop's chain — while the float32 fast tier inherits the tier's documented
// accumulation-order caveat (tensor/fast32.go) and is held to tolerance
// instead.
type TrainBatchLayerOf[T tensor.Float] interface {
	// ForwardBatchTrain is the train-mode batched forward: like ForwardBatch
	// but caching the layer's backward inputs (activations, masks, dropout
	// draws). Dropout consumes its RNG stream in row-major sample order, the
	// same draw sequence as N per-sample train Forwards.
	ForwardBatchTrain(x *tensor.Of[T], ws *tensor.WorkspaceOf[T]) *tensor.Of[T]
	// BackwardBatch accumulates parameter gradients for the whole batch and
	// returns the input gradient matrix (same in-place-or-fresh protocol).
	// When needInput is false no layer below consumes the input gradient, so
	// the layer may skip computing it and return nil — for Dense that deletes
	// an entire GEMM. Parameter updates are unaffected either way.
	BackwardBatch(grad *tensor.Of[T], needInput bool, ws *tensor.WorkspaceOf[T]) *tensor.Of[T]
	// BackwardSGDBatch is BackwardBatch with the SGD update folded in:
	// parameters step the moment the batch's full gradient is known, in one
	// sweep bit-identical to BackwardBatch + SGDOf.FusedStepParam. With
	// opt.GradClip > 0 or opt.Fused unset, implementations run exactly that
	// split sequence instead. The needInput contract matches BackwardBatch.
	BackwardSGDBatch(grad *tensor.Of[T], opt *SGDOf[T], invScale T, needInput bool, ws *tensor.WorkspaceOf[T]) *tensor.Of[T]
}

// TrainBatchLayer is the fast-tier batched-training extension.
type TrainBatchLayer = TrainBatchLayerOf[float32]

// SupportsBatchTrain reports whether every layer from start onward implements
// the batched training protocol, i.e. whether ForwardBatchTrain /
// BackwardBatchFrom / BackwardSGDBatchFrom may be used on this model.
// Conv-tail heads return false: they feed the cost models only and are never
// trained online.
func (s *SequentialOf[T]) SupportsBatchTrain(start int) bool {
	if start < 0 || start >= len(s.Layers) {
		return false
	}
	for _, l := range s.Layers[start:] {
		if _, ok := l.(TrainBatchLayerOf[T]); !ok {
			return false
		}
	}
	return true
}

// ForwardBatchTrain runs the train-mode batched forward from layer start over
// a packed [N, D] sample matrix, consuming x (it is either transformed in
// place and returned, or Put back into ws once a layer replaces it). The
// returned logits matrix is owned by the caller.
func (s *SequentialOf[T]) ForwardBatchTrain(x *tensor.Of[T], start int, ws *tensor.WorkspaceOf[T]) *tensor.Of[T] {
	for _, l := range s.Layers[start:] {
		bl, ok := l.(TrainBatchLayerOf[T])
		if !ok {
			panic(fmt.Sprintf("nn: layer %s does not support batched training (check SupportsBatchTrain first)", l.Name()))
		}
		y := bl.ForwardBatchTrain(x, ws)
		if y != x {
			ws.Put(x)
		}
		x = y
	}
	return x
}

// BackwardSGDBatchFrom walks the batched backward from the last layer down to
// layer start inclusive, stepping each layer's parameters through
// BackwardSGDBatch as soon as its gradient is complete. It consumes grad:
// every intermediate gradient matrix, including the final input gradient, is
// returned to ws. Layers below start are never visited — the batched entry
// points stop at the first trainable layer, so a parameter-free pooling
// prefix (the GAP-first heads) skips its broadcast backward entirely. The
// walk also stops at the bottom-most parameterized layer at or above start:
// its input gradient would feed only parameter-free layers (masks, scales,
// reshapes) whose own outputs nothing consumes, so that layer is told not to
// produce it (for Dense that deletes one of the three backward GEMMs) and the
// layers below are skipped. No parameter update depends on any of the
// skipped work, so the equivalence contract — fp64 bit-identity, fp32
// tolerance — is untouched.
func (s *SequentialOf[T]) BackwardSGDBatchFrom(grad *tensor.Of[T], start int, opt *SGDOf[T], invScale T, ws *tensor.WorkspaceOf[T]) {
	s.backwardBatchFrom(grad, start, opt, invScale, ws)
}

// BackwardBatchFrom is BackwardSGDBatchFrom without the optimizer: the same
// walk accumulates every parameter's batch gradient into Grad and steps
// nothing, for callers that edit gradients before their own step (EWC's
// penalty, GSS's gradient sketch).
func (s *SequentialOf[T]) BackwardBatchFrom(grad *tensor.Of[T], start int, ws *tensor.WorkspaceOf[T]) {
	s.backwardBatchFrom(grad, start, nil, 1, ws)
}

// backwardBatchFrom is the shared walk; opt == nil accumulates only.
func (s *SequentialOf[T]) backwardBatchFrom(grad *tensor.Of[T], start int, opt *SGDOf[T], invScale T, ws *tensor.WorkspaceOf[T]) {
	if s.bwStopKey != start+1 {
		s.bwStop = start
		for i := start; i < len(s.Layers); i++ {
			if len(s.Layers[i].Params()) > 0 {
				s.bwStop = i
				break
			}
		}
		s.bwStopKey = start + 1
	}
	stop := s.bwStop
	for i := len(s.Layers) - 1; i >= stop; i-- {
		bl, ok := s.Layers[i].(TrainBatchLayerOf[T])
		if !ok {
			panic(fmt.Sprintf("nn: layer %s does not support batched training (check SupportsBatchTrain first)", s.Layers[i].Name()))
		}
		needInput := i > stop
		var g *tensor.Of[T]
		if opt != nil {
			g = bl.BackwardSGDBatch(grad, opt, invScale, needInput, ws)
		} else {
			g = bl.BackwardBatch(grad, needInput, ws)
		}
		if g != grad {
			ws.Put(grad)
		}
		grad = g
	}
	ws.Put(grad)
}

// ForwardBatchTrain implements TrainBatchLayer: the eval GEMM plus input
// caching. The whole [N, in] input matrix is copied into a persistent batch
// cache (the train-mode analogue of the per-sample d.x) so the backward GEMMs
// can form dW = Gᵀ·X.
func (d *DenseOf[T]) ForwardBatchTrain(x *tensor.Of[T], ws *tensor.WorkspaceOf[T]) *tensor.Of[T] {
	if x.NDim() != 2 || x.Dim(1) != d.inCap {
		panic(fmt.Sprintf("nn: %s ForwardBatchTrain expects [N,%d], got %v", d.label, d.inCap, x.Shape()))
	}
	if d.xB == nil || !d.xB.SameShape(x) {
		ws.Put(d.xB)
		d.xB = ws.Get(x.Shape()...)
	}
	d.xB.CopyFrom(x)
	return d.forwardBatchGEMM(x, ws)
}

// BackwardBatch implements TrainBatchLayer: three batched kernels replace N
// per-sample row sweeps. The bias gradient accumulates row-major over the
// gradient matrix — per output element that is the ascending-sample chain of
// the per-sample loop — dW accumulates via the transposed GEMM (ascending
// sample order per element, matching the per-sample accumulation bit for bit
// on the reference tier), and the input gradient is one GEMM against the
// weights — elided entirely when needInput is false.
func (d *DenseOf[T]) BackwardBatch(grad *tensor.Of[T], needInput bool, ws *tensor.WorkspaceOf[T]) *tensor.Of[T] {
	if d.xB == nil {
		panic("nn: Dense.BackwardBatch before ForwardBatchTrain")
	}
	out, in := d.Out(), d.inCap
	n := d.xB.Dim(0)
	if grad.NDim() != 2 || grad.Dim(0) != n || grad.Dim(1) != out {
		panic(fmt.Sprintf("nn: %s BackwardBatch grad %v, want [%d %d]", d.label, grad.Shape(), n, out))
	}
	gb, gd := d.b.Grad.Data(), grad.Data()
	for r := 0; r < n; r++ {
		row := gd[r*out : (r+1)*out]
		for o, g := range row {
			gb[o] += g
		}
	}
	tensor.MatMulT1AccInto(d.w.Grad, grad, d.xB)
	if !needInput {
		return nil
	}
	gx := ws.Get(n, in)
	tensor.MatMulInto(gx, grad, d.w.Data)
	return gx
}

// BackwardSGDBatch implements TrainBatchLayer, the batched fused fold: the
// input gradient runs first (one GEMM against the pre-update weights), the
// full-batch parameter gradients accumulate next, and one update sweep then
// steps the weights — scale, decay, momentum, update, zero, the same
// per-element expression sequence as FusedStepParam and the split path, so
// the reference tier stays bit-identical to per-sample training.
func (d *DenseOf[T]) BackwardSGDBatch(grad *tensor.Of[T], opt *SGDOf[T], invScale T, needInput bool, ws *tensor.WorkspaceOf[T]) *tensor.Of[T] {
	if opt.GradClip > 0 || !opt.Fused {
		gx := d.BackwardBatch(grad, needInput, ws)
		opt.FusedStepParam(d.w, invScale)
		opt.FusedStepParam(d.b, invScale)
		return gx
	}
	if d.xB == nil {
		panic("nn: Dense.BackwardSGDBatch before ForwardBatchTrain")
	}
	out, in := d.Out(), d.inCap
	n := d.xB.Dim(0)
	if grad.NDim() != 2 || grad.Dim(0) != n || grad.Dim(1) != out {
		panic(fmt.Sprintf("nn: %s BackwardSGDBatch grad %v, want [%d %d]", d.label, grad.Shape(), n, out))
	}
	var gx *tensor.Of[T]
	if needInput {
		gx = ws.Get(n, in)
		tensor.MatMulInto(gx, grad, d.w.Data)
	}
	gb, gd := d.b.Grad.Data(), grad.Data()
	for r := 0; r < n; r++ {
		row := gd[r*out : (r+1)*out]
		for o, g := range row {
			gb[o] += g
		}
	}
	tensor.MatMulT1AccInto(d.w.Grad, grad, d.xB)
	gw, wd, bd := d.w.Grad.Data(), d.w.Data.Data(), d.b.Data.Data()
	wdec := T(opt.WeightDecay)
	m := T(opt.Momentum)
	lrNeg := T(-opt.LR)
	var vw, vb []T
	if opt.Momentum != 0 {
		vw = opt.velocityFor(d.w).Data()
		vb = opt.velocityFor(d.b).Data()
	}
	for o := 0; o < out; o++ {
		gB := gb[o]
		if invScale != 1 {
			gB *= invScale
		}
		if wdec != 0 {
			gB += wdec * bd[o]
		}
		if vb != nil {
			v := vb[o]
			v *= m
			v += gB
			vb[o] = v
			gB = v
		}
		bd[o] += lrNeg * gB
		gb[o] = 0
		wRow := wd[o*in : (o+1)*in]
		gwRow := gw[o*in : (o+1)*in]
		var vRow []T
		if vw != nil {
			vRow = vw[o*in : (o+1)*in]
		}
		// Fast-tier dispatch: the update row kernel is exactly this sweep
		// (the outer-product term is already in gwRow), bit-identical to the
		// generic loop below.
		if w32, ok := any(wRow).([]float32); ok {
			var v32 []float32
			if vRow != nil {
				v32 = any(vRow).([]float32)
			}
			tensor.FusedUpdateRow32(w32, any(gwRow).([]float32), v32,
				any(invScale).(float32), any(wdec).(float32), any(m).(float32), any(lrNeg).(float32))
			continue
		}
		for i := range wRow {
			wv := wRow[i]
			ge := gwRow[i]
			if invScale != 1 {
				ge *= invScale
			}
			if wdec != 0 {
				ge += wdec * wv
			}
			if vRow != nil {
				v := vRow[i]
				v *= m
				v += ge
				vRow[i] = v
				ge = v
			}
			wRow[i] = wv + lrNeg*ge
			gwRow[i] = 0
		}
	}
	return gx
}

// ForwardBatchTrain implements TrainBatchLayer: the clamp runs in place with
// the per-sample branch structure, and the pass mask covers the whole batch
// (the mask buffer is shared with the per-sample path; whichever ran last
// owns its length).
func (r *ReLUOf[T]) ForwardBatchTrain(x *tensor.Of[T], ws *tensor.WorkspaceOf[T]) *tensor.Of[T] {
	data := x.Data()
	if cap(r.mask) < len(data) {
		r.mask = make([]bool, len(data))
	}
	r.mask = r.mask[:len(data)]
	for i, v := range data {
		pass := v > 0
		if v < 0 {
			data[i] = 0
		}
		if r.Cap > 0 && v > r.Cap {
			data[i] = r.Cap
			pass = false
		}
		r.mask[i] = pass
	}
	return x
}

// BackwardBatch implements TrainBatchLayer: the mask gate runs in place on
// the gradient matrix.
func (r *ReLUOf[T]) BackwardBatch(grad *tensor.Of[T], needInput bool, ws *tensor.WorkspaceOf[T]) *tensor.Of[T] {
	data := grad.Data()
	for i := range data {
		if !r.mask[i] {
			data[i] = 0
		}
	}
	return grad
}

// BackwardSGDBatch implements TrainBatchLayer: no parameters, just the mask.
func (r *ReLUOf[T]) BackwardSGDBatch(grad *tensor.Of[T], opt *SGDOf[T], invScale T, needInput bool, ws *tensor.WorkspaceOf[T]) *tensor.Of[T] {
	return r.BackwardBatch(grad, needInput, ws)
}

// ForwardBatchTrain implements TrainBatchLayer: inverted dropout in place over
// the batch matrix. The RNG draws row-major — sample 0's elements first —
// which is the exact draw sequence of per-sample train Forwards, so a batched
// step consumes the dropout stream identically to the loop it replaces.
func (d *DropoutOf[T]) ForwardBatchTrain(x *tensor.Of[T], ws *tensor.WorkspaceOf[T]) *tensor.Of[T] {
	if d.P <= 0 {
		return x
	}
	data := x.Data()
	if cap(d.keep) < len(data) {
		d.keep = make([]T, len(data))
	}
	d.keep = d.keep[:len(data)]
	scale := T(1 / (1 - d.P))
	for i := range data {
		if d.rng.Float64() < d.P {
			d.keep[i] = 0
			data[i] = 0
		} else {
			d.keep[i] = scale
			data[i] *= scale
		}
	}
	return x
}

// BackwardBatch implements TrainBatchLayer: the kept-mask scale in place.
func (d *DropoutOf[T]) BackwardBatch(grad *tensor.Of[T], needInput bool, ws *tensor.WorkspaceOf[T]) *tensor.Of[T] {
	if d.P <= 0 || len(d.keep) == 0 {
		return grad
	}
	data := grad.Data()
	for i := range data {
		data[i] *= d.keep[i]
	}
	return grad
}

// BackwardSGDBatch implements TrainBatchLayer: no parameters, just the scale.
func (d *DropoutOf[T]) BackwardSGDBatch(grad *tensor.Of[T], opt *SGDOf[T], invScale T, needInput bool, ws *tensor.WorkspaceOf[T]) *tensor.Of[T] {
	return d.BackwardBatch(grad, needInput, ws)
}

// ForwardBatch implements BatchLayer: a packed batch matrix already holds one
// flat sample per row, so the reshape is the identity.
func (f *FlattenOf[T]) ForwardBatch(x *tensor.Of[T], ws *tensor.WorkspaceOf[T]) *tensor.Of[T] {
	return x
}

// ForwardBatchTrain implements TrainBatchLayer: identity on packed rows.
func (f *FlattenOf[T]) ForwardBatchTrain(x *tensor.Of[T], ws *tensor.WorkspaceOf[T]) *tensor.Of[T] {
	return x
}

// BackwardBatch implements TrainBatchLayer: identity (the gradient matrix
// already has one row per sample).
func (f *FlattenOf[T]) BackwardBatch(grad *tensor.Of[T], needInput bool, ws *tensor.WorkspaceOf[T]) *tensor.Of[T] {
	return grad
}

// BackwardSGDBatch implements TrainBatchLayer: no parameters, identity.
func (f *FlattenOf[T]) BackwardSGDBatch(grad *tensor.Of[T], opt *SGDOf[T], invScale T, needInput bool, ws *tensor.WorkspaceOf[T]) *tensor.Of[T] {
	return f.BackwardBatch(grad, needInput, ws)
}
