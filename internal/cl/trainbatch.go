package cl

import (
	"fmt"

	"chameleon/internal/nn"
	"chameleon/internal/tensor"
)

// LossRowOf is one row's objective in a packed training step. CE weighs the
// cross-entropy against the sample's label. When Target is set, Aux weighs a
// logit-matching term against it: soft cross-entropy with Target as teacher
// logits when the step's LossOf.Temperature is positive (LwF distillation;
// fold Hinton's T² into Aux), logit MSE otherwise (DER's dark-knowledge
// term). A zero weight contributes nothing, so a row that carries a single
// term of weight w receives exactly w times the per-sample kernel's gradient.
type LossRowOf[T tensor.Float] struct {
	CE     float64
	Aux    float64
	Target *tensor.Of[T]
}

// LossOf is the objective of one packed training step. The zero value trains
// every row with unit-weight cross-entropy.
type LossOf[T tensor.Float] struct {
	// Rows holds one descriptor per sample (nil: unit-weight CE everywhere).
	Rows []LossRowOf[T]
	// Temperature, when positive, makes every Target a distillation teacher
	// at that temperature; otherwise Targets are matched by logit MSE.
	Temperature float64
}

// Loss and LossRow are the fast-tier (float32) step objective.
type (
	Loss    = LossOf[float32]
	LossRow = LossRowOf[float32]
)

// stepScratch is a learner's reusable packing state for the batched step.
type stepScratch struct {
	labels    []int
	ceW, auxW []float64
}

// setLabels fills the label scratch from samples.
func (sc *stepScratch) setLabels(samples []LatentSample) {
	sc.labels = resize(sc.labels, len(samples))
	for i, s := range samples {
		sc.labels[i] = s.Label
	}
}

// resize returns buf with length n, reallocating only when it is too small.
func resize[E any](buf []E, n int) []E {
	if cap(buf) < n {
		return make([]E, n)
	}
	return buf[:n]
}

// batchStart validates that samples pack into one training matrix for net and
// returns the layer the packed matrix enters: 1 for a GAP-first head fed
// [C,H,W] latents (the pooling runs while packing, and its parameter-free
// backward is skipped), 0 for flat latents. Latents that cannot share a
// matrix, or a chain without the batched protocol (conv-tail heads, which
// feed the cost models and are never trained online), are programming
// errors.
func batchStart[T tensor.Float](net *nn.SequentialOf[T], samples []LatentSample) int {
	z0 := samples[0].Z
	start := 0
	if len(net.Layers) > 0 {
		if _, ok := net.Layers[0].(*nn.GlobalAvgPool2DOf[T]); ok && z0.NDim() == 3 {
			start = 1
		}
	}
	for _, s := range samples {
		z := s.Z
		if start == 1 && (z.NDim() != 3 || z.Dim(0) != z0.Dim(0)) || start == 0 && (z.NDim() != 1 || z.Len() != z0.Len()) {
			panic(fmt.Sprintf("cl: latents %v and %v do not pack into one training batch", z0.Shape(), z.Shape()))
		}
	}
	if !net.SupportsBatchTrain(start) {
		panic(fmt.Sprintf("cl: head %q has a layer without batched training from layer %d on (conv-tail heads are not trainable online)", net.Name(), start))
	}
	return start
}

// trainStep is the tier-generic core of every head update, shared by the fp32
// Head and the fp64 Ref64 reference learner: one batched train-mode forward
// from layer start over the packed [B, D] matrix x (consumed), the per-row
// loss gradient against sc's labels written over the logit matrix, and one
// batched backward. With opt set the SGD update is folded into the backward
// at invScale 1/B; with opt nil the gradients only accumulate into the
// parameters' Grad. Returns the summed (row-weighted) loss.
func trainStep[T tensor.Float](net *nn.SequentialOf[T], opt *nn.SGDOf[T], ws *tensor.WorkspaceOf[T], x *tensor.Of[T], start int, loss LossOf[T], sc *stepScratch) float64 {
	labels := sc.labels
	logits := net.ForwardBatchTrain(x, start, ws)
	var sum float64
	if loss.Rows == nil {
		sum = nn.CrossEntropyRowsInto(logits, labels, nil, logits)
	} else {
		sum = mixedLossInto(logits, labels, loss, ws, sc)
	}
	if opt == nil {
		net.BackwardBatchFrom(logits, start, ws)
		return sum
	}
	inv := T(1)
	if n := len(labels); n > 1 {
		inv = T(1 / float64(n))
	}
	net.BackwardSGDBatchFrom(logits, start, opt, inv, ws)
	return sum
}

// mixedLossInto overwrites the [B, C] logit matrix with the gradient of a
// per-row mixed objective and returns the summed loss. The target term is
// computed first, from the untouched logits, into a second matrix; the
// cross-entropy term then lands in place and the two add. Where a row's
// other term has weight 0 the addend is a signed zero, which leaves the
// single term's gradient exact.
func mixedLossInto[T tensor.Float](logits *tensor.Of[T], labels []int, loss LossOf[T], ws *tensor.WorkspaceOf[T], sc *stepScratch) float64 {
	n, c := logits.Dim(0), logits.Dim(1)
	if len(loss.Rows) != n {
		panic(fmt.Sprintf("cl: loss has %d rows for a batch of %d", len(loss.Rows), n))
	}
	sc.ceW, sc.auxW = resize(sc.ceW, n), resize(sc.auxW, n)
	var tgt *tensor.Of[T]
	for r, row := range loss.Rows {
		sc.ceW[r], sc.auxW[r] = row.CE, 0
		if row.Target == nil {
			continue
		}
		if row.Target.Len() != c {
			panic(fmt.Sprintf("cl: loss row %d target has %d logits, want %d", r, row.Target.Len(), c))
		}
		if tgt == nil {
			tgt = ws.GetZeroed(n, c)
		}
		sc.auxW[r] = row.Aux
		copy(tgt.Data()[r*c:(r+1)*c], row.Target.Data())
	}
	var sum float64
	var aux *tensor.Of[T]
	if tgt != nil {
		aux = ws.Get(n, c)
		if loss.Temperature > 0 {
			p := ws.Get(n, c)
			sum += nn.SoftCrossEntropyRowsInto(logits, tgt, loss.Temperature, sc.auxW, aux, p)
			ws.Put(p)
		} else {
			sum += nn.MSELogitsRowsInto(logits, tgt, sc.auxW, aux)
		}
		ws.Put(tgt)
	}
	sum += nn.CrossEntropyRowsInto(logits, labels, sc.ceW, logits)
	if aux != nil {
		logits.AddInPlace(aux)
		ws.Put(aux)
	}
	return sum
}
