package nn

import (
	"math/rand"
	"testing"

	"chameleon/internal/tensor"
)

// rowKernelInputs returns deterministic [n, c] logit and target matrices.
func rowKernelInputs[T tensor.Float](n, c int) (logits, target *tensor.Of[T]) {
	rng := rand.New(rand.NewSource(21))
	logits, target = tensor.NewOf[T](n, c), tensor.NewOf[T](n, c)
	for i := range logits.Data() {
		logits.Data()[i] = T(3 * rng.NormFloat64())
		target.Data()[i] = T(3 * rng.NormFloat64())
	}
	return logits, target
}

// requireRowsMatch checks each row of a batched gradient against the 1-D
// kernel's gradient on that row, scaled by the row weight the way a
// per-sample caller scales it, bit for bit; and the loss against the
// weighted per-row sum.
func requireRowsMatch[T tensor.Float](t *testing.T, name string, grad *tensor.Of[T], loss float64, weights []float64,
	perRow func(r int, g *tensor.Of[T]) float64) {
	t.Helper()
	c := grad.Dim(1)
	var want float64
	for r, w := range weights {
		g := tensor.NewOf[T](c)
		rowLoss := perRow(r, g)
		g.Scale(T(w))
		want += rowLoss * w
		for i, v := range g.Data() {
			if got := grad.Data()[r*c+i]; got != v {
				t.Fatalf("%s row %d (weight %v) elem %d: batched %v, per-sample %v", name, r, w, i, got, v)
			}
		}
	}
	if loss != want {
		t.Fatalf("%s loss %v, per-sample weighted sum %v", name, loss, want)
	}
}

// testRowKernels pins the batched loss kernels to the per-sample ones on one
// precision tier, with row weights 0, 1 and 0.5.
func testRowKernels[T tensor.Float](t *testing.T) {
	const n, c, temp = 3, 7, 2.0
	weights := []float64{0, 1, 0.5}
	logits, target := rowKernelInputs[T](n, c)
	labels := []int{4, 0, 6}

	grad := tensor.NewOf[T](n, c)
	loss := CrossEntropyRowsInto(logits, labels, weights, grad)
	requireRowsMatch(t, "ce", grad, loss, weights, func(r int, g *tensor.Of[T]) float64 {
		return CrossEntropyInto(logits.Row(r), labels[r], g)
	})

	scratch := tensor.NewOf[T](n, c)
	loss = SoftCrossEntropyRowsInto(logits, target, temp, weights, grad, scratch)
	requireRowsMatch(t, "soft", grad, loss, weights, func(r int, g *tensor.Of[T]) float64 {
		return SoftCrossEntropyInto(logits.Row(r), target.Row(r), temp, g, tensor.NewOf[T](c))
	})

	loss = MSELogitsRowsInto(logits, target, weights, grad)
	requireRowsMatch(t, "mse", grad, loss, weights, func(r int, g *tensor.Of[T]) float64 {
		return MSELogitsInto(logits.Row(r), target.Row(r), g)
	})

	// In place (grad == logits) is allowed for CE and MSE.
	inPlace := logits.Clone()
	loss = MSELogitsRowsInto(inPlace, target, weights, inPlace)
	requireRowsMatch(t, "mse-in-place", inPlace, loss, weights, func(r int, g *tensor.Of[T]) float64 {
		return MSELogitsInto(logits.Row(r), target.Row(r), g)
	})
}

func TestLossRowKernelsMatchPerSampleF32(t *testing.T) { testRowKernels[float32](t) }

func TestLossRowKernelsMatchPerSampleF64(t *testing.T) { testRowKernels[float64](t) }
