package quant

import (
	"math"
	"math/rand"
	"testing"

	"chameleon/internal/tensor"
)

// TestQuantizeInt8RoundTrip pins the symmetric scheme's error bound: each
// element lands within half a quantisation step of the original, zero maps
// to zero exactly, and the extremes use the full int8 range.
func TestQuantizeInt8RoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	data := make([]float32, 1000)
	for i := range data {
		data[i] = float32(rng.NormFloat64())
	}
	data[7] = 0
	q := make([]int8, len(data))
	s := QuantizeInt8(q, data)
	if q[7] != 0 {
		t.Fatalf("zero quantised to %d, want 0", q[7])
	}
	maxAbs := MaxAbs32(data)
	if want := maxAbs / 127; math.Abs(float64(s-want)) > 1e-12 {
		t.Fatalf("scale %g, want maxAbs/127 = %g", s, want)
	}
	back := make([]float32, len(data))
	DequantizeInt8(back, q, s)
	half := s / 2 * 1.0001 // half a step, with float slack
	for i, v := range data {
		if d := float32(math.Abs(float64(back[i] - v))); d > half {
			t.Fatalf("element %d: |%g - %g| = %g exceeds half-step %g", i, back[i], v, d, half)
		}
	}
}

// TestRoundTripInt8Tensor pins the exact round-trip of a constant tensor
// through QuantizeInt8/DequantizeInt8, written back in place.
func TestRoundTripInt8Tensor(t *testing.T) {
	z := tensor.Full(1.5, 64)
	q := make([]int8, z.Len())
	DequantizeInt8(z.Data(), q, QuantizeInt8(q, z.Data()))
	for i, v := range z.Data() {
		if v != 1.5 {
			t.Fatalf("constant tensor round-trip not exact: element %d = %g", i, v)
		}
	}
}

// TestQuantizeInt8AllZero pins the degenerate case: scale 1, all-zero codes.
func TestQuantizeInt8AllZero(t *testing.T) {
	q := make([]int8, 4)
	if s := QuantizeInt8(q, make([]float32, 4)); s != 1 {
		t.Fatalf("all-zero scale = %g, want 1", s)
	}
	for _, v := range q {
		if v != 0 {
			t.Fatalf("all-zero input produced code %d", v)
		}
	}
}
