package tensor

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestNewAndShape(t *testing.T) {
	x := New(2, 3, 4)
	if x.Len() != 24 {
		t.Fatalf("Len = %d, want 24", x.Len())
	}
	if x.NDim() != 3 || x.Dim(0) != 2 || x.Dim(1) != 3 || x.Dim(2) != 4 {
		t.Fatalf("bad shape %v", x.Shape())
	}
	for _, v := range x.Data() {
		if v != 0 {
			t.Fatal("New tensor not zeroed")
		}
	}
}

func TestNewPanicsOnNegativeDim(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for negative dimension")
		}
	}()
	New(2, -1)
}

func TestFromSliceAndAtSet(t *testing.T) {
	x := FromSlice([]float32{1, 2, 3, 4, 5, 6}, 2, 3)
	if x.At(0, 0) != 1 || x.At(1, 2) != 6 {
		t.Fatalf("At wrong: %v", x.Data())
	}
	x.Set(9, 1, 1)
	if x.At(1, 1) != 9 {
		t.Fatal("Set did not stick")
	}
}

func TestFromSlicePanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	FromSlice([]float32{1, 2, 3}, 2, 2)
}

func TestCloneIndependence(t *testing.T) {
	x := FromSlice([]float32{1, 2}, 2)
	y := x.Clone()
	y.Set(7, 0)
	if x.At(0) != 1 {
		t.Fatal("Clone shares storage")
	}
}

func TestReshapeViewAndInfer(t *testing.T) {
	x := FromSlice([]float32{1, 2, 3, 4, 5, 6}, 2, 3)
	y := x.Reshape(3, -1)
	if y.Dim(0) != 3 || y.Dim(1) != 2 {
		t.Fatalf("inferred shape %v", y.Shape())
	}
	y.Set(42, 0, 0)
	if x.At(0, 0) != 42 {
		t.Fatal("Reshape must be a view")
	}
}

func TestReshapePanicsOnBadCount(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(2, 3).Reshape(4, 2)
}

func TestRowAndSliceViews(t *testing.T) {
	x := FromSlice([]float32{1, 2, 3, 4, 5, 6}, 2, 3)
	r := x.Row(1)
	if r.At(0) != 4 || r.At(2) != 6 {
		t.Fatalf("Row wrong: %v", r.Data())
	}
	s := x.Slice(0)
	s.Set(-1, 1)
	if x.At(0, 1) != -1 {
		t.Fatal("Slice must be a view")
	}
}

func TestElementwiseOps(t *testing.T) {
	a := FromSlice([]float32{1, 2, 3}, 3)
	b := FromSlice([]float32{4, 5, 6}, 3)
	if got := Add(a, b).Data(); got[0] != 5 || got[2] != 9 {
		t.Fatalf("Add wrong: %v", got)
	}
	if got := Sub(b, a).Data(); got[0] != 3 || got[2] != 3 {
		t.Fatalf("Sub wrong: %v", got)
	}
	if got := Mul(a, b).Data(); got[1] != 10 {
		t.Fatalf("Mul wrong: %v", got)
	}
	c := a.Clone()
	c.AddScaled(2, b)
	if c.At(0) != 9 {
		t.Fatalf("AddScaled wrong: %v", c.Data())
	}
	c.Scale(0.5)
	if c.At(0) != 4.5 {
		t.Fatalf("Scale wrong: %v", c.Data())
	}
	if !almostEq(Dot(a, b), 32, 1e-9) {
		t.Fatalf("Dot = %v", Dot(a, b))
	}
}

func TestSumMeanNorm(t *testing.T) {
	x := FromSlice([]float32{3, 4}, 2)
	if !almostEq(x.Sum(), 7, 1e-9) || !almostEq(x.Mean(), 3.5, 1e-9) {
		t.Fatalf("Sum/Mean wrong")
	}
	if !almostEq(x.Norm2(), 5, 1e-6) {
		t.Fatalf("Norm2 = %v", x.Norm2())
	}
}

func TestArgMax(t *testing.T) {
	x := FromSlice([]float32{1, 5, 2, 5}, 4)
	if x.ArgMax() != 1 {
		t.Fatalf("ArgMax ties must pick lowest index, got %d", x.ArgMax())
	}
	m := FromSlice([]float32{0, 1, 9, 3, 2, 1}, 2, 3)
	rows := m.ArgMaxRows()
	if rows[0] != 2 || rows[1] != 0 {
		t.Fatalf("ArgMaxRows = %v", rows)
	}
}

func TestSoftmaxProperties(t *testing.T) {
	x := FromSlice([]float32{1, 2, 3, 1000, 1001, 1002}, 2, 3)
	s := Softmax(x)
	for i := 0; i < 2; i++ {
		var sum float64
		for j := 0; j < 3; j++ {
			v := float64(s.At(i, j))
			if v < 0 || v > 1 || math.IsNaN(v) {
				t.Fatalf("softmax out of range: %v", v)
			}
			sum += v
		}
		if !almostEq(sum, 1, 1e-5) {
			t.Fatalf("row %d sums to %v", i, sum)
		}
	}
	// Shift invariance: both rows have identical relative logits.
	for j := 0; j < 3; j++ {
		if !almostEq(float64(s.At(0, j)), float64(s.At(1, j)), 1e-5) {
			t.Fatal("softmax not shift invariant / unstable for large logits")
		}
	}
}

func TestLogSoftmaxMatchesLogOfSoftmax(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	x := RandNormal(rng, 3, 4, 7)
	ls := LogSoftmax(x)
	s := Softmax(x)
	for i, v := range s.Data() {
		if !almostEq(float64(ls.Data()[i]), math.Log(float64(v)), 1e-4) {
			t.Fatalf("logsoftmax mismatch at %d: %v vs log(%v)", i, ls.Data()[i], v)
		}
	}
}

func TestKLDivergence(t *testing.T) {
	p := []float32{0.5, 0.5}
	if kl := KLDivergence(p, p); !almostEq(kl, 0, 1e-9) {
		t.Fatalf("KL(p||p) = %v", kl)
	}
	q := []float32{0.9, 0.1}
	if kl := KLDivergence(p, q); kl <= 0 {
		t.Fatalf("KL(p||q) = %v, want > 0", kl)
	}
}

func TestKLDivergenceNonNegativeProperty(t *testing.T) {
	f := func(a, b [5]uint8) bool {
		p := normalize(a[:])
		q := normalize(b[:])
		return KLDivergence(p, q) >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func normalize(raw []uint8) []float32 {
	out := make([]float32, len(raw))
	var sum float32
	for i, v := range raw {
		out[i] = float32(v) + 1
		sum += out[i]
	}
	for i := range out {
		out[i] /= sum
	}
	return out
}

func TestConcat(t *testing.T) {
	a := FromSlice([]float32{1, 2}, 2)
	b := FromSlice([]float32{3, 4}, 2)
	c := Concat([]*Tensor{a, b})
	if c.Dim(0) != 2 || c.Dim(1) != 2 || c.At(1, 0) != 3 {
		t.Fatalf("Concat wrong: %v %v", c.Shape(), c.Data())
	}
}

func TestMatMulSmall(t *testing.T) {
	a := FromSlice([]float32{1, 2, 3, 4, 5, 6}, 2, 3)
	b := FromSlice([]float32{7, 8, 9, 10, 11, 12}, 3, 2)
	c := MatMul(a, b)
	want := []float32{58, 64, 139, 154}
	for i, v := range c.Data() {
		if v != want[i] {
			t.Fatalf("MatMul = %v, want %v", c.Data(), want)
		}
	}
}

func TestMatMulTransposesAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := RandNormal(rng, 1, 4, 5)
	b := RandNormal(rng, 1, 5, 3)
	ref := MatMul(a, b)
	// MatMulT1: pass aᵀ explicitly.
	at := transpose(a)
	got1 := MatMulT1(at, b)
	// MatMulT2: pass bᵀ explicitly.
	bt := transpose(b)
	got2 := MatMulT2(a, bt)
	for i := range ref.Data() {
		if !almostEq(float64(ref.Data()[i]), float64(got1.Data()[i]), 1e-4) {
			t.Fatal("MatMulT1 disagrees with MatMul")
		}
		if !almostEq(float64(ref.Data()[i]), float64(got2.Data()[i]), 1e-4) {
			t.Fatal("MatMulT2 disagrees with MatMul")
		}
	}
}

func transpose(a *Tensor) *Tensor {
	m, n := a.Dim(0), a.Dim(1)
	out := New(n, m)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			out.Set(a.At(i, j), j, i)
		}
	}
	return out
}

func TestMatVec(t *testing.T) {
	a := FromSlice([]float32{1, 2, 3, 4}, 2, 2)
	x := FromSlice([]float32{1, 1}, 2)
	y := MatVec(a, x)
	if y.At(0) != 3 || y.At(1) != 7 {
		t.Fatalf("MatVec = %v", y.Data())
	}
}

func TestInverseRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	n := 8
	// Diagonally dominant => invertible.
	a := RandNormal(rng, 0.3, n, n)
	for i := 0; i < n; i++ {
		a.Set(a.At(i, i)+3, i, i)
	}
	inv, err := Inverse(a)
	if err != nil {
		t.Fatal(err)
	}
	prod := MatMul(a, inv)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			want := 0.0
			if i == j {
				want = 1
			}
			if !almostEq(float64(prod.At(i, j)), want, 1e-3) {
				t.Fatalf("A·A⁻¹[%d,%d] = %v", i, j, prod.At(i, j))
			}
		}
	}
}

func TestInverseSingular(t *testing.T) {
	a := New(3, 3) // all zeros
	if _, err := Inverse(a); err == nil {
		t.Fatal("expected error for singular matrix")
	}
}

func TestInverseNonSquare(t *testing.T) {
	if _, err := Inverse(New(2, 3)); err == nil {
		t.Fatal("expected error for non-square matrix")
	}
}

func TestConvOut(t *testing.T) {
	if ConvOut(32, 3, 1, 1) != 32 {
		t.Fatal("same-pad 3x3 s1 should preserve size")
	}
	if ConvOut(32, 3, 2, 1) != 16 {
		t.Fatal("3x3 s2 p1 on 32 should give 16")
	}
}

func TestIm2ColIdentityKernel(t *testing.T) {
	// With a 1x1 kernel, im2col is just a reshape.
	x := FromSlice([]float32{1, 2, 3, 4}, 1, 2, 2)
	col := Im2Col(x, 1, 1, 1, 0)
	if col.Dim(0) != 1 || col.Dim(1) != 4 {
		t.Fatalf("col shape %v", col.Shape())
	}
	for i, v := range col.Data() {
		if v != x.Data()[i] {
			t.Fatalf("1x1 im2col changed data: %v", col.Data())
		}
	}
}

func TestConvViaIm2ColMatchesDirect(t *testing.T) {
	// Reference: direct convolution of a 1-channel image with one 3x3 kernel.
	rng := rand.New(rand.NewSource(4))
	x := RandNormal(rng, 1, 1, 5, 5)
	w := RandNormal(rng, 1, 1, 3, 3)
	col := Im2Col(x, 3, 3, 1, 1)
	wm := w.Reshape(1, 9)
	y := MatMul(wm, col).Reshape(1, 5, 5)
	for oy := 0; oy < 5; oy++ {
		for ox := 0; ox < 5; ox++ {
			var want float32
			for ki := 0; ki < 3; ki++ {
				for kj := 0; kj < 3; kj++ {
					iy, ix := oy-1+ki, ox-1+kj
					if iy < 0 || iy >= 5 || ix < 0 || ix >= 5 {
						continue
					}
					want += x.At(0, iy, ix) * w.At(0, ki, kj)
				}
			}
			if !almostEq(float64(y.At(0, oy, ox)), float64(want), 1e-4) {
				t.Fatalf("conv mismatch at (%d,%d): %v vs %v", oy, ox, y.At(0, oy, ox), want)
			}
		}
	}
}

func TestCol2ImAdjointProperty(t *testing.T) {
	// <Im2Col(x), g> == <x, Col2Im(g)> for all x, g (adjoint identity).
	rng := rand.New(rand.NewSource(5))
	x := RandNormal(rng, 1, 2, 6, 6)
	g := RandNormal(rng, 1, 2*3*3, 3*3) // stride 2, pad 1 => 3x3 out
	lhs := Dot(Im2Col(x, 3, 3, 2, 1), g)
	rhs := Dot(x, Col2Im(g, 2, 6, 6, 3, 3, 2, 1))
	if !almostEq(lhs, rhs, 1e-3) {
		t.Fatalf("adjoint identity violated: %v vs %v", lhs, rhs)
	}
}

func TestDepthwiseConvMatchesManual(t *testing.T) {
	x := FromSlice([]float32{
		1, 2,
		3, 4,
	}, 1, 2, 2)
	w := FromSlice([]float32{
		0, 0, 0,
		0, 1, 0,
		0, 0, 0,
	}, 1, 3, 3) // identity kernel
	y := DepthwiseConv(x, w, nil, 1, 1)
	for i, v := range y.Data() {
		if v != x.Data()[i] {
			t.Fatalf("identity dwconv changed data: %v", y.Data())
		}
	}
	b := FromSlice([]float32{10}, 1)
	y2 := DepthwiseConv(x, w, b, 1, 1)
	if y2.At(0, 0, 0) != 11 {
		t.Fatalf("bias not applied: %v", y2.Data())
	}
}

func TestDepthwiseConvGradsNumerically(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	x := RandNormal(rng, 1, 2, 4, 4)
	w := RandNormal(rng, 0.5, 2, 3, 3)
	gy := RandNormal(rng, 1, 2, 2, 2) // stride 2, pad 1 -> 2x2
	gx, gw, gb := DepthwiseConvGrads(x, w, gy, 2, 1)

	loss := func() float64 {
		y := DepthwiseConv(x, w, nil, 2, 1)
		return Dot(y, gy)
	}
	const h = 1e-3
	// Spot-check a few coordinates of each gradient against finite differences.
	for _, idx := range []int{0, 7, 15} {
		orig := x.Data()[idx]
		x.Data()[idx] = orig + h
		up := loss()
		x.Data()[idx] = orig - h
		dn := loss()
		x.Data()[idx] = orig
		num := (up - dn) / (2 * h)
		if !almostEq(num, float64(gx.Data()[idx]), 1e-2) {
			t.Fatalf("gx[%d]: numeric %v vs analytic %v", idx, num, gx.Data()[idx])
		}
	}
	for _, idx := range []int{0, 5, 17} {
		orig := w.Data()[idx]
		w.Data()[idx] = orig + h
		up := loss()
		w.Data()[idx] = orig - h
		dn := loss()
		w.Data()[idx] = orig
		num := (up - dn) / (2 * h)
		if !almostEq(num, float64(gw.Data()[idx]), 1e-2) {
			t.Fatalf("gw[%d]: numeric %v vs analytic %v", idx, num, gw.Data()[idx])
		}
	}
	// Bias gradient is the per-channel sum of gy.
	for c := 0; c < 2; c++ {
		var want float32
		for _, v := range gy.Slice(c).Data() {
			want += v
		}
		if !almostEq(float64(gb.At(c)), float64(want), 1e-4) {
			t.Fatalf("gb[%d] = %v, want %v", c, gb.At(c), want)
		}
	}
}

func TestAvgPool(t *testing.T) {
	x := FromSlice([]float32{
		1, 2, 3, 4,
		5, 6, 7, 8,
		9, 10, 11, 12,
		13, 14, 15, 16,
	}, 1, 4, 4)
	y := AvgPool(x, 2)
	want := []float32{3.5, 5.5, 11.5, 13.5}
	for i, v := range y.Data() {
		if v != want[i] {
			t.Fatalf("AvgPool = %v, want %v", y.Data(), want)
		}
	}
}

func TestGlobalAvgPool(t *testing.T) {
	x := FromSlice([]float32{1, 2, 3, 4, 10, 10, 10, 10}, 2, 2, 2)
	y := GlobalAvgPool(x)
	if y.At(0) != 2.5 || y.At(1) != 10 {
		t.Fatalf("GlobalAvgPool = %v", y.Data())
	}
}

func TestRandInitializersDeterministic(t *testing.T) {
	a := HeNormal(rand.New(rand.NewSource(9)), 64, 3, 3)
	b := HeNormal(rand.New(rand.NewSource(9)), 64, 3, 3)
	for i := range a.Data() {
		if a.Data()[i] != b.Data()[i] {
			t.Fatal("same seed must give identical init")
		}
	}
}
