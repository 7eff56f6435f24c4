package nn

import (
	"math"
	"math/rand"
	"testing"

	"chameleon/internal/tensor"
)

// numGrad computes d loss / d v[idx] by central finite differences.
func numGrad(v []float32, idx int, loss func() float64) float64 {
	const h = 1e-3
	orig := v[idx]
	v[idx] = orig + h
	up := loss()
	v[idx] = orig - h
	dn := loss()
	v[idx] = orig
	return (up - dn) / (2 * h)
}

// checkLayerGrads verifies input and parameter gradients of a layer against
// finite differences using the surrogate loss <forward(x), gy>.
func checkLayerGrads(t *testing.T, l Layer, x, gy *tensor.Tensor, tol float64) {
	t.Helper()
	loss := func() float64 { return tensor.Dot(l.Forward(x, false), gy) }
	ZeroGrads(l)
	l.Forward(x, true)
	gx := l.Backward(gy)

	for _, idx := range sampleIdx(x.Len()) {
		num := numGrad(x.Data(), idx, loss)
		if math.Abs(num-float64(gx.Data()[idx])) > tol {
			t.Fatalf("%s: input grad[%d]: numeric %v vs analytic %v", l.Name(), idx, num, gx.Data()[idx])
		}
	}
	for _, p := range l.Params() {
		for _, idx := range sampleIdx(p.Data.Len()) {
			num := numGrad(p.Data.Data(), idx, loss)
			if math.Abs(num-float64(p.Grad.Data()[idx])) > tol {
				t.Fatalf("%s: %s grad[%d]: numeric %v vs analytic %v", l.Name(), p.Name, idx, num, p.Grad.Data()[idx])
			}
		}
	}
}

func sampleIdx(n int) []int {
	if n <= 6 {
		out := make([]int, n)
		for i := range out {
			out[i] = i
		}
		return out
	}
	return []int{0, n / 5, n / 2, n - 1}
}

func TestDenseGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	d := NewDense("fc", 6, 4, rng)
	x := tensor.RandNormal(rng, 1, 6)
	gy := tensor.RandNormal(rng, 1, 4)
	checkLayerGrads(t, d, x, gy, 1e-2)
}

func TestConv2DGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	c := NewConv2D("conv", 2, 3, 3, 2, 1, rng)
	x := tensor.RandNormal(rng, 1, 2, 6, 6)
	gy := tensor.RandNormal(rng, 1, 3, 3, 3)
	checkLayerGrads(t, c, x, gy, 2e-2)
}

func TestDepthwiseConv2DGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	d := NewDepthwiseConv2D("dw", 2, 3, 1, 1, rng)
	x := tensor.RandNormal(rng, 1, 2, 4, 4)
	gy := tensor.RandNormal(rng, 1, 2, 4, 4)
	checkLayerGrads(t, d, x, gy, 2e-2)
}

func TestBatchNormGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	b := NewBatchNorm2D("bn", 3)
	b.SetStats(tensor.RandNormal(rng, 0.5, 3), tensor.RandUniform(rng, 0.5, 2, 3))
	b.gamma.Data.CopyFrom(tensor.RandUniform(rng, 0.5, 1.5, 3))
	x := tensor.RandNormal(rng, 1, 3, 3, 3)
	gy := tensor.RandNormal(rng, 1, 3, 3, 3)
	checkLayerGrads(t, b, x, gy, 1e-2)
}

func TestGroupNormGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	gn := NewGroupNorm2D("gn", 4, 2)
	gn.Params()[0].Data.CopyFrom(tensor.RandUniform(rng, 0.5, 1.5, 4))
	gn.Params()[1].Data.CopyFrom(tensor.RandNormal(rng, 0.3, 4))
	x := tensor.RandNormal(rng, 1, 4, 3, 3)
	gy := tensor.RandNormal(rng, 1, 4, 3, 3)
	checkLayerGrads(t, gn, x, gy, 1e-2)
}

func TestGroupNormNormalises(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	gn := NewGroupNorm2D("gn", 8, 4)
	x := tensor.RandNormal(rng, 5, 8, 4, 4)
	y := gn.Forward(x, false)
	// Each group of 2 channels must come out ~standardised.
	for g := 0; g < 4; g++ {
		seg := y.Data()[g*2*16 : (g+1)*2*16]
		var sum, sumSq float64
		for _, v := range seg {
			sum += float64(v)
			sumSq += float64(v) * float64(v)
		}
		n := float64(len(seg))
		mu := sum / n
		v := sumSq/n - mu*mu
		if math.Abs(mu) > 1e-3 || math.Abs(v-1) > 1e-2 {
			t.Fatalf("group %d: mean=%v var=%v", g, mu, v)
		}
	}
}

func TestGroupNormValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic when groups do not divide channels")
		}
	}()
	NewGroupNorm2D("gn", 6, 4)
}

func TestGlobalAvgPoolGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := NewGlobalAvgPool2D()
	x := tensor.RandNormal(rng, 1, 2, 3, 3)
	gy := tensor.RandNormal(rng, 1, 2)
	checkLayerGrads(t, g, x, gy, 1e-3)
}

func TestReLUForwardBackward(t *testing.T) {
	r := NewReLU6()
	x := tensor.FromSlice([]float32{-1, 0.5, 7}, 3)
	y := r.Forward(x, true)
	if y.At(0) != 0 || y.At(1) != 0.5 || y.At(2) != 6 {
		t.Fatalf("relu6 forward = %v", y.Data())
	}
	g := r.Backward(tensor.FromSlice([]float32{1, 1, 1}, 3))
	if g.At(0) != 0 || g.At(1) != 1 || g.At(2) != 0 {
		t.Fatalf("relu6 backward = %v", g.Data())
	}
}

func TestFrozenHidesParams(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	d := NewDense("fc", 3, 2, rng)
	f := &Frozen{Inner: d}
	if len(f.Params()) != 0 {
		t.Fatal("frozen layer must expose no params")
	}
	x := tensor.RandNormal(rng, 1, 3)
	y := f.Forward(x, true)
	if y.Len() != 2 {
		t.Fatalf("frozen forward shape %v", y.Shape())
	}
	// Backward still propagates.
	g := f.Backward(tensor.Full(1, 2))
	if g.Len() != 3 {
		t.Fatalf("frozen backward shape %v", g.Shape())
	}
}

func TestSequentialGradientsAndOutShape(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	m := NewSequential("mlp",
		NewDense("fc1", 5, 8, rng),
		NewReLU(),
		NewDense("fc2", 8, 3, rng),
	)
	if got := m.OutShape([]int{5}); len(got) != 1 || got[0] != 3 {
		t.Fatalf("OutShape = %v", got)
	}
	x := tensor.RandNormal(rng, 1, 5)
	gy := tensor.RandNormal(rng, 1, 3)
	checkLayerGrads(t, m, x, gy, 2e-2)
	if NumParams(m) != 5*8+8+8*3+3 {
		t.Fatalf("NumParams = %d", NumParams(m))
	}
}

func TestCrossEntropy(t *testing.T) {
	logits := tensor.FromSlice([]float32{2, 0, 0}, 3)
	loss, grad := CrossEntropy(logits, 0)
	if loss <= 0 || loss > 1 {
		t.Fatalf("loss = %v", loss)
	}
	// Gradient sums to zero and is negative only at the true class.
	var sum float64
	for i, v := range grad.Data() {
		sum += float64(v)
		if i == 0 && v >= 0 {
			t.Fatal("true-class grad should be negative")
		}
		if i != 0 && v <= 0 {
			t.Fatal("other-class grads should be positive")
		}
	}
	if math.Abs(sum) > 1e-5 {
		t.Fatalf("CE grad sums to %v", sum)
	}
}

func TestCrossEntropyGradNumeric(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	logits := tensor.RandNormal(rng, 1, 5)
	_, grad := CrossEntropy(logits, 2)
	for i := 0; i < 5; i++ {
		num := numGrad(logits.Data(), i, func() float64 {
			l, _ := CrossEntropy(logits, 2)
			return l
		})
		if math.Abs(num-float64(grad.Data()[i])) > 1e-3 {
			t.Fatalf("CE grad[%d]: numeric %v vs analytic %v", i, num, grad.Data()[i])
		}
	}
}

func TestSoftCrossEntropyGradNumeric(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	st := tensor.RandNormal(rng, 1, 4)
	te := tensor.RandNormal(rng, 1, 4)
	for _, temp := range []float64{1, 2} {
		_, grad := SoftCrossEntropy(st, te, temp)
		for i := 0; i < 4; i++ {
			num := numGrad(st.Data(), i, func() float64 {
				l, _ := SoftCrossEntropy(st, te, temp)
				return l
			})
			if math.Abs(num-float64(grad.Data()[i])) > 1e-3 {
				t.Fatalf("T=%v soft-CE grad[%d]: numeric %v vs analytic %v", temp, i, num, grad.Data()[i])
			}
		}
	}
}

func TestMSELogitsGradNumeric(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	lg := tensor.RandNormal(rng, 1, 4)
	target := tensor.RandNormal(rng, 1, 4)
	_, grad := MSELogits(lg, target)
	for i := 0; i < 4; i++ {
		num := numGrad(lg.Data(), i, func() float64 {
			l, _ := MSELogits(lg, target)
			return l
		})
		if math.Abs(num-float64(grad.Data()[i])) > 1e-3 {
			t.Fatalf("MSE grad[%d]: numeric %v vs analytic %v", i, num, grad.Data()[i])
		}
	}
	if l, _ := MSELogits(lg, lg); l != 0 {
		t.Fatalf("MSE of identical logits = %v", l)
	}
}

func TestSGDLearnsLinearlySeparableTask(t *testing.T) {
	// A 2-layer MLP must fit a small 3-class problem with single-sample SGD.
	rng := rand.New(rand.NewSource(12))
	m := NewSequential("mlp",
		NewDense("fc1", 2, 16, rng),
		NewReLU(),
		NewDense("fc2", 16, 3, rng),
	)
	opt := NewSGD(0.05)
	opt.Momentum = 0.9
	centers := [][2]float32{{2, 0}, {-2, 2}, {0, -2}}
	sample := func() (*tensor.Tensor, int) {
		c := rng.Intn(3)
		x := tensor.FromSlice([]float32{
			centers[c][0] + float32(rng.NormFloat64())*0.3,
			centers[c][1] + float32(rng.NormFloat64())*0.3,
		}, 2)
		return x, c
	}
	for i := 0; i < 600; i++ {
		x, y := sample()
		ZeroGrads(m)
		logits := m.Forward(x, true)
		_, g := CrossEntropy(logits, y)
		m.Backward(g)
		opt.Step(m)
	}
	correct := 0
	for i := 0; i < 200; i++ {
		x, y := sample()
		if m.Forward(x, false).ArgMax() == y {
			correct++
		}
	}
	if correct < 190 {
		t.Fatalf("SGD failed to learn: %d/200 correct", correct)
	}
}

func TestSGDWeightDecayShrinksWeights(t *testing.T) {
	p := &Param{Name: "w", Data: tensor.Full(1, 4), Grad: tensor.New(4)}
	opt := NewSGD(0.1)
	opt.WeightDecay = 0.5
	opt.StepParam(p)
	for _, v := range p.Data.Data() {
		if math.Abs(float64(v)-0.95) > 1e-6 {
			t.Fatalf("weight decay update wrong: %v", v)
		}
	}
}

func TestSGDGradClip(t *testing.T) {
	p := &Param{Name: "w", Data: tensor.New(2), Grad: tensor.FromSlice([]float32{30, 40}, 2)}
	opt := NewSGD(1)
	opt.GradClip = 5 // grad norm 50 -> scaled to 5
	opt.StepParam(p)
	if math.Abs(float64(p.Data.At(0))+3) > 1e-4 || math.Abs(float64(p.Data.At(1))+4) > 1e-4 {
		t.Fatalf("clip update wrong: %v", p.Data.Data())
	}
}
