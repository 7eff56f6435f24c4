package mobilenet

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"chameleon/internal/nn"
	"chameleon/internal/parallel"
	"chameleon/internal/tensor"
)

func TestNewValidation(t *testing.T) {
	cases := []Config{
		{Width: 0, Resolution: 32, NumClasses: 10, LatentLayer: 21},
		{Width: 1, Resolution: 8, NumClasses: 10, LatentLayer: 21},
		{Width: 1, Resolution: 32, NumClasses: 1, LatentLayer: 21},
		{Width: 1, Resolution: 32, NumClasses: 10, LatentLayer: 0},
		{Width: 1, Resolution: 32, NumClasses: 10, LatentLayer: 27},
	}
	for i, cfg := range cases {
		if _, err := New(cfg); err == nil {
			t.Errorf("case %d: expected error for %+v", i, cfg)
		}
	}
}

func TestLatentShapeAtPaperSplit(t *testing.T) {
	// Paper scale: MobileNetV1-1.0 @ 64, latent layer 21 -> 512 ch @ stride 16.
	m, err := New(PaperConfig(50))
	if err != nil {
		t.Fatal(err)
	}
	want := []int{512, 4, 4}
	for i, d := range want {
		if m.LatentShape[i] != d {
			t.Fatalf("latent shape %v, want %v", m.LatentShape, want)
		}
	}
	// 512*4*4 fp32 = 32 KiB, the paper's per-sample latent payload.
	if m.LatentLen()*4 != 32*1024 {
		t.Fatalf("latent bytes = %d, want 32768", m.LatentLen()*4)
	}
}

func TestFrozenFeaturesHaveNoParams(t *testing.T) {
	m, err := New(DefaultConfig(10, 1))
	if err != nil {
		t.Fatal(err)
	}
	if n := len(m.Features.Params()); n != 0 {
		t.Fatalf("frozen extractor exposes %d params", n)
	}
	if nn.NumParams(m.Head) == 0 {
		t.Fatal("head has no trainable params")
	}
}

func TestForwardShapesSmall(t *testing.T) {
	m, err := New(DefaultConfig(10, 2))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	x := tensor.RandNormal(rng, 1, 3, 32, 32)
	z := m.ExtractLatent(x)
	for i, d := range m.LatentShape {
		if z.Dim(i) != d {
			t.Fatalf("latent %v, declared %v", z.Shape(), m.LatentShape)
		}
	}
	logits := m.Logits(z)
	if logits.NDim() != 1 || logits.Len() != 10 {
		t.Fatalf("logits shape %v", logits.Shape())
	}
}

func TestDeterministicInit(t *testing.T) {
	a, _ := New(DefaultConfig(10, 7))
	b, _ := New(DefaultConfig(10, 7))
	rng := rand.New(rand.NewSource(4))
	x := tensor.RandNormal(rng, 1, 3, 32, 32)
	za, zb := a.ExtractLatent(x), b.ExtractLatent(x.Clone())
	for i := range za.Data() {
		if za.Data()[i] != zb.Data()[i] {
			t.Fatal("same seed must give identical features")
		}
	}
	c, _ := New(DefaultConfig(10, 8))
	zc := c.ExtractLatent(x.Clone())
	same := true
	for i := range za.Data() {
		if za.Data()[i] != zc.Data()[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds should give different features")
	}
}

func TestConvTailHead(t *testing.T) {
	cfg := DefaultConfig(5, 9)
	cfg.Head = HeadConvTail
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	x := tensor.RandNormal(rng, 1, 3, 32, 32)
	z := m.ExtractLatent(x)
	logits := m.Head.Forward(z, true)
	if logits.Len() != 5 {
		t.Fatalf("logits %v", logits.Shape())
	}
	_, g := nn.CrossEntropy(logits, 2)
	gin := m.Head.Backward(g)
	for i, d := range m.LatentShape {
		if gin.Dim(i) != d {
			t.Fatalf("head backward shape %v, want latent %v", gin.Shape(), m.LatentShape)
		}
	}
}

func TestTrainStepReducesLossOnRepeatedSample(t *testing.T) {
	m, err := New(DefaultConfig(4, 10))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(6))
	z := tensor.RandNormal(rng, 1, m.LatentShape...)
	opt := nn.NewSGD(0.05)
	first := 0.0
	var last float64
	for i := 0; i < 30; i++ {
		nn.ZeroGrads(m.Head)
		loss := m.TrainStep(z, 1)
		opt.Step(m.Head)
		if i == 0 {
			first = loss
		}
		last = loss
	}
	if last >= first {
		t.Fatalf("loss did not decrease: %v -> %v", first, last)
	}
}

func TestInventoryPaperScale(t *testing.T) {
	cfg := PaperConfig(50)
	inv := Inventory(cfg)
	if len(inv) != NumConvLayers+1 {
		t.Fatalf("inventory has %d entries, want %d", len(inv), NumConvLayers+1)
	}
	// Layer 21 must be the pointwise conv of block 10 with 512 outputs at 4x4.
	l21 := inv[20]
	if l21.Index != 21 || l21.Kind != KindPointwise || l21.OutC != 512 || l21.OutH != 4 {
		t.Fatalf("layer 21 = %+v", l21)
	}
	if !l21.Frozen || inv[21].Frozen {
		t.Fatal("frozen split at latent layer 21 wrong")
	}
	s := Summarize(cfg, inv)
	if s.LatentScalars != 512*4*4 {
		t.Fatalf("latent scalars = %d", s.LatentScalars)
	}
	if s.TrainWeights == 0 || s.FrozenWeights == 0 {
		t.Fatal("summary has zero weights on one side")
	}
	// MobileNetV1-1.0 has ~4.2M params total; our 64x64 variant keeps the
	// same weight count (weights don't depend on resolution).
	total := s.TrainWeights + s.FrozenWeights
	if total < 3_000_000 || total > 5_000_000 {
		t.Fatalf("total weights = %d, outside MobileNetV1 range", total)
	}
}

func TestInventoryMatchesBuiltModelShapes(t *testing.T) {
	cfg := DefaultConfig(10, 11)
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	inv := Inventory(cfg)
	var latent LayerInfo
	for _, l := range inv {
		if l.Index == cfg.LatentLayer {
			latent = l
		}
	}
	if latent.OutC != m.LatentShape[0] || latent.OutH != m.LatentShape[1] || latent.OutW != m.LatentShape[2] {
		t.Fatalf("inventory latent %dx%dx%d vs model %v", latent.OutC, latent.OutH, latent.OutW, m.LatentShape)
	}
}

func TestInventoryMACsPositiveAndStridesReduce(t *testing.T) {
	inv := Inventory(PaperConfig(50))
	for _, l := range inv {
		if l.MACs <= 0 || l.Weights <= 0 {
			t.Fatalf("layer %s has non-positive cost: %+v", l.Name, l)
		}
		if l.Stride == 2 && l.OutH*2 != l.InH && l.OutH*2 != l.InH+1 {
			t.Fatalf("stride-2 layer %s: %d -> %d", l.Name, l.InH, l.OutH)
		}
	}
}

// TestExtractLatentsParallelEquivalence asserts the batched extractor is
// bit-identical to a serial ExtractLatent loop at any worker count, over one
// shared model (the eval-mode Forward mutation-freedom contract; run with
// -race to verify the absence of writes).
func TestExtractLatentsParallelEquivalence(t *testing.T) {
	m, err := New(Config{Width: 0.25, Resolution: 16, NumClasses: 4, LatentLayer: 5, Head: HeadMLP, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(17))
	imgs := make([]*tensor.Tensor, 24)
	for i := range imgs {
		imgs[i] = tensor.RandNormal(rng, 1, 3, 16, 16)
	}
	var want []*tensor.Tensor
	for _, x := range imgs {
		want = append(want, m.ExtractLatent(x))
	}
	parallel.SetWorkers(8)
	defer parallel.SetWorkers(0)
	got := m.ExtractLatents(imgs)
	for i := range imgs {
		for j, v := range want[i].Data() {
			if got[i].Data()[j] != v {
				t.Fatalf("latent %d differs at %d: %v vs %v", i, j, got[i].Data()[j], v)
			}
		}
	}
}

// TestNewHeadMatchesNewHead pins the head-only build: NewHead's layers, once
// a non-nil init has run, hold bit for bit the parameters and BatchNorm statistics of
// New(cfg).Head, for both head kinds, both norms, several seeds and the
// paper-scale config.
func TestNewHeadMatchesNewHead(t *testing.T) {
	var cfgs []Config
	for _, hk := range []HeadKind{HeadMLP, HeadConvTail} {
		for _, nk := range []NormKind{NormGroup, NormBatch} {
			for _, seed := range []int64{0, 1, 7, 12345} {
				cfg := DefaultConfig(10, seed)
				cfg.Head, cfg.Norm = hk, nk
				cfgs = append(cfgs, cfg)
			}
		}
	}
	cfgs = append(cfgs, PaperConfig(50))
	for _, cfg := range cfgs {
		name := fmt.Sprintf("%v/%v/seed=%d/width=%v", cfg.Head, cfg.Norm, cfg.Seed, cfg.Width)
		m, err := New(cfg)
		if err != nil {
			t.Fatalf("%s: New: %v", name, err)
		}
		head, init, err := NewHead(cfg)
		if err != nil {
			t.Fatalf("%s: NewHead: %v", name, err)
		}
		// Only a head with BatchNorm statistics comes back already written.
		if bnTail := cfg.Head == HeadConvTail && cfg.Norm == NormBatch; (init == nil) != bnTail {
			t.Fatalf("%s: init returned nil = %v, want %v", name, init == nil, bnTail)
		}
		if init != nil {
			init()
		}
		want, got := headValues(m.Head), headValues(head)
		if len(got) != len(want) {
			t.Fatalf("%s: head has %d value tensors, New's has %d", name, len(got), len(want))
		}
		for i := range want {
			if got[i].name != want[i].name || !reflect.DeepEqual(got[i].shape, want[i].shape) {
				t.Fatalf("%s: tensor %d is %s%v, want %s%v", name, i, got[i].name, got[i].shape, want[i].name, want[i].shape)
			}
			for j, v := range want[i].data {
				if math.Float32bits(got[i].data[j]) != math.Float32bits(v) {
					t.Fatalf("%s: %s[%d] = %v, want %v", name, want[i].name, j, got[i].data[j], v)
				}
			}
		}
	}
}

type headValue struct {
	name  string
	shape []int
	data  []float32
}

// headValues lists every value a head starts from: its parameters and any
// BatchNorm running statistics, in layer order.
func headValues(s *nn.Sequential) []headValue {
	var out []headValue
	for _, l := range s.Layers {
		for _, p := range l.Params() {
			out = append(out, headValue{p.Name, p.Data.Shape(), p.Data.Data()})
		}
		if bn, ok := l.(*nn.BatchNorm2D); ok {
			mean, vari := bn.Stats()
			out = append(out,
				headValue{l.Name() + ".mean", mean.Shape(), mean.Data()},
				headValue{l.Name() + ".var", vari.Shape(), vari.Data()})
		}
	}
	return out
}

func TestNewHeadValidation(t *testing.T) {
	cfg := DefaultConfig(10, 1)
	cfg.LatentLayer = NumConvLayers
	if _, _, err := NewHead(cfg); err == nil {
		t.Fatal("NewHead accepted an out-of-range latent layer")
	}
}
