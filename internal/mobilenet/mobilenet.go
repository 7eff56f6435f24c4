// Package mobilenet builds the MobileNetV1 backbone the paper trains on and
// splits it at a latent layer into a frozen feature extractor f(·) and a
// trainable head g(·), following the Latent Replay / Chameleon setup.
//
// MobileNetV1 has 27 convolutional layers: one standard 3×3 stem plus 13
// depthwise-separable blocks (a depthwise 3×3 and a pointwise 1×1 each).
// The paper freezes layers 1..21 — conv layer 21 is the pointwise layer of
// block 10, whose output (512·α channels at stride 16) is the "latent"
// activation stored in the replay buffers — and trains the rest.
//
// Pretrained ImageNet weights are substituted by a deterministic He-normal
// initialisation (see DESIGN.md): with the synthetic class-prototype data in
// internal/data, frozen random convolutional features act as a structured
// random projection that preserves class geometry, which is all the online
// learner relies on.
package mobilenet

import (
	"fmt"
	"math"
	"math/rand"

	"chameleon/internal/nn"
	"chameleon/internal/parallel"
	"chameleon/internal/tensor"
)

// HeadKind selects the architecture of the trainable head g(·).
type HeadKind int

const (
	// HeadConvTail is the faithful MobileNetV1 tail: the remaining
	// depthwise-separable blocks after the latent layer, global average
	// pooling and the classifier. This is what the paper trains and what the
	// hardware models cost out.
	HeadConvTail HeadKind = iota
	// HeadMLP is a lighter head (global average pool, one hidden dense layer,
	// classifier) used to keep laptop-scale accuracy experiments fast. It
	// preserves the structure that matters for continual learning — all
	// trainable capacity sits above the frozen latent layer.
	HeadMLP
)

// String implements fmt.Stringer.
func (k HeadKind) String() string {
	switch k {
	case HeadConvTail:
		return "convtail"
	case HeadMLP:
		return "mlp"
	default:
		return fmt.Sprintf("HeadKind(%d)", int(k))
	}
}

// NormKind selects the backbone's normalisation layer.
type NormKind int

const (
	// NormGroup uses GroupNorm (default). It has no batch or dataset
	// dependence, so it both trains the deep backbone from scratch during the
	// pretraining phase and behaves identically in single-sample online
	// training — the regime edge devices actually run. This is a documented
	// substitution for the paper's BatchNorm (see DESIGN.md).
	NormGroup NormKind = iota
	// NormBatch uses frozen-statistics BatchNorm, the inference-time
	// behaviour of the paper's pretrained backbone. Statistics are installed
	// via CalibrateBN. Deep from-scratch pretraining does not converge under
	// frozen statistics; use NormGroup for that.
	NormBatch
)

// String implements fmt.Stringer.
func (n NormKind) String() string {
	switch n {
	case NormGroup:
		return "groupnorm"
	case NormBatch:
		return "batchnorm"
	default:
		return fmt.Sprintf("NormKind(%d)", int(n))
	}
}

// Config describes a MobileNetV1 instance.
type Config struct {
	// Width is the width multiplier α (paper uses 1.0; experiments here
	// default to 0.25 for speed).
	Width float64
	// Resolution is the square input size.
	Resolution int
	// NumClasses is the classifier width.
	NumClasses int
	// LatentLayer is the conv-layer index (1..27) after which activations are
	// treated as latents. The paper uses 21.
	LatentLayer int
	// Head selects the trainable head architecture.
	Head HeadKind
	// Norm selects the normalisation layer (default NormGroup).
	Norm NormKind
	// HiddenDim is the hidden width for HeadMLP (default 64).
	HiddenDim int
	// Seed drives the deterministic pseudo-pretrained initialisation.
	Seed int64
}

// DefaultConfig returns the laptop-scale configuration used by the
// experiment harness: MobileNetV1-0.25 at 32×32 with the paper's latent
// layer 21 and an MLP head.
func DefaultConfig(numClasses int, seed int64) Config {
	return Config{
		Width:       0.25,
		Resolution:  32,
		NumClasses:  numClasses,
		LatentLayer: 21,
		Head:        HeadMLP,
		HiddenDim:   64,
		Seed:        seed,
	}
}

// PaperConfig returns the paper-scale configuration (MobileNetV1-1.0, 64×64
// inputs — the resolution at which the latent layer's 512×4×4 fp32 activation
// matches the paper's reported 32 KB per replay sample), with the faithful
// convolutional tail head. Used for memory accounting and hardware modelling.
func PaperConfig(numClasses int) Config {
	return Config{
		Width:       1.0,
		Resolution:  64,
		NumClasses:  numClasses,
		LatentLayer: 21,
		Head:        HeadConvTail,
	}
}

// blockSpec is one depthwise-separable block: output channels (pre-width
// scaling) and the stride of its depthwise conv.
type blockSpec struct {
	outC   int
	stride int
}

// v1Blocks is the canonical MobileNetV1 block table.
var v1Blocks = []blockSpec{
	{64, 1},
	{128, 2},
	{128, 1},
	{256, 2},
	{256, 1},
	{512, 2},
	{512, 1}, {512, 1}, {512, 1}, {512, 1}, {512, 1},
	{1024, 2},
	{1024, 1},
}

// NumConvLayers is the number of convolutional layers in MobileNetV1.
const NumConvLayers = 1 + 2*13

// normGroups picks the largest group count in {8,4,2,1} dividing c.
func normGroups(c int) int {
	for _, g := range []int{8, 4, 2} {
		if c%g == 0 {
			return g
		}
	}
	return 1
}

// scaleC applies the width multiplier, keeping at least 4 channels.
func scaleC(c int, width float64) int {
	s := int(math.Round(float64(c) * width))
	if s < 4 {
		s = 4
	}
	return s
}

// Model is a split MobileNetV1: frozen Features (f) and trainable Head (g).
type Model struct {
	Cfg Config
	// Features is the frozen extractor: conv layers 1..LatentLayer with their
	// BN and activations, wrapped so they expose no trainable parameters.
	Features *nn.Sequential
	// Head is the trainable g(·): it consumes a latent tensor and produces
	// class logits.
	Head *nn.Sequential
	// LatentShape is the [C,H,W] shape of f's output.
	LatentShape []int
}

// New builds the model described by cfg. It returns an error for invalid
// configurations (bad latent layer, non-positive sizes).
func New(cfg Config) (*Model, error) {
	b, err := walk(cfg, true)
	if err != nil {
		return nil, err
	}
	b.init()()
	m := &Model{Cfg: b.cfg, Features: b.feat, Head: b.head}
	m.LatentShape = b.feat.OutShape([]int{3, b.cfg.Resolution, b.cfg.Resolution})
	return m, nil
}

// NewHead builds only the trainable head of New(cfg), with zero weights, and
// returns init, which writes into it in place exactly the values New(cfg).Head
// starts from. The frozen stages (and, for HeadMLP, the conv tail New drops)
// are never allocated: init draws their share of the seed's stream and
// discards it. A caller that overwrites every parameter before first use can
// skip init. A head whose initial values include BatchNorm statistics (a
// NormBatch conv tail), which are not parameters, is written here instead,
// and init is nil.
func NewHead(cfg Config) (head *nn.Sequential, init func(), err error) {
	b, err := walk(cfg, false)
	if err != nil {
		return nil, nil, err
	}
	init = b.init()
	if b.bnStats {
		init()
		init = nil
	}
	return b.head, init, nil
}

// draw is one contiguous run of the initialisation stream: n normal (std a)
// or uniform ([a, b)) values written in order into dst, or drawn and
// discarded when dst is nil.
type draw struct {
	dst     *tensor.Tensor
	n       int
	uniform bool
	a, b    float64
}

// builder is the one walk over the layer table that New and NewHead share.
// It allocates, with zero weights, only the stages it keeps, and records every
// initial value as a draw, in the order that defines a seed's stream: each
// conv's weights then its norm's statistics, stage by stage, then the
// classifier.
type builder struct {
	cfg        Config
	keepFrozen bool
	// feat takes the frozen stages; head the conv tail, if kept, and then
	// the classifier.
	feat, head *nn.Sequential
	draws      []draw
	bnStats    bool // a kept stage's BatchNorm statistics are among the draws
	stages     int  // conv layers walked so far
	latC       int  // channels of the latent activation
}

// walk validates cfg and builds the layers New (keepFrozen) or NewHead keeps.
func walk(cfg Config, keepFrozen bool) (*builder, error) {
	if cfg.Width <= 0 {
		return nil, fmt.Errorf("mobilenet: width %v must be positive", cfg.Width)
	}
	if cfg.Resolution < 16 {
		return nil, fmt.Errorf("mobilenet: resolution %d too small (min 16)", cfg.Resolution)
	}
	if cfg.NumClasses < 2 {
		return nil, fmt.Errorf("mobilenet: need at least 2 classes, got %d", cfg.NumClasses)
	}
	if cfg.LatentLayer < 1 || cfg.LatentLayer >= NumConvLayers {
		return nil, fmt.Errorf("mobilenet: latent layer %d out of range [1,%d)", cfg.LatentLayer, NumConvLayers)
	}
	if cfg.Head != HeadConvTail && cfg.Head != HeadMLP {
		return nil, fmt.Errorf("mobilenet: unknown head kind %v", cfg.Head)
	}
	if cfg.HiddenDim <= 0 {
		cfg.HiddenDim = 64
	}
	b := &builder{cfg: cfg, keepFrozen: keepFrozen, feat: nn.NewSequential("features"), head: nn.NewSequential("head")}

	inC := 3
	stemC := scaleC(32, cfg.Width)
	b.stage(stemC, inC*3*3, func() nn.Layer { return nn.NewConv2D("conv1", inC, stemC, 3, 2, 1, nil) })
	inC = stemC
	for i, spec := range v1Blocks {
		outC := scaleC(spec.outC, cfg.Width)
		b.stage(inC, 3*3, func() nn.Layer {
			return nn.NewDepthwiseConv2D(fmt.Sprintf("dw%d", i+1), inC, 3, spec.stride, 1, nil)
		})
		b.stage(outC, inC, func() nn.Layer { return nn.NewConv2D(fmt.Sprintf("pw%d", i+1), inC, outC, 1, 1, 0, nil) })
		inC = outC
	}

	if cfg.Head == HeadConvTail {
		fc := nn.NewDense("fc", inC, cfg.NumClasses, nil)
		b.he(fc, inC)
		b.head.Append(nn.NewGlobalAvgPool2D(), fc)
		return b, nil
	}
	fc1 := nn.NewDense("fc1", b.latC, cfg.HiddenDim, nil)
	b.he(fc1, b.latC)
	fc2 := nn.NewDense("fc2", cfg.HiddenDim, cfg.NumClasses, nil)
	b.he(fc2, cfg.HiddenDim)
	b.head.Append(nn.NewGlobalAvgPool2D(), fc1, nn.NewReLU(), fc2)
	return b, nil
}

// stage walks one conv layer with its norm and ReLU6: c output channels, a
// weight fan-in of fanIn, and conv to construct it if the stage is kept. A
// frozen stage goes to the features, a later one to the head's conv tail.
func (b *builder) stage(c, fanIn int, conv func() nn.Layer) {
	b.stages++
	frozen := b.stages <= b.cfg.LatentLayer
	if b.stages == b.cfg.LatentLayer {
		b.latC = c
	}
	keep := b.keepFrozen
	if !frozen {
		keep = b.cfg.Head == HeadConvTail
	}
	if !keep {
		b.draws = append(b.draws, draw{n: c * fanIn})
		if b.cfg.Norm == NormBatch {
			b.draws = append(b.draws, draw{n: c}, draw{n: c, uniform: true})
		}
		return
	}
	l := conv()
	b.he(l, fanIn)
	var norm nn.Layer
	switch b.cfg.Norm {
	case NormBatch:
		bn := nn.NewBatchNorm2D(fmt.Sprintf("bn%d", b.stages), c)
		// Pseudo-pretrained statistics: mild per-channel offsets/scales;
		// CalibrateBN replaces them with measured values.
		mean, vari := bn.Stats()
		b.draws = append(b.draws, draw{dst: mean, n: c, a: 0.1}, draw{dst: vari, n: c, uniform: true, a: 0.8, b: 1.2})
		b.bnStats = true
		norm = bn
	default:
		norm = nn.NewGroupNorm2D(fmt.Sprintf("gn%d", b.stages), c, normGroups(c))
	}
	if frozen {
		b.feat.Append(&nn.Frozen{Inner: l}, &nn.Frozen{Inner: norm}, nn.NewReLU6())
	} else {
		b.head.Append(l, norm, nn.NewReLU6())
	}
}

// he records l's He-normal weight draw, as tensor.HeNormal makes it.
func (b *builder) he(l nn.Layer, fanIn int) {
	w := l.Params()[0].Data
	b.draws = append(b.draws, draw{dst: w, n: w.Len(), a: tensor.HeStd(fanIn)})
}

// init returns the function that replays the recorded draws from a fresh
// stream of the config's seed.
func (b *builder) init() func() {
	seed, draws := b.cfg.Seed, b.draws
	return func() {
		rng := rand.New(rand.NewSource(seed))
		for _, d := range draws {
			var out []float32
			if d.dst != nil {
				out = d.dst.Data()
			}
			if d.uniform {
				tensor.FillUniform(rng, d.a, d.b, d.n, out)
			} else {
				tensor.FillNormal(rng, d.a, d.n, out)
			}
		}
	}
}

// ExtractLatent runs the frozen feature extractor on a [3,R,R] image.
//
// Eval-mode Forward is mutation-free across every layer this backbone is
// built from (conv, norm, activation layers cache intermediates only when
// train=true), so ExtractLatent is safe to call concurrently on one shared
// model — the property the parallel extraction data plane relies on.
func (m *Model) ExtractLatent(x *tensor.Tensor) *tensor.Tensor {
	return m.Features.Forward(x, false)
}

// ExtractLatents runs the frozen extractor over a batch of images, sharding
// samples across the worker pool. Each output index is computed by an
// independent eval-mode forward pass, so results are bit-identical to calling
// ExtractLatent in a loop regardless of worker count.
func (m *Model) ExtractLatents(imgs []*tensor.Tensor) []*tensor.Tensor {
	out := make([]*tensor.Tensor, len(imgs))
	parallel.For(len(imgs), 1, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			out[i] = m.Features.Forward(imgs[i], false)
		}
	})
	return out
}

// Logits runs the trainable head on a latent tensor in eval mode.
func (m *Model) Logits(latent *tensor.Tensor) *tensor.Tensor {
	return m.Head.Forward(latent, false)
}

// TrainStep performs one forward/backward pass of the head on a latent and
// accumulates gradients (no optimizer step; callers batch several of these
// before stepping). It returns the loss.
func (m *Model) TrainStep(latent *tensor.Tensor, label int) float64 {
	logits := m.Head.Forward(latent, true)
	loss, g := nn.CrossEntropy(logits, label)
	m.Head.Backward(g)
	return loss
}

// LatentLen returns the flattened latent size in scalars.
func (m *Model) LatentLen() int {
	n := 1
	for _, d := range m.LatentShape {
		n *= d
	}
	return n
}
