package mobilenet

import "fmt"

// LayerKind distinguishes the conv layer types for cost modelling.
type LayerKind int

const (
	// KindConv is a standard k×k convolution.
	KindConv LayerKind = iota
	// KindDepthwise is a depthwise k×k convolution.
	KindDepthwise
	// KindPointwise is a 1×1 convolution.
	KindPointwise
	// KindDense is the final classifier (after global average pooling).
	KindDense
)

// String implements fmt.Stringer.
func (k LayerKind) String() string {
	switch k {
	case KindConv:
		return "conv"
	case KindDepthwise:
		return "dw"
	case KindPointwise:
		return "pw"
	case KindDense:
		return "fc"
	default:
		return fmt.Sprintf("LayerKind(%d)", int(k))
	}
}

// LayerInfo records the analytically computed geometry and cost of one conv
// layer of a MobileNetV1 instance. It is the shared vocabulary between the
// replay-memory accounting (internal/memcost) and the hardware latency/energy
// models (internal/hw).
type LayerInfo struct {
	// Index is the 1-based conv-layer index (1..27), or 28 for the classifier.
	Index int
	Kind  LayerKind
	Name  string
	// Geometry.
	InC, OutC  int
	InH, InW   int
	OutH, OutW int
	Kernel     int
	Stride     int
	// MACs is the multiply-accumulate count of a forward pass.
	MACs int64
	// Weights is the parameter count (incl. bias).
	Weights int64
	// InActs / OutActs are activation scalar counts.
	InActs, OutActs int64
	// Frozen reports whether the layer belongs to f(·) under the config's
	// latent split.
	Frozen bool
}

// Inventory computes the per-layer geometry/cost table of cfg analytically
// (no tensors are allocated). The final entry is the classifier Dense layer.
func Inventory(cfg Config) []LayerInfo {
	var out []LayerInfo
	h := cfg.Resolution
	inC := 3
	push := func(idx int, kind LayerKind, name string, outC, kernel, stride int) {
		var oh int
		if kernel == 1 {
			oh = (h-1)/stride + 1 // pointwise, no padding
		} else {
			oh = (h+2-kernel)/stride + 1 // 3x3 with pad 1
		}
		info := LayerInfo{
			Index: idx, Kind: kind, Name: name,
			InC: inC, OutC: outC, InH: h, InW: h, OutH: oh, OutW: oh,
			Kernel: kernel, Stride: stride,
			Frozen: idx <= cfg.LatentLayer,
		}
		spatial := int64(oh) * int64(oh)
		switch kind {
		case KindDepthwise:
			info.MACs = spatial * int64(inC) * int64(kernel*kernel)
			info.Weights = int64(inC)*int64(kernel*kernel) + int64(inC)
		default:
			info.MACs = spatial * int64(outC) * int64(inC) * int64(kernel*kernel)
			info.Weights = int64(outC)*int64(inC)*int64(kernel*kernel) + int64(outC)
		}
		info.InActs = int64(inC) * int64(h) * int64(h)
		info.OutActs = int64(outC) * spatial
		out = append(out, info)
		h = oh
		inC = outC
	}

	stemC := scaleC(32, cfg.Width)
	push(1, KindConv, "conv1", stemC, 3, 2)
	idx := 1
	for b, spec := range v1Blocks {
		outC := scaleC(spec.outC, cfg.Width)
		idx++
		push(idx, KindDepthwise, fmt.Sprintf("dw%d", b+1), inC, 3, spec.stride)
		idx++
		push(idx, KindPointwise, fmt.Sprintf("pw%d", b+1), outC, 1, 1)
	}
	// Classifier after global average pooling.
	fc := LayerInfo{
		Index: NumConvLayers + 1, Kind: KindDense, Name: "fc",
		InC: inC, OutC: cfg.NumClasses, InH: 1, InW: 1, OutH: 1, OutW: 1,
		Kernel: 1, Stride: 1,
		MACs:    int64(inC) * int64(cfg.NumClasses),
		Weights: int64(inC)*int64(cfg.NumClasses) + int64(cfg.NumClasses),
		InActs:  int64(inC), OutActs: int64(cfg.NumClasses),
		Frozen: false,
	}
	out = append(out, fc)
	return out
}

// InventorySummary aggregates an inventory into frozen/trainable totals.
type InventorySummary struct {
	FrozenMACs, TrainMACs       int64
	FrozenWeights, TrainWeights int64
	// LatentScalars is the scalar count of the activation emitted by the
	// latent layer — the per-sample payload of a latent replay buffer.
	LatentScalars int64
	// InputScalars is the scalar count of one input image.
	InputScalars int64
	// NumClasses echoes the config for logit sizing.
	NumClasses int
}

// Summarize reduces an inventory under the given config.
func Summarize(cfg Config, inv []LayerInfo) InventorySummary {
	s := InventorySummary{
		InputScalars: 3 * int64(cfg.Resolution) * int64(cfg.Resolution),
		NumClasses:   cfg.NumClasses,
	}
	for _, l := range inv {
		if l.Frozen {
			s.FrozenMACs += l.MACs
			s.FrozenWeights += l.Weights
			if l.Index == cfg.LatentLayer {
				s.LatentScalars = l.OutActs
			}
		} else {
			s.TrainMACs += l.MACs
			s.TrainWeights += l.Weights
		}
	}
	return s
}
