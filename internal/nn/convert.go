package nn

import (
	"fmt"

	"chameleon/internal/tensor"
)

// WidenLayer deep-copies a fast-tier (float32) layer tree into the float64
// reference tier: parameters, frozen statistics and hyperparameters are
// widened, gradients start zeroed, and no scratch state is shared with the
// source. The widened tree is an independent model — training it never
// touches the original.
func WidenLayer(l Layer) (LayerOf[float64], error) {
	switch v := l.(type) {
	case *Sequential:
		out := &SequentialOf[float64]{Label: v.Label, Layers: make([]LayerOf[float64], 0, len(v.Layers))}
		for _, inner := range v.Layers {
			w, err := WidenLayer(inner)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", v.Label, err)
			}
			out.Layers = append(out.Layers, w)
		}
		return out, nil
	case *Frozen:
		inner, err := WidenLayer(v.Inner)
		if err != nil {
			return nil, err
		}
		return &FrozenOf[float64]{Inner: inner}, nil
	case *Dense:
		return &DenseOf[float64]{
			label: v.label,
			w:     widenParam(v.w),
			b:     widenParam(v.b),
			inCap: v.inCap,
		}, nil
	case *Conv2D:
		return &Conv2DOf[float64]{
			label: v.label, inC: v.inC, outC: v.outC,
			kh: v.kh, kw: v.kw, stride: v.stride, pad: v.pad,
			w: widenParam(v.w), b: widenParam(v.b),
		}, nil
	case *DepthwiseConv2D:
		return &DepthwiseConv2DOf[float64]{
			label: v.label, c: v.c, k: v.k, stride: v.stride, pad: v.pad,
			w: widenParam(v.w), b: widenParam(v.b),
		}, nil
	case *BatchNorm2D:
		return &BatchNorm2DOf[float64]{
			label: v.label, c: v.c,
			gamma: widenParam(v.gamma), beta: widenParam(v.beta),
			mean: tensor.Widen(v.mean), vari: tensor.Widen(v.vari),
			eps: float64(v.eps),
		}, nil
	case *GroupNorm2D:
		return &GroupNorm2DOf[float64]{
			label: v.label, c: v.c, g: v.g,
			gamma: widenParam(v.gamma), beta: widenParam(v.beta),
			eps: float64(v.eps),
		}, nil
	case *ReLU:
		return &ReLUOf[float64]{Cap: float64(v.Cap)}, nil
	case *GlobalAvgPool2D:
		return &GlobalAvgPool2DOf[float64]{}, nil
	default:
		return nil, fmt.Errorf("nn: cannot widen layer type %T (%s)", l, l.Name())
	}
}

func widenParam(p *Param) *ParamOf[float64] {
	return &ParamOf[float64]{
		Name: p.Name,
		Data: tensor.Widen(p.Data),
		Grad: tensor.NewOf[float64](p.Grad.Shape()...),
	}
}
