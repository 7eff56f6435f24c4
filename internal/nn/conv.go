package nn

import (
	"fmt"
	"math/rand"

	"chameleon/internal/tensor"
)

// Conv2DOf is a standard 2-D convolution on [C,H,W] single-sample inputs,
// implemented as im2col + GEMM. Weights are stored as [outC, inC*KH*KW].
type Conv2DOf[T tensor.Float] struct {
	label            string
	inC, outC        int
	kh, kw, stride   int
	pad              int
	w                *ParamOf[T]
	b                *ParamOf[T]
	col              *tensor.Of[T] // cached im2col matrix (train mode)
	inH, inW, oh, ow int
	// gwScratch and dcolScratch are backward-pass work buffers, reused across
	// steps. They are touched only in Backward, which runs on the training
	// goroutine; eval-mode Forward stays mutation-free so a frozen model can
	// serve concurrent extraction workers.
	gwScratch, dcolScratch *tensor.Of[T]
	// colBuf is the forward im2col scratch and y3/y2 one output buffer viewed
	// as [outC,OH,OW] and [outC,OH*OW]; gxBuf holds the input gradient. All
	// are reused on the train path always, and colBuf/y on the eval path once
	// a workspace is attached.
	colBuf, y2, y3, gxBuf *tensor.Of[T]
	ws                    *tensor.WorkspaceOf[T]
}

// Conv2D is the fast-tier convolution layer.
type Conv2D = Conv2DOf[float32]

// NewConv2D creates a fast-tier Conv2D with He-normal weights (zero when rng
// is nil) and zero bias.
func NewConv2D(label string, inC, outC, k, stride, pad int, rng *rand.Rand) *Conv2D {
	fanIn := inC * k * k
	return &Conv2D{
		label: label, inC: inC, outC: outC, kh: k, kw: k, stride: stride, pad: pad,
		w: &Param{Name: label + ".w", Data: heNormal(rng, fanIn, outC, fanIn), Grad: tensor.New(outC, fanIn)},
		b: &Param{Name: label + ".b", Data: tensor.New(outC), Grad: tensor.New(outC)},
	}
}

// Name implements Layer.
func (c *Conv2DOf[T]) Name() string { return c.label }

// SetWorkspace implements WorkspaceUser.
func (c *Conv2DOf[T]) SetWorkspace(ws *tensor.WorkspaceOf[T]) { c.ws = ws }

// Forward implements Layer for a [inC,H,W] input, producing [outC,OH,OW].
func (c *Conv2DOf[T]) Forward(x *tensor.Of[T], train bool) *tensor.Of[T] {
	if x.NDim() != 3 || x.Dim(0) != c.inC {
		panic(fmt.Sprintf("nn: %s expects [%d,H,W], got %v", c.label, c.inC, x.Shape()))
	}
	h, w := x.Dim(1), x.Dim(2)
	oh := tensor.ConvOut(h, c.kh, c.stride, c.pad)
	ow := tensor.ConvOut(w, c.kw, c.stride, c.pad)
	var col *tensor.Of[T]
	if train || c.ws != nil {
		kc := c.inC * c.kh * c.kw
		if c.colBuf == nil || c.colBuf.Dim(0) != kc || c.colBuf.Dim(1) != oh*ow {
			c.ws.Put(c.colBuf)
			c.colBuf = c.ws.Get(kc, oh*ow)
		}
		tensor.Im2ColInto(c.colBuf, x, c.kh, c.kw, c.stride, c.pad)
		col = c.colBuf
	} else {
		col = tensor.Im2Col(x, c.kh, c.kw, c.stride, c.pad)
	}
	if train {
		c.col, c.inH, c.inW, c.oh, c.ow = col, h, w, oh, ow
	}
	var y2, y3 *tensor.Of[T]
	if train || c.ws != nil {
		if c.y3 == nil || c.y3.Dim(1) != oh || c.y3.Dim(2) != ow {
			c.ws.Put(c.y3)
			c.y3 = c.ws.Get(c.outC, oh, ow)
			c.y2 = c.y3.Reshape(c.outC, oh*ow)
		}
		y2, y3 = c.y2, c.y3
	} else {
		y3 = tensor.NewOf[T](c.outC, oh, ow)
		y2 = y3.Reshape(c.outC, oh*ow)
	}
	tensor.MatMulInto(y2, c.w.Data, col) // [outC, oh*ow]
	// Add bias per output channel.
	for o := 0; o < c.outC; o++ {
		b := c.b.Data.Data()[o]
		if b == 0 {
			continue
		}
		row := y2.Data()[o*oh*ow : (o+1)*oh*ow]
		for i := range row {
			row[i] += b
		}
	}
	return y3
}

// Backward implements Layer.
func (c *Conv2DOf[T]) Backward(grad *tensor.Of[T]) *tensor.Of[T] {
	if c.col == nil {
		panic("nn: Conv2D.Backward before training Forward")
	}
	g := grad.Reshape(c.outC, c.oh*c.ow)
	// dW = g @ colᵀ
	if c.gwScratch == nil || !c.gwScratch.SameShape(c.w.Grad) {
		c.gwScratch = tensor.NewOf[T](c.w.Grad.Shape()...)
	}
	tensor.MatMulT2Into(c.gwScratch, g, c.col)
	// dcol = Wᵀ @ g ; dX = col2im(dcol)
	if c.dcolScratch == nil || !c.dcolScratch.SameShape(c.col) {
		c.dcolScratch = tensor.NewOf[T](c.col.Shape()...)
	}
	tensor.MatMulT1Into(c.dcolScratch, c.w.Data, g)
	if c.gxBuf == nil || c.gxBuf.Len() != c.inC*c.inH*c.inW {
		c.ws.Put(c.gxBuf)
		c.gxBuf = c.ws.Get(c.inC, c.inH, c.inW)
	}
	tensor.Col2ImInto(c.gxBuf, c.dcolScratch, c.kh, c.kw, c.stride, c.pad)
	c.w.Grad.AddInPlace(c.gwScratch)
	// db = row sums of g
	ohw := c.oh * c.ow
	gd := g.Data()
	for o := 0; o < c.outC; o++ {
		var s T
		for _, v := range gd[o*ohw : (o+1)*ohw] {
			s += v
		}
		c.b.Grad.Data()[o] += s
	}
	return c.gxBuf
}

// Params implements Layer.
func (c *Conv2DOf[T]) Params() []*ParamOf[T] { return []*ParamOf[T]{c.w, c.b} }

// OutShape implements Layer.
func (c *Conv2DOf[T]) OutShape(in []int) []int {
	return []int{c.outC, tensor.ConvOut(in[1], c.kh, c.stride, c.pad), tensor.ConvOut(in[2], c.kw, c.stride, c.pad)}
}

// DepthwiseConv2DOf applies one k×k filter per input channel.
type DepthwiseConv2DOf[T tensor.Float] struct {
	label       string
	c, k        int
	stride, pad int
	w           *ParamOf[T]   // [C,K,K]
	b           *ParamOf[T]   // [C]
	x           *tensor.Of[T] // cached input (train mode), reused across steps
	// y is the forward output buffer (train path always, eval path once a
	// workspace is attached); gx/gw/gb are backward scratch, train-only.
	y, gx, gw, gb *tensor.Of[T]
	ws            *tensor.WorkspaceOf[T]
}

// DepthwiseConv2D is the fast-tier depthwise convolution layer.
type DepthwiseConv2D = DepthwiseConv2DOf[float32]

// NewDepthwiseConv2D creates a fast-tier depthwise convolution with He-normal
// weights (zero when rng is nil) and zero bias.
func NewDepthwiseConv2D(label string, channels, k, stride, pad int, rng *rand.Rand) *DepthwiseConv2D {
	fanIn := k * k
	return &DepthwiseConv2D{
		label: label, c: channels, k: k, stride: stride, pad: pad,
		w: &Param{Name: label + ".w", Data: heNormal(rng, fanIn, channels, k, k), Grad: tensor.New(channels, k, k)},
		b: &Param{Name: label + ".b", Data: tensor.New(channels), Grad: tensor.New(channels)},
	}
}

// Name implements Layer.
func (d *DepthwiseConv2DOf[T]) Name() string { return d.label }

// SetWorkspace implements WorkspaceUser.
func (d *DepthwiseConv2DOf[T]) SetWorkspace(ws *tensor.WorkspaceOf[T]) { d.ws = ws }

// Forward implements Layer.
func (d *DepthwiseConv2DOf[T]) Forward(x *tensor.Of[T], train bool) *tensor.Of[T] {
	if x.NDim() != 3 || x.Dim(0) != d.c {
		panic(fmt.Sprintf("nn: %s expects [%d,H,W], got %v", d.label, d.c, x.Shape()))
	}
	if train {
		if d.x == nil || !d.x.SameShape(x) {
			d.x = tensor.NewOf[T](x.Shape()...)
		}
		d.x.CopyFrom(x)
	}
	if train || d.ws != nil {
		oh := tensor.ConvOut(x.Dim(1), d.k, d.stride, d.pad)
		ow := tensor.ConvOut(x.Dim(2), d.k, d.stride, d.pad)
		if d.y == nil || d.y.Dim(1) != oh || d.y.Dim(2) != ow {
			d.ws.Put(d.y)
			d.y = d.ws.Get(d.c, oh, ow)
		}
		tensor.DepthwiseConvInto(d.y, x, d.w.Data, d.b.Data, d.stride, d.pad)
		return d.y
	}
	return tensor.DepthwiseConv(x, d.w.Data, d.b.Data, d.stride, d.pad)
}

// Backward implements Layer: the gradients land in the gx/gw/gb scratch
// buffers, and gw/gb then accumulate into the parameter gradients.
func (d *DepthwiseConv2DOf[T]) Backward(grad *tensor.Of[T]) *tensor.Of[T] {
	if d.x == nil {
		panic("nn: DepthwiseConv2D.Backward before training Forward")
	}
	if d.gx == nil || !d.gx.SameShape(d.x) {
		d.gx = tensor.NewOf[T](d.x.Shape()...)
	}
	if d.gw == nil {
		d.gw = tensor.NewOf[T](d.w.Data.Shape()...)
		d.gb = tensor.NewOf[T](d.c)
	}
	tensor.DepthwiseConvGradsInto(d.gx, d.gw, d.gb, d.x, d.w.Data, grad, d.stride, d.pad)
	d.w.Grad.AddInPlace(d.gw)
	d.b.Grad.AddInPlace(d.gb)
	return d.gx
}

// Params implements Layer.
func (d *DepthwiseConv2DOf[T]) Params() []*ParamOf[T] { return []*ParamOf[T]{d.w, d.b} }

// OutShape implements Layer.
func (d *DepthwiseConv2DOf[T]) OutShape(in []int) []int {
	return []int{d.c, tensor.ConvOut(in[1], d.k, d.stride, d.pad), tensor.ConvOut(in[2], d.k, d.stride, d.pad)}
}
