// Package tensor implements dense float tensors and the numeric kernels
// (matrix multiplication, im2col convolution, pooling, softmax) that the
// neural-network layers in internal/nn are built from.
//
// The core type Of[T] is generic over the Float constraint (float32 |
// float64). Tensor (= Of[float32]) is the fast tier every hot path uses;
// Tensor64 (= Of[float64]) is the reference tier kept for numeric
// cross-checks. Kernels are generic too, so both tiers run the exact same
// loop bodies — only the element width differs.
//
// Tensors are row-major. Convolutional data uses the NCHW layout:
// [batch, channels, height, width]. Large kernels shard their output across
// the worker pool in internal/parallel (rows for GEMM, channels for conv);
// each shard runs the identical serial loop over a disjoint output region, so
// results are bit-identical at every worker count, and ops below the
// size threshold stay on a goroutine-free serial fast path.
package tensor

import (
	"fmt"
	"math"
)

// Of is a dense, row-major tensor with elements of type T. The zero value is
// an empty tensor; use New/New64/NewOf or the construction helpers for
// anything useful.
type Of[T Float] struct {
	shape []int
	data  []T
}

// Tensor is the fast-tier tensor (float32 elements). All training and serving
// hot paths use this instantiation.
type Tensor = Of[float32]

// Tensor64 is the reference-tier tensor (float64 elements), used by the
// precision-parity tests and the fp64 shadow nets.
type Tensor64 = Of[float64]

// NewOf returns a zero-filled tensor of element type T with the given shape.
// It panics if any dimension is negative; a zero-dimensional call returns a
// scalar tensor with one element.
func NewOf[T Float](shape ...int) *Of[T] {
	n := 1
	for _, d := range shape {
		if d < 0 {
			panic(fmt.Sprintf("tensor: negative dimension %d in shape %v", d, shape))
		}
		n *= d
	}
	return &Of[T]{shape: append([]int(nil), shape...), data: make([]T, n)}
}

// New returns a zero-filled fast-tier (float32) tensor with the given shape.
func New(shape ...int) *Tensor { return NewOf[float32](shape...) }

// New64 returns a zero-filled reference-tier (float64) tensor.
func New64(shape ...int) *Tensor64 { return NewOf[float64](shape...) }

// FromSlice wraps data in a tensor of the given shape. The slice is used
// directly (not copied); it must have exactly as many elements as the shape
// implies.
func FromSlice[T Float](data []T, shape ...int) *Of[T] {
	n := 1
	for _, d := range shape {
		n *= d
	}
	if n != len(data) {
		panic(fmt.Sprintf("tensor: shape %v needs %d elements, got %d", shape, n, len(data)))
	}
	return &Of[T]{shape: append([]int(nil), shape...), data: data}
}

// Full returns a fast-tier tensor of the given shape with every element set
// to v. (Kept concrete so untyped constant arguments stay float32; use FullOf
// for an explicit tier.)
func Full(v float32, shape ...int) *Tensor { return FullOf(v, shape...) }

// FullOf returns a tensor of the given shape with every element set to v.
func FullOf[T Float](v T, shape ...int) *Of[T] {
	t := NewOf[T](shape...)
	for i := range t.data {
		t.data[i] = v
	}
	return t
}

// Shape returns the tensor's dimensions. The returned slice must not be
// modified.
func (t *Of[T]) Shape() []int { return t.shape }

// Data returns the backing slice. Mutations are visible to the tensor.
func (t *Of[T]) Data() []T { return t.data }

// Len returns the total number of elements.
func (t *Of[T]) Len() int { return len(t.data) }

// Dim returns the size of dimension i.
func (t *Of[T]) Dim(i int) int { return t.shape[i] }

// NDim returns the number of dimensions.
func (t *Of[T]) NDim() int { return len(t.shape) }

// Clone returns a deep copy.
func (t *Of[T]) Clone() *Of[T] {
	c := &Of[T]{shape: append([]int(nil), t.shape...), data: make([]T, len(t.data))}
	copy(c.data, t.data)
	return c
}

// Reshape returns a view over the same data with a new shape. The element
// count must match. One dimension may be -1, in which case it is inferred.
func (t *Of[T]) Reshape(shape ...int) *Of[T] {
	infer := -1
	n := 1
	for i, d := range shape {
		if d == -1 {
			if infer >= 0 {
				panic("tensor: at most one -1 dimension in Reshape")
			}
			infer = i
			continue
		}
		n *= d
	}
	out := append([]int(nil), shape...)
	if infer >= 0 {
		if n == 0 || len(t.data)%n != 0 {
			panic(fmt.Sprintf("tensor: cannot infer dimension reshaping %v to %v", t.shape, shape))
		}
		out[infer] = len(t.data) / n
		n *= out[infer]
	}
	if n != len(t.data) {
		panic(fmt.Sprintf("tensor: cannot reshape %v (%d elems) to %v (%d elems)", t.shape, len(t.data), shape, n))
	}
	return &Of[T]{shape: out, data: t.data}
}

// At returns the element at the given multi-dimensional index.
func (t *Of[T]) At(idx ...int) T { return t.data[t.offset(idx)] }

// Set stores v at the given multi-dimensional index.
func (t *Of[T]) Set(v T, idx ...int) { t.data[t.offset(idx)] = v }

func (t *Of[T]) offset(idx []int) int {
	if len(idx) != len(t.shape) {
		panic(fmt.Sprintf("tensor: index %v does not match shape %v", idx, t.shape))
	}
	off := 0
	for i, x := range idx {
		if x < 0 || x >= t.shape[i] {
			panic(fmt.Sprintf("tensor: index %v out of range for shape %v", idx, t.shape))
		}
		off = off*t.shape[i] + x
	}
	return off
}

// SameShape reports whether t and o have identical shapes.
func (t *Of[T]) SameShape(o *Of[T]) bool {
	if len(t.shape) != len(o.shape) {
		return false
	}
	for i := range t.shape {
		if t.shape[i] != o.shape[i] {
			return false
		}
	}
	return true
}

// Zero sets every element to 0 in place.
func (t *Of[T]) Zero() {
	for i := range t.data {
		t.data[i] = 0
	}
}

// Fill sets every element to v in place.
func (t *Of[T]) Fill(v T) {
	for i := range t.data {
		t.data[i] = v
	}
}

// CopyFrom copies o's data into t. Shapes must have equal element counts.
func (t *Of[T]) CopyFrom(o *Of[T]) {
	if len(t.data) != len(o.data) {
		panic(fmt.Sprintf("tensor: CopyFrom size mismatch %v vs %v", t.shape, o.shape))
	}
	copy(t.data, o.data)
}

// Row returns a view of row i of a 2-D tensor as a 1-D tensor.
func (t *Of[T]) Row(i int) *Of[T] {
	if len(t.shape) != 2 {
		panic(fmt.Sprintf("tensor: Row on %d-D tensor", len(t.shape)))
	}
	w := t.shape[1]
	return &Of[T]{shape: []int{w}, data: t.data[i*w : (i+1)*w]}
}

// Slice returns a view of sub-tensor i along the first dimension: for a
// [N, ...] tensor it yields the i-th [...] tensor sharing storage.
func (t *Of[T]) Slice(i int) *Of[T] {
	if len(t.shape) == 0 {
		panic("tensor: Slice on scalar")
	}
	n := t.shape[0]
	if i < 0 || i >= n {
		panic(fmt.Sprintf("tensor: Slice index %d out of range %d", i, n))
	}
	sub := len(t.data) / n
	return &Of[T]{shape: append([]int(nil), t.shape[1:]...), data: t.data[i*sub : (i+1)*sub]}
}

// String implements fmt.Stringer with a compact shape/summary form.
func (t *Of[T]) String() string {
	mn, mx := T(math.Inf(1)), T(math.Inf(-1))
	var sum float64
	for _, v := range t.data {
		if v < mn {
			mn = v
		}
		if v > mx {
			mx = v
		}
		sum += float64(v)
	}
	mean := 0.0
	if len(t.data) > 0 {
		mean = sum / float64(len(t.data))
	}
	return fmt.Sprintf("Tensor%v[min=%.4g max=%.4g mean=%.4g]", t.shape, mn, mx, mean)
}

// Widen returns a reference-tier (float64) copy of a fast-tier tensor.
func Widen(t *Tensor) *Tensor64 {
	out := &Tensor64{shape: append([]int(nil), t.shape...), data: make([]float64, len(t.data))}
	for i, v := range t.data {
		out.data[i] = float64(v)
	}
	return out
}
