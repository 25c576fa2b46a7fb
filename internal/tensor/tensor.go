// Package tensor implements the deterministic float32 tensor substrate
// underneath the DL library.
//
// Determinism is the design driver, per the FUSA-compliance pillar of
// SAFEXPLAIN: every kernel iterates in a fixed order, reductions are either
// strictly serial or strictly pairwise (both reproducible bit-for-bit), and
// no kernel spawns goroutines, so two runs of the same program produce
// identical bits on any platform with IEEE-754 float32.
package tensor

import (
	"fmt"
	"math"
)

// Tensor is a dense row-major float32 tensor. Tensors are mutable; kernels
// that produce new values allocate their result unless an explicit
// destination variant is used.
type Tensor struct {
	shape []int
	data  []float32
}

// New returns a zero-filled tensor with the given shape. It panics on a
// non-positive dimension, which is always a programming error.
func New(shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		if d <= 0 {
			panic(fmt.Sprintf("tensor: non-positive dimension %d in shape %v", d, shape))
		}
		n *= d
	}
	s := make([]int, len(shape))
	copy(s, shape)
	return &Tensor{shape: s, data: make([]float32, n)}
}

// FromSlice wraps data in a tensor of the given shape. The slice is used
// directly (not copied); its length must equal the shape's element count.
func FromSlice(data []float32, shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		n *= d
	}
	if n != len(data) {
		panic(fmt.Sprintf("tensor: data length %d does not match shape %v", len(data), shape))
	}
	s := make([]int, len(shape))
	copy(s, shape)
	return &Tensor{shape: s, data: data}
}

// Shape returns the tensor's dimensions. The caller must not modify it.
func (t *Tensor) Shape() []int { return t.shape }

// Data returns the backing slice in row-major order. Zero-allocation
// accessor; inference kernels call it per frame.
//
//safexplain:hotpath
//safexplain:wcet
func (t *Tensor) Data() []float32 { return t.data }

// Len returns the total number of elements.
//
//safexplain:hotpath
func (t *Tensor) Len() int { return len(t.data) }

// Dim returns the size of axis i.
func (t *Tensor) Dim(i int) int { return t.shape[i] }

// Rank returns the number of axes.
//
//safexplain:hotpath
func (t *Tensor) Rank() int { return len(t.shape) }

// Clone returns a deep copy.
func (t *Tensor) Clone() *Tensor {
	c := New(t.shape...)
	copy(c.data, t.data)
	return c
}

// Reshape returns a view of the same data with a new shape. The element
// count must match.
func (t *Tensor) Reshape(shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		n *= d
	}
	if n != len(t.data) {
		panic(fmt.Sprintf("tensor: cannot reshape %v to %v", t.shape, shape))
	}
	s := make([]int, len(shape))
	copy(s, shape)
	return &Tensor{shape: s, data: t.data}
}

// At2 returns element (i, j) of a rank-2 tensor.
func (t *Tensor) At2(i, j int) float32 { return t.data[i*t.shape[1]+j] }

// Set2 assigns element (i, j) of a rank-2 tensor.
func (t *Tensor) Set2(i, j int, v float32) { t.data[i*t.shape[1]+j] = v }

// At3 returns element (c, y, x) of a rank-3 tensor (channel, row, col).
//
//safexplain:hotpath
func (t *Tensor) At3(c, y, x int) float32 {
	return t.data[(c*t.shape[1]+y)*t.shape[2]+x]
}

// Set3 assigns element (c, y, x) of a rank-3 tensor.
//
//safexplain:hotpath
func (t *Tensor) Set3(c, y, x int, v float32) {
	t.data[(c*t.shape[1]+y)*t.shape[2]+x] = v
}

// Fill sets every element to v.
func (t *Tensor) Fill(v float32) {
	for i := range t.data {
		t.data[i] = v
	}
}

// Zero sets every element to 0.
func (t *Tensor) Zero() { t.Fill(0) }

// SameShape reports whether two tensors have identical shapes.
//
//safexplain:hotpath
func SameShape(a, b *Tensor) bool {
	if len(a.shape) != len(b.shape) {
		return false
	}
	for i := range a.shape { //safexplain:bounded one iteration per axis
		if a.shape[i] != b.shape[i] {
			return false
		}
	}
	return true
}

// Equal reports whether two tensors are bit-identical in shape and data.
// NaNs compare by bit pattern, so a replayed inference with NaNs still
// matches its reference run.
func Equal(a, b *Tensor) bool {
	if !SameShape(a, b) {
		return false
	}
	for i := range a.data {
		if math.Float32bits(a.data[i]) != math.Float32bits(b.data[i]) {
			return false
		}
	}
	return true
}

// Add computes dst = a + b elementwise. Shapes must match; dst may alias a
// or b.
//
//safexplain:hotpath
func Add(dst, a, b *Tensor) {
	checkBinary(dst, a, b)
	for i := range dst.data { //safexplain:bounded one iteration per element of the checked shape
		dst.data[i] = a.data[i] + b.data[i]
	}
}

// Sub computes dst = a - b elementwise.
func Sub(dst, a, b *Tensor) {
	checkBinary(dst, a, b)
	for i := range dst.data {
		dst.data[i] = a.data[i] - b.data[i]
	}
}

// Mul computes dst = a * b elementwise (Hadamard product).
func Mul(dst, a, b *Tensor) {
	checkBinary(dst, a, b)
	for i := range dst.data {
		dst.data[i] = a.data[i] * b.data[i]
	}
}

// Scale computes dst = s * a.
func Scale(dst, a *Tensor, s float32) {
	if !SameShape(dst, a) {
		panic("tensor: shape mismatch in Scale")
	}
	for i := range dst.data {
		dst.data[i] = s * a.data[i]
	}
}

// AxpyInto computes dst += s * a, the update step used by SGD.
func AxpyInto(dst, a *Tensor, s float32) {
	if !SameShape(dst, a) {
		panic("tensor: shape mismatch in AxpyInto")
	}
	for i := range dst.data {
		dst.data[i] += s * a.data[i]
	}
}

//safexplain:hotpath
func checkBinary(dst, a, b *Tensor) {
	if !SameShape(a, b) || !SameShape(dst, a) {
		shapePanic("shape mismatch %v %v %v", dst.shape, a.shape, b.shape)
	}
}

// shapeError is the panic value of a kernel whose operand shapes
// disagree: a programming error in the caller, never a fault in the
// data. The message is formatted when it is read, so the kernels need
// no fmt call.
type shapeError struct {
	format string
	args   []any
}

func (e shapeError) Error() string { return "tensor: " + fmt.Sprintf(e.format, e.args...) }

// shapePanic aborts a kernel on a shape mismatch, with the offending
// shapes and sizes as args. It is the only panic the inference kernels
// can reach, so the hotpath closure over them has one reviewed
// exception (lint.baseline) rather than one per kernel. A kernel boxes
// the args only on its abort branch; its checked path allocates nothing.
//
//safexplain:hotpath
func shapePanic(format string, args ...any) {
	panic(shapeError{format: format, args: args})
}

// Argmax returns the index of the largest element, taking the first on
// ties so the result is deterministic.
//
//safexplain:hotpath
func (t *Tensor) Argmax() int {
	best := 0
	bv := t.data[0]
	for i, v := range t.data[1:] { //safexplain:bounded one iteration per element
		if v > bv {
			bv = v
			best = i + 1
		}
	}
	return best
}

// SumSerial reduces the tensor with a strictly left-to-right serial sum.
// This is the FUSA-default reduction order: trivially WCET-analyzable and
// identical on every platform.
func (t *Tensor) SumSerial() float32 {
	var s float32
	for _, v := range t.data {
		s += v
	}
	return s
}

// SumPairwise reduces with deterministic pairwise (tree) summation, which
// halves the rounding-error growth relative to serial summation at the cost
// of a slightly more complex control flow. Both orders are bit-reproducible;
// the T5 ablation quantifies the accuracy/complexity trade.
func (t *Tensor) SumPairwise() float32 {
	return pairwiseSum(t.data)
}

func pairwiseSum(xs []float32) float32 {
	const base = 16
	if len(xs) <= base {
		var s float32
		for _, v := range xs {
			s += v
		}
		return s
	}
	half := len(xs) / 2
	return pairwiseSum(xs[:half]) + pairwiseSum(xs[half:])
}

// MaxAbsDiff returns the largest absolute elementwise difference between a
// and b, the metric used for float-vs-quantized conformance checks.
func MaxAbsDiff(a, b *Tensor) float64 {
	if !SameShape(a, b) {
		panic("tensor: shape mismatch in MaxAbsDiff")
	}
	var m float64
	for i := range a.data {
		d := math.Abs(float64(a.data[i]) - float64(b.data[i]))
		if d > m {
			m = d
		}
	}
	return m
}
