package tensor

import (
	"fmt"
	"math"
)

// The kernels in this file are the reference semantics for the DL stack:
// single-threaded, fixed iteration order, serial inner accumulation. The
// quantized engine in internal/qnn must conform to these within a
// quantization-error bound (checked layer by layer in its tests).

// MatMul computes dst = a @ b for a [m,k] and b [k,n]; dst must be [m,n].
// The inner k-loop accumulates serially in float32.
func MatMul(dst, a, b *Tensor) {
	if a.Rank() != 2 || b.Rank() != 2 || dst.Rank() != 2 {
		panic("tensor: MatMul requires rank-2 tensors")
	}
	m, k := a.shape[0], a.shape[1]
	k2, n := b.shape[0], b.shape[1]
	if k != k2 || dst.shape[0] != m || dst.shape[1] != n {
		panic(fmt.Sprintf("tensor: MatMul shape mismatch %v @ %v -> %v", a.shape, b.shape, dst.shape))
	}
	for i := 0; i < m; i++ {
		arow := a.data[i*k : (i+1)*k]
		drow := dst.data[i*n : (i+1)*n]
		for j := 0; j < n; j++ {
			var sum float32
			for kk := 0; kk < k; kk++ {
				sum += arow[kk] * b.data[kk*n+j]
			}
			drow[j] = sum
		}
	}
}

// MatVec computes dst = a @ x for a [m,k] and x [k]; dst must be [m].
//
//safexplain:hotpath
func MatVec(dst, a, x *Tensor) {
	if a.Rank() != 2 || x.Rank() != 1 || dst.Rank() != 1 {
		shapePanic("MatVec requires a rank-2 matrix and rank-1 vectors, got %v @ %v -> %v", a.shape, x.shape, dst.shape)
	}
	m, k := a.shape[0], a.shape[1]
	if x.shape[0] != k || dst.shape[0] != m {
		shapePanic("MatVec shape mismatch %v @ %v -> %v", a.shape, x.shape, dst.shape)
	}
	for i := 0; i < m; i++ { //safexplain:bounded matrix rows, fixed by the checked shape
		arow := a.data[i*k : (i+1)*k]
		var sum float32
		for j := 0; j < k; j++ { //safexplain:bounded matrix columns, fixed by the checked shape
			sum += arow[j] * x.data[j]
		}
		dst.data[i] = sum
	}
}

// Conv2DShape returns the output spatial size of a convolution over an
// input of h×w with the given kernel, stride, and symmetric zero padding.
//
//safexplain:hotpath
func Conv2DShape(h, w, kh, kw, stride, pad int) (oh, ow int) {
	oh = (h+2*pad-kh)/stride + 1
	ow = (w+2*pad-kw)/stride + 1
	return oh, ow
}

// Conv2D computes a 2-D cross-correlation (the DL "convolution") of input
// [C,H,W] with weights [OC,C,KH,KW] and bias [OC], writing dst [OC,OH,OW].
// Zero padding of pad pixels is applied on all sides.
//
//safexplain:hotpath
func Conv2D(dst, input, weights, bias *Tensor, stride, pad int) {
	if input.Rank() != 3 || weights.Rank() != 4 || dst.Rank() != 3 {
		shapePanic("Conv2D requires input [C,H,W], weights [OC,C,KH,KW], dst [OC,OH,OW], got %v, %v, %v", input.shape, weights.shape, dst.shape)
	}
	c, h, w := input.shape[0], input.shape[1], input.shape[2]
	oc, wc, kh, kw := weights.shape[0], weights.shape[1], weights.shape[2], weights.shape[3]
	if wc != c {
		shapePanic("Conv2D channel mismatch input %d weights %d", c, wc)
	}
	oh, ow := Conv2DShape(h, w, kh, kw, stride, pad)
	if dst.shape[0] != oc || dst.shape[1] != oh || dst.shape[2] != ow {
		shapePanic("Conv2D dst shape %v, want [%d %d %d]", dst.shape, oc, oh, ow)
	}
	if bias != nil && (bias.Rank() != 1 || bias.shape[0] != oc) {
		shapePanic("Conv2D bias shape %v, want [%d]", bias.shape, oc)
	}
	for o := 0; o < oc; o++ { //safexplain:bounded output channels
		var b float32
		if bias != nil {
			b = bias.data[o]
		}
		for oy := 0; oy < oh; oy++ { //safexplain:bounded output rows
			for ox := 0; ox < ow; ox++ { //safexplain:bounded output columns
				sum := b
				for ic := 0; ic < c; ic++ { //safexplain:bounded input channels
					for ky := 0; ky < kh; ky++ { //safexplain:bounded kernel rows
						iy := oy*stride + ky - pad
						if iy < 0 || iy >= h {
							continue
						}
						for kx := 0; kx < kw; kx++ { //safexplain:bounded kernel columns
							ix := ox*stride + kx - pad
							if ix < 0 || ix >= w {
								continue
							}
							sum += input.At3(ic, iy, ix) * weights.data[((o*c+ic)*kh+ky)*kw+kx]
						}
					}
				}
				dst.Set3(o, oy, ox, sum)
			}
		}
	}
}

// MaxPool2D computes max pooling with the given window and stride over
// input [C,H,W] into dst [C,OH,OW]. If argmax is non-nil it must have dst's
// length and receives the flat input index of each window maximum (first
// maximum on ties), which the backward pass uses to route gradients.
//
//safexplain:hotpath
func MaxPool2D(dst, input *Tensor, window, stride int, argmax []int) {
	c, h, w := input.shape[0], input.shape[1], input.shape[2]
	oh := (h-window)/stride + 1
	ow := (w-window)/stride + 1
	if dst.shape[0] != c || dst.shape[1] != oh || dst.shape[2] != ow {
		shapePanic("MaxPool2D dst shape %v, want [%d %d %d]", dst.shape, c, oh, ow)
	}
	if argmax != nil && len(argmax) != dst.Len() {
		shapePanic("MaxPool2D argmax length %d, want %d", len(argmax), dst.Len())
	}
	di := 0
	for ic := 0; ic < c; ic++ { //safexplain:bounded channels
		for oy := 0; oy < oh; oy++ { //safexplain:bounded output rows
			for ox := 0; ox < ow; ox++ { //safexplain:bounded output columns
				best := float32(math.Inf(-1))
				bestIdx := -1
				for ky := 0; ky < window; ky++ { //safexplain:bounded window rows
					for kx := 0; kx < window; kx++ { //safexplain:bounded window columns
						iy := oy*stride + ky
						ix := ox*stride + kx
						v := input.At3(ic, iy, ix)
						if v > best {
							best = v
							bestIdx = (ic*h+iy)*w + ix
						}
					}
				}
				dst.data[di] = best
				if argmax != nil {
					argmax[di] = bestIdx
				}
				di++
			}
		}
	}
}

// AvgPool2D computes average pooling with the given window and stride.
func AvgPool2D(dst, input *Tensor, window, stride int) {
	c, h, w := input.shape[0], input.shape[1], input.shape[2]
	oh := (h-window)/stride + 1
	ow := (w-window)/stride + 1
	if dst.shape[0] != c || dst.shape[1] != oh || dst.shape[2] != ow {
		panic(fmt.Sprintf("tensor: AvgPool2D dst shape %v, want [%d %d %d]", dst.shape, c, oh, ow))
	}
	norm := 1 / float32(window*window)
	di := 0
	for ic := 0; ic < c; ic++ {
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				var sum float32
				for ky := 0; ky < window; ky++ {
					for kx := 0; kx < window; kx++ {
						sum += input.At3(ic, oy*stride+ky, ox*stride+kx)
					}
				}
				dst.data[di] = sum * norm
				di++
			}
		}
	}
}

// ReLU computes dst = max(a, 0) elementwise.
//
//safexplain:hotpath
func ReLU(dst, a *Tensor) {
	if !SameShape(dst, a) {
		shapePanic("shape mismatch in ReLU %v %v", dst.shape, a.shape)
	}
	for i, v := range a.data { //safexplain:bounded one iteration per element of the checked shape
		if v > 0 {
			dst.data[i] = v
		} else {
			dst.data[i] = 0
		}
	}
}

// Softmax computes a numerically stable softmax of the rank-1 tensor a
// into dst: exp(a - max(a)) normalized serially.
//
//safexplain:hotpath
func Softmax(dst, a *Tensor) {
	if !SameShape(dst, a) {
		shapePanic("shape mismatch in Softmax %v %v", dst.shape, a.shape)
	}
	maxv := a.data[0]
	for _, v := range a.data[1:] { //safexplain:bounded one iteration per element
		if v > maxv {
			maxv = v
		}
	}
	var sum float32
	for i, v := range a.data { //safexplain:bounded one iteration per element
		e := float32(math.Exp(float64(v - maxv)))
		dst.data[i] = e
		sum += e
	}
	inv := 1 / sum
	for i := range dst.data { //safexplain:bounded one iteration per element
		dst.data[i] *= inv
	}
}
