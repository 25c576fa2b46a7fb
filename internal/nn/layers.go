package nn

import (
	"fmt"
	"math"

	"safexplain/internal/prng"
	"safexplain/internal/tensor"
)

// Dense is a fully connected layer: y = W x + b with W [out,in], b [out].
type Dense struct {
	In, Out int
	W, B    *Param

	x *tensor.Tensor // cached input
}

// NewDense constructs a Dense layer with He-initialized weights drawn from
// src and zero biases.
func NewDense(in, out int, src *prng.Source) *Dense {
	d := &Dense{
		In:  in,
		Out: out,
		W: &Param{
			Name:  fmt.Sprintf("dense_%dx%d.W", out, in),
			Value: tensor.New(out, in),
			Grad:  tensor.New(out, in),
		},
		B: &Param{
			Name:  fmt.Sprintf("dense_%dx%d.b", out, in),
			Value: tensor.New(out),
			Grad:  tensor.New(out),
		},
	}
	heInit(d.W.Value, in, src)
	return d
}

// Name implements Layer.
func (d *Dense) Name() string { return fmt.Sprintf("Dense(%d->%d)", d.In, d.Out) }

// OutShape implements Layer.
func (d *Dense) OutShape(in []int) []int { return []int{d.Out} }

// Forward implements Layer.
func (d *Dense) Forward(in *tensor.Tensor) *tensor.Tensor {
	d.checkInput(in.Shape())
	d.x = in
	out := tensor.New(d.Out)
	d.forwardInto(out, in)
	return out
}

// checkInput panics, naming the layer, on an input shape the layer
// cannot take. Forward and the frame arena (newFrameArena) share it.
func (d *Dense) checkInput(shape []int) { mustShape(shape, []int{d.In}, d.Name()) }

// forwardInto implements intoLayer.
//
//safexplain:hotpath
func (d *Dense) forwardInto(dst, in *tensor.Tensor) {
	tensor.MatVec(dst, d.W.Value, in)
	tensor.Add(dst, dst, d.B.Value)
}

// Backward implements Layer.
func (d *Dense) Backward(gradOut *tensor.Tensor) *tensor.Tensor {
	mustShape(gradOut.Shape(), []int{d.Out}, d.Name())
	// dW[o,i] += gradOut[o] * x[i]; db[o] += gradOut[o].
	for o := 0; o < d.Out; o++ {
		g := gradOut.Data()[o]
		d.B.Grad.Data()[o] += g
		row := d.W.Grad.Data()[o*d.In : (o+1)*d.In]
		for i := 0; i < d.In; i++ {
			row[i] += g * d.x.Data()[i]
		}
	}
	// dx[i] = sum_o W[o,i] * gradOut[o].
	gradIn := tensor.New(d.In)
	for o := 0; o < d.Out; o++ {
		g := gradOut.Data()[o]
		row := d.W.Value.Data()[o*d.In : (o+1)*d.In]
		for i := 0; i < d.In; i++ {
			gradIn.Data()[i] += row[i] * g
		}
	}
	return gradIn
}

// Params implements Layer.
func (d *Dense) Params() []*Param { return []*Param{d.W, d.B} }

// ReLU is the rectified-linear activation, elementwise max(x, 0).
type ReLU struct {
	x *tensor.Tensor
}

// NewReLU constructs a ReLU layer.
func NewReLU() *ReLU { return &ReLU{} }

// Name implements Layer.
func (r *ReLU) Name() string { return "ReLU" }

// OutShape implements Layer.
func (r *ReLU) OutShape(in []int) []int { return in }

// Forward implements Layer.
func (r *ReLU) Forward(in *tensor.Tensor) *tensor.Tensor {
	r.x = in
	out := tensor.New(in.Shape()...)
	r.forwardInto(out, in)
	return out
}

// forwardInto implements intoLayer.
//
//safexplain:hotpath
func (r *ReLU) forwardInto(dst, in *tensor.Tensor) { tensor.ReLU(dst, in) }

// Backward implements Layer.
func (r *ReLU) Backward(gradOut *tensor.Tensor) *tensor.Tensor {
	gradIn := tensor.New(gradOut.Shape()...)
	for i, v := range r.x.Data() {
		if v > 0 {
			gradIn.Data()[i] = gradOut.Data()[i]
		}
	}
	return gradIn
}

// Params implements Layer.
func (r *ReLU) Params() []*Param { return nil }

// Sigmoid is the logistic activation 1/(1+exp(-x)), used by the
// autoencoder supervisor's output layer.
type Sigmoid struct {
	y *tensor.Tensor
}

// NewSigmoid constructs a Sigmoid layer.
func NewSigmoid() *Sigmoid { return &Sigmoid{} }

// Name implements Layer.
func (s *Sigmoid) Name() string { return "Sigmoid" }

// OutShape implements Layer.
func (s *Sigmoid) OutShape(in []int) []int { return in }

// Forward implements Layer.
func (s *Sigmoid) Forward(in *tensor.Tensor) *tensor.Tensor {
	out := tensor.New(in.Shape()...)
	for i, v := range in.Data() {
		out.Data()[i] = float32(1 / (1 + math.Exp(-float64(v))))
	}
	s.y = out
	return out
}

// Backward implements Layer.
func (s *Sigmoid) Backward(gradOut *tensor.Tensor) *tensor.Tensor {
	gradIn := tensor.New(gradOut.Shape()...)
	for i, y := range s.y.Data() {
		gradIn.Data()[i] = gradOut.Data()[i] * y * (1 - y)
	}
	return gradIn
}

// Params implements Layer.
func (s *Sigmoid) Params() []*Param { return nil }

// Tanh is the hyperbolic-tangent activation.
type Tanh struct {
	y *tensor.Tensor
}

// NewTanh constructs a Tanh layer.
func NewTanh() *Tanh { return &Tanh{} }

// Name implements Layer.
func (t *Tanh) Name() string { return "Tanh" }

// OutShape implements Layer.
func (t *Tanh) OutShape(in []int) []int { return in }

// Forward implements Layer.
func (t *Tanh) Forward(in *tensor.Tensor) *tensor.Tensor {
	out := tensor.New(in.Shape()...)
	for i, v := range in.Data() {
		out.Data()[i] = float32(math.Tanh(float64(v)))
	}
	t.y = out
	return out
}

// Backward implements Layer.
func (t *Tanh) Backward(gradOut *tensor.Tensor) *tensor.Tensor {
	gradIn := tensor.New(gradOut.Shape()...)
	for i, y := range t.y.Data() {
		gradIn.Data()[i] = gradOut.Data()[i] * (1 - y*y)
	}
	return gradIn
}

// Params implements Layer.
func (t *Tanh) Params() []*Param { return nil }

// Flatten reshapes any input to rank-1; the backward pass restores the
// original shape.
type Flatten struct {
	inShape []int
}

// NewFlatten constructs a Flatten layer.
func NewFlatten() *Flatten { return &Flatten{} }

// Name implements Layer.
func (f *Flatten) Name() string { return "Flatten" }

// OutShape implements Layer.
func (f *Flatten) OutShape(in []int) []int {
	n := 1
	for _, d := range in {
		n *= d
	}
	return []int{n}
}

// Forward implements Layer.
func (f *Flatten) Forward(in *tensor.Tensor) *tensor.Tensor {
	f.inShape = append(f.inShape[:0], in.Shape()...)
	return in.Reshape(in.Len())
}

// Backward implements Layer.
func (f *Flatten) Backward(gradOut *tensor.Tensor) *tensor.Tensor {
	return gradOut.Reshape(f.inShape...)
}

// Params implements Layer.
func (f *Flatten) Params() []*Param { return nil }
