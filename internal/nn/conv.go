package nn

import (
	"fmt"

	"safexplain/internal/prng"
	"safexplain/internal/tensor"
)

// Conv2D is a 2-D convolution layer over [C,H,W] inputs with weights
// [OC,C,KH,KW], symmetric zero padding, and square stride.
type Conv2D struct {
	InC, OutC int
	KH, KW    int
	Stride    int
	Pad       int
	W, B      *Param
	inH, inW  int
	x         *tensor.Tensor
}

// NewConv2D constructs a convolution layer with He-initialized weights.
func NewConv2D(inC, outC, k, stride, pad int, src *prng.Source) *Conv2D {
	c := &Conv2D{
		InC:    inC,
		OutC:   outC,
		KH:     k,
		KW:     k,
		Stride: stride,
		Pad:    pad,
		W: &Param{
			Name:  fmt.Sprintf("conv_%dx%dx%dx%d.W", outC, inC, k, k),
			Value: tensor.New(outC, inC, k, k),
			Grad:  tensor.New(outC, inC, k, k),
		},
		B: &Param{
			Name:  fmt.Sprintf("conv_%dx%dx%dx%d.b", outC, inC, k, k),
			Value: tensor.New(outC),
			Grad:  tensor.New(outC),
		},
	}
	heInit(c.W.Value, inC*k*k, src)
	return c
}

// Name implements Layer.
func (c *Conv2D) Name() string {
	return fmt.Sprintf("Conv2D(%d->%d,k%d,s%d,p%d)", c.InC, c.OutC, c.KH, c.Stride, c.Pad)
}

// OutShape implements Layer.
func (c *Conv2D) OutShape(in []int) []int {
	oh, ow := tensor.Conv2DShape(in[1], in[2], c.KH, c.KW, c.Stride, c.Pad)
	return []int{c.OutC, oh, ow}
}

// Forward implements Layer.
func (c *Conv2D) Forward(in *tensor.Tensor) *tensor.Tensor {
	c.checkInput(in.Shape())
	c.x = in
	c.inH, c.inW = in.Dim(1), in.Dim(2)
	out := tensor.New(c.OutShape(in.Shape())...)
	c.forwardInto(out, in)
	return out
}

// checkInput panics, naming the layer, on an input shape the layer
// cannot take. Forward and the frame arena (newFrameArena) share it.
func (c *Conv2D) checkInput(shape []int) {
	if len(shape) != 3 || shape[0] != c.InC {
		panic(fmt.Sprintf("nn: %s got input shape %v", c.Name(), shape))
	}
}

// forwardInto implements intoLayer.
//
//safexplain:hotpath
func (c *Conv2D) forwardInto(dst, in *tensor.Tensor) {
	tensor.Conv2D(dst, in, c.W.Value, c.B.Value, c.Stride, c.Pad)
}

// Backward implements Layer.
func (c *Conv2D) Backward(gradOut *tensor.Tensor) *tensor.Tensor {
	oc, oh, ow := gradOut.Dim(0), gradOut.Dim(1), gradOut.Dim(2)
	gradIn := tensor.New(c.InC, c.inH, c.inW)
	wd := c.W.Value.Data()
	gwd := c.W.Grad.Data()
	for o := 0; o < oc; o++ {
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				g := gradOut.At3(o, oy, ox)
				if g == 0 {
					continue
				}
				c.B.Grad.Data()[o] += g
				for ic := 0; ic < c.InC; ic++ {
					for ky := 0; ky < c.KH; ky++ {
						iy := oy*c.Stride + ky - c.Pad
						if iy < 0 || iy >= c.inH {
							continue
						}
						for kx := 0; kx < c.KW; kx++ {
							ix := ox*c.Stride + kx - c.Pad
							if ix < 0 || ix >= c.inW {
								continue
							}
							wIdx := ((o*c.InC+ic)*c.KH+ky)*c.KW + kx
							gwd[wIdx] += g * c.x.At3(ic, iy, ix)
							gradIn.Set3(ic, iy, ix, gradIn.At3(ic, iy, ix)+g*wd[wIdx])
						}
					}
				}
			}
		}
	}
	return gradIn
}

// Params implements Layer.
func (c *Conv2D) Params() []*Param { return []*Param{c.W, c.B} }

// MaxPool2D is a max-pooling layer with square window and stride.
type MaxPool2D struct {
	Window, Stride int
	inShape        []int
	argmax         []int
}

// NewMaxPool2D constructs a max-pooling layer.
func NewMaxPool2D(window, stride int) *MaxPool2D {
	return &MaxPool2D{Window: window, Stride: stride}
}

// Name implements Layer.
func (m *MaxPool2D) Name() string { return fmt.Sprintf("MaxPool2D(w%d,s%d)", m.Window, m.Stride) }

// OutShape implements Layer.
func (m *MaxPool2D) OutShape(in []int) []int {
	oh := (in[1]-m.Window)/m.Stride + 1
	ow := (in[2]-m.Window)/m.Stride + 1
	return []int{in[0], oh, ow}
}

// Forward implements Layer.
func (m *MaxPool2D) Forward(in *tensor.Tensor) *tensor.Tensor {
	m.inShape = append(m.inShape[:0], in.Shape()...)
	out := tensor.New(m.OutShape(in.Shape())...)
	if cap(m.argmax) < out.Len() {
		m.argmax = make([]int, out.Len())
	}
	m.argmax = m.argmax[:out.Len()]
	tensor.MaxPool2D(out, in, m.Window, m.Stride, m.argmax)
	return out
}

// forwardInto implements intoLayer: the same kernel as Forward, without
// the argmax record only Backward reads.
//
//safexplain:hotpath
func (m *MaxPool2D) forwardInto(dst, in *tensor.Tensor) {
	tensor.MaxPool2D(dst, in, m.Window, m.Stride, nil)
}

// Backward implements Layer.
func (m *MaxPool2D) Backward(gradOut *tensor.Tensor) *tensor.Tensor {
	gradIn := tensor.New(m.inShape...)
	for i, idx := range m.argmax {
		gradIn.Data()[idx] += gradOut.Data()[i]
	}
	return gradIn
}

// Params implements Layer.
func (m *MaxPool2D) Params() []*Param { return nil }

// AvgPool2D is an average-pooling layer with square window and stride.
// Compared to max pooling it is linear (gradients spread uniformly) and
// quantization-friendly (the mean stays within the input range).
type AvgPool2D struct {
	Window, Stride int
	inShape        []int
}

// NewAvgPool2D constructs an average-pooling layer.
func NewAvgPool2D(window, stride int) *AvgPool2D {
	return &AvgPool2D{Window: window, Stride: stride}
}

// Name implements Layer.
func (a *AvgPool2D) Name() string { return fmt.Sprintf("AvgPool2D(w%d,s%d)", a.Window, a.Stride) }

// OutShape implements Layer.
func (a *AvgPool2D) OutShape(in []int) []int {
	oh := (in[1]-a.Window)/a.Stride + 1
	ow := (in[2]-a.Window)/a.Stride + 1
	return []int{in[0], oh, ow}
}

// Forward implements Layer.
func (a *AvgPool2D) Forward(in *tensor.Tensor) *tensor.Tensor {
	a.inShape = append(a.inShape[:0], in.Shape()...)
	out := tensor.New(a.OutShape(in.Shape())...)
	tensor.AvgPool2D(out, in, a.Window, a.Stride)
	return out
}

// Backward implements Layer: each output gradient spreads uniformly over
// its window.
func (a *AvgPool2D) Backward(gradOut *tensor.Tensor) *tensor.Tensor {
	gradIn := tensor.New(a.inShape...)
	c, oh, ow := gradOut.Dim(0), gradOut.Dim(1), gradOut.Dim(2)
	norm := 1 / float32(a.Window*a.Window)
	for ic := 0; ic < c; ic++ {
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				g := gradOut.At3(ic, oy, ox) * norm
				for ky := 0; ky < a.Window; ky++ {
					for kx := 0; kx < a.Window; kx++ {
						iy := oy*a.Stride + ky
						ix := ox*a.Stride + kx
						gradIn.Set3(ic, iy, ix, gradIn.At3(ic, iy, ix)+g)
					}
				}
			}
		}
	}
	return gradIn
}

// Params implements Layer.
func (a *AvgPool2D) Params() []*Param { return nil }
