package nn

import "safexplain/internal/tensor"

// frameResult is one frame's shared forward result.
type frameResult struct {
	x        *tensor.Tensor // the pinned input; nil outside a scope
	ran      bool           // the pass has run
	logits   *tensor.Tensor
	probs    *tensor.Tensor
	class    int
	features []float32
}

// BeginFrame opens a frame scope on x. In one deployed frame the FDIR
// probe, the trust score, the primary channel and the drift re-score
// all read the same input through the same weights; inside the scope
// the first Predict, Logits or Features call on x runs one forward pass
// and keeps its logits, softmax class and penultimate features, and
// every later call on x returns them. The pass runs lazily, in
// whichever consumer asks first. A call on any other input runs a
// normal Forward and leaves the frame's result alone; Forward and
// Backward themselves never consult the scope.
//
// The results returned inside a scope are shared and live in buffers
// the network reuses for the next frame's pass: callers must not write
// to them, and must copy what they keep past EndFrame. The scope is
// sound only while the weights do not change, so no parameter may be
// written in place between BeginFrame and EndFrame — a golden-image
// restore ends the scope (fdir.Golden.Restore).
func (n *Network) BeginFrame(x *tensor.Tensor) { n.frame = frameResult{x: x} }

// EndFrame closes the frame scope and drops its result.
func (n *Network) EndFrame() { n.frame = frameResult{} }

// scoped returns the frame result when a scope is open on x, running
// the pass on first use. It returns nil, and the call runs unscoped,
// when no scope is open on x or the network cannot run the frame pass
// (see newFrameArena).
func (n *Network) scoped(x *tensor.Tensor) *frameResult {
	f := &n.frame
	if x == nil || f.x != x {
		return nil
	}
	if !f.ran {
		a := n.frameArena(x)
		if !a.ok {
			return nil
		}
		a.pass(f, x)
		f.ran = true
	}
	return f
}

// intoLayer is a deployment layer that writes its output into a buffer
// the caller owns, caching nothing for Backward. Its Forward allocates
// the output and calls forwardInto, so the frame pass and Forward share
// one copy of the layer's arithmetic.
type intoLayer interface {
	Layer
	forwardInto(dst, in *tensor.Tensor)
}

// frameStep is one layer of the frame pass: l writes out from the
// previous step's next (the network input, for the first step). next is
// out itself, or a rank-1 view of out when a Flatten follows: Flatten
// is a view and runs no step of its own.
type frameStep struct {
	l         intoLayer
	out, next *tensor.Tensor
}

// frameArena holds the buffers of the frame pass, shaped once for an
// input shape and a layer list, so the pass allocates nothing after its
// first frame.
type frameArena struct {
	layers  []Layer // the layer list the buffers were shaped for
	in      []int   // the input shape they were shaped for
	ok      bool    // every layer runs in the arena
	steps   []frameStep
	probs   *tensor.Tensor
	feature *tensor.Tensor // the last Dense layer's input; nil is the network input
}

// frameArena returns the arena for x through the current layer list,
// building it on first use and again after the list changed (a
// golden-image restore replaces it).
func (n *Network) frameArena(x *tensor.Tensor) *frameArena {
	if a := n.arena; a != nil && a.fits(n.Layers, x) {
		return a
	}
	n.arena = newFrameArena(n.Layers, x)
	return n.arena
}

func (a *frameArena) fits(layers []Layer, x *tensor.Tensor) bool {
	if len(layers) != len(a.layers) || !shapeEq(x.Shape(), a.in) {
		return false
	}
	for i, l := range layers {
		if l != a.layers[i] {
			return false
		}
	}
	return true
}

// newFrameArena shapes the pass of layers over inputs shaped like x. It
// checks x's shape with the same layer-named panics Forward raises. The
// arena is not ok, and scoped calls run unscoped, when a layer cannot
// write into a buffer or the network starts with a Flatten (its view
// would be of the caller's input, which changes every frame).
func newFrameArena(layers []Layer, x *tensor.Tensor) *frameArena {
	a := &frameArena{
		layers: append([]Layer(nil), layers...),
		in:     append([]int(nil), x.Shape()...),
	}
	shape := x.Shape()
	for _, l := range layers {
		switch l := l.(type) {
		case *Dense:
			l.checkInput(shape)
			a.feature = nil
			if k := len(a.steps); k > 0 {
				a.feature = a.steps[k-1].next
			}
		case *Conv2D:
			l.checkInput(shape)
		}
		shape = l.OutShape(shape)
		if _, view := l.(*Flatten); view {
			k := len(a.steps)
			if k == 0 {
				return a
			}
			a.steps[k-1].next = a.steps[k-1].next.Reshape(shape...)
			continue
		}
		il, ok := l.(intoLayer)
		if !ok {
			return a
		}
		out := tensor.New(shape...)
		a.steps = append(a.steps, frameStep{l: il, out: out, next: out})
	}
	a.probs = tensor.New(shape...)
	a.ok = true
	return a
}

// pass runs the layers on x into the arena's buffers and fills f with
// the result Predict, Logits and Features would compute.
//
//safexplain:hotpath
func (a *frameArena) pass(f *frameResult, x *tensor.Tensor) {
	in := x
	for _, s := range a.steps { //safexplain:bounded one iteration per layer, fixed when the arena was built
		s.l.forwardInto(s.out, in)
		in = s.next
	}
	tensor.Softmax(a.probs, in)
	f.logits, f.probs, f.class = in, a.probs, a.probs.Argmax()
	f.features = x.Data()
	if a.feature != nil {
		f.features = a.feature.Data()
	}
}
