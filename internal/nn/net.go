package nn

import (
	"fmt"
	"strings"

	"safexplain/internal/tensor"
)

// Network is an ordered stack of layers. It caches per-layer activations
// during Forward so Backward, the explainers, and the feature-based
// supervisors can consume them. Not safe for concurrent use.
type Network struct {
	// ID names the model in traceability records.
	ID     string
	Layers []Layer

	// activations[0] is the input; activations[i+1] is Layers[i]'s output.
	activations []*tensor.Tensor

	// frame is the open frame scope's shared result and arena the
	// buffers its pass runs in (see BeginFrame).
	frame frameResult
	arena *frameArena
}

// NewNetwork constructs a network over the given layers.
func NewNetwork(id string, layers ...Layer) *Network {
	return &Network{ID: id, Layers: layers}
}

// Describe returns a one-line-per-layer architecture summary.
func (n *Network) Describe() string {
	var b strings.Builder
	fmt.Fprintf(&b, "network %s:\n", n.ID)
	for i, l := range n.Layers {
		fmt.Fprintf(&b, "  [%d] %s\n", i, l.Name())
	}
	return b.String()
}

// Forward runs the network on one input and returns the final output
// (typically logits), caching every intermediate activation.
func (n *Network) Forward(x *tensor.Tensor) *tensor.Tensor {
	n.activations = n.activations[:0]
	n.activations = append(n.activations, x)
	for _, l := range n.Layers {
		x = l.Forward(x)
		n.activations = append(n.activations, x)
	}
	return x
}

// Backward propagates gradOut (gradient w.r.t. the final output of the
// most recent Forward) through the network, accumulating parameter
// gradients, and returns the gradient w.r.t. the network input — the
// quantity gradient-based explainers need.
func (n *Network) Backward(gradOut *tensor.Tensor) *tensor.Tensor {
	if len(n.activations) == 0 {
		panic("nn: Backward before Forward")
	}
	g := gradOut
	for i := len(n.Layers) - 1; i >= 0; i-- {
		g = n.Layers[i].Backward(g)
	}
	return g
}

// Activation returns the cached output of layer i from the most recent
// Forward (i == -1 returns the input).
func (n *Network) Activation(i int) *tensor.Tensor {
	return n.activations[i+1]
}

// Params returns all trainable parameters in layer order.
func (n *Network) Params() []*Param {
	var ps []*Param
	for _, l := range n.Layers {
		ps = append(ps, l.Params()...)
	}
	return ps
}

// ParamCount returns the total number of trainable scalars.
func (n *Network) ParamCount() int {
	c := 0
	for _, p := range n.Params() {
		c += p.Value.Len()
	}
	return c
}

// ZeroGrad clears every parameter gradient.
func (n *Network) ZeroGrad() {
	for _, p := range n.Params() {
		p.Grad.Zero()
	}
}

// Logits runs Forward and returns the raw output vector. Inside a frame
// scope on x it returns the frame's shared logits (see BeginFrame).
func (n *Network) Logits(x *tensor.Tensor) *tensor.Tensor {
	if f := n.scoped(x); f != nil {
		return f.logits
	}
	return n.Forward(x)
}

// Predict runs Forward and returns the argmax class and its softmax
// probability vector. Inside a frame scope on x it returns the frame's
// shared class and probabilities (see BeginFrame).
func (n *Network) Predict(x *tensor.Tensor) (class int, probs *tensor.Tensor) {
	if f := n.scoped(x); f != nil {
		return f.class, f.probs
	}
	return softmaxClass(n.Forward(x))
}

// Features runs Forward and returns the cached activation of the
// penultimate parametric stage — the input to the final Dense layer —
// which is the embedding the Mahalanobis supervisor models. It falls back
// to the network input if no Dense layer exists. Inside a frame scope on
// x it returns the frame's shared features (see BeginFrame).
func (n *Network) Features(x *tensor.Tensor) []float32 {
	if f := n.scoped(x); f != nil {
		return f.features
	}
	n.Forward(x)
	return n.features()
}

// softmaxClass is Predict's decision: the softmax of the logits and its
// argmax. The class is taken from the probabilities, not the logits:
// under corrupted weights the logits can hold Inf or NaN, and the two
// argmaxes then differ.
func softmaxClass(logits *tensor.Tensor) (int, *tensor.Tensor) {
	probs := tensor.New(logits.Shape()...)
	tensor.Softmax(probs, logits)
	return probs.Argmax(), probs
}

// features copies the penultimate activation of the most recent Forward.
func (n *Network) features() []float32 {
	lastDense := -1
	for i, l := range n.Layers {
		if _, ok := l.(*Dense); ok {
			lastDense = i
		}
	}
	act := n.Activation(-1) // the input when there is no Dense layer
	if lastDense >= 0 {
		act = n.Activation(lastDense - 1)
	}
	out := make([]float32, act.Len())
	copy(out, act.Data())
	return out
}

// Clone returns a deep copy of the network: same architecture, copied
// parameter values, fresh gradient buffers and caches. Layer construction
// uses a nil PRNG because values are overwritten immediately.
func (n *Network) Clone(id string) (*Network, error) {
	spec, err := Marshal(n)
	if err != nil {
		return nil, err
	}
	c, err := Unmarshal(spec)
	if err != nil {
		return nil, err
	}
	c.ID = id
	return c, nil
}
