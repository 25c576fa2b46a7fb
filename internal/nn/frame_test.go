package nn

import (
	"math"
	"testing"

	"safexplain/internal/prng"
	"safexplain/internal/tensor"
)

// frameNet is the deployed railway architecture at test size.
func frameNet(seed uint64) *Network {
	src := prng.New(seed)
	return NewNetwork("frame-test",
		NewConv2D(1, 4, 3, 1, 1, src), NewReLU(), NewMaxPool2D(2, 2),
		NewFlatten(), NewDense(4*8*8, 16, src), NewReLU(),
		NewDense(16, 3, src))
}

func frameInput(seed uint64) *tensor.Tensor {
	src := prng.New(seed)
	x := tensor.New(1, 16, 16)
	for i := range x.Data() {
		x.Data()[i] = float32(src.Float64())
	}
	return x
}

// frameOutputs is what the three scoped calls return, copied.
type frameOutputs struct {
	class    int
	probs    []float32
	logits   []float32
	features []float32
}

func copied(t *tensor.Tensor) []float32 { return append([]float32(nil), t.Data()...) }

// unscoped computes the outputs the way every caller did before frame
// scopes: one Forward per call.
func unscoped(n *Network, x *tensor.Tensor) frameOutputs {
	class, probs := n.Predict(x)
	return frameOutputs{class: class, probs: copied(probs),
		logits: copied(n.Logits(x)), features: append([]float32(nil), n.Features(x)...)}
}

// scopedOutputs calls the three readers inside one scope, Features first
// (the order of the deployed frame: the FDIR probe reads logits, the trust
// score features, the primary channel the class).
func scopedOutputs(n *Network, x *tensor.Tensor) frameOutputs {
	n.BeginFrame(x)
	defer n.EndFrame()
	features := append([]float32(nil), n.Features(x)...)
	logits := copied(n.Logits(x))
	class, probs := n.Predict(x)
	return frameOutputs{class: class, probs: copied(probs), logits: logits, features: features}
}

func sameBits(a, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return false
		}
	}
	return true
}

func requireSame(t *testing.T, what string, got, want frameOutputs) {
	t.Helper()
	if got.class != want.class {
		t.Fatalf("%s: class %d, want %d", what, got.class, want.class)
	}
	for _, c := range []struct {
		name      string
		got, want []float32
	}{{"probs", got.probs, want.probs}, {"logits", got.logits, want.logits}, {"features", got.features, want.features}} {
		if !sameBits(c.got, c.want) {
			t.Fatalf("%s: %s %v, want %v", what, c.name, c.got, c.want)
		}
	}
}

func TestFrameScopeBitIdentical(t *testing.T) {
	net := frameNet(1)
	for k := uint64(0); k < 8; k++ {
		x := frameInput(100 + k)
		requireSame(t, "clean", scopedOutputs(net, x), unscoped(net, x))
	}

	// An upset in the head makes the logits non-finite. The class must
	// still be the softmax's argmax, as Predict computes it, not the
	// logits' argmax.
	head := net.Layers[len(net.Layers)-1].(*Dense)
	head.B.Value.Data()[1] = float32(math.Inf(1))
	head.B.Value.Data()[2] = float32(math.Inf(1))
	x := frameInput(200)
	want := unscoped(net, x)
	if want.class == tensor.FromSlice(want.logits, 3).Argmax() {
		t.Fatalf("corrupted head: softmax and logit argmax agree (%d), the case is not exercised", want.class)
	}
	requireSame(t, "non-finite logits", scopedOutputs(net, x), want)
}

// A network the frame pass cannot run — a layer that cannot write into
// a buffer (here Tanh), or a leading Flatten — behaves as unscoped.
func TestFrameScopeForwardFallback(t *testing.T) {
	src := prng.New(3)
	net := NewNetwork("tanh", NewDense(8, 6, src), NewTanh(), NewDense(6, 3, src))
	x := tensor.FromSlice([]float32{0.1, -0.4, 0.9, 0.3, -0.2, 0.5, 0.7, -0.8}, 8)
	requireSame(t, "tanh", scopedOutputs(net, x), unscoped(net, x))

	flat := NewNetwork("flatten-first", NewFlatten(), NewDense(12, 3, src))
	y := tensor.New(3, 4)
	for i := range y.Data() {
		y.Data()[i] = float32(i) / 12
	}
	requireSame(t, "flatten first", scopedOutputs(flat, y), unscoped(flat, y))
}

// An input the network does not fit panics inside a scope with the same
// layer-named message Forward gives.
func TestFrameScopeShapePanicNamesLayer(t *testing.T) {
	panicOf := func(f func()) (msg any) {
		defer func() { msg = recover() }()
		f()
		return nil
	}
	for _, c := range []struct {
		net *Network
		x   *tensor.Tensor
	}{
		{frameNet(6), tensor.New(2, 16, 16)},                              // Conv2D channels
		{NewNetwork("dense", NewDense(8, 3, prng.New(6))), tensor.New(7)}, // Dense width
	} {
		want := panicOf(func() { c.net.Logits(c.x) })
		if want == nil {
			t.Fatal("unscoped call on a mis-shaped input did not panic")
		}
		c.net.BeginFrame(c.x)
		got := panicOf(func() { c.net.Logits(c.x) })
		c.net.EndFrame()
		if got != want {
			t.Fatalf("scoped panic %v, want %v", got, want)
		}
	}
}

// One pass per scope: every reader inside the scope sees the same result,
// a different input runs its own Forward and does not disturb it.
func TestFrameScopeOtherInput(t *testing.T) {
	net := frameNet(2)
	x, y := frameInput(1), frameInput(2)
	wantX, wantY := unscoped(net, x), unscoped(net, y)

	net.BeginFrame(x)
	defer net.EndFrame()
	logits := net.Logits(x)
	if !sameBits(copied(logits), wantX.logits) {
		t.Fatal("scoped logits differ from Forward")
	}
	if got := unscoped(net, y); !sameBits(got.logits, wantY.logits) || got.class != wantY.class {
		t.Fatal("an input outside the scope did not get its own pass")
	}
	if net.Logits(x) != logits {
		t.Fatal("a second read on the pinned input ran a new pass")
	}
	class, probs := net.Predict(x)
	if class != wantX.class || !sameBits(copied(probs), wantX.probs) || !sameBits(copied(logits), wantX.logits) {
		t.Fatal("the pinned result changed after a call on another input")
	}
}

// After EndFrame the result is gone: a weight written between frames
// shows in the next call.
func TestFrameScopeEndFrameDropsResult(t *testing.T) {
	net := frameNet(3)
	x := frameInput(3)
	net.BeginFrame(x)
	before := copied(net.Logits(x))
	net.EndFrame()

	head := net.Layers[len(net.Layers)-1].(*Dense)
	head.B.Value.Data()[0] += 1
	after := copied(net.Logits(x))
	if after[0] != before[0]+1 {
		t.Fatalf("logit 0 after the bias write: %v, want %v", after[0], before[0]+1)
	}
	net.BeginFrame(x)
	defer net.EndFrame()
	if got := copied(net.Logits(x)); !sameBits(got, after) {
		t.Fatalf("new scope logits %v, want %v", got, after)
	}
}

// A stream that refills one input tensor every frame gets a fresh pass
// every frame: the scope is keyed on the frame, not on the pointer alone.
func TestFrameScopeReusedInputBuffer(t *testing.T) {
	net := frameNet(4)
	buf := tensor.New(1, 16, 16)
	for k := uint64(0); k < 6; k++ {
		copy(buf.Data(), frameInput(300+k).Data())
		want := unscoped(net, buf.Clone())
		requireSame(t, "reused buffer", scopedOutputs(net, buf), want)
	}
}

// After its first frame, the scoped pass allocates nothing: its buffers
// belong to the network.
func TestFramePassAllocationFree(t *testing.T) {
	net := frameNet(5)
	x := frameInput(5)
	frame := func() {
		net.BeginFrame(x)
		net.Logits(x)
		net.Features(x)
		net.Predict(x)
		net.EndFrame()
	}
	frame()
	if allocs := testing.AllocsPerRun(50, frame); allocs != 0 {
		t.Fatalf("scoped frame allocates %.1f times, want 0", allocs)
	}
}
