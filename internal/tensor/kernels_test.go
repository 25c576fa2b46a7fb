package tensor

import (
	"math"
	"testing"

	"safexplain/internal/prng"
)

func TestMatMulKnownProduct(t *testing.T) {
	a := FromSlice([]float32{1, 2, 3, 4, 5, 6}, 2, 3)
	b := FromSlice([]float32{7, 8, 9, 10, 11, 12}, 3, 2)
	dst := New(2, 2)
	MatMul(dst, a, b)
	want := []float32{58, 64, 139, 154}
	for i, v := range dst.Data() {
		if v != want[i] {
			t.Fatalf("MatMul = %v, want %v", dst.Data(), want)
		}
	}
}

func TestMatMulIdentity(t *testing.T) {
	r := prng.New(3)
	const n = 8
	a := New(n, n)
	for i := range a.Data() {
		a.Data()[i] = r.Float32()
	}
	id := New(n, n)
	for i := 0; i < n; i++ {
		id.Set2(i, i, 1)
	}
	dst := New(n, n)
	MatMul(dst, a, id)
	if !Equal(dst, a) {
		t.Fatal("A @ I != A")
	}
	MatMul(dst, id, a)
	if !Equal(dst, a) {
		t.Fatal("I @ A != A")
	}
}

func TestMatMulShapePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MatMul(New(2, 2), New(2, 3), New(2, 2)) // inner dims mismatch
}

func TestMatVecMatchesMatMul(t *testing.T) {
	r := prng.New(5)
	a := New(4, 6)
	x := New(6)
	for i := range a.Data() {
		a.Data()[i] = r.Float32() - 0.5
	}
	for i := range x.Data() {
		x.Data()[i] = r.Float32() - 0.5
	}
	got := New(4)
	MatVec(got, a, x)
	want := New(4, 1)
	MatMul(want, a, x.Reshape(6, 1))
	for i := 0; i < 4; i++ {
		if got.Data()[i] != want.Data()[i] {
			t.Fatalf("MatVec[%d] = %v, MatMul gives %v", i, got.Data()[i], want.Data()[i])
		}
	}
}

func TestConv2DShape(t *testing.T) {
	cases := []struct {
		h, w, kh, kw, stride, pad, oh, ow int
	}{
		{8, 8, 3, 3, 1, 0, 6, 6},
		{8, 8, 3, 3, 1, 1, 8, 8},
		{8, 8, 3, 3, 2, 1, 4, 4},
		{5, 7, 1, 1, 1, 0, 5, 7},
	}
	for _, c := range cases {
		oh, ow := Conv2DShape(c.h, c.w, c.kh, c.kw, c.stride, c.pad)
		if oh != c.oh || ow != c.ow {
			t.Errorf("Conv2DShape(%+v) = (%d,%d), want (%d,%d)", c, oh, ow, c.oh, c.ow)
		}
	}
}

func TestConv2DIdentityKernel(t *testing.T) {
	// A 1x1 kernel with weight 1 and zero bias must copy the input.
	in := New(1, 4, 4)
	r := prng.New(7)
	for i := range in.Data() {
		in.Data()[i] = r.Float32()
	}
	w := FromSlice([]float32{1}, 1, 1, 1, 1)
	bias := New(1)
	out := New(1, 4, 4)
	Conv2D(out, in, w, bias, 1, 0)
	if !Equal(out, in) {
		t.Fatal("1x1 identity convolution must reproduce input")
	}
}

func TestConv2DKnownValues(t *testing.T) {
	// 3x3 input, 2x2 averaging-like kernel of ones, stride 1, no pad.
	in := FromSlice([]float32{
		1, 2, 3,
		4, 5, 6,
		7, 8, 9,
	}, 1, 3, 3)
	w := FromSlice([]float32{1, 1, 1, 1}, 1, 1, 2, 2)
	out := New(1, 2, 2)
	Conv2D(out, in, w, nil, 1, 0)
	want := []float32{12, 16, 24, 28}
	for i, v := range out.Data() {
		if v != want[i] {
			t.Fatalf("Conv2D = %v, want %v", out.Data(), want)
		}
	}
}

func TestConv2DBias(t *testing.T) {
	in := New(1, 2, 2) // zeros
	w := FromSlice([]float32{1}, 1, 1, 1, 1)
	bias := FromSlice([]float32{2.5}, 1)
	out := New(1, 2, 2)
	Conv2D(out, in, w, bias, 1, 0)
	for _, v := range out.Data() {
		if v != 2.5 {
			t.Fatalf("bias not applied: %v", out.Data())
		}
	}
}

func TestConv2DPaddingZeroExtends(t *testing.T) {
	// Single-pixel input, 3x3 kernel of ones, pad 1: the only contribution
	// at the centre is the pixel itself.
	in := FromSlice([]float32{5}, 1, 1, 1)
	wdata := make([]float32, 9)
	for i := range wdata {
		wdata[i] = 1
	}
	w := FromSlice(wdata, 1, 1, 3, 3)
	out := New(1, 1, 1)
	Conv2D(out, in, w, nil, 1, 1)
	if out.Data()[0] != 5 {
		t.Fatalf("padded conv = %v, want 5", out.Data()[0])
	}
}

func TestConv2DMultiChannel(t *testing.T) {
	// Two input channels summed by a 1x1 kernel with weights (1, 2).
	in := New(2, 2, 2)
	in.Set3(0, 0, 0, 3)
	in.Set3(1, 0, 0, 4)
	w := FromSlice([]float32{1, 2}, 1, 2, 1, 1)
	out := New(1, 2, 2)
	Conv2D(out, in, w, nil, 1, 0)
	if out.At3(0, 0, 0) != 11 { // 3*1 + 4*2
		t.Fatalf("multi-channel conv = %v, want 11", out.At3(0, 0, 0))
	}
}

func TestMaxPool2D(t *testing.T) {
	in := FromSlice([]float32{
		1, 3, 2, 4,
		5, 6, 7, 8,
		9, 2, 1, 0,
		3, 4, 5, 6,
	}, 1, 4, 4)
	out := New(1, 2, 2)
	argmax := make([]int, 4)
	MaxPool2D(out, in, 2, 2, argmax)
	want := []float32{6, 8, 9, 6}
	for i, v := range out.Data() {
		if v != want[i] {
			t.Fatalf("MaxPool2D = %v, want %v", out.Data(), want)
		}
	}
	// argmax indices must point at the winning elements.
	if in.Data()[argmax[0]] != 6 || in.Data()[argmax[2]] != 9 {
		t.Fatalf("argmax wrong: %v", argmax)
	}
}

func TestMaxPool2DTieBreaksFirst(t *testing.T) {
	in := FromSlice([]float32{7, 7, 7, 7}, 1, 2, 2)
	out := New(1, 1, 1)
	argmax := make([]int, 1)
	MaxPool2D(out, in, 2, 2, argmax)
	if argmax[0] != 0 {
		t.Fatalf("tie should pick first index, got %d", argmax[0])
	}
}

func TestAvgPool2D(t *testing.T) {
	in := FromSlice([]float32{
		1, 2,
		3, 4,
	}, 1, 2, 2)
	out := New(1, 1, 1)
	AvgPool2D(out, in, 2, 2)
	if out.Data()[0] != 2.5 {
		t.Fatalf("AvgPool2D = %v, want 2.5", out.Data()[0])
	}
}

func TestReLU(t *testing.T) {
	a := FromSlice([]float32{-1, 0, 2, -3.5}, 4)
	dst := New(4)
	ReLU(dst, a)
	want := []float32{0, 0, 2, 0}
	for i, v := range dst.Data() {
		if v != want[i] {
			t.Fatalf("ReLU = %v, want %v", dst.Data(), want)
		}
	}
}

func TestSoftmaxProperties(t *testing.T) {
	a := FromSlice([]float32{1, 2, 3}, 3)
	dst := New(3)
	Softmax(dst, a)
	var sum float64
	prev := -1.0
	for _, v := range dst.Data() {
		if v <= 0 || v >= 1 {
			t.Fatalf("softmax output out of (0,1): %v", dst.Data())
		}
		if float64(v) <= prev {
			t.Fatal("softmax must preserve ordering of monotone input")
		}
		prev = float64(v)
		sum += float64(v)
	}
	if math.Abs(sum-1) > 1e-6 {
		t.Fatalf("softmax sums to %v", sum)
	}
}

func TestSoftmaxNumericalStability(t *testing.T) {
	// Large logits must not overflow to NaN/Inf.
	a := FromSlice([]float32{1000, 1001, 1002}, 3)
	dst := New(3)
	Softmax(dst, a)
	var sum float64
	for _, v := range dst.Data() {
		if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
			t.Fatalf("softmax overflowed: %v", dst.Data())
		}
		sum += float64(v)
	}
	if math.Abs(sum-1) > 1e-6 {
		t.Fatalf("softmax sums to %v", sum)
	}
}

func TestSoftmaxShiftInvariance(t *testing.T) {
	a := FromSlice([]float32{0.5, -1, 2}, 3)
	b := FromSlice([]float32{10.5, 9, 12}, 3) // a + 10
	da, db := New(3), New(3)
	Softmax(da, a)
	Softmax(db, b)
	for i := range da.Data() {
		if math.Abs(float64(da.Data()[i]-db.Data()[i])) > 1e-6 {
			t.Fatalf("softmax not shift-invariant: %v vs %v", da.Data(), db.Data())
		}
	}
}

func TestKernelsDeterministic(t *testing.T) {
	// The headline FUSA property: re-running a kernel on the same input
	// produces bit-identical output.
	r := prng.New(11)
	in := New(3, 8, 8)
	for i := range in.Data() {
		in.Data()[i] = r.Float32() - 0.5
	}
	w := New(4, 3, 3, 3)
	for i := range w.Data() {
		w.Data()[i] = r.Float32() - 0.5
	}
	bias := New(4)
	out1 := New(4, 8, 8)
	out2 := New(4, 8, 8)
	Conv2D(out1, in, w, bias, 1, 1)
	Conv2D(out2, in, w, bias, 1, 1)
	if !Equal(out1, out2) {
		t.Fatal("Conv2D is not bit-reproducible")
	}
}

func BenchmarkMatMul64(b *testing.B) {
	a := New(64, 64)
	c := New(64, 64)
	dst := New(64, 64)
	r := prng.New(1)
	for i := range a.Data() {
		a.Data()[i] = r.Float32()
		c.Data()[i] = r.Float32()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatMul(dst, a, c)
	}
}

func BenchmarkConv2D(b *testing.B) {
	in := New(3, 32, 32)
	w := New(8, 3, 3, 3)
	bias := New(8)
	out := New(8, 32, 32)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Conv2D(out, in, w, bias, 1, 1)
	}
}

// A kernel's shape panic names what does not fit and the sizes involved.
func TestKernelShapePanicMessages(t *testing.T) {
	for _, c := range []struct {
		want string
		run  func()
	}{
		{"tensor: MatVec shape mismatch [2 3] @ [4] -> [2]", func() { MatVec(New(2), New(2, 3), New(4)) }},
		{"tensor: Conv2D channel mismatch input 2 weights 1", func() { Conv2D(New(1, 4, 4), New(2, 4, 4), New(1, 1, 1, 1), nil, 1, 0) }},
		{"tensor: Conv2D dst shape [1 3 3], want [1 4 4]", func() { Conv2D(New(1, 3, 3), New(1, 4, 4), New(1, 1, 1, 1), nil, 1, 0) }},
		{"tensor: Conv2D bias shape [2], want [1]", func() { Conv2D(New(1, 4, 4), New(1, 4, 4), New(1, 1, 1, 1), New(2), 1, 0) }},
		{"tensor: MaxPool2D dst shape [1 1 1], want [1 2 2]", func() { MaxPool2D(New(1, 1, 1), New(1, 4, 4), 2, 2, nil) }},
		{"tensor: MaxPool2D argmax length 3, want 4", func() { MaxPool2D(New(1, 2, 2), New(1, 4, 4), 2, 2, make([]int, 3)) }},
		{"tensor: shape mismatch in ReLU [2] [3]", func() { ReLU(New(2), New(3)) }},
		{"tensor: shape mismatch [2] [2] [3]", func() { Add(New(2), New(2), New(3)) }},
	} {
		func() {
			defer func() {
				err, ok := recover().(error)
				if !ok || err.Error() != c.want {
					t.Errorf("panic %v, want %q", err, c.want)
				}
			}()
			c.run()
		}()
	}
}
