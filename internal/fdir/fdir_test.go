package fdir

import (
	"math"
	"testing"

	"safexplain/internal/data"
	"safexplain/internal/nn"
	"safexplain/internal/prng"
	"safexplain/internal/rt"
	"safexplain/internal/safety"
	"safexplain/internal/tensor"
)

func newTestNet(seed uint64) *nn.Network {
	src := prng.New(seed)
	return nn.NewNetwork("fdir-test",
		nn.NewConv2D(1, 4, 3, 1, 1, src), nn.NewReLU(), nn.NewMaxPool2D(2, 2),
		nn.NewFlatten(), nn.NewDense(4*8*8, 16, src), nn.NewReLU(),
		nn.NewDense(16, 3, src))
}

func observeN(h *Health, anomalous bool, n int) {
	for i := 0; i < n; i++ {
		h.Observe(anomalous)
	}
}

func TestHealthNominalPath(t *testing.T) {
	h := NewHealth(HealthConfig{QuarantineAfter: 3, ClearAfter: 5, ReprobeAfter: 2, ProbationFrames: 4})
	if h.State() != Healthy || !h.InService() {
		t.Fatal("fresh machine must be Healthy and in service")
	}
	observeN(h, false, 100)
	if h.State() != Healthy {
		t.Fatal("clean frames must keep the machine Healthy")
	}
}

func TestHealthSuspectClears(t *testing.T) {
	h := NewHealth(HealthConfig{QuarantineAfter: 3, ClearAfter: 5, ReprobeAfter: 2, ProbationFrames: 4})
	from, to := h.Observe(true)
	if from != Healthy || to != Suspect {
		t.Fatalf("transition %v -> %v, want Healthy -> Suspect", from, to)
	}
	if !h.InService() {
		t.Fatal("Suspect channel stays in service")
	}
	observeN(h, false, 4)
	if h.State() != Suspect {
		t.Fatal("must remain Suspect below ClearAfter")
	}
	h.Observe(false)
	if h.State() != Healthy {
		t.Fatal("ClearAfter clean frames must clear Suspect")
	}
}

func TestHealthQuarantineAndRecovery(t *testing.T) {
	h := NewHealth(HealthConfig{QuarantineAfter: 3, ClearAfter: 5, ReprobeAfter: 2, ProbationFrames: 4})
	observeN(h, true, 3)
	if h.State() != Quarantined {
		t.Fatalf("state %v after 3 anomalies, want Quarantined", h.State())
	}
	if h.InService() {
		t.Fatal("Quarantined channel must be out of service")
	}
	// Anomalies while quarantined keep it quarantined.
	observeN(h, true, 10)
	if h.State() != Quarantined {
		t.Fatal("anomalies must hold quarantine")
	}
	// ReprobeAfter clean frames begin probation; still out of service.
	observeN(h, false, 2)
	if h.State() != Probation || h.InService() {
		t.Fatalf("state %v, want out-of-service Probation", h.State())
	}
	// An anomaly during probation re-quarantines.
	h.Observe(true)
	if h.State() != Quarantined {
		t.Fatal("probation anomaly must re-quarantine")
	}
	// Full clean recovery: reprobe + probation window.
	observeN(h, false, 2)
	observeN(h, false, 3)
	if h.State() != Probation {
		t.Fatal("must still be on probation before the window completes")
	}
	h.Observe(false)
	if h.State() != Healthy || !h.InService() {
		t.Fatalf("state %v, want Healthy after probation window", h.State())
	}
}

func TestHealthDefaults(t *testing.T) {
	h := NewHealth(HealthConfig{})
	cfg := h.Config()
	if cfg.QuarantineAfter != 3 || cfg.ClearAfter != 10 || cfg.ReprobeAfter != 5 || cfg.ProbationFrames != 20 {
		t.Fatalf("defaults wrong: %+v", cfg)
	}
}

func TestOutputGuardNaNAndRange(t *testing.T) {
	g := &OutputGuard{MaxAbs: 10, lastClass: -1}
	if anoms := g.Check([]float32{1, -2, 3}); len(anoms) != 0 {
		t.Fatalf("clean logits flagged: %v", anoms)
	}
	anoms := g.Check([]float32{1, float32(math.NaN()), 3})
	if len(anoms) != 1 || anoms[0].Kind != AnomalyNaN {
		t.Fatalf("NaN not flagged: %v", anoms)
	}
	anoms = g.Check([]float32{1, -2, 1e6})
	if len(anoms) != 1 || anoms[0].Kind != AnomalyRange {
		t.Fatalf("range not flagged: %v", anoms)
	}
}

func TestOutputGuardFlatlineAndStuck(t *testing.T) {
	g := &OutputGuard{FlatlineWindow: 3, StuckWindow: 5, lastClass: -1}
	frozen := []float32{0.5, 2, 1}
	for i := 0; i < 2; i++ {
		if anoms := g.Check(frozen); len(anoms) != 0 {
			t.Fatalf("frame %d: early flatline flag: %v", i, anoms)
		}
	}
	anoms := g.Check(frozen)
	if len(anoms) != 1 || anoms[0].Kind != AnomalyFlatline {
		t.Fatalf("flatline not flagged on 3rd identical frame: %v", anoms)
	}
	// Varying logits with a constant argmax trip the stuck detector at
	// the window, not the flatline one.
	g.Reset()
	for i := 0; i < 4; i++ {
		if anoms := g.Check([]float32{0.1 * float32(i), 5 + float32(i), 0}); len(anoms) != 0 {
			t.Fatalf("frame %d: early stuck flag: %v", i, anoms)
		}
	}
	anoms = g.Check([]float32{0.9, 9, 0})
	if len(anoms) != 1 || anoms[0].Kind != AnomalyStuck {
		t.Fatalf("stuck class not flagged at window: %v", anoms)
	}
	// A class change clears the run.
	if anoms := g.Check([]float32{9, 0, 0}); len(anoms) != 0 {
		t.Fatalf("class change still flagged: %v", anoms)
	}
}

func TestCalibratedGuardsAcceptCleanStream(t *testing.T) {
	set := data.Railway(data.Config{N: 80, Seed: 900, Noise: 0.05})
	net := newTestNet(901)
	out := CalibrateOutputGuard(NetProbe{Net: net}, set, 4, 8, 0)
	in := CalibrateInputGuard(set, 0.5)
	for i := 0; i < set.Len(); i++ {
		x, _ := set.Sample(i)
		if anoms := in.Check(x); len(anoms) != 0 {
			t.Fatalf("input guard rejects clean frame %d: %v", i, anoms)
		}
		if anoms := out.Check(NetProbe{Net: net}.Logits(x)); len(anoms) != 0 {
			t.Fatalf("output guard rejects clean frame %d: %v", i, anoms)
		}
	}
}

func TestInputGuardCatchesSensorFaults(t *testing.T) {
	set := data.Railway(data.Config{N: 60, Seed: 910, Noise: 0.05})
	g := CalibrateInputGuard(set, 0.5)
	// Dead sensor: constant frame has zero std.
	dead := tensor.New(1, data.Side, data.Side)
	if anoms := g.Check(dead); len(anoms) == 0 {
		t.Fatal("dead (constant) sensor not flagged")
	}
	// Massive complement fault: mean far above the calibrated band.
	x, _ := set.Sample(0)
	r := prng.New(911)
	bad := complementPixels(x, 220, r)
	if anoms := g.Check(bad); len(anoms) == 0 {
		t.Fatal("gross complement fault not flagged")
	}
	// NaN frame.
	nanX := x.Clone()
	nanX.Data()[0] = float32(math.NaN())
	if anoms := g.Check(nanX); len(anoms) == 0 {
		t.Fatal("NaN frame not flagged")
	}
}

func TestGoldenRestoreRepairsSEU(t *testing.T) {
	net := newTestNet(920)
	golden, err := NewGolden(net)
	if err != nil {
		t.Fatal(err)
	}
	preHash, err := nn.Hash(net)
	if err != nil {
		t.Fatal(err)
	}
	if preHash != golden.Hash() {
		t.Fatal("golden hash must equal the captured network's content hash")
	}
	// Field corruption: SEUs hit the live image.
	if err := InjectSEU(net, 40, 921); err != nil {
		t.Fatal(err)
	}
	if golden.Verify(net) {
		t.Fatal("corrupted image must fail golden verification")
	}
	// Recovery: reload the golden image and verify the content hash.
	if err := golden.Restore(net); err != nil {
		t.Fatal(err)
	}
	postHash, err := nn.Hash(net)
	if err != nil {
		t.Fatal(err)
	}
	if postHash != preHash {
		t.Fatalf("reloaded hash %s != pre-fault hash %s", postHash[:12], preHash[:12])
	}
	if !golden.Verify(net) {
		t.Fatal("restored image must pass golden verification")
	}
}

// A restore inside a frame scope ends it: readers later in the frame get
// the repaired image's output, not the forward result of the faulty one.
func TestGoldenRestoreEndsFrameScope(t *testing.T) {
	net := newTestNet(940)
	golden, err := NewGolden(net)
	if err != nil {
		t.Fatal(err)
	}
	x := tensor.New(1, 16, 16)
	for i := range x.Data() {
		x.Data()[i] = float32(i%7) / 7
	}
	clean := NetProbe{Net: net}.Logits(x)
	if err := InjectSEU(net, 40, 941); err != nil {
		t.Fatal(err)
	}

	net.BeginFrame(x)
	defer net.EndFrame()
	faulty := NetProbe{Net: net}.Logits(x)
	if err := golden.Restore(net); err != nil {
		t.Fatal(err)
	}
	repaired := NetProbe{Net: net}.Logits(x)
	// The next frame's pass runs through the restored layers too.
	net.EndFrame()
	net.BeginFrame(x)
	next := NetProbe{Net: net}.Logits(x)
	for i := range clean {
		if math.Float32bits(repaired[i]) != math.Float32bits(clean[i]) {
			t.Fatalf("logits after the in-frame restore %v, want the clean image's %v (faulty image gave %v)",
				repaired, clean, faulty)
		}
		if math.Float32bits(next[i]) != math.Float32bits(clean[i]) {
			t.Fatalf("logits in the frame after the restore %v, want the clean image's %v", next, clean)
		}
	}
}

func TestGoldenRefusesCorruptImage(t *testing.T) {
	net := newTestNet(930)
	golden, err := NewGolden(net)
	if err != nil {
		t.Fatal(err)
	}
	golden.image[10] ^= 0xff // the spare itself takes a fault
	if err := golden.Restore(net); err != ErrGoldenCorrupt {
		t.Fatalf("corrupt spare loaded: err=%v", err)
	}
}

func TestSignalsFromFrame(t *testing.T) {
	res := rt.FrameResult{Misses: []string{"telemetry", "inference"}}
	if !SignalsFromFrame(res, "inference").TimingOverrun {
		t.Fatal("task miss must signal overrun")
	}
	if SignalsFromFrame(rt.FrameResult{Misses: []string{"telemetry"}}, "inference").TimingOverrun {
		t.Fatal("other task's miss must not signal overrun")
	}
	if !SignalsFromFrame(rt.FrameResult{Watchdog: true}, "inference").TimingOverrun {
		t.Fatal("watchdog must signal overrun")
	}
}

func TestRuntimeDeliversPatternWhileHealthy(t *testing.T) {
	net := newTestNet(940)
	set := data.Railway(data.Config{N: 40, Seed: 941, Noise: 0.05})
	pattern := safety.SingleChannel{C: safety.NetChannel{Net: net}}
	fr := NewRuntime(RuntimeConfig{Name: "t"}, pattern, nil, net)
	fr.Out = CalibrateOutputGuard(NetProbe{Net: net}, set, 4, 8, 0)
	for i := 0; i < set.Len(); i++ {
		x, _ := set.Sample(i)
		st := fr.Step(i, x, Signals{})
		if !st.InService || st.Decision.Fallback {
			t.Fatalf("frame %d: healthy channel not delivering: %+v", i, st)
		}
		want := pattern.Decide(x).Class
		if st.Class != want {
			t.Fatalf("frame %d: class %d, want pattern's %d", i, st.Class, want)
		}
	}
	if s := fr.Stats(); s.Frames != set.Len() || s.Quarantines != 0 {
		t.Fatalf("stats %+v", s)
	}
}

func TestRuntimeDroppedFrameWithholdsOutput(t *testing.T) {
	net := newTestNet(950)
	pattern := safety.SingleChannel{C: safety.NetChannel{Net: net}}
	fr := NewRuntime(RuntimeConfig{}, pattern, nil, net)
	st := fr.Step(0, nil, Signals{})
	if !st.Decision.Fallback || st.Class != -1 {
		t.Fatalf("dropped frame must withhold output: %+v", st)
	}
	if len(st.Anomalies) != 1 || st.Anomalies[0].Kind != AnomalyDropped {
		t.Fatalf("dropped frame anomaly missing: %v", st.Anomalies)
	}
}
