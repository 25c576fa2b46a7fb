package core

import (
	"hash"
	"hash/fnv"
	"math"
	"testing"

	"safexplain/internal/data"
	"safexplain/internal/fdir"
	"safexplain/internal/nn"
	"safexplain/internal/supervisor"
	"safexplain/internal/tensor"
)

// identityStream is a 512-frame railway block. A faulted block injects an
// SEU into the live network inside Sample(seuAt), before Operate sees the
// frame — as a field upset between frames would — and carries a window
// of inverted frames.
type identityStream struct {
	frames []*tensor.Tensor
	labels []int
	net    *nn.Network
	seuAt  int
}

func newIdentityStream(seed uint64, net *nn.Network, faulted bool) *identityStream {
	set := data.Railway(data.Config{N: 512, Seed: seed, Noise: 0.05})
	s := &identityStream{net: net, seuAt: -1}
	for i := 0; i < set.Len(); i++ {
		x, label := set.Sample(i)
		s.frames = append(s.frames, x)
		s.labels = append(s.labels, label)
	}
	if faulted {
		s.seuAt = 40
		for i := 200; i < 240; i++ {
			inv := s.frames[i].Clone()
			for j, v := range inv.Data() {
				inv.Data()[j] = 1 - v
			}
			s.frames[i] = inv
		}
	}
	return s
}

func (s *identityStream) Len() int { return len(s.frames) }

func (s *identityStream) Sample(i int) (*tensor.Tensor, int) {
	if i == s.seuAt {
		if err := fdir.InjectSEU(s.net, 160, 0x5e0); err != nil {
			panic(err)
		}
	}
	return s.frames[i], s.labels[i]
}

// scoreRecorder hashes the bits of every supervisor score in call order:
// the trust scores inside the pattern and the drift re-scores alike.
type scoreRecorder struct {
	supervisor.Supervisor
	h hash.Hash64
	n int
}

func (r *scoreRecorder) Score(net *nn.Network, x *tensor.Tensor) float64 {
	v := r.Supervisor.Score(net, x)
	var b [8]byte
	bits := math.Float64bits(v)
	for k := range b {
		b[k] = byte(bits >> (8 * k))
	}
	r.h.Write(b[:])
	r.n++
	return v
}

// identityRecord is everything a block's decisions leave behind.
type identityRecord struct {
	Report    OperationReport
	LogHash   string // head of the evidence hash chain after the block
	DriftBits uint64 // math.Float64bits(drift.Statistic())
	Scores    int    // supervisor Score calls
	ScoreHash uint64 // FNV-1a over every score's bits
}

// TestOperateDecisionIdentity pins what Operate decides, records and
// scores, bit for bit, for the three deployed patterns on a clean block
// and on a block with an SEU (quarantine, golden restore, probation)
// plus inverted input. The drift detector never alarms (H = +Inf), so
// the re-score runs on every frame, restore frames included: a re-score
// that read a stale forward result after the restore changes the score
// hash even where the report and the evidence log do not move.
func TestOperateDecisionIdentity(t *testing.T) {
	want := map[PatternKind][2]identityRecord{
		PatternSimplex: {
			{Report: OperationReport{Frames: 512, Delivered: 433, Fallbacks: 79, AlarmFrame: -1},
				LogHash:   "72db3e5833087570eeb58313ebd5808e34ff5fc6d2effc26866e7120170d3bb1",
				DriftBits: 0x405ffb17f460895e, Scores: 1024, ScoreHash: 0x50aa5f5ca7ac3ea5},
			{Report: OperationReport{Frames: 512, Delivered: 368, Fallbacks: 144, AlarmFrame: -1,
				Anomalies: 40, Quarantines: 1, Restores: 1, ReturnsToService: 1},
				LogHash:   "32a867e47aa0aa32ece2d73cfc9b0cded65d964e477a643eef382cfc6596223f",
				DriftBits: 0x4095ae26fda93c34, Scores: 962, ScoreHash: 0x740cd9c5ca0cbc9d},
		},
		PatternSingle: {
			{Report: OperationReport{Frames: 512, Delivered: 512, AlarmFrame: -1},
				LogHash:   "4cbb700cb0f11791cc8a18a1f2c30336b7d4f99dce554e9ee83bf159cf09d89f",
				DriftBits: 0x405ffb17f460895e, Scores: 512, ScoreHash: 0x5f121c8afa74e060},
			{Report: OperationReport{Frames: 512, Delivered: 450, Fallbacks: 62, AlarmFrame: -1,
				Anomalies: 40, Quarantines: 1, Restores: 1, ReturnsToService: 1},
				LogHash:   "fcf88c5f11a0ed692dff0022009480244622b5123c86999653f035aba90f122c",
				DriftBits: 0x4095ae26fda93c34, Scores: 512, ScoreHash: 0x60ff716f8f4cda34},
		},
		PatternSupervised: {
			{Report: OperationReport{Frames: 512, Delivered: 433, Fallbacks: 79, AlarmFrame: -1},
				LogHash:   "f3d5b6711deea0932499dad2db5687eff4d1f0bd3f3246559fc5c83841bfbcf8",
				DriftBits: 0x405ffb17f460895e, Scores: 1024, ScoreHash: 0x50aa5f5ca7ac3ea5},
			{Report: OperationReport{Frames: 512, Delivered: 368, Fallbacks: 144, AlarmFrame: -1,
				Anomalies: 40, Quarantines: 1, Restores: 1, ReturnsToService: 1},
				LogHash:   "b2f64ba59fad53c400f81ee88853d52d27f6cfe59854a5b4d3e2d15afb61db1b",
				DriftBits: 0x4095ae26fda93c34, Scores: 962, ScoreHash: 0x740cd9c5ca0cbc9d},
		},
	}
	for _, pk := range []PatternKind{PatternSimplex, PatternSingle, PatternSupervised} {
		t.Run(string(pk), func(t *testing.T) {
			s, err := Build(Config{
				CaseStudy: data.CaseStudy{Name: "railway", Generate: data.Railway},
				Pattern:   pk,
				Seed:      42,
			})
			if err != nil {
				t.Fatal(err)
			}
			rec := &scoreRecorder{Supervisor: s.Monitor.Sup, h: fnv.New64a()}
			s.Monitor.Sup = rec
			for b, faulted := range []bool{false, true} {
				drift, err := s.NewDriftDetector(0, math.Inf(1))
				if err != nil {
					t.Fatal(err)
				}
				rec.h, rec.n = fnv.New64a(), 0
				rep := s.Operate(newIdentityStream(0x1d0+uint64(b), s.Net, faulted), drift)
				if faulted && rep.Restores == 0 {
					t.Fatalf("block %d: the SEU never forced a golden restore: %+v", b, rep)
				}
				events := s.Log.Events()
				got := identityRecord{
					Report:    rep,
					LogHash:   events[len(events)-1].Hash,
					DriftBits: math.Float64bits(drift.Statistic()),
					Scores:    rec.n,
					ScoreHash: rec.h.Sum64(),
				}
				if got != want[pk][b] {
					t.Errorf("block %d (faulted=%v):\n got %#v\nwant %#v", b, faulted, got, want[pk][b])
				}
			}
		})
	}
}

// panicScorer reads the frame's shared result through the supervisor,
// then panics, as a faulty consumer in the middle of a frame would.
type panicScorer struct{ supervisor.Supervisor }

func (p panicScorer) Score(net *nn.Network, x *tensor.Tensor) float64 {
	p.Supervisor.Score(net, x)
	panic("scorer fault")
}

// A frame that panics after its pass must not leave the network pinned
// to that input: a caller that recovers and writes a weight sees the
// write in the next unscoped call on the same tensor.
func TestOperatePanicEndsFrameScope(t *testing.T) {
	s := cheapBuild(t, 5001)
	drift, err := s.NewDriftDetector(0, math.Inf(1))
	if err != nil {
		t.Fatal(err)
	}
	s.Monitor.Sup = panicScorer{s.Monitor.Sup}
	stream := newIdentityStream(0x1d2, s.Net, false)
	x, _ := stream.Sample(0)
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("Operate did not panic")
			}
		}()
		s.Operate(stream, drift)
	}()
	before := append([]float32(nil), s.Net.Logits(x).Data()...)
	head := s.Net.Layers[len(s.Net.Layers)-1].(*nn.Dense)
	head.B.Value.Data()[0] += 1
	if got := s.Net.Logits(x).Data()[0]; got != before[0]+1 {
		t.Fatalf("logit 0 after the bias write: %v, want %v (the network is still pinned to the panicked frame)", got, before[0]+1)
	}
}
