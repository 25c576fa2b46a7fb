package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"sort"
	"strings"
	"testing"

	"safexplain/internal/core"
	"safexplain/internal/fdir"
	"safexplain/internal/nn"
	"safexplain/internal/safety"
	"safexplain/internal/tensor"
)

func TestPercentileReportsSamplesBeyond(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	for _, c := range []struct {
		q          float64
		want       float64
		wantBeyond int
	}{
		{0.50, 500, 500},
		{0.99, 990, 10},
		{0.999, 999, 1},
		{1, 1000, 0},
	} {
		v, beyond := percentile(xs, c.q)
		if v != c.want || beyond != c.wantBeyond {
			t.Errorf("percentile(1..1000, %v) = %v (%d beyond), want %v (%d beyond)", c.q, v, beyond, c.want, c.wantBeyond)
		}
	}
	if v, beyond := percentile(nil, 0.5); v != 0 || beyond != 0 {
		t.Errorf("percentile(nil) = %v, %d", v, beyond)
	}
	if v, beyond := percentile([]float64{7}, 0.99); v != 7 || beyond != 0 {
		t.Errorf("percentile([7], 0.99) = %v, %d", v, beyond)
	}
}

// The quartiles must be the ones Python's statistics.quantiles(v, n=4)
// gives; the expected values below are its output.
func TestSummarizeMatchesPythonQuantiles(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3.1, 1.2, 9.9, 4.4, 2.0}, [3]float64{1.6, 3.1, 7.15}},
		{[]float64{5, 1}, [3]float64{0, 3, 6}},
	} {
		s := summarize(c.in)
		got := [3]float64{s.Q1, s.Med, s.Q3}
		for i := range got {
			if math.Abs(got[i]-c.want[i]) > 1e-12 {
				t.Errorf("summarize(%v) = %v, want %v", c.in, got, c.want)
				break
			}
		}
	}
}

func TestVerdictAppliesBoundAndSpread(t *testing.T) {
	lower := metric{Name: "frame_p50_us", Unit: "us", Better: "lower", Bound: 0.10}
	higher := metric{Name: "frames_per_s", Unit: "frames/s", Better: "higher", Bound: 0.10}
	tight := func(med float64) summary { return summary{N: 10, Q1: 0.99 * med, Med: med, Q3: 1.01 * med} }
	wide := func(med float64) summary { return summary{N: 10, Q1: 0.8 * med, Med: med, Q3: 1.2 * med} }
	for _, c := range []struct {
		name string
		m    metric
		a, b summary
		want string
	}{
		{"slower beyond bound", lower, tight(100), tight(115), "worse"},
		{"faster beyond bound", lower, tight(100), tight(85), "better"},
		{"within bound", lower, tight(100), tight(105), "unchanged"},
		{"within bound, noisy", lower, tight(100), wide(105), "unresolved"},
		{"noisy parent", lower, wide(100), tight(95), "unresolved"},
		{"throughput drop", higher, tight(1000), tight(850), "worse"},
		{"throughput gain", higher, tight(1000), tight(1150), "better"},
		{"throughput within bound", higher, tight(1000), tight(950), "unchanged"},
	} {
		if _, got := verdict(c.m, c.a, c.b); got != c.want {
			t.Errorf("%s: verdict = %q, want %q", c.name, got, c.want)
		}
	}
}

// stubPattern is a deployed pattern doing a fixed amount of work per
// frame and noting when each decision finished.
type stubPattern struct{ done *[]int64 }

func (stubPattern) Name() string                 { return "stub" }
func (stubPattern) Level() safety.IntegrityLevel { return safety.QM }
func (p stubPattern) Decide(x *tensor.Tensor) safety.Decision {
	for until := nanotime() + 20_000; nanotime() < until; {
	}
	*p.done = append(*p.done, nanotime())
	return safety.Decision{Class: 0, FallbackClass: -1}
}

// Every frame of a pass yields exactly one latency; each one covers the
// frame's decision; the last one ends after Operate has returned, so it
// includes Operate's epilogue.
func TestStreamStampsEveryFrame(t *testing.T) {
	const n = 40
	var done []int64
	sys := &core.System{Net: nn.NewNetwork("stub"), FDIR: fdir.NewRuntime(fdir.RuntimeConfig{}, stubPattern{&done}, nil, nil)}
	frames := make([]*tensor.Tensor, n)
	for i := range frames {
		frames[i] = tensor.New(1, 4, 4)
	}
	b := &block{frames: frames, labels: make([]int, n), seu: -1, window: n}
	st := newStream(sys, n)
	st.reset(b, nil)
	rep, err := operate(sys, st, nil)
	returned := nanotime()
	if err != nil || rep.Frames != n {
		t.Fatalf("operate: %v, %+v", err, rep)
	}
	if len(done) != n {
		t.Fatalf("%d decisions for %d frames", len(done), n)
	}
	var p phaseStats
	p.add(st, n)
	if len(p.lat) != n || p.frames != n {
		t.Fatalf("%d latencies, %d frames for %d frames", len(p.lat), p.frames, n)
	}
	for i := 0; i < n; i++ {
		if !(st.start[i] <= done[i] && done[i] <= st.end[i]) {
			t.Errorf("frame %d: decision at %d outside [%d, %d]", i, done[i], st.start[i], st.end[i])
		}
		if p.lat[i] < 20 {
			t.Errorf("frame %d: latency %.1f us shorter than its decision", i, p.lat[i])
		}
		if i+1 < n && st.end[i] > st.start[i+1] {
			t.Errorf("frame %d ends after frame %d starts", i, i+1)
		}
	}
	if last := st.end[n-1]; last < done[n-1] || last > returned {
		t.Errorf("last frame ends at %d, want between its decision %d and the return of operate %d", last, done[n-1], returned)
	}
}

// benchmarkFile is the part of BENCHMARK.json the catalogue must match.
type benchmarkFile struct {
	Command   []string `json:"command"`
	Paths     []string `json:"paths"`
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metric `json:"end_to_end"`
	PerLayer []metric `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

func TestCatalogueMatchesBenchmarkJSON(t *testing.T) {
	bf := readBenchmarkFile(t)
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(workloadNames, ",") {
		t.Errorf("BENCHMARK.json workloads %v, bench runs %v", names, workloadNames)
	}
	same := func(kind string, file, code []metric) {
		if len(file) != len(code) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the catalogue %d", kind, len(file), len(code))
			return
		}
		for i := range file {
			if file[i] != code[i] {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, catalogue %+v", kind, i, file[i], code[i])
			}
		}
	}
	same("end_to_end", bf.EndToEnd, endToEnd)
	same("per_layer", bf.PerLayer, perLayer)
}

// systems caches one built System per pattern; a Build under the race
// detector takes seconds.
var systems = map[core.PatternKind]*core.System{}

func deployed(t *testing.T, p core.PatternKind) *core.System {
	t.Helper()
	if systems[p] == nil {
		sys, _, err := buildSystem(p, 1)
		if err != nil {
			t.Fatal(err)
		}
		systems[p] = sys
	}
	return systems[p]
}

// TestSmoke runs every workload for one traced cycle on small inputs and
// checks what a full run promises: the result objects carry exactly the
// metrics BENCHMARK.json names, no operation fails, and traced frames
// telescope exactly into layer self times plus the residual.
func TestSmoke(t *testing.T) {
	bf := readBenchmarkFile(t)
	for _, wl := range workloadNames {
		t.Run(wl, func(t *testing.T) {
			cfg := config{workload: wl, seed: 1, traced: true, frames: 256}
			var rep *report
			var err error
			if spec, ok := operateSpecOf(wl); ok {
				rep, err = runOperate(cfg, spec, deployed(t, spec.pattern), 0)
			} else {
				rep, err = runFleet(cfg, deployed(t, core.PatternSimplex), 0)
			}
			if err != nil {
				t.Fatal(err)
			}
			if rep.err != nil {
				t.Fatalf("incorrect: %v", rep.err)
			}
			if rep.failed != 0 || rep.m["failed_ratio"] != 0 || rep.attempted == 0 {
				t.Fatalf("%d of %d frames failed", rep.failed, rep.attempted)
			}
			if _, ok := operateSpecOf(wl); ok && !strings.Contains(strings.Join(rep.notes, "\n"), "exact=true") {
				t.Errorf("traced frames do not telescope: %v", rep.notes)
			}
			for _, c := range []struct {
				traced bool
				want   []metric
			}{{false, bf.EndToEnd}, {true, bf.PerLayer}} {
				var out bytes.Buffer
				if err := printReport(&out, config{workload: wl, traced: c.traced}, rep); err != nil {
					t.Fatal(err)
				}
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				var res result
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line is not a result: %v", err)
				}
				if !res.Correct || res.Failed != 0 {
					t.Errorf("result %+v", res)
				}
				var got, want []string
				for name, v := range res.Metrics {
					got = append(got, name+" "+v.Unit)
				}
				for _, m := range c.want {
					want = append(want, m.Name+" "+m.Unit)
				}
				sort.Strings(got)
				sort.Strings(want)
				if strings.Join(got, ",") != strings.Join(want, ",") {
					t.Errorf("traced=%v printed %v, BENCHMARK.json names %v", c.traced, got, want)
				}
			}
		})
	}
}

// The tests share one System per pattern across runs, which is sound
// only if a run leaves the System as deployed.
func TestRunLeavesSystemAsDeployed(t *testing.T) {
	sys := deployed(t, core.PatternSimplex)
	log, probe, sup, o := sys.Log, sys.FDIR.Probe, sys.Monitor.Sup, sys.Obs
	spec, _ := operateSpecOf("operate-faulted")
	if _, err := runOperate(config{workload: "operate-faulted", seed: 2, traced: true, frames: 256}, spec, sys, 0); err != nil {
		t.Fatal(err)
	}
	if sys.Log != log || sys.FDIR.Log != log || sys.FDIR.Probe != probe || sys.Monitor.Sup != sup || sys.Obs != o || sys.FDIR.Obs != o {
		t.Error("run left wrappers or a swapped evidence log on the System")
	}
	if p, ok := sys.FDIR.Pattern.(safety.Simplex); !ok {
		t.Errorf("FDIR pattern is %T after the run", sys.FDIR.Pattern)
	} else if _, timed := p.Primary.(timedChannel); timed {
		t.Error("run left a timed primary channel in the FDIR pattern")
	}
	if !sys.FDIR.Golden.Verify(sys.Net) {
		t.Error("run left a corrupted network image")
	}
	if err := sys.Log.Verify(); err != nil {
		t.Error(err)
	}
}
