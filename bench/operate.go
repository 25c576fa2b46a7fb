package main

import (
	"errors"
	"fmt"
	"runtime"
	"sort"
	"strings"

	"safexplain/internal/core"
	"safexplain/internal/data"
	"safexplain/internal/fdir"
	"safexplain/internal/nn"
	"safexplain/internal/obs"
	"safexplain/internal/prng"
	"safexplain/internal/prof"
	"safexplain/internal/safety"
	"safexplain/internal/supervisor"
	"safexplain/internal/tensor"
	"safexplain/internal/trace"
)

// operateSpec is how an Operate workload deploys and loads the System.
type operateSpec struct {
	pattern core.PatternKind
	drift   bool // Operate runs the CUSUM drift detector
	faulted bool // each pass carries a seeded SEU and two inverted-input windows
}

func operateSpecOf(workload string) (operateSpec, bool) {
	switch workload {
	case "operate-simplex":
		return operateSpec{pattern: core.PatternSimplex, drift: true}, true
	case "operate-single":
		return operateSpec{pattern: core.PatternSingle}, true
	case "operate-faulted":
		return operateSpec{pattern: core.PatternSimplex, drift: true, faulted: true}, true
	}
	return operateSpec{}, false
}

// Fault schedule of operate-faulted: one SEU of seuFlips bit flips, then
// two inverted-input windows.
const (
	seuFlips   = 160
	window1Len = 25
	window2Len = 50
	// sideFrames is how many frames of each traced pass the side calls
	// (Net.Predict, Net.Features, Engine.Infer, FDIR.In.Check) are timed on.
	sideFrames = 64
)

// block is one pass's input: fresh frames, with the faulted workload's
// inverted frames already substituted and its SEU already computed, so
// the stream does no work and no allocation while Operate runs.
type block struct {
	frames []*tensor.Tensor
	labels []int
	seu    int         // frame at whose start the SEU lands; -1 for none
	window int         // first inverted frame; a quarantine from here on is not the SEU's
	seuVal [][]float32 // sys.Net parameter values after the SEU, in Params order

	ref       core.OperationReport // the correctness pass's report
	refEvents int                  // evidence records the correctness pass appended
}

// inputSeed derives the generator seed of block b from the benchmark
// seed; the range is disjoint from the seeds core.Build trains on.
func inputSeed(seed uint64, b int) uint64 {
	return 0x5eed_0000_0000 + seed<<24 + uint64(b)
}

// makeBlock generates block k of the run. The SEU values are what
// fdir.InjectSEU(sys.Net, seuFlips, s) writes into the clean deployed
// network (safety.CorruptWeights, then a copy).
func makeBlock(spec operateSpec, sys *core.System, seed uint64, k, n int) (*block, error) {
	set := data.Railway(data.Config{N: n, Seed: inputSeed(seed, k), Noise: 0.05})
	b := &block{seu: -1, window: n}
	for _, s := range set.Samples {
		b.frames = append(b.frames, s.X)
		b.labels = append(b.labels, s.Label)
	}
	if !spec.faulted {
		return b, nil
	}
	r := prng.New(inputSeed(seed, k) ^ 0xfa017)
	b.seu = n/16 + r.Intn(n/16)
	b.window = 3*n/8 + r.Intn(n/8)
	w2 := 5*n/8 + r.Intn(n/8)
	invert(b.frames[b.window : b.window+window1Len])
	invert(b.frames[w2 : w2+window2Len])
	corrupt, err := safety.CorruptWeights(sys.Net, seuFlips, r.Uint64())
	if err != nil {
		return nil, err
	}
	for _, p := range corrupt.Params() {
		b.seuVal = append(b.seuVal, p.Value.Data())
	}
	return b, nil
}

// invert replaces frames with inverted copies, as data.WithInversion does.
func invert(frames []*tensor.Tensor) {
	for i, x := range frames {
		c := x.Clone()
		for j, v := range c.Data() {
			c.Data()[j] = 1 - v
		}
		frames[i] = c
	}
}

// stream is the sensor loop's frame source for one pass. Operate asks
// for frame i only after it has finished frame i-1, so the time between
// consecutive Sample calls is frame i-1's latency. The stream stamps both
// edges of each call; what it does between frames (the SEU, reading FDIR
// state, closing traced frames) stays outside the measurement.
type stream struct {
	sys        *core.System
	b          *block
	live       []*nn.Param
	start, end []int64
	cur        int
	restores   int
	recovery   []bool // the frame ran a golden-image restore
	detect     int    // frames from the SEU to the first Quarantined state seen; -1 none
	t          *tracer
}

func newStream(sys *core.System, n int) *stream {
	return &stream{sys: sys, start: make([]int64, n), end: make([]int64, n), recovery: make([]bool, n)}
}

func (s *stream) reset(b *block, t *tracer) {
	s.b, s.t = b, t
	s.live = s.sys.Net.Params()
	s.restores, s.detect = 0, -1
	for i := range s.recovery {
		s.recovery[i] = false
	}
	s.end[len(b.frames)-1] = 0 // set when Operate returns
}

func (s *stream) Len() int { return len(s.b.frames) }

func (s *stream) Sample(i int) (*tensor.Tensor, int) {
	now := nanotime()
	if i > 0 {
		s.end[i-1] = now
		s.closeFrame(i - 1)
	}
	if i == s.b.seu {
		for k, p := range s.live {
			copy(p.Value.Data(), s.b.seuVal[k])
		}
	}
	s.cur = i
	if s.t != nil {
		s.t.beginFrame(i)
	}
	s.start[i] = nanotime()
	return s.b.frames[i], s.b.labels[i]
}

// closeFrame reads what frame i did to FDIR and closes its trace.
func (s *stream) closeFrame(i int) {
	fd := s.sys.FDIR
	if st := fd.Stats(); st.Restores > s.restores {
		s.restores = st.Restores
		s.recovery[i] = true
	}
	if s.detect < 0 && s.b.seu >= 0 && i >= s.b.seu && i < s.b.window && fd.State() == fdir.Quarantined {
		s.detect = i - s.b.seu
	}
	if s.t != nil {
		s.t.endFrame(s.start[i], s.end[i])
	}
}

// operate runs one pass; the last frame ends when Operate returns. A
// panic fails the pass instead of the run.
func operate(sys *core.System, st *stream, drift *supervisor.DriftDetector) (rep core.OperationReport, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("operate panicked: %v", r)
		}
	}()
	rep = sys.Operate(st, drift)
	last := st.Len() - 1
	st.end[last] = nanotime()
	st.closeFrame(last)
	return rep, nil
}

// recorder wraps the deployed pattern during correctness passes and
// counts hazards: frames whose delivered non-fallback class differs from
// the label. FDIR calls Decide only while the channel is in service, so
// every non-fallback decision it sees is delivered.
type recorder struct {
	safety.Pattern
	st      *stream
	hazards int
}

func (r *recorder) Decide(x *tensor.Tensor) safety.Decision {
	d := r.Pattern.Decide(x)
	if !d.Fallback && d.Class != r.st.b.labels[r.st.cur] {
		r.hazards++
	}
	return d
}

// phaseStats accumulates the timed passes of one measurement phase.
type phaseStats struct {
	lat                   []float64 // frame latencies, µs
	ns                    int64     // summed frame latency
	frames, failed        int64
	passes                int64
	mallocs, bytes        uint64
	quarantines, restores int64
	recoveryUs            []float64 // latencies of frames that ran a restore
}

func (p *phaseStats) add(st *stream, n int) {
	for i := 0; i < n; i++ {
		d := st.end[i] - st.start[i]
		p.ns += d
		us := float64(d) / 1e3
		p.lat = append(p.lat, us)
		if st.recovery[i] {
			p.recoveryUs = append(p.recoveryUs, us)
		}
	}
	p.frames += int64(n)
	p.passes++
}

// endToEnd fills the end-to-end metrics measured in phase p.
func (p *phaseStats) endToEnd(m map[string]float64) {
	sort.Float64s(p.lat)
	p50, _ := percentile(p.lat, 0.50)
	p99, _ := percentile(p.lat, 0.99)
	p999, beyond := percentile(p.lat, 0.999)
	m["frames_per_s"] = float64(p.frames) / (float64(p.ns) / 1e9)
	m["frame_p50_us"] = p50
	m["frame_p99_us"] = p99
	m["frame_p999_us"] = p999
	m["frame_p999_beyond"] = float64(beyond)
	m["frame_samples"] = float64(len(p.lat))
	m["allocs_per_frame"] = float64(p.mallocs) / float64(p.frames)
	m["heap_bytes_per_frame"] = float64(p.bytes) / float64(p.frames)
}

// outcomes accumulates the correctness passes' decisions.
type outcomes struct {
	frames, delivered int
	detected          []float64 // SEU detection latencies
	undetected        int
}

// operateRun is one Operate workload: the System, the stream and the
// phases measured through it.
type operateRun struct {
	spec  operateSpec
	sys   *core.System
	drift *supervisor.DriftDetector
	st    *stream
	rec   *recorder
	out   outcomes
	err   error // first failure seen
}

// pass runs one block through Operate after putting the System back in
// its freshly deployed state: FDIR and drift reset, golden image
// restored, a fresh evidence log, and a collected heap, so no pass pays
// for the garbage of the one before. It returns the report, the evidence
// records appended and the allocation counters read around the call.
func (w *operateRun) pass(b *block, t *tracer) (core.OperationReport, int, uint64, uint64, error) {
	sys := w.sys
	sys.FDIR.Reset()
	if w.drift != nil {
		w.drift.Reset()
	}
	if err := sys.FDIR.Golden.Restore(sys.Net); err != nil {
		return core.OperationReport{}, 0, 0, 0, err
	}
	log := &trace.Log{}
	sys.Log, sys.FDIR.Log = log, log
	w.st.reset(b, t)
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	rep, err := operate(sys, w.st, w.drift)
	runtime.ReadMemStats(&m1)
	if err == nil {
		err = log.Verify()
	}
	return rep, log.Len(), m1.Mallocs - m0.Mallocs, m1.TotalAlloc - m0.TotalAlloc, err
}

// correctnessPass runs a fresh block once, untimed, with the recorder on
// the pattern. Its report is the reference the block's timed passes must
// repeat.
func (w *operateRun) correctnessPass(b *block) error {
	sys := w.sys
	deployed := sys.FDIR.Pattern
	w.rec.Pattern = deployed
	sys.FDIR.Pattern = w.rec
	rep, events, _, _, err := w.pass(b, nil)
	sys.FDIR.Pattern = deployed
	if err != nil {
		return err
	}
	if rep.Frames != len(b.frames) || rep.Delivered+rep.Fallbacks != rep.Frames {
		return fmt.Errorf("inconsistent report %+v", rep)
	}
	b.ref, b.refEvents = rep, events
	w.out.frames += rep.Frames
	w.out.delivered += rep.Delivered
	if b.seu >= 0 {
		if w.st.detect >= 0 {
			w.out.detected = append(w.out.detected, float64(w.st.detect))
		} else {
			w.out.undetected++
		}
	}
	return nil
}

// timedPass runs one pass and folds it into p; checkEvents also compares
// the evidence record count with the correctness pass (observability
// appends records, so the check is off while it is detached).
func (w *operateRun) timedPass(p *phaseStats, b *block, t *tracer, checkEvents bool) {
	rep, events, mallocs, bytes, err := w.pass(b, t)
	n := len(b.frames)
	switch {
	case err != nil:
	case rep != b.ref:
		err = fmt.Errorf("report %+v differs from the correctness pass %+v", rep, b.ref)
	case checkEvents && events != b.refEvents:
		err = fmt.Errorf("%d evidence records, the correctness pass appended %d", events, b.refEvents)
	}
	if err != nil {
		p.failed += int64(n)
		if w.err == nil {
			w.err = err
		}
	}
	if w.st.end[n-1] == 0 {
		// Operate did not return: the pass has no latencies to keep.
		p.frames += int64(n)
		p.passes++
	} else {
		p.add(w.st, n)
	}
	p.mallocs += mallocs
	p.bytes += bytes
	p.quarantines += int64(rep.Quarantines)
	p.restores += int64(rep.Restores)
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// profTotals is a profiler site's sample count and tick sum.
type profTotals struct{ count, sum uint64 }

func profSnapshot(p *prof.Profiler) map[string]profTotals {
	out := map[string]profTotals{}
	for _, s := range p.Report().Sites {
		out[s.Name] = profTotals{s.Count, s.Sum}
	}
	return out
}

func profDelta(before, after map[string]profTotals, site string) profTotals {
	return profTotals{after[site].count - before[site].count, after[site].sum - before[site].sum}
}

// layerRun holds what the traced phase measures beyond the tracer.
type layerRun struct {
	t              *tracer
	stage          [4]uint64 // prof stage tick sums over traced passes, in stageSites order
	kernelInOp     uint64    // kernel samples recorded while Operate ran
	kernelNs       map[string]uint64
	sideCalls      int64
	predictNs      int64
	featuresNs     int64
	inferNs        int64
	checkNs        int64
	flight, traced uint64 // obs spans recorded during traced passes
}

var stageSites = [4]string{"stage/infer", "stage/vote", "stage/supervisor", "stage/drift"}

// tracedPass runs one pass with every layer wrapped. The wrappers sit on
// the System's public interface fields and are removed afterwards.
func (w *operateRun) tracedPass(p *phaseStats, lr *layerRun, b *block, record bool) error {
	sys := w.sys
	probe, pattern, sup := sys.FDIR.Probe, sys.FDIR.Pattern, sys.Monitor.Sup
	t := lr.t
	sys.FDIR.Probe = timedProbe{probe, t}
	sys.FDIR.Pattern = timedPattern{timedChannels(pattern, t), t}
	sys.Monitor.Sup = timedSupervisor{sup, t}
	sys.Prof.SetClock(func() uint64 { return uint64(nanotime()) })
	defer func() {
		sys.FDIR.Probe, sys.FDIR.Pattern, sys.Monitor.Sup = probe, pattern, sup
		sys.Prof.SetClock(obs.NewCounterClock())
	}()
	t.record = record
	if record {
		t.spans = make([]span, 0, 8*len(b.frames))
	}
	t.pass = int(p.passes)
	before := profSnapshot(sys.Prof)
	f0, s0 := sys.Obs.Flight.Total(), sys.Obs.Trace.Total()
	w.timedPass(p, b, t, true)
	t.record = false
	lr.flight += sys.Obs.Flight.Total() - f0
	lr.traced += sys.Obs.Trace.Total() - s0
	after := profSnapshot(sys.Prof)
	for k, site := range stageSites {
		lr.stage[k] += profDelta(before, after, site).sum
	}
	for _, kn := range sys.Engine.KernelNames() {
		lr.kernelInOp += profDelta(before, after, "kernel/"+kn).count
	}
	return w.sideCalls(b, lr, after)
}

// sideCalls times, outside Operate and on a clean network, the calls the
// frame path makes underneath the wrapped fields. The profiler's kernel
// sites record during Engine.Infer.
func (w *operateRun) sideCalls(b *block, lr *layerRun, before map[string]profTotals) error {
	sys := w.sys
	if err := sys.FDIR.Golden.Restore(sys.Net); err != nil {
		return err
	}
	n := min(sideFrames, len(b.frames))
	for _, x := range b.frames[:n] {
		t0 := nanotime()
		sys.Net.Predict(x)
		t1 := nanotime()
		sys.Net.Features(x)
		t2 := nanotime()
		sys.Engine.Infer(x)
		t3 := nanotime()
		sys.FDIR.In.Check(x)
		t4 := nanotime()
		lr.predictNs += t1 - t0
		lr.featuresNs += t2 - t1
		lr.inferNs += t3 - t2
		lr.checkNs += t4 - t3
	}
	lr.sideCalls += int64(n)
	after := profSnapshot(sys.Prof)
	for _, kn := range sys.Engine.KernelNames() {
		lr.kernelNs[kn] += profDelta(before, after, "kernel/"+kn).sum
	}
	return nil
}

// detachObs removes observability from the System the way
// core.Config.DisableObservability builds it (nil Obs on the System and
// on FDIR, no profiler) and returns the function that puts it back.
func detachObs(sys *core.System) (restore func() error, err error) {
	o, p := sys.Obs, sys.Prof
	sys.Obs, sys.FDIR.Obs = nil, nil
	if err := sys.AttachProfiler(nil); err != nil {
		return nil, err
	}
	return func() error {
		sys.Obs, sys.FDIR.Obs = o, o
		return sys.AttachProfiler(p)
	}, nil
}

// layerMetrics turns the traced phase into the per-layer metrics and the
// two reconciliation lines.
func (w *operateRun) layerMetrics(m map[string]float64, traced, bare *phaseStats, lr *layerRun) []string {
	t := lr.t
	sort.Float64s(t.frameLat)
	p999, _ := percentile(t.frameLat, 0.999)
	frameUs := t.perFrameUs(t.frameNs)
	m["core.frame_us"] = frameUs
	m["core.residual_us"] = t.perFrameUs(t.residualNs)
	m["core.frame_p999_us"] = p999

	c := t.calls
	m["nn.passes_per_frame"] = t.perFrame(c[layerProbe] + c[layerPrimary] + c[layerTrust] + c[layerDrift])
	m["fdir.probe_us"] = t.perFrameUs(t.self[layerProbe])
	m["fdir.probe_calls_per_frame"] = t.perFrame(c[layerProbe])
	m["safety.decide_self_us"] = t.perFrameUs(t.self[layerDecide])
	m["safety.primary_us"] = t.perFrameUs(t.self[layerPrimary])
	m["safety.fallback_us"] = t.perFrameUs(t.self[layerFallback])
	m["safety.primary_calls_per_frame"] = t.perFrame(c[layerPrimary])
	m["safety.fallback_calls_per_frame"] = t.perFrame(c[layerFallback])
	m["supervisor.score_us"] = t.perFrameUs(t.self[layerTrust] + t.self[layerDrift])
	m["supervisor.score_calls_per_frame"] = t.perFrame(c[layerTrust] + c[layerDrift])
	m["supervisor.drift_score_calls_per_frame"] = t.perFrame(c[layerDrift])
	m["fdir.recovery_frame_us"] = mean(traced.recoveryUs)
	m["fdir.quarantines_per_pass"] = float64(traced.quarantines) / float64(traced.passes)
	m["fdir.restores_per_pass"] = float64(traced.restores) / float64(traced.passes)

	side := func(ns int64) float64 { return float64(ns) / float64(lr.sideCalls) / 1e3 }
	m["nn.predict_us"] = side(lr.predictNs)
	m["nn.features_us"] = side(lr.featuresNs)
	m["qnn.infer_us"] = side(lr.inferNs)
	m["fdir.in_check_us"] = side(lr.checkNs)
	var kernelSum float64
	for _, kn := range w.sys.Engine.KernelNames() {
		v := side(int64(lr.kernelNs[kn]))
		m[kernelMetric(kn)] = v
		kernelSum += v
	}
	m["qnn.kernel_sum_over_infer"] = kernelSum / m["qnn.infer_us"]
	m["qnn.kernel_residual_us"] = m["qnn.infer_us"] - kernelSum
	m["qnn.kernel_calls_per_frame_in_operate"] = t.perFrame(int64(lr.kernelInOp))

	var stageSum float64
	for k, site := range stageSites {
		v := t.perFrameUs(int64(lr.stage[k]))
		m["prof."+strings.ReplaceAll(site, "/", ".")+"_us"] = v
		stageSum += v
	}
	m["prof.stage_sum_over_frame"] = stageSum / frameUs
	m["prof.stage_residual_us"] = frameUs - stageSum

	sort.Float64s(bare.lat)
	bareP50, _ := percentile(bare.lat, 0.50)
	tracedP50, _ := percentile(t.frameLat, 0.50)
	plainP50 := m["frame_p50_us"]
	m["obs.overhead_us"] = plainP50 - bareP50
	m["obs.flight_spans_per_frame"] = t.perFrame(int64(lr.flight))
	m["obs.trace_spans_per_frame"] = t.perFrame(int64(lr.traced))
	m["bench.trace_overhead_pct"] = 100 * (tracedP50 - plainP50) / plainP50

	var selfSum int64
	var parts []string
	for l := layer(0); l < numLayers; l++ {
		selfSum += t.self[l]
		parts = append(parts, fmt.Sprintf("%s %.3f", layerNames[l], t.perFrameUs(t.self[l])))
	}
	exact := selfSum+t.residualNs == t.frameNs && t.negative == 0
	if !exact {
		w.err = errors.Join(w.err, errors.New("traced frames do not telescope into layer self times plus residual"))
	}
	return []string{
		fmt.Sprintf("reconcile frame: %s + core.residual %.3f = %.3f us/frame against core.frame %.3f us/frame; exact=%v over %d frames (%d nesting violations)",
			strings.Join(parts, " + "), t.perFrameUs(t.residualNs), t.perFrameUs(selfSum+t.residualNs), frameUs, exact, t.frames, t.negative),
		fmt.Sprintf("reconcile profiler: prof stages cover %.1f%% of the traced frame (residual %.3f us/frame); qnn kernel sites cover %.1f%% of Engine.Infer (residual %.3f us/infer)",
			100*m["prof.stage_sum_over_frame"], m["prof.stage_residual_us"], 100*m["qnn.kernel_sum_over_infer"], m["qnn.kernel_residual_us"]),
	}
}

// runOperate executes an Operate workload on a built System. Every pass
// runs a fresh block: first untimed, as the correctness pass, then timed
// (traced runs: untraced, traced and with observability detached, all on
// the same frames). Passes continue until the budget is spent.
func runOperate(cfg config, spec operateSpec, sys *core.System, buildS float64) (*report, error) {
	rep := newReport()
	setupStart := nanotime()
	var drift *supervisor.DriftDetector
	if spec.drift {
		var err error
		if drift, err = sys.NewDriftDetector(0, 0); err != nil {
			return nil, err
		}
	}
	rep.m["setup_s"] = buildS + float64(nanotime()-setupStart)/1e9

	w := &operateRun{spec: spec, sys: sys, drift: drift, st: newStream(sys, cfg.frames)}
	w.rec = &recorder{st: w.st}
	deployedLog := sys.Log
	defer func() {
		sys.Log, sys.FDIR.Log = deployedLog, deployedLog
		_ = sys.FDIR.Golden.Restore(sys.Net) // leave the System as deployed; every pass verified the image
	}()

	fresh := func(k int) (*block, error) {
		b, err := makeBlock(spec, sys, cfg.seed, k, cfg.frames)
		if err != nil {
			return nil, err
		}
		if err := w.correctnessPass(b); err != nil {
			return nil, fmt.Errorf("correctness pass %d: %w", k, err)
		}
		return b, nil
	}
	// The first correctness pass is the warm-up. setup_heap_mb is the heap
	// the System holds after it, without the block of frames the
	// benchmark generated.
	b, err := fresh(0)
	if err != nil {
		return nil, err
	}
	rep.m["setup_heap_mb"] = float64(int64(liveHeap())-int64(blockBytes(b))) / 1e6

	plain, traced, bare := &phaseStats{}, &phaseStats{}, &phaseStats{}
	lr := &layerRun{t: &tracer{}, kernelNs: map[string]uint64{}}
	begin := nanotime()
	for k := 0; ; k++ {
		if k > 0 {
			if b, err = fresh(k); err != nil {
				return nil, err
			}
		}
		w.timedPass(plain, b, nil, true)
		if cfg.traced {
			if err := w.tracedPass(traced, lr, b, k == 0); err != nil {
				return nil, err
			}
			restore, err := detachObs(sys)
			if err != nil {
				return nil, err
			}
			w.timedPass(bare, b, nil, false)
			if err := restore(); err != nil {
				return nil, err
			}
		}
		if float64(nanotime()-begin)/1e9 >= cfg.seconds {
			break
		}
	}

	plain.endToEnd(rep.m)
	rep.attempted, rep.failed = plain.frames, plain.failed
	rep.notes = append(rep.notes, fmt.Sprintf("one closed-loop caller; %d passes, each on %d fresh frames", plain.passes, cfg.frames))
	o := w.out
	rep.m["availability"] = float64(o.delivered) / float64(o.frames)
	rep.m["hazard_rate"] = float64(w.rec.hazards) / float64(o.frames)
	rep.m["safety.availability"], rep.m["safety.hazard_rate"] = rep.m["availability"], rep.m["hazard_rate"]
	if spec.faulted {
		rep.m["detect_latency_frames"] = mean(o.detected)
		rep.m["fdir.detect_latency_frames"] = rep.m["detect_latency_frames"]
		rep.notes = append(rep.notes, fmt.Sprintf("SEU isolated before the first inverted window in %d of %d passes",
			len(o.detected), len(o.detected)+o.undetected))
	}
	if cfg.traced {
		rep.notes = append(rep.notes, w.layerMetrics(rep.m, traced, bare, lr)...)
		rep.attempted += traced.frames + bare.frames
		rep.failed += traced.failed + bare.failed
		rep.spans = lr.t.spans
	}
	rep.m["failed_ratio"] = float64(rep.failed) / float64(rep.attempted)
	rep.err = w.err
	return rep, nil
}

// liveHeap is the heap in use after a full collection, in bytes.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// blockBytes is the pixel data a block holds.
func blockBytes(b *block) int {
	n := 0
	for _, x := range b.frames {
		n += 4 * x.Len()
	}
	return n
}
