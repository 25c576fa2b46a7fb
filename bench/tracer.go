package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"

	"safexplain/internal/fdir"
	"safexplain/internal/nn"
	"safexplain/internal/safety"
	"safexplain/internal/supervisor"
	"safexplain/internal/tensor"
)

// epoch anchors nanotime; time.Since reads the monotonic clock.
var epoch = time.Now()

// nanotime is the benchmark's one clock: monotonic nanoseconds.
func nanotime() int64 { return int64(time.Since(epoch)) }

// layer is one timed boundary inside an Operate frame. Each is a call
// into a public interface field of the System that the traced run wraps
// from outside the program.
type layer int

const (
	layerProbe    layer = iota // sys.FDIR.Probe.Logits
	layerDecide                // sys.FDIR.Pattern.Decide
	layerTrust                 // sys.Monitor.Sup.Score inside Decide
	layerDrift                 // sys.Monitor.Sup.Score outside Decide
	layerPrimary               // the pattern's primary channel
	layerFallback              // the pattern's fallback channel
	numLayers
)

var layerNames = [numLayers]string{
	"fdir.probe", "safety.decide", "supervisor.trust_score",
	"supervisor.drift_score", "safety.primary", "safety.fallback",
}

// span is one recorded interval. Parent is the index of the enclosing
// span in the same file (-1 for a frame).
type span struct {
	Pass    int    `json:"pass"`
	Frame   int    `json:"frame"`
	Name    string `json:"name"`
	Parent  int    `json:"parent"`
	StartNs int64  `json:"start_ns"`
	DurNs   int64  `json:"dur_ns"`
	SelfNs  int64  `json:"self_ns"`
}

// open is one entered, not yet exited, layer call.
type open struct {
	layer layer
	start int64
	child int64 // summed durations of the calls it made
	span  int   // index in spans, -1 when not recording
}

// tracer times the wrapped layer calls of traced frames. A layer's self
// time is its span minus its child spans; a frame's residual is the
// frame minus its top-level spans, so the self times plus the residual
// add up to the frame exactly, in integer nanoseconds. Negative counts
// intervals whose children did not fit inside them, which would break
// that identity.
type tracer struct {
	stack      [4]open
	depth      int
	frameChild int64

	self, calls [numLayers]int64
	frames      int64
	frameNs     int64
	residualNs  int64
	negative    int64
	frameLat    []float64 // traced frame latencies, µs

	record      bool // keep spans of the current pass
	spans       []span
	pass, frame int
	frameSpan   int
}

// enter opens a layer call.
func (t *tracer) enter(l layer) {
	o := open{layer: l, start: nanotime(), span: -1}
	if t.record {
		parent := t.frameSpan
		if t.depth > 0 {
			parent = t.stack[t.depth-1].span
		}
		o.span = len(t.spans)
		t.spans = append(t.spans, span{Pass: t.pass, Frame: t.frame, Name: layerNames[l], Parent: parent, StartNs: o.start})
	}
	t.stack[t.depth] = o
	t.depth++
}

// exit closes the innermost open layer call.
func (t *tracer) exit() {
	now := nanotime()
	t.depth--
	o := t.stack[t.depth]
	dur := now - o.start
	self := dur - o.child
	if self < 0 {
		t.negative++
	}
	t.self[o.layer] += self
	t.calls[o.layer]++
	if t.depth > 0 {
		t.stack[t.depth-1].child += dur
	} else {
		t.frameChild += dur
	}
	if o.span >= 0 {
		t.spans[o.span].DurNs, t.spans[o.span].SelfNs = dur, self
	}
}

// inside reports whether a call of layer l is open.
func (t *tracer) inside(l layer) bool {
	for i := 0; i < t.depth; i++ {
		if t.stack[i].layer == l {
			return true
		}
	}
	return false
}

// beginFrame opens frame i; the layer spans it makes get it as parent.
func (t *tracer) beginFrame(i int) {
	t.frame = i
	t.frameChild = 0
	t.frameSpan = -1
	if t.record {
		t.frameSpan = len(t.spans)
		t.spans = append(t.spans, span{Pass: t.pass, Frame: i, Name: "core.frame", Parent: -1})
	}
}

// endFrame closes the current frame, which ran over [start, end).
func (t *tracer) endFrame(start, end int64) {
	dur := end - start
	residual := dur - t.frameChild
	if residual < 0 || t.depth != 0 {
		t.negative++
	}
	t.frames++
	t.frameNs += dur
	t.residualNs += residual
	t.frameLat = append(t.frameLat, float64(dur)/1e3)
	if t.frameSpan >= 0 {
		s := &t.spans[t.frameSpan]
		s.StartNs, s.DurNs, s.SelfNs = start, dur, residual
	}
}

// perFrameUs is a per-frame mean in µs of a nanosecond total.
func (t *tracer) perFrameUs(ns int64) float64 {
	if t.frames == 0 {
		return 0
	}
	return float64(ns) / float64(t.frames) / 1e3
}

// perFrame is a per-frame mean of a count.
func (t *tracer) perFrame(n int64) float64 {
	if t.frames == 0 {
		return 0
	}
	return float64(n) / float64(t.frames)
}

// writeSpans writes the recorded spans as one JSON document.
func writeSpans(path, workload string, seed uint64, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Seed     uint64 `json:"seed"`
		Spans    []span `json:"spans"`
	}{workload, seed, spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// timedProbe wraps sys.FDIR.Probe.
type timedProbe struct {
	inner fdir.Probe
	t     *tracer
}

func (p timedProbe) Logits(x *tensor.Tensor) []float32 {
	p.t.enter(layerProbe)
	out := p.inner.Logits(x)
	p.t.exit()
	return out
}

// timedPattern wraps sys.FDIR.Pattern.
type timedPattern struct {
	safety.Pattern
	t *tracer
}

func (p timedPattern) Decide(x *tensor.Tensor) safety.Decision {
	p.t.enter(layerDecide)
	d := p.Pattern.Decide(x)
	p.t.exit()
	return d
}

// timedChannel wraps a pattern's primary or fallback channel.
type timedChannel struct {
	inner safety.Channel
	t     *tracer
	l     layer
}

func (c timedChannel) Name() string { return c.inner.Name() }

func (c timedChannel) Classify(x *tensor.Tensor) int {
	c.t.enter(c.l)
	class := c.inner.Classify(x)
	c.t.exit()
	return class
}

// timedSupervisor wraps sys.Monitor.Sup. A score inside Decide is the
// pattern's trust check; one outside Decide is Operate's drift re-score.
type timedSupervisor struct {
	supervisor.Supervisor
	t *tracer
}

func (s timedSupervisor) Score(net *nn.Network, x *tensor.Tensor) float64 {
	l := layerDrift
	if s.t.inside(layerDecide) {
		l = layerTrust
	}
	s.t.enter(l)
	v := s.Supervisor.Score(net, x)
	s.t.exit()
	return v
}

// timedChannels rebuilds a deployed pattern (Simplex or SingleChannel)
// with its primary and fallback channels timed. Any other pattern is
// returned unchanged; its channel time then counts as Decide self time.
func timedChannels(p safety.Pattern, t *tracer) safety.Pattern {
	switch p := p.(type) {
	case safety.Simplex:
		p.Primary = timedChannel{p.Primary, t, layerPrimary}
		p.Fallback = timedChannel{p.Fallback, t, layerFallback}
		return p
	case safety.SingleChannel:
		p.C = timedChannel{p.C, t, layerPrimary}
		return p
	default:
		return p
	}
}
