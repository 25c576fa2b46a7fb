package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"runtime"
	"sort"
	"sync/atomic"
	"time"

	"safexplain/internal/core"
	"safexplain/internal/data"
	"safexplain/internal/fdir"
	"safexplain/internal/fleet"
	"safexplain/internal/fleetnet"
	"safexplain/internal/nn"
	"safexplain/internal/obs"
	"safexplain/internal/prng"
	"safexplain/internal/safety"
	"safexplain/internal/tensor"
	"safexplain/internal/tracequery"
)

// The fleet-tree workload: fleetUnits units under fleetRegions regions
// under one global root, over in-process pipes.
const (
	fleetUnits   = 8
	fleetRegions = 2
	fleetFaulty  = 3  // units carrying the staggered common-mode sensor fault (= alert quorum)
	roundFrames  = 64 // frames each unit submits per round
)

// fleetRun replays captured unit streams through a freshly built tier
// tree on every pass.
type fleetRun struct {
	chunks   [][][]byte // per unit: one downlink frame per operate frame
	frames   int64      // frames per pass, all units
	refJSON  []byte     // canonical report of a flat aggregator over the same streams
	refSet   string     // trace bundle-set hash of the same streams ingested directly
	clock    func() uint64
	treeHeap uint64 // live heap with the tree up after the warm-up pass
	err      error
}

// captureFleet runs every unit's operate loop once, the way experiment
// T20 does: fdir.RunUnitCell per unit, obs with a downlink and the shared
// counter clock, so each frame carries v2 spans with a trace identity.
func captureFleet(sys *core.System, seed uint64, n int, clock func() uint64) ([][][]byte, error) {
	frames := data.Railway(data.Config{N: n, Seed: inputSeed(seed, 0), Noise: 0.05})
	conservative := safety.FuncChannel{ID: "conservative",
		F: func(*tensor.Tensor) int { return data.RailObstacle }}
	pattern := fdir.PatternSpec{Name: "simplex", Build: func(live *nn.Network, p fdir.Probe) safety.Pattern {
		return safety.Simplex{Primary: fdir.ChannelOverProbe("primary", p),
			Net: live, Mon: sys.Monitor, Fallback: conservative}
	}}
	train := sys.TrainSet()
	inject := n/16 + prng.New(inputSeed(seed, 0)^0xf1ee7).Intn(n/16)
	chunks := make([][][]byte, fleetUnits)
	for u := range chunks {
		cfg := fdir.CampaignConfig{
			Stream:   frames,
			Frames:   n,
			InjectAt: inject,
			Seed:     inputSeed(seed, 0),
			Health: fdir.HealthConfig{
				QuarantineAfter: 3, ClearAfter: 8, ReprobeAfter: 4, ProbationFrames: 15,
			},
			MaxRestores: 4,
			NewNet:      func() (*nn.Network, error) { return sys.Net.Clone("fleet-live") },
			NewFallback: func() safety.Channel { return conservative },
			NewOutputGuard: func() *fdir.OutputGuard {
				return fdir.CalibrateOutputGuard(fdir.NetProbe{Net: sys.Net}, train, 4, 6, 0)
			},
			NewInputGuard: func() *fdir.InputGuard { return fdir.CalibrateInputGuard(train, 0.75) },
		}
		fault := fdir.FaultSpec{Name: "clean", Kind: fdir.FaultSensor, Intensity: 0, Duration: 1}
		if u < fleetFaulty {
			cfg.InjectAt = inject + 3*u
			fault = fdir.FaultSpec{Name: "sensor-200", Kind: fdir.FaultSensor, Intensity: 200, Duration: 25}
		}
		var link *obs.Downlink
		unit := uint32(u + 1)
		cfg.NewObs = func(string, string) *obs.Obs {
			o := obs.New(obs.Config{Name: fmt.Sprintf("unit-%d", unit), Unit: unit, Clock: clock})
			link = obs.NewDownlink(obs.DownlinkConfig{BytesPerFrame: 384})
			o.AttachDownlink(link)
			return o
		}
		if _, err := fdir.RunUnitCell(cfg, pattern, fault, u); err != nil {
			return nil, err
		}
		chunks[u] = fleet.SplitFrames(link.Capture())
		if len(chunks[u]) != n {
			return nil, fmt.Errorf("unit %d captured %d frames, want %d", u, len(chunks[u]), n)
		}
	}
	return chunks, nil
}

// reference ingests the captured streams into a flat aggregator and a
// trace store: what the global root must reproduce byte for byte.
func (f *fleetRun) reference() error {
	agg := fleet.New(fleet.Config{Shards: 1, MinUnits: fleetFaulty})
	st := tracequery.NewStore(int(f.frames) + 8)
	for u, chunks := range f.chunks {
		for _, c := range chunks {
			agg.Ingest(fleet.UnitID(u+1), c)
			if err := st.IngestFrame(c); err != nil {
				return err
			}
		}
	}
	rep, err := agg.Report()
	if err != nil {
		return err
	}
	if f.refJSON, err = rep.CanonicalJSON(); err != nil {
		return err
	}
	f.refSet = tracequery.SetHash(st.Bundles())
	return nil
}

// linkStats counts the bytes, writes and time spent in Write on one tier
// of links, both directions.
type linkStats struct{ bytes, writes, ns atomic.Int64 }

// countingConn is the benchmark's own wrapper on one end of a pipe.
type countingConn struct {
	net.Conn
	st *linkStats
}

func (c countingConn) Write(b []byte) (int, error) {
	t0 := nanotime()
	n, err := c.Conn.Write(b)
	c.st.ns.Add(nanotime() - t0)
	c.st.bytes.Add(int64(n))
	c.st.writes.Add(1)
	return n, err
}

// dialTo connects a child to parent over a fresh pipe; a non-nil st
// wraps both ends.
func dialTo(parent *fleetnet.Node, st *linkStats) func() (net.Conn, error) {
	return func() (net.Conn, error) {
		c, s := net.Pipe()
		if st != nil {
			c, s = countingConn{c, st}, countingConn{s, st}
		}
		parent.ServeConn(s)
		return c, nil
	}
}

// node builds one tier node with fast link timings (resume cycles take
// milliseconds, so a pass measures the pipeline, not backoff caps) and
// the shared trace clock.
func (f *fleetRun) node(cfg fleetnet.NodeConfig) *fleetnet.Node {
	cfg.BackoffBase = time.Millisecond
	cfg.BackoffMax = 25 * time.Millisecond
	cfg.IOTimeout = 500 * time.Millisecond
	cfg.Clock = f.clock
	cfg.TraceCap = int(f.frames) + 8
	return fleetnet.NewNode(cfg)
}

// treeStats accumulates the passes of one measurement phase.
type treeStats struct {
	roundMs                []float64 // round latencies
	frameUs                []float64 // round latency per frame of the round
	roundNs                int64
	frames, failed, passes int64
	mallocs, bytes         uint64

	// traced passes only
	submitNs, submits, drainNs int64
	unitLink, regionLink       linkStats
	sessions, resumes, drops   uint64
	reportNs, traces           int64
	ingestNs                   int64
	spans                      []span
}

// waitConnected returns once every uplink has completed its handshake,
// so timing starts on a connected tree.
func waitConnected(ctx context.Context, nodes []*fleetnet.Node) error {
	for {
		up := true
		for _, n := range nodes {
			if st, ok := n.UplinkStatus(); ok && !st.Connected {
				up = false
			}
		}
		if up {
			return nil
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(100 * time.Microsecond):
		}
	}
}

// awaitDelivery returns once every envelope the uplinks accepted has been
// acknowledged, which a parent does after applying it: the units first,
// so the regions' counts already include everything the units relayed.
// That is the moment the regions' Drain completes; Drain itself checks
// only every 2 ms, which would quantize the round time, so the submitter
// watches the uplink counters, yielding between checks, and calls Drain
// afterwards.
func awaitDelivery(ctx context.Context, units, regions []*fleetnet.Node) error {
	for _, group := range [2][]*fleetnet.Node{units, regions} {
		for _, n := range group {
			for {
				st, _ := n.UplinkStatus()
				if st.Acked >= st.Sent {
					break
				}
				if err := ctx.Err(); err != nil {
					return fmt.Errorf("delivery: %w", err)
				}
				runtime.Gosched()
			}
		}
	}
	return nil
}

// pass builds the tree, replays every unit stream in rounds of
// roundFrames frames per unit with one submitting goroutine, waits for
// delivery and drains every uplink after each round, checks the global root
// against the flat reference, and tears the tree down. The warm-up pass
// also checks the trace bundles and measures the heap before teardown.
// It returns how many of the pass's frames failed: all of them when the
// tree broke or its report differs, else the frames lost, duplicated or
// dropped.
func (f *fleetRun) pass(p *treeStats, traced, record, warm bool) (failed int64, err error) {
	p.frames += f.frames
	p.passes++
	var unitLink, regionLink *linkStats
	if traced {
		unitLink, regionLink = &p.unitLink, &p.regionLink
	}
	global := f.node(fleetnet.NodeConfig{ID: 1000, Tier: fleetnet.TierGlobal,
		Fleet: fleet.Config{Shards: 2, MinUnits: fleetFaulty}})
	regions := make([]*fleetnet.Node, fleetRegions)
	for r := range regions {
		regions[r] = f.node(fleetnet.NodeConfig{ID: uint32(100 + r), Tier: fleetnet.TierRegion,
			Fleet: fleet.Config{Shards: 1, MinUnits: fleetFaulty}, Dial: dialTo(global, regionLink)})
	}
	units := make([]*fleetnet.Node, fleetUnits)
	for u := range units {
		units[u] = f.node(fleetnet.NodeConfig{ID: uint32(u + 1), Tier: fleetnet.TierUnit,
			Dial: dialTo(regions[u%fleetRegions], unitLink)})
	}
	uplinks := append(append([]*fleetnet.Node{}, units...), regions...)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	defer func() {
		var cerr error
		for _, n := range append(uplinks, global) {
			cerr = errors.Join(cerr, n.Close(ctx))
		}
		if cerr != nil && err == nil {
			failed, err = f.frames, fmt.Errorf("tree shutdown: %w", cerr)
		}
	}()
	if err := waitConnected(ctx, uplinks); err != nil {
		return f.frames, fmt.Errorf("tree did not connect: %w", err)
	}

	n := len(f.chunks[0])
	nRounds := (n + roundFrames - 1) / roundFrames
	roundNs := make([]int64, nRounds)
	roundFr := make([]int, nRounds)
	base := len(p.spans)
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for r := 0; r < nRounds; r++ {
		lo, hi := r*roundFrames, min((r+1)*roundFrames, n)
		t0 := nanotime()
		for u, node := range units {
			for _, c := range f.chunks[u][lo:hi] {
				node.Submit(fleet.UnitID(u+1), c)
			}
		}
		t1 := nanotime()
		if err := awaitDelivery(ctx, units, regions); err != nil {
			return f.frames, err
		}
		t2 := nanotime()
		for _, node := range uplinks {
			if err := node.Drain(ctx); err != nil {
				return f.frames, fmt.Errorf("drain: %w", err)
			}
		}
		t3 := nanotime()
		roundNs[r], roundFr[r] = t2-t0, (hi-lo)*fleetUnits
		if traced {
			p.submitNs += t1 - t0
			p.submits += int64(roundFr[r])
			p.drainNs += t3 - t1
		}
		if record {
			pass := int(p.passes - 1)
			p.spans = append(p.spans,
				span{Pass: pass, Frame: lo, Name: "bench.round", Parent: -1, StartNs: t0, DurNs: t2 - t0},
				span{Pass: pass, Frame: lo, Name: "fleetnet.submit", Parent: base, StartNs: t0, DurNs: t1 - t0, SelfNs: t1 - t0},
				span{Pass: pass, Frame: lo, Name: "fleetnet.deliver", Parent: base, StartNs: t1, DurNs: t2 - t1, SelfNs: t2 - t1},
				span{Pass: pass, Frame: lo, Name: "fleetnet.drain", Parent: -1, StartNs: t2, DurNs: t3 - t2, SelfNs: t3 - t2})
			base += 4
		}
	}
	runtime.ReadMemStats(&m1)
	for r, ns := range roundNs {
		p.roundNs += ns
		p.roundMs = append(p.roundMs, float64(ns)/1e6)
		p.frameUs = append(p.frameUs, float64(ns)/1e3/float64(roundFr[r]))
	}
	p.mallocs += m1.Mallocs - m0.Mallocs
	p.bytes += m1.TotalAlloc - m0.TotalAlloc

	t0 := nanotime()
	rep, err := global.Fleet().Report()
	if traced {
		p.reportNs += nanotime() - t0
	}
	if err != nil {
		return f.frames, fmt.Errorf("global report: %w", err)
	}
	got, err := rep.CanonicalJSON()
	if err != nil {
		return f.frames, err
	}
	if !bytes.Equal(got, f.refJSON) {
		return f.frames, errors.New("global report differs from the flat aggregation of the same streams")
	}
	var bad uint64
	for _, node := range append(regions, global) {
		for _, cs := range node.Coverage().Links {
			bad += cs.Lost + cs.Dups
		}
	}
	for _, node := range uplinks {
		st, _ := node.UplinkStatus()
		bad += st.Drops
		if traced {
			p.sessions += st.Sessions
			p.resumes += st.Resumes
			p.drops += st.Drops
		}
	}
	traces := global.Traces()
	if traced {
		p.traces += int64(traces.Len())
	}
	if bad > 0 {
		return int64(bad), fmt.Errorf("%d frames lost, duplicated or dropped on the tier links", bad)
	}
	if int64(traces.Len()) != f.frames || traces.Evicted() != 0 || traces.Dropped() != 0 {
		return f.frames, fmt.Errorf("global trace store holds %d traces (%d evicted, %d dropped), want %d",
			traces.Len(), traces.Evicted(), traces.Dropped(), f.frames)
	}
	if warm {
		if tracequery.SetHash(traces.Bundles()) != f.refSet {
			return f.frames, errors.New("global trace bundles differ from the captured streams")
		}
		f.treeHeap = liveHeap()
	}
	return 0, nil
}

// sideIngest times a flat inline aggregator over the same chunks.
func (f *fleetRun) sideIngest(p *treeStats) {
	agg := fleet.New(fleet.Config{Shards: 1, MinUnits: fleetFaulty})
	t0 := nanotime()
	for u, chunks := range f.chunks {
		for _, c := range chunks {
			agg.Ingest(fleet.UnitID(u+1), c)
		}
	}
	p.ingestNs += nanotime() - t0
}

// timedPass runs one pass and keeps the first failure.
func (f *fleetRun) timedPass(p *treeStats, traced, record bool) {
	failed, err := f.pass(p, traced, record, false)
	p.failed += failed
	if err != nil && f.err == nil {
		f.err = err
	}
}

func (p *treeStats) endToEnd(m map[string]float64) {
	sort.Float64s(p.roundMs)
	sort.Float64s(p.frameUs)
	p50, _ := percentile(p.frameUs, 0.50)
	p99, _ := percentile(p.frameUs, 0.99)
	r50, _ := percentile(p.roundMs, 0.50)
	r99, beyond := percentile(p.roundMs, 0.99)
	m["frames_per_s"] = float64(p.frames) / (float64(p.roundNs) / 1e9)
	m["frame_p50_us"], m["frame_p99_us"] = p50, p99
	m["tree_frames_per_s"] = m["frames_per_s"]
	m["tree_round_p50_ms"], m["tree_round_p99_ms"] = r50, r99
	m["tree_round_p99_beyond"] = float64(beyond)
	m["tree_rounds"] = float64(len(p.roundMs))
	m["allocs_per_frame"] = float64(p.mallocs) / float64(p.frames)
	m["heap_bytes_per_frame"] = float64(p.bytes) / float64(p.frames)
}

func (p *treeStats) layerMetrics(m map[string]float64) {
	frames := float64(p.frames)
	passes := float64(p.passes)
	m["fleetnet.submit_us"] = float64(p.submitNs) / float64(p.submits) / 1e3
	m["fleetnet.drain_ms"] = float64(p.drainNs) / float64(len(p.roundMs)) / 1e6
	m["fleetnet.unit_link_bytes_per_frame"] = float64(p.unitLink.bytes.Load()) / frames
	m["fleetnet.region_link_bytes_per_frame"] = float64(p.regionLink.bytes.Load()) / frames
	m["fleetnet.unit_link_writes_per_frame"] = float64(p.unitLink.writes.Load()) / frames
	m["fleetnet.region_link_writes_per_frame"] = float64(p.regionLink.writes.Load()) / frames
	m["fleetnet.link_write_us_per_frame"] = float64(p.unitLink.ns.Load()+p.regionLink.ns.Load()) / frames / 1e3
	m["fleetnet.sessions"] = float64(p.sessions) / passes
	m["fleetnet.resumes"] = float64(p.resumes) / passes
	m["fleetnet.relay_drops"] = float64(p.drops) / passes
	m["fleet.ingest_us"] = float64(p.ingestNs) / frames / 1e3
	m["fleet.report_ms"] = float64(p.reportNs) / passes / 1e6
	m["tracequery.traces_per_pass"] = float64(p.traces) / passes
	sort.Float64s(p.roundMs)
	traced50, _ := percentile(p.roundMs, 0.50)
	plain50 := m["tree_round_p50_ms"]
	m["bench.trace_overhead_pct"] = 100 * (traced50 - plain50) / plain50
}

// runFleet executes the fleet-tree workload. The System is the model the
// units deploy; the tree itself runs no nn code.
func runFleet(cfg config, sys *core.System, buildS float64) (*report, error) {
	rep := newReport()
	setupStart := nanotime()
	f := &fleetRun{clock: obs.NewCounterClock(), frames: int64(fleetUnits * cfg.frames)}
	var err error
	if f.chunks, err = captureFleet(sys, cfg.seed, cfg.frames, f.clock); err != nil {
		return nil, fmt.Errorf("capture unit streams: %w", err)
	}
	if err := f.reference(); err != nil {
		return nil, fmt.Errorf("flat reference: %w", err)
	}
	rep.m["setup_s"] = buildS + float64(nanotime()-setupStart)/1e9
	if _, err := f.pass(&treeStats{}, false, false, true); err != nil {
		return nil, fmt.Errorf("correctness pass: %w", err)
	}
	// The heap the System and the tree hold after the warm-up pass,
	// without the captured streams the benchmark replays.
	var streamBytes int
	for _, chunks := range f.chunks {
		for _, c := range chunks {
			streamBytes += len(c)
		}
	}
	rep.m["setup_heap_mb"] = float64(int64(f.treeHeap)-int64(streamBytes)) / 1e6
	rep.notes = append(rep.notes, fmt.Sprintf("%d units -> %d regions -> global, %d frames per unit in rounds of %d, one submitting goroutine",
		fleetUnits, fleetRegions, cfg.frames, roundFrames))

	plain, traced := &treeStats{}, &treeStats{}
	begin := nanotime()
	for i := 0; ; i++ {
		f.timedPass(plain, false, false)
		if cfg.traced {
			f.timedPass(traced, true, i == 0)
			f.sideIngest(traced)
		}
		if float64(nanotime()-begin)/1e9 >= cfg.seconds {
			break
		}
	}
	plain.endToEnd(rep.m)
	rep.attempted, rep.failed = plain.frames, plain.failed
	if cfg.traced {
		traced.layerMetrics(rep.m)
		rep.attempted += traced.frames
		rep.failed += traced.failed
		rep.spans = traced.spans
		rep.notes = append(rep.notes, fmt.Sprintf("%d untraced and %d traced passes, %d frames", plain.passes, traced.passes, rep.attempted))
	} else {
		rep.notes = append(rep.notes, fmt.Sprintf("%d timed passes, %d rounds, %d frames", plain.passes, len(plain.roundMs), plain.frames))
	}
	rep.m["failed_ratio"] = float64(rep.failed) / float64(rep.attempted)
	rep.err = f.err
	return rep, nil
}
