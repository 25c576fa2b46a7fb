package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
)

// metric is one number the benchmark reports. Bound is set only for
// end-to-end metrics: the share of the parent's median by which the
// metric may worsen before a change counts as a regression.
type metric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd lists the metrics a user of the system sees, printed by every
// untraced run on every workload. BENCHMARK.json carries the same list
// (TestCatalogueMatchesBenchmarkJSON keeps the two equal).
var endToEnd = []metric{
	{"setup_s", "s", "lower", 0.25},
	{"setup_heap_mb", "MB", "lower", 0.05},
	{"frames_per_s", "frames/s", "higher", 0.15},
	{"frame_p50_us", "us", "lower", 0.15},
	{"frame_p99_us", "us", "lower", 0.20},
	{"allocs_per_frame", "allocs", "lower", 0.02},
	{"heap_bytes_per_frame", "B", "lower", 0.02},
}

// kernelMetric names the per-kernel metric of one quantized layer: the
// engine's "qConv2D#0" becomes "qnn.kernel.qconv2d-0_us".
func kernelMetric(kernel string) string {
	return "qnn.kernel." + strings.ToLower(strings.ReplaceAll(kernel, "#", "-")) + "_us"
}

// deployedKernels are the quantized layers of the railway model that
// core.Build(Seed: 42) deploys, in engine order.
var deployedKernels = []string{
	"qConv2D#0", "qReLU#1", "qMaxPool2D#2", "qFlatten#3", "qDense#4", "qReLU#5", "qDense#6",
}

// perLayer lists the metrics a traced run prints. A layer that a
// workload does not run reads 0 there (no fleetnet on operate-*, no nn
// on fleet-tree).
var perLayer = func() []metric {
	m := []metric{
		{Name: "core.frame_us", Unit: "us", Better: "lower"},
		{Name: "core.residual_us", Unit: "us", Better: "lower"},
		{Name: "core.frame_p999_us", Unit: "us", Better: "lower"},
		{Name: "nn.passes_per_frame", Unit: "count", Better: "lower"},
		{Name: "nn.predict_us", Unit: "us", Better: "lower"},
		{Name: "nn.features_us", Unit: "us", Better: "lower"},
		{Name: "fdir.probe_us", Unit: "us", Better: "lower"},
		{Name: "fdir.probe_calls_per_frame", Unit: "count", Better: "lower"},
		{Name: "fdir.in_check_us", Unit: "us", Better: "lower"},
		{Name: "fdir.recovery_frame_us", Unit: "us", Better: "lower"},
		{Name: "fdir.quarantines_per_pass", Unit: "count", Better: "lower"},
		{Name: "fdir.restores_per_pass", Unit: "count", Better: "lower"},
		{Name: "fdir.detect_latency_frames", Unit: "frames", Better: "lower"},
		{Name: "safety.decide_self_us", Unit: "us", Better: "lower"},
		{Name: "safety.primary_us", Unit: "us", Better: "lower"},
		{Name: "safety.fallback_us", Unit: "us", Better: "lower"},
		{Name: "safety.primary_calls_per_frame", Unit: "count", Better: "lower"},
		{Name: "safety.fallback_calls_per_frame", Unit: "count", Better: "lower"},
		{Name: "safety.availability", Unit: "ratio", Better: "higher"},
		{Name: "safety.hazard_rate", Unit: "ratio", Better: "lower"},
		{Name: "supervisor.score_us", Unit: "us", Better: "lower"},
		{Name: "supervisor.score_calls_per_frame", Unit: "count", Better: "lower"},
		{Name: "supervisor.drift_score_calls_per_frame", Unit: "count", Better: "lower"},
		{Name: "qnn.infer_us", Unit: "us", Better: "lower"},
	}
	for _, k := range deployedKernels {
		m = append(m, metric{Name: kernelMetric(k), Unit: "us", Better: "lower"})
	}
	return append(m,
		metric{Name: "qnn.kernel_sum_over_infer", Unit: "ratio", Better: "higher"},
		metric{Name: "qnn.kernel_residual_us", Unit: "us", Better: "lower"},
		metric{Name: "qnn.kernel_calls_per_frame_in_operate", Unit: "count", Better: "higher"},
		metric{Name: "prof.stage.infer_us", Unit: "us", Better: "lower"},
		metric{Name: "prof.stage.vote_us", Unit: "us", Better: "lower"},
		metric{Name: "prof.stage.supervisor_us", Unit: "us", Better: "lower"},
		metric{Name: "prof.stage.drift_us", Unit: "us", Better: "lower"},
		metric{Name: "prof.stage_sum_over_frame", Unit: "ratio", Better: "higher"},
		metric{Name: "prof.stage_residual_us", Unit: "us", Better: "lower"},
		metric{Name: "obs.overhead_us", Unit: "us", Better: "lower"},
		metric{Name: "obs.flight_spans_per_frame", Unit: "count", Better: "lower"},
		metric{Name: "obs.trace_spans_per_frame", Unit: "count", Better: "lower"},
		metric{Name: "fleetnet.submit_us", Unit: "us", Better: "lower"},
		metric{Name: "fleetnet.drain_ms", Unit: "ms", Better: "lower"},
		metric{Name: "fleetnet.unit_link_bytes_per_frame", Unit: "B", Better: "lower"},
		metric{Name: "fleetnet.region_link_bytes_per_frame", Unit: "B", Better: "lower"},
		metric{Name: "fleetnet.unit_link_writes_per_frame", Unit: "count", Better: "lower"},
		metric{Name: "fleetnet.region_link_writes_per_frame", Unit: "count", Better: "lower"},
		metric{Name: "fleetnet.link_write_us_per_frame", Unit: "us", Better: "lower"},
		metric{Name: "fleetnet.sessions", Unit: "count", Better: "lower"},
		metric{Name: "fleetnet.resumes", Unit: "count", Better: "lower"},
		metric{Name: "fleetnet.relay_drops", Unit: "count", Better: "lower"},
		metric{Name: "fleet.ingest_us", Unit: "us", Better: "lower"},
		metric{Name: "fleet.report_ms", Unit: "ms", Better: "lower"},
		metric{Name: "tracequery.traces_per_pass", Unit: "count", Better: "higher"},
		metric{Name: "bench.trace_overhead_pct", Unit: "%", Better: "lower"},
	)
}()

// value is one printed metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints: correctness, the operations
// attempted and failed, and every end-to-end (untraced) or per-layer
// (traced) metric with its unit.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int64            `json:"attempted"`
	Failed    int64            `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// pick builds the metrics map for the catalogue list from measured
// values; a name the run did not measure reads 0.
func pick(list []metric, measured map[string]float64) map[string]value {
	out := make(map[string]value, len(list))
	for _, m := range list {
		out[m.Name] = value{Value: measured[m.Name], Unit: m.Unit}
	}
	return out
}

// percentile returns the q-quantile (0 < q <= 1) of sorted by nearest
// rank, and how many samples lie beyond it. A percentile is worth
// reporting only when at least ten samples lie beyond it.
func percentile(sorted []float64, q float64) (v float64, beyond int) {
	n := len(sorted)
	if n == 0 {
		return 0, 0
	}
	k := int(math.Ceil(q * float64(n)))
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	return sorted[k-1], n - k
}

// summary is the median and quartiles of one metric over a set of runs.
type summary struct {
	N           int
	Q1, Med, Q3 float64
}

// summarize computes quartiles the way Python's
// statistics.quantiles(values, n=4) does (the exclusive method), so the
// spreads printed here are the ones the benchmark's acceptance check
// computes.
func summarize(values []float64) summary {
	x := append([]float64(nil), values...)
	sort.Float64s(x)
	s := summary{N: len(x)}
	switch len(x) {
	case 0:
		return s
	case 1:
		s.Q1, s.Med, s.Q3 = x[0], x[0], x[0]
		return s
	}
	ld, m := len(x), len(x)+1
	q := func(i int) float64 {
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		return (x[j-1]*float64(4-delta) + x[j]*float64(delta)) / 4
	}
	s.Q1, s.Med, s.Q3 = q(1), q(2), q(3)
	return s
}

// spread is the interquartile distance as a share of the median.
func (s summary) spread() float64 {
	if s.Med == 0 {
		if s.Q3 == s.Q1 {
			return 0
		}
		return math.Inf(1)
	}
	return (s.Q3 - s.Q1) / math.Abs(s.Med)
}

// verdict compares set b against set a for one metric: "worse" or
// "better" when the medians differ by more than the bound, otherwise
// "unresolved" when either set's own spread is wider than the bound (the
// runs cannot tell a change of that size from noise), else "unchanged".
func verdict(m metric, a, b summary) (change float64, v string) {
	if a.Med == 0 {
		change = math.Inf(1)
		if b.Med == 0 {
			change = 0
		}
	} else {
		change = (b.Med - a.Med) / math.Abs(a.Med)
	}
	worse := change
	if m.Better == "higher" {
		worse = -change
	}
	switch {
	case worse > m.Bound:
		return change, "worse"
	case worse < -m.Bound:
		return change, "better"
	case a.spread() > m.Bound || b.spread() > m.Bound:
		return change, "unresolved"
	default:
		return change, "unchanged"
	}
}

// runRecord is one run of a collected set.
type runRecord struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	Trace    string `json:"trace"`
	Result   result `json:"result"`
}

// runSet is a file written by -collect and read by -compare.
type runSet struct {
	Runs []runRecord `json:"runs"`
}

func readSet(path string) (runSet, error) {
	var s runSet
	b, err := os.ReadFile(path)
	if err != nil {
		return s, err
	}
	if err := json.Unmarshal(b, &s); err != nil {
		return s, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

// values collects one end-to-end metric of one workload over the
// untraced runs of a set.
func (s runSet) values(workload, name string) []float64 {
	var out []float64
	for _, r := range s.Runs {
		if r.Workload != workload || r.Trace != "0" {
			continue
		}
		if v, ok := r.Result.Metrics[name]; ok {
			out = append(out, v.Value)
		}
	}
	return out
}

// compareSets prints, for every workload and end-to-end metric, both
// sets' median and quartiles, each set's spread, the change of the
// median, and the verdict. It reports how many pairs came out worse.
func compareSets(w io.Writer, a, b runSet) (worse int) {
	counts := map[string]int{}
	for _, wl := range workloadNames {
		fmt.Fprintf(w, "%s\n", wl)
		fmt.Fprintf(w, "  %-22s %-44s %-44s %9s  %s\n", "metric", "A median [q1, q3] (spread)", "B median [q1, q3] (spread)", "change", "verdict")
		for _, m := range endToEnd {
			sa, sb := summarize(a.values(wl, m.Name)), summarize(b.values(wl, m.Name))
			if sa.N == 0 || sb.N == 0 {
				fmt.Fprintf(w, "  %-22s missing (A %d runs, B %d runs)\n", m.Name, sa.N, sb.N)
				counts["missing"]++
				continue
			}
			change, v := verdict(m, sa, sb)
			counts[v]++
			fmt.Fprintf(w, "  %-22s %-44s %-44s %+8.2f%%  %s (bound %.0f%%)\n", m.Name,
				describe(sa, m.Unit), describe(sb, m.Unit), 100*change, v, 100*m.Bound)
		}
	}
	fmt.Fprintf(w, "pairs: %d unchanged, %d unresolved, %d better, %d worse, %d missing\n",
		counts["unchanged"], counts["unresolved"], counts["better"], counts["worse"], counts["missing"])
	return counts["worse"] + counts["missing"]
}

func describe(s summary, unit string) string {
	return fmt.Sprintf("%.6g [%.6g, %.6g] %s (%.2f%%)", s.Med, s.Q1, s.Q3, unit, 100*s.spread())
}
