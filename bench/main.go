// Command bench is the repository benchmark. One run executes one
// workload against the deployed System — core.Build(railway, Seed: 42) —
// checks that its outputs are correct, and prints every metric by name
// with its unit. The last line of standard output is the result object:
//
//	go run . -workload operate-simplex -seed 1 -seconds 15 -trace 0
//
// With -trace 1 (or -trace <file>) the run also wraps the System's
// layers from outside, prints the per-layer metrics instead of the
// end-to-end ones, and writes the recorded spans to a file.
//
// -collect runs every workload once per seed, each in its own process,
// and writes the results as a set; -compare prints two sets side by side
// against the end-to-end bounds. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"

	"safexplain/internal/core"
	"safexplain/internal/data"
)

// workloadNames lists the workloads in the order runs and tables use.
var workloadNames = []string{"operate-simplex", "operate-single", "operate-faulted", "fleet-tree"}

const (
	defaultFrames = 512 // frames per Operate pass, and per fleet unit
	defaultBuilds = 3   // setup_s takes the median Build time
)

// config is one run.
type config struct {
	workload string
	seed     uint64
	seconds  float64 // measurement budget; at least one pass runs
	traced   bool
	spans    string // traced runs write their spans here
	frames   int
}

// report is what a run measured.
type report struct {
	m                 map[string]float64
	attempted, failed int64
	notes             []string
	spans             []span
	err               error // first correctness failure; nil when every check passed
}

func newReport() *report { return &report{m: map[string]float64{}} }

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames, ", "))
	seed := fs.Uint64("seed", 1, "input seed (2 and 3 are held out for checking claims)")
	seconds := fs.Float64("seconds", 15, "measurement budget in seconds; 0 runs one pass")
	traceFlag := fs.String("trace", "0", `"0" untraced; "1" traced, spans to traces/<workload>-seed<n>.json; or the spans file`)
	collect := fs.String("collect", "", "run every workload once per -seeds value, one process each, and write the set to this file")
	seeds := fs.String("seeds", "1,4,5,6,7,8,9,10,11,12", "seeds for -collect")
	compare := fs.Bool("compare", false, "compare two sets: -compare A.json B.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	switch {
	case *compare:
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare needs two set files")
			return 2
		}
		a, err := readSet(fs.Arg(0))
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		b, err := readSet(fs.Arg(1))
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		if compareSets(stdout, a, b) > 0 {
			return 1
		}
		return 0
	case *collect != "":
		if err := collectSet(*collect, *seeds, *seconds, *traceFlag, stderr); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		return 0
	}

	cfg := config{workload: *workload, seed: *seed, seconds: *seconds, frames: defaultFrames}
	switch *traceFlag {
	case "0":
	case "1":
		cfg.traced = true
		cfg.spans = filepath.Join("traces", fmt.Sprintf("%s-seed%d.json", cfg.workload, cfg.seed))
	default:
		cfg.traced, cfg.spans = true, *traceFlag
	}
	// One P: on a small shared host, runs with two Ps varied several times
	// more from process to process (the tier tree most), and the
	// deployed operate loop is single-threaded anyway.
	runtime.GOMAXPROCS(1)
	rep, err := execute(cfg)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if cfg.traced {
		if err := writeSpans(cfg.spans, cfg.workload, cfg.seed, rep.spans); err != nil {
			fmt.Fprintln(stderr, "bench: write spans:", err)
			return 1
		}
	}
	if err := printReport(stdout, cfg, rep); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	return 0
}

// execute builds the System the workload deploys and runs the workload.
func execute(cfg config) (*report, error) {
	if spec, ok := operateSpecOf(cfg.workload); ok {
		sys, buildS, err := buildSystem(spec.pattern, defaultBuilds)
		if err != nil {
			return nil, err
		}
		return runOperate(cfg, spec, sys, buildS)
	}
	if cfg.workload == "fleet-tree" {
		sys, buildS, err := buildSystem(core.PatternSimplex, defaultBuilds)
		if err != nil {
			return nil, err
		}
		return runFleet(cfg, sys, buildS)
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s)", cfg.workload, strings.Join(workloadNames, ", "))
}

// buildSystem runs n identical Builds and returns the last System with
// the median Build time in seconds.
func buildSystem(pattern core.PatternKind, n int) (*core.System, float64, error) {
	var sys *core.System
	times := make([]float64, n)
	for i := range times {
		t0 := nanotime()
		s, err := core.Build(core.Config{
			CaseStudy: data.CaseStudy{Name: "railway", Generate: data.Railway},
			Pattern:   pattern,
			Seed:      42,
		})
		if err != nil {
			return nil, 0, fmt.Errorf("build: %w", err)
		}
		times[i] = float64(nanotime()-t0) / 1e9
		sys = s
	}
	sort.Float64s(times)
	return sys, times[len(times)/2], nil
}

// besides are printed next to the end-to-end metrics but are not part of
// the result object: the sample count and tail behind the percentiles,
// and the outcome ratios, which depend on the seed's inputs more than on
// the code's speed.
var besides = []metric{
	{Name: "frame_samples", Unit: "count"},
	{Name: "frame_p999_us", Unit: "us"},
	{Name: "frame_p999_beyond", Unit: "count"},
	{Name: "tree_frames_per_s", Unit: "frames/s"},
	{Name: "tree_round_p50_ms", Unit: "ms"},
	{Name: "tree_round_p99_ms", Unit: "ms"},
	{Name: "tree_round_p99_beyond", Unit: "count"},
	{Name: "tree_rounds", Unit: "count"},
	{Name: "availability", Unit: "ratio"},
	{Name: "hazard_rate", Unit: "ratio"},
	{Name: "detect_latency_frames", Unit: "frames"},
	{Name: "failed_ratio", Unit: "ratio"},
}

// printReport writes the human-readable report and, last, the result
// object.
func printReport(w io.Writer, cfg config, rep *report) error {
	mode := "untraced"
	if cfg.traced {
		mode = "traced, spans in " + cfg.spans
	}
	fmt.Fprintf(w, "workload %s seed %d (%s)\n", cfg.workload, cfg.seed, mode)
	for _, n := range rep.notes {
		fmt.Fprintf(w, "  %s\n", n)
	}
	table := func(title string, list []metric) {
		fmt.Fprintln(w, title)
		for _, m := range list {
			if v, ok := rep.m[m.Name]; ok {
				fmt.Fprintf(w, "  %-42s %14.6g %s\n", m.Name, v, m.Unit)
			}
		}
	}
	table("end-to-end:", endToEnd)
	table("beside them (not gated):", besides)
	if cfg.traced {
		table("per layer:", perLayer)
	}
	res := result{Correct: rep.err == nil, Attempted: rep.attempted, Failed: rep.failed}
	if res.Correct {
		fmt.Fprintln(w, "correct: every pass matched the correctness pass")
	} else {
		fmt.Fprintf(w, "INCORRECT: %v\n", rep.err)
	}
	if cfg.traced {
		res.Metrics = pick(perLayer, rep.m)
	} else {
		res.Metrics = pick(endToEnd, rep.m)
	}
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// collectSet runs every workload once per seed, each in a fresh process
// of this binary, and writes the results as a set for -compare.
func collectSet(path, seedList string, seconds float64, trace string, stderr io.Writer) error {
	var seeds []uint64
	for _, f := range strings.Split(seedList, ",") {
		s, err := strconv.ParseUint(strings.TrimSpace(f), 10, 64)
		if err != nil {
			return fmt.Errorf("bad seed %q: %w", f, err)
		}
		seeds = append(seeds, s)
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	var set runSet
	for _, wl := range workloadNames {
		for _, s := range seeds {
			args := []string{"-workload", wl, "-seed", strconv.FormatUint(s, 10),
				"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", trace}
			out, err := exec.Command(self, args...).Output()
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", wl, s, err)
			}
			lines := strings.Split(strings.TrimSpace(string(out)), "\n")
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				return fmt.Errorf("%s seed %d: result line: %w", wl, s, err)
			}
			if !res.Correct {
				return fmt.Errorf("%s seed %d: run reported incorrect outputs", wl, s)
			}
			fmt.Fprintf(stderr, "%s seed %d done\n", wl, s)
			set.Runs = append(set.Runs, runRecord{Workload: wl, Seed: s, Trace: trace, Result: res})
		}
	}
	b, err := json.MarshalIndent(set, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
