// Package core is the SAFEXPLAIN framework proper: it composes the
// substrates — deterministic DL (nn/qnn), trust supervisors, explainers,
// safety patterns, platform timing, and the traceability log — into a
// single certifiable System, via an explicit safety Lifecycle.
//
// Build runs the lifecycle the paper's flexible certification approach
// prescribes:
//
//	specify requirements → freeze data → train → quantize (FUSA library)
//	→ fit trust monitor → validate explainability → analyze timing
//	→ assemble safety pattern → deploy
//
// and records every stage in a hash-chained evidence log, discharging the
// standard assurance-case goals as verification evidence accumulates. The
// resulting System is the runtime object: Process() gives monitored,
// pattern-protected decisions; Explain() gives attribution evidence;
// Readiness() gives the certification snapshot that experiment T8 reports.
package core

import (
	"errors"
	"fmt"

	"safexplain/internal/data"
	"safexplain/internal/fdir"
	"safexplain/internal/fmea"
	"safexplain/internal/mbpta"
	"safexplain/internal/nn"
	"safexplain/internal/obs"
	"safexplain/internal/platform"
	"safexplain/internal/prng"
	"safexplain/internal/prof"
	"safexplain/internal/qnn"
	"safexplain/internal/safety"
	"safexplain/internal/supervisor"
	"safexplain/internal/tensor"
	"safexplain/internal/trace"
	"safexplain/internal/xai"
)

// PatternKind selects the safety pattern the lifecycle assembles.
type PatternKind string

// Supported pattern kinds.
const (
	PatternSingle     PatternKind = "single"
	PatternSupervised PatternKind = "supervised"
	PatternSimplex    PatternKind = "simplex"
)

// Config parameterizes a lifecycle run. Zero values get sensible defaults.
type Config struct {
	Name      string
	CaseStudy data.CaseStudy
	Pattern   PatternKind

	// Dataset knobs.
	Samples int
	Noise   float64
	Seed    uint64

	// Training knobs.
	Epochs int

	// Observability knobs. The monitor is on by default — its record
	// paths are zero-allocation, so it does not perturb the timing it
	// reports on (experiment T13 measures the probe effect).
	DisableObservability bool
	// FlightRecorderSpans sizes the span ring (default 256).
	FlightRecorderSpans int
	// Clock is the injected monotonic tick source shared by the trace
	// clock and the continuous profiler. Nil keeps v2 trace records off
	// (as before) and gives the profiler its own deterministic counter
	// clock, so profiling is always on without perturbing trace state.
	Clock func() uint64

	// Acceptance thresholds for the verification stages.
	MinAccuracy   float64 // float model test accuracy (default 0.8)
	MinAgreement  float64 // int8-vs-float prediction agreement (default 0.9)
	MinAUROC      float64 // supervisor OOD AUROC on inversion (default 0.7)
	MinStability  float64 // explanation stability (default 0.5)
	ExceedanceP   float64 // pWCET exceedance target (default 1e-9)
	TrustQuantile float64 // monitor calibration quantile (default 0.95)
}

func (c Config) withDefaults() Config {
	if c.Name == "" {
		c.Name = c.CaseStudy.Name
	}
	if c.Pattern == "" {
		c.Pattern = PatternSupervised
	}
	if c.Samples <= 0 {
		c.Samples = 280
	}
	if c.Noise == 0 {
		c.Noise = 0.05
	}
	if c.Epochs <= 0 {
		c.Epochs = 10
	}
	if c.MinAccuracy == 0 {
		c.MinAccuracy = 0.8
	}
	if c.MinAgreement == 0 {
		c.MinAgreement = 0.9
	}
	if c.MinAUROC == 0 {
		c.MinAUROC = 0.7
	}
	if c.MinStability == 0 {
		c.MinStability = 0.5
	}
	if c.ExceedanceP == 0 {
		c.ExceedanceP = 1e-9
	}
	if c.TrustQuantile == 0 {
		c.TrustQuantile = 0.95
	}
	return c
}

// StageResult reports one lifecycle verification stage.
type StageResult struct {
	Stage  string
	Passed bool
	Metric float64
	Detail string
}

// System is the deployed CAIS component.
type System struct {
	Name    string
	Classes []string

	Net     *nn.Network
	Engine  *qnn.Engine
	Monitor *supervisor.Monitor
	Pattern safety.Pattern

	Log      *trace.Log
	Registry *trace.Registry
	Case     *trace.Goal
	// FMEA is the checked failure-modes worksheet of the release gate.
	FMEA *fmea.Worksheet
	// FDIR is the armed runtime health manager: online fault detection,
	// channel isolation and golden-image recovery around Pattern. Operate
	// routes every frame through it.
	FDIR *fdir.Runtime
	// Obs is the observability bundle: static metrics registry plus
	// flight recorder, shared with FDIR. Nil when
	// Config.DisableObservability was set.
	Obs *obs.Obs
	// Prof is the continuous hot-path profiler: per-stage sites over the
	// Operate pipeline plus one site per quantized kernel, frozen at
	// build time. Nil when Config.DisableObservability was set — every
	// record path is nil-safe, so the disabled cost is one comparison.
	Prof *prof.Profiler

	// Stages holds the lifecycle verification outcomes in order.
	Stages []StageResult

	// PWCET is the cycles bound at Config.ExceedanceP on the reference
	// platform workload, for schedule construction.
	PWCET float64

	// Profiler site ids, resolved once when the site table is frozen.
	profInfer, profVote, profSupervisor, profDrift prof.SiteID
	profKernels                                    []prof.SiteID

	train, test *data.Set
}

// ErrStageFailed is returned by Build when a verification stage misses its
// threshold.
var ErrStageFailed = errors.New("core: lifecycle verification stage failed")

// Requirement IDs registered by every lifecycle run.
const (
	ReqAccuracy = "REQ-ACC"
	ReqTrust    = "REQ-TRUST"
	ReqExplain  = "REQ-XAI"
	ReqDeterm   = "REQ-DET"
	ReqTiming   = "REQ-WCET"
	ReqPattern  = "REQ-PATTERN"
)

// Build runs the full safety lifecycle and returns the deployed System.
// All randomness derives from cfg.Seed: two Builds with equal configs
// produce bit-identical systems and evidence hashes.
func Build(cfg Config) (*System, error) {
	cfg = cfg.withDefaults()
	if cfg.CaseStudy.Generate == nil {
		return nil, errors.New("core: Config.CaseStudy is required")
	}
	s := &System{
		Name:     cfg.Name,
		Log:      &trace.Log{},
		Registry: trace.NewRegistry(),
	}
	if !cfg.DisableObservability {
		s.Obs = obs.New(obs.Config{Name: cfg.Name, FlightCapacity: cfg.FlightRecorderSpans})
	}

	// Stage 0 — requirements.
	reqs := []trace.Requirement{
		{ID: ReqAccuracy, Text: "classifier meets minimum task accuracy on frozen test data", Level: "SIL2"},
		{ID: ReqTrust, Text: "a runtime supervisor detects untrustworthy predictions", Level: "SIL3"},
		{ID: ReqExplain, Text: "predictions are explainable with stable attributions", Level: "SIL2"},
		{ID: ReqDeterm, Text: "deployed inference is bit-exact reproducible and allocation-free", Level: "SIL3"},
		{ID: ReqTiming, Text: "execution time is probabilistically bounded (pWCET)", Level: "SIL3"},
		{ID: ReqPattern, Text: "a safety pattern contains residual DL failures", Level: "SIL3"},
	}
	for _, r := range reqs {
		s.Registry.Add(r)
		s.Log.Append(trace.KindRequirement, r.ID, r.Text)
	}

	// Stage 1 — freeze data.
	set := cfg.CaseStudy.Generate(data.Config{N: cfg.Samples, Seed: cfg.Seed, Noise: cfg.Noise})
	s.Classes = set.Classes
	s.train, s.test = set.Split(0.75, cfg.Seed+1)
	dataID := "data:" + s.train.Hash()[:12]
	s.Log.Append(trace.KindDataset, dataID,
		fmt.Sprintf("case study %s: %d train / %d test samples, noise %.2f",
			cfg.CaseStudy.Name, s.train.Len(), s.test.Len(), cfg.Noise))

	// Stage 2 — train the float model: the modern stack (BatchNorm with
	// frozen calibrated statistics, Dropout regularization), which the
	// deployment stage folds away so the certified binary only contains
	// the quantizable construct set.
	src := prng.New(cfg.Seed + 2)
	trained := nn.NewNetwork(cfg.Name+"-cnn",
		nn.NewConv2D(1, 6, 3, 1, 1, src), nn.NewBatchNorm2D(6), nn.NewReLU(),
		nn.NewMaxPool2D(2, 2),
		nn.NewFlatten(), nn.NewDropout(0.1, cfg.Seed+9),
		nn.NewDense(6*8*8, 24, src), nn.NewReLU(),
		nn.NewDense(24, set.NumClasses(), src))
	if err := nn.CalibrateBatchNorms(trained, s.train); err != nil {
		return nil, err
	}
	// Weight decay breaks the BN-gamma/head scale symmetry and gradient
	// clipping bounds every update step — without both, gamma can grow
	// unboundedly and wreck the folded model's quantization.
	loss, _, err := nn.TrainClassifier(trained, s.train, nn.TrainConfig{
		Epochs: cfg.Epochs, BatchSize: 16, LR: 0.05, Momentum: 0.9,
		Decay: 1e-4, ClipNorm: 5, Seed: cfg.Seed + 3,
	})
	if err != nil {
		return nil, err
	}
	// Deployment form: BN folded into the convolution, Dropout removed.
	s.Net, err = nn.FoldBatchNorm(trained)
	if err != nil {
		return nil, err
	}
	s.Net.ID = cfg.Name + "-cnn"
	modelHash, err := nn.Hash(s.Net)
	if err != nil {
		return nil, err
	}
	modelID := "model:" + modelHash[:12]
	s.Log.Append(trace.KindTraining, "run:train-"+cfg.Name,
		fmt.Sprintf("SGD epochs=%d final loss=%.4f seed=%d (BN calibrated, folded for deployment)",
			cfg.Epochs, loss, cfg.Seed+3), dataID)
	s.Log.Append(trace.KindModel, modelID, s.Net.Describe(), dataID, "run:train-"+cfg.Name)

	// Verification: accuracy.
	acc := nn.Evaluate(s.Net, s.test)
	if err := s.verify(cfg, "accuracy", "test:accuracy", acc, cfg.MinAccuracy,
		fmt.Sprintf("test accuracy %.3f (threshold %.2f)", acc, cfg.MinAccuracy),
		ReqAccuracy, modelID, dataID); err != nil {
		return nil, err
	}

	// Stage 3 — FUSA-grade quantized engine + determinism evidence.
	calib := make([]*tensor.Tensor, 0, 60)
	for i := 0; i < 60 && i < s.train.Len(); i++ {
		x, _ := s.train.Sample(i)
		calib = append(calib, x)
	}
	s.Engine, err = qnn.Quantize(s.Net, calib)
	if err != nil {
		return nil, err
	}
	agree := 0
	replayOK := true
	for i := 0; i < s.test.Len(); i++ {
		x, _ := s.test.Sample(i)
		fc, _ := s.Net.Predict(x)
		qc, logits := s.Engine.Infer(x)
		first := append([]float32(nil), logits...)
		qc2, logits2 := s.Engine.Infer(x)
		if qc2 != qc {
			replayOK = false
		}
		for j := range first {
			if logits2[j] != first[j] {
				replayOK = false
			}
		}
		if fc == qc {
			agree++
		}
	}
	agreement := float64(agree) / float64(s.test.Len())
	detail := fmt.Sprintf("int8/float agreement %.3f, bit-exact replay %v", agreement, replayOK)
	pass := agreement >= cfg.MinAgreement && replayOK
	metric := agreement
	if !replayOK {
		metric = 0
	}
	if err := s.verifyBool(cfg, "determinism", "test:determinism", pass, metric, detail,
		ReqDeterm, modelID); err != nil {
		return nil, err
	}

	// Stage 4 — trust monitor + OOD evidence.
	s.Monitor, err = supervisor.NewMonitor(&supervisor.Mahalanobis{}, s.Net, s.train, cfg.TrustQuantile)
	if err != nil {
		return nil, err
	}
	rep, err := supervisor.EvaluateOOD(s.Monitor.Sup, s.Net, s.test, data.WithInversion(s.test))
	if err != nil {
		return nil, err
	}
	if err := s.verify(cfg, "trust", "test:trust", rep.AUROC, cfg.MinAUROC,
		fmt.Sprintf("supervisor %s AUROC %.3f FPR95 %.3f on inversion OOD",
			rep.Supervisor, rep.AUROC, rep.FPR95),
		ReqTrust, modelID); err != nil {
		return nil, err
	}

	// Stage 5 — explainability evidence.
	expl := xai.GradientInput{}
	var stability float64
	nExpl := 5
	if s.test.Len() < nExpl {
		nExpl = s.test.Len()
	}
	for i := 0; i < nExpl; i++ {
		x, _ := s.test.Sample(i)
		class, _ := s.Net.Predict(x)
		stability += xai.Stability(s.Net, expl, x, class, 0.05, 3, cfg.Seed+4)
	}
	stability /= float64(nExpl)
	if err := s.verify(cfg, "explainability", "test:explain", stability, cfg.MinStability,
		fmt.Sprintf("%s mean stability %.3f over %d samples", expl.Name(), stability, nExpl),
		ReqExplain, modelID); err != nil {
		return nil, err
	}

	// Stage 6 — timing evidence on the time-randomized platform.
	var randomized platform.Config
	for _, pc := range platform.StandardConfigs() {
		if pc.Name == "time-randomized" {
			randomized = pc
		}
	}
	samples := platform.Campaign(randomized, platform.NewCNNWorkload(), 400, cfg.Seed+5)
	analysis, err := mbpta.FitChecked(samples, 20, 0.01)
	if err != nil {
		return nil, fmt.Errorf("core: timing analysis: %w", err)
	}
	s.PWCET = analysis.PWCET(cfg.ExceedanceP)
	if err := s.verifyBool(cfg, "timing", "test:pwcet", s.PWCET > analysis.MaxObs, s.PWCET,
		fmt.Sprintf("pWCET(%.0e) = %.0f cycles on %s (max observed %.0f)",
			cfg.ExceedanceP, s.PWCET, randomized.Name, analysis.MaxObs),
		ReqTiming, modelID); err != nil {
		return nil, err
	}

	// Stage 7 — assemble the safety pattern and deploy.
	switch cfg.Pattern {
	case PatternSingle:
		s.Pattern = safety.SingleChannel{C: safety.NetChannel{Net: s.Net}}
	case PatternSimplex:
		fallbackClass := conservativeClass(cfg.CaseStudy.Name)
		s.Pattern = safety.Simplex{
			Primary: safety.NetChannel{Net: s.Net},
			Net:     s.Net,
			Mon:     s.Monitor,
			Fallback: safety.FuncChannel{ID: "verified-conservative",
				F: func(*tensor.Tensor) int { return fallbackClass }},
		}
	default:
		s.Pattern = safety.SupervisedChannel{C: safety.NetChannel{Net: s.Net}, Net: s.Net, Mon: s.Monitor}
	}
	s.Log.Append(trace.KindVerification, "test:pattern",
		fmt.Sprintf("pattern %s assembled at %s", s.Pattern.Name(), s.Pattern.Level()),
		ReqPattern, modelID)
	s.Stages = append(s.Stages, StageResult{Stage: "pattern", Passed: true, Metric: 1,
		Detail: s.Pattern.Name()})
	s.Obs.Span(-1, obs.StageBuild, int32(len(s.Stages)-1), 1)

	// Stage 8 — FMEA release gate: the standard failure-mode analysis must
	// be complete, its critical modes mitigated, and every claim grounded
	// in the evidence recorded above.
	s.FMEA = fmea.StandardWorksheet(cfg.Name)
	fmeaErr := s.FMEA.Check(s.Log, 150)
	fmeaDetail := fmt.Sprintf("%d modes over %d components, release gate at RPN>=150",
		len(s.FMEA.Modes), len(s.FMEA.Components))
	if fmeaErr != nil {
		fmeaDetail = fmeaErr.Error()
	}
	if err := s.verifyBool(cfg, "fmea", "test:fmea", fmeaErr == nil,
		float64(len(s.FMEA.Modes)), fmeaDetail, ReqPattern, modelID); err != nil {
		return nil, err
	}

	// Stage 9 — arm FDIR: capture the golden image of the deployed model,
	// calibrate the online detectors against the frozen training data, and
	// wrap the pattern in the runtime health manager. The thresholds are
	// recorded so the arming itself is reproducible evidence.
	golden, err := fdir.NewGolden(s.Net)
	if err != nil {
		return nil, fmt.Errorf("core: capture golden image: %w", err)
	}
	fallbackClass := conservativeClass(cfg.CaseStudy.Name)
	s.FDIR = fdir.NewRuntime(fdir.RuntimeConfig{Name: cfg.Name}, s.Pattern, nil, s.Net)
	s.FDIR.Golden = golden
	s.FDIR.Fallback = safety.FuncChannel{ID: "verified-conservative",
		F: func(*tensor.Tensor) int { return fallbackClass }}
	s.FDIR.Out = fdir.CalibrateOutputGuard(fdir.NetProbe{Net: s.Net}, s.train, 4, 8, 0)
	s.FDIR.In = fdir.CalibrateInputGuard(s.train, 1.0)
	s.FDIR.Log = s.Log
	s.FDIR.Obs = s.Obs
	s.Log.Append(trace.KindOperation, "fdir:"+cfg.Name,
		fmt.Sprintf("FDIR armed: golden image sha256 %.12s…, |logit| bound %.3g, input mean in [%.3f, %.3f]",
			golden.Hash(), s.FDIR.Out.MaxAbs, s.FDIR.In.MeanLo, s.FDIR.In.MeanHi),
		modelID, "test:pattern")

	// Arm observability as deployment evidence: the flight-recorder span
	// hash at this point covers the lifecycle build spans, so the chained
	// record pins which build history the runtime monitor starts from.
	if s.Obs != nil {
		s.Log.Append(trace.KindOperation, "obs:"+cfg.Name, s.Obs.Describe(), modelID)
	}

	// Arm the continuous profiler: a static site table — one site per
	// Operate stage plus one per quantized kernel — frozen here, so the
	// report layout is a build artifact and fleet merges reject drift.
	// Stage sites are unbudgeted (the operate tick domain is not the
	// platform cycle domain); the rt frame site carries the budget.
	if !cfg.DisableObservability {
		clock := cfg.Clock
		if clock == nil {
			clock = obs.NewCounterClock()
		}
		s.Prof = prof.New(prof.Config{Name: cfg.Name, Clock: clock, TraceID: s.Obs.TraceID})
		s.profInfer = s.Prof.AddSite("stage/infer", prof.KindStage, 0)
		s.profVote = s.Prof.AddSite("stage/vote", prof.KindStage, 0)
		s.profSupervisor = s.Prof.AddSite("stage/supervisor", prof.KindStage, 0)
		s.profDrift = s.Prof.AddSite("stage/drift", prof.KindStage, 0)
		kernels := s.Engine.KernelNames()
		s.profKernels = make([]prof.SiteID, len(kernels))
		for i, kn := range kernels {
			s.profKernels[i] = s.Prof.AddSite("kernel/"+kn, prof.KindKernel, 0)
		}
		s.Prof.Freeze()
		if err := s.Engine.SetProfiler(s.Prof, s.profKernels); err != nil {
			return nil, err
		}
		s.Log.Append(trace.KindOperation, "prof:"+cfg.Name,
			fmt.Sprintf("profiler armed: %d sites (4 stages, %d kernels), block size %d",
				4+len(kernels), len(kernels), prof.DefaultBlockSize), modelID)
	} else {
		s.profInfer, s.profVote = prof.NoSite, prof.NoSite
		s.profSupervisor, s.profDrift = prof.NoSite, prof.NoSite
	}

	s.Log.Append(trace.KindDeployment, "deploy:"+cfg.Name,
		fmt.Sprintf("pattern=%s engine=%s pwcet=%.0f", s.Pattern.Name(), s.Engine.ID, s.PWCET),
		modelID, "test:accuracy", "test:determinism", "test:trust", "test:explain",
		"test:pwcet", "test:pattern", "test:fmea")

	s.Case = buildAssuranceCase(cfg.Name)
	return s, nil
}

// conservativeClass returns the fail-safe class per domain: the answer
// that, if wrong, errs on the side of caution.
func conservativeClass(caseStudy string) int {
	switch caseStudy {
	case "railway":
		return data.RailObstacle
	case "automotive":
		return data.AutoPedestrian
	default:
		return 0
	}
}

// verify records a threshold-compared verification stage.
func (s *System) verify(cfg Config, stage, artifact string, metric, threshold float64, detail string, refs ...string) error {
	return s.verifyBool(cfg, stage, artifact, metric >= threshold, metric, detail, refs...)
}

// verifyBool records a pass/fail verification stage; evidence is only
// appended on pass, so an unmet requirement shows up as an orphan in the
// readiness report rather than as fake evidence.
func (s *System) verifyBool(cfg Config, stage, artifact string, pass bool, metric float64, detail string, refs ...string) error {
	s.Stages = append(s.Stages, StageResult{Stage: stage, Passed: pass, Metric: metric, Detail: detail})
	s.Obs.Span(-1, obs.StageBuild, int32(len(s.Stages)-1), metric)
	if !pass {
		s.Log.Append(trace.KindIncident, "fail:"+stage, detail, refs...)
		return fmt.Errorf("%w: %s (%s)", ErrStageFailed, stage, detail)
	}
	s.Log.Append(trace.KindVerification, artifact, detail, refs...)
	return nil
}

// buildAssuranceCase authors the standard GSN argument over the lifecycle
// evidence.
func buildAssuranceCase(name string) *trace.Goal {
	root := &trace.Goal{ID: "G0", Statement: name + " is acceptably safe for its integrity level",
		Strategy: "argue over the four SAFEXPLAIN pillars"}
	p1 := root.AddChild(&trace.Goal{ID: "G1", Statement: "predictions are explainable and their trust is monitored",
		Strategy: "explanation stability + supervisor detection evidence"})
	p1.AddChild(&trace.Goal{ID: "G1.1", Statement: "attributions are stable", Evidence: []string{"test:explain"}})
	p1.AddChild(&trace.Goal{ID: "G1.2", Statement: "untrustworthy predictions are detected", Evidence: []string{"test:trust"}})
	p2 := root.AddChild(&trace.Goal{ID: "G2", Statement: "residual DL failures are contained by a safety pattern"})
	p2.AddChild(&trace.Goal{ID: "G2.1", Statement: "a pattern at the required level is deployed", Evidence: []string{"test:pattern"}})
	p2.AddChild(&trace.Goal{ID: "G2.2", Statement: "failure modes are analyzed, mitigated, and grounded in evidence", Evidence: []string{"test:fmea"}})
	p3 := root.AddChild(&trace.Goal{ID: "G3", Statement: "the DL implementation meets FUSA constraints"})
	p3.AddChild(&trace.Goal{ID: "G3.1", Statement: "inference is bit-exact and allocation-free", Evidence: []string{"test:determinism"}})
	p3.AddChild(&trace.Goal{ID: "G3.2", Statement: "the trained function meets its accuracy target", Evidence: []string{"test:accuracy"}})
	p4 := root.AddChild(&trace.Goal{ID: "G4", Statement: "real-time behaviour is bounded"})
	p4.AddChild(&trace.Goal{ID: "G4.1", Statement: "a pWCET bound exists at the target exceedance", Evidence: []string{"test:pwcet"}})
	return root
}

// Verdict is one runtime decision with its trust context.
type Verdict struct {
	Decision safety.Decision
	// Class is the delivered class: the pattern's class, or the fallback
	// class for degraded outputs, or -1 when the system withheld output.
	Class int
}

// Process runs one input through the deployed pattern. Fallbacks are
// recorded as incidents in the evidence log. The call is one frame: the
// pattern's consumers share one forward pass (nn.Network.BeginFrame).
func (s *System) Process(x *tensor.Tensor) Verdict {
	s.Net.BeginFrame(x)
	defer s.Net.EndFrame()
	return s.decide(x)
}

// decide is Process inside a frame scope the caller owns.
func (s *System) decide(x *tensor.Tensor) Verdict {
	d := s.Pattern.Decide(x)
	v := Verdict{Decision: d, Class: d.Class}
	if d.Fallback {
		v.Class = d.FallbackClass
		s.Log.Append(trace.KindIncident, "incident:fallback", d.Reason)
	}
	return v
}

// Explain returns the attribution map for x toward the model's predicted
// class, using the lifecycle's validated explainer.
func (s *System) Explain(x *tensor.Tensor) *tensor.Tensor {
	class, _ := s.Net.Predict(x)
	return xai.GradientInput{}.Explain(s.Net, x, class)
}

// Readiness returns the certification-readiness snapshot (experiment T8).
func (s *System) Readiness() trace.Readiness {
	return trace.AssessReadiness(s.Log, s.Registry, s.Case)
}

// AttachProfiler re-homes the system onto p — typically a Fork of the
// build-time profiler, giving one fleet unit its own sample stores over
// the shared frozen site table (forked profiles merge by construction).
// The site ids resolved at build time remain valid because Fork preserves
// table positions. A nil p disarms profiling.
func (s *System) AttachProfiler(p *prof.Profiler) error {
	s.Prof = p
	if s.Engine == nil {
		return nil
	}
	if p == nil {
		return s.Engine.SetProfiler(nil, nil)
	}
	return s.Engine.SetProfiler(p, s.profKernels)
}

// NewDriftDetector builds a CUSUM drift detector calibrated on the
// system's own training data under its deployed supervisor — the
// operation-phase monitor for slow degradation that per-frame rejection
// misses. k and h follow supervisor.NewDriftDetector's conventions
// (defaults on 0).
func (s *System) NewDriftDetector(k, h float64) (*supervisor.DriftDetector, error) {
	scores := make([]float64, s.train.Len())
	for i := 0; i < s.train.Len(); i++ {
		x, _ := s.train.Sample(i)
		scores[i] = s.Monitor.Sup.Score(s.Net, x)
	}
	return supervisor.NewDriftDetector(scores, k, h)
}

// OperationReport summarizes an Operate run.
type OperationReport struct {
	Frames     int
	Delivered  int // trusted (or degraded-mode) outputs
	Fallbacks  int
	DriftAlarm bool
	AlarmFrame int // frame index of the drift alarm (-1 if none)

	// FDIR counters for this run (zero when the runtime is not armed).
	Anomalies        int
	Quarantines      int
	Restores         int // verified golden-image reloads
	ReturnsToService int // probation windows completed
}

// Operate runs the deployed system over a frame stream with all runtime
// monitors engaged: the FDIR health manager around the per-frame pattern
// decision (fallbacks become incidents, as in Process; detector anomalies
// drive isolation and golden-image recovery, every transition appended to
// the evidence log) and the drift detector across frames. A drift alarm
// is recorded once as a maintenance incident in the evidence log.
func (s *System) Operate(stream interface {
	Len() int
	Sample(i int) (*tensor.Tensor, int)
}, drift *supervisor.DriftDetector) OperationReport {
	rep := OperationReport{AlarmFrame: -1}
	// Each frame closes its own scope below; this one covers a frame
	// that panics, so the network is never left pinned to its input.
	defer s.Net.EndFrame()
	var before fdir.Stats
	if s.FDIR != nil {
		before = s.FDIR.Stats()
	}
	o := s.Obs
	for i := 0; i < stream.Len(); i++ {
		x, _ := stream.Sample(i)
		// One forward pass per frame: the FDIR probe, the pattern's trust
		// score and primary channel, and the drift re-score all read the
		// result of the first of them. The scope opens after Sample — a
		// stream may write weights or refill its input buffer there — and
		// closes at the end of this iteration.
		s.Net.BeginFrame(x)
		rep.Frames++
		// Open the causal trace for this frame; the stages below attach
		// child spans (the FDIR runtime records its own detect → isolate
		// → recover → deliver chain inside Step).
		o.TraceBegin(i)
		var fallback bool
		var class int
		// Profile the decision stage: the FDIR step (or the raw pattern
		// decide) is the inference hot path, attributed to stage/infer;
		// the per-kernel sites inside qnn.Engine.Infer record under the
		// same profiler, so the stage total decomposes kernel by kernel.
		pb := s.Prof.Begin()
		if s.FDIR != nil {
			st := s.FDIR.Step(i, x, fdir.Signals{})
			s.Prof.End(s.profInfer, pb)
			fallback = st.Decision.Fallback
			class = st.Class
			if fallback {
				s.Log.Append(trace.KindIncident, "incident:fallback", st.Decision.Reason)
			}
		} else {
			v := s.decide(x)
			s.Prof.End(s.profInfer, pb)
			fallback = v.Decision.Fallback
			class = v.Class
			inferRef := o.TraceChild(obs.StageInfer, int32(class), 0, o.TraceRoot())
			vote := int32(0)
			if fallback {
				vote = 1
			}
			o.TraceChild(obs.StageVote, vote, float64(class), inferRef)
		}
		vb := s.Prof.Begin()
		if o != nil {
			o.Frames.Inc()
			vote := int32(0)
			if fallback {
				vote = 1
			}
			o.Span(i, obs.StageInfer, int32(class), 0)
			o.Span(i, obs.StageVote, vote, 0)
		}
		if fallback {
			rep.Fallbacks++
			if o != nil {
				o.Fallbacks.Inc()
			}
		} else {
			rep.Delivered++
			if o != nil {
				o.Delivered.Inc()
			}
		}
		s.Prof.End(s.profVote, vb)
		if drift != nil && !rep.DriftAlarm {
			sb := s.Prof.Begin()
			score := s.Monitor.Sup.Score(s.Net, x)
			s.Prof.End(s.profSupervisor, sb)
			if o != nil {
				o.TrustScore.Observe(score)
				o.Span(i, obs.StageSupervisor, 0, score)
			}
			db := s.Prof.Begin()
			alarmed := drift.Observe(score)
			s.Prof.End(s.profDrift, db)
			if alarmed {
				rep.DriftAlarm = true
				rep.AlarmFrame = i
				o.Span(i, obs.StageDrift, 1, drift.Statistic())
				o.TraceChild(obs.StageDrift, 1, drift.Statistic(), o.TraceRoot())
				s.Log.Append(trace.KindIncident, "incident:drift",
					fmt.Sprintf("CUSUM drift alarm at frame %d (statistic %.1f sigma)",
						i, drift.Statistic()))
			}
		}
		o.TraceEnd(i)
		s.Net.EndFrame()
	}
	if s.FDIR != nil {
		after := s.FDIR.Stats()
		rep.Anomalies = after.Anomalies - before.Anomalies
		rep.Quarantines = after.Quarantines - before.Quarantines
		rep.Restores = after.Restores - before.Restores
		rep.ReturnsToService = after.Returns - before.Returns
	}
	if o != nil && o.Trace.Total() > 0 {
		// Link the causal-trace ring into the evidence chain, alongside
		// the flight-recorder hash AutoDump records: the chained hash
		// proves which causal history a downlinked reconstruction claims.
		detail := fmt.Sprintf("causal trace: %d spans over %d frames (%d overflowed), ring hash %.12s…",
			o.Trace.Total(), o.Trace.Frames(), o.Trace.Overflow(), o.Trace.Hash())
		if d := o.Down; d != nil {
			detail += "; " + d.Describe()
		}
		s.Log.Append(trace.KindOperation, "obs:trace", detail)
	}
	return rep
}

// TrainSet and TestSet expose the frozen datasets for evaluation
// harnesses.
func (s *System) TrainSet() *data.Set { return s.train }

// TestSet returns the frozen test partition.
func (s *System) TestSet() *data.Set { return s.test }
