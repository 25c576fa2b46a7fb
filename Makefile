GO ?= go

# Fuzz lane: one definition drives both `make fuzz` and CI (which calls
# `make fuzz FUZZTIME=20s`), so the target list cannot drift between them.
# Each entry is <FuzzTarget>=<package>.
FUZZ_TARGETS = \
	FuzzUnmarshal=./internal/nn \
	FuzzImport=./internal/trace \
	FuzzHealthTransitions=./internal/fdir \
	FuzzDownlinkDecode=./internal/obs \
	FuzzFleetIngest=./internal/fleet \
	FuzzTierDecode=./internal/fleetnet \
	FuzzWatchRuleDecode=./internal/watch \
	FuzzProfDecode=./internal/prof
FUZZTIME ?= 30s

.PHONY: all build vet test race bench-smoke bench bench-json bench-diff lint safelint staticcheck govulncheck experiments examples fuzz cover clean

all: build lint test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# Race-detector lane over every package — the dynamic complement of the
# safelint ownership pass.
race:
	$(GO) test -race ./...

# The repository benchmark (bench/) is a module of its own, so
# `go test ./...` above never compiles it. Its tests vet it against the
# packages it wraps and run every workload for one pass: every metric
# printed, no failed frame, and a traced frame that telescopes exactly.
bench-smoke:
	cd bench && $(GO) vet ./... && $(GO) test ./...

# Regenerate every table/figure in EXPERIMENTS.md as benchmark targets.
bench:
	$(GO) test -bench=. -benchmem ./...

# One benchmark pass, archived as machine-readable JSON (CI artifact).
bench-json:
	$(GO) run ./cmd/benchjson -out BENCH_$(shell date +%Y-%m-%d).json

# Compare a fresh bench-json pass against the committed baseline.
# Gating by default: a >40% ns/B/allocs regression on any benchmark
# fails the target (new benchmarks are never regressions; set
# BENCH_DIFF_FLAGS= for report-only). The fresh pass goes to
# BENCH_current.json (not the dated name) so it can never clobber the
# committed baseline.
BENCH_BASELINE ?= BENCH_2026-08-08.json
BENCH_DIFF_FLAGS ?= -fail -threshold 40
bench-diff:
	$(GO) run ./cmd/benchjson -out BENCH_current.json
	$(GO) run ./cmd/benchjson -diff $(BENCH_DIFF_FLAGS) \
		$(BENCH_BASELINE) BENCH_current.json

# The lint umbrella: vet, the repo's own safety-rules analyzer, and
# staticcheck/govulncheck when installed. This is the target CI runs.
lint: vet safelint staticcheck govulncheck

# Repo-specific safety rules — the per-function families (hotpath
# allocation, WCET loop bounds, determinism, operate-path panic,
# requirement traceability tags) plus the interprocedural passes
# (hotpath closure, concurrency ownership, evidence-integrity taint)
# against the committed waiver file, emitting the hashed findings
# report — see internal/lint and DESIGN.md.
safelint:
	$(GO) run ./cmd/safelint -baseline lint.baseline -out safelint-report.json ./...

# Static analysis beyond vet; skips with a hint when the tool is absent.
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (go install honnef.co/go/tools/cmd/staticcheck@2024.1.1)"; \
	fi

# Known-vulnerability scan of the module and its (stdlib-only)
# dependency graph; skips with a hint when the tool is absent.
govulncheck:
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./...; \
	else \
		echo "govulncheck not installed; skipping (go install golang.org/x/vuln/cmd/govulncheck@latest)"; \
	fi

# Regenerate the evaluation tables directly.
experiments:
	$(GO) run ./cmd/experiments

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/automotive
	$(GO) run ./examples/space
	$(GO) run ./examples/railway

fuzz:
	@set -e; for t in $(FUZZ_TARGETS); do \
		name=$${t%%=*}; pkg=$${t#*=}; \
		echo "fuzz $$name $$pkg ($(FUZZTIME))"; \
		$(GO) test -fuzz=$$name -fuzztime=$(FUZZTIME) $$pkg; \
	done

cover:
	$(GO) test -cover ./...

clean:
	$(GO) clean -testcache
