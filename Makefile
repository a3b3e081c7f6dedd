# Stdlib-only Go module; every target uses only the toolchain.

GO      ?= go
FUZZTIME ?= 10s

.PHONY: all build test race fmt vet lint lint-bench lint-sarif fuzz bench bench-report bench-smoke obs-smoke facility-smoke verify results clean

all: build

build:
	$(GO) build ./...

# Formatting is enforced, not advisory: a nonempty gofmt -l fails the build.
fmt:
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi

vet:
	$(GO) vet ./...

# Static-analysis gate: format, toolchain vet, a clean dependency surface
# (go.mod must stay tidy and verifiable in the hermetic build), and the
# reprolint suite (internal/analysis) proving the determinism, MPI-hygiene
# and metrics-stability invariants. Non-zero on any finding.
lint: fmt vet
	$(GO) mod tidy -diff
	$(GO) mod verify
	$(GO) run ./cmd/reprolint ./...

# Machine-readable lint log for code-scanning backends (CI uploads it).
lint-sarif: build
	$(GO) run ./cmd/reprolint -sarif ./... > reprolint.sarif

# The lint gate's own latency is a tracked performance surface: time one
# cold in-process reprolint sweep (load + type-check + facts + all
# analyzers) against the committed wall-clock budget and append a
# lint/reprolint-sweep point to the bench history.
lint-bench: build
	$(GO) run ./cmd/bench -lint-bench -history results/bench/history.jsonl

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Short seeded-corpus fuzz passes over the fault plane and the spot-market
# simulator. Bounded by FUZZTIME so verify stays a fixed-cost gate; raise it
# (make fuzz FUZZTIME=5m) for a real fuzzing session.
fuzz:
	$(GO) test -run '^$$' -fuzz FuzzFaultPlan -fuzztime $(FUZZTIME) ./internal/fault
	$(GO) test -run '^$$' -fuzz FuzzSpotRun -fuzztime $(FUZZTIME) ./internal/arrive
	$(GO) test -run '^$$' -fuzz FuzzEventQueue -fuzztime $(FUZZTIME) ./internal/pdes
	$(GO) test -run '^$$' -fuzz FuzzDeadlockDiagnosis -fuzztime $(FUZZTIME) ./internal/mpi
	$(GO) test -run '^$$' -fuzz FuzzWorkloadGen -fuzztime $(FUZZTIME) ./internal/facility
	$(GO) test -run '^$$' -fuzz FuzzFacility -fuzztime $(FUZZTIME) ./internal/facility
	$(GO) test -run '^$$' -fuzz FuzzParseSWF -fuzztime $(FUZZTIME) ./internal/facility

# Full microbenchmark run: measures the perfbench suite (ns/op, B/op,
# allocs/op), checks allocation and ns/op budgets, rewrites BENCH_PR3.json
# with the committed numbers as the before column, and appends a snapshot
# (with environment provenance) to the append-only bench history.
bench: build
	$(GO) run ./cmd/bench -baseline BENCH_PR3.json -out BENCH_PR3.json \
		-history results/bench/history.jsonl

# Trend report over the bench history: per-benchmark deltas vs the
# previous snapshot and the trailing-window baseline, with statistical
# verdicts (median + MAD). -fail-on-regression turns it into a gate; the
# detector only compares snapshots from the same environment fingerprint,
# so a fresh machine reads as "no-history", never a false regression.
bench-report: build
	$(GO) run ./cmd/bench -report -fail-on-regression \
		-history results/bench/history.jsonl

# Cheap regression gate: one AllocsPerRun pass per budgeted benchmark plus
# a timed ns/op pass per wall-time-budgeted benchmark. Fails when the
# message plane or the facility engine regresses past a committed budget.
bench-smoke: build
	$(GO) run ./cmd/bench -smoke

# Observability gate: run the smoke sweep cold at -j 1 and -j 8 with
# manifests on, validate every manifest (per-artefact and top-level)
# with cmd/inspect, and assert the two worker counts produced
# byte-identical artefacts AND metric snapshots — scheduling must not
# leak into the observability plane either.
obs-smoke: build
	@rm -rf .obs-smoke && mkdir -p .obs-smoke/j1 .obs-smoke/j8
	$(GO) run ./cmd/repro -sweep smoke -nocache -j 1 \
		-out .obs-smoke/j1 -manifest .obs-smoke/j1/run.manifest.json >/dev/null
	$(GO) run ./cmd/repro -sweep smoke -nocache -j 8 \
		-out .obs-smoke/j8 -manifest .obs-smoke/j8/run.manifest.json >/dev/null
	$(GO) run ./cmd/inspect manifest .obs-smoke/j1/*.manifest.json >/dev/null
	$(GO) run ./cmd/inspect manifest .obs-smoke/j8/*.manifest.json >/dev/null
	@for m in .obs-smoke/j1/*.manifest.json; do \
		case $$m in */run.manifest.json) continue;; esac; \
		cmp "$$m" ".obs-smoke/j8/$${m##*/}" \
			|| { echo "obs-smoke: $${m##*/} differs between -j 1 and -j 8"; exit 1; }; \
	done
	@for f in .obs-smoke/j1/*.csv .obs-smoke/j1/*.txt; do \
		[ -e "$$f" ] || continue; \
		cmp "$$f" ".obs-smoke/j8/$${f##*/}" \
			|| { echo "obs-smoke: $${f##*/} differs between -j 1 and -j 8"; exit 1; }; \
	done
	@rm -rf .obs-smoke
	@echo "obs-smoke: manifests valid and deterministic across -j 1 / -j 8"

# Batch-facility gate: a small seeded facility run (broker + spot, all
# scheduler features on) executed twice; the runs must print byte-identical
# reports — the digest line pins every outcome — and the manifest must
# validate. Covers the cmd/facility flag plumbing the package tests
# cannot see.
facility-smoke: build
	@rm -rf .facility-smoke && mkdir -p .facility-smoke
	@a=$$($(GO) run ./cmd/facility -jobs 400 -tenants 40 -slots 64 -broker -spot \
		-manifest .facility-smoke/a.manifest.json); \
	b=$$($(GO) run ./cmd/facility -jobs 400 -tenants 40 -slots 64 -broker -spot \
		-manifest .facility-smoke/b.manifest.json); \
	if [ "$$a" != "$$b" ]; then \
		echo "facility-smoke: two identical runs produced different reports:"; \
		echo "--- run a ---"; echo "$$a"; \
		echo "--- run b ---"; echo "$$b"; exit 1; \
	fi
	$(GO) run ./cmd/inspect manifest .facility-smoke/a.manifest.json >/dev/null
	@rm -rf .facility-smoke
	@echo "facility-smoke: run report deterministic and manifest valid"

# The full local gate: static analysis (format, vet, reprolint), build,
# tests, race tests, a short fuzz pass, the allocation/ns-budget smoke,
# the bench-history trend gate, the lint-latency budget, the
# observability smoke and the batch-facility smoke. Mirrors what CI runs (.github/workflows/ci.yml). lint-bench
# runs after bench-report so the trend gate judges the committed
# history, not the point lint-bench just appended.
verify: lint build test race fuzz bench-smoke bench-report lint-bench obs-smoke facility-smoke
	@echo "verify: all gates passed"

# Regenerate the committed seed artefacts (full sweep, seed 0).
results: build
	$(GO) run ./cmd/repro -out results -j 4

clean:
	rm -rf results/.cache .obs-smoke
