# Stdlib-only Go module; every target uses only the toolchain.

GO      ?= go
FUZZTIME ?= 10s

.PHONY: all build test race fmt vet lint lint-sarif fuzz bench facility-smoke verify results clean

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
# reprolint suite (internal/analysis) proving the determinism, MPI-hygiene,
# metrics-stability, error-handling and lock-hygiene invariants. Non-zero
# on any finding.
lint: fmt vet
	$(GO) mod tidy -diff
	$(GO) mod verify
	$(GO) run ./cmd/reprolint ./...

# Machine-readable lint log for code-scanning backends (CI uploads it).
lint-sarif: build
	$(GO) run ./cmd/reprolint -sarif ./... > reprolint.sarif

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Short seeded-corpus fuzz passes over the fault plane, the facility's
# spot execution model, the mpi deadlock diagnosis and windowed
# schedules, and the parsers of outside input (manifests,
# traces, -faults strings). Bounded by FUZZTIME so verify stays a fixed-cost gate; raise it
# (make fuzz FUZZTIME=5m) for a real fuzzing session. The obs targets seed
# from whole committed files, so their minimisation is capped: shrinking a
# kilobyte input would otherwise eat the whole budget.
fuzz:
	$(GO) test -run '^$$' -fuzz FuzzFaultPlan -fuzztime $(FUZZTIME) ./internal/fault
	$(GO) test -run '^$$' -fuzz FuzzParseParams -fuzztime $(FUZZTIME) ./internal/fault
	$(GO) test -run '^$$' -fuzz FuzzSpotConfig -fuzztime $(FUZZTIME) ./internal/facility
	$(GO) test -run '^$$' -fuzz FuzzSpotRun -fuzztime $(FUZZTIME) ./internal/arrive
	$(GO) test -run '^$$' -fuzz FuzzEventQueue -fuzztime $(FUZZTIME) ./internal/pdes
	$(GO) test -run '^$$' -fuzz FuzzDeadlockDiagnosis -fuzztime $(FUZZTIME) ./internal/mpi
	$(GO) test -run '^$$' -fuzz FuzzWindowedProgram -fuzztime $(FUZZTIME) ./internal/mpi
	$(GO) test -run '^$$' -fuzz FuzzWorkloadGen -fuzztime $(FUZZTIME) ./internal/facility
	$(GO) test -run '^$$' -fuzz FuzzFacility -fuzztime $(FUZZTIME) ./internal/facility
	$(GO) test -run '^$$' -fuzz FuzzParseSWF -fuzztime $(FUZZTIME) ./internal/facility
	$(GO) test -run '^$$' -fuzz FuzzDecodeManifest -fuzztime $(FUZZTIME) -fuzzminimizetime 100x ./internal/obs
	$(GO) test -run '^$$' -fuzz FuzzParseChromeTrace -fuzztime $(FUZZTIME) -fuzzminimizetime 100x ./internal/obs

# Measure the budgeted hot paths (message plane, OSU simulation, batch
# facility) and gate their committed ns/op budgets; their allocation
# budgets are tests, so `test` enforces them. -p 1 runs one package's
# benchmarks at a time, so no two share the CPUs. End-to-end claims are
# paired hostbench A/B runs.
bench:
	$(GO) test -p 1 -run '^$$' -bench . -benchmem ./internal/mpi ./internal/osu ./internal/facility

# Batch-facility gate: a small seeded facility run (broker + spot, all
# scheduler features on) executed twice in memory and once streamed
# (-stream: the generated workload built a window of jobs at a time,
# outcomes folded as they complete). The two in-memory runs must print
# byte-identical reports — the digest line pins every outcome — and the
# streamed run's report must equal them on every line but the digest,
# which hashes outcomes in completion order instead of submission order.
# The manifest must validate. Covers the cmd/facility flag plumbing the
# package tests cannot see.
facility-smoke: build
	@rm -rf .facility-smoke && mkdir -p .facility-smoke
	@a=$$($(GO) run ./cmd/facility -jobs 400 -tenants 40 -slots 64 -broker -spot \
		-manifest .facility-smoke/a.manifest.json); \
	b=$$($(GO) run ./cmd/facility -jobs 400 -tenants 40 -slots 64 -broker -spot \
		-manifest .facility-smoke/b.manifest.json); \
	s=$$($(GO) run ./cmd/facility -jobs 400 -tenants 40 -slots 64 -broker -spot -stream); \
	if [ "$$a" != "$$b" ]; then \
		echo "facility-smoke: two identical runs produced different reports:"; \
		echo "--- run a ---"; echo "$$a"; \
		echo "--- run b ---"; echo "$$b"; exit 1; \
	fi; \
	if [ "$$(echo "$$a" | grep -v ' digest ')" != "$$(echo "$$s" | grep -v ' digest ')" ]; then \
		echo "facility-smoke: the streamed run's report differs from the in-memory run's:"; \
		echo "--- in memory ---"; echo "$$a"; \
		echo "--- streamed ---"; echo "$$s"; exit 1; \
	fi
	$(GO) run ./cmd/inspect manifest .facility-smoke/a.manifest.json >/dev/null
	@rm -rf .facility-smoke
	@echo "facility-smoke: run report deterministic, streamed run agrees, manifest valid"

# The full local gate: static analysis (format, vet, reprolint), build,
# tests (with the allocation and lint-latency budgets), race tests, a
# short fuzz pass, the ns/op budgets and the batch-facility smoke.
# Mirrors what CI runs (.github/workflows/ci.yml) and writes nothing
# tracked, so the tree stays clean. The smoke sweep's manifests and -j determinism are Go
# tests (TestReproSmokeManifest, TestArtefactManifests,
# TestGoldenDeterminismSmoke), run by `test`.
verify: lint build test race fuzz bench facility-smoke
	@echo "verify: all gates passed"

# Regenerate the committed seed artefacts (full sweep, seed 0).
results: build
	$(GO) run ./cmd/repro -out results -j 4

clean:
	rm -rf results/.cache
