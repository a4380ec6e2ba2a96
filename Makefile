# Make targets mirror the CI pipeline exactly (.github/workflows/ci.yml
# runs these same targets), so local dev and CI can never drift.

GO ?= go

include tools/tools.mk

.PHONY: build test perfbench-test fuzz race vet fmt-check campaign-smoke telemetry-smoke triage-smoke resume-smoke dashboard-smoke profile-smoke microbench bench bench-baseline ci

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The benchmark's own code: perfbench is a separate Go module (its trace
# replay reads tv.Result fields and campaign.BugConfig directly, so
# `go test ./...` at the root never compiles it) plus run.py's unit tests.
perfbench-test:
	cd perfbench && $(GO) test ./...
	python3 -m unittest discover -s perfbench

# Short native-fuzzing runs: the decoders of on-disk bytes (the bench
# validator, the campaign's snapshot, status, spans and hotspot
# documents, the bitcode reader, the .ll parser, the checkpoint loader
# and a triage bundle's counterexample.json; malformed input must return
# an error, never panic), the
# incremental SAT solver against brute-force enumeration on small random
# CNFs, the bit-blaster against the term evaluator on fuzz-decoded
# terms at pinned inputs, and the term rewriter against the unrewritten
# term under the evaluator.
fuzz:
	$(GO) test -run='^$$' -fuzz='^FuzzValidateBench$$' -fuzztime 10s ./internal/telemetry
	$(GO) test -run='^$$' -fuzz='^FuzzValidateSnapshot$$' -fuzztime 10s ./internal/telemetry
	$(GO) test -run='^$$' -fuzz='^FuzzValidateStatus$$' -fuzztime 10s ./internal/telemetry
	$(GO) test -run='^$$' -fuzz='^FuzzReadSpans$$' -fuzztime 10s ./internal/telemetry
	$(GO) test -run='^$$' -fuzz='^FuzzValidateHotspots$$' -fuzztime 10s ./internal/telemetry
	$(GO) test -run='^$$' -fuzz='^FuzzDecode$$' -fuzztime 10s ./internal/bitcode
	$(GO) test -run='^$$' -fuzz='^FuzzParse$$' -fuzztime 10s ./internal/parser
	$(GO) test -run='^$$' -fuzz='^FuzzLoadCheckpoint$$' -fuzztime 10s ./internal/campaign
	$(GO) test -run='^$$' -fuzz='^FuzzDecodeWitness$$' -fuzztime 10s ./internal/triage
	$(GO) test -run='^$$' -fuzz='^FuzzIncrementalAgainstBruteForce$$' -fuzztime 10s ./internal/sat
	$(GO) test -run='^$$' -fuzz='^FuzzBlastAgainstEval$$' -fuzztime 10s ./internal/smt
	$(GO) test -run='^$$' -fuzz='^FuzzRewriteAgainstEval$$' -fuzztime 10s ./internal/smt

# internal/campaign's end-to-end tests run many seeded campaigns; under
# the race detector on a loaded runner they can exceed go test's default
# 10m per-package timeout, so give them headroom explicitly.
race:
	$(GO) test -race -timeout 20m ./...

# staticcheck and govulncheck run when installed (CI installs the pinned
# versions via `make lint-tools`; see tools/tools.mk) and are skipped
# with a notice otherwise, so offline machines still get go vet +
# vet-determinism from the bare target.
vet:
	$(GO) vet ./...
	$(GO) run ./tools/vet-determinism -q
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "vet: staticcheck not installed; skipping (make lint-tools)"; \
	fi
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./...; \
	else \
		echo "vet: govulncheck not installed; skipping (make lint-tools)"; \
	fi

fmt-check:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

# The TV cascade's A/B flags end to end: a short-budget campaign over the
# whole seeded registry, once at the defaults and once with every -no-*
# flag fuzz-campaign generates from campaign.Layers (-no-analysis is not
# a cascade layer and stays out). Both runs must exit cleanly and print
# byte-identical tables; the Go harness TestCampaignLayerInvariance
# checks each layer on its own.
campaign-smoke:
	rm -rf campaign-smoke
	mkdir -p campaign-smoke
	$(GO) build -o campaign-smoke/fuzz-campaign ./cmd/fuzz-campaign
	campaign-smoke/fuzz-campaign -budget 50 -tvbudget 2000 -workers 4 -out campaign-smoke/table-default.txt
	flags="$$(campaign-smoke/fuzz-campaign -h 2>&1 | sed -n 's/^  \(-no-[a-z-]*\)$$/\1/p' | grep -vx -- -no-analysis)"; \
	test -n "$$flags" || { echo "campaign-smoke: no layer flags found"; exit 1; }; \
	echo "campaign-smoke: layers off:" $$flags; \
	campaign-smoke/fuzz-campaign -budget 50 -tvbudget 2000 -workers 4 $$flags -out campaign-smoke/table-layers-off.txt
	cmp campaign-smoke/table-default.txt campaign-smoke/table-layers-off.txt

# Telemetry end-to-end: a 50-mutant campaign writes a metrics snapshot
# and an event journal, then the snapshot is validated against the
# documented schema (docs/OBSERVABILITY.md) with campaign-shaped content
# required (mutants > 0, core stage timings present).
telemetry-smoke:
	$(GO) run ./cmd/fuzz-campaign -budget 50 -tvbudget 2000 -workers 4 \
		-metrics-out telemetry-smoke.json -journal telemetry-smoke.jsonl -stats
	$(GO) run ./cmd/telemetry-check -require-campaign telemetry-smoke.json

# Triage end-to-end: a short seeded campaign over a crash and a
# miscompilation bug writes deduplicated, auto-shrunk reproducer bundles,
# the index must be non-empty, and every bundle must replay (shrunk and
# original mutant both fire; mutant regenerates byte-for-byte from seed).
triage-smoke:
	rm -rf triage-smoke
	$(GO) run ./cmd/fuzz-campaign -budget 120 -tvbudget 4000 -seed 7 -workers 4 \
		-only 55287,59757 -triage-dir triage-smoke -journal triage-smoke.jsonl
	@test -s triage-smoke/index.json || { echo "triage-smoke: no index.json produced"; exit 1; }
	$(GO) run ./cmd/triage-replay -dir triage-smoke
	$(GO) run ./cmd/telemetry-check -trace-out triage-smoke-trace.json triage-smoke.jsonl

# Checkpoint/resume end-to-end: an uninterrupted reference run, a
# checkpointed run SIGKILLed mid-campaign, and a -resume continuation at
# a different worker count; the resumed table and triage tree must be
# byte-identical to the reference (docs/CHECKPOINTING.md).
resume-smoke:
	bash tools/resume-smoke.sh

# Live observability end-to-end: a seeded campaign with -metrics-addr on
# an ephemeral port; the dashboard, status API, SSE event stream, and
# Prometheus exposition are all probed mid-run from the one listener, and
# the captures validate with telemetry-check (docs/OBSERVABILITY.md).
dashboard-smoke:
	bash tools/dashboard-smoke.sh

# Cost-attribution profiling end-to-end: the seeded campaign writes a
# deterministic spans file, and campaign-profile must produce a hotspot
# report that validates with telemetry-check and agrees with the file
# (docs/OBSERVABILITY.md). Span invariance across -workers and with
# spans off is TestCampaignLayerInvariance's.
profile-smoke:
	bash tools/profile-smoke.sh

# Hot-path microbenchmarks: sat.Solve on canned CNFs, smt blasting and
# sessions, and tv.Verify over the examples corpus — a tracked baseline
# for solver changes independent of the end-to-end harness.
microbench:
	$(GO) test -bench=. -benchmem -run='^$$' ./internal/sat ./internal/smt ./internal/tv

bench:
	$(GO) test -bench=. -benchmem .

# Refresh the committed benchmark baseline (BENCH_throughput.json). Run on
# an otherwise idle machine; the document validates against the
# alive-mutate-bench/v1 schema before it can be committed.
bench-baseline:
	$(GO) run ./cmd/bench-throughput -count 200 -gen 10 -out res.txt -json BENCH_throughput.json
	$(GO) run ./cmd/telemetry-check BENCH_throughput.json

ci: build vet fmt-check test perfbench-test fuzz race campaign-smoke telemetry-smoke triage-smoke resume-smoke dashboard-smoke profile-smoke
