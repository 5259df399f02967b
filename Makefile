GO ?= go

.PHONY: help build fmt vet staticcheck test cover cover-summary cover-floor fuzz fuzz-smoke verify race bench bench-smoke bench-compare perfbench perfbench-build smoke figures serve loadgen

# help lists the targets. Serving quick-reference:
#   make serve    starts cmd/gpuvard on :8080 — the experiment service.
#     A request passes through (1) the service's fingerprint-keyed LRU
#     response cache with cancellation-safe singleflight coalescing,
#     (2) the figures session cache (one run per shared experiment),
#     (3) the LRU-bounded process-wide fleet cache (one instantiation
#     per (spec, seed), cap via gpuvard -fleet-cache), and (4)
#     per-device steady-point memoization. Identical requests are
#     byte-identical. Every computation runs on internal/engine under a
#     per-request deadline (gpuvard -timeout, default 30s); client
#     disconnects abort work mid-run. Elastic worker pools draw from a
#     process-wide weighted token budget (gpuvard -budget, default
#     GOMAXPROCS) with an interactive reserve, so batch floods cannot
#     starve interactive requests.
#     Long results stream instead of buffering — NDJSON, one line per
#     shard, payloads reassembling byte-identically to the sync body:
#       GET /v1/stream/sweep?axis=...&values=...   one line per variant
#       GET /v1/stream/experiments/{name}?...      one line per shard
#     Heavy work runs asynchronously instead of on a held connection:
#       POST /v1/jobs {"kind":"sweep","class":"batch","sweep":{...}}
#                                   -> 202 + poll URL (class defaults to
#                                      batch; "interactive" jumps ahead;
#                                      full batch queues shed with 429,
#                                      bound via gpuvard -max-queued-jobs)
#       GET  /v1/jobs/{id}          lifecycle + shards done/total
#       GET  /v1/jobs/{id}/result   finished bytes (identical to sync)
#       GET  /v1/jobs/{id}/stream   replayed + live NDJSON, attach any time
#       GET  /v1/jobs?limit=&page_token=&client=&state=  paginated listing
#       DELETE /v1/jobs/{id}        cancel
#     Requests are attributed to a client (X-API-Key header, else the
#     remote address). Batch queues are fair-shared across clients
#     (stride scheduling; gpuvard -client-weight team-a=4) with a
#     per-client depth bound (-max-queued-per-client) whose 429s name
#     the exhausted scope; per-client counters ride /v1/stats and the
#     Prometheus text exposition at GET /metrics.
#     Sweeps take a variant axis: {"axis":"powercap|seed|ambient|
#     fraction","values":[...]}.
#     Replicas federate: gpuvard -peers http://a:8080,http://b:8080
#     dispatches sweep shards across the fleet (-route-policy affinity
#     rendezvous-hashes shards onto warm fleet caches; roundrobin and
#     leastloaded too), with health-probe eject/readmit, retry onto
#     survivors, and byte-identical responses from any replica. GET /v1/
#     is the route discovery document; GET /v1/replicas shows membership
#     and dispatch counters.
#   make loadgen  hammers a running gpuvard with concurrent identical
#     requests, checks byte-identity, and reports req/s + p50/p99
#     (loadgen -duration 30s for time-based runs, -sweep '...' to mix in
#     POST /v1/sweep, -jobs to drive the async submit/poll/result path,
#     -stream to reassemble the streaming endpoints and require their
#     payloads to match the synchronous bytes while reporting
#     time-to-first-line).
#   make smoke    builds gpuvard, boots it, and runs a short loadgen mix
#     (figures + sweep + async jobs + streams) asserting zero failures
#     and byte-identity — the end-to-end serving gate CI runs — then a
#     chaos stage (30% injected shard faults, retries armed, responses
#     still byte-identical with zero 5xx), a crash stage (kill -9
#     mid-jobs, reboot, job journal replays finished results), and a
#     distributed stage (3 replicas wired with -peers: byte-identity
#     from any replica, affinity beating round-robin on warm-fleet
#     placement, kill-one-survive with zero 5xx).
#   make fuzz     full native-fuzz sessions (FUZZTIME each, default 60s)
#     over the service's request normalization — FuzzSweepRequest (body
#     decode + variant-axis parsing/validation) and FuzzJobEnvelope
#     (kind/class routing + payload normalization) — and the traffic
#     trace decoder, FuzzTraceDecode (torn-tail tolerance + canonical
#     re-encode round trip).
# CI gates a PR must clear (.github/workflows/ci.yml):
#   make verify   build + fmt + vet + staticcheck + test + cover-floor
#                 + fuzz-smoke + bench-smoke + bench-compare
#                 + perfbench-build
#   make race     go test -race -short ./...
#   make smoke    end-to-end serving smoke (see above)
#   make cover    test suite with a coverage summary
help:
	@awk '/^[a-z][a-z-]*:/ {sub(/:.*/,""); print "  make " $$0} /^# / {sub(/^# /,""); print}' $(MAKEFILE_LIST)

build:
	$(GO) build ./...

# fmt fails (listing the offenders) if any file is not gofmt-clean.
fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

# staticcheck runs the pinned honnef.co/go/tools linter. The version is
# pinned so CI and dev machines agree; `go run pkg@version` resolves
# through the module cache, so after the first download the stage is
# offline-friendly. On a dev machine with no network and no cached copy
# the stage skips with a notice; in CI ($CI set) an unresolvable
# staticcheck FAILS the stage — a silent skip there would disable the
# gate exactly where it matters.
STATICCHECK_VERSION ?= 2025.1.1
staticcheck:
	@if $(GO) run honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION) -version >/dev/null 2>&1; then \
		$(GO) run honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION) ./... ; \
	elif [ -n "$$CI" ]; then \
		echo "staticcheck: $(STATICCHECK_VERSION) failed to resolve in CI; failing the stage" >&2; \
		exit 1; \
	else \
		echo "staticcheck: $(STATICCHECK_VERSION) unavailable (offline and not in the module cache); skipping"; \
	fi

# test runs the tier-1 suite. TESTFLAGS lets CI fold the coverage
# profile into this single run instead of running the suite twice
# (TESTFLAGS='-coverprofile /tmp/gpuvar_cover.out').
TESTFLAGS ?=
test:
	$(GO) test $(TESTFLAGS) ./...

# cover runs the test suite with coverage and prints the total coverage
# summary (profile left in /tmp/gpuvar_cover.out for
# `go tool cover -html`).
cover:
	$(GO) test -coverprofile /tmp/gpuvar_cover.out ./...
	$(GO) tool cover -func /tmp/gpuvar_cover.out | tail -1

# cover-summary prints the total from an existing profile (CI uses this
# after `make verify TESTFLAGS=-coverprofile...` so the suite runs once).
cover-summary:
	$(GO) tool cover -func /tmp/gpuvar_cover.out | tail -1

# cover-floor is the coverage-regression gate: it reads the profile the
# verify test stage wrote and fails if total coverage dropped below the
# committed baseline (78.6% when the gate landed, floored with ~1.5
# points of headroom for coverage jitter in concurrency-dependent
# paths). Raise the floor when coverage genuinely grows; never lower it
# to make a PR pass.
COVERAGE_FLOOR ?= 77.0
cover-floor:
	@total=$$($(GO) tool cover -func /tmp/gpuvar_cover.out | tail -1 | awk '{print $$NF}' | tr -d '%'); \
	awk -v t="$$total" -v f="$(COVERAGE_FLOOR)" 'BEGIN { \
		if (t+0 < f+0) { printf "coverage %.1f%% fell below the committed floor %.1f%%\n", t, f; exit 1 } \
		printf "coverage %.1f%% >= floor %.1f%%\n", t, f }'

# fuzz runs the full native-fuzz sessions (one -fuzz flag per package
# invocation, as go test requires). Corpus additions land in the build
# cache; crashers land in internal/service/testdata/fuzz and should be
# committed as regression seeds.
FUZZTIME ?= 60s
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzSweepRequest$$' -fuzztime $(FUZZTIME) ./internal/service
	$(GO) test -run '^$$' -fuzz '^FuzzJobEnvelope$$' -fuzztime $(FUZZTIME) ./internal/service
	$(GO) test -run '^$$' -fuzz '^FuzzTraceDecode$$' -fuzztime $(FUZZTIME) ./internal/traffic

# fuzz-smoke is the short per-verify pass: long enough to catch shallow
# normalization regressions, short enough for every CI run.
fuzz-smoke:
	$(MAKE) --no-print-directory fuzz FUZZTIME=5s

# verify is the tier-1 gate plus the cheap guards: gofmt, vet,
# staticcheck, tests with the coverage floor, a fuzz smoke, a
# one-iteration benchmark smoke run, the benchmark-regression gate
# against the committed trajectory (BENCH_11.json), and a compile of
# the perfbench program. The stage sequence
# lives in scripts/verify.sh, which reports which stage failed.
verify:
	scripts/verify.sh

# race runs the race-detector pass CI runs: short mode skips the two
# full-catalog golden tests (see testing.Short guards) but still drives
# the whole stack — including the concurrent service catalog test —
# under the detector.
race:
	$(GO) test -race -short ./...

# bench records the full benchmark suite into BENCH_11.json with
# BENCH_10.json embedded as the baseline (name → ns/op, B/op, allocs/op,
# plus custom units like ReplayBurst's p99-ms/ttfl-ms under "metrics").
# Pass BENCH='regexp' to restrict, e.g.
#   make bench BENCH='Fig04|ExtCampaign' COUNT=3
BENCH ?= .
COUNT ?= 1
bench:
	$(GO) run ./cmd/benchjson -bench '$(BENCH)' -count $(COUNT) -baseline BENCH_10.json -out BENCH_11.json

bench-smoke:
	$(GO) test -run '^$$' -bench 'BenchmarkFig01' -benchtime 1x .

# bench-compare is the benchmark-regression gate: re-measure the gate
# benchmarks and fail if ns/op regressed past BENCH_TOLERANCE or
# allocs/op past BENCH_ALLOC_TOLERANCE against the committed
# BENCH_11.json. GATE_BENCH keeps the gate fast and focused on the two
# perf wins PR 1 banked, the engine-backed sweep surfaces (both axis
# forms), the PR 4 async-job plumbing, the PR 5 streaming and
# classed-scheduler paths, the PR 6 retry plumbing (a fault-free run
# with a retry policy armed must stay free), the PR 7 replayable
# job-stream attach, the PR 8 estimator tier (the warm /v1/estimate
# microsecond path and the cold pre-screened adaptive sweep), the PR 9
# dispatch seam (a remote-forced sweep through a peer replica —
# routing, the internal shard hop, and reassembly on top of the
# computation), and the PR 10 latency-under-burst replay (the committed
# burst fixture verified record by record, reporting p99-ms/ttfl-ms).
# The alloc gate stays tight everywhere (alloc counts are
# machine-independent); CI loosens only BENCH_TOLERANCE because
# absolute ns/op is not comparable across host machines.
GATE_BENCH ?= Fig04SGEMMSummit|ExtCampaign|ServiceSweep|ServiceDispatchSweep|ServiceJobSubmitPoll|ServiceJobStreamAttach|ServiceStreamSweep|EngineClassedMap|EngineRetryOverhead|ServiceEstimate|AdaptiveSweep|ReplayBurst
BENCH_TOLERANCE ?= 0.25
BENCH_ALLOC_TOLERANCE ?= 0.25
# 100 iterations per sample (was 30x): on small or busy machines the
# short bursts had a heavy tail that flaked the ns/op gate; the longer
# sample keeps the gate's min-of-3 near steady state at a still-small
# wall cost.
bench-compare:
	$(GO) run ./cmd/benchjson -bench '$(GATE_BENCH)' -count 3 -benchtime 100x \
		-out /tmp/bench_gate.json -compare BENCH_11.json \
		-tolerance $(BENCH_TOLERANCE) -alloc-tolerance $(BENCH_ALLOC_TOLERANCE)

# perfbench runs the repository benchmark declared in BENCHMARK.json
# (one workload, one JSON result line; see perfbench/main.go). Pass
# PERFBENCH_ARGS to pick the run, e.g.
#   make perfbench PERFBENCH_ARGS='--workload paper-full --seed 101 --seconds 30 --trace 0'
PERFBENCH_ARGS ?= --workload paper-full --seed 1 --seconds 30 --trace 0
perfbench:
	bash perfbench/run.sh $(PERFBENCH_ARGS)

# perfbench-build vets and compiles the perfbench program (its own Go
# module, built against this checkout) without running it, so a change
# to an API perfbench calls fails verify instead of the benchmark.
perfbench-build:
	cd perfbench && $(GO) vet ./... && $(GO) build -o /dev/null ./...

figures:
	$(GO) run ./cmd/figures

# serve runs the experiment service (cmd/gpuvard) on :8080.
serve:
	$(GO) run ./cmd/gpuvard

# loadgen hammers a running gpuvard (start one with `make serve`).
loadgen:
	$(GO) run ./cmd/loadgen

# smoke is the end-to-end serving gate: build gpuvard, boot it, drive a
# short loadgen mix (figures + variant-axis sweep + async jobs) against
# it, and fail on any response failure or byte divergence. It then runs
# the resilience stages: a chaos pass under 30% injected transient
# shard faults with retries armed (byte-identity to the fault-free run,
# zero 5xx, degraded health status), a crash pass (kill -9 mid-jobs,
# reboot over the same -data-dir, journal replay asserted), and a
# distributed pass (3 replicas with -peers: fleet-wide byte-identity,
# the affinity-vs-roundrobin warm-placement comparison, and a replica
# killed mid-run with zero 5xx).
smoke:
	scripts/smoke.sh
