#!/usr/bin/env bash
# End-to-end serving smoke: build gpuvard, boot it, and drive a short
# concurrent loadgen mix — figures, a variant-axis sweep, the async job
# path (submit → poll progress → fetch result), and the streaming
# endpoints (NDJSON reassembled and checked byte-identical to the
# synchronous responses, time-to-first-line reported) — asserting zero
# failed responses and byte-identity across every path. CI runs this as
# its integration job so the serving stack is exercised by a real
# server process, not just httptest.
#
# A replay stage drives the committed burst-workload trace
# (testdata/traces/burst.trace) through loadgen -replay twice: both
# passes must verify every record against its oracle (zero mismatches,
# loadgen exits nonzero otherwise), the two run digests must be
# identical (replay determinism against a live server process), and the
# per-phase p99 / stream-TTFL lines are surfaced in the CI log. The
# clean server also records its own traffic (-record-trace), and the
# capture is checked for the versioned header and a sane record count.
#
# An estimator stage drives the analytical tier: a 256-value
# /v1/estimate (8x the full-simulation cap) must answer with estimated
# points, the same axis as a plain sweep must be refused with
# bad_values, and loadgen -estimate verifies a 64-value adaptive sweep
# simulates at most half the axis with its simulated points
# literal-identical to a plain sweep of those values.
#
# A multi-tenant stage then drives the job path as 4 distinct client
# identities (loadgen -clients 4 -api-key smoke) and asserts the
# per-client accounting surfaces on /v1/stats and the Prometheus
# /metrics exposition, a finished job's stream replays through a
# terminal summary line, responses carry X-Request-ID, and the retired
# spellings (the caps_w sweep field, GET /healthz) answer 400 and 404.
#
# A distributed stage boots a 3-replica fleet wired together with
# -peers and asserts the dispatch layer's contracts: byte-identity with
# the single-process reference from any replica, affinity routing
# beating round-robin on warm-fleet-cache shard placement (via the
# gpuvar_dispatch_warm_shards_total counters), the /v1/ discovery
# document, the internal shard route refusing external clients, and a
# replica killed mid-run costing zero 5xx — its shards retry onto the
# survivors.
#
# Two resilience stages follow the clean run:
#   chaos    reboot gpuvard with 30% transient shard faults injected
#            (-faults 'engine.shard.pre=error:0.3') and retries armed,
#            assert the sweep bytes match the fault-free run exactly,
#            drive the loadgen mix with zero 5xx, and check /v1/healthz
#            reports status "degraded" while the registry is armed.
#   crash    boot with a -data-dir job journal, finish a job, submit a
#            burst more, kill -9 mid-flight, reboot over the same data
#            dir, and assert the finished job replays byte-identically
#            while every interrupted job resolves to an explicit
#            terminal state instead of a vanished ID.
set -Eeuo pipefail
cd "$(dirname "$0")/.."

ADDR="${SMOKE_ADDR:-127.0.0.1:18080}"
DURATION="${SMOKE_DURATION:-8s}"
WORK="$(mktemp -d)"
BIN="$WORK/gpuvard"
LOG="$WORK/gpuvard.log"
SERVER_PID=""

echo "==> smoke: building gpuvard and loadgen"
go build -o "$BIN" ./cmd/gpuvard
go build -o "$WORK/loadgen" ./cmd/loadgen

stop_server() {
    [ -n "$SERVER_PID" ] || return 0
    kill "$SERVER_PID" 2>/dev/null || true
    wait "$SERVER_PID" 2>/dev/null || true
    SERVER_PID=""
}
REPLICA_PIDS=""
stop_replicas() {
    for p in $REPLICA_PIDS; do
        kill "$p" 2>/dev/null || true
        wait "$p" 2>/dev/null || true
    done
    REPLICA_PIDS=""
}
trap 'stop_server; stop_replicas' EXIT

# boot_server FLAGS... — start gpuvard on $ADDR and wait for the
# listener (no curl dependency: bash opens the TCP port itself).
boot_server() {
    "$BIN" -addr "$ADDR" "$@" >"$LOG" 2>&1 &
    SERVER_PID=$!
    for i in $(seq 1 100); do
        if (exec 3<>"/dev/tcp/${ADDR%:*}/${ADDR#*:}") 2>/dev/null; then
            exec 3>&- 3<&- || true
            return 0
        fi
        if ! kill -0 "$SERVER_PID" 2>/dev/null; then
            echo "smoke: gpuvard died during startup:" >&2
            cat "$LOG" >&2
            exit 1
        fi
        sleep 0.1
    done
    echo "smoke: gpuvard did not start listening on $ADDR" >&2
    exit 1
}

# http METHOD PATH [BODY] — one raw HTTP/1.0 exchange over /dev/tcp,
# printing the full response (status line, headers, body).
http() {
    local method=$1 path=$2 body=${3:-}
    exec 3<>"/dev/tcp/${ADDR%:*}/${ADDR#*:}"
    {
        printf '%s %s HTTP/1.0\r\n' "$method" "$path"
        printf 'Host: %s\r\n' "$ADDR"
        if [ -n "$body" ]; then
            printf 'Content-Type: application/json\r\n'
            printf 'Content-Length: %s\r\n' "${#body}"
        fi
        printf '\r\n'
        printf '%s' "$body"
    } >&3
    cat <&3
    exec 3>&- 3<&- || true
}

# http_body METHOD PATH [BODY] — the response body alone.
http_body() {
    http "$@" | sed '1,/^\r*$/d'
}

SWEEP_BODY='{"cluster":"CloudLab","axis":"powercap","values":[300,250,200]}'

echo "==> smoke: booting gpuvard on $ADDR (recording traffic)"
boot_server -record-trace "$WORK/live.trace"

echo "==> smoke: replay — committed burst trace, determinism + latency under burst"
# The fixture's oracle was filled against a default-flag server, which
# is exactly what is running; loadgen -replay verifies every record
# (status + response sha256) and exits nonzero on any mismatch. Two
# passes must also agree on the run digest — replay determinism over a
# real server process, not just httptest.
"$WORK/loadgen" -url "http://$ADDR" -replay testdata/traces/burst.trace \
    | tee "$WORK/replay1.out"
"$WORK/loadgen" -url "http://$ADDR" -replay testdata/traces/burst.trace \
    | tee "$WORK/replay2.out"
for f in replay1 replay2; do
    if ! grep -q '^stream TTFL: ' "$WORK/$f.out"; then
        echo "smoke: $f reported no stream TTFL percentiles" >&2
        exit 1
    fi
done
D1=$(grep '^digest: ' "$WORK/replay1.out")
D2=$(grep '^digest: ' "$WORK/replay2.out")
if [ -z "$D1" ] || [ "$D1" != "$D2" ]; then
    echo "smoke: replay digests diverged between runs: '$D1' vs '$D2'" >&2
    exit 1
fi
echo "smoke: replay determinism OK ($D1)"

echo "==> smoke: loadgen mix (figures + sweep + async jobs + streams) for $DURATION"
"$WORK/loadgen" -url "http://$ADDR" \
    -paths /v1/figures/fig2,/v1/figures/tab1,/v1/experiments/sgemm?cluster=CloudLab \
    -sweep "$SWEEP_BODY" \
    -jobs -stream \
    -c 16 -duration "$DURATION"

echo "==> smoke: exercising the remaining axes synchronously and streamed"
"$WORK/loadgen" -url "http://$ADDR" \
    -paths /v1/figures/tab1 \
    -sweep '{"cluster":"CloudLab","axis":"seed","values":[7,8]}' \
    -stream -c 4 -n 32
"$WORK/loadgen" -url "http://$ADDR" \
    -paths /v1/figures/tab1 \
    -sweep '{"cluster":"CloudLab","axis":"ambient","values":[-2,2]}' \
    -stream -c 4 -n 32
"$WORK/loadgen" -url "http://$ADDR" \
    -paths /v1/figures/tab1 \
    -sweep '{"cluster":"CloudLab","axis":"fraction","values":[1,0.5]}' \
    -stream -c 4 -n 32

echo "==> smoke: estimator tier — /v1/estimate + adaptive pre-screened sweep"
# A 256-value power-cap axis (8x the full-simulation cap) must answer
# from the calibrated closed form, every point marked estimated.
EST_VALUES=$(seq -s, 45 300)
EST_RESP=$(http_body POST /v1/estimate "{\"cluster\":\"CloudLab\",\"axis\":\"powercap\",\"values\":[$EST_VALUES]}")
if ! echo "$EST_RESP" | grep -q '"source": *"estimated"'; then
    echo "smoke: /v1/estimate response carries no estimated points: $(echo "$EST_RESP" | head -c 300)" >&2
    exit 1
fi
# The same axis as a plain sweep must be refused with the bad_values
# code naming the full-simulation limit.
CAP_RESP=$(http POST /v1/sweep "{\"cluster\":\"CloudLab\",\"axis\":\"powercap\",\"values\":[$EST_VALUES]}")
if ! echo "$CAP_RESP" | grep -q '400'; then
    echo "smoke: a 256-value plain sweep was not refused" >&2
    exit 1
fi
if ! echo "$CAP_RESP" | grep -q '"bad_values"'; then
    echo "smoke: the over-cap sweep rejection lacks the bad_values code" >&2
    exit 1
fi
# loadgen -estimate drives /v1/estimate and an adaptive sweep through
# the byte-identity mix, then verifies the mixed response structurally:
# sources marked, bounds present, <= half the axis simulated, and the
# simulated points literal-identical to a plain sweep of those values.
"$WORK/loadgen" -url "http://$ADDR" \
    -paths /v1/figures/tab1 \
    -sweep '{"cluster":"CloudLab","axis":"powercap","values":[100,103,106,110,113,116,119,122,125,129,132,135,138,141,144,148,151,154,157,160,163,167,170,173,176,179,183,186,189,192,195,198,202,205,208,211,214,217,221,224,227,230,233,237,240,243,246,249,252,256,259,262,265,268,271,275,278,281,284,287,290,294,297,300]}' \
    -estimate -threshold 0.05 -c 4 -n 48

echo "==> smoke: multi-tenant — 4 client identities through the job path"
"$WORK/loadgen" -url "http://$ADDR" \
    -paths /v1/figures/tab1 \
    -sweep "$SWEEP_BODY" -jobs \
    -clients 4 -api-key smoke \
    -c 8 -n 64

# Per-client accounting must surface on /v1/stats and the Prometheus
# exposition at /metrics.
STATS=$(http_body GET /v1/stats)
for c in smoke-0 smoke-1 smoke-2 smoke-3; do
    if ! echo "$STATS" | grep -q "\"client\":\"$c\""; then
        echo "smoke: /v1/stats lacks per-client counters for $c" >&2
        exit 1
    fi
done
METRICS=$(http_body GET /metrics)
if ! echo "$METRICS" | grep -q '^gpuvar_client_served_total{client="smoke-0"} '; then
    echo "smoke: /metrics lacks the per-client served counter" >&2
    exit 1
fi
if ! echo "$METRICS" | grep -q '^# TYPE gpuvar_jobs_total counter'; then
    echo "smoke: /metrics is missing the gpuvar_jobs_total counter family" >&2
    exit 1
fi

# The replayable job stream: a finished job's stream replays from the
# start line through a terminal summary over a plain GET.
STREAM_ID=$(http_body POST /v1/jobs '{"kind":"sweep","sweep":{"cluster":"CloudLab","axis":"powercap","values":[300,250]}}' \
    | grep -Eo '"id": *"[^"]*"' | head -1 | cut -d'"' -f4)
[ -n "$STREAM_ID" ] || { echo "smoke: stream job submission returned no id" >&2; exit 1; }
if ! http_body GET "/v1/jobs/$STREAM_ID/stream" | tail -1 | grep -q '"kind":"summary"'; then
    echo "smoke: job stream did not end with a summary line" >&2
    exit 1
fi

# Front-door headers: every response carries a request id. The retired
# spellings are gone: caps_w is an unknown sweep field (400), and the
# unversioned /healthz is an unknown route (404).
if ! http GET /v1/healthz | grep -qi '^X-Request-Id:'; then
    echo "smoke: responses are missing X-Request-ID" >&2
    exit 1
fi
CAPSW_RESP=$(http POST /v1/sweep '{"cluster":"CloudLab","caps_w":[300,250,200]}')
if ! echo "$CAPSW_RESP" | head -1 | grep -q ' 400 '; then
    echo "smoke: the retired caps_w sweep spelling does not answer 400" >&2
    exit 1
fi
HEALTHZ_RESP=$(http GET /healthz)
if ! echo "$HEALTHZ_RESP" | head -1 | grep -q ' 404 ' || ! echo "$HEALTHZ_RESP" | grep -q '"unknown_route"'; then
    echo "smoke: the retired /healthz route does not answer 404 unknown_route" >&2
    exit 1
fi
# The discovery document enumerates the API surface, marking stability.
DISCOVERY=$(http_body GET /v1/)
for want in '"path":"/v1/sweep"' '"stability":"internal"' '"path":"/v1/internal/shards"'; do
    if ! echo "$DISCOVERY" | tr -d ' \n' | grep -q "$want"; then
        echo "smoke: GET /v1/ discovery document lacks $want" >&2
        exit 1
    fi
done

# The fault-free reference for the chaos stage, captured before the
# clean server goes away.
http_body POST /v1/sweep "$SWEEP_BODY" >"$WORK/sweep.clean"

# The clean server has been recording its replayable traffic the whole
# time (-record-trace): the capture must open with the versioned header
# and hold at least the replayed burst records (the recorder flushes
# per record, so the live file is always an intact prefix).
if ! head -1 "$WORK/live.trace" | grep -q '"trace": *"gpuvar-traffic"'; then
    echo "smoke: recorded trace lacks the gpuvar-traffic header:" >&2
    head -1 "$WORK/live.trace" >&2
    exit 1
fi
REC_N=$(grep -c '"offset_us"' "$WORK/live.trace" || true)
if [ "$REC_N" -lt 100 ]; then
    echo "smoke: recorded trace holds only $REC_N records after the full clean stage" >&2
    exit 1
fi
if ! http_body GET /v1/stats | grep -q '"traffic":'; then
    echo "smoke: /v1/stats does not surface the recorder counters while recording" >&2
    exit 1
fi
echo "smoke: recorder captured $REC_N replayable records"

echo "==> smoke: chaos — 30% transient shard faults, retries armed"
stop_server
boot_server -faults 'engine.shard.pre=error:0.3' -retries 12

# The golden bar: bytes under chaos are the fault-free bytes.
http_body POST /v1/sweep "$SWEEP_BODY" >"$WORK/sweep.chaos"
if ! cmp -s "$WORK/sweep.clean" "$WORK/sweep.chaos"; then
    echo "smoke: sweep bytes under 30% faults diverge from the fault-free run" >&2
    exit 1
fi

# The mix must survive with byte-identity and zero 5xx: loadgen exits
# nonzero on any failed or diverging response, and prints an 'aborted:'
# line only if the server shed anything with 504/499.
"$WORK/loadgen" -url "http://$ADDR" \
    -paths /v1/figures/fig2,/v1/experiments/sgemm?cluster=CloudLab \
    -sweep "$SWEEP_BODY" -jobs \
    -c 8 -n 128 | tee "$WORK/chaos.out"
if grep -q '^aborted:' "$WORK/chaos.out"; then
    echo "smoke: server shed responses under chaos; want zero 5xx with retries armed" >&2
    exit 1
fi

# An armed fault registry must surface on the health probe.
if ! http GET /v1/healthz | grep -q '"status":"degraded"'; then
    echo "smoke: healthz does not report degraded while faults are armed" >&2
    exit 1
fi
if ! http GET /v1/stats | grep -q '"injected":'; then
    echo "smoke: stats do not report the fault-injection counters" >&2
    exit 1
fi

echo "==> smoke: crash — kill -9 mid-jobs, journal recovery on reboot"
stop_server
DATA_DIR="$WORK/data"
boot_server -data-dir "$DATA_DIR"

# Finish one job cleanly and keep its bytes.
JOB_BODY='{"kind":"sweep","sweep":{"cluster":"CloudLab","axis":"powercap","values":[300,250]}}'
DONE_ID=$(http_body POST /v1/jobs "$JOB_BODY" | grep -Eo '"id": *"[^"]*"' | head -1 | cut -d'"' -f4)
[ -n "$DONE_ID" ] || { echo "smoke: job submission returned no id" >&2; exit 1; }
for i in $(seq 1 200); do
    if http_body GET "/v1/jobs/$DONE_ID" | grep -Eq '"state": *"done"'; then
        break
    fi
    sleep 0.1
    if [ "$i" = 200 ]; then
        echo "smoke: job $DONE_ID never finished" >&2
        exit 1
    fi
done
http_body GET "/v1/jobs/$DONE_ID/result" >"$WORK/job.result"

# Burst more jobs and kill -9 while they are in flight.
BURST_IDS=""
for i in $(seq 1 6); do
    id=$(http_body POST /v1/jobs "$JOB_BODY" | grep -Eo '"id": *"[^"]*"' | head -1 | cut -d'"' -f4)
    BURST_IDS="$BURST_IDS $id"
done
kill -9 "$SERVER_PID" 2>/dev/null || true
wait "$SERVER_PID" 2>/dev/null || true
SERVER_PID=""

boot_server -data-dir "$DATA_DIR"
http_body GET "/v1/jobs/$DONE_ID/result" >"$WORK/job.result.replayed"
if ! cmp -s "$WORK/job.result" "$WORK/job.result.replayed"; then
    echo "smoke: replayed job result differs from the pre-crash bytes" >&2
    exit 1
fi
# Every job submitted before the crash resolves to an explicit terminal
# state — done if its terminal record landed, failed-as-interrupted
# otherwise — never a vanished ID.
for id in $BURST_IDS; do
    status=$(http_body GET "/v1/jobs/$id")
    if ! echo "$status" | grep -Eq '"state": *"(done|failed|canceled)"'; then
        echo "smoke: job $id did not resolve to a terminal state after recovery: $status" >&2
        exit 1
    fi
done
if ! http GET /v1/stats | grep -q '"recovered_terminal":'; then
    echo "smoke: stats do not report journal recovery counters" >&2
    exit 1
fi

echo "==> smoke: distributed — 3 replicas, shard dispatch, kill-one-survive"
stop_server
REP1="127.0.0.1:18081"
REP2="127.0.0.1:18082"
REP3="127.0.0.1:18083"
PEERS="http://$REP1,http://$REP2,http://$REP3"

# boot_replica ADDR FLAGS... — start one fleet member and wait for its
# listener; the PID lands in LAST_PID (and in the cleanup list).
boot_replica() {
    local addr=$1
    shift
    "$BIN" -addr "$addr" -self-url "http://$addr" -peers "$PEERS" -peer-probe 250ms "$@" \
        >"$WORK/rep-${addr#*:}.log" 2>&1 &
    LAST_PID=$!
    REPLICA_PIDS="$REPLICA_PIDS $LAST_PID"
    for i in $(seq 1 100); do
        if (exec 3<>"/dev/tcp/${addr%:*}/${addr#*:}") 2>/dev/null; then
            exec 3>&- 3<&- || true
            return 0
        fi
        if ! kill -0 "$LAST_PID" 2>/dev/null; then
            echo "smoke: replica on $addr died during startup:" >&2
            cat "$WORK/rep-${addr#*:}.log" >&2
            exit 1
        fi
        sleep 0.1
    done
    echo "smoke: replica did not start listening on $addr" >&2
    exit 1
}

# wait_fleet — block until every replica's prober has admitted both of
# its peers (2x "healthy":true on each /v1/replicas).
wait_fleet() {
    local addr n
    for addr in $REP1 $REP2 $REP3; do
        for i in $(seq 1 100); do
            n=$(ADDR=$addr http_body GET /v1/replicas | grep -o '"healthy": *true' | wc -l)
            [ "$n" -ge 2 ] && continue 2
            sleep 0.1
        done
        echo "smoke: replica $addr never saw both peers healthy" >&2
        exit 1
    done
}

# warm_shards ADDR — the replica's warm-placement counter (0 before any
# dispatch).
warm_shards() {
    ADDR=$1 http_body GET /metrics \
        | sed -n 's/^gpuvar_dispatch_warm_shards_total{warmth="warm"} //p' \
        | grep . || echo 0
}

# The two-pass warm-placement probe: a seed-axis sweep gives every
# shard its own fleet, so pass 1 is all cold everywhere; pass 2 (same
# seeds, a different response-cache key via runs=2) is warm exactly
# when a shard lands on the replica that instantiated its fleet in
# pass 1. Affinity guarantees that for all 8 shards; round-robin's
# rotation offset shifts pass 2 off pass 1 (8 shards mod 3 replicas
# leaves a nonzero offset, so the rotation cannot realign).
SEED_PASS1='{"cluster":"CloudLab","axis":"seed","values":[9901,9902,9903,9904,9905,9906,9907,9908]}'
SEED_PASS2='{"cluster":"CloudLab","runs":2,"axis":"seed","values":[9901,9902,9903,9904,9905,9906,9907,9908]}'
warm_probe() {
    ADDR=$REP1 http_body POST /v1/sweep "$SEED_PASS1" >/dev/null
    ADDR=$REP1 http_body POST /v1/sweep "$SEED_PASS2" >/dev/null
    warm_shards "$REP1"
}

boot_replica "$REP1" -route-policy affinity
boot_replica "$REP2" -route-policy affinity
R3_PID=""
boot_replica "$REP3" -route-policy affinity
R3_PID=$LAST_PID
wait_fleet

# The internal shard route is fleet-only: an external client identity
# (or no dispatch marker at all) is refused.
if ! ADDR=$REP1 http POST /v1/internal/shards '{"sweep":{"values":[300]},"indices":[0]}' | grep -q ' 403 '; then
    echo "smoke: /v1/internal/shards accepted an unmarked external request" >&2
    exit 1
fi

AFF_WARM=$(warm_probe)
if [ "$AFF_WARM" -ne 8 ]; then
    echo "smoke: affinity warm placements = $AFF_WARM of 8 — rendezvous routing is not keeping fleets warm" >&2
    exit 1
fi

# Byte-identity across the fleet: every replica must serve the exact
# bytes the single-process server produced, shards dispatched or not.
for addr in $REP1 $REP2 $REP3; do
    ADDR=$addr http_body POST /v1/sweep "$SWEEP_BODY" >"$WORK/sweep.$addr"
    if ! cmp -s "$WORK/sweep.clean" "$WORK/sweep.$addr"; then
        echo "smoke: replica $addr sweep bytes diverge from the single-process reference" >&2
        exit 1
    fi
done

# loadgen rotating over all three replicas: same request, any replica,
# same bytes, under concurrency.
"$WORK/loadgen" -url "http://$REP1,http://$REP2,http://$REP3" \
    -paths /v1/figures/tab1 \
    -sweep "$SWEEP_BODY" \
    -c 8 -n 96

# Kill one replica mid-run: fresh (uncached, dispatching) sweeps must
# keep answering 200 — the dead peer's shards are ejected on first
# error and retried onto the survivors.
kill -9 "$R3_PID" 2>/dev/null || true
wait "$R3_PID" 2>/dev/null || true
REPLICA_PIDS=$(echo "$REPLICA_PIDS" | sed "s/ $R3_PID//")
for s in 9801 9802 9803 9804 9805 9806; do
    STATUS=$(ADDR=$REP1 http POST /v1/sweep "{\"cluster\":\"CloudLab\",\"axis\":\"seed\",\"values\":[$s,$((s+50))]}" | head -1)
    if ! echo "$STATUS" | grep -q ' 200 '; then
        echo "smoke: sweep after replica kill answered '$STATUS', want 200 via retry-to-survivor" >&2
        exit 1
    fi
done
# The dead peer must leave the routing candidate set — either the first
# failed shard ejected it on the spot, or the next health probe (250ms
# cadence) did; give the prober a moment.
EJECTED=""
for i in $(seq 1 50); do
    if ADDR=$REP1 http_body GET /metrics | grep -q '^gpuvar_dispatch_peer_ejections_total{peer="http://'$REP3'"} [1-9]'; then
        EJECTED=yes
        break
    fi
    sleep 0.1
done
if [ -z "$EJECTED" ]; then
    echo "smoke: the killed replica was never ejected on $REP1" >&2
    exit 1
fi
stop_replicas

# Same probe under round-robin: the rotation has no cache alignment, so
# it must warm strictly fewer placements than affinity's 8/8.
boot_replica "$REP1" -route-policy roundrobin
boot_replica "$REP2" -route-policy roundrobin
boot_replica "$REP3" -route-policy roundrobin
wait_fleet
RR_WARM=$(warm_probe)
stop_replicas
if [ "$AFF_WARM" -le "$RR_WARM" ]; then
    echo "smoke: affinity warm placements ($AFF_WARM) do not beat round-robin ($RR_WARM)" >&2
    exit 1
fi
echo "smoke: affinity warm placements $AFF_WARM/8 vs round-robin $RR_WARM/8"

echo "smoke: OK"
