#!/bin/sh
# CI gate for the semsim repository. Three tiers, all required:
#
#   1. build + vet + full test suite        (functional correctness),
#      plus gofmt over every tracked .go file, plus vet + test of the
#      servebench module (its own go.mod, so the root ./... never
#      compiles it and an API change could break only the benchmark),
#      plus internal/obs repeated at -cpu 1,2,4 (bounded traces and
#      concurrent renders must hold at every CPU count),
#      plus the observability smoke test: starts the semsim serve
#      debug server, scrapes /metrics and asserts the core series,
#      then lints a live /metrics scrape with cmd/promlint (the 0.0.4
#      exposition-format gate), then drives the same live server with
#      cmd/loadgen for ~5s and asserts nonzero throughput, zero 5xx
#      and a sane p99 (the serving-SLO smoke: burn-rate gauges,
#      build_info and the profile counters are all in the linted
#      scrape), then the diagnostics smoke: the flight recorder and
#      heavy-hitters endpoints are live, the per-query cost histograms
#      observed the traffic, and `semsim diag` pulls /debug/diag into a
#      bundle whose flight records join the query log by request ID,
#      with /query events in both carrying their phase durations, and the
#      capacity smoke: datagen -stream emits a v3 walk file, convert
#      round-trips it through v2, and serve answers from it demand-paged
#      (-lazy-walks) under a tiny block-cache budget
#   2. full test suite under -race          (concurrency correctness —
#      the stress tests drive 8+ goroutines through one shared cached
#      Index and assert bit-identical results vs serial runs; includes
#      the internal/obs concurrent-instrument tests and the
#      cross-backend conformance harness of internal/engine), plus the
#      whole suite at -cpu 1,2,4 (the meet-index build and the scoring
#      pools split their work by GOMAXPROCS, so byte-identity and
#      strategy identity must hold at every CPU count), plus the
#      background shadow-reference builder's tests at -count=10
#   3. fuzz seed corpora as unit tests      (IO robustness regression,
#      plus the backend-agreement differential fuzzer's seeds, plus the
#      serve API fuzzer's: no panic, no 5xx, JSON bodies, sane answers)
#   4. bench drift guard                    (perf regression — reruns
#      the hot-path benchmarks and fails on ns/op drift beyond the
#      noise-sized BENCH_DRIFT_MAX bar, or any new allocation, vs the
#      committed BENCH_query.json baseline)
#
# Usage: ./ci.sh   (or: make ci)
set -eu

echo "==> tier 1: build"
go build ./...

echo "==> tier 1: vet (includes internal/obs)"
go vet ./...

echo "==> tier 1: tests"
go test ./...

echo "==> tier 1: gofmt (tracked .go files)"
unformatted=$(git ls-files '*.go' | xargs gofmt -l)
if [ -n "$unformatted" ]; then
    echo "$unformatted"
    echo "ci: gofmt -l lists the files above"; exit 1
fi

echo "==> tier 1: servebench module (vet + tests against this tree)"
(cd servebench && go vet ./... && go test ./...)

echo "==> tier 1: obs at every CPU count (span cap, concurrent renders)"
go test -count=3 -cpu 1,2,4 ./internal/obs/...

echo "==> tier 1: serve observability smoke test"
go test ./cmd/semsim/ -run TestServeSmoke -count=1

echo "==> tier 1: /metrics exposition lint (promlint scrape of a live server)"
tmpdir=$(mktemp -d)
trap 'rm -rf "$tmpdir"; [ -n "${serve_pid:-}" ] && kill "$serve_pid" 2>/dev/null || true' EXIT
go build -o "$tmpdir/semsim" ./cmd/semsim
go build -o "$tmpdir/loadgen" ./cmd/loadgen
go run ./cmd/datagen -dataset aminer -size 200 -seed 1 -out "$tmpdir/smoke.hin"
"$tmpdir/semsim" serve -graph "$tmpdir/smoke.hin" -debug-addr 127.0.0.1:0 \
    -nw 40 -t 6 -query-log "$tmpdir/query.ndjson" -query-log-max-bytes 262144 \
    -query-log-max-generations 8 \
    -slo-latency 250ms -slo-window 1m \
    -profile-p99 2s 2> "$tmpdir/serve.log" &
serve_pid=$!
addr=""
for _ in $(seq 1 100); do
    addr=$(sed -n 's|.*serving on http://\([0-9.:]*\).*|\1|p' "$tmpdir/serve.log")
    [ -n "$addr" ] && break
    kill -0 "$serve_pid" 2>/dev/null || { cat "$tmpdir/serve.log"; echo "ci: serve died"; exit 1; }
    sleep 0.2
done
[ -n "$addr" ] || { cat "$tmpdir/serve.log"; echo "ci: serve never bound"; exit 1; }
go run ./cmd/promlint -url "http://$addr/metrics"
echo "    /metrics exposition clean (incl. SLO, build_info and profiler series)"

echo "==> tier 1: loadgen smoke (5s closed loop + background /mutate churn)"
"$tmpdir/loadgen" -url "http://$addr" -graph "$tmpdir/smoke.hin" \
    -duration 5s -warmup 1s -concurrency 4 -seed 1 \
    -mutate-every 500ms -mutate-label co-author \
    -check-min-qps 1 -check-max-5xx 0 -check-max-p99 2s \
    -check-min-mutations 3 \
    -out "$tmpdir/loadgen.json"
grep -o '"throughput_qps": [0-9.]*' "$tmpdir/loadgen.json" \
    || { echo "ci: loadgen report missing throughput"; exit 1; }
grep -o '"final_epoch": [0-9]*' "$tmpdir/loadgen.json" \
    || { echo "ci: loadgen report missing the mutation epoch"; exit 1; }
# Re-lint the scrape after real traffic: the burn-rate gauges, the
# HTTP/query-log counters and the commit/epoch series are now nonzero
# and must still be clean.
go run ./cmd/promlint -url "http://$addr/metrics"
# Queries raced an epoch's worth of commits: the epoch gauge moved, no
# request failed (checked above), and shadow verification stayed flat —
# a critical drift would mean a query answered from a torn snapshot.
curl -sf "http://$addr/metrics" > "$tmpdir/metrics.after"
grep -q '^semsim_mutator_epoch [1-9]' "$tmpdir/metrics.after" \
    || { echo "ci: mutator epoch never advanced under churn"; exit 1; }
grep -q '^semsim_commit_seconds_count [1-9]' "$tmpdir/metrics.after" \
    || { echo "ci: commit latency was never recorded"; exit 1; }
if grep '^semsim_shadow_drift_total{severity="critical"}' "$tmpdir/metrics.after" \
    | grep -qv ' 0$'; then
    echo "ci: shadow verifier saw critical drift under mutate churn"; exit 1
fi
# The shadow reference is built in the background after readiness and
# after every commit; a reference that never publishes leaves every
# sample skipped and the verifier silent.
grep -q '^semsim_shadow_checked_total [1-9]' "$tmpdir/metrics.after" \
    || { echo "ci: shadow verifier checked nothing: no shadow reference was published"; exit 1; }
echo "==> tier 1: diagnostics bundle smoke (/debug/diag + semsim diag round-trip)"
# Flight recorder: the loadgen traffic above must be in the ring, and
# its deterministic lg-* request IDs must join back to the query log.
# The 4,096-slot ring holds well under a second of loadgen traffic, so
# whether one of loadgen's half-second commits is still in it is
# timing; the check commits one /mutate of its own, under a fixed
# request ID, right before the dump.
curl -sf -X POST -H 'X-Semsim-Request: ci-mutate-probe' \
    -d '{"ops":[{"op":"add_node","name":"ci-probe","label":"author"}]}' \
    "http://$addr/mutate" > /dev/null \
    || { echo "ci: the probe /mutate failed"; exit 1; }
curl -sf "http://$addr/debug/flight" > "$tmpdir/flight.ndjson"
grep -q '"request_id":"lg-1-' "$tmpdir/flight.ndjson" \
    || { echo "ci: flight recorder holds no loadgen request IDs"; exit 1; }
grep -q '"endpoint":"/mutate","request_id":"ci-mutate-probe"' "$tmpdir/flight.ndjson" \
    || { echo "ci: flight recorder missed the probe mutation commit"; exit 1; }
curl -sf "http://$addr/debug/heavy" > "$tmpdir/heavy.json"
grep -q '"count":' "$tmpdir/heavy.json" \
    || { echo "ci: heavy-hitters tracker is empty after loadgen traffic"; exit 1; }
grep -q '^semsim_query_cost_walk_steps_count [1-9]' "$tmpdir/metrics.after" \
    || { echo "ci: per-query cost histograms never observed a request"; exit 1; }
"$tmpdir/semsim" diag -addr "$addr" -out "$tmpdir/diag" > "$tmpdir/diag.log"
for entry in metrics.prom expvar.json flight.ndjson profiles.json slo.json heavy.json buildinfo.json; do
    [ -s "$tmpdir/diag/$entry" ] \
        || { cat "$tmpdir/diag.log"; echo "ci: diag bundle entry $entry missing or empty"; exit 1; }
done
# A read's event carries its phase split: resolve, score and encode.
phases='"endpoint":"/query".*"resolve_ns":[1-9][0-9]*,"score_ns":[1-9][0-9]*,"encode_ns":[1-9]'
grep -q "$phases" "$tmpdir/diag/flight.ndjson" \
    || { echo "ci: no bundled /query flight record carries its phase durations"; exit 1; }
grep -q '"enabled": true' "$tmpdir/diag/slo.json" \
    || { echo "ci: diag slo.json does not reflect the armed SLO tracker"; exit 1; }
# The bundled flight dump joins to the query log by request ID. The
# log rotates under traffic, so -query-log-max-generations above must
# keep enough generations to still hold the earliest request; search
# every generation.
join_id=$(sed -n 's|.*"endpoint":"/query","request_id":"\(lg-1-[0-9]*\)".*|\1|p' "$tmpdir/diag/flight.ndjson" | head -1)
[ -n "$join_id" ] || { echo "ci: bundled flight dump holds no loadgen /query record"; exit 1; }
cat "$tmpdir"/query.ndjson* | grep -q "\"request_id\":\"$join_id\"" \
    || { echo "ci: flight request $join_id has no query-log line"; exit 1; }
echo "    diag bundle green (flight/heavy/cost series live, bundle joins to query log)"

kill "$serve_pid"
wait "$serve_pid" 2>/dev/null || true
serve_pid=""
[ -f "$tmpdir/query.ndjson" ] || { echo "ci: -query-log file was never created"; exit 1; }
cat "$tmpdir"/query.ndjson* | grep -q "$phases" \
    || { echo "ci: no /query line of the query log carries its phase durations"; exit 1; }
grep -q "final metrics snapshot" "$tmpdir/serve.log" \
    || { echo "ci: serve shutdown never logged the final snapshot"; exit 1; }
echo "    loadgen smoke green (report at loadgen.json, phases logged, final snapshot logged)"

echo "==> tier 1: streaming v3 build + lazy serve smoke"
# End to end million-node-capacity path at smoke scale: datagen -stream
# emits a v3 walk file without materializing the walk slab, convert
# round-trips it through v2, and serve answers from the v3 file
# demand-paged under a deliberately tiny block-cache budget.
go run ./cmd/datagen -dataset amazon -size 300 -seed 2 -out "$tmpdir/stream.hin" \
    -walks "$tmpdir/stream.walks" -stream -nw 40 -t 6 -walk-seed 1
"$tmpdir/semsim" convert -graph "$tmpdir/stream.hin" \
    -in "$tmpdir/stream.walks" -out "$tmpdir/stream.walks.v2" -walk-format v2
"$tmpdir/semsim" convert -graph "$tmpdir/stream.hin" \
    -in "$tmpdir/stream.walks.v2" -out "$tmpdir/stream.walks.rt" -walk-format v3
cmp "$tmpdir/stream.walks" "$tmpdir/stream.walks.rt" \
    || { echo "ci: v3 -> v2 -> v3 convert round-trip diverged"; exit 1; }
"$tmpdir/semsim" serve -graph "$tmpdir/stream.hin" -debug-addr 127.0.0.1:0 \
    -nw 40 -t 6 -load-walks "$tmpdir/stream.walks" \
    -lazy-walks -walk-cache-bytes 65536 2> "$tmpdir/serve-lazy.log" &
serve_pid=$!
addr=""
for _ in $(seq 1 100); do
    addr=$(sed -n 's|.*serving on http://\([0-9.:]*\).*|\1|p' "$tmpdir/serve-lazy.log")
    [ -n "$addr" ] && break
    kill -0 "$serve_pid" 2>/dev/null || { cat "$tmpdir/serve-lazy.log"; echo "ci: lazy serve died"; exit 1; }
    sleep 0.2
done
[ -n "$addr" ] || { cat "$tmpdir/serve-lazy.log"; echo "ci: lazy serve never bound"; exit 1; }
curl -sf "http://$addr/metrics" > "$tmpdir/metrics.lazy"
grep -q 'walk_residency="lazy"' "$tmpdir/metrics.lazy" \
    || { echo "ci: build_info does not report lazy residency"; exit 1; }
grep -q '^semsim_walk_cache_misses_total [1-9]' "$tmpdir/metrics.lazy" \
    || { echo "ci: lazy serve never decoded a block (cache misses flat)"; exit 1; }
# The walk-cache series only exist on a lazy server; lint them too.
go run ./cmd/promlint -url "http://$addr/metrics"
curl -sf "http://$addr/query?u=item-1&v=item-2" > /dev/null \
    || { echo "ci: lazy serve query failed"; exit 1; }
kill "$serve_pid"
wait "$serve_pid" 2>/dev/null || true
serve_pid=""
echo "    streaming build + convert round-trip + lazy serve green"

echo "==> tier 2: race detector"
go test -race ./...

echo "==> tier 2: whole suite at every CPU count (meet-index build and scoring pools split by GOMAXPROCS)"
go test -count=1 -cpu 1,2,4 ./...

echo "==> tier 2: obs instruments under race"
go test -race ./internal/obs/

echo "==> tier 2: backend conformance under race"
go test -race ./internal/engine/...

echo "==> tier 2: mutator churn stress under race"
go test -race -run 'TestMutatorChurnStress|TestMutatorSnapshotIsolation' -count=1 .

echo "==> tier 2: background shadow reference builder under race"
go test -race -count=10 -timeout 300s \
    -run 'TestShadowEndToEnd|TestShadowSkipsUntilReference|TestShadowNewestEpochWins|TestShadowCloseStopsInFlightBuild|TestSolveStopsAtNextSweep' \
    . ./internal/engine/

echo "==> tier 3: fuzz seed corpora"
go test ./internal/walk/ -run Fuzz
go test ./internal/engine/conformance/ -run Fuzz
go test ./cmd/semsim/ -run Fuzz

echo "==> tier 4: bench drift guard (hot paths vs BENCH_query.json)"
make bench-drift

echo "==> ci: all tiers green"
