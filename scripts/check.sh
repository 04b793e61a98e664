#!/usr/bin/env bash
# Repository health check: static analysis, full build, race-enabled tests
# on the hot-path packages (plus the full suite), and a short benchmark
# smoke run proving the benchmarks still execute. CI and pre-commit both
# call this; README "Development" documents it.
set -euo pipefail
cd "$(dirname "$0")/.."

# `check.sh chaos` runs only the fault-injection soak: the full stack under
# -race with deterministic faults at every site (WAL, compaction, snapshot
# rename, job errors + panics, HTTP handlers, client requests), asserting
# the traced factors stay bit-identical to a fault-free run.
if [[ "${1:-}" == "chaos" ]]; then
    echo "== chaos soak (-race, deterministic fault injection, fixed seed)"
    go test -race -run 'TestChaosSoak' -count=1 -v ./internal/server/
    exit 0
fi

# pin runs one pinned test and fails unless that test ran and passed: a
# -run pattern that names no test still prints PASS and exits 0.
pin() {
    local test="$1" pkg="$2" out
    out="$(go test -run="^${test}\$" -count=1 -v "$pkg")" || { echo "$out"; return 1; }
    grep -E 'PASS|FAIL|allocates' <<<"$out"
    if ! grep -qF -- "--- PASS: ${test} (" <<<"$out"; then
        echo "FAIL: pin ${test} did not run in ${pkg}"
        return 1
    fi
}

echo "== go vet ./..."
go vet ./...

echo "== go build ./..."
go build ./...

echo "== go test -race (hot paths: nn, core, bitset, protocol)"
go test -race ./internal/nn/... ./internal/core/... ./internal/bitset/... ./internal/protocol/...

echo "== go test -race (service layer: store, jobs, server, telemetry, flight)"
go test -race ./internal/store/... ./internal/jobs/... ./internal/server/... ./internal/telemetry/... ./internal/flight/...

echo "== go test -race (valuation engine + round stream + FL trainer, parallel paths exercised)"
go test -race ./internal/valuation/... ./internal/rounds/... ./internal/fl/...
go test -race -count=10 -run='FirstRoundMemo' ./internal/fl/
go test -race -short ./internal/experiments/...

echo "== go test -race (adversarial robustness: attack matrix + ContAvg defense)"
go test -race ./internal/attack/...

echo "== attack-matrix smoke (one attack x one scheme through both valuation paths)"
go test -run=TestMatrixAcrossWorkers -count=1 ./internal/attack/

echo "== go test ./... (full suite)"
go test ./...

echo "== zero-alloc pins (training hot loop; disabled fault injector; cached utility)"
pin TestTrainInnerLoopZeroAlloc ./internal/nn/
pin TestDisabledInjectorZeroAlloc ./internal/faults/
pin TestUtilityCacheHitZeroAlloc ./internal/valuation/

echo "== first-round memo pins (schemes bit-identical with it; each round 0 trained once, never aliased)"
pin TestOracleFirstRoundMemoMatchesPlainTrain ./internal/valuation/
pin TestFirstRoundMemoTrainsOnce ./internal/fl/
pin TestFirstRoundMemoNotAliased ./internal/fl/

echo "== shared tracing index pins (one build per tracer-input generation, bit-identical to a fresh build; round ingest keeps the trace cache)"
pin TestTraceIndexBuiltOncePerGeneration ./internal/server/
pin TestRoundIngestKeepsTraceCache ./internal/server/
pin TestPropertyWithParamsMatchesFreshBuildRandom ./internal/core/
go test -race -count=5 -run='^TestTraceIndexBuiltOncePerGeneration$' ./internal/server/

echo "== upload-held-once pins (the index build's decoder matches the per-frame decode; the record count survives replay; fuzz seed corpus)"
pin TestDecodeTrainingRecordsMatchesToTrainingUploads ./internal/protocol/
pin TestRecordsCountSurvivesRestart ./internal/server/
pin FuzzDecodeTrainingRecords ./internal/protocol/

echo "== zero-alloc pins (wire-protocol ingest + predict hot paths)"
pin TestValidateUploadFrameZeroAlloc ./internal/protocol/
pin TestValidateRoundUpdateFrameZeroAlloc ./internal/protocol/
pin TestBinarizedScoreBatchZeroAlloc ./internal/nn/

echo "== zero-alloc pin (per-coalition scorer of the round stream)"
pin TestCountCorrectZeroAlloc ./internal/nn/

echo "== zero-alloc pin (flight recorder steady state)"
pin TestRecordSteadyStateZeroAlloc ./internal/flight/

echo "== fuzz smoke (wire-protocol decoders, 3s each)"
for tgt in FuzzReadUpload FuzzDecodeTrainingRecords FuzzParseFrame FuzzPredictRequest FuzzTraceResult FuzzRoundUpdate FuzzScoresSnapshot FuzzFlightEvents FuzzWALSegment; do
    go test -run=NONE -fuzz="^${tgt}\$" -fuzztime=3s ./internal/protocol/ | tail -1
done

echo "== bench smoke (1 iteration per hot-path benchmark)"
go test -run=NONE -bench='BenchmarkTraceIndexed|BenchmarkNewTracer|BenchmarkTrainEpochs' -benchtime=1x \
    ./internal/core/ ./internal/nn/
go test -run=NONE -bench='BenchmarkCountCorrect|BenchmarkPredictBatch' -benchtime=1x \
    ./internal/nn/
go test -run=NONE -bench='BenchmarkOracleBatch|BenchmarkSampledShapleyParallel|BenchmarkOracleFedAvgShapley' -benchtime=1x \
    ./internal/valuation/
go test -run=NONE -bench='BenchmarkTraceResult|BenchmarkUploadIngest' -benchtime=1x \
    ./internal/protocol/
go test -run=NONE -bench='BenchmarkRoundIngest|BenchmarkIncrementalScores' -benchtime=1x \
    ./internal/rounds/
go test -run=NONE -bench='BenchmarkFlightRecord' -benchtime=1x \
    ./internal/flight/
go test -run=NONE -bench='BenchmarkServerTraceMiss' -benchtime=1x \
    ./internal/server/

echo "== benchdiff (pinned hot paths vs newest BENCH_*.json, >20% ns/op regression fails)"
go run ./scripts/benchdiff

echo "== observability smoke (boot ctflsrv, scrape /metrics, graceful drain)"
tmpbin="$(mktemp -d)"
trap 'rm -rf "$tmpbin"' EXIT
go build -o "$tmpbin/ctflsrv" ./cmd/ctflsrv
go run ./scripts/metricsmoke -bin "$tmpbin/ctflsrv"

echo "OK: all checks passed"
