#!/bin/sh
# check.sh — the repo's full verification gate: static checks, build, and the
# whole test suite with the race detector on (the parallel compute layer is
# exercised at forced worker counts even on single-core machines).
set -eu
cd "$(dirname "$0")/.."

echo '>> gofmt'
unformatted=$(gofmt -l cmd internal)
if [ -n "$unformatted" ]; then
	echo "gofmt needed on:" >&2
	echo "$unformatted" >&2
	exit 1
fi
echo '>> go vet ./...'
go vet ./...
echo '>> go build ./...'
go build ./...
# The root package's full-stream determinism and resume tests take about
# 9.5 minutes under -race on a 2-vCPU host on their own, at the default
# 10-minute per-package limit; the explicit limit keeps slow hosts from
# failing on time rather than on a test.
echo '>> go test -race -timeout 30m ./...'
go test -race -timeout 30m ./...
# The repo benchmark (bench/) is its own Go module, so the pass above never
# reaches it: run its unit tests and its one-second smoke of every workload,
# which checks each emits every BENCHMARK.json metric and answers exactly as
# the in-process replay does.
echo '>> (cd bench && go test ./...) (benchmark module: unit tests + workload smoke with the answer gate)'
(cd bench && go test ./...)
# Concurrent-scrape gate: every metrics export surface is read while an
# 8-worker training run mutates the registry (redundant with the full -race
# pass above, but named here so a failure points straight at the metrics
# layer).
echo '>> go test -race -run "TestMetricsScrapeDuringTraining|TestInstrumentationEquivalence" -count=1 ./internal/core/ (scrape-under-race gate)'
go test -race -run 'TestMetricsScrapeDuringTraining|TestInstrumentationEquivalence' -count=1 ./internal/core/
# The allocation-regression gate runs in a separate non-race pass: the strict
# AllocsPerRun == 0 pins skip under -race because the race instrumentation
# itself allocates (see internal/race). TestAllocsTrainStep covers the
# *instrumented* trainer step — the per-stage timers and counters added by
# internal/obs must not cost a single allocation.
echo '>> go test -run TestAllocs -count=1 ./... (allocation gate, no race)'
go test -run TestAllocs -count=1 ./...
# Precision-tier gate: one named pass over the fp32/fp64 contract — the
# float64 kernel suite behind the Ref64 measuring stick, bit-identity of the
# batched fused fold against the split update at both element widths, the
# batched loss kernels against the per-sample ones on both tiers, the fp64
# batched steps (cross-entropy and DER-shaped mixed loss) against the
# per-sample reference, the dtype-tagged checkpoint wire format, and the
# fp32-vs-fp64 finetune accuracy parity (full streams).
echo '>> go test -run "Test.*64|TestGobDtype|TestFusedStepBitIdentity|TestLossRowKernels|TestPrecisionParity" -count=1 ./internal/tensor/ ./internal/nn/ ./internal/cl/ ./internal/exp/ (precision-tier gate)'
go test -run 'Test.*64|TestGobDtype|TestFusedStepBitIdentity|TestLossRowKernels|TestPrecisionParity' -count=1 \
	./internal/tensor/ ./internal/nn/ ./internal/cl/ ./internal/exp/
# Quantized-replay gate: one named pass over the int8 store contract — the
# symmetric quantizer round-trips, quantize-on-insert/dequantize-on-rehearsal
# in every store (core + baselines), bit-exact dtype-tagged checkpoints with
# cross-dtype restore rejection, the int8 wire encoding on both server
# surfaces, and the 0 allocs/op pin on the quantized train step.
echo '>> go test -run "TestQuantized|TestAllocsQuantized|TestInt8|TestDequantize" -count=1 ./internal/quant/ ./internal/replay/ ./internal/core/ ./internal/baselines/ ./internal/serve/ ./internal/exp/ (quantized-replay gate)'
go test -run 'TestQuantized|TestAllocsQuantized|TestInt8|TestDequantize' -count=1 -short \
	./internal/quant/ ./internal/replay/ ./internal/core/ ./internal/baselines/ ./internal/serve/ ./internal/exp/
# ns/op regression gate: the fp32 train step must hold its lead over the
# fp64 reference step (≥1.5×) and run allocation-free. The ratio is within-run
# (interleaved min-of-N), so the gate is machine-independent; the JSON lands
# in a scratch dir — the published BENCH_pr10.json comes from
# `make bench-json`, not from here. One worker, like the TestAllocs pins:
# zero allocations is a single-goroutine property (a sharded kernel's
# parallel branch allocates its closure), so on a multi-core host the
# default worker count would fail the gate on every commit.
gatedir=$(mktemp -d)
trap 'rm -rf "$gatedir"' EXIT
echo '>> go run ./cmd/benchjson -quick -check -workers 1 (ns/op regression gate)'
# (the serve smoke below replaces this trap; it removes $gatedir too)
go run ./cmd/benchjson -quick -check -workers 1 -out "$gatedir/bench-gate.json"
# Cross-PR perf drift (informational): diff the two published bench exhibits
# series by series. Absolute ns/op in checked-in files comes from different
# runs on possibly different machines, so this warns instead of failing —
# `make bench-diff` is the hard-mode variant for same-machine comparisons.
if [ -f BENCH_pr9.json ] && [ -f BENCH_pr10.json ]; then
	echo '>> go run ./cmd/benchdiff BENCH_pr9.json BENCH_pr10.json (cross-PR drift, informational)'
	go run ./cmd/benchdiff -warn-only BENCH_pr9.json BENCH_pr10.json
fi
# Serving smoke gate: the real chameleon-serve binary (synthetic backbone,
# int8 replay stores) answers the load generator end to end — one fp32-wire
# exchange and one quantized-wire (-int8) exchange — then drains cleanly on
# SIGTERM and leaves a resumable checkpoint behind.
echo '>> serve smoke: chameleon-serve -replay-int8 + chameleon-loadgen (fp32 + int8 wire) end to end'
smokedir=$(mktemp -d)
trap 'kill "$serve_pid" 2>/dev/null || true; rm -rf "$smokedir" "$gatedir"' EXIT
go build -o "$smokedir/chameleon-serve" ./cmd/chameleon-serve
go build -o "$smokedir/chameleon-loadgen" ./cmd/chameleon-loadgen
"$smokedir/chameleon-serve" -dataset synthetic -method chameleon -replay-int8 \
	-addr 127.0.0.1:18423 -checkpoint "$smokedir/serve.ckpt" \
	>"$smokedir/serve.log" 2>&1 &
serve_pid=$!
for i in $(seq 1 100); do
	if curl -fsS http://127.0.0.1:18423/healthz >/dev/null 2>&1; then break; fi
	if ! kill -0 "$serve_pid" 2>/dev/null; then
		echo 'serve smoke: server died during startup' >&2
		cat "$smokedir/serve.log" >&2
		exit 1
	fi
	sleep 0.1
done
"$smokedir/chameleon-loadgen" -url http://127.0.0.1:18423 \
	-clients 8 -duration 1s -observe 5 -observe-batch 4
"$smokedir/chameleon-loadgen" -url http://127.0.0.1:18423 -int8 \
	-clients 8 -duration 1s -observe 5 -observe-batch 4
kill -TERM "$serve_pid"
wait "$serve_pid" || { echo 'serve smoke: non-zero exit on SIGTERM' >&2; cat "$smokedir/serve.log" >&2; exit 1; }
[ -f "$smokedir/serve.ckpt" ] || { echo 'serve smoke: drain wrote no checkpoint' >&2; exit 1; }
# Fleet smoke gate: the multi-tenant path end to end. A Zipf user burst over
# a hot-set far smaller than the user population must force real evictions
# and fault-ins, serve every request without errors, and a SIGTERM drain must
# leave every resident learner as a checkpoint file in the fleet directory.
echo '>> fleet smoke: chameleon-serve -fleet-* + Zipf loadgen end to end'
"$smokedir/chameleon-serve" -dataset synthetic -method chameleon \
	-addr 127.0.0.1:18424 \
	-fleet-users 64 -fleet-hot 8 -fleet-shards 2 -fleet-dir "$smokedir/fleet" \
	>"$smokedir/fleet.log" 2>&1 &
fleet_pid=$!
trap 'kill "$serve_pid" "$fleet_pid" 2>/dev/null || true; rm -rf "$smokedir" "$gatedir"' EXIT
for i in $(seq 1 100); do
	if curl -fsS http://127.0.0.1:18424/healthz >/dev/null 2>&1; then break; fi
	if ! kill -0 "$fleet_pid" 2>/dev/null; then
		echo 'fleet smoke: server died during startup' >&2
		cat "$smokedir/fleet.log" >&2
		exit 1
	fi
	sleep 0.1
done
"$smokedir/chameleon-loadgen" -url http://127.0.0.1:18424 \
	-clients 8 -duration 1s -observe 8 -observe-batch 4 -users 64 -json \
	>"$smokedir/fleet-load.json"
grep -q '"errors": 0' "$smokedir/fleet-load.json" || {
	echo 'fleet smoke: load run reported request errors' >&2
	cat "$smokedir/fleet-load.json" >&2
	exit 1
}
metrics=$(curl -fsS http://127.0.0.1:18424/metrics)
echo "$metrics" | grep -q '^fleet_evictions_total [1-9]' || {
	echo 'fleet smoke: no evictions — the hot-set never overflowed' >&2
	echo "$metrics" | grep '^fleet_' >&2
	exit 1
}
echo "$metrics" | grep -q '^fleet_fault_ins_total [1-9]' || {
	echo 'fleet smoke: no fault-ins — evicted users never came back' >&2
	echo "$metrics" | grep '^fleet_' >&2
	exit 1
}
kill -TERM "$fleet_pid"
wait "$fleet_pid" || { echo 'fleet smoke: non-zero exit on SIGTERM' >&2; cat "$smokedir/fleet.log" >&2; exit 1; }
drained=$(ls "$smokedir/fleet"/*.ckpt 2>/dev/null | wc -l)
if [ "$drained" -lt 1 ]; then
	echo 'fleet smoke: drain left no user checkpoints' >&2
	cat "$smokedir/fleet.log" >&2
	exit 1
fi
echo "fleet smoke: drained $drained user checkpoint(s)"
# Failover smoke gate: warm-standby replication end to end with real binaries
# (DESIGN.md §18). A primary logs every observe to its WAL; a standby
# bootstraps from its snapshot and tails the log; the load generator drives
# traffic with -failover while the primary is SIGKILLed mid-run. The gate:
# the run finishes with zero failed requests and at least one failover, the
# standby promotes itself to primary, and the survivor's (snapshot, log)
# reconstruction is bit-identical to its live learner
# (/v1/replication/verify).
echo '>> failover smoke: primary + warm standby under load, SIGKILL the primary, zero failed requests'
"$smokedir/chameleon-serve" -dataset synthetic -method chameleon \
	-addr 127.0.0.1:18425 -wal-dir "$smokedir/wal-primary" \
	>"$smokedir/primary.log" 2>&1 &
primary_pid=$!
trap 'kill "$serve_pid" "$fleet_pid" "$primary_pid" "$standby_pid" 2>/dev/null || true; rm -rf "$smokedir" "$gatedir"' EXIT
for i in $(seq 1 100); do
	if curl -fsS http://127.0.0.1:18425/healthz >/dev/null 2>&1; then break; fi
	if ! kill -0 "$primary_pid" 2>/dev/null; then
		echo 'failover smoke: primary died during startup' >&2
		cat "$smokedir/primary.log" >&2
		exit 1
	fi
	sleep 0.1
done
"$smokedir/chameleon-serve" -dataset synthetic -method chameleon \
	-addr 127.0.0.1:18426 -wal-dir "$smokedir/wal-standby" \
	-standby http://127.0.0.1:18425 -primary-wal "$smokedir/wal-primary" \
	-failover-after 3 -replication-poll 20ms \
	>"$smokedir/standby.log" 2>&1 &
standby_pid=$!
for i in $(seq 1 100); do
	if curl -fsS http://127.0.0.1:18426/healthz >/dev/null 2>&1; then break; fi
	if ! kill -0 "$standby_pid" 2>/dev/null; then
		echo 'failover smoke: standby died during startup' >&2
		cat "$smokedir/standby.log" >&2
		exit 1
	fi
	sleep 0.1
done
"$smokedir/chameleon-loadgen" -url http://127.0.0.1:18425 \
	-failover http://127.0.0.1:18426 \
	-clients 8 -duration 4s -observe 20 -observe-batch 4 -json \
	>"$smokedir/failover-load.json" &
load_pid=$!
sleep 1.5
kill -KILL "$primary_pid"
wait "$load_pid" || {
	echo 'failover smoke: loadgen exited non-zero' >&2
	cat "$smokedir/failover-load.json" >&2
	exit 1
}
grep -q '"errors": 0' "$smokedir/failover-load.json" || {
	echo 'failover smoke: requests failed across the SIGKILL (the zero-failed-requests contract)' >&2
	cat "$smokedir/failover-load.json" >&2
	exit 1
}
grep -q '"failovers": [1-9]' "$smokedir/failover-load.json" || {
	echo 'failover smoke: the load generator never flipped to the standby' >&2
	cat "$smokedir/failover-load.json" >&2
	exit 1
}
curl -fsS http://127.0.0.1:18426/v1/stats | grep -q '"role":"primary"' || {
	echo 'failover smoke: the standby never promoted itself' >&2
	cat "$smokedir/standby.log" >&2
	exit 1
}
curl -fsS http://127.0.0.1:18426/v1/replication/verify | grep -q '"equal":true' || {
	echo 'failover smoke: the survivor failed snapshot+log reconstruction (SnapshotsEqual)' >&2
	curl -fsS http://127.0.0.1:18426/v1/replication/verify >&2 || true
	exit 1
}
kill -TERM "$standby_pid"
wait "$standby_pid" || { echo 'failover smoke: survivor non-zero exit on SIGTERM' >&2; cat "$smokedir/standby.log" >&2; exit 1; }
echo 'failover smoke: zero failed requests across a SIGKILL, survivor verified bit-identical'
echo 'check.sh: all green'
