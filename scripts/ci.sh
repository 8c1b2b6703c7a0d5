#!/usr/bin/env bash
# Hermetic CI for the fmm-energy workspace.
#
# The build is zero-dependency by policy (see DESIGN.md): everything
# must compile and test with --offline, touching no registry, no
# vendored sources and no [patch] tables.  This script is the contract.
#
# Usage: scripts/ci.sh [--with-benches] [--with-snapshot]
#   --with-benches    also smoke-run every bench target via --quick
#   --with-snapshot   also re-measure the n=8192 FMM grid against the
#                     committed BENCH_fmm.json, regenerate the governor,
#                     service, chaos, fleet and stream artifacts, and run
#                     each fresh file through its `repro --check` gates

set -euo pipefail
cd "$(dirname "$0")/.."

WITH_BENCHES=0
WITH_SNAPSHOT=0
for arg in "$@"; do
    case "$arg" in
        --with-benches) WITH_BENCHES=1 ;;
        --with-snapshot) WITH_SNAPSHOT=1 ;;
        *) echo "unknown argument: $arg" >&2; exit 2 ;;
    esac
done

repro() {
    cargo run --offline --release -q -p dvfs-bench --bin repro -- "$@"
}

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo build --release --offline"
cargo build --release --offline --workspace

echo "==> cargo test -q --offline"
cargo test -q --offline --workspace

echo "==> cargo test -q --offline (FMM_ENERGY_FAULTS=default)"
# The whole suite again under the documented default fault-injection
# rates: the hardened pipeline must absorb every injected fault (see
# DESIGN.md §9).  Tests that assert exact paper-band numbers pin
# `faults: None` explicitly and are unaffected.
FMM_ENERGY_FAULTS=default cargo test -q --offline --workspace

echo "==> panic-free gate (non-test code in crates/*/src, except crates/compat/src)"
# Every crate reports failures via PipelineError, LinalgError, typed
# Rejected values or an exit code; a new `.unwrap()` or `panic!(` in
# non-test code is a regression.  The `#[cfg(test)]` tail of each
# module (the repo-wide idiom) and comment lines are exempt.
# `crates/compat/src` is exempt as a whole: its property-test shim
# (`compat::prop`) fails a test by panicking, as the test harness
# expects.
GATE_VIOLATIONS=$(find crates/*/src -path crates/compat/src -prune -o -name '*.rs' -print \
    | while read -r f; do
        awk -v file="$f" '
            /#\[cfg\(test\)\]/ { exit }
            {
                l = $0
                sub(/^[[:space:]]+/, "", l)
                if (l ~ /^\/\//) next
                if ($0 ~ /\.unwrap\(\)/ || $0 ~ /panic!\(/) print file ":" FNR ": " $0
            }
        ' "$f"
    done)
if [[ -n "$GATE_VIOLATIONS" ]]; then
    echo "error: unwrap()/panic!() in non-test pipeline code — return PipelineError instead:" >&2
    echo "$GATE_VIOLATIONS" >&2
    exit 1
fi

echo "==> governor smoke test (repro governor, tiny inputs)"
# Every policy over the 8 paper inputs at 1/64 scale: once clean, once
# under the default fault campaign.  The run must complete and report
# the per-phase-model win count in both regimes.
repro governor --scale-shift 6 | grep -q "per-phase-model matches or beats"
FMM_ENERGY_FAULTS=default repro governor --scale-shift 6 \
    | grep -q "per-phase-model matches or beats"

echo "==> fmmbench: build, then one stream_drift cycle"
# `fmmbench/` is a workspace of its own (BENCHMARK.json drives it), so
# the workspace build above never compiles it, and a library change
# that breaks the benchmark would pass every other stage.  A 1 s run
# always completes its first 500-step cycle; its last line must report
# `"correct": true`, which covers the bit equality of maintained and
# from-scratch plans and the equal cycle energies.
BENCH_LAST=$(CARGO_TARGET_DIR=.bench_build cargo run --release --offline -q \
    --manifest-path fmmbench/Cargo.toml -- \
    --workload stream_drift --seed 1 --seconds 1 --trace 0 | tail -n 1)
if [[ "$BENCH_LAST" != *'"correct": true'* ]]; then
    echo "error: the fmmbench stream_drift run is not correct: $BENCH_LAST" >&2
    exit 1
fi

# Every committed artifact must pass its `repro <artifact> --check`
# gates (crates/bench/src/check.rs):
#   fmm-scaling  the full 1/2/4/8-thread grid up to n = 2^20, one
#                potential digest per size across thread counts;
#   governor     each FMM input's best static energy and every policy's
#                energy and time;
#   service      a >=1M-request run, cache-hit p99 >=10x below cold p99,
#                partial overload rejections, one digest across the shard
#                sweep;
#   chaos        every request resolved, availability >= 99%, the
#                deadline probe fully recovered, one digest at 1/2/4/8
#                shards;
#   fleet        five clean, accurate catalog fits, the TK1/MI300X
#                race-to-idle contrast, warm start winning on both
#                sibling transfer pairs;
#   stream       in-place drift repair with every step accounted for, no
#                missed burst deadline, a feasible arbitrated plan no
#                dearer than static-best and race-to-halt, one suite
#                digest at 1/2/4/8 threads.
for pair in fmm-scaling:BENCH_fmm.json governor:BENCH_governor.json \
    service:BENCH_service.json chaos:BENCH_chaos.json fleet:BENCH_fleet.json \
    stream:BENCH_stream.json; do
    echo "==> ${pair%%:*}: committed ${pair#*:}"
    repro "${pair%%:*}" --check "${pair#*:}"
done

echo "==> stream, fleet, governor: regenerate, then compare bytes"
# These three artifacts rebuild in well under a second each, so every
# run regenerates them and requires the committed file byte for byte:
# their digests, counters and energies pin the evaluator, the counter
# pass, the governor and the streaming engine exactly, where the checks
# above only test each file's gates.  The governor file records the
# pool width, and was recorded at one thread.
mkdir -p target
repro stream --out target/BENCH_stream_cmp.json >/dev/null
cmp target/BENCH_stream_cmp.json BENCH_stream.json
repro fleet --scale-shift 6 --out target/BENCH_fleet_cmp.json >/dev/null
cmp target/BENCH_fleet_cmp.json BENCH_fleet.json
FMM_ENERGY_THREADS=1 repro governor --scale-shift 6 --out target/BENCH_governor_cmp.json >/dev/null
cmp target/BENCH_governor_cmp.json BENCH_governor.json

echo "==> service: soak, clean + faulted (tests/service.rs, release)"
# The 10k-request soak: lossless, bounded queues, golden digest across
# shard counts; under the default fault campaign it must degrade
# through FitDiagnostics fallbacks instead of erroring.
cargo test -q --offline --release --test service
FMM_ENERGY_FAULTS=default cargo test -q --offline --release --test service

echo "==> stream: fitted-model soak (tests/stream.rs, release)"
# The pinned suite at 1/2/4/8 threads with the fitted model (digest
# equality + the arbitration acceptance gates), plus a 10-step drift
# soak proving the incremental octree stays bitwise interchangeable
# with from-scratch builds in both maintenance regimes.
cargo test -q --offline --release --test stream

echo "==> chaos: seeded failure soak (tests/chaos.rs, release)"
# The 5k-request soak under the default chaos profile: every request
# resolves (answer or typed rejection), availability >= 99% counting
# degraded answers, the digest is identical at 1/2/4/8 shards, and the
# stall/deadline probe recovers every request.  Pinned configs, so the
# ambient FMM_ENERGY_FAULTS cannot perturb it.
cargo test -q --offline --release --test chaos

if [[ "$WITH_BENCHES" == 1 ]]; then
    for bench in numerics model fmm_phases; do
        echo "==> cargo bench --bench $bench -- --quick"
        cargo bench --offline -p dvfs-bench --bench "$bench" -- --quick
    done
fi

if [[ "$WITH_SNAPSHOT" == 1 ]]; then
    echo "==> fmm: fresh grid vs committed baseline (>10% regression gate)"
    # Re-measure the smallest committed size over the full thread grid
    # and fail if evaluate regressed >10% at any (n, threads) point.
    repro fmm-scaling --reps 3 --sizes 8192 --out target/BENCH_fmm_ci.json
    repro fmm-scaling --check target/BENCH_fmm_ci.json --baseline BENCH_fmm.json
    # Regenerate each other artifact with the options its committed
    # file records, then run the fresh file through the same gates.
    for spec in "governor --scale-shift 6" "service --requests 1000000" \
        "chaos --requests 50000" "fleet --scale-shift 6" "stream"; do
        read -r -a args <<<"$spec"
        echo "==> ${args[0]}: regenerate, then check"
        repro "${args[@]}" --out "target/BENCH_${args[0]}_ci.json"
        repro "${args[0]}" --check "target/BENCH_${args[0]}_ci.json"
    done
fi

echo "==> OK"
