#!/usr/bin/env bash
# Hermetic CI for the fmm-energy workspace.
#
# The build is zero-dependency by policy (see DESIGN.md): everything
# must compile and test with --offline, touching no registry, no
# vendored sources and no [patch] tables.  This script is the contract.
#
# Usage: scripts/ci.sh [--with-benches] [--with-snapshot]
#   --with-benches    also smoke-run every bench target via --quick
#   --with-snapshot   also run scripts/bench_snapshot.sh (3 reps, small
#                     sizes), regenerate the governor, service, chaos,
#                     fleet and stream artifacts, and validate every
#                     JSON with the in-tree compat::json parser

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

echo "==> panic-free gate (non-test code in crates/{core,powermon,microbench,autoserve,tk1-sim,stream,linalg} + bench::{fleet,service_load})"
# The measurement-to-fit pipeline, the serving layer (including the
# chaos/breaker/supervision modules), the device catalog, the streaming
# engine, the load-generator client path and the dense linear algebra
# report failures via PipelineError, LinalgError or typed Rejected
# values; a new `.unwrap()` or `panic!(` in their non-test code is a
# regression.  The `#[cfg(test)]` tail of each module (the repo-wide
# idiom) and comment lines are exempt.
GATE_VIOLATIONS=$(find crates/core/src crates/powermon/src crates/microbench/src \
    crates/autoserve/src crates/tk1-sim/src crates/stream/src crates/linalg/src \
    crates/bench/src/fleet.rs crates/bench/src/service_load.rs -name '*.rs' \
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
cargo run --offline --release -p dvfs-bench --bin repro -- governor --scale-shift 6 \
    | grep -q "per-phase-model matches or beats"
FMM_ENERGY_FAULTS=default \
    cargo run --offline --release -p dvfs-bench --bin repro -- governor --scale-shift 6 \
    | grep -q "per-phase-model matches or beats"

echo "==> governor: committed BENCH_governor.json (schema)"
# The committed governor artifact must carry, for each FMM input, the
# best measured static energy and every policy's energy and time.
cargo run --offline --release -p dvfs-bench --bin bench_snapshot -- \
    --check-governor BENCH_governor.json

echo "==> fmm: committed BENCH_fmm.json (schema + grid coverage + digests)"
# The committed scaling snapshot must cover the full 1/2/4/8-thread
# grid up to n = 2^20 and carry one potential digest per (n, threads)
# point, identical across thread counts at each size — the engine's
# bitwise thread-invariance claim, checkable from the artifact alone.
cargo run --offline --release -p dvfs-bench --bin bench_snapshot -- \
    --check-fmm BENCH_fmm.json

echo "==> service: committed BENCH_service.json (schema + invariants)"
# The committed serving artifact must be a >=1M-request run with
# cache-hit p99 at least 10x below cold-fit p99, partial overload
# rejections, and identical digests across the 1/2/4/8-shard sweep.
cargo run --offline --release -p dvfs-bench --bin bench_snapshot -- \
    --check-service BENCH_service.json

echo "==> chaos: committed BENCH_chaos.json (availability + digest gates)"
# The committed chaos artifact must show every request resolving with
# an answer or a typed rejection, availability >= 99% counting degraded
# answers, the deadline probe fully recovering, and identical digests
# across the 1/2/4/8-shard chaos sweep.
cargo run --offline --release -p dvfs-bench --bin bench_snapshot -- \
    --check-chaos BENCH_chaos.json

echo "==> fleet: committed BENCH_fleet.json (catalog + transfer invariants)"
# The committed fleet comparison must cover all five catalog devices
# with clean, accurate fits, pin the TK1/MI300X race-to-idle contrast,
# and show the warm-start prior winning on both sibling transfer
# pairs.
cargo run --offline --release -p dvfs-bench --bin bench_snapshot -- \
    --check-fleet BENCH_fleet.json

echo "==> service: soak, clean + faulted (tests/service.rs, release)"
# The 10k-request soak: lossless, bounded queues, golden digest across
# shard counts; under the default fault campaign it must degrade
# through FitDiagnostics fallbacks instead of erroring.
cargo test -q --offline --release --test service
FMM_ENERGY_FAULTS=default cargo test -q --offline --release --test service

echo "==> stream: committed BENCH_stream.json (drift + deadline + arbitration gates)"
# The committed streaming artifact must show the drift scenario doing
# real in-place tree repair with every step accounted for, the pinned
# burst stream meeting every deadline, the arbitrated multi-tenant
# plan feasible and no more expensive than the per-job static-best and
# race-to-halt baselines, and identical suite digests across the
# 1/2/4/8-thread sweep.
cargo run --offline --release -p dvfs-bench --bin bench_snapshot -- \
    --check-stream BENCH_stream.json

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
# ambient FMM_ENERGY_CHAOS cannot perturb it.
cargo test -q --offline --release --test chaos

if [[ "$WITH_BENCHES" == 1 ]]; then
    for bench in numerics model fmm_phases; do
        echo "==> cargo bench --bench $bench -- --quick"
        cargo bench --offline -p dvfs-bench --bench "$bench" -- --quick
    done
fi

if [[ "$WITH_SNAPSHOT" == 1 ]]; then
    echo "==> scripts/bench_snapshot.sh (CI shape check)"
    scripts/bench_snapshot.sh --out target/BENCH_ci.json --reps 3 --sizes 4096
    cargo run --offline --release -p dvfs-bench --bin bench_snapshot -- \
        --check target/BENCH_ci.json
    echo "==> fmm: fresh grid vs committed baseline (>10% regression gate)"
    # Re-measure the smallest committed size over the full thread grid
    # and fail if evaluate regressed >10% at any (n, threads) point.
    scripts/bench_snapshot.sh --out target/BENCH_ci_fmm.json --reps 3 --sizes 8192
    cargo run --offline --release -p dvfs-bench --bin bench_snapshot -- \
        --check-fmm target/BENCH_ci_fmm.json --baseline-fmm BENCH_fmm.json
    scripts/bench_snapshot.sh --governor target/BENCH_governor_ci.json --scale-shift 6
    cargo run --offline --release -p dvfs-bench --bin bench_snapshot -- \
        --check-governor target/BENCH_governor_ci.json
    scripts/bench_snapshot.sh --service target/BENCH_service_ci.json
    cargo run --offline --release -p dvfs-bench --bin bench_snapshot -- \
        --check-service target/BENCH_service_ci.json
    scripts/bench_snapshot.sh --chaos target/BENCH_chaos_ci.json --requests 50000
    cargo run --offline --release -p dvfs-bench --bin bench_snapshot -- \
        --check-chaos target/BENCH_chaos_ci.json
    scripts/bench_snapshot.sh --fleet target/BENCH_fleet_ci.json
    cargo run --offline --release -p dvfs-bench --bin bench_snapshot -- \
        --check-fleet target/BENCH_fleet_ci.json
    scripts/bench_snapshot.sh --stream target/BENCH_stream_ci.json
    cargo run --offline --release -p dvfs-bench --bin bench_snapshot -- \
        --check-stream target/BENCH_stream_ci.json
fi

echo "==> OK"
