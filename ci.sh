#!/usr/bin/env bash
# Local CI for the Fluid DyDNN workspace. Mirrors what the hosted pipeline
# (.github/workflows/ci.yml) runs; everything works offline.
#
# Usage:
#   ./ci.sh                     run every stage
#   ./ci.sh --fast              inner-loop mode: fmt + clippy + tests
#                               (skips the slow doc and bench stages)
#   ./ci.sh fmt clippy          run just the named stages
#   ./ci.sh --update-bench      re-measure and commit a new bench baseline
#                               (for *intentional* performance changes)
#
# Stages: fmt, clippy, doc, tests, drill, membership, fairness, bench.
#
# The membership stage runs the cluster drill's fault script
# (tests/tests/membership.rs) over a fixed seed set: gossip-replicated
# routers, a router killed mid-stream, a node joining mid-stream, and a
# deterministic fault-injection plan (drops, duplicates, a partition
# window) under open-loop Poisson traffic — every admitted request must
# complete bit-identically against the single-process oracle. Pinned to
# one kernel thread and a wall-clock budget like the drill.
#
# The fairness stage runs the adversarial multi-tenant suite
# (tests/tests/fairness.rs): a flooding batch tenant vs an interactive
# SLO, explicit per-tenant quota verdicts, DRR weight proportionality
# under saturation, and sim-vs-live policy-ranking agreement — pinned to
# one kernel thread and a wall-clock budget like the drill. It then runs
# the offline policy simulators' unit tests (crates/serve/src/sim.rs),
# which board through the live DRR assembler: an outsized-weight flood
# must not starve a light tenant there either.
#
# The drill stage runs the cluster drill's chaos script
# (tests/tests/cluster.rs) over a fixed seed set: a 3-node serving
# cluster behind two fluid-router front-ends, Poisson traffic, a node
# crashed and restarted mid-stream, then a rolling hot swap — pinned to
# one kernel thread (the 1-core CI host's honest configuration) and to a
# wall-clock budget so a routing hang fails loudly instead of stalling
# the pipeline.
#
# The bench stage is a perf regression gate: it re-runs
# `bench_kernels --quick` and fails if any committed timing metric in
# BENCH_kernels.json regressed by more than BENCH_TOLERANCE (default
# 0.25 = 25% — wide enough to ride out scheduler noise on a shared CI
# host, tight enough to catch a real kernel regression). The gate writes
# its fresh measurements to target/BENCH_kernels.current.json, never over
# the committed baseline. It then runs the zero-allocation gates: with
# the bench-only `alloc-count` feature, serve_throughput and
# training_step swap in a counting global allocator and fail on a single
# heap allocation in the steady-state serving batch / training step.
set -euo pipefail
cd "$(dirname "$0")"

BENCH_TOLERANCE="${BENCH_TOLERANCE:-0.25}"
UPDATE_BENCH=0
FAST=0
STAGES=()
for arg in "$@"; do
    case "$arg" in
        --fast) FAST=1 ;;
        --update-bench) UPDATE_BENCH=1 ;;
        fmt|clippy|doc|tests|drill|membership|fairness|bench) STAGES+=("$arg") ;;
        *) echo "unknown argument: $arg (stages: fmt clippy doc tests drill membership fairness bench; flags: --fast --update-bench)"; exit 2 ;;
    esac
done
if [ "${#STAGES[@]}" -eq 0 ]; then
    if [ "$FAST" -eq 1 ]; then
        STAGES=(fmt clippy tests)
    elif [ "$UPDATE_BENCH" -eq 1 ]; then
        STAGES=(bench)
    else
        STAGES=(fmt clippy doc tests drill membership fairness bench)
    fi
fi
# --update-bench means the bench stage, whatever else was asked for — it
# must never be dropped silently (a maintainer would believe the baseline
# was refreshed when it wasn't).
if [ "$UPDATE_BENCH" -eq 1 ] && [[ ! " ${STAGES[*]} " == *" bench "* ]]; then
    STAGES+=(bench)
fi

stage_fmt() {
    cargo fmt --all -- --check
}

stage_clippy() {
    cargo clippy --all-targets -- -D warnings
}

stage_doc() {
    RUSTDOCFLAGS="-D warnings" cargo doc --no-deps
    # Compiled doc-examples are part of the API surface (TensorView's
    # transpose/slice/broadcast examples, the serve metrics example, ...):
    # run them here so a stale snippet fails the doc stage, not just the
    # full test sweep.
    echo "==> doc-tests (compiled API examples)"
    cargo test -q --doc
    echo "==> docs link check (every docs/*.md referenced from the guides exists)"
    local missing=0
    for doc in $(grep -hoE 'docs/[A-Za-z0-9_.-]+\.md' README.md docs/*.md | sort -u); do
        if [ ! -f "$doc" ]; then
            echo "BROKEN LINK: $doc is referenced but does not exist"
            missing=1
        fi
    done
    # ...and the guides that exist are actually referenced from README.
    for doc in docs/*.md; do
        if ! grep -q "$doc" README.md; then
            echo "ORPHAN DOC: $doc is not referenced from README.md"
            missing=1
        fi
    done
    [ "$missing" -eq 0 ]
}

stage_tests() {
    cargo build --release
    # The compute-kernel layer guarantees bit-identical results at any
    # thread count (docs/PERFORMANCE.md); run the whole suite serial and
    # fanned-out.
    FLUID_THREADS=1 cargo test -q
    FLUID_THREADS=4 cargo test -q
    # The scalar leg: FLUID_FORCE_SCALAR=1 pins the scalar microkernels,
    # so the fallback every dispatch decision must match stays green on
    # hosts where AVX2/NEON would otherwise mask a scalar regression.
    # fluid-tensor owns every dispatched kernel and its bit-identity
    # proptests; the rest of the workspace only sees the dispatch result.
    FLUID_FORCE_SCALAR=1 cargo test -q -p fluid-tensor
}

stage_drill() {
    # 300 s is ~30× the seed sweep's healthy wall clock (compile excluded: the
    # tests stage has already built the workspace when the full pipeline
    # runs); hitting the budget means a hang, which is exactly the class
    # of bug the drill exists to catch.
    FLUID_THREADS=1 timeout 300 \
        cargo test -q -p fluid-integration-tests --test cluster
}

stage_membership() {
    # The fault script injects faults on a deterministic schedule and
    # kills a live router mid-stream, so like the chaos script it gets one
    # kernel thread and a wall-clock budget: a gossip or rebuild hang
    # fails loudly instead of stalling the pipeline.
    FLUID_THREADS=1 timeout 300 \
        cargo test -q -p fluid-integration-tests --test membership
}

stage_fairness() {
    # The fairness suite is timing-sensitive by nature (it asserts SLOs
    # and service ratios), so it gets the drill treatment: one kernel
    # thread, generous wall-clock budget, loud failure on a hang.
    FLUID_THREADS=1 timeout 300 \
        cargo test -q -p fluid-integration-tests --test fairness
    FLUID_THREADS=1 timeout 300 \
        cargo test -q -p fluid-serve --lib sim
}

stage_bench() {
    if [ "$UPDATE_BENCH" -eq 1 ]; then
        echo "==> re-measuring the committed bench baseline (BENCH_kernels.json)"
        cargo run --release -p fluid-bench --bin bench_kernels -- --quick
    else
        cargo run --release -p fluid-bench --bin bench_kernels -- --quick \
            --check BENCH_kernels.json --tolerance "$BENCH_TOLERANCE"
    fi
    echo "==> zero-allocation gates (counting allocator, steady-state hot paths)"
    cargo bench -p fluid-bench --features alloc-count --bench serve_throughput
    cargo bench -p fluid-bench --features alloc-count --bench training_step
}

TIMING_SUMMARY=""
for stage in "${STAGES[@]}"; do
    echo "==> stage: $stage"
    stage_start=$(date +%s)
    "stage_$stage"
    stage_secs=$(( $(date +%s) - stage_start ))
    TIMING_SUMMARY+=$(printf '\n  %-8s %4ss' "$stage" "$stage_secs")
    echo "==> stage $stage done in ${stage_secs}s"
done

echo "CI OK — stage timing:$TIMING_SUMMARY"
