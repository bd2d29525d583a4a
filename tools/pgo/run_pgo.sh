#!/usr/bin/env bash
# Two-phase profile-guided-optimization build.
#
# Phase 1 configures an instrumented build (pgo-generate-<cc> preset)
# and trains it on inputs shaped like the repository benchmark's fleet
# workloads (BENCHMARK.json):
#  - fig22_fleet_scaling: 1 -> 16 machines x every dispatch policy
#    (dispatch, harvest, billing, the threaded epoch pool);
#  - a dense cell: 64 busy machines, least-loaded, Litmus pricing
#    calibrated in process, 2 threads (engine stepping, fast-forward
#    replay, contention solves);
#  - a sparse fleet: 4096 mostly idle machines, round-robin (the
#    coordinator's per-barrier work and idle-quantum skipping).
# Phase 2 rebuilds with the collected profiles plus LTO (pgo-use-<cc>
# preset) and runs the bit-identity and conservation tests on it.
#
# Usage: tools/pgo/run_pgo.sh [gcc|clang]   (default: gcc)
#
# The final optimized tree lands in build-pgo-use-<cc>/; compare it
# against a plain Release build with perfbench (perfbench/README.md).
set -euo pipefail

cc="${1:-gcc}"
case "$cc" in
gcc | clang) ;;
*)
    echo "usage: $0 [gcc|clang]" >&2
    exit 2
    ;;
esac

root="$(cd "$(dirname "$0")/../.." && pwd)"
cd "$root"
profiles="$root/build-pgo-profiles"
jobs="$(nproc 2>/dev/null || echo 4)"

echo "== phase 1: instrumented build (pgo-generate-$cc) =="
rm -rf "$profiles" "build-pgo-generate-$cc"
cmake --preset "pgo-generate-$cc"
cmake --build --preset "pgo-generate-$cc" -j "$jobs" \
    --target fig22_fleet_scaling litmus_fleet

echo "== training: fig22_fleet_scaling + dense and sparse fleets =="
generated="build-pgo-generate-$cc"
"$generated/bench/fig22_fleet_scaling"
"$generated/apps/litmus_fleet" --fleet=cascade-5218:64 \
    --policy=least-loaded --rate=20000 --invocations=40000 \
    --calibrate=yes --threads=2
"$generated/apps/litmus_fleet" --fleet=cascade-5218:4096 \
    --policy=round-robin --rate=2000 --invocations=4000

if [ "$cc" = clang ]; then
    echo "== merging clang raw profiles =="
    merge_tool="$(command -v llvm-profdata || true)"
    if [ -z "$merge_tool" ]; then
        echo "run_pgo.sh: llvm-profdata not found — clang PGO needs it" >&2
        exit 1
    fi
    "$merge_tool" merge -output "$profiles/default.profdata" \
        "$profiles"/*.profraw
fi

echo "== phase 2: optimized build (pgo-use-$cc) =="
rm -rf "build-pgo-use-$cc"
cmake --preset "pgo-use-$cc"
cmake --build --preset "pgo-use-$cc" -j "$jobs"

echo "== validating the optimized build =="
ctest --test-dir "build-pgo-use-$cc" --output-on-failure \
    -R 'EngineFastForward|ClusterDifferential|EngineSkipIdle|EventCore|GoldenDigest'
echo "PGO build ready in build-pgo-use-$cc/"
