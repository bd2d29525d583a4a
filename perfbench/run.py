#!/usr/bin/env python3
"""Build and run the repository benchmark for one workload.

    python3 perfbench/run.py --workload dense_cell --seed 1 \
        --seconds 20 --trace 0

Run from the repository root. The first call configures and builds
perfbench/ (which compiles the library from src/) into
$CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when that is
unset; later calls reuse the build. Results, span traces and scratch
inputs go under .bench_out/.

stdout: one line per metric (name, value, unit, better direction),
the environment record, then as its last line one JSON object with
the keys correct, attempted, failed and metrics. With --trace 0 the
metrics are BENCHMARK.json's end_to_end list, with --trace 1 its
per_layer list. Exit status: 0 when every correctness check passed,
1 when one failed, 2 when the benchmark could not run.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BINARY = "litmus_perfbench"

# Each run must end within 180 s; a cold build gets 900 s.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850

# Fig. 17 of the paper (heavy congestion, 320 co-runners).
PAPER_FIG17 = {"litmus_discount_pct": 20.0, "ideal_discount_pct": 21.5}

EXTRA_UNITS = {
    "sim_speed": ("sim_s/s", "higher"),
    "failed_frac": ("fraction", "lower"),
    "litmus_discount_pct": ("%", "none"),
    "ideal_discount_pct": ("%", "none"),
    "price_gap_pp": ("pp", "lower"),
    "price_err_gmean": ("fraction", "lower"),
}


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build(build_dir):
    """Configure once, then (re)build the benchmark binary."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no library sources at %s/src; run from a full checkout" % ROOT)
    if not shutil.which("cmake"):
        fail("cmake not found")
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        run_quiet(configure, "configure")
    run_quiet(["cmake", "--build", build_dir, "--target", BINARY,
               "--parallel", jobs], "build")
    return os.path.join(build_dir, BINARY)


def run_quiet(cmd, what):
    """Run a build step with its output on stderr; exit 2 on failure."""
    try:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("%s timed out" % what)
    if done.returncode != 0:
        fail("%s failed (exit %d)" % (what, done.returncode))


def source_digest():
    """SHA-256 over src/ (the checkout need not be a git repository)."""
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for base, dirs, files in os.walk(src):
        dirs.sort()
        for name in sorted(files):
            path = os.path.join(base, name)
            h.update(os.path.relpath(path, src).encode())
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def git_commit():
    try:
        done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        help="measured time (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(spec_path) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read %s: %s" % (spec_path, e))
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail("unknown workload %r" % args.workload)
    if args.seconds is None:
        args.seconds = spec["run_seconds"]

    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    binary = build(os.path.abspath(os.path.join(build_root, "perfbench")))

    out_dir = os.path.abspath(".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="inputs-", dir=out_dir)
    cmd = [binary, "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace),
           "--digests", os.path.join(HERE, "digests.txt"),
           "--scratch", scratch, "--out-dir", out_dir]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("%s timed out after %d s" % (BINARY, RUN_TIMEOUT_S))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode not in (0, 1) or not lines:
        fail("%s failed (exit %d)" % (BINARY, done.returncode))
    result = json.loads(lines[-1])

    key = "per_layer" if args.trace else "end_to_end"
    measured = result[key]
    declared = {m["name"]: m for m in spec[key]}
    unknown = sorted(set(measured) - set(declared) - set(EXTRA_UNITS))
    if unknown:
        fail("metrics missing from BENCHMARK.json: %s" % ", ".join(unknown))
    missing = [n for n in declared if n not in measured]
    if key == "end_to_end" and missing:
        fail("end-to-end metrics not measured: %s" % ", ".join(missing))

    metrics = {}
    for name, m in declared.items():
        # A layer the workload never calls reads 0 (listed below).
        metrics[name] = {"value": measured.get(name, 0.0), "unit": m["unit"]}
        print("metric %-30s %-14.6g %-10s %s" %
              (name, metrics[name]["value"], m["unit"], m["better"]))
    if missing:
        print("not exercised by %s: %s" % (args.workload, " ".join(missing)))
    if not args.trace:
        for name, value in sorted(result["outcomes"].items()):
            unit, better = EXTRA_UNITS[name]
            print("outcome %-29s %-14.6g %-10s %s" %
                  (name, value, unit, better))
        for name, value in sorted(result["end_to_end"].items()):
            if name not in declared:
                unit, better = EXTRA_UNITS[name]
                print("metric %-30s %-14.6g %-10s %s" %
                      (name, value, unit, better))
        if args.workload == "heavy_pricing":
            print("paper Fig. 17: litmus discount %.1f%%, ideal %.1f%%; "
                  "measured: litmus %.1f%%, ideal %.1f%%" % (
                      PAPER_FIG17["litmus_discount_pct"],
                      PAPER_FIG17["ideal_discount_pct"],
                      result["outcomes"]["litmus_discount_pct"],
                      result["outcomes"]["ideal_discount_pct"]))
        else:
            print("no reference results exist for fleet workloads; "
                  "no error figure is given")

    env = dict(result["env"], commit=git_commit(), src_sha256=source_digest(),
               workload=args.workload, trace=args.trace,
               seconds=args.seconds, digest=result["digest"])
    print("env " + json.dumps(env, sort_keys=True))
    record = os.path.join(out_dir, "result-%s-s%d-t%d.json" %
                          (args.workload, args.seed, args.trace))
    with open(record, "w") as f:
        json.dump(dict(result, env=env), f, indent=1, sort_keys=True)

    print(json.dumps({"correct": result["correct"],
                      "attempted": int(result["attempted"]),
                      "failed": int(result["failed"]),
                      "metrics": metrics}))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
