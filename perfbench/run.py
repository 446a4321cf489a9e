#!/usr/bin/env python3
"""Host wall-clock benchmark of ExaWind-Mini (see perfbench/README.md).

    python3 perfbench/run.py --workload turbine1 --seed 0 --seconds 10 --trace 0

Builds the library and the runner in Release in the benchmark's own build
tree ($CARGO_TARGET_DIR or .bench_build, under the repository root), runs one
workload on a fixed 4-thread rank pool, checks the results against the
recorded reference, and prints one JSON object as the last line of stdout:
{"correct", "attempted", "failed", "metrics"}. --trace 0 reports the
end-to-end metrics, --trace 1 the per-layer metrics; the traced run also
writes its spans to <build>/traces/. Exits nonzero on any failed step.

Other modes: --smoke (reduced size, for the self-tests), --threads N (pool
size; only with --smoke), --max-iters N (forced failure), and
--record-reference (re-record perfbench/reference.json).
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE = HERE / "reference.json"
WORKLOADS = ("turbine1", "turbine1-baseline", "turbine2-strong")
POOL_THREADS = 4  # every workload is defined on a 4-thread rank pool
SEED_CLASSES = 11  # seeds map to inputs through seed % 11 (runner/main.cpp)
RUNNER_TIMEOUT_S = 170

END_TO_END = ("step_s", "setup_s", "nli_model_s", "peak_rss_mb")

# Correctness gate. The reference-step diagnostics (after step 3) must match
# the recorded values to REF_RTOL: 100x the spread between the optimized and
# baseline configurations, which solve the same equations with different
# preconditioners (1e-6, 2e-5, 1.4e-6 on turbine1). The last step's must stay
# within FINAL_RTOL of them (velocity, scalar) or below FINAL_DIV_FACTOR times
# the recorded divergence, whatever the run length.
DIAG_NAMES = ("velocity_rms", "divergence_rms", "scalar_mean")
REF_RTOL = (1e-4, 2e-3, 1e-4)
FINAL_RTOL = 0.25
FINAL_DIV_FACTOR = 4.0


class BenchError(Exception):
    """The benchmark cannot produce a result (nothing is printed on stdout)."""


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def run_quiet(cmd, what):
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout[-4000:])
        raise BenchError(f"{what} failed (exit {proc.returncode})")


def build():
    """Configure (once) and build the Release runner; returns its path."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        raise BenchError(f"library sources not found under {ROOT}")
    bdir = build_dir()
    if not (bdir / "CMakeCache.txt").is_file():
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        run_quiet(["cmake", "-S", str(HERE), "-B", str(bdir), *gen,
                   "-DCMAKE_BUILD_TYPE=Release"], "cmake configure")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    run_quiet(["cmake", "--build", str(bdir), "--target", "perfbench_runner",
               "-j", jobs], "cmake build")
    exe = bdir / "perfbench_runner"
    if not exe.is_file():
        raise BenchError(f"runner not built at {exe}")
    return exe


def source_digest():
    """SHA-256 over the library and benchmark sources (the checkout the
    benchmark runs in need not be a git repository)."""
    h = hashlib.sha256()
    files = sorted(p for d in (ROOT / "src", HERE) for p in d.rglob("*")
                   if p.is_file() and "__pycache__" not in p.parts)
    for p in [ROOT / "CMakeLists.txt", *files]:
        h.update(str(p.relative_to(ROOT)).encode())
        h.update(p.read_bytes())
    return h.hexdigest()[:16]


def git_commit():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                             capture_output=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def run_runner(exe, workload, seed, seconds, trace, smoke=False, threads=None,
               max_iters=0, setup_reps=None):
    """Run the runner once; returns (its stdout lines, its JSON record)."""
    env = dict(os.environ)
    env.pop("EXW_SERIAL", None)
    env["EXW_NUM_THREADS"] = str(threads or POOL_THREADS)
    cmd = [str(exe), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if trace:
        traces = build_dir() / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        tag = "smoke-" if smoke else ""
        cmd += ["--trace-out", str(traces / f"{tag}{workload}-seed{seed}.json")]
    if smoke:
        cmd.append("--smoke")
    if max_iters:
        cmd += ["--max-iters", str(max_iters)]
    if setup_reps:
        cmd += ["--setup-reps", str(setup_reps)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=RUNNER_TIMEOUT_S)
    except subprocess.TimeoutExpired as e:
        raise BenchError(f"runner timed out after {RUNNER_TIMEOUT_S} s") from e
    lines = proc.stdout.strip().splitlines()
    try:
        record = json.loads(lines[-1])
    except (IndexError, ValueError) as e:
        sys.stderr.write(proc.stderr[-4000:])
        raise BenchError(f"runner gave no result (exit {proc.returncode})") from e
    return lines[:-1], record


def check_provenance(rec, smoke, threads):
    """Refuse to time a build with any check layer on, a non-Release build,
    or a pool size other than the workload's."""
    if rec["build_type"] != "Release":
        raise BenchError(f"refusing to time a {rec['build_type']} build")
    on = [k for k, v in rec["checks"].items() if v]
    if on:
        raise BenchError(f"refusing to time a build with checks on: {on}")
    want = threads if smoke and threads else POOL_THREADS
    if rec["pool_threads"] != want:
        raise BenchError(f"pool has {rec['pool_threads']} threads, "
                         f"workload needs {want}")


def load_reference():
    try:
        return json.loads(REFERENCE.read_text())
    except (OSError, ValueError):
        return {}


def reference_failures(rec, smoke):
    """Compare the run's diagnostics with the recorded reference."""
    size = "smoke" if smoke else "full"
    ref = load_reference().get(rec["workload"], {}).get(size, {}).get(
        str(rec["seed_class"]))
    if ref is None:
        return [f"no recorded reference for {rec['workload']} ({size}, seed "
                f"class {rec['seed_class']})"]
    got = rec["reference"]
    if got is None:
        return [f"run ended before reference step {rec['reference_step']}"]
    out = []
    for name, r, g, tol in zip(DIAG_NAMES, ref, got, REF_RTOL):
        if g is None or not math.isfinite(g) or abs(g - r) > tol * abs(r):
            out.append(f"step {rec['reference_step']} {name} = {g} is outside "
                       f"{tol:g} of the reference {r}")
    fin = rec["final"]
    for name, r, g in zip(DIAG_NAMES, ref, fin):
        bad = g is None or not math.isfinite(g)
        if not bad and name == "divergence_rms":
            bad = g > FINAL_DIV_FACTOR * r
        elif not bad:
            bad = abs(g - r) > FINAL_RTOL * abs(r)
        if bad:
            out.append(f"final {name} = {g} is outside the tolerance of the "
                       f"reference {r}")
    return out


def record_reference(exe):
    """Re-record reference.json: the diagnostics after the reference step for
    every workload and seed class at full size, and seed class 0 at smoke
    size."""
    data = {}
    for w in WORKLOADS:
        entry = {"full": {}, "smoke": {}}
        for size, classes in (("full", range(SEED_CLASSES)), ("smoke", [0])):
            for k in classes:
                _, rec = run_runner(exe, w, k, 0, 0, smoke=size == "smoke",
                                    setup_reps=1)
                check_provenance(rec, False, None)
                if rec["failed"] or rec["reference"] is None:
                    raise BenchError(f"{w} {size} class {k}: {rec['failures']}")
                entry[size][str(k)] = rec["reference"]
                print(f"{w} {size} class {k}: {rec['reference']}", flush=True)
        data[w] = entry
    REFERENCE.write_text(json.dumps(data, indent=1) + "\n")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--threads", type=int)
    ap.add_argument("--max-iters", type=int, default=0)
    ap.add_argument("--record-reference", action="store_true")
    args = ap.parse_args(argv)
    if args.threads and not args.smoke:
        ap.error("--threads is only for --smoke runs; timed runs use "
                 f"{POOL_THREADS}")
    try:
        exe = build()
        if args.record_reference:
            record_reference(exe)
            return 0
        if not args.workload:
            ap.error("--workload is required")
        lines, rec = run_runner(exe, args.workload, args.seed, args.seconds,
                                args.trace, args.smoke, args.threads,
                                args.max_iters)
        check_provenance(rec, args.smoke, args.threads)
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2

    # The runner's own failures are already among its printed lines.
    ref_fail = reference_failures(rec, args.smoke)
    failed = min(rec["attempted"], rec["failed"] + len(ref_fail))
    metrics = rec["metrics"]
    failures = list(ref_fail)
    if not args.trace and not set(metrics) >= set(END_TO_END):
        failures.append(f"missing metrics: {sorted(set(END_TO_END) - set(metrics))}")
    provenance = {
        "git_commit": git_commit(), "source_digest": source_digest(),
        "build_type": rec["build_type"], "checks": rec["checks"],
        "compiler": rec["compiler"], "nproc": os.cpu_count(),
        "pool_threads": rec["pool_threads"], "workload": rec["workload"],
        "seed": rec["seed"], "seed_class": rec["seed_class"],
        "nranks": rec["nranks"], "inflow_speed": rec["inflow_speed"],
        "steps_timed": rec["steps_timed"], "smoke": rec["smoke"],
    }
    for line in lines:
        print(line)
    if rec["bypassed"]:
        print("bypassed (timed, but not on this workload's step path): "
              + ", ".join(rec["bypassed"]))
    for f in failures:
        print(f"FAILED {f}")
    print("provenance: " + json.dumps(provenance))
    correct = not failures and not rec["failures"] and failed == 0
    print(json.dumps({"correct": correct, "attempted": rec["attempted"],
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
