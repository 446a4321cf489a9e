#!/usr/bin/env python3
"""Self-tests of the benchmark, at smoke size (about 50 s on 4 cores).

    python3 perfbench/selftest.py

1. A smoke run of each workload, untraced and traced, is correct, has no
   failed step, and prints every metric BENCHMARK.json names, with its unit.
2. The cfd.* counts and the modeled NLI time are identical across two runs
   and across rank-pool sizes 1 and 4.
3. A forced failure (every GMRES budget cut to one iteration) is counted as
   failed steps: the run finishes, prints its result, and exits with 1.
4. In a directory holding only BENCHMARK.json and perfbench/, the benchmark
   exits nonzero without printing a result.
Exits nonzero if any check fails.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import run as bench  # noqa: E402

FAILURES = []


def check(cond, msg):
    print(("ok   " if cond else "FAIL ") + msg, flush=True)
    if not cond:
        FAILURES.append(msg)


def bench_run(*args, root=bench.ROOT):
    """Run perfbench/run.py; returns (exit code, result or None)."""
    proc = subprocess.run([sys.executable, str(root / "perfbench" / "run.py"),
                           *map(str, args)], cwd=root, capture_output=True,
                          text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except ValueError:
        result = None
    if result is not None and set(result) != {"correct", "attempted", "failed",
                                               "metrics"}:
        result = None
    return proc.returncode, result


def smoke(workload, trace, *extra):
    return bench_run("--workload", workload, "--seed", 0, "--seconds", 1,
                     "--trace", trace, "--smoke", *extra)


def deterministic(metrics):
    """The counts and the modeled time, which must repeat exactly."""
    return {k: v["value"] for k, v in metrics.items()
            if k.startswith("cfd.") and (v["unit"] in ("count", "B")
                                         or k == "cfd.nli_model_s")}


def main():
    spec = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
    want = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
            1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    bench.build()

    for w in bench.WORKLOADS:
        runs = {}
        for trace in (0, 1):
            rc, res = smoke(w, trace)
            check(rc == 0 and res is not None and res["correct"]
                  and res["failed"] == 0 and res["attempted"] >= 1,
                  f"{w} trace {trace}: smoke run correct, no failed step")
            got = res["metrics"] if res else {}
            missing = [n for n, u in want[trace].items()
                       if n not in got or got[n].get("unit") != u
                       or not isinstance(got[n].get("value"), (int, float))]
            check(not missing, f"{w} trace {trace}: every metric present with "
                  f"its unit {missing or ''}")
            runs[trace] = got
        again = smoke(w, 1)[1]
        serial = smoke(w, 1, "--threads", 1)[1]
        base = deterministic(runs[1])
        check(bool(base) and again is not None
              and deterministic(again["metrics"]) == base,
              f"{w}: cfd.* counts and nli_model_s repeat across two runs")
        check(serial is not None and deterministic(serial["metrics"]) == base,
              f"{w}: cfd.* counts and nli_model_s equal at pool sizes 1 and 4")
        nli1 = smoke(w, 0, "--threads", 1)[1]
        check(nli1 is not None and runs[0].get("nli_model_s") is not None
              and nli1["metrics"]["nli_model_s"]["value"]
              == runs[0]["nli_model_s"]["value"],
              f"{w}: untraced nli_model_s equal at pool sizes 1 and 4")

    rc, res = smoke("turbine1", 0, "--max-iters", 1)
    check(rc == 1 and res is not None and not res["correct"]
          and res["failed"] >= 1 and res["failed"] <= res["attempted"],
          f"forced failure (max_iters = 1) counted as failed steps "
          f"(exit {rc}, failed {res and res['failed']})")

    bare = bench.build_dir() / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy2(bench.ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    rc, res = bench_run("--workload", "turbine1", "--seed", 0, "--seconds", 1,
                        "--trace", 0, root=bare)
    check(rc != 0 and res is None,
          f"without the library sources: exit {rc}, no result printed")
    shutil.rmtree(bare, ignore_errors=True)

    print(f"{len(FAILURES)} failed" if FAILURES else "all self-tests passed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
