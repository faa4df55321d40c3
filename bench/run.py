"""saddle-forge benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs passes of one workload (see workloads.py), each in a fresh child
interpreter, one at a time, until the next pass would end after S seconds;
at least one pass, and with --trace 1 at least one traced and one untraced
pass, alternating.  Before each pass it starts SETUP_PROBES interpreters
that only import `saddle_forge.cli`, so that `setup_s` has samples spread
over the whole run; the probes count towards the S seconds.

Stdout: one provenance JSON line, then as the last line
{"correct", "attempted", "failed", "metrics"} with the `end_to_end` metrics
of BENCHMARK.json (--trace 0) or its `per_layer` metrics (--trace 1).
A readable table goes to stderr.  Exits 2 without a result when
BENCHMARK.json or the library source is missing or a pass crashes.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS, make_inputs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_PROBES = 2
PASS_TIMEOUT_S = 150
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "NUMEXPR_NUM_THREADS", "SADDLE_FORGE_THREADS")


def fail(msg):
    print(f"bench: {msg}", file=sys.stderr)
    sys.exit(2)


def git_sha():
    """HEAD of the checkout, or "unknown" outside a git checkout.  The
    ceiling keeps git from taking the sha of a repository above it."""
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
                              capture_output=True, text=True)
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def run_child(spec, env):
    spec = dict(spec, spawned_at=time.monotonic())
    try:
        proc = subprocess.run([sys.executable, str(HERE / "child.py"), json.dumps(spec)],
                              env=env, capture_output=True, text=True,
                              timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"a {spec['workload']} pass ran longer than {PASS_TIMEOUT_S} s")
    if proc.returncode != 0:
        fail(f"a {spec['workload']} pass exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "BENCHMARK.json").is_file():
        fail(f"no BENCHMARK.json in {ROOT}")
    if not (SRC / "saddle_forge" / "__init__.py").is_file():
        fail(f"no library source at {SRC / 'saddle_forge'}")
    wanted = json.loads((ROOT / "BENCHMARK.json").read_text())[
        "per_layer" if args.trace else "end_to_end"]

    threads = len(os.sched_getaffinity(0))
    env = dict(os.environ, PYTHONPATH=str(SRC),
               **{var: str(threads) for var in BLAS_THREAD_VARS})
    inputs = make_inputs(args.workload, args.seed)
    workdir = ROOT / ".bench_tmp" / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    pass_spec = {"workload": args.workload, "inputs": inputs, "workdir": str(workdir)}
    try:
        setups, passes = [], []
        start = time.monotonic()
        while True:
            setups += [run_child({"workload": None}, env)["setup_s"]
                       for _ in range(SETUP_PROBES)]
            traced = bool(args.trace) and len(passes) % 2 == 0
            passes.append(dict(run_child(dict(pass_spec, trace=traced), env),
                               traced=traced))
            elapsed = time.monotonic() - start
            if args.trace and len(passes) < 2:
                continue
            if elapsed*(len(passes) + 1)/len(passes) > args.seconds:
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass

    plain = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    med = statistics.median
    solve_s = [s for p in plain for s in p["solve_s"]]
    values = {
        "setup_s": med(setups + [p["setup_s"] for p in passes]),
        "wall_s": med(p["wall_s"] for p in plain),
        "peak_rss_mb": med(p["peak_rss_mb"] for p in plain),
        "outputs_per_s": med(p["outputs"]/p["wall_s"] for p in plain),
        "periods.solve_s.p50": med(solve_s or [0.0]),
        "periods.solve_s.p75": (statistics.quantiles(solve_s, n=4)[2]
                                if len(solve_s) > 1 else med(solve_s or [0.0])),
    }
    if traced:
        for key in traced[0]["layers"]:
            values[key] = med(p["layers"][key] for p in traced)
        values["trace.overhead_s"] = med(p["wall_s"] for p in traced) - values["wall_s"]
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        fail(f"BENCHMARK.json names metrics this benchmark does not measure: {missing}")

    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    for p in passes:
        for why in p["errors"]:
            print(f"bench: failed: {why}", file=sys.stderr)
    provenance = {
        "workload": args.workload, "seed": args.seed, "inputs": inputs,
        "sizes": passes[0]["sizes"], "git_sha": git_sha(),
        "python": passes[0]["python"], "numpy": passes[0]["numpy"],
        "cpu_count": os.cpu_count(), "nproc": threads, "blas_threads": threads,
        "pass_walls": [p["wall_s"] for p in plain], "traced_passes": len(traced),
        "setup_samples": len(setups) + len(passes), "solve_samples": len(solve_s),
    }
    print(json.dumps({"provenance": provenance}))
    for m in wanted:
        print(f"{m['name']:40s} {values[m['name']]:14.6g} {m['unit']}", file=sys.stderr)
    print(f"{'fail_ratio':40s} {failed/attempted:14.6g} ({failed}/{attempted})",
          file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in wanted}}))


if __name__ == "__main__":
    main()
