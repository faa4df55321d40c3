"""Steadiness check of the benchmark.

    python3 bench/steady.py [--out FILE]

Runs run.py --trace 0 ten times per workload of BENCHMARK.json in each of
two sets, each run with another seed (set k uses seeds 1000*k, 1000*k + 1,
...), for `run_seconds` of BENCHMARK.json.  Per workload and end-to-end
metric it prints each set's median and spread -- the distance between the
first and third quartile, as `statistics.quantiles(values, n=4)` gives
them, as a share of the median -- and whether

  * every set's spread stays within the metric's bound, and below a third
    of it (the target for a steady benchmark; reported, not gated);
  * the two sets' medians differ, either way, by no more than the bound.

Then it runs run.py --trace 1 twice on one seed per workload and reports
which per-layer metrics with unit count or bytes repeat exactly, naming
each.  Exits 1 if any check fails.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
COUNT_UNITS = ("count", "bytes")
RUNS = 10
SETS = 2


def run(workload, seed, seconds, trace):
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit(f"run.py {workload} seed {seed} exited {proc.returncode}:\n"
                 f"{proc.stderr[-2000:]}")
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    result["provenance"] = json.loads(lines[-2])["provenance"]
    result["run_s"] = time.monotonic() - start
    return result


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1)/statistics.median(values)


def change(metric, base, new):
    """Signed change of `new` against `base`, positive when worse."""
    rel = (new - base)/base
    return rel if metric["better"] == "lower" else -rel


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--out", help="write every run's result and the summary as JSON")
    args = ap.parse_args()
    seconds = bench["run_seconds"]

    ok = True
    report = {"run_seconds": seconds, "workloads": {}}
    for name in (w["name"] for w in bench["workloads"]):
        sets = []
        for k in range(SETS):
            results = []
            for seed in range(1000*k, 1000*k + RUNS):
                r = run(name, seed, seconds, 0)
                print(f"{name} seed {seed} ({r['run_s']:.1f} s): correct={r['correct']} "
                      f"failed={r['failed']}/{r['attempted']} " + " ".join(
                          f"{m}={v['value']:.6g}" for m, v in r["metrics"].items()),
                      file=sys.stderr, flush=True)
                ok &= r["correct"] and r["failed"] == 0
                results.append(r)
            sets.append(results)
        summary = {}
        print(f"\n{name}  ({SETS} sets x {RUNS} runs)")
        for metric in bench["end_to_end"]:
            m, bound = metric["name"], metric["bound"]
            per_set = [[r["metrics"][m]["value"] for r in results] for results in sets]
            meds = [statistics.median(v) for v in per_set]
            spreads = [spread(v) for v in per_set]
            moved = change(metric, meds[0], meds[1])
            within = max(spreads) <= bound
            steady = max(spreads) < bound/3
            agree = abs(moved) <= bound
            ok &= within and agree
            summary[m] = {"medians": meds, "spreads": spreads, "second_worse_by": moved,
                          "bound": bound, "values": per_set}
            print(f"  {m:16s} medians " + " ".join(f"{x:.6g}" for x in meds)
                  + "  spreads " + " ".join(f"{x:.3f}" for x in spreads)
                  + f"  bound {bound}: spread {'ok' if within else 'OVER'}"
                  + f"{'' if steady else ' (not below bound/3)'}"
                  + f", sets {'agree' if agree else 'DISAGREE'} (second worse by {moved:+.3f})")
        entry = {"e2e": summary, "provenance": sets[0][0]["provenance"]}

        first, second = (run(name, 0, seconds, 1) for _ in range(2))
        units = {x["name"]: x["unit"] for x in bench["per_layer"]}
        counts = {m: (first["metrics"][m]["value"], second["metrics"][m]["value"])
                  for m in first["metrics"] if units[m] in COUNT_UNITS}
        same = [m for m, (a, b) in counts.items() if a == b]
        differ = {m: v for m, v in counts.items() if v[0] != v[1]}
        ok &= not differ
        entry.update(per_layer=first["metrics"], counts_same=same, counts_differ=differ)
        print(f"  counts repeating exactly on seed 0: {len(same)}/{len(counts)}: "
              + ", ".join(same) + (f"; differing: {differ}" if differ else ""))
        report["workloads"][name] = entry

    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    print("\nsteady: " + ("all checks pass" if ok else "SOME CHECKS FAIL"))
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
