"""The three workloads: inputs drawn from the seed, one pass of each, and
the checks on what the pass produced.

`make_inputs` runs in the benchmark's parent process and imports nothing
but the standard library.  `run_pass` runs in a fresh child process per
pass (see child.py); the program receives only the generated inputs.
"""
from __future__ import annotations

import csv
import io
import os
import random
import time
from contextlib import redirect_stderr, redirect_stdout

WORKLOADS = ("family_sweep", "tower_mesh_128", "verify_32")

SOLVE_TOL = 1e-10              # the CLI's --tol default
SWEEP_T_RANGE = (0.005, 0.05)
SWEEP_N_T = 10
# Fixed columns: the warm start jumps from the last X_offset back to the
# first at every new t, and the cost of that jump depends so strongly on
# the two X_offsets that drawn columns made one pass cost 574 to 1157 period
# reports across seeds.  Drawn t (one per tenth of the range) cost 661-684.
SWEEP_X_OFFSETS = (0.00375, 0.01125, 0.01875, 0.02625)
T_REL_TOL = 1e-9               # tower period T against the residue R


def make_inputs(workload, seed):
    rng = random.Random(f"{workload}:{seed}")
    if workload == "family_sweep":
        lo, hi = SWEEP_T_RANGE
        w = (hi - lo)/SWEEP_N_T
        return {"t_grid": [lo + w*(i + rng.random()) for i in range(SWEEP_N_T)],
                "X_grid": list(SWEEP_X_OFFSETS)}
    if workload == "tower_mesh_128":
        return {"t": rng.uniform(0.015, 0.025), "X_offset": rng.uniform(0.0, 0.01),
                "resolution": 128, "n_periods": 1}
    if workload == "verify_32":
        return {"t": rng.uniform(0.015, 0.025), "X_offset": 0.0,
                "resolution": 32, "seed": rng.randrange(2**31)}
    raise ValueError(f"unknown workload {workload!r}")


class Outcome:
    """Operations attempted and failed in one pass, with the first reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def op(self, ok, why=""):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append(why)


def run_pass(workload, inputs, workdir, rec):
    """One pass; returns (wall seconds, Outcome, outputs produced).

    Only the library calls are timed (inside the `cli` root span); the
    output checks run afterwards."""
    return {"family_sweep": _sweep, "tower_mesh_128": _mesh,
            "verify_32": _verify}[workload](inputs, workdir, rec)


def _sweep(inputs, workdir, rec):
    from saddle_forge import periods
    path = os.path.join(workdir, "sweep.csv")
    t0 = time.perf_counter()
    with rec.span("cli"):
        rows = periods.sweep_family(inputs["t_grid"], inputs["X_grid"], tol=SOLVE_TOL)
        periods.write_sweep_csv(rows, path)
    wall = time.perf_counter() - t0

    out = Outcome()
    for t, X_offset, sol in rows:
        if sol is None:
            out.op(False, f"no convergence at t={t!r} X_offset={X_offset!r}")
            continue
        res = max(abs(sol.report.pi1), abs(sol.report.pi2))
        out.op(res < SOLVE_TOL, f"period residual {res:.3e} at t={t!r}")
    with open(path, newline="") as fh:
        written = list(csv.reader(fh))
    flags = [row[-1] for row in written[1:]]
    out.op(flags == ["0" if sol is None else "1" for *_, sol in rows],
           f"CSV holds {len(flags)} rows that do not match the {len(rows)} solves")
    os.remove(path)
    converged = sum(sol is not None for *_, sol in rows)
    return wall, out, converged


def _cli(argv, rec):
    from saddle_forge import cli
    stdout, stderr = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    with rec.span("cli"), redirect_stdout(stdout), redirect_stderr(stderr):
        code = cli.main(argv)
    wall = time.perf_counter() - t0
    values = {}
    for line in stdout.getvalue().splitlines():
        key, sep, value = line.partition(" = ")
        if sep:
            values[key] = value
    return wall, code, values, stderr.getvalue().strip()


def _mesh(inputs, workdir, rec):
    path = os.path.join(workdir, "tower.obj")
    wall, code, values, err = _cli(
        ["mesh", "--t", repr(inputs["t"]), "--X-offset", repr(inputs["X_offset"]),
         "--resolution", str(inputs["resolution"]),
         "--n-periods", str(inputs["n_periods"]), "--output", path], rec)

    out = Outcome()
    if code != 0:
        out.op(False, f"mesh exited {code}: {err[-300:]}")
        return wall, out, 0
    with open(path, "rb") as fh:
        data = fh.read()
    os.remove(path)
    n_v, n_f = data.count(b"\nv "), data.count(b"\nf ")
    out.op(n_v == int(values["vertices"]) and n_f == int(values["faces"]),
           f"OBJ holds {n_v} vertices and {n_f} faces, the CLI reported "
           f"{values['vertices']} and {values['faces']}")
    # T is twice the height jump across the puncture at z = a, which is the
    # closed-form residue R of the period solve (15.9040175167 at t = 0.02)
    T, R = float(values["T"]), rec.sizes["R"]
    out.op(T > 0 and abs(T - R) <= T_REL_TOL*R,
           f"tower period T={T!r} differs from the residue R={R!r}")
    return wall, out, int(values["faces"])


def _verify(inputs, workdir, rec):
    wall, code, values, err = _cli(
        ["verify", "--t", repr(inputs["t"]), "--X-offset", repr(inputs["X_offset"]),
         "--resolution", str(inputs["resolution"]), "--seed", str(inputs["seed"])],
        rec)

    out = Outcome()
    checks = {k: v for k, v in values.items() if k.startswith("check[")}
    for name, verdict in checks.items():
        out.op(verdict == "pass", f"{name} = {verdict}")
    out.op(code == 0 and values.get("verified") == "1",
           f"verify exited {code} with verified={values.get('verified')}: {err[-300:]}")
    return wall, out, rec.sizes.get("tower_faces", 0)
