"""Spans and counts recorded from outside the library.

The library binds its imports when a module loads, so each hook replaces a
name in the module that looks it up at call time: `periods` calls
`integrate_singular`, `F_eval`, `solve_y` ... through its own globals,
`mesh` calls `phi_vec` and `edge_increments` through its globals, and the
`cli` command functions import from `.mesh`, `.periods` and `.verify` when
they run.  Nothing under `src/` is changed.

A span records name, start, end and the index of the span open when it
started.  Spans stay in memory until the pass ends; `layer_metrics` then
reduces them.  A span's self time is its duration minus the durations of
its direct children (one thread, so children never overlap).
"""
from __future__ import annotations

import functools
import importlib
import os
import re
import time
from collections import Counter, defaultdict
from contextlib import contextmanager


class Recorder:
    def __init__(self):
        self.spans = []          # [name, start, end, parent index or -1]
        self.counts = Counter()
        self.sizes = {}          # input sizes seen by the pass
        self._open = []

    @contextmanager
    def span(self, name):
        idx = len(self.spans)
        self.spans.append([name, 0.0, 0.0, self._open[-1] if self._open else -1])
        self._open.append(idx)
        self.counts[name + ".calls"] += 1
        self.spans[idx][1] = time.perf_counter()
        try:
            yield
        finally:
            self.spans[idx][2] = time.perf_counter()
            self._open.pop()

    def wrap(self, fn, name, after=None):
        """fn inside a span; after(recorder, args, kwargs, result) runs once
        the span is closed, so its own cost is not charged to fn."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if after is not None:
                after(self, args, kwargs, result)
            return result
        return traced

    def durations(self, name):
        return [e - s for (n, s, e, _) in self.spans if n == name]


def _counting_integrand(rec, integrate):
    """Count the abscissae each integrand is evaluated at.

    `functools.wraps` sets `__wrapped__`, so `inspect.signature` (used by
    `quad._wants_deltas`) still sees the integrand's own positional arity."""
    @functools.wraps(integrate)
    def with_count(f, *args, **kwargs):
        @functools.wraps(f)
        def counted(x, *rest):
            rec.counts["quad.nodes"] += len(x)
            return f(x, *rest)
        return integrate(counted, *args, **kwargs)
    return with_count


def _counting_only(rec, fn, key):
    @functools.wraps(fn)
    def counted(*args, **kwargs):
        rec.counts[key] += 1
        return fn(*args, **kwargs)
    return counted


def _points(key, arg):
    def after(rec, args, kwargs, result):
        rec.counts[key] += int(getattr(args[arg], "size", 1))
    return after


def _edges(rec, args, kwargs, result):
    rec.counts["mesh.edge_increments.edges"] += len(args[1])


def _solved(rec, args, kwargs, result):
    rec.sizes["R"] = result.report.R


def _piece(rec, args, kwargs, result):
    rec.sizes["piece_faces"] = len(result.faces)


def _assembled(rec, args, kwargs, result):
    # without the weld defect the tower has exactly 8*n_periods piece copies
    piece = args[0]
    rec.sizes["tower_faces"] = len(result.faces)
    rec.counts["mesh.assemble.faces_short"] += (
        8*result.n_periods*len(piece.faces) - len(result.faces))


def _exported(rec, args, kwargs, result):
    path = args[1] if len(args) > 1 else kwargs["path"]
    rec.counts["mesh.export_obj.bytes"] += os.path.getsize(path)


_CANDIDATES = re.compile(r"(\d+) candidate pairs")


def _selfint(rec, args, kwargs, result):
    m = _CANDIDATES.search(result.detail)
    rec.counts["verify.selfint.candidates"] += int(m.group(1)) if m else 0
    rec.counts["verify.selfint.hits"] += int(result.value)
    rec.counts["verify.selfint.faces"] += len(args[1])


# (module, attribute, span name, after-hook).  The first group also runs in
# untraced passes: a handful of calls per pass, needed for the per-solve
# latency, the output checks and the input sizes.
LIGHT = [
    ("saddle_forge.periods", "solve_periods", "periods.solve_periods", _solved),
    ("saddle_forge.mesh", "integrate_piece", "mesh.integrate_piece", _piece),
    ("saddle_forge.mesh", "assemble", "mesh.assemble", _assembled),
]
FULL = LIGHT + [
    ("saddle_forge.periods", "sweep_family", "periods.sweep_family", None),
    ("saddle_forge.periods", "write_sweep_csv", "periods.write_sweep_csv", None),
    ("saddle_forge.periods", "period_report_for", "periods.period_report_for", None),
    ("saddle_forge.periods", "solve_y", "periods.solve_y", None),
    ("saddle_forge.mesh", "build_grid", "mesh.build_grid", None),
    ("saddle_forge.mesh", "edge_increments", "mesh.edge_increments", _edges),
    ("saddle_forge.mesh", "phi_vec", "weier.phi_vec", _points("weier.phi_vec.points", 1)),
    ("saddle_forge.mesh", "phi_vec_delta", "weier.phi_vec_delta",
     _points("weier.phi_vec_delta.points", 2)),
    ("saddle_forge.mesh", "export_obj", "mesh.export_obj", _exported),
    ("saddle_forge.verify", "check_symmetry_table", "verify.check_symmetry_table", None),
    ("saddle_forge.verify", "degree_diagnostic", "verify.degree_diagnostic", None),
    ("saddle_forge.verify", "check_injectivity", "verify.check_injectivity", None),
    ("saddle_forge.verify", "check_profile_bell", "verify.check_profile_bell", None),
    ("saddle_forge.verify", "check_self_intersections",
     "verify.check_self_intersections", _selfint),
    ("saddle_forge.verify", "case_diagnostics", "verify.case_diagnostics", None),
]


def install(rec, full):
    """Replace the hooked names in the library modules (for this process)."""
    for modname, attr, name, after in (FULL if full else LIGHT):
        mod = importlib.import_module(modname)
        setattr(mod, attr, rec.wrap(getattr(mod, attr), name, after))
    if full:
        periods = importlib.import_module("saddle_forge.periods")
        for attr in ("integrate_singular", "integrate_to_infinity"):
            fn = _counting_integrand(rec, getattr(periods, attr))
            setattr(periods, attr, rec.wrap(fn, "quad." + attr))
        periods.F_eval = _counting_only(rec, periods.F_eval, "periods.F_eval.calls")


def layer_metrics(rec):
    """Per-layer metrics of one traced pass; the root span is named `cli`."""
    total = defaultdict(float)
    own = defaultdict(float)
    child = defaultdict(float)
    for name, s, e, parent in rec.spans:
        if parent >= 0:
            child[parent] += e - s
    for i, (name, s, e, parent) in enumerate(rec.spans):
        total[name] += e - s
        own[name] += (e - s) - child[i]

    def layer_total(layer):
        # used for quad and weier, whose spans never nest in each other
        return sum(v for k, v in total.items() if k.split(".")[0] == layer)

    c = rec.counts
    solves = c["periods.solve_periods.calls"]
    faces = c["verify.selfint.faces"]
    return {
        "quad.calls": (c["quad.integrate_singular.calls"]
                       + c["quad.integrate_to_infinity.calls"]),
        "quad.nodes": c["quad.nodes"],
        "quad.s": layer_total("quad"),
        "periods.solve_periods.s": total["periods.solve_periods"],
        "periods.period_report_for.calls": c["periods.period_report_for.calls"],
        "periods.reports_per_solve": (c["periods.period_report_for.calls"]/solves
                                      if solves else 0.0),
        "periods.solve_y.calls": c["periods.solve_y.calls"],
        "periods.solve_y.s": total["periods.solve_y"],
        "periods.F_eval.calls": c["periods.F_eval.calls"],
        "periods.self_s": sum(v for k, v in own.items()
                              if k.split(".")[0] == "periods"),
        "weier.phi_vec.points": c["weier.phi_vec.points"],
        "weier.phi_vec_delta.points": c["weier.phi_vec_delta.points"],
        "weier.s": layer_total("weier"),
        "mesh.build_grid.s": total["mesh.build_grid"],
        "mesh.edge_increments.s": total["mesh.edge_increments"],
        "mesh.edge_increments.edges": c["mesh.edge_increments.edges"],
        "mesh.integrate_piece.self_s": own["mesh.integrate_piece"],
        "mesh.assemble.s": total["mesh.assemble"],
        "mesh.assemble.faces_short": c["mesh.assemble.faces_short"],
        "mesh.export_obj.s": total["mesh.export_obj"],
        "mesh.export_obj.bytes": c["mesh.export_obj.bytes"],
        "verify.check_symmetry_table.s": total["verify.check_symmetry_table"],
        "verify.degree_diagnostic.s": total["verify.degree_diagnostic"],
        "verify.check_injectivity.s": total["verify.check_injectivity"],
        "verify.check_profile_bell.s": total["verify.check_profile_bell"],
        "verify.check_self_intersections.s": total["verify.check_self_intersections"],
        "verify.selfint.candidates": c["verify.selfint.candidates"],
        "verify.selfint.candidates_per_face": (c["verify.selfint.candidates"]/faces
                                               if faces else 0.0),
        "verify.selfint.hits": c["verify.selfint.hits"],
        "cli.self_s": own["cli"],
    }
