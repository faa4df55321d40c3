"""The benchmark's tracer wraps library functions by module and attribute
name, and its after-hooks read argument positions and result fields; a
rename or a reordered parameter in the library would otherwise show only
as a missing or zero count in a traced benchmark pass."""
import ast
import importlib
import importlib.util
import inspect
from pathlib import Path

import numpy as np

import saddle_forge.mesh as mesh
import saddle_forge.periods as periods
import saddle_forge.verify as verify

TRACING = Path(__file__).resolve().parents[1]/"bench"/"tracing.py"


def _hooked():
    """(module, attribute) pairs of bench/tracing.py, read from its source:
    its hook table entries, and the `periods` attributes `install` wraps."""
    tree = ast.parse(TRACING.read_text())
    pairs = set()
    for node in ast.walk(tree):
        if (isinstance(node, ast.Tuple) and len(node.elts) == 4
                and isinstance(node.elts[0], ast.Constant)
                and str(node.elts[0].value).startswith("saddle_forge.")):
            pairs.add((node.elts[0].value, node.elts[1].value))
    install = next(n for n in tree.body
                   if isinstance(n, ast.FunctionDef) and n.name == "install")
    for node in ast.walk(install):
        if isinstance(node, ast.For) and isinstance(node.iter, ast.Tuple):
            pairs |= {("saddle_forge.periods", e.value) for e in node.iter.elts}
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id == "periods"):
            pairs.add(("saddle_forge.periods", node.attr))
    return pairs


def test_every_traced_name_exists_in_the_library():
    hooked = _hooked()
    # the table and both kinds of install-time hook were found
    assert ("saddle_forge.verify", "case_diagnostics") in hooked
    assert ("saddle_forge.periods", "integrate_singular") in hooked
    assert ("saddle_forge.periods", "F_eval") in hooked
    missing = [f"{m}.{a}" for m, a in sorted(hooked)
               if not callable(getattr(importlib.import_module(m), a, None))]
    assert missing == []


def test_after_hooks_read_what_the_library_passes(monkeypatch, tmp_path):
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for m, a in _hooked():
        mod = importlib.import_module(m)
        monkeypatch.setattr(mod, a, getattr(mod, a))  # restored afterwards
    rec = tracing.Recorder()
    tracing.install(rec, full=True)

    sol = periods.solve_periods(0.02, 0.0, tol=1e-9)
    grid = mesh.build_grid(sol.params, 32)
    piece = mesh.integrate_piece(grid)
    tower = mesh.assemble(piece, n_periods=2)
    mesh.export_obj(tower, tmp_path/"positional.obj")
    mesh.export_obj(tower, path=tmp_path/"keyword.obj")
    res = verify.check_self_intersections(piece.vertices, piece.faces)

    c = rec.counts
    assert rec.sizes["R"] == sol.report.R
    assert c["quad.nodes"] > 0
    assert c["periods.F_eval.calls"] > 0
    assert rec.sizes["piece_faces"] == len(piece.faces)
    assert rec.sizes["tower_faces"] == len(tower.faces)
    assert c["mesh.assemble.faces_short"] == 0
    # one call per piece, with every edge between two live nodes
    a = grid.alive
    edges = int(np.sum(a[:, :-1] & a[:, 1:]) + np.sum(a[:-1] & a[1:]))
    assert c["mesh.edge_increments.calls"] == 1
    assert c["mesh.edge_increments.edges"] == edges
    # one phi_vec_delta call per Gauss node, each on every edge
    n_gauss = inspect.signature(mesh.edge_increments).parameters["n_gauss"]
    assert c["weier.phi_vec_delta.points"] == n_gauss.default*edges
    assert c["mesh.export_obj.bytes"] == sum(
        (tmp_path/name).stat().st_size
        for name in ("positional.obj", "keyword.obj"))
    assert c["verify.selfint.candidates"] > 0
    assert f"{c['verify.selfint.candidates']} candidate pairs" in res.detail
    assert c["verify.selfint.hits"] == res.value
    assert c["verify.selfint.faces"] == len(piece.faces)
