"""The benchmark's tracer wraps library functions by module and attribute
name; a rename in the library would otherwise show only in a traced
benchmark pass."""
import ast
import importlib
from pathlib import Path

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
