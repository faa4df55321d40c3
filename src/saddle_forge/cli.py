"""Command-line interface.

Subcommands: solve, periods, mesh, verify, sweep.  Machine-readable results
go to stdout (one `key = value` per line, or CSV for sweep); diagnostics go
to stderr.  Exit codes: 0 success, 2 a numerical check failed, 3 invalid
input (a usage error included), 4 I/O error.

Options may also be supplied through a config file of `key = value` lines
(--config); explicit command-line flags override file values.  An option
the chosen mode ignores (`sweep --t` without --fig6, a grid option or --tol
with it, `mesh --n-periods` with --piece-only) is a usage error.
A write that fails, to an output file or to stdout (its reader gone, say),
exits 4 with one `error:` line naming the file or stdout; one to stderr
exits 4 with nothing said.
"""
from __future__ import annotations

import argparse
import csv
import io
import os
import re
import sys

import numpy as np

from . import mesh, periods, verify
from .errors import (EXIT_CHECK_FAILED, EXIT_INVALID_INPUT, EXIT_IO, EXIT_OK,
                     InvalidResolution, NotApplicable, SaddleForgeError)
from .files import atomic_target


def _read_config(path):
    values = {}
    try:
        with open(path) as fh:
            for line in fh:
                # a comment starts a line or follows whitespace
                line = re.split(r"(?:^|\s)#", line, maxsplit=1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ValueError(f"malformed config line: {line!r}")
                k, v = line.split("=", 1)
                values[k.strip().replace("-", "_")] = v.strip()
        return values
    except OSError as e:
        _note(f"error: cannot read config {path}: {e}")
        sys.exit(EXIT_IO)
    except ValueError as e:
        _note(f"error: {e}")
        sys.exit(EXIT_INVALID_INPUT)


class _Parser(argparse.ArgumentParser):
    """A usage error is invalid input, exit 3; subparsers share the class."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INVALID_INPUT, f"{self.prog}: error: {message}\n")


def parse_args(argv):
    """The options of argv.  A first parse without defaults names the
    options argv gives.  The values of a --config file become the
    subcommand's defaults for a second parse of argv, so every flag given
    on the command line wins over the file, however it is spelled, and a
    file value satisfies a required option.  Giving an option that the
    chosen mode ignores (`_IGNORED`) is a usage error.  The first parse
    requires nothing, so its usage, printed for -h or an error, is frozen
    as built, with the required options marked."""
    parser = build_parser()
    for sp in parser.subcommands.values():
        sp.usage = sp.format_usage().removeprefix("usage: ").strip()
        for action in sp._actions:
            action.default, action.required = argparse.SUPPRESS, False
    given = vars(parser.parse_args(argv))
    parser = build_parser()
    sp = parser.subcommands[given["command"]]
    options = {a.dest: a for a in sp._actions if a.dest != "help"}
    defaults = {}
    if "config" in given:
        for k, v in _read_config(given["config"]).items():
            if k not in options:
                _note(f"error: unknown config key {k!r}")
                sys.exit(EXIT_INVALID_INPUT)
            defaults[k] = _config_value(k, v, options[k])
        sp.set_defaults(**defaults)
    for action in sp._actions:
        action.required = action.required and action.dest not in defaults
    args = parser.parse_args(argv)
    for (switch, on), ignored in _IGNORED.items():
        clash = [d for d in ignored if d in given or d in defaults]
        if getattr(args, switch, None) == on and clash:
            sp.error(f"--{clash[0].replace('_', '-')} is ignored "
                     f"{'with' if on else 'without'} "
                     f"--{switch.replace('_', '-')}")
    return args


_BOOLS = {"1": True, "true": True, "yes": True,
          "0": False, "false": False, "no": False}


def _config_value(key, text, action):
    """`text` cast to the option's declared type (a boolean for a flag);
    exit 3 if it does not parse."""
    try:
        if isinstance(action.default, bool):
            return _BOOLS[text.lower()]
        return action.type(text) if action.type else text
    except (KeyError, TypeError, ValueError):
        _note(f"error: config key {key!r}: invalid value {text!r}")
        sys.exit(EXIT_INVALID_INPUT)


class _StdoutError(Exception):
    """A write to stdout failed."""


def _emit(pairs):
    """`key = value` lines on stdout, flushed, so that a failed write to
    stdout shows here, whatever its buffering, as _StdoutError."""
    try:
        for k, v in pairs:
            print(f"{k} = {v:.17g}" if isinstance(v, float) else f"{k} = {v}")
        sys.stdout.flush()
    except OSError as e:
        raise _StdoutError(e) from e


def _note(text):
    """A diagnostic line on stderr.  If it cannot be written, nothing more
    can be said: exit 4."""
    try:
        print(text, file=sys.stderr, flush=True)
    except OSError:
        _discard(sys.stderr)
        sys.exit(EXIT_IO)


def _discard(stream):
    """What the stream still buffers would fail again at exit, with a
    traceback: its file descriptor goes to the null device instead."""
    with open(os.devnull, "w") as null:
        os.dup2(null.fileno(), stream.fileno())


def cmd_solve(args):
    sol = periods.solve_periods(args.t, args.X_offset, tol=args.tol)
    _emit(zip(periods.SWEEP_HEADER, periods.solution_values(sol)))
    return EXIT_OK


def cmd_periods(args):
    p = periods.resolve_params(args.t, args.X_offset, args.a, args.b)
    rep = periods.period_report_for(p)
    _emit([("a", p.a), ("b", p.b), ("y", p.y), *vars(rep).items()])
    return EXIT_OK


def cmd_mesh(args):
    sol = periods.solve_periods(args.t, args.X_offset, tol=args.tol)
    piece = mesh.integrate_piece(mesh.build_grid(sol.params, args.resolution))
    rep = sol.report
    if args.piece_only:
        out_mesh = piece
    else:
        out_mesh = mesh.assemble(piece, n_periods=args.n_periods)
    mesh.export_obj(out_mesh, args.output, pi1=rep.pi1, pi2=rep.pi2,
                    comment=f"t={sol.t:.17g} X_offset={sol.X_offset:.17g} "
                            f"resolution={args.resolution} T={piece.T:.17g}")
    _emit([("vertices", len(out_mesh.vertices)), ("faces", len(out_mesh.faces)),
           ("T", piece.T), ("lc_max", float(np.max(piece.loop_residuals))),
           ("output", args.output)])
    return EXIT_OK


def cmd_verify(args):
    if args.seed < 0:
        raise InvalidResolution(f"--seed must be at least 0, got {args.seed}")
    p = periods.solve_periods(args.t, args.X_offset, tol=args.tol).params
    # the piece is built first, so a bad --resolution is rejected before
    # the curve-level checks run
    piece = mesh.integrate_piece(mesh.build_grid(p, args.resolution))
    results = verify.check_symmetry_table(p)

    dd = verify.degree_diagnostic(p)
    results.append(verify.CheckResult("gauss_degree", dd["degree"] == 5,
                                      dd["degree"], str(dd["windings"])))

    results.append(verify.check_injectivity(piece.vertices, seed=args.seed))
    try:
        results.append(verify.check_profile_bell(piece))
    except NotApplicable as e:
        _note(f"profile_bell: skipped ({e})")

    asm = mesh.assemble(piece, n_periods=2)
    results.append(verify.check_tower_embedded(piece, asm))
    _note(f"self_intersection: {results[-1].detail}")

    diag = verify.case_diagnostics(p)
    _note(f"diagnostics: discriminant={diag['discriminant']:.6g} "
          f"conjugate_quadruple={diag['conjugate_quadruple']} "
          f"theta_outer_range={diag['theta_outer_range']}")

    ok = True
    for r in results:
        _emit([(f"check[{r.name}]", "pass" if r.passed else "FAIL")])
        if not r.passed:
            ok = False
            _note(f"FAIL {r.name}: value={r.value} {r.detail}")
    _emit([("verified", int(ok))])
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def _grid(lo, hi, n, flag):
    """n points from lo to hi; a grid of no points is invalid input."""
    if n < 1:
        raise InvalidResolution(f"{flag} must be at least 1, got {n}")
    return np.linspace(lo, hi, n)


def cmd_sweep(args):
    if args.fig6:
        return _sweep_fig6(args)
    t_grid = _grid(args.t_min, args.t_max, args.n_t, "--n-t")
    X_grid = _grid(args.X_min, args.X_max, args.n_X, "--n-X")
    rows = periods.sweep_family(t_grid, X_grid, tol=args.tol)
    periods.write_sweep_csv(rows, args.output)
    n_ok = sum(1 for (_, _, s) in rows if s is not None)
    _note(f"{n_ok}/{len(rows)} solves converged")
    _emit([("rows", len(rows)), ("converged", n_ok), ("output", args.output)])
    return EXIT_OK if n_ok == len(rows) else EXIT_CHECK_FAILED


def _sweep_fig6(args):
    """Raw period-residual landscape: pi1 and pi2 over an (a, b) grid at
    fixed family coordinates, for contour plotting of the two zero sets."""
    # a point error below is recorded as a row; a bad (t, X_offset) would
    # fail every point, so it is rejected before the grid
    periods.check_family_coords(args.t, args.X_offset)
    a_lo, a_hi, b_lo, b_hi = periods.DEFAULT_SEED_BOX
    a_grid = _grid(a_lo, a_hi, args.n_a, "--n-a")
    b_grid = _grid(b_lo, b_hi, args.n_b, "--n-b")
    n_ok = 0
    with (atomic_target(args.output) as fh,
          io.TextIOWrapper(fh, newline="") as text):
        wr = csv.writer(text)
        wr.writerow(["a", "b", "y", "pi1", "pi2", "ok"])
        for a in a_grid:
            for b in b_grid:
                try:
                    p = periods.resolve_params(args.t, args.X_offset, a, b)
                    rep = periods.period_report_for(p)
                    wr.writerow([f"{v:.17g}" for v in
                                 (a, b, p.y, rep.pi1, rep.pi2)] + ["1"])
                    n_ok += 1
                except SaddleForgeError:
                    wr.writerow([f"{a:.17g}", f"{b:.17g}", "", "", "", "0"])
    total = len(a_grid)*len(b_grid)
    _note(f"{n_ok}/{total} grid points evaluated")
    _emit([("rows", total), ("evaluated", n_ok), ("output", args.output)])
    return EXIT_OK


def _add_common(sp, solves=True):
    sp.add_argument("--config", help="key = value option file; flags override")
    sp.add_argument("--t", type=float, default=0.02,
                    help="family parameter t = a - x")
    sp.add_argument("--X-offset", dest="X_offset", type=float, default=0.0,
                    help="family parameter X - a")
    if solves:
        sp.add_argument("--tol", type=float, default=1e-10,
                        help="period-solver residual tolerance")


# (switch, value) -> the options a subcommand ignores in that mode; giving
# one, on the command line or in a config file, exits 3
_IGNORED = {
    ("piece_only", True): ("n_periods",),
    ("fig6", False): ("t", "X_offset"),
    ("fig6", True): ("t_min", "t_max", "n_t", "X_min", "X_max", "n_X", "tol"),
}


def build_parser():
    ap = _Parser(
        prog="saddle-forge",
        description="construct and verify singly periodic genus-two "
                    "saddle towers from explicit curve data")
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("solve", help="solve the three period problems")
    _add_common(sp)
    sp.set_defaults(fn=cmd_solve)

    sp = sub.add_parser("periods",
                        help="period report at explicit (a, b) without solving")
    _add_common(sp, solves=False)
    sp.add_argument("--a", type=float, required=True)
    sp.add_argument("--b", type=float, required=True)
    sp.set_defaults(fn=cmd_periods)

    sp = sub.add_parser("mesh", help="solve, mesh, assemble, export OBJ")
    _add_common(sp)
    sp.add_argument("--resolution", type=int, default=64)
    sp.add_argument("--n-periods", type=int, default=1)
    sp.add_argument("--piece-only", action="store_true",
                    help="export the fundamental piece instead of the tower")
    sp.add_argument("--output", "-o", default="tower.obj")
    sp.set_defaults(fn=cmd_mesh)

    sp = sub.add_parser("verify", help="run the verification checks")
    _add_common(sp)
    sp.add_argument("--resolution", type=int, default=64)
    sp.add_argument("--seed", type=int, default=verify.DEFAULT_SEED,
                    help="seed of the injectivity sampling")
    sp.set_defaults(fn=cmd_verify)

    sp = sub.add_parser("sweep", help="solve the family over a parameter grid")
    _add_common(sp)
    sp.add_argument("--t-min", type=float, default=0.01)
    sp.add_argument("--t-max", type=float, default=0.05)
    sp.add_argument("--n-t", type=int, default=5)
    sp.add_argument("--fig6", action="store_true",
                    help="emit the raw pi1/pi2 landscape over the (a, b) "
                         "window at fixed (t, X_offset) for contour plotting")
    sp.add_argument("--X-min", type=float, default=0.0)
    sp.add_argument("--X-max", type=float, default=0.02)
    sp.add_argument("--n-X", type=int, default=1,
                    help="X_offset grid size, from --X-min to --X-max "
                         "(--X-offset is the --fig6 point)")
    sp.add_argument("--n-a", type=int, default=12,
                    help="fig6 grid size in a")
    sp.add_argument("--n-b", type=int, default=12,
                    help="fig6 grid size in b")
    sp.add_argument("--output", "-o", default="sweep.csv")
    sp.set_defaults(fn=cmd_sweep)
    ap.subcommands = sub.choices         # name -> subparser, for --config
    return ap


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    try:
        code = args.fn(args)
    except SaddleForgeError as e:
        _note(f"error: {type(e).__name__}: {e}")
        code = e.exit_code
    except _StdoutError as e:
        _discard(sys.stdout)
        _note(f"error: cannot write stdout: {e}")
        code = EXIT_IO
    except OSError as e:
        # once the options are read, only the mesh and sweep writers open
        # files; `verify` has none to name
        _note(f"error: cannot write {args.output}: {e}" if "output" in args
              else f"error: {e}")
        code = EXIT_IO
    return code


if __name__ == "__main__":
    sys.exit(main())
