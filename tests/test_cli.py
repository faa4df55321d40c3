import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import saddle_forge
import saddle_forge.periods as periods
import saddle_forge.quad as quad
import saddle_forge.verify as verify
from saddle_forge.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def parse_kv(text):
    vals = {}
    for line in text.splitlines():
        if " = " in line:
            k, v = line.split(" = ", 1)
            vals[k] = v
    return vals


def test_solve_reports_solution(capsys):
    code, out, _ = run_cli(capsys, "solve", "--t", "0.02", "--tol", "1e-9")
    assert code == 0
    vals = parse_kv(out)
    for key in ("t", "X_offset", "a", "b", "y", "r", "R", "I", "J", "K",
                "pi1", "pi2"):
        assert key in vals
    assert abs(float(vals["pi1"])) < 1e-9
    assert abs(float(vals["pi2"])) < 1e-9
    assert float(vals["r"]) == pytest.approx(float(vals["R"]), rel=1e-8)


def test_solve_rejects_negative_t(capsys):
    code, _, err = run_cli(capsys, "solve", "--t", "-1")
    assert code == 3
    assert "error" in err


@pytest.mark.parametrize("tol", ["nan", "-1", "0", "inf"])
def test_solve_rejects_bad_tolerance(tol, capsys, monkeypatch):
    # a tolerance no residual can meet is invalid input, found before any
    # Newton step
    def no_solve(*args):
        raise AssertionError("the period solve ran")
    monkeypatch.setattr(periods, "_newton2", no_solve)
    code, out, err = run_cli(capsys, "solve", "--tol", tol)
    assert code == 3
    assert "InvalidResolution" in err
    assert out == ""


def test_no_convergence_reports_plain_floats(capsys, monkeypatch):
    # one Newton step per start cannot reach 1e-300; the best iterate is
    # printed as plain numbers, not as numpy scalar reprs
    monkeypatch.setattr(periods, "_MAX_ITER", 1)
    code, _, err = run_cli(capsys, "solve", "--tol", "1e-300")
    assert code == 2
    assert "NoConvergence" in err
    assert "np." not in err
    stalled = err.split("(a,b)=(", 1)[1].split(")", 1)[0]
    a, b = (float(v) for v in stalled.split(", "))
    assert 0.7 < a < 1.0 < b


def test_quadrature_failure_names_the_integral(capsys, monkeypatch):
    # with no refinement allowed and no error tolerated, the integral I over
    # (b, inf) does not converge in the first period report; the message
    # says which integral and where
    monkeypatch.setattr(quad, "_MAX_LEVELS", quad._MIN_LEVELS)
    monkeypatch.setattr(quad, "_REL_TOL", 0.0)
    monkeypatch.setattr(quad, "_ABS_TOL", 0.0)
    code, out, err = run_cli(capsys, "solve")
    assert code == 2
    assert out == ""
    assert "NoConvergence: I over (b, inf) did not converge" in err
    assert "for (a,b,x,X,y)=(0.7, 1.25, " in err
    assert "double-exponential refinement did not converge" in err


def test_periods_at_explicit_moduli(capsys):
    code, out, _ = run_cli(capsys, "periods", "--t", "0.02",
                           "--a", "0.9", "--b", "1.26")
    assert code == 0
    vals = parse_kv(out)
    assert 1.0 < float(vals["y"]) < 1.26
    assert float(vals["F_residual"]) == pytest.approx(0.0, abs=1e-9)


def test_periods_takes_moduli_from_config(capsys, tmp_path):
    # --a and --b are required, and a config file can supply them
    _, expected, _ = run_cli(capsys, "periods", "--a", "0.9", "--b", "1.26")
    cfg = tmp_path/"ab.cfg"
    cfg.write_text("a = 0.9\nb = 1.26\n")
    code, out, err = run_cli(capsys, "periods", "--config", str(cfg))
    assert code == 0, err
    assert out == expected
    cfg.write_text("t = 0.02\n")
    with pytest.raises(SystemExit) as exc:
        run_cli(capsys, "periods", "--config", str(cfg))
    assert exc.value.code == 3
    assert "required: --a, --b" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["periods", "--help"], ["periods", "-h"],
                                  ["periods", "--t", "abc"]])
def test_periods_usage_marks_the_moduli_required(argv, capsys):
    # the usage printed for -h or a usage error shows --a and --b without
    # brackets; without them periods still exits 3
    with pytest.raises(SystemExit):
        run_cli(capsys, *argv)
    out = capsys.readouterr()
    usage = " ".join((out.out + out.err).split("\n\n")[0].split())
    assert usage.startswith("usage: saddle-forge periods")
    assert "--a A --b B" in usage
    assert "[--a A]" not in usage and "[--b B]" not in usage
    with pytest.raises(SystemExit) as exc:
        run_cli(capsys, "periods", "--t", "0.02")
    assert exc.value.code == 3
    assert "required: --a, --b" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["solve", "--t", "abc"],
    ["mesh", "--resolution", "12.5"],
    ["periods", "--a", "0.7"],
])
def test_usage_error_is_invalid_input(argv, capsys):
    # a flag that does not parse, or a missing required one, exits 3 like
    # the same value from a config file; 2 means a numerical check failed
    with pytest.raises(SystemExit) as exc:
        run_cli(capsys, *argv)
    assert exc.value.code == 3
    assert "usage: saddle-forge" in capsys.readouterr().err


def test_periods_has_no_tolerance(capsys):
    # periods solves nothing, so a --tol would be read by nothing
    with pytest.raises(SystemExit) as exc:
        run_cli(capsys, "periods", "--a", "0.7", "--b", "1.2", "--tol", "nan")
    assert exc.value.code == 3
    assert "unrecognized arguments: --tol" in capsys.readouterr().err


def test_mesh_writes_obj(capsys, tmp_path):
    out_path = tmp_path/"piece.obj"
    code, out, _ = run_cli(capsys, "mesh", "--t", "0.02", "--tol", "1e-9",
                           "--resolution", "32", "--piece-only",
                           "-o", str(out_path))
    assert code == 0
    vals = parse_kv(out)
    assert out_path.exists()
    text = out_path.read_text().splitlines()
    assert text[0].startswith("# pi1=")
    n_v = sum(1 for ln in text if ln.startswith("v "))
    assert n_v == int(vals["vertices"])


def test_mesh_io_failure_is_exit_4(capsys, tmp_path):
    code, _, err = run_cli(capsys, "mesh", "--t", "0.02", "--tol", "1e-9",
                           "--resolution", "32", "--piece-only",
                           "-o", str(tmp_path/"no_dir"/"x.obj"))
    assert code == 4


@pytest.mark.parametrize("argv", [
    ["sweep", "--n-t", "1", "--tol", "1e-9"],
    ["sweep", "--fig6", "--n-a", "1", "--n-b", "1"],
])
def test_sweep_io_failure_is_exit_4(argv, capsys, tmp_path):
    path = str(tmp_path/"no_dir"/"sweep.csv")
    code, out, err = run_cli(capsys, *argv, "-o", path)
    assert code == 4
    assert f"cannot write {path}" in err
    assert out == ""


def test_mesh_rejects_bad_resolution(capsys):
    code, _, err = run_cli(capsys, "mesh", "--resolution", "2")
    assert code == 3


def test_mesh_rejects_empty_tower(capsys, tmp_path):
    code, _, err = run_cli(capsys, "mesh", "--t", "0.02", "--tol", "1e-9",
                           "--resolution", "32", "--n-periods", "0",
                           "-o", str(tmp_path/"t.obj"))
    assert code == 3
    assert "InvalidResolution" in err
    assert not (tmp_path/"t.obj").exists()


@pytest.mark.parametrize("n_periods", ["-5", "1"])
def test_mesh_rejects_n_periods_with_piece_only(n_periods, capsys, tmp_path,
                                                monkeypatch):
    # the piece is no tower: any --n-periods, the default's value too, would
    # be ignored, so it is a usage error before the solve
    def no_solve(*args, **kwargs):
        raise AssertionError("the period problem was solved")
    monkeypatch.setattr(periods, "solve_periods", no_solve)
    with pytest.raises(SystemExit) as exc:
        run_cli(capsys, "mesh", "--piece-only", "--n-periods", n_periods,
                "--resolution", "32", "-o", str(tmp_path/"t.obj"))
    assert exc.value.code == 3
    assert ("--n-periods is ignored with --piece-only"
            in capsys.readouterr().err)
    assert not (tmp_path/"t.obj").exists()


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("argv", [
    ("--X-offset", "0.04", "--a", "1.5", "--b", "2"),
    ("--a", "0.9", "--b", "0.95"),
    ("--X-offset", "0.04", "--a", "0.97", "--b", "1.3"),   # X = 1.01
    ("--a", "0.7", "--b", "inf"),
    ("--a", "0.7", "--b", "1e200"),     # F's coefficients overflow
], ids=["a>1", "b<1", "X>1", "b=inf", "b=1e200"])
def test_periods_rejects_moduli_out_of_order(capsys, argv):
    # checked before the root search, with no numpy warning: an infinite b
    # before F is evaluated, a b too large for F's coefficients after
    code, out, err = run_cli(capsys, "periods", "--t", "0.02", *argv)
    assert code == 3
    assert "DomainViolation" in err
    assert err.count("error:") == 1 and "Traceback" not in err
    assert out == ""


def test_verify_takes_the_mesh_options(capsys):
    # res 28 is the coarsest grid of the reference member that closes every
    # cell to mesh.LC_TOL; the embeddedness path is named on stderr
    code, out, err = run_cli(capsys, "verify", "--t", "0.02", "--tol", "1e-9",
                             "--resolution", "28")
    assert code == 0, err
    vals = parse_kv(out)
    assert vals["verified"] == "1"
    assert vals["check[self_intersection]"] == "pass"
    assert "self_intersection: certified by chamber" in err


def test_verify_rejects_nan_lc_tol(capsys, monkeypatch):
    # loop closure is the constant mesh.LC_TOL: a value that would loosen
    # the gate (NaN passes every cell) is a usage error before any check
    def no_check(*args, **kwargs):
        raise AssertionError("a check ran")
    monkeypatch.setattr(verify, "check_symmetry_table", no_check)
    monkeypatch.setattr(periods, "solve_periods", no_check)
    for command, value in (("verify", "nan"), ("verify", "1e3"),
                           ("mesh", "1e-6")):
        with pytest.raises(SystemExit) as exc:
            run_cli(capsys, command, "--resolution", "16", "--lc-tol", value)
        assert exc.value.code == 3
        assert "unrecognized arguments: --lc-tol" in capsys.readouterr().err


def test_verify_always_checks_embeddedness(capsys, monkeypatch):
    # a verdict without the self-intersection check would certify nothing
    # about embeddedness, so there is no flag to skip it
    def no_solve(*args):
        raise AssertionError("the period solve ran")
    monkeypatch.setattr(periods, "_newton2", no_solve)
    with pytest.raises(SystemExit) as exc:
        run_cli(capsys, "verify", "--skip-intersections")
    assert exc.value.code == 3
    assert "unrecognized arguments: --skip-intersections" in \
        capsys.readouterr().err


def test_verify_rejects_negative_seed(capsys, monkeypatch):
    # the injectivity sampling takes a non-negative seed; a negative one is
    # invalid input, found before the period solve
    def no_solve(*args):
        raise AssertionError("the period solve ran")
    monkeypatch.setattr(periods, "_newton2", no_solve)
    code, out, err = run_cli(capsys, "verify", "--seed", "-1")
    assert code == 3
    assert "InvalidResolution" in err
    assert out == ""


def test_sweep_writes_csv(capsys, tmp_path):
    out_path = tmp_path/"sweep.csv"
    code, out, _ = run_cli(capsys, "sweep", "--t-min", "0.015",
                           "--t-max", "0.02", "--n-t", "2", "--tol", "1e-9",
                           "-o", str(out_path))
    assert code == 0
    lines = out_path.read_text().splitlines()
    assert lines[0] == "t,X_offset,a,b,y,r,R,I,J,K,pi1,pi2,converged"
    assert len(lines) == 3
    assert all(ln.endswith(",1") for ln in lines[1:])


def test_sweep_reads_one_X_column_from_X_min(capsys, tmp_path):
    # the X_offset column is linspace(X_min, X_max, n_X), one point or many
    out_path = tmp_path/"sweep.csv"
    code, _, err = run_cli(capsys, "sweep", "--X-min", "0.01",
                           "--X-max", "0.02", "--n-t", "1", "--tol", "1e-9",
                           "-o", str(out_path))
    assert code == 0, err
    data = np.genfromtxt(out_path, delimiter=",", names=True)
    assert float(data["X_offset"]) == 0.01


def test_sweep_fig6_emits_period_landscape(capsys, tmp_path):
    out_path = tmp_path/"fig6.csv"
    code, out, _ = run_cli(capsys, "sweep", "--fig6", "--t", "0.02",
                           "--n-a", "3", "--n-b", "3", "-o", str(out_path))
    assert code == 0
    lines = out_path.read_text().splitlines()
    assert lines[0] == "a,b,y,pi1,pi2,ok"
    assert len(lines) == 10
    data = [ln.split(",") for ln in lines[1:]]
    evald = [row for row in data if row[5] == "1"]
    assert len(evald) >= 5
    # the residuals must straddle zero across the window (that is the point
    # of the plot: the two zero curves cross inside it)
    pi1 = [float(r[3]) for r in evald]
    assert min(pi1) < 0 < max(pi1)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("grid", [
    ["--t-min", "0.02", "--t-max", "0.02", "--n-t", "3"],
    ["--n-t", "1", "--X-min", "0.01", "--X-max", "0.01", "--n-X", "3"],
], ids=["t", "X_offset"])
def test_sweep_over_a_repeated_grid_value(grid, capsys, tmp_path):
    # a one-point range with several points repeats the value; every
    # member converges, with no floating-point warning
    out_path = tmp_path/"sweep.csv"
    code, out, err = run_cli(capsys, "sweep", *grid, "-o", str(out_path))
    assert code == 0, err
    assert parse_kv(out)["converged"] == "3"
    lines = out_path.read_text().splitlines()
    assert len(set(lines[1:])) == 1 and lines[1].endswith(",1")


def test_sweep_fig6_keeps_the_earlier_file_when_interrupted(
        capsys, tmp_path, monkeypatch):
    # an error that is no point failure ends the grid between rows; the
    # file already at -o survives, and no temporary stays behind
    out_path = tmp_path/"fig6.csv"
    out_path.write_text("earlier\n")
    calls = [0]
    report_for = periods.period_report_for

    def interrupted(p):
        calls[0] += 1
        if calls[0] == 3:
            raise KeyboardInterrupt
        return report_for(p)
    monkeypatch.setattr(periods, "period_report_for", interrupted)
    with pytest.raises(KeyboardInterrupt):
        main(["sweep", "--fig6", "--n-a", "2", "--n-b", "2",
              "-o", str(out_path)])
    assert out_path.read_text() == "earlier\n"
    assert [p.name for p in tmp_path.iterdir()] == ["fig6.csv"]


def test_sweep_rejects_nonpositive_t_min(capsys, tmp_path):
    out_path = tmp_path/"sweep.csv"
    code, _, err = run_cli(capsys, "sweep", "--t-min", "0", "-o", str(out_path))
    assert code == 3
    assert "DomainViolation" in err
    assert not out_path.exists()


@pytest.mark.parametrize("t", ["0", "-0.5"])
def test_sweep_fig6_rejects_nonpositive_t(capsys, tmp_path, t):
    # every grid point would fail; no file of failure rows is written
    out_path = tmp_path/"fig6.csv"
    code, _, err = run_cli(capsys, "sweep", "--fig6", "--t", t,
                           "--n-a", "2", "--n-b", "2", "-o", str(out_path))
    assert code == 3
    assert "DomainViolation" in err
    assert not out_path.exists()


@pytest.mark.parametrize("tol", ["nan", "-1"])
def test_sweep_fig6_rejects_bad_tolerance(capsys, tmp_path, monkeypatch, tol):
    # --fig6 reads no tolerance, so a bad one is a usage error, found
    # before any grid point
    def no_report(*args):
        raise AssertionError("a grid point was evaluated")
    monkeypatch.setattr(periods, "period_report_for", no_report)
    out_path = tmp_path/"fig6.csv"
    with pytest.raises(SystemExit) as exc:
        run_cli(capsys, "sweep", "--fig6", "--n-a", "2", "--n-b", "2",
                "--tol", tol, "-o", str(out_path))
    assert exc.value.code == 3
    assert "--tol is ignored with --fig6" in capsys.readouterr().err
    assert not out_path.exists()


def test_config_file_supplies_defaults_and_flags_override(capsys, tmp_path):
    cfg = tmp_path/"run.cfg"
    cfg.write_text("t = 0.015\ntol = 1e-8\n")
    code, out, _ = run_cli(capsys, "solve", "--config", str(cfg))
    assert code == 0
    assert float(parse_kv(out)["t"]) == 0.015
    # explicit flag wins over the file value
    code, out, _ = run_cli(capsys, "solve", "--config", str(cfg),
                           "--t", "0.02")
    assert code == 0
    assert float(parse_kv(out)["t"]) == 0.02


def test_config_comment_starts_a_line_or_follows_whitespace(tmp_path):
    # a # inside a value is part of it, as in a file name
    from saddle_forge.cli import parse_args
    path = str(tmp_path/"run#2.obj")
    cfg = tmp_path/"run.cfg"
    cfg.write_text(f"# a whole-line comment\nt = 0.015  # note\n"
                   f"output = {path}\n")
    args = parse_args(["mesh", "--config", str(cfg)])
    assert args.t == 0.015
    assert args.output == path


def test_config_rejects_unknown_key(capsys, tmp_path):
    cfg = tmp_path/"bad.cfg"
    cfg.write_text("nonsense = 1\n")
    with pytest.raises(SystemExit) as exc:
        run_cli(capsys, "solve", "--config", str(cfg))
    assert exc.value.code == 3


@pytest.mark.parametrize("command, line", [
    ("solve", "quad_rel_tol = 1e-11"), ("mesh", "far_radius = 20"),
    ("verify", "symmetry_tol = 1e-9"), ("verify", "n_pairs = 100000"),
    ("mesh", "lc_tol = 1e-8"), ("verify", "lc_tol = 1e-8")])
def test_config_rejects_removed_key(command, line, capsys, tmp_path,
                                    monkeypatch):
    # these settings are constants now; a config file that still sets one,
    # even to its old default, fails loudly instead of running
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path/"old.cfg"
    cfg.write_text(line + "\n")
    with pytest.raises(SystemExit) as exc:
        run_cli(capsys, command, "--config", str(cfg))
    assert exc.value.code == 3
    key = line.split(" = ")[0]
    assert f"unknown config key {key!r}" in capsys.readouterr().err


@pytest.mark.parametrize("line", ["resolution = abc", "piece_only = maybe",
                                  "fn = solve"])
def test_config_rejects_invalid_value(line, capsys, tmp_path):
    # a value that fails its option's type, a boolean that is none of
    # 1/true/yes/0/false/no, or a key naming no option value is invalid
    # input, not a traceback or False
    cfg = tmp_path/"bad.cfg"
    cfg.write_text(line + "\n")
    with pytest.raises(SystemExit) as exc:
        run_cli(capsys, "mesh", "--config", str(cfg),
                "-o", str(tmp_path/"t.obj"))
    assert exc.value.code == 3
    assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path/"t.obj").exists()


def test_config_reads_boolean_values(capsys, tmp_path):
    from saddle_forge.cli import parse_args
    for text, expected in (("Yes", True), ("1", True), ("false", False),
                           ("NO", False)):
        cfg = tmp_path/"b.cfg"
        cfg.write_text(f"piece-only = {text}\n")
        args = parse_args(["mesh", "--config", str(cfg)])
        assert args.piece_only is expected


@pytest.mark.parametrize("flag", ["-o", "--output", "--output="])
def test_mesh_output_flag_wins_over_config(flag, capsys, tmp_path):
    # a flag given on the command line wins over the file in any spelling
    cfg = tmp_path/"run.cfg"
    cfg.write_text(f"output = {tmp_path/'from_cfg.obj'}\n"
                   "resolution = 28\npiece_only = yes\n")
    path = str(tmp_path/"from_flag.obj")
    argv = [flag + path] if flag.endswith("=") else [flag, path]
    code, out, err = run_cli(capsys, "mesh", "--config", str(cfg),
                             "--tol", "1e-9", *argv)
    assert code == 0, err
    assert parse_kv(out)["output"] == path
    assert os.path.exists(path)
    assert not (tmp_path/"from_cfg.obj").exists()


def test_sweep_output_flag_wins_over_config(capsys, tmp_path):
    cfg = tmp_path/"run.cfg"
    cfg.write_text(f"output = {tmp_path/'from_cfg.csv'}\n"
                   "t_min = 0.02\nt_max = 0.02\nn_t = 1\n")
    path = str(tmp_path/"from_flag.csv")
    code, out, err = run_cli(capsys, "sweep", "--config", str(cfg),
                             "--tol", "1e-9", "-o", path)
    assert code == 0, err
    assert parse_kv(out)["output"] == path
    assert os.path.exists(path)
    assert not (tmp_path/"from_cfg.csv").exists()


@pytest.mark.parametrize("argv", [
    ["sweep", "--n-t", "0"],
    ["sweep", "--n-t", "-2"],
    ["sweep", "--n-X", "0"],
    ["sweep", "--fig6", "--n-a", "0"],
    ["sweep", "--fig6", "--n-b", "-1"],
])
def test_sweep_rejects_empty_grid(argv, capsys, tmp_path):
    # a grid of no points is invalid input, not a header-only CSV
    out_path = tmp_path/"sweep.csv"
    code, _, err = run_cli(capsys, *argv, "-o", str(out_path))
    assert code == 3
    assert "InvalidResolution" in err
    assert not out_path.exists()


@pytest.mark.parametrize("argv, message", [
    (["--X-offset", "0.03", "--n-t", "1"], "--X-offset is ignored without"),
    (["--t", "0.02"], "--t is ignored without"),
    (["--fig6", "--t-min", "0.04", "--n-a", "1", "--n-b", "1"],
     "--t-min is ignored with --fig6"),
    (["--fig6", "--n-X", "2"], "--n-X is ignored with --fig6"),
    # --fig6 solves nothing, so even a valid tolerance would go unread
    (["--fig6", "--tol", "1e-9", "--n-a", "2", "--n-b", "2"],
     "--tol is ignored with --fig6"),
], ids=["X-offset", "t", "fig6-t-min", "fig6-n-X", "fig6-tol"])
def test_sweep_rejects_options_of_the_other_mode(argv, message, capsys,
                                                 tmp_path, monkeypatch):
    # a plain sweep reads its grid, not the --fig6 point, and --fig6 reads
    # its point, not the grid; an option the mode would ignore exits 3
    # before any solve
    def no_solve(*args, **kwargs):
        raise AssertionError("a solve ran")
    monkeypatch.setattr(periods, "sweep_family", no_solve)
    monkeypatch.setattr(periods, "resolve_params", no_solve)
    out_path = tmp_path/"sweep.csv"
    with pytest.raises(SystemExit) as exc:
        run_cli(capsys, "sweep", *argv, "-o", str(out_path))
    assert exc.value.code == 3
    assert message in capsys.readouterr().err
    assert not out_path.exists()


def test_sweep_rejects_config_options_of_the_other_mode(capsys, tmp_path):
    # a config file value is given as much as a flag is
    cfg = tmp_path/"run.cfg"
    cfg.write_text("t = 0.04\n")
    with pytest.raises(SystemExit) as exc:
        run_cli(capsys, "sweep", "--config", str(cfg),
                "-o", str(tmp_path/"sweep.csv"))
    assert exc.value.code == 3
    assert "--t is ignored without --fig6" in capsys.readouterr().err


def _child_env(pythonpath):
    # a child of the suite: one BLAS thread, as the standard variables set
    # it, and no bytecode written where this process writes none
    env = {"PATH": "/usr/bin:/bin", "PYTHONPATH": pythonpath,
           "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
    if sys.dont_write_bytecode:
        env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def test_child_writes_no_bytecode_when_the_suite_writes_none(tmp_path,
                                                             monkeypatch):
    # with PYTHONDONTWRITEBYTECODE set for the suite, a CLI child leaves no
    # __pycache__ in the tree it imports (a tree benchmarked in place would
    # otherwise time a stale cache's recompile)
    shutil.copytree(Path(saddle_forge.__file__).parent,
                    tmp_path/"saddle_forge",
                    ignore=shutil.ignore_patterns("__pycache__"))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    res = subprocess.run([sys.executable, "-c", "import saddle_forge.cli"],
                         capture_output=True, text=True, timeout=120,
                         env=_child_env(str(tmp_path)))
    assert res.returncode == 0, res.stderr
    assert not list(tmp_path.rglob("__pycache__"))


def test_entry_point_runs_in_subprocess(tmp_path):
    # the CLI entry point as `python -m` runs it; the child imports the same
    # saddle_forge as this process
    src = str(Path(saddle_forge.__file__).parents[1])
    pythonpath = os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)
    res = subprocess.run(
        [sys.executable, "-m", "saddle_forge.cli", "solve", "--t", "0.02",
         "--tol", "1e-9"],
        capture_output=True, text=True, cwd=tmp_path, timeout=300,
        env=_child_env(pythonpath))
    assert res.returncode == 0, res.stderr
    assert "pi1 = " in res.stdout


@pytest.mark.parametrize("unbuffered", [False, True])
@pytest.mark.parametrize("argv", [
    ["solve", "--tol", "1e-9"],
    ["mesh", "--tol", "1e-9", "--resolution", "28", "--piece-only",
     "-o", "piece.obj"],
])
def test_closed_stdout_is_exit_4(tmp_path, argv, unbuffered):
    # stdout is a pipe with no reader: whether the failed write is a print
    # or the flush of a buffer, it is one error line naming stdout, and
    # nothing is left to fail when the interpreter exits
    src = str(Path(saddle_forge.__file__).parents[1])
    env = _child_env(src)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    r, w = os.pipe()
    os.close(r)
    try:
        res = subprocess.run(
            [sys.executable, "-m", "saddle_forge.cli", *argv],
            stdout=w, stderr=subprocess.PIPE, text=True, cwd=tmp_path,
            timeout=300, env=env)
    finally:
        os.close(w)
    assert res.returncode == 4, res.stderr
    assert res.stderr.count("error:") == 1, res.stderr
    assert "error: cannot write stdout: " in res.stderr
    assert "Traceback" not in res.stderr
    assert "Exception ignored" not in res.stderr
    if argv[0] == "mesh":
        # the OBJ was written whole before stdout was
        assert (tmp_path/"piece.obj").read_text().endswith("\n")


@pytest.mark.parametrize("argv", [
    ["sweep", "--n-t", "1", "-o", "sweep.csv"],
    ["verify", "--resolution", "16"],     # the error line of a failed build
    ["verify", "--resolution", "32"],     # the diagnostic lines
])
def test_closed_stderr_is_exit_4(tmp_path, capsys, argv):
    # stderr is a pipe with no reader: the run exits 4, and no traceback
    # (exit 1) or failed flush at exit (120) follows; the sweep CSV, written
    # before the "converged" line, is whole
    src = str(Path(saddle_forge.__file__).parents[1])
    r, w = os.pipe()
    os.close(r)
    try:
        res = subprocess.run(
            [sys.executable, "-m", "saddle_forge.cli", *argv],
            stdout=subprocess.PIPE, stderr=w, text=True, cwd=tmp_path,
            timeout=300, env=_child_env(src))
    finally:
        os.close(w)
    assert res.returncode == 4
    if argv[0] == "sweep":
        code, _, _ = run_cli(capsys, "sweep", "--n-t", "1",
                             "-o", str(tmp_path/"whole.csv"))
        assert code == 0
        assert (tmp_path/"sweep.csv").read_bytes() == \
            (tmp_path/"whole.csv").read_bytes()


_MESH_PROBE = """
import sys
from saddle_forge import cli

code = cli.main(["mesh", "--resolution", "28", "--tol", "1e-9",
                 "-o", sys.argv[1]])
print(f"exit = {code}")
print(f"scipy_loaded = {'scipy' in sys.modules}")
"""


def test_mesh_runs_on_numpy_alone(tmp_path):
    # the runtime depends on numpy only; importing scipy would also cost
    # every command its start-up time
    src = str(Path(saddle_forge.__file__).parents[1])
    res = subprocess.run(
        [sys.executable, "-c", _MESH_PROBE, str(tmp_path/"t.obj")],
        capture_output=True, text=True, cwd=tmp_path, timeout=300,
        env=_child_env(src))
    assert res.returncode == 0, res.stderr
    vals = parse_kv(res.stdout)
    assert vals["exit"] == "0", res.stderr
    assert vals["scipy_loaded"] == "False"


_LAZY_PROBE = """
import contextlib, io, sys
from saddle_forge import cli

loaded = set(sys.modules)
with contextlib.redirect_stdout(io.StringIO()):
    codes = (cli.main(["verify", "--resolution", "32"]),
             cli.main(["mesh", "--resolution", "32", "-o", sys.argv[1]]))
lazy = ("numpy.random", "numpy.ma", "numpy.polynomial")
print(f"exit = {codes}")
print(f"lazy_imported = {sorted(m for m in set(sys.modules) - loaded if m.startswith(lazy))}")
"""


def test_cli_runs_import_no_lazy_numpy_submodule(tmp_path):
    # numpy 2 loads numpy.random, numpy.ma and numpy.polynomial on first
    # use, at a cost every CLI run would pay; none of the checks or the
    # mesh needs them (under numpy 1 they load with numpy and this holds
    # trivially)
    src = str(Path(saddle_forge.__file__).parents[1])
    res = subprocess.run(
        [sys.executable, "-c", _LAZY_PROBE, str(tmp_path/"t.obj")],
        capture_output=True, text=True, cwd=tmp_path, timeout=300,
        env=_child_env(src))
    assert res.returncode == 0, res.stderr
    vals = parse_kv(res.stdout)
    assert vals["exit"] == "(0, 0)", res.stderr
    assert vals["lazy_imported"] == "[]"


def test_cli_output_is_deterministic(capsys):
    code1, out1, _ = run_cli(capsys, "solve", "--t", "0.02", "--tol", "1e-9")
    code2, out2, _ = run_cli(capsys, "solve", "--t", "0.02", "--tol", "1e-9")
    assert (code1, out1) == (code2, out2)
