import dataclasses

import numpy as np
import pytest

from _oracles import (central_jacobian_oracle, fd_newton_oracle,
                      residue_contour_oracle, scipy_I_oracle, scipy_J_oracle,
                      scipy_K_oracle)
from conftest import draw_params
from saddle_forge import periods
from saddle_forge.errors import (DegenerateRoot, DomainViolation,
                                 NoConvergence, NoRoot)
from saddle_forge.params import SurfaceParams, sym_funcs
from saddle_forge.periods import (DEFAULT_SEED_BOX, SWEEP_HEADER, F_eval,
                                  I_integral, J_integral, K_integral,
                                  _F_coeffs, family_tangent, period_report_for,
                                  residue_R, residue_r, resolve_params,
                                  solve_periods, solve_y, sweep_family,
                                  write_sweep_csv)

P0 = SurfaceParams(a=0.5, b=2.0, x=0.3, X=0.5, y=1.5)
# the 7 x 6 family grid of (t, X_offset)
FAMILY_T = (0.001, 0.005, 0.01, 0.02, 0.03, 0.04, 0.05)
FAMILY_X = (0.0, 0.01, 0.02, 0.03, 0.04, 0.049)


# ---------------------------------------------------------------- residues

def test_residues_match_contour_oracle():
    # contour integration of dh with stepwise branch continuation is a fully
    # independent route to the flux residues: the loop around z = 1 gives -r,
    # the loop around z = a gives +R (opposite loop orientations on the curve)
    rng = np.random.default_rng(17)
    for _ in range(12):
        p = draw_params(rng)
        s = sym_funcs(p)
        r = residue_r(p, s)
        c1 = residue_contour_oracle(p, 1.0)
        assert abs(c1 - (-r)) < 1e-8*max(1.0, abs(r))
        R = residue_R(p, s)
        ca = residue_contour_oracle(p, p.a)
        assert abs(ca - R) < 1e-8*max(1.0, abs(R))


def test_residue_signs_and_reality():
    s = sym_funcs(P0)
    assert np.isreal(residue_r(P0, s))
    assert np.isreal(residue_R(P0, s))


# ----------------------------------------------------------- flux integrals

@pytest.mark.parametrize("p", [
    SurfaceParams(a=0.5, b=2.0, x=0.3, X=0.5, y=1.5),
    SurfaceParams(a=0.9, b=1.3, x=0.85, X=0.91, y=1.1),
])
def test_I_matches_scipy_oracle(p):
    value, _ = I_integral(p, sym_funcs(p), family_tangent(p))
    assert value == pytest.approx(scipy_I_oracle(p), rel=1e-9, abs=1e-11)


@pytest.mark.parametrize("p", [
    SurfaceParams(a=0.5, b=2.0, x=0.3, X=0.5, y=1.5),
    SurfaceParams(a=0.9, b=1.3, x=0.85, X=0.91, y=1.1),
])
def test_J_matches_scipy_oracle(p):
    value, _ = J_integral(p, sym_funcs(p), family_tangent(p))
    assert value == pytest.approx(scipy_J_oracle(p), rel=1e-8, abs=1e-10)


@pytest.mark.parametrize("p", [
    SurfaceParams(a=0.5, b=2.0, x=0.3, X=0.5, y=1.5),
    SurfaceParams(a=0.9, b=1.3, x=0.85, X=0.91, y=1.1),
])
def test_K_matches_scipy_oracle(p):
    value, _ = K_integral(p, sym_funcs(p), family_tangent(p))
    assert value == pytest.approx(scipy_K_oracle(p), rel=1e-9, abs=1e-11)


# ------------------------------------------------------- implicit y solve

def test_F_monomial_form_matches_factored_form():
    # solve_y takes its roots from the monomial coefficients, and its Newton
    # slope by complex step of the factored form; the monomial derivative is
    # that slope's oracle
    rng = np.random.default_rng(23)
    for _ in range(30):
        p = draw_params(rng)
        c = _F_coeffs(p.a, p.b, p.x, p.X)
        assert np.polyval(c, p.y) == pytest.approx(
            F_eval(p.a, p.b, p.x, p.X, p.y), abs=1e-13*np.polyval(np.abs(c), p.y))
        dc = np.polyder(c)
        F_y = F_eval(p.a, p.b, p.x, p.X, p.y + 1j*periods._H).imag/periods._H
        assert F_y == pytest.approx(np.polyval(dc, p.y),
                                    abs=1e-13*np.polyval(np.abs(dc), p.y))


def test_F_vanishes_at_degenerate_root():
    # at x = X = a the implicit equation has the exact root y = 1
    for (a, b) in [(0.5, 2.0), (0.9, 1.2)]:
        assert abs(F_eval(a, b, a, a, 1.0)) < 1e-12


def test_solve_y_root_properties():
    rng = np.random.default_rng(29)
    for _ in range(25):
        a = rng.uniform(0.6, 0.95)
        b = rng.uniform(1.05, 1.8)
        x = a - rng.uniform(0.002, 0.05)
        X = a + rng.uniform(0.0, min(0.05, 0.9*(1.0 - a)))
        y = solve_y(a, b, x, X)
        assert 1.0 < y < b
        assert abs(F_eval(a, b, x, X, y)) < 1e-10
        # the root enforces equality of the two horizontal flux residues
        p = SurfaceParams(a=a, b=b, x=x, X=X, y=y).validate()
        s = sym_funcs(p)
        r, R = residue_r(p, s), residue_R(p, s)
        assert abs(r - R) < 1e-8*max(abs(r), abs(R))


def test_solve_y_finds_roots_next_to_the_puncture():
    # criterion 3's distribution: F always has a root in (1, b), but a few
    # lie within ~1e-9 of y = 1, where r = R cannot be resolved in double
    # precision (mismatch ~5e-17/(y - 1)); those are a typed degenerate case,
    # never a missing root
    rng = np.random.default_rng(1)
    n_degenerate = 0
    for _ in range(2000):
        a = rng.uniform(0.5, 0.95)
        b = rng.uniform(1.1, 2.2)
        x = a - rng.uniform(0.002, 0.05)
        X = a + rng.uniform(0.0, min(0.05, 0.9*(1.0 - a)))
        try:
            y = solve_y(a, b, x, X)
        except DegenerateRoot as e:
            assert "misses r = R" in str(e)
            n_degenerate += 1
            continue
        assert 1.0 < y < b
        assert abs(F_eval(a, b, x, X, y)) < 1e-10
        p = SurfaceParams(a=a, b=b, x=x, X=X, y=y).validate()
        s = sym_funcs(p)
        r, R = residue_r(p, s), residue_R(p, s)
        assert abs(r - R) < 1e-8*max(abs(r), abs(R))
    assert n_degenerate <= 20


def test_solve_y_raises_when_no_root():
    # far from the degenerate corner the residue match has no solution:
    # F keeps one sign on all of (1, b) for these moduli
    with pytest.raises(NoRoot):
        solve_y(0.69, 1.39, 0.038, 0.70)


# ----------------------------------------------------------- period report

def test_period_report_consistency(solved):
    rep = solved.report
    assert abs(rep.r - rep.R) < 1e-9*abs(rep.r)
    assert abs(rep.pi1) < 1e-10 and abs(rep.pi2) < 1e-10
    assert abs(rep.pi1 - (rep.I + rep.J)) < 1e-14*max(1.0, abs(rep.I))
    assert abs(rep.pi2 - (rep.K - 0.5*rep.R)) < 1e-14*max(1.0, abs(rep.K))
    assert rep.F_residual < 1e-10


def test_period_reports_hold_plain_floats():
    # near the t -> 0 end, where y - 1 = 3e-7 and one ulp of y moves pi2 by
    # ~1e-7, so the solve is asked for what double precision resolves
    sol = solve_periods(1e-5, 0.049, tol=1e-6)
    for rep in (sol.report, period_report_for(sol.params)):
        assert all(type(v) is float for v in dataclasses.astuple(rep))
        assert "np.float64" not in repr(rep)


def test_period_report_for_params_matches_family_route(solved):
    rep = period_report_for(solved.params)
    assert rep.pi1 == pytest.approx(solved.report.pi1, abs=1e-12)
    assert rep.pi2 == pytest.approx(solved.report.pi2, abs=1e-12)


def test_jacobian_matches_central_differences_to_truncation_error():
    # central differences of step h miss the Jacobian by c h^2 + O(h^4), so
    # J must agree with their Richardson extrapolation D_h + (D_h - D_2h)/3
    # far inside the truncation error |D_2h - D_h| = 3 c h^2 (a difference
    # Jacobian of step h would sit a third of it away); no node of any
    # row raises a floating-point error
    h = 1e-3
    with np.errstate(all="raise"):
        rows = sweep_family(FAMILY_T, FAMILY_X)
    for t, X_offset, sol in rows:
        J = sol.report.jacobian
        D_h = central_jacobian_oracle(t, X_offset, sol.a, sol.b, h)
        D_2h = central_jacobian_oracle(t, X_offset, sol.a, sol.b, 2*h)
        truncation = np.max(np.abs(D_2h - D_h))
        assert truncation < 1e-4*np.max(np.abs(J))
        assert np.max(np.abs(J - (D_h + (D_h - D_2h)/3))) < 0.01*truncation


def test_solves_match_the_finite_difference_newton():
    # from the same start, Newton on forward differences of step 1e-7
    # reaches the same (a, b) to well inside the solve tolerance
    a_lo, a_hi, b_lo, b_hi = DEFAULT_SEED_BOX
    seed = (0.5*(a_lo + a_hi), 0.5*(b_lo + b_hi))
    for t in FAMILY_T:
        for X_offset in FAMILY_X:
            sol = solve_periods(t, X_offset)
            v, pv = fd_newton_oracle(t, X_offset, seed, 1e-10)
            assert np.max(np.abs(pv)) < 1e-10
            assert np.max(np.abs(v - (sol.a, sol.b))) < 1e-9


def test_period_map_changes_sign_over_seed_window():
    # the Newton solve works because each period component changes sign
    # across the default seed box at the reference family member
    lo_a, hi_a, lo_b, hi_b = DEFAULT_SEED_BOX
    corners = [(lo_a, lo_b), (hi_a, lo_b), (lo_a, hi_b), (hi_a, hi_b)]
    pi1 = []
    pi2 = []
    for (a, b) in corners:
        try:
            rep = period_report_for(resolve_params(0.02, 0.0, a, b))
        except (NoRoot, DomainViolation, NoConvergence):
            continue
        pi1.append(rep.pi1)
        pi2.append(rep.pi2)
    assert len(pi1) >= 3
    assert min(pi1) < 0 < max(pi1)
    assert min(pi2) < 0 < max(pi2)


# ------------------------------------------------------------ full solve

def test_solve_periods_reference_member(solved):
    assert 0.7 < solved.a < 1.0
    assert 1.0 < solved.b < 2.0
    assert 1.0 < solved.y < solved.b


def test_solve_periods_continuity(solved):
    near = solve_periods(0.021, 0.0, tol=1e-10)
    assert abs(near.a - solved.a) < 0.05
    assert abs(near.b - solved.b) < 0.05


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_one_start_covers_the_family_domain():
    # cold solves at the corners of the family domain, and warm starts from
    # the opposite corner's solution, reach the same (a, b)
    corners = [(t, X_offset) for t in (0.001, 0.05) for X_offset in (0.0, 0.049)]
    cold = [solve_periods(t, X_offset) for t, X_offset in corners]
    for (t, X_offset), sol, far in zip(corners, cold, cold[::-1]):
        warm = solve_periods(t, X_offset, seed=(far.a, far.b))
        assert abs(warm.a - sol.a) < 1e-8 and abs(warm.b - sol.b) < 1e-8


def test_solves_next_to_the_puncture_raise_no_floating_point_error():
    # the I and J integrands run unguarded out to the outermost
    # double-exponential nodes, t ~ 1e61 b; at t -> 0, y - 1 ~ 3e-7
    with np.errstate(all="raise"):
        for t in (1e-5, 2e-5):
            for X_offset in np.linspace(0.0, 0.049, 8):
                sol = solve_periods(t, X_offset, tol=1e-6)
                assert max(abs(sol.report.pi1), abs(sol.report.pi2)) < 1e-6


def test_quadrature_failure_carries_plain_floats():
    # at t = 1e-6 the flux integral K does not converge at the cold start
    with pytest.raises(NoConvergence) as exc:
        solve_periods(1e-6, 0.0)
    assert str(exc.value).startswith("K over (y, b)")
    assert type(exc.value.best) is float
    assert type(exc.value.residual) is float
    assert isinstance(exc.value.__cause__, NoConvergence)


def test_solve_periods_rejects_bad_family_coordinates():
    with pytest.raises(DomainViolation):
        solve_periods(-1.0, 0.0)
    with pytest.raises(DomainViolation):
        solve_periods(0.0, 0.0)
    with pytest.raises(DomainViolation):
        solve_periods(0.02, -0.01)
    with pytest.raises(DomainViolation):
        solve_periods(0.2, 0.0)  # outside the perturbative regime


# ----------------------------------------------------------------- sweep

def test_sweep_family_and_csv_round_trip(tmp_path, monkeypatch):
    # each Newton step takes one period report, its Jacobian included: a
    # differenced Jacobian would take three (40 reports for this sweep)
    reports = []
    report_for = periods.period_report_for

    def counted(p):
        reports.append(p)
        return report_for(p)
    monkeypatch.setattr(periods, "period_report_for", counted)
    rows = sweep_family([0.015, 0.02], [0.0, 0.01], tol=1e-9)
    assert len(reports) <= 20
    assert len(rows) == 4
    for t, X_offset, sol in rows:
        assert sol is not None
        assert sol.t == t and sol.X_offset == X_offset
        assert abs(sol.report.pi1) < 1e-9
        assert abs(sol.report.pi2) < 1e-9
    out = tmp_path/"sweep.csv"
    write_sweep_csv(rows, out)
    text = out.read_text().splitlines()
    assert text[0] == ",".join(SWEEP_HEADER)
    assert text[0] == "t,X_offset,a,b,y,r,R,I,J,K,pi1,pi2,converged"
    data = np.genfromtxt(out, delimiter=",", names=True)
    assert data.shape == (4,)
    assert np.allclose(data["a"], [row[2].a for row in rows], rtol=1e-15)
    assert np.all(data["converged"] == 1)


def test_sweep_family_rejects_nonpositive_t(monkeypatch):
    # the whole grid is checked before the first solve
    def no_solve(*args, **kwargs):
        raise AssertionError("solved before the grid was checked")
    monkeypatch.setattr("saddle_forge.periods.solve_periods", no_solve)
    with pytest.raises(DomainViolation):
        sweep_family([0.02, 0.0], [0.0])
