import dataclasses

import numpy as np
import pytest

from _oracles import (agm, central_jacobian_oracle, fd_newton_oracle,
                      mpmath_cel_oracle, mpmath_K_oracle,
                      residue_contour_oracle, scipy_I_oracle, scipy_J_oracle,
                      scipy_K_oracle, solve_y_two_call_oracle,
                      warm_start_sweep_oracle)
from conftest import draw_params
from saddle_forge import periods, quad
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


def test_K_matches_mpmath_legendre_form():
    # K's closed form against Legendre's complete integrals at 40 digits, on
    # the 7 x 6 family grid and t = 1e-5, where y - 1 ~ 4e-7 and K ~ 370
    members = [sol for *_, sol in sweep_family(FAMILY_T, FAMILY_X)]
    members += [solve_periods(1e-5, X_offset, tol=1e-6)
                for X_offset in np.linspace(0.0, 0.049, 8)]
    for sol in members:
        p = sol.params
        s = sym_funcs(p)
        value, _ = K_integral(p, s, family_tangent(p))
        assert value == pytest.approx(mpmath_K_oracle(p, s), rel=2e-14), p


@pytest.mark.parametrize("kc", [1.0, 0.9, 0.6, 0.3, 0.05, 1e-3])
def test_cel_of_the_first_kind_matches_the_agm(kc):
    # cel(kc, 1, 1, 1) is the complete integral of the first kind,
    # pi/(2 agm(1, kc))
    assert periods._cel(kc, 1.0, 1.0, 1.0).real == pytest.approx(
        0.5*np.pi/agm(1.0, kc), rel=4e-16)


def test_cel_next_to_its_pole_matches_mpmath():
    # p -> 0 moves the third-kind pole to theta = pi/2: cel grows like
    # pi s/(2 kc sqrt(p)), here 9.0e5, with nothing to cancel
    args = (0.7, 1e-12, 1.3, 0.4)
    assert periods._cel(*args).real == pytest.approx(mpmath_cel_oracle(*args),
                                                     rel=1e-15)


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


def test_solve_y_polishes_with_one_F_eval_per_step(monkeypatch):
    # each Newton polish step reads F from the real part of the complex-step
    # call that gives F_y: at every (a, b, x, X) the 7 x 6 family sweep
    # visits, y keeps the bits of two calls per step, and F_eval runs once
    # for the companion coefficients and once per step
    seen, calls = [], [0]
    real_F, real_solve_y = periods.F_eval, periods.solve_y

    def counting_F(*args):
        calls[0] += 1
        return real_F(*args)

    def recording_solve_y(*args):
        calls[0] = 0
        y = real_solve_y(*args)
        seen.append((args, y, calls[0]))
        return y

    with monkeypatch.context() as m:
        m.setattr(periods, "F_eval", counting_F)
        m.setattr(periods, "solve_y", recording_solve_y)
        sweep_family(FAMILY_T, FAMILY_X)
    assert len(seen) > len(FAMILY_T)*len(FAMILY_X)
    for args, y, n_calls in seen:
        y_two, steps = solve_y_two_call_oracle(*args)
        assert y == y_two, args
        assert n_calls == 1 + steps, args


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


def test_quadrature_failure_carries_plain_floats(monkeypatch):
    # with no refinement allowed and no error tolerated, the first
    # quadrature of the first report, I's, fails at the cold start
    monkeypatch.setattr(quad, "_MAX_LEVELS", quad._MIN_LEVELS)
    monkeypatch.setattr(quad, "_REL_TOL", 0.0)
    monkeypatch.setattr(quad, "_ABS_TOL", 0.0)
    with pytest.raises(NoConvergence) as exc:
        solve_periods(0.02, 0.0)
    assert str(exc.value).startswith("I over (b, inf)")
    assert type(exc.value.best) is float
    assert type(exc.value.residual) is float
    assert isinstance(exc.value.__cause__, NoConvergence)


def test_cold_solve_at_t_1e_6_stalls_in_newton():
    # K is a closed form and cannot fail: at t = 1e-6 the cold solve now
    # runs the Newton iteration out, and pi2, a staircase in (a, b) there
    # (ROADMAP, first known defect), is left far above the tolerance
    with pytest.raises(NoConvergence) as exc:
        solve_periods(1e-6, 0.0)
    assert str(exc.value).startswith("period solve stalled at (a,b)=")
    assert exc.value.__cause__ is None
    a, b = exc.value.best
    assert type(a) is float and type(b) is float
    assert 0.7 < a < 1.0 < b
    assert 1e-10 < exc.value.residual < 1e-3


def test_solve_periods_rejects_bad_family_coordinates():
    with pytest.raises(DomainViolation):
        solve_periods(-1.0, 0.0)
    with pytest.raises(DomainViolation):
        solve_periods(0.0, 0.0)
    with pytest.raises(DomainViolation):
        solve_periods(0.02, -0.01)
    with pytest.raises(DomainViolation):
        solve_periods(0.2, 0.0)  # outside the perturbative regime


def test_period_report_rejects_moduli_out_of_order():
    # y = 1 had raised ZeroDivisionError in K's cel, and x > a had returned
    # a report with R = pi2 = nan
    for x, y in ((0.7, 1.0), (0.75, 1.1)):
        with pytest.raises(DomainViolation):
            period_report_for(SurfaceParams(a=0.72, b=1.21, x=x, X=0.72, y=y))


# ----------------------------------------------------------------- sweep

def _counting_reports(monkeypatch):
    reports = []
    report_for = periods.period_report_for

    def counted(p):
        reports.append(p)
        return report_for(p)
    monkeypatch.setattr(periods, "period_report_for", counted)
    return reports


def test_sweep_family_and_csv_round_trip(tmp_path, monkeypatch):
    # each Newton step takes one period report, its Jacobian included: a
    # differenced Jacobian would take three (40 reports for this sweep).
    # On a 2 x 2 grid every predicted start is a neighbour's solution, and
    # each member takes 4
    reports = _counting_reports(monkeypatch)
    rows = sweep_family([0.015, 0.02], [0.0, 0.01], tol=1e-9)
    assert len(reports) <= 16
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


def _assert_rows_match(rows, expected):
    # every member converged to the default tol, within 1e-9 of `expected`
    assert [(t, X) for t, X, _ in rows] == [(t, X) for t, X, _ in expected]
    for (t, X_offset, sol), (_, _, old) in zip(rows, expected):
        assert sol is not None and old is not None, (t, X_offset)
        assert abs(sol.a - old.a) <= 1e-9 and abs(sol.b - old.b) <= 1e-9
        assert max(abs(sol.report.pi1), abs(sol.report.pi2)) < 1e-10


# a 10 x 4 grid shaped like the benchmark's family_sweep (one t per tenth
# of [0.005, 0.05], its four X_offset columns), and the 7 x 6 family grid
BENCH_T = tuple(0.005 + 0.0045*(i + 0.5) for i in range(10))
BENCH_X = (0.00375, 0.01125, 0.01875, 0.02625)


@pytest.mark.parametrize("t_grid, X_grid, max_reports", [
    (BENCH_T, BENCH_X, 100),
    (FAMILY_T, FAMILY_X, 115),
], ids=["bench-10x4", "family-7x6"])
def test_predicted_starts_match_the_warm_start_sweep(
        t_grid, X_grid, max_reports, monkeypatch):
    # starts from the last solution took 169 and 175 reports; extrapolated
    # starts reach the same members in about two reports each away from
    # the first rows
    expected = warm_start_sweep_oracle(t_grid, X_grid)
    reports = _counting_reports(monkeypatch)
    rows = sweep_family(t_grid, X_grid)
    _assert_rows_match(rows, expected)
    assert len(reports) <= max_reports


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("t_grid, X_grid", [
    ([0.02]*3, [0.0, 0.01]),
    ([0.015, 0.02], [0.01]*3),
    ([0.02]*2, [0.005]*2),
], ids=["t", "X_offset", "both"])
def test_sweep_over_repeated_grid_values(t_grid, X_grid, monkeypatch):
    # `sweep --n-t 3 --t-min 0.02 --t-max 0.02` repeats each t: a repeated
    # value is one extrapolation node, never a zero divisor, and a member
    # whose twin converged starts from its solution, which needs one report
    distinct = [sorted(set(t_grid)), sorted(set(X_grid))]
    expected = warm_start_sweep_oracle(t_grid, X_grid)
    reports = _counting_reports(monkeypatch)
    with np.errstate(all="raise"):
        once = sweep_family(*distinct)
        n_once = len(reports)
        rows = sweep_family(t_grid, X_grid)
    _assert_rows_match(rows, expected)
    twins = {(t, X_offset): sol for t, X_offset, sol in once}
    for t, X_offset, sol in rows:
        twin = twins[t, X_offset]
        assert (sol.a, sol.b, sol.report) == (twin.a, twin.b, twin.report)
    assert len(reports) - n_once == n_once + len(rows) - len(once)


def test_predicted_start_rejected_by_resolve_params_falls_back(monkeypatch):
    # a start with a > 1 > b: resolve_params raises DomainViolation at the
    # first report, and the member is solved again from the warm start,
    # which is the oracle's start, so every member is the oracle's bit for
    # bit
    t_grid, X_grid = [0.015, 0.02], [0.0, 0.01]
    expected = warm_start_sweep_oracle(t_grid, X_grid)
    seeds = []
    solve = periods.solve_periods

    def recording(t, X_offset, tol=1e-10, seed=None):
        seeds.append(seed)
        return solve(t, X_offset, tol=tol, seed=seed)
    monkeypatch.setattr(periods, "_predicted_start", lambda *args: (1.2, 0.9))
    monkeypatch.setattr(periods, "solve_periods", recording)
    rows = sweep_family(t_grid, X_grid)
    assert seeds[0::2] == [(1.2, 0.9)]*4
    warm = [None] + [(old.a, old.b) for *_, old in expected[:-1]]
    assert seeds[1::2] == warm
    for (*_, sol), (*_, old) in zip(rows, expected):
        assert (sol.a, sol.b, sol.report) == (old.a, old.b, old.report)


@pytest.mark.parametrize("exc", [DomainViolation, NoRoot, DegenerateRoot,
                                 NoConvergence])
def test_failed_predicted_start_is_retried_from_the_warm_start(exc,
                                                               monkeypatch):
    t_grid, X_grid = [0.015, 0.02], [0.0, 0.01]
    expected = warm_start_sweep_oracle(t_grid, X_grid)
    start = (0.7, 1.25)
    solve = periods.solve_periods

    def failing(t, X_offset, tol=1e-10, seed=None):
        if seed == start:
            raise exc("from the predicted start")
        return solve(t, X_offset, tol=tol, seed=seed)
    monkeypatch.setattr(periods, "_predicted_start", lambda *args: start)
    monkeypatch.setattr(periods, "solve_periods", failing)
    rows = sweep_family(t_grid, X_grid)
    for (*_, sol), (*_, old) in zip(rows, expected):
        assert (sol.a, sol.b, sol.report) == (old.a, old.b, old.report)


def test_failed_member_is_never_an_extrapolation_node(monkeypatch):
    # the member (0.015, 0.0) fails from every start: it is recorded as a
    # failure, no prediction sees it, and the members after it still
    # converge, the one below it from its column's other members
    t_grid, X_grid = [0.01, 0.015, 0.02, 0.025], [0.0, 0.01]
    failed = (0.015, 0.0)
    solve, predict = periods.solve_periods, periods._predicted_start
    nodes = []

    def failing(t, X_offset, tol=1e-10, seed=None):
        if (t, X_offset) == failed:
            raise NoConvergence("stalled", best=(0.7, 1.25), residual=1.0)
        return solve(t, X_offset, tol=tol, seed=seed)

    def recording(by_X, by_t, t, X_offset):
        solved = [s for by in (by_X, by_t) for line in by.values()
                  for s in line.values()]
        nodes.append([(s.t, s.X_offset) for s in solved])
        assert all(max(abs(s.report.pi1), abs(s.report.pi2)) < 1e-10
                   for s in solved)
        return predict(by_X, by_t, t, X_offset)
    monkeypatch.setattr(periods, "solve_periods", failing)
    monkeypatch.setattr(periods, "_predicted_start", recording)
    rows = sweep_family(t_grid, X_grid)
    assert [(t, X) for t, X, sol in rows if sol is None] == [failed]
    assert len(nodes) == len(rows)
    assert not any(failed in seen for seen in nodes)
    # the oracle, with the same member failing
    expected = warm_start_sweep_oracle(t_grid, X_grid)
    for (*_, sol), (*_, old) in zip(rows, expected):
        if sol is not None:
            assert abs(sol.a - old.a) <= 1e-9 and abs(sol.b - old.b) <= 1e-9


def test_write_sweep_csv_keeps_the_earlier_file_when_it_fails(tmp_path,
                                                               monkeypatch):
    rows = sweep_family([0.015, 0.02], [0.0, 0.01], tol=1e-9)
    out = tmp_path/"sweep.csv"
    out.write_text("earlier\n")
    values = periods.solution_values

    def interrupted(sol):
        if sol is rows[2][2]:
            raise RuntimeError("interrupted between rows")
        return values(sol)
    monkeypatch.setattr(periods, "solution_values", interrupted)
    with pytest.raises(RuntimeError, match="interrupted"):
        write_sweep_csv(rows, out)
    assert out.read_text() == "earlier\n"
    assert [p.name for p in tmp_path.iterdir()] == ["sweep.csv"]
