"""Period problems: residues r and R, the integrals I, J, K, the implicit
residue-matching function F(y), and the two-dimensional period solve.

The three conditions that make the immersion single-valued are
    r = R            (equal horizontal flux at the two Scherk ends; solved
                      for y as the root of F, which is r = R squared and
                      cross-multiplied),
    pi1 = I + J = 0  and  pi2 = K - R/2 = 0   (solved for (a, b)).
"""
from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .errors import (DegenerateRoot, DomainViolation, InvalidResolution,
                     NoConvergence, NoRoot)
from .params import SurfaceParams, SymFuncs, check_moduli, s_coeffs, sym_funcs
from .quad import integrate_singular, integrate_to_infinity


@dataclass(frozen=True)
class PeriodReport:
    r: float
    R: float
    I: float
    J: float
    K: float
    pi1: float
    pi2: float
    F_residual: float


@dataclass(frozen=True)
class FamilySolution:
    t: float
    X_offset: float
    a: float
    b: float
    y: float
    report: PeriodReport
    params: SurfaceParams    # the moduli the report was computed at


def _residue_match(a, b, x, y, S2, S4):
    """The residue match r = R between the two Scherk ends.

    2*pi*i times the residues of dh at the punctures z = 1 and z = a are
    r = pi A/((1 - a^2) sqrt(rad_r)) and R = pi B/((1 - a^2) sqrt(rad_R)).
    Returns (A, B, rad_r, rad_R, F) with F = A^2 rad_R - B^2 rad_r, which is
    r = R squared and cross-multiplied: a quartic in y without square roots.
    Elementwise, so y may be an array."""
    A, B = 1 + S2 + S4, a**4 + S2*a*a + S4
    rad_r = (1 - b*b)*(1 - x*x)*(1 - y*y)
    rad_R = (a*a - b*b)*(a*a - x*x)*(a*a - y*y)
    return A, B, rad_r, rad_R, A*A*rad_R - B*B*rad_r


def residue_r(p: SurfaceParams, s: SymFuncs) -> float:
    """Closed form for 2*pi*i times the residue of dh at the puncture z=1."""
    A, _, rad, _, _ = _residue_match(p.a, p.b, p.x, p.y, s.S2, s.S4)
    return float(np.pi*A/((1 - p.a*p.a)*np.sqrt(rad)))


def residue_R(p: SurfaceParams, s: SymFuncs) -> float:
    """Closed form for 2*pi*i times the residue of dh at the puncture z=a."""
    _, B, _, rad, _ = _residue_match(p.a, p.b, p.x, p.y, s.S2, s.S4)
    return float(np.pi*B/((1 - p.a*p.a)*np.sqrt(rad)))


def _named(name, interval, p, integrate, *args, **kwargs):
    """The value of integrate(*args, **kwargs); its NoConvergence is raised
    again naming the integral, its interval and the moduli, best as a float."""
    try:
        return float(integrate(*args, **kwargs)[0])
    except NoConvergence as exc:
        raise NoConvergence(
            f"{name} over {interval} did not converge for (a,b,x,X,y)="
            f"({p.a}, {p.b}, {p.x}, {p.X}, {p.y}): {exc}",
            best=float(exc.best), residual=float(exc.residual)) from exc


def I_integral(p: SurfaceParams, s: SymFuncs) -> float:
    """Horizontal period integral along the real axis beyond the last branch
    point: integrand has an inverse-square-root endpoint at t=b and decays
    like S1/t^3."""
    a, b, x, y = p.a, p.b, p.x, p.y

    def f(t, dlo, dhi):
        del dhi
        # the quartics divided by t^4 and each radicand factor rooted on its
        # own, so that no intermediate overflows at the outermost nodes
        tt = t*t
        u = 1.0/tt
        return ((s.S1 + (s.S3 + s.S5*u)*u)/((1.0 - u)*(1.0 - a*a*u))
                / (np.sqrt(dlo*(t + b))*np.sqrt(tt - x*x)*np.sqrt(tt - y*y)))

    return _named("I", "(b, inf)", p, integrate_to_infinity, f, b, scale=b)


def J_integral(p: SurfaceParams, s: SymFuncs) -> float:
    """Horizontal period integral along the imaginary axis z = it.

    There the Gauss map is the positive real number g = tan(psi/2) with
    psi(t) = 2 atan(t/X) - atan(t/b) + atan(t/x) - atan(t/y), so
    g - 1/g = -2/tan(psi) and the integrand is real."""
    a, b, x, X, y = p.a, p.b, p.x, p.X, p.y

    def f(t, dlo, dhi):
        del dlo, dhi
        psi = (2*np.arctan(t/X) - np.arctan(t/b)
               + np.arctan(t/x) - np.arctan(t/y))
        # as in I, so that no intermediate overflows
        tt = t*t
        u = 1.0/tt
        return ((1.0 + (s.S4*u - s.S2)*u)/((1.0 + u)*(1.0 + a*a*u))
                * t/np.tan(psi)
                / (np.sqrt(tt + b*b)*np.sqrt(tt + x*x)*np.sqrt(tt + y*y)))

    return _named("J", "(0, inf)", p, integrate_to_infinity, f, 0.0)


def K_integral(p: SurfaceParams, s: SymFuncs) -> float:
    """Vertical flux integral over the branch cut (y, b): inverse-square-root
    singularities at both endpoints, no interior singularity."""
    a, b, x, y = p.a, p.b, p.x, p.y

    def f(t, dlo, dhi):
        rad = dhi*(b + t)*(t*t - x*x)*dlo*(t + y)
        return ((t**4 + s.S2*t*t + s.S4)/((1.0 - t*t)*(a*a - t*t))
                * t/np.sqrt(rad))

    return _named("K", "(y, b)", p, integrate_singular, f, y, b)


def F_eval(a: float, b: float, x: float, X: float, y: float) -> float:
    """Polynomial whose root y in (1, b) matches the two residues (r = R).
    Elementwise, so y may be an array."""
    _, S2, _, S4, _ = s_coeffs(b, x, X, y)
    return _residue_match(a, b, x, y, S2, S4)[-1]


# the values of a quartic at the fifth roots of unity are V c, with V their
# Vandermonde matrix and c its coefficients lowest first; V^-1 = conj(V)/5
_UNITY5 = np.exp(2j*np.pi*np.arange(5)/5)
_FROM_UNITY5 = np.conj(np.vander(_UNITY5, increasing=True))/5


def _F_coeffs(a: float, b: float, x: float, X: float) -> np.ndarray:
    """Monomial coefficients of the quartic F in y, highest degree first."""
    return (_FROM_UNITY5 @ F_eval(a, b, x, X, _UNITY5)).real[::-1]


# Newton on y stops once its step falls below this share of y
_Y_TOL = 1e-12


def solve_y(a: float, b: float, x: float, X: float) -> float:
    """Smallest root of F in (1, b), from the quartic's companion matrix,
    polished by Newton with values from the factored F_eval (the monomial
    form cancels badly as y -> 1).  Raises NoRoot if there is none, and
    DegenerateRoot if it sits so close to y = 1 that r = R cannot be
    resolved in double precision."""
    c = _F_coeffs(a, b, x, X)
    roots = np.roots(c)
    real = roots.real[(roots.imag == 0) & (roots.real > 1.0) & (roots.real < b)]
    if real.size == 0:
        raise NoRoot(f"F has no real root in (1, {b}) for "
                     f"(a,b,x,X)=({a},{b},{x},{X})")
    yy = float(real.min())
    dc = np.polyder(c)
    for _ in range(3):
        step = F_eval(a, b, x, X, yy)/np.polyval(dc, yy)
        yn = yy - step
        if not (1.0 < yn < b):
            break
        yy = yn
        if abs(step) < _Y_TOL*yy:
            break
    _, S2, _, S4, _ = s_coeffs(b, x, X, yy)
    A, B, rad_r, rad_R, _ = _residue_match(a, b, x, yy, S2, S4)
    # r and R without their common factor pi/(1 - a^2)
    r, R = A/np.sqrt(rad_r), B/np.sqrt(rad_R)
    mismatch = abs(r - R)/max(abs(r), abs(R))
    if mismatch > 1e-8:
        raise DegenerateRoot(f"root y = 1 + {yy - 1:.3g} of F misses r = R by "
                             f"{mismatch:.3g} relative for (a,b,x,X)=({a},{b},{x},{X})")
    return float(yy)


def resolve_params(t: float, X_offset: float, a: float, b: float) -> SurfaceParams:
    """Full moduli from family coordinates: y from the residue match.
    Moduli out of order raise DomainViolation before F is evaluated; y is
    solve_y's root in (1, b), so they need no second check."""
    check_moduli(a, b, a - t, a + X_offset)
    y = solve_y(a, b, a - t, a + X_offset)
    return SurfaceParams(a=a, b=b, x=a - t, X=a + X_offset, y=y)


def period_report_for(p: SurfaceParams) -> PeriodReport:
    s = sym_funcs(p)
    r = residue_r(p, s)
    R = residue_R(p, s)
    I = I_integral(p, s)
    J = J_integral(p, s)
    K = K_integral(p, s)
    F = _residue_match(p.a, p.b, p.x, p.y, s.S2, s.S4)[-1]
    return PeriodReport(r=r, R=R, I=I, J=J, K=K, pi1=I + J, pi2=K - 0.5*R,
                        F_residual=float(F))


# the sweep --fig6 window; its centre is the cold start of the period solve
DEFAULT_SEED_BOX = (0.64, 0.76, 1.15, 1.35)


def _pis(t, X_offset, a, b):
    p = resolve_params(t, X_offset, float(a), float(b))
    rep = period_report_for(p)
    return np.array([rep.pi1, rep.pi2]), (p, rep)


# largest perturbation of the family coordinates for which the warm-started
# Newton continuation is supported
FAMILY_EPS = 0.05
# Newton iterations of the period solve
_MAX_ITER = 80


def check_family_coords(t: float, X_offset: float) -> None:
    """Validate family coordinates: t in (0, FAMILY_EPS], X_offset in
    [0, FAMILY_EPS)."""
    if not (0.0 < t <= FAMILY_EPS):
        raise DomainViolation(f"t must lie in (0, {FAMILY_EPS}], got {t}")
    if not (0.0 <= X_offset < FAMILY_EPS):
        raise DomainViolation(f"X_offset must lie in [0, {FAMILY_EPS}), "
                              f"got {X_offset}")


def check_tol(tol: float) -> None:
    """Validate a period-solve tolerance: a finite number > 0."""
    if not 0.0 < tol < np.inf:
        raise InvalidResolution(f"tol must be a finite number > 0, got {tol}")


def solve_periods(t: float, X_offset: float, tol: float = 1e-10,
                  seed: tuple[float, float] | None = None) -> FamilySolution:
    """Damped Newton on (pi1, pi2)(a, b) with a finite-difference Jacobian,
    from the warm start seed or else the centre of DEFAULT_SEED_BOX.  A stall
    raises NoConvergence carrying the last iterate.
    tol must be a finite number > 0.
    """
    check_family_coords(t, X_offset)
    check_tol(tol)
    if seed is None:
        a_lo, a_hi, b_lo, b_hi = DEFAULT_SEED_BOX
        seed = (0.5*(a_lo + a_hi), 0.5*(b_lo + b_hi))
    v, pv, (p, rep) = _newton2(t, X_offset, seed, tol)
    if np.max(np.abs(pv)) < tol:
        return FamilySolution(t=t, X_offset=X_offset, a=p.a, b=p.b, y=p.y,
                              report=rep, params=p)
    best = tuple(map(float, v))
    raise NoConvergence(
        f"period solve stalled at (a,b)={best} with residuals "
        f"{tuple(map(float, pv))}",
        best=best, residual=float(np.max(np.abs(pv))))


def _newton2(t, X_offset, v0, tol):
    """Returns the last iterate, its residuals and its (params, report)."""
    v = np.array(v0, dtype=float)
    pv, at = _pis(t, X_offset, v[0], v[1])
    for _ in range(_MAX_ITER):
        if np.max(np.abs(pv)) < tol:
            return v, pv, at
        h = 1e-7
        Jm = np.zeros((2, 2))
        for j in range(2):
            vp = v.copy()
            vp[j] += h
            Jm[:, j] = (_pis(t, X_offset, vp[0], vp[1])[0] - pv)/h
        dv = np.linalg.solve(Jm, -pv)
        # a trial step whose moduli resolve_params rejects is halved
        lam = 1.0
        while True:
            vn = v + lam*dv
            try:
                pn, an = _pis(t, X_offset, vn[0], vn[1])
                if np.linalg.norm(pn) < np.linalg.norm(pv) or lam <= 0.25:
                    v, pv, at = vn, pn, an
                    break
            except (DomainViolation, NoRoot):
                pass
            lam *= 0.5
            if lam < 1e-8:
                return v, pv, at
    return v, pv, at


def sweep_family(t_grid, X_grid, tol: float = 1e-10):
    """Solve the family over a (t, X_offset) grid with warm starts.

    Returns a list of (t, X_offset, solution_or_None) rows in grid order;
    solve failures are recorded, not fatal.  Grid points outside the family
    domain raise DomainViolation before any solve.
    """
    grid = [(t, X_offset) for t in t_grid for X_offset in X_grid]
    for t, X_offset in grid:
        check_family_coords(t, X_offset)
    rows = []
    seed = None
    for t, X_offset in grid:
        try:
            sol = solve_periods(t, X_offset, tol=tol, seed=seed)
            seed = (sol.a, sol.b)
            rows.append((t, X_offset, sol))
        except (NoRoot, NoConvergence):
            rows.append((t, X_offset, None))
    return rows


SWEEP_HEADER = ["t", "X_offset", "a", "b", "y", "r", "R", "I", "J", "K",
                "pi1", "pi2", "converged"]


def solution_values(sol: FamilySolution) -> tuple:
    """A solution's values in SWEEP_HEADER order, up to the converged flag."""
    rep = sol.report
    return (sol.t, sol.X_offset, sol.a, sol.b, sol.y, rep.r, rep.R, rep.I,
            rep.J, rep.K, rep.pi1, rep.pi2)


def write_sweep_csv(rows, path):
    with open(path, "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(SWEEP_HEADER)
        for t, X_offset, sol in rows:
            if sol is None:
                wr.writerow([f"{t:.17g}", f"{X_offset:.17g}"]
                            + [""]*(len(SWEEP_HEADER) - 3) + ["0"])
            else:
                wr.writerow([f"{v:.17g}" for v in solution_values(sol)] + ["1"])
