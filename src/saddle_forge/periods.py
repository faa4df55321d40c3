"""Period problems: residues r and R, the integrals I, J, K, the implicit
residue-matching function F(y), and the two-dimensional period solve.

The three conditions that make the immersion single-valued are
    r = R            (equal horizontal flux at the two Scherk ends; solved
                      for y as the root of F, which is r = R squared and
                      cross-multiplied),
    pi1 = I + J = 0  and  pi2 = K - R/2 = 0   (solved for (a, b)).

Along the family x = a - t and X = a + X_offset, and y = y(a, b) follows
from F = 0, so the periods are functions of (a, b) alone.  K (a complete
elliptic integral), F, the S_k and R are closed forms, differentiated by
complex step.  I and J are differentiated under the integral sign on the
rule's fixed nodes (Takahasi and Mori 1974), in the same pass as the
value: each integrand returns its value and its derivatives along d/da
and d/db, from its partials in the moduli and the family tangent.
"""
from __future__ import annotations

import cmath
import csv
import io
from dataclasses import dataclass

import numpy as np

from .errors import (DegenerateRoot, DomainViolation, InvalidResolution,
                     NoConvergence, NoRoot)
from .files import atomic_target
from .params import SurfaceParams, SymFuncs, check_moduli, s_coeffs, sym_funcs
from .quad import integrate_to_infinity

# integrate_singular is not called; bench/tracing.py wraps it by name
integrate_singular = integrate_to_infinity


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
    # the (a, b) Jacobian of (pi1, pi2) along the family
    dpi1_da: float
    dpi1_db: float
    dpi2_da: float
    dpi2_db: float

    @property
    def jacobian(self) -> np.ndarray:
        return np.array([[self.dpi1_da, self.dpi1_db],
                         [self.dpi2_da, self.dpi2_db]])


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


def _residues(a, b, x, y, S2, S4):
    """r, R and F of _residue_match (complex steps at complex moduli)."""
    A, B, rad_r, rad_R, F = _residue_match(a, b, x, y, S2, S4)
    return (np.pi*A/((1 - a*a)*np.sqrt(rad_r)),
            np.pi*B/((1 - a*a)*np.sqrt(rad_R)), F)


def residue_r(p: SurfaceParams, s: SymFuncs) -> float:
    """Closed form for 2*pi*i times the residue of dh at the puncture z=1."""
    return float(_residues(p.a, p.b, p.x, p.y, s.S2, s.S4)[0])


def residue_R(p: SurfaceParams, s: SymFuncs) -> float:
    """Closed form for 2*pi*i times the residue of dh at the puncture z=a."""
    return float(_residues(p.a, p.b, p.x, p.y, s.S2, s.S4)[1])


def _with_gradient(value, tan: dict, partials: dict, c) -> np.ndarray:
    """The (3, n) stack of an integrand's value and its two (a, b) gradient
    rows.  By the chain rule each row is c times the sum over the moduli m
    of tan[m] times partials[m], the integrand's partial derivative in m
    divided by c."""
    out = np.empty((3, len(value)))
    out[0] = value
    np.matmul(np.array([tan[m] for m in partials]).T,
              np.array(list(partials.values())), out=out[1:])
    out[1:] *= c
    return out


def _named(name, interval, p, integrate, *args, **kwargs):
    """The value row and the gradient rows of integrate(*args, **kwargs),
    a float and a (2,) array; its NoConvergence is raised again naming the
    integral, its interval and the moduli."""
    try:
        vals = integrate(*args, **kwargs)[0]
        return float(vals[0]), vals[1:]
    except NoConvergence as exc:
        raise NoConvergence(
            f"{name} over {interval} did not converge for (a,b,x,X,y)="
            f"({p.a}, {p.b}, {p.x}, {p.X}, {p.y}): {exc}",
            best=float(exc.best), residual=float(exc.residual)) from exc


# Each integrand below is num*c with c a product of known factors.  Its
# partials in the moduli are formed as G_m = d(num*c)/dm / c and multiplied
# by c only after the chain rule, so that none of them underflows at the
# outermost nodes, where c is ~1e-185.

def I_integral(p: SurfaceParams, s: SymFuncs,
               tan: dict) -> tuple[float, np.ndarray]:
    """Horizontal period integral along the real axis beyond the last branch
    point: integrand has an inverse-square-root endpoint at t=b and decays
    like S1/t^3.  Returns the value and its (a, b) gradient along the
    family tangent tan."""
    a, b, x, y = p.a, p.b, p.x, p.y

    def f(t, d):
        # the quartics divided by t^4 and each radicand factor rooted on its
        # own, so that no intermediate overflows at the outermost nodes
        tt = t*t
        u = 1.0/tt
        one_u, one_au = 1.0 - u, 1.0 - a*a*u
        num = s.S1 + (s.S3 + s.S5*u)*u
        c = 1.0/(one_u*one_au*(np.sqrt(d*(t + b))*np.sqrt(tt - x*x)
                                * np.sqrt(tt - y*y)))
        ua, ux, uy = u/one_au, u/(1.0 - x*x*u), u/(1.0 - y*y*u)
        # integrate_to_infinity keeps its nodes at fixed t/b, so t scales
        # with b, and 1/sqrt(t^2 - b^2) dt does not depend on b
        G = {"a": 2*a*ua*num, "x": x*ux*num, "y": y*uy*num,
             "b": -(2*u*(s.S3 + 2*s.S5*u)
                    + (2*u/one_u + 2*a*a*ua + 2.0 + x*x*ux + y*y*uy)*num)/b,
             "S1": np.ones_like(u), "S3": u, "S5": u*u}
        return _with_gradient(num*c, tan, G, c)

    return _named("I", "(b, inf)", p, integrate_to_infinity, f, b, scale=b)


def J_integral(p: SurfaceParams, s: SymFuncs,
               tan: dict) -> tuple[float, np.ndarray]:
    """Horizontal period integral along the imaginary axis z = it.

    There the Gauss map is the positive real number g = tan(psi/2) with
    psi(t) = 2 atan(t/X) - atan(t/b) + atan(t/x) - atan(t/y), so
    g - 1/g = -2/tan(psi) and the integrand is real.  Returns the value
    and its (a, b) gradient along the family tangent tan."""
    a, b, x, X, y = p.a, p.b, p.x, p.X, p.y

    def f(t, _):
        psi = (2*np.arctan(t/X) - np.arctan(t/b)
               + np.arctan(t/x) - np.arctan(t/y))
        # as in I, so that no intermediate overflows
        tt = t*t
        u = 1.0/tt
        tb, tx, ty = tt + b*b, tt + x*x, tt + y*y
        one_au = 1.0 + a*a*u
        quartic = 1.0 + (s.S4*u - s.S2)*u
        tcot = t/np.tan(psi)
        num = quartic*tcot
        c = 1.0/((1.0 + u)*one_au*(np.sqrt(tb)*np.sqrt(tx)*np.sqrt(ty)))
        # d(t cot psi)/dm = -t^2 (1 + cot^2 psi) dpsi/dm, and each dpsi/dm
        # is t/(t^2 + m^2) up to sign
        w = quartic*(tt + tcot*tcot)
        G = {"a": -2*a*u/one_au*num, "b": -(w + b*num)/tb,
             "x": (w - x*num)/tx, "y": -(w + y*num)/ty, "X": 2*w/(tt + X*X),
             "S2": -u*tcot, "S4": u*u*tcot}
        return _with_gradient(num*c, tan, G, c)

    return _named("J", "(0, inf)", p, integrate_to_infinity, f, 0.0)


def _cel(kc, p, c, s):
    """Bulirsch's cel (Numer. Math. 13, 1969) for p > 0, the integral over
    (0, pi/2) of (c cos^2 + s sin^2)/((cos^2 + p sin^2) sqrt(cos^2 + kc^2
    sin^2)) by quadratically convergent Gauss transformations."""
    e, em, p = kc, 1.0, cmath.sqrt(p)
    s /= p
    while True:
        c, s, p, em, g = c + s/p, 2*(s + c*e/p), p + e/p, em + kc, em
        if not abs(g - kc) > 1e-9*abs(g):    # a NaN ends the loop too
            return 0.5*np.pi*(s + c*em)/(em*(em + p))
        kc = 2*cmath.sqrt(e)
        e = kc*em


def _vertical(a, b, x, y, S2, S4):
    """K and pi2 = K - R/2, complex at complex moduli.  Under t^2 = b^2 -
    (b^2 - y^2) sin^2 theta, the partial fractions of K's integrand at
    t^2 = 1 and a^2 (with A and B of _residue_match) give two cels."""
    A, B, _, rad_R, _ = _residue_match(a, b, x, y, S2, S4)
    q, bx, ba, b1 = 1 - a*a, b*b - x*x, b*b - a*a, (b - 1)*(b + 1)
    kc, p1 = cmath.sqrt((y*y - x*x)/bx), (y - 1)*(y + 1)/b1
    c1, c2 = A/(q*b1), -B/(q*ba)
    K = (_cel(kc, p1, 1 + c1, p1 + c1)
         + _cel(kc, (y*y - a*a)/ba, c2, c2))/cmath.sqrt(bx)
    return K, K - 0.5*np.pi*B/(q*np.sqrt(rad_R))


def _vertical_rows(p: SurfaceParams, s: SymFuncs, tan: dict) -> np.ndarray:
    """(K, pi2) at p over their d/da and d/db rows, by complex step."""
    at = _vertical(p.a, p.b, p.x, p.y, s.S2, s.S4)
    return np.array([np.real(at)]
                    + [np.imag(_vertical(*m))/_H for m in tan["steps"]])


def K_integral(p: SurfaceParams, s: SymFuncs,
               tan: dict) -> tuple[float, np.ndarray]:
    """Vertical flux integral over the branch cut (y, b) and its (a, b)
    gradient along the family tangent tan, in closed form (_vertical)."""
    rows = _vertical_rows(p, s, tan)
    return float(rows[0, 0]), rows[1:, 0]


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
# complex step of the closed forms F, s_coeffs, R and K: Im f(v + i h dv)/h
# is the derivative along dv to rounding (Squire and Trapp 1998)
_H = 1e-20


def solve_y(a: float, b: float, x: float, X: float) -> float:
    """Smallest root of F in (1, b), from the quartic's companion matrix,
    polished by Newton on the factored F_eval (the monomial form cancels
    badly as y -> 1), F and its slope from one complex-step call.  Raises
    DomainViolation if a coefficient overflows (b near 1e100 or beyond),
    NoRoot if there is no root, and DegenerateRoot if it sits so close to
    y = 1 that r = R cannot be resolved in double precision."""
    with np.errstate(over="ignore", invalid="ignore"):
        c = _F_coeffs(a, b, x, X)
    if not np.all(np.isfinite(c)):
        raise DomainViolation(f"F's coefficients are not finite for "
                              f"(a,b,x,X)=({a},{b},{x},{X})")
    roots = np.roots(c)
    real = roots.real[(roots.imag == 0) & (roots.real > 1.0) & (roots.real < b)]
    if real.size == 0:
        raise NoRoot(f"F has no real root in (1, {b}) for "
                     f"(a,b,x,X)=({a},{b},{x},{X})")
    yy = float(real.min())
    for _ in range(3):
        F = F_eval(a, b, x, X, yy + 1j*_H)    # F and _H times F_y
        step = F.real/(F.imag/_H)
        yn = yy - step
        if not (1.0 < yn < b):
            break
        yy = yn
        if abs(step) < _Y_TOL*yy:
            break
    _, S2, _, S4, _ = s_coeffs(b, x, X, yy)
    r, R, _ = _residues(a, b, x, yy, S2, S4)
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


def family_tangent(p: SurfaceParams) -> dict:
    """The derivatives along d/da and d/db at fixed (t, X_offset) of each
    modulus and S_k, keyed by name, each a pair of floats, by complex step:
    x and X move with a, and y with (a, b) by -F_a/F_y and -F_b/F_y, which
    keep F = 0.  "steps" holds (a, b, x, y, S2, S4) stepped along each."""
    a, b, x, X, y = p.a, p.b, p.x, p.X, p.y
    h = 1j*_H
    # F_a, F_b and F_y, each times _H, which cancels
    F_a = F_eval(a + h, b, x + h, X + h, y).imag
    F_b = F_eval(a, b + h, x, X, y).imag
    F_y = F_eval(a, b, x, X, y + h).imag
    y_a, y_b = -F_a/F_y, -F_b/F_y
    tan = {"a": (1.0, 0.0), "b": (0.0, 1.0), "x": (1.0, 0.0),
           "X": (1.0, 0.0), "y": (y_a, y_b)}
    along_a = s_coeffs(b, x + h, X + h, y + h*y_a)
    along_b = s_coeffs(b + h, x, X, y + h*y_b)
    for k, (Sa, Sb) in enumerate(zip(along_a, along_b)):
        tan[f"S{k + 1}"] = (Sa.imag/_H, Sb.imag/_H)
    tan["steps"] = ((a + h, b, x + h, y + h*y_a, along_a[1], along_a[3]),
                    (a, b + h, x, y + h*y_b, along_b[1], along_b[3]))
    return tan


def period_report_for(p: SurfaceParams) -> PeriodReport:
    """The residues, the period integrals and the residuals (pi1, pi2) at p,
    with the (a, b) Jacobian of (pi1, pi2) along the family.  Moduli out
    of order raise DomainViolation."""
    s = sym_funcs(p.validate())
    tan = family_tangent(p)
    r, R, F = map(float, _residues(p.a, p.b, p.x, p.y, s.S2, s.S4))
    I, dI = I_integral(p, s, tan)
    J, dJ = J_integral(p, s, tan)
    rows = _vertical_rows(p, s, tan)
    (K, pi2), d1, d2 = map(float, rows[0]), dI + dJ, rows[1:, 1]
    return PeriodReport(r=r, R=R, I=I, J=J, K=K, pi1=I + J, pi2=pi2,
                        F_residual=F,
                        dpi1_da=float(d1[0]), dpi1_db=float(d1[1]),
                        dpi2_da=float(d2[0]), dpi2_db=float(d2[1]))


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


def solve_periods(t: float, X_offset: float, tol: float = 1e-10,
                  seed: tuple[float, float] | None = None) -> FamilySolution:
    """Damped Newton on (pi1, pi2)(a, b) with the exact Jacobian of each
    period report, from the warm start seed or else the centre of
    DEFAULT_SEED_BOX; tol must be a finite number > 0.  A stall raises
    NoConvergence carrying the last iterate."""
    check_family_coords(t, X_offset)
    if not 0.0 < tol < np.inf:
        raise InvalidResolution(f"tol must be a finite number > 0, got {tol}")
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
        dv = np.linalg.solve(at[1].jacobian, -pv)
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


def _predicted_start(by_X, by_t, t, X_offset):
    """(a, b) at (t, X_offset) extrapolated from the members converged so
    far, each held as by_X[X_offset][t] and by_t[t][X_offset]: the
    polynomial in t through up to three members of its X_offset column,
    else the one in X_offset through up to three of its t row, else the
    nearest member; None if there is none.  A polynomial takes the nodes
    nearest the target, one per distinct value, so no Lagrange weight
    divides by zero where a grid value repeats."""
    for line, u in ((by_X.get(X_offset, {}), t), (by_t.get(t, {}), X_offset)):
        nodes = sorted(line, key=lambda v: abs(v - u))[:3]
        if nodes:
            a = b = 0.0
            for v in nodes:
                w = 1.0
                for vj in nodes:
                    if vj != v:
                        w *= (u - vj)/(v - vj)
                a, b = a + w*line[v].a, b + w*line[v].b
            return a, b
    near = min((s for line in by_X.values() for s in line.values()),
               key=lambda s: (s.t - t)**2 + (s.X_offset - X_offset)**2,
               default=None)
    return None if near is None else (near.a, near.b)


def sweep_family(t_grid, X_grid, tol: float = 1e-10):
    """Solve the family over a (t, X_offset) grid, each member from a start
    predicted by the members already converged (_predicted_start), the
    predictor step of predictor-corrector continuation.  A solve from the
    predicted start that fails is retried once from the last converged
    member, or else the centre of DEFAULT_SEED_BOX.

    Returns a list of (t, X_offset, solution_or_None) rows in grid order;
    solve failures are recorded, not fatal.  Grid points outside the family
    domain raise DomainViolation before any solve.
    """
    grid = [(t, X_offset) for t in t_grid for X_offset in X_grid]
    for t, X_offset in grid:
        check_family_coords(t, X_offset)
    rows, by_X, by_t, last = [], {}, {}, None
    for t, X_offset in grid:
        starts = [_predicted_start(by_X, by_t, t, X_offset), last]
        sol = None
        # one attempt where the two starts are equal
        for seed in dict.fromkeys(starts):
            try:
                sol = solve_periods(t, X_offset, tol=tol, seed=seed)
            except (DomainViolation, NoRoot, NoConvergence):
                continue
            by_X.setdefault(X_offset, {})[t] = sol
            by_t.setdefault(t, {})[X_offset] = sol
            last = (sol.a, sol.b)
            break
        rows.append((t, X_offset, sol))
    return rows


SWEEP_HEADER = ["t", "X_offset", "a", "b", "y", "r", "R", "I", "J", "K",
                "pi1", "pi2", "converged"]


def solution_values(sol: FamilySolution) -> tuple:
    """A solution's values in SWEEP_HEADER order, up to the converged flag."""
    rep = sol.report
    return (sol.t, sol.X_offset, sol.a, sol.b, sol.y, rep.r, rep.R, rep.I,
            rep.J, rep.K, rep.pi1, rep.pi2)


def write_sweep_csv(rows, path):
    """The sweep's rows as CSV under SWEEP_HEADER, written through
    files.atomic_target; a failed member's row holds only t, X_offset and
    its flag 0."""
    with atomic_target(path) as fh, io.TextIOWrapper(fh, newline="") as text:
        wr = csv.writer(text)
        wr.writerow(SWEEP_HEADER)
        for t, X_offset, sol in rows:
            if sol is None:
                wr.writerow([f"{t:.17g}", f"{X_offset:.17g}"]
                            + [""]*(len(SWEEP_HEADER) - 3) + ["0"])
            else:
                wr.writerow([f"{v:.17g}" for v in solution_values(sol)] + ["1"])
