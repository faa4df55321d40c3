"""Quadrature engine: double-exponential rules for endpoint-singular and
semi-infinite integrals, and Gauss-Legendre rules.

Integrands are called as ``f(x, d_lo, d_hi)`` with the distances to the
endpoints, ``d_lo = x - lo`` and ``d_hi = hi - x`` (inf on a semi-infinite
range), computed without cancellation.  Integrands with
inverse-square-root endpoint behaviour use these to form radicands
accurately.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidQuadrature, NoConvergence


# convergence is first tested at this refinement level
_MIN_LEVELS = 5


@dataclass(frozen=True)
class QuadratureSpec:
    rel_tol: float = 1e-11
    abs_tol: float = 1e-13
    max_refinement_levels: int = 12

    def validate(self) -> "QuadratureSpec":
        if not (self.rel_tol > 0 and self.abs_tol > 0):
            raise InvalidQuadrature(f"need positive tolerances, got {self}")
        if self.max_refinement_levels < _MIN_LEVELS:
            raise InvalidQuadrature(f"need at least {_MIN_LEVELS} refinement "
                                    f"levels, got {self}")
        return self


DEFAULT_SPEC = QuadratureSpec()


def _refine(term, spec, first_range, reach):
    """Shared trapezoid-in-level refinement loop of the two DE rules."""
    h = 1.0
    val = h*term(h, np.arange(-first_range, first_range + 1))
    prev = np.inf
    for level in range(1, spec.max_refinement_levels + 1):
        h *= 0.5
        kmax = int(np.ceil(reach/h))
        ks = np.arange(-kmax, kmax + 1)
        new = 0.5*val + h*term(h, ks[ks % 2 != 0])
        delta = abs(new - val)
        val = new
        if (level >= _MIN_LEVELS
                and delta <= max(spec.abs_tol, spec.rel_tol*abs(val))):
            return val, delta
        prev = delta
    raise NoConvergence("double-exponential refinement did not converge",
                        best=val, residual=prev)


def integrate_singular(f, lo: float, hi: float,
                       spec: QuadratureSpec = DEFAULT_SPEC):
    """Integrate f on (lo, hi) allowing integrable endpoint singularities.

    Uses the tanh-sinh double-exponential substitution; returns
    (value, err_estimate).
    """
    spec.validate()
    mid = 0.5*(lo + hi)
    half = 0.5*(hi - lo)

    def term(h, ks):
        t = ks*h
        q = 0.5*np.pi*np.sinh(t)
        xk = np.tanh(q)
        wk = 0.5*np.pi*np.cosh(t)/np.cosh(q)**2
        # 1 +- tanh(q) without cancellation
        dlo = half*np.exp(q)/np.cosh(q)
        dhi = half*np.exp(-q)/np.cosh(q)
        # build abscissae from the endpoint distances so that xs never rounds
        # onto lo or hi even for extreme nodes
        xs = np.where(xk < 0, lo + dlo, hi - dhi)
        ok = (dlo > 0) & (dhi > 0) & np.isfinite(wk)
        return half*np.sum(np.asarray(f(xs[ok], dlo[ok], dhi[ok]))*wk[ok])

    return _refine(term, spec, first_range=4, reach=4.5)


def integrate_to_infinity(f, lo: float,
                          spec: QuadratureSpec = DEFAULT_SPEC,
                          scale: float = 1.0):
    """Integrate f on (lo, inf); f must decay at least like t^-2.

    Uses the exp-sinh double-exponential substitution x = lo + scale*e^s.
    The distance to the finite endpoint is passed exactly, so an
    inverse-square-root singularity at lo is handled without special
    casing.
    """
    spec.validate()

    def term(h, ks):
        t = ks*h
        s = 0.5*np.pi*np.sinh(t)
        with np.errstate(over="ignore"):
            d = scale*np.exp(s)
        xk = lo + d
        wk = 0.5*np.pi*np.cosh(t)*d
        ok = (d > 0) & np.isfinite(wk) & np.isfinite(xk)
        dhi = np.full(int(ok.sum()), np.inf)
        return np.sum(np.asarray(f(xk[ok], d[ok], dhi))*wk[ok])

    return _refine(term, spec, first_range=5, reach=5.0)


def gauss_legendre_01(n: int):
    """Gauss-Legendre nodes/weights on (0, 1)."""
    xg, wg = np.polynomial.legendre.leggauss(n)
    return 0.5*(xg + 1.0), 0.5*wg
