"""Quadrature engine: double-exponential rules for endpoint-singular and
semi-infinite integrals, and Gauss-Legendre rules.

Integrands are called as ``f(x, d_lo, d_hi)`` with the distances to the
endpoints, ``d_lo = x - lo`` and ``d_hi = hi - x`` (inf on a semi-infinite
range), computed without cancellation.  Integrands with
inverse-square-root endpoint behaviour use these to form radicands
accurately.
"""
from __future__ import annotations

import numpy as np

from .errors import NoConvergence


# a refinement level is converged once it changes the value by at most
# max(_ABS_TOL, _REL_TOL*|value|); convergence is first tested at level
# _MIN_LEVELS, and NoConvergence is raised after level _MAX_LEVELS
_REL_TOL = 1e-11
_ABS_TOL = 1e-13
_MIN_LEVELS = 5
_MAX_LEVELS = 12


def _refine(term, first_range, reach):
    """Shared trapezoid-in-level refinement loop of the two DE rules."""
    h = 1.0
    val = h*term(h, np.arange(-first_range, first_range + 1))
    prev = np.inf
    for level in range(1, _MAX_LEVELS + 1):
        h *= 0.5
        kmax = int(np.ceil(reach/h))
        ks = np.arange(-kmax, kmax + 1)
        new = 0.5*val + h*term(h, ks[ks % 2 != 0])
        delta = abs(new - val)
        val = new
        if (level >= _MIN_LEVELS
                and delta <= max(_ABS_TOL, _REL_TOL*abs(val))):
            return val, delta
        prev = delta
    raise NoConvergence("double-exponential refinement did not converge",
                        best=val, residual=prev)


def integrate_singular(f, lo: float, hi: float):
    """Integrate f on (lo, hi) allowing integrable endpoint singularities.

    Uses the tanh-sinh double-exponential substitution; returns
    (value, err_estimate).
    """
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

    return _refine(term, first_range=4, reach=4.5)


def integrate_to_infinity(f, lo: float, scale: float = 1.0):
    """Integrate f on (lo, inf); f must decay at least like t^-2.

    Uses the exp-sinh double-exponential substitution x = lo + scale*e^s.
    The distance to the finite endpoint is passed exactly, so an
    inverse-square-root singularity at lo is handled without special
    casing.
    """

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

    return _refine(term, first_range=5, reach=5.0)


def gauss_legendre_01(n: int):
    """Gauss-Legendre nodes/weights on (0, 1)."""
    xg, wg = np.polynomial.legendre.leggauss(n)
    return 0.5*(xg + 1.0), 0.5*wg
