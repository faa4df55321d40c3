"""Quadrature engine: double-exponential rules for endpoint-singular and
semi-infinite integrals, and Gauss-Legendre rules.

Integrands are called as ``f(x, d_lo, d_hi)`` with the distances to the
endpoints, ``d_lo = x - lo`` and ``d_hi = hi - x`` (inf on a semi-infinite
range), computed without cancellation.  Integrands with
inverse-square-root endpoint behaviour use these to form radicands
accurately.

Both DE rules halve the step from h = 1 level by level.  Every node of
levels 0.._MIN_LEVELS lies on the level-_MIN_LEVELS grid, so the integrand
is called once on all of them (289 tanh-sinh, 321 exp-sinh nodes) and once
per level after that.  The node tables (abscissae and weights before the
interval is applied) do not depend on the integrand: they are built per
level on first use and kept read-only.  Each level's sum is taken over
that level's nodes in ascending order, so values, error estimates and the
abscissae the integrand sees are bit for bit those of one call per level.
"""
from __future__ import annotations

from itertools import accumulate

import numpy as np

from .errors import NoConvergence


# a refinement level is converged once it changes the value by at most
# max(_ABS_TOL, _REL_TOL*|value|); convergence is first tested at level
# _MIN_LEVELS, and NoConvergence is raised after level _MAX_LEVELS
_REL_TOL = 1e-11
_ABS_TOL = 1e-13
_MIN_LEVELS = 5
_MAX_LEVELS = 12


class _Nodes:
    """Node tables of one double-exponential rule, built per level on first
    use and kept read-only.

    Level 0 has the nodes t = k for |k| <= first_range; level L >= 1 the
    odd k with |k h| <= reach, h = 2^-L.  Every node of levels
    0.._MIN_LEVELS lies on the level-_MIN_LEVELS grid, so they share one
    table (key None), laid out level by level, each level in ascending k.
    tables(t) maps the t of one level to its tuple of arrays; a table is
    that tuple followed by the level bounds, a tuple of ints.
    """

    def __init__(self, first_range, reach, tables):
        self.first_range = first_range
        self.reach = reach
        self.tables = tables
        self._cache = {}

    def _t(self, level):
        if level == 0:
            return np.arange(-self.first_range, self.first_range + 1)*1.0
        h = 0.5**level
        kmax = int(np.ceil(self.reach/h))
        ks = np.arange(-kmax, kmax + 1)
        return ks[ks % 2 != 0]*h

    def __call__(self, level):
        tab = self._cache.get(level)
        if tab is None:
            levels = range(_MIN_LEVELS + 1) if level is None else [level]
            # each level's tables on its own, so they match a per-level pass
            parts = [self.tables(self._t(L)) for L in levels]
            tab = tuple(map(np.concatenate, zip(*parts)))
            for arr in tab:
                arr.flags.writeable = False
            tab += (tuple(accumulate((len(part[0]) for part in parts),
                                     initial=0)),)
            self._cache[level] = tab
        return tab


def _level_sums(fw, ok, bounds):
    """The sum (np.sum's pairwise add.reduce) of each level's share of fw,
    the weighted integrand on the ok nodes of a table with these level
    bounds."""
    if not ok.all():
        bounds = np.concatenate(([0], np.cumsum(ok)))[list(bounds)].tolist()
    return [np.add.reduce(fw[i:j]) for i, j in zip(bounds[:-1], bounds[1:])]


def _refine(term):
    """Shared trapezoid-in-level refinement loop of the two DE rules.

    term(None) gives the sums of levels 0.._MIN_LEVELS from one integrand
    call, term(level) the sum of one later level as a one-item list."""
    sums = term(None)
    h = 1.0
    val = h*sums[0]
    prev = np.inf
    for level in range(1, _MAX_LEVELS + 1):
        h *= 0.5
        s = sums[level] if level <= _MIN_LEVELS else term(level)[0]
        new = 0.5*val + h*s
        delta = abs(new - val)
        val = new
        if (level >= _MIN_LEVELS
                and delta <= max(_ABS_TOL, _REL_TOL*abs(val))):
            return val, delta
        prev = delta
    raise NoConvergence("double-exponential refinement did not converge",
                        best=val, residual=prev)


def _tanh_sinh_tables(t):
    q = 0.5*np.pi*np.sinh(t)
    cq = np.cosh(q)
    wk = 0.5*np.pi*np.cosh(t)/cq**2
    return np.tanh(q) < 0, wk, np.exp(q), np.exp(-q), cq, np.isfinite(wk)


_TANH_SINH = _Nodes(first_range=4, reach=4.5, tables=_tanh_sinh_tables)


def integrate_singular(f, lo: float, hi: float):
    """Integrate f on (lo, hi) allowing integrable endpoint singularities.

    Uses the tanh-sinh double-exponential substitution; returns
    (value, err_estimate).
    """
    half = 0.5*(hi - lo)

    def term(level):
        neg, wk, eq, emq, cq, finite, bounds = _TANH_SINH(level)
        # 1 +- tanh(q) without cancellation
        dlo = half*eq/cq
        dhi = half*emq/cq
        # build abscissae from the endpoint distances so that xs never rounds
        # onto lo or hi even for extreme nodes
        xs = np.where(neg, lo + dlo, hi - dhi)
        ok = (dlo > 0) & (dhi > 0) & finite
        fw = np.asarray(f(xs[ok], dlo[ok], dhi[ok]))*wk[ok]
        return [half*s for s in _level_sums(fw, ok, bounds)]

    return _refine(term)


def _exp_sinh_tables(t):
    with np.errstate(over="ignore"):
        es = np.exp(0.5*np.pi*np.sinh(t))
    return es, 0.5*np.pi*np.cosh(t)


_EXP_SINH = _Nodes(first_range=5, reach=5.0, tables=_exp_sinh_tables)


def integrate_to_infinity(f, lo: float, scale: float = 1.0):
    """Integrate f on (lo, inf); f must decay at least like t^-2.

    Uses the exp-sinh double-exponential substitution x = lo + scale*e^s.
    The distance to the finite endpoint is passed exactly, so an
    inverse-square-root singularity at lo is handled without special
    casing.
    """

    def term(level):
        es, c, bounds = _EXP_SINH(level)
        with np.errstate(over="ignore"):
            d = scale*es
        xk = lo + d
        wk = c*d
        ok = (d > 0) & np.isfinite(wk) & np.isfinite(xk)
        dhi = np.full(int(ok.sum()), np.inf)
        fw = np.asarray(f(xk[ok], d[ok], dhi))*wk[ok]
        return _level_sums(fw, ok, bounds)

    return _refine(term)


def gauss_legendre_01(n: int):
    """Gauss-Legendre nodes/weights on (0, 1)."""
    xg, wg = np.polynomial.legendre.leggauss(n)
    return 0.5*(xg + 1.0), 0.5*wg
