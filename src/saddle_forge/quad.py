"""Quadrature engine: the tanh-sinh double-exponential rule for
endpoint-singular and semi-infinite integrals, and Gauss-Legendre rules.

Integrands are called as ``f(x, d_lo, d_hi)`` with the distances to the
endpoints, ``d_lo = x - lo`` and ``d_hi = hi - x`` (inf on a semi-infinite
range), computed without cancellation.  Integrands with
inverse-square-root endpoint behaviour use these to form radicands
accurately.

A semi-infinite range (lo, inf) is mapped onto (0, 1) by
x = lo + scale*u/(1 - u).  Tanh-sinh hands over both distances of u, u and
1 - u, without cancellation, so x - lo and dx/du = scale/(1 - u)^2, formed
from them, have none either.  The map sends the node t to
x - lo = scale*e^(pi sinh t): on (lo, inf) the rule is an exp-sinh ladder
(Takahasi and Mori 1974; Mori and Sugihara 2001).

The rule halves the step from h = 1 level by level.  Every node of levels
0.._MIN_LEVELS lies on the level-_MIN_LEVELS grid, so the integrand is
called once on all 289 of them and once per level after that.  The node
tables (abscissae and weights before the interval is applied) do not
depend on the integrand: they are built on first use and kept read-only,
as are the nodes on the last few intervals used (every semi-infinite
range is the same (0, 1)).
Each level's sum is taken over that level's nodes in ascending order, so
values, error estimates and the abscissae the integrand sees are bit for
bit those of one call per level.

An integrand may return a (k, n) stack of k integrands on the n nodes, say
a value and its derivatives in parameters under the integral sign.  Each
row is summed as a one-row call would sum it, the rule refines until every
row has converged, and value and error estimate come back as (k,) arrays.
"""
from __future__ import annotations

from functools import cache, lru_cache
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


@cache
def _tanh_sinh(level):
    """The read-only node table of one level, or (key None) of levels
    0.._MIN_LEVELS, laid out level by level, each level in ascending t:
    (tanh q < 0, weight, e^q, e^-q, cosh q) with q = (pi/2) sinh t,
    followed by the level bounds, a tuple of ints.  Level 0 has the nodes
    t = k for |k| <= 4; level L >= 1 the odd k with |k h| <= 4.5, h = 2^-L.
    |t| <= 4.5 keeps |q| below 71, so every weight is finite."""
    parts = []
    for L in range(_MIN_LEVELS + 1) if level is None else [level]:
        # each level's table on its own, so it matches a per-level pass
        h = 0.5**L
        kmax = int(np.ceil(4.5/h))
        ks = np.arange(-kmax, kmax + 1)
        t = np.arange(-4.0, 5.0) if L == 0 else ks[ks % 2 != 0]*h
        q = 0.5*np.pi*np.sinh(t)
        cq = np.cosh(q)
        wk = 0.5*np.pi*np.cosh(t)/cq**2
        parts.append((np.tanh(q) < 0, wk, np.exp(q), np.exp(-q), cq))
    tab = tuple(map(np.concatenate, zip(*parts)))
    for arr in tab:
        arr.flags.writeable = False
    return tab + (tuple(accumulate((len(p[0]) for p in parts), initial=0)),)


@lru_cache(maxsize=8)
def _nodes(level, lo, hi):
    """The read-only abscissae, endpoint distances d_lo and d_hi, weights
    and level bounds of _tanh_sinh(level) on (lo, hi), without the nodes
    whose distance to an endpoint underflows to 0."""
    neg, wk, eq, emq, cq, bounds = _tanh_sinh(level)
    half = 0.5*(hi - lo)
    # 1 +- tanh(q) without cancellation
    dlo = half*eq/cq
    dhi = half*emq/cq
    # build abscissae from the endpoint distances so that xs never rounds
    # onto lo or hi even for extreme nodes
    xs = np.where(neg, lo + dlo, hi - dhi)
    ok = (dlo > 0) & (dhi > 0)
    if not ok.all():
        xs, dlo, dhi, wk = xs[ok], dlo[ok], dhi[ok], wk[ok]
        bounds = tuple(np.concatenate(([0], np.cumsum(ok)))[list(bounds)])
    for arr in (xs, dlo, dhi, wk):
        arr.flags.writeable = False
    return xs, dlo, dhi, wk, bounds


def integrate_singular(f, lo: float, hi: float):
    """Integrate f on (lo, hi) allowing integrable endpoint singularities.

    Uses the tanh-sinh double-exponential substitution, refined by
    halving the step; returns (value, err_estimate), each of f's leading
    shape: scalars for one integrand, (k,) for a (k, n) stack.  A stack's
    NoConvergence carries its first row's value and residual.
    """
    half = 0.5*(hi - lo)

    def level_sums(level):
        xs, dlo, dhi, wk, bounds = _nodes(level, lo, hi)
        fw = np.asarray(f(xs, dlo, dhi))*wk
        sums = np.empty((len(bounds) - 1,) + fw.shape[:-1])
        for k, (i, j) in enumerate(zip(bounds[:-1], bounds[1:])):
            # np.sum's pairwise add.reduce over a level's share of each row
            np.add.reduce(fw[..., i:j], axis=-1, out=sums[k, ...])
        return half*sums

    # The value at level L is val = val/2 + h*s, h = 2^-L and s the level's
    # sum.  Halving is exact (barring subnormals), so val is h times the
    # running sum of the s, rounded as the recurrence rounds; cumsum adds
    # in level order.
    total = np.cumsum(level_sums(None), axis=0)
    val = 2.0**(1 - _MIN_LEVELS)*total[-2]
    total = total[-1]
    for level in range(_MIN_LEVELS, _MAX_LEVELS + 1):
        if level > _MIN_LEVELS:
            total = total + level_sums(level)[0]
        new = 2.0**-level*total
        delta = abs(new - val)
        val = new
        if (delta <= np.maximum(_ABS_TOL, _REL_TOL*abs(val))).all():
            return val, delta
    raise NoConvergence("double-exponential refinement did not converge",
                        best=float(np.ravel(val)[0]),
                        residual=float(np.ravel(delta)[0]))


def integrate_to_infinity(f, lo: float, scale: float = 1.0):
    """Integrate f on (lo, inf); f must decay at least like t^-2.

    The tanh-sinh rule on (0, 1) under x = lo + scale*u/(1 - u).  The
    distance to the finite endpoint, scale*u/(1 - u), is a ratio of the
    two exact endpoint distances of u, so it is passed without
    cancellation and an inverse-square-root singularity at lo is handled
    without special casing.
    """

    def mapped(u, du_lo, du_hi):
        d = scale*du_lo/du_hi
        dx_du = scale/du_hi**2
        return np.asarray(f(lo + d, d, np.full_like(d, np.inf)))*dx_du

    return integrate_singular(mapped, 0.0, 1.0)


def gauss_legendre_01(n: int):
    """Gauss-Legendre nodes/weights on (0, 1)."""
    xg, wg = np.polynomial.legendre.leggauss(n)
    return 0.5*(xg + 1.0), 0.5*wg
