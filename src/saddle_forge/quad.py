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

The rule is first taken on one grid, t = k h with h = 2^-_MIN_LEVELS and
|t| <= 4.5: the integrand is called once on its 289 nodes, and the rule
of step 2h is the sum over the even k of the same call.  After that the
step halves level by level, each level one call on the odd k of its
grid.  The node tables (abscissae and weights before the interval is
applied) do not depend on the integrand: they are built on first use and
kept read-only, as are the nodes on the last few intervals used (every
semi-infinite range is the same (0, 1)).

An integrand may return a (k, n) stack of k integrands on the n nodes, say
a value and its derivatives in parameters under the integral sign.  Each
row is summed as a one-row call would sum it, the rule refines until every
row has converged, and value and error estimate come back as (k,) arrays.
"""
from __future__ import annotations

from functools import cache, lru_cache

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
    """The read-only node table of one level, in ascending t = k h with
    h = 2^-level: (tanh q < 0, weight, e^q, e^-q, cosh q) with
    q = (pi/2) sinh t.  Level _MIN_LEVELS has every k with |t| <= 4.5, a
    later level the odd k.  |t| <= 4.5 keeps |q| below 71, so every weight
    is finite."""
    kmax = int(4.5*2**level)
    ks = np.arange(-kmax, kmax + 1)
    t = (ks if level == _MIN_LEVELS else ks[ks % 2 != 0])*0.5**level
    q = 0.5*np.pi*np.sinh(t)
    cq = np.cosh(q)
    tab = (np.tanh(q) < 0, 0.5*np.pi*np.cosh(t)/cq**2, np.exp(q), np.exp(-q),
           cq)
    for arr in tab:
        arr.flags.writeable = False
    return tab


@lru_cache(maxsize=8)
def _nodes(level, lo, hi):
    """The read-only abscissae, endpoint distances d_lo and d_hi and
    weights of _tanh_sinh(level) on (lo, hi), without the nodes whose
    distance to an endpoint underflows to 0, and the index of the first
    kept node with even k."""
    neg, wk, eq, emq, cq = _tanh_sinh(level)
    half = 0.5*(hi - lo)
    # 1 +- tanh(q) without cancellation
    dlo = half*eq/cq
    dhi = half*emq/cq
    # build abscissae from the endpoint distances so that xs never rounds
    # onto lo or hi even for extreme nodes
    xs = np.where(neg, lo + dlo, hi - dhi)
    ok = (dlo > 0) & (dhi > 0)
    # d_lo falls toward the left end and d_hi toward the right, so the kept
    # nodes are one run of k; a table starts at an even k
    even = int(ok.argmax()) % 2
    xs, dlo, dhi, wk = xs[ok], dlo[ok], dhi[ok], wk[ok]
    for arr in (xs, dlo, dhi, wk):
        arr.flags.writeable = False
    return xs, dlo, dhi, wk, even


def integrate_singular(f, lo: float, hi: float):
    """Integrate f on (lo, hi) allowing integrable endpoint singularities.

    Uses the tanh-sinh double-exponential substitution, refined by
    halving the step; returns (value, err_estimate), each of f's leading
    shape: scalars for one integrand, (k,) for a (k, n) stack.  A stack's
    NoConvergence carries its first row's value and residual.
    """
    half = 0.5*(hi - lo)

    def weighted(level):
        xs, dlo, dhi, wk, even = _nodes(level, lo, hi)
        return np.asarray(f(xs, dlo, dhi))*wk, even

    # the rule of step h = 2^-level is h times half the running sum of the
    # weighted nodes; a strided slice sums each row of a stack as one row
    fw, even = weighted(_MIN_LEVELS)
    val = 2.0**(1 - _MIN_LEVELS)*(half*np.sum(fw[..., even::2], axis=-1))
    total = half*np.sum(fw, axis=-1)
    for level in range(_MIN_LEVELS, _MAX_LEVELS + 1):
        if level > _MIN_LEVELS:
            total = total + half*np.sum(weighted(level)[0], axis=-1)
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


def _legendre_sum(x, c):
    """sum_k c[k] P_k(x) by Clenshaw's recurrence, in the order of
    operations of numpy.polynomial.legendre.legval."""
    if len(c) == 1:
        return c[0] + 0*x
    c0, c1 = c[-2], c[-1]
    for k in range(len(c) - 1, 1, -1):
        c0, c1 = c[k - 2] - c1*((k - 1)/k), c0 + c1*x*((2*k - 1)/k)
    return c0 + c1*x


def gauss_legendre_01(n: int):
    """Gauss-Legendre nodes/weights on (0, 1).

    The nodes on (-1, 1) are the eigenvalues of the symmetric Jacobi
    matrix of the Legendre recurrence, off-diagonal k/sqrt(4k^2 - 1)
    (Golub and Welsch 1969), polished by one Newton step on P_n; the
    weights are proportional to 1/(P_(n-1)(x) P_n'(x)), made symmetric and
    scaled to sum to 2.  The steps and their order of operations are those
    of numpy.polynomial.legendre.leggauss, so the rule is its rule, without
    the import of numpy.polynomial.
    """
    k = np.arange(n)
    scl = 1.0/np.sqrt(2*k + 1)
    off = k[1:]*scl[:-1]*scl[1:]
    x = np.linalg.eigvalsh(np.diag(off, 1) + np.diag(off, -1))
    pn = np.zeros(n + 1)
    pn[n] = 1.0
    # P_n' = sum of (2k + 1) P_k over k = n - 1, n - 3, ...
    dpn = np.where((n - 1 - k) % 2 == 0, 2.0*k + 1, 0.0)
    df = _legendre_sum(x, dpn)
    x = x - _legendre_sum(x, pn)/df
    fm = _legendre_sum(x, pn[1:])
    w = 1/((fm/np.abs(fm).max())*(df/np.abs(df).max()))
    w = (w + w[::-1])/2
    x = (x - x[::-1])/2
    w *= 2./w.sum()
    return 0.5*(x + 1.0), 0.5*w
