"""Quadrature: the exp-sinh double-exponential rule on (lo, inf), and
Gauss-Legendre rules.

exp-sinh (Takahasi and Mori 1974; Mori and Sugihara 2001) is the
trapezoid rule in t under x = lo + scale*e^(pi sinh t).  Integrands are
called as ``f(x, d)`` with d = x - lo = scale*e^(pi sinh t) formed
directly, so that one with inverse-square-root behaviour at lo forms its
radicand without cancellation.

The first integrand call takes one grid, t = k h with h = 2^-_MIN_LEVELS
and |t| <= 4.5 (so e^(pi sinh t) lies within 1e+-62), 289 nodes whose
even k give the rule of step 2h.  Each later level halves the step with
one call on the odd k of its grid.  The node tables do not depend on the
integrand or the range; they are built on first use and kept read-only.

An integrand may return a (k, n) stack, say a value and its derivatives
in parameters under the integral sign: each row sums as a one-row call
would sum it, the rule refines until every row has converged, and value
and error estimate come back as (k,) arrays.
"""
from __future__ import annotations

from functools import cache

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
def _exp_sinh(level):
    """The read-only node table of one level, in ascending t = k h with
    h = 2^-level: (e^(pi sinh t), pi cosh(t) e^(pi sinh t)).  Level
    _MIN_LEVELS has every k with |t| <= 4.5, a later level the odd k."""
    kmax = int(4.5*2**level)
    ks = np.arange(-kmax, kmax + 1)
    t = (ks if level == _MIN_LEVELS else ks[ks % 2 != 0])*0.5**level
    e = np.exp(np.pi*np.sinh(t))
    tab = (e, np.pi*np.cosh(t)*e)
    for arr in tab:
        arr.flags.writeable = False
    return tab


def integrate_to_infinity(f, lo: float, scale: float = 1.0):
    """Integrate f(x, d) on (lo, inf), f decaying at least like x^-2, on
    nodes at fixed (x - lo)/scale.  Returns (value, err_estimate), each of
    f's leading shape: scalars for one integrand, (k,) for a (k, n) stack.
    A stack's NoConvergence carries its first row's value and residual."""

    def weighted(level):
        e, w = _exp_sinh(level)
        d = scale*e
        return np.asarray(f(lo + d, d))*(scale*w)

    # the rule of step h = 2^-level is h times the running sum of the
    # weighted nodes; the first grid starts at an even k
    fw = weighted(_MIN_LEVELS)
    val = 2.0**(1 - _MIN_LEVELS)*np.sum(fw[..., ::2], axis=-1)
    total = np.sum(fw, axis=-1)
    for level in range(_MIN_LEVELS, _MAX_LEVELS + 1):
        if level > _MIN_LEVELS:
            total = total + np.sum(weighted(level), axis=-1)
        new = 2.0**-level*total
        delta = abs(new - val)
        val = new
        if (delta <= np.maximum(_ABS_TOL, _REL_TOL*abs(val))).all():
            return val, delta
    raise NoConvergence("double-exponential refinement did not converge",
                        best=float(np.ravel(val)[0]),
                        residual=float(np.ravel(delta)[0]))


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
