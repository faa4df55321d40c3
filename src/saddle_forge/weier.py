"""Weierstrass data on the genus-two curve, evaluated as arrays.

The curve is w^2 = ((b+z)/(b-z)) * ((x-z)/(x+z)) * ((y+z)/(y-z)), a double
cover of the sphere branched over the six real points +-x, +-y, +-b.  All
evaluation happens on one fixed branch of w, continuous on the closed upper
half z-plane, anchored by

    w(0) = +1  and, by continuation along the imaginary axis,  w(i*inf) = +i.

This anchor makes the Gauss map satisfy g = 1 at the top of the imaginary
axis and puts the pole of g (vertical normal) at z = 0; the boundary
behaviour of (g, dh) on the seven boundary stretches of the first quadrant
then reproduces the expected symmetry table (see verify.check_symmetry_table).

The branch is taken from three square roots, of the ratios (z - x)/(z + x),
(z + b)/(z - b) and (z + y)/(z - y).  On the closed upper half-plane the
argument of each ratio keeps one sign, so each root is the principal root
of Re r + i|Im r| or its conjugate; the forced +|Im r| puts a point on the
real axis on its upper side whatever the sign of a zero imaginary part.

This module is the one place the data is written out, each formula once:
the branch w in w_closed_delta, the Gauss map g in g_eval and the form
triple (phi1, phi2, phi3) = 1/2 (1/g - g, i/g + i g, 2) dh in
phi_vec_delta.  Each takes z as v + delta with the offset from a real
anchor v supplied exactly; w_closed and phi_vec are the case v = 0, and
dh is phi3.

Boundary stretch names used throughout (z real unless noted):
    AL: z = it, t in (0, inf)      LF: (0, x)      FE: (x, a)
    ED: (a, 1)                     DC: (1, y)      CB: (y, b)
    BA: (b, inf)
The points a and 1 are punctures (Scherk ends); x, y, b are branch points.
"""
from __future__ import annotations

import numpy as np

from .params import SurfaceParams, SymFuncs


def w_closed_delta(p: SurfaceParams, v: float, delta):
    """The anchored branch of w at z = v + delta, continuous on the closed
    upper half-plane, with the difference from the real anchor v supplied
    exactly.

    The exact difference serves quadrature paths that approach a branch
    point or puncture v far below the floating-point scale of v itself.
    The branch is w = i sqrt(r_x) sqrt(r_b) sqrt(r_y) with the ratios

        r_x = (z - x)/(z + x),  r_b = (z + b)/(z - b),  r_y = (z + y)/(z - y),

    each root the limit from the upper half-plane.  For Im z >= 0 and c > 0,
    arg(z - c) >= arg(z + c), both in [0, pi]; so arg r_x lies in [0, pi]
    and arg r_b, arg r_y in [-pi, 0].  The root of r_x is then the principal
    root of Re r_x + i|Im r_x| (_upper_sqrt), and those of r_b and r_y are
    the conjugates of theirs.  Where a ratio is real and negative (z on the
    real axis between the points), the division may leave either sign on
    its zero imaginary part; forcing +|Im r| takes the upper side whatever
    that sign (Kahan, "Branch Cuts for Complex Elementary Functions", 1987).
    At z = 0 every ratio is -1 and w = i * i * conj(i * i) = +1.
    """
    delta = np.asarray(delta, dtype=complex)
    b, x, y = p.b, p.x, p.y
    z = v + delta

    def dif(c):
        return (v - c) + delta

    # products out of place: numpy rounds an in-place complex product of
    # one-element arrays differently, and an edge's bits would depend on
    # how many edges share its call
    return 1j*_upper_sqrt(dif(x)/(z + x))*np.conjugate(
        _upper_sqrt((z + b)/dif(b))*_upper_sqrt((z + y)/dif(y)))


def _upper_sqrt(r):
    """Square root of r on the upper side of the cut, sqrt(Re r + i|Im r|),
    with arg in [0, pi/2]; overwrites r if it is an array."""
    r = np.asarray(r)
    np.abs(r.imag, out=r.imag)
    return np.sqrt(r, out=r)


def w_closed(p: SurfaceParams, z):
    """The anchored branch of w at z (w_closed_delta with v = 0)."""
    return w_closed_delta(p, 0.0, z)


def vertical_normal_points(s: SymFuncs):
    """Roots of z^4 + S2 z^2 + S4 (interior vertical-normal candidates).

    Returns (roots, conjugate_quadruple_flag); the flag is true iff
    S2^2 < 4 S4, i.e. the roots form +-alpha, +-conj(alpha) off the axes.
    """
    disc = s.S2*s.S2 - 4.0*s.S4
    u = (-s.S2 + np.sqrt(complex(disc)))/2.0, (-s.S2 - np.sqrt(complex(disc)))/2.0
    roots = []
    for uu in u:
        r = np.sqrt(complex(uu))
        roots.extend([r, -r])
    return np.array(roots), bool(disc < 0)


def g_eval(p: SurfaceParams, z, w):
    """Gauss map at the curve points (z, w), infinite at its poles.

    From the divisor relation w (g+i)/(g-i) = (X+z)/(X-z): with
    u = (X+z)/(w (X-z)) this gives g = i (1+u)/(u-1); never computed by
    square roots, so there is no extra branch ambiguity.
    """
    z = np.asarray(z, dtype=complex)
    u = (p.X + z)/(w*(p.X - z))
    with np.errstate(divide="ignore", invalid="ignore"):
        g = 1j*(1 + u)/(u - 1)
    return np.where(u == 1.0, complex(np.inf), g)


def phi_vec_delta(p: SurfaceParams, v: float, delta):
    """Densities (phi1, phi2, phi3) against dz at z = v + delta, the
    difference from the real anchor v supplied exactly; last axis of
    length 3.

    Closed forms in (z, w), so that zeros and poles of g cancel explicitly;
    phi3 is the height differential dh.
    """
    delta = np.asarray(delta, dtype=complex)
    z = v + delta
    w = w_closed_delta(p, v, delta)

    def dif(c):
        return (v - c) + delta

    P = dif(1.0)*(z + 1.0)*dif(p.a)*(z + p.a)
    E = -w*(p.X - z)**2/(2.0*P)
    B = -(p.X + z)**2/(2.0*w*P)
    phi2 = -(p.X*p.X - z*z)/P
    return np.stack([1j*(E + B), phi2, E - B], axis=-1)


def phi_vec(p: SurfaceParams, z):
    """(phi1, phi2, phi3) at z (phi_vec_delta with v = 0)."""
    return phi_vec_delta(p, 0.0, z)
