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
    Each factor (c - z) is written as (z - c)*e^{-i pi} so that points on
    the real axis (which numpy gives imaginary part +0.0) take the branch
    that is the limit from the upper half-plane; the loose e^{-i pi} factors
    combine into the single +i pi/2 term below.
    """
    delta = np.asarray(delta, dtype=complex)
    b, x, y = p.b, p.x, p.y
    z = v + delta

    def dif(c):
        return (v - c) + delta

    h = 0.5*(np.log(z + b) - np.log(dif(b)) + np.log(dif(x)) - np.log(z + x)
             + np.log(z + y) - np.log(dif(y)) + 1j*np.pi)
    return np.exp(h)


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
