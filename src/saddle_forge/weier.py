"""Weierstrass data on the genus-two curve.

The curve is w^2 = ((b+z)/(b-z)) * ((x-z)/(x+z)) * ((y+z)/(y-z)), a double
cover of the sphere branched over the six real points +-x, +-y, +-b.  All
evaluation happens on one fixed branch of w, continuous on the closed upper
half z-plane, anchored by

    w(0) = +1  and, by continuation along the imaginary axis,  w(i*inf) = +i.

This anchor makes the Gauss map satisfy g = 1 at the top of the imaginary
axis and puts the pole of g (vertical normal) at z = 0; the boundary
behaviour of (g, dh) on the seven boundary stretches of the first quadrant
then reproduces the expected symmetry table (see verify.check_symmetry_table).

Boundary stretch names used throughout (z real unless noted):
    AL: z = it, t in (0, inf)      LF: (0, x)      FE: (x, a)
    ED: (a, 1)                     DC: (1, y)      CB: (y, b)
    BA: (b, inf)
The points a and 1 are punctures (Scherk ends); x, y, b are branch points.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (DegeneratePoint, GaussMapPole, PathThroughBranchPoint,
                     PoleAtEnd)
from .params import SurfaceParams, SymFuncs


@dataclass(frozen=True)
class CurvePoint:
    z: complex
    w: complex


@dataclass(frozen=True)
class WeierstrassValue:
    g: complex
    phi1: complex
    phi2: complex
    phi3: complex


def curve_rhs(p: SurfaceParams, z):
    """Right-hand side of the curve equation (the value of w^2)."""
    z = np.asarray(z, dtype=complex)
    return ((p.b + z)/(p.b - z))*((p.x - z)/(p.x + z))*((p.y + z)/(p.y - z))


def w_closed(p: SurfaceParams, z):
    """The anchored branch of w, continuous on the closed upper half-plane.

    Each factor (c - z) is written as (z - c)*e^{-i pi} so that points on
    the real axis (which numpy gives imaginary part +0.0) take the branch
    that is the limit from the upper half-plane; the loose e^{-i pi} factors
    combine into the single +i pi/2 term below.
    """
    z = np.asarray(z, dtype=complex)
    b, x, y = p.b, p.x, p.y
    h = 0.5*(np.log(z + b) - np.log(z - b) + np.log(z - x) - np.log(z + x)
             + np.log(z + y) - np.log(z - y) + 1j*np.pi)
    return np.exp(h)


def w_closed_delta(p: SurfaceParams, v: float, delta):
    """w at z = v + delta with the difference supplied exactly.

    Needed by quadrature paths that approach a real anchor v (branch point
    or puncture) far below the floating-point scale of v itself.
    """
    delta = np.asarray(delta, dtype=complex)
    b, x, y = p.b, p.x, p.y
    z = v + delta

    def dif(c):
        return (v - c) + delta

    h = 0.5*(np.log(z + b) - np.log(dif(b)) + np.log(dif(x)) - np.log(z + x)
             + np.log(z + y) - np.log(dif(y)) + 1j*np.pi)
    return np.exp(h)


# a continuation path keeps this share of the least gap between branch
# points away from each of them
_PATH_CLEARANCE = 1e-6
# pole and degeneracy thresholds: |u - 1| relative to max(1, |u|) at a pole
# of g, the distance of z from an end puncture, and of g from +-i
_G_POLE_TOL = 1e-13
_END_TOL = 1e-12
_G_I_TOL = 1e-12


def w_eval(p: SurfaceParams, z: complex, path=None) -> complex:
    """Branch of w at z by explicit continuation along a polyline from 0.

    Independent of w_closed (square roots of the curve equation with sign
    tracked step by step); the two must agree wherever the polyline stays in
    the closed upper half-plane.  Default path: straight segment 0 -> z.
    """
    if path is None:
        path = [0.0, z]
    bp = np.array([p.x, -p.x, p.y, -p.y, p.b, -p.b])     # branch points
    clearance = _PATH_CLEARANCE*np.min(np.diff(np.sort(bp)))
    w = 1.0 + 0.0j  # anchor w(0) = +1
    zc = 0.0 + 0.0j
    if path[0] != 0:
        raise PathThroughBranchPoint("path must start at z = 0")
    for target in path[1:]:
        seg = complex(target) - zc
        n = 1
        done = False
        while not done:
            ok = True
            wt, zt = w, zc
            for k in range(1, n + 1):
                znew = zc + seg*(k/n)
                if np.min(np.abs(znew - bp)) < clearance:
                    raise PathThroughBranchPoint(
                        f"path point {znew} within clearance {clearance} of a branch point")
                root = np.sqrt(curve_rhs(p, znew))
                cand = root if abs(root - wt) <= abs(-root - wt) else -root
                if abs(cand - wt) > 0.1*max(abs(wt), 1e-300):
                    ok = False
                    break
                wt, zt = cand, znew
            if ok:
                w, zc = wt, zt
                done = True
            else:
                n *= 2
                if n > 1 << 22:
                    raise PathThroughBranchPoint(
                        "continuation step size underflow (path too close to a branch point)")
    return complex(w)


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


def g_eval(p: SurfaceParams, cp: CurvePoint) -> complex:
    """Gauss map from the divisor relation w (g+i)/(g-i) = (X+z)/(X-z).

    With u = (X+z)/(w (X-z)) this gives g = i (1+u)/(u-1); never computed
    by square roots, so there is no extra branch ambiguity.
    """
    u = (p.X + cp.z)/(cp.w*(p.X - cp.z))
    if abs(u - 1.0) <= _G_POLE_TOL*max(1.0, abs(u)):
        raise GaussMapPole(f"g has a pole at z = {cp.z} (vertical normal)")
    return 1j*(1 + u)/(u - 1)


def _EB(p: SurfaceParams, z, w):
    P = (z*z - 1.0)*(z*z - p.a*p.a)
    E = -w*(p.X - z)**2/(2.0*P)
    B = -(p.X + z)**2/(2.0*w*P)
    return E, B


def dh_eval(p: SurfaceParams, cp: CurvePoint) -> complex:
    """Density of the height differential dh against dz."""
    z = cp.z
    for pole in (1.0, -1.0, p.a, -p.a):
        if abs(z - pole) < _END_TOL:
            raise PoleAtEnd(f"dh has a pole at z = {pole} (Scherk end)")
    E, B = _EB(p, z, cp.w)
    return complex(E - B)


def phi_eval(p: SurfaceParams, cp: CurvePoint) -> WeierstrassValue:
    """All Weierstrass data at a curve point.

    (phi1, phi2, phi3) = 1/2 (1/g - g, i/g + i g, 2) dh, evaluated through
    closed forms in (z, w) so that zeros and poles of g cancel explicitly.
    """
    z = cp.z
    E, B = _EB(p, z, cp.w)
    phi1 = 1j*(E + B)
    phi2 = -(p.X*p.X - z*z)/((z*z - 1.0)*(z*z - p.a*p.a))
    phi3 = E - B
    try:
        g = g_eval(p, cp)
    except GaussMapPole:
        g = complex(np.inf)
    return WeierstrassValue(g=complex(g), phi1=complex(phi1),
                            phi2=complex(phi2), phi3=complex(phi3))


def rotated_data(p: SurfaceParams, cp: CurvePoint):
    """Rotated Weierstrass pair (G, dH) with the closed-form cross-check.

    G = -i (g+i)/(g-i); dH is computed both from the data, (i/2)(1/g + g) dh,
    and from the closed form (X^2-z^2)/((z^2-1)(a^2-z^2)).  Their agreement
    is a correctness test of g and dh jointly.  (Relative to the form usually
    quoted, the closed form carries an overall minus sign; the convention
    here is fixed by the identity dH = phi2.)
    """
    g = g_eval(p, cp)
    if min(abs(g - 1j), abs(g + 1j)) < _G_I_TOL:
        raise DegeneratePoint(f"g = +-i at z = {cp.z}")
    G = -1j*(g + 1j)/(g - 1j)
    dh = dh_eval(p, cp)
    dH_data = 0.5j*(1.0/g + g)*dh
    z = cp.z
    dH_closed = (p.X*p.X - z*z)/((z*z - 1.0)*(p.a*p.a - z*z))
    return complex(G), complex(dH_data), complex(dH_closed)


def phi_vec(p: SurfaceParams, z):
    """Vectorized (phi1, phi2, phi3) densities, last axis of length 3."""
    z = np.asarray(z, dtype=complex)
    w = w_closed(p, z)
    E, B = _EB(p, z, w)
    phi2 = -(p.X*p.X - z*z)/((z*z - 1.0)*(z*z - p.a*p.a))
    return np.stack([1j*(E + B), phi2, E - B], axis=-1)


def phi_vec_delta(p: SurfaceParams, v: float, delta):
    """phi_vec at z = v + delta with the difference supplied exactly."""
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
