"""Independent oracles used by the test suite.

Everything here deliberately avoids the code paths under test: the elliptic
oracle uses the arithmetic-geometric mean, w_eval and the residue oracle
continue the curve branch step by step (along a polyline, around an
explicit circle), and the improper integral oracles use scipy's adaptive
quadrature with explicit substitutions that remove the endpoint
singularities.  curve_rhs, rotated_data and quartic_identity_residual write
out identities the library's data must satisfy.
"""
from __future__ import annotations

import numpy as np
from scipy.integrate import quad as scipy_quad

from saddle_forge.params import SurfaceParams, SymFuncs, sym_funcs
from saddle_forge.weier import g_eval, phi_vec, w_closed


class PathThroughBranchPoint(Exception):
    """A continuation path passed within the clearance of a branch point of
    the curve."""


def curve_rhs(p: SurfaceParams, z):
    """Right-hand side of the curve equation (the value of w^2)."""
    z = np.asarray(z, dtype=complex)
    return ((p.b + z)/(p.b - z))*((p.x - z)/(p.x + z))*((p.y + z)/(p.y - z))


# a continuation path keeps this share of the least gap between branch
# points away from each of them
_PATH_CLEARANCE = 1e-6


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


def rotated_data(p: SurfaceParams, z):
    """Rotated Weierstrass pair (G, dH) with the closed-form cross-check.

    G = -i (g+i)/(g-i); dH is computed both from the data, (i/2)(1/g + g) dh,
    and from the closed form -(X^2-z^2)/((z^2-1)(z^2-a^2)), which is phi2.
    Their agreement is a correctness test of g and dh jointly.  G is 0
    where g = -i and not finite where g = i or g has a pole.
    """
    phi = phi_vec(p, z)
    g = g_eval(p, z, w_closed(p, z))
    with np.errstate(divide="ignore", invalid="ignore"):
        G = -1j*(g + 1j)/(g - 1j)
        dH_data = 0.5j*(1.0/g + g)*phi[..., 2]
    return G, dH_data, phi[..., 1]


def quartic_identity_residual(p: SurfaceParams, s: SymFuncs, z: complex) -> float:
    """Relative residual of the defining polynomial identity

        (z-b)(z+x)(z-y)(z+X)^2 + (z+b)(z-x)(z+y)(z-X)^2 = 2z(z^4 + S2 z^2 + S4).
    """
    b, x, X, y = p.b, p.x, p.X, p.y
    lhs = ((z - b)*(z + x)*(z - y)*(z + X)**2
           + (z + b)*(z - x)*(z + y)*(z - X)**2)
    rhs = 2*z*(z**4 + s.S2*z**2 + s.S4)
    scale = max(abs(lhs), abs(rhs), 1.0)
    return abs(lhs - rhs)/scale


def agm(a0: float, b0: float) -> float:
    for _ in range(60):
        a0, b0 = 0.5*(a0 + b0), np.sqrt(a0*b0)
    return a0


def elliptic_oracle(y: float, b: float) -> float:
    """Closed form of the complete elliptic integral
    int_y^b dt / sqrt((b^2-t^2)(t^2-y^2)) via the AGM."""
    return np.pi/(2.0*b*agm(1.0, y/b))


def residue_contour_oracle(p: SurfaceParams, center: float,
                           n: int = 1024) -> complex:
    """Contour integral of dh around an end puncture by explicit stepwise
    branch continuation of w along the circle.

    The circle radius is chosen inside (x, y) so no branch point is crossed;
    the start value of w comes from polyline continuation from z = 0 routed
    over the branch points on the real axis.  The density of dh in (z, w) is
    written out here, not taken from the module under test.
    """
    radius = 0.4*min(center - p.x, p.y - center, abs(center - p.a) or np.inf,
                     abs(center - 1.0) or np.inf)
    z0 = center + radius
    h = 0.5*(p.x + p.a)  # route above the real axis, clear of branch points
    w = w_eval(p, z0, path=[0.0, 1j*h, z0 + 1j*h, z0])
    theta = 2.0*np.pi*np.arange(n + 1)/n
    zs = center + radius*np.exp(1j*theta)
    vals = np.empty(n + 1, complex)
    for k, z in enumerate(zs):
        root = np.sqrt(curve_rhs(p, z))
        w = root if abs(root - w) <= abs(-root - w) else -root
        P = (z*z - 1.0)*(z*z - p.a*p.a)
        vals[k] = ((p.X + z)**2/w - w*(p.X - z)**2)/(2.0*P)
    # trapezoid on the circle (first/last node coincide)
    e = np.exp(1j*theta[:-1])
    return (2j*np.pi*radius/n)*np.sum(vals[:-1]*e)


def scipy_I_oracle(p: SurfaceParams) -> float:
    """Eq.-independent value of the outer horizontal period integral:
    substitution t = b + s^2 near the endpoint plus a plain tail."""
    s = sym_funcs(p)
    a, b, x, y = p.a, p.b, p.x, p.y

    def f(t):
        rad = (t*t - b*b)*(t*t - x*x)*(t*t - y*y)
        return ((s.S1*t**4 + s.S3*t*t + s.S5)
                / ((t*t - 1.0)*(t*t - a*a)*np.sqrt(rad)))

    def f_sub(u):  # t = b + u^2
        t = b + u*u
        return f(t)*2.0*u

    v1, _ = scipy_quad(f_sub, 0.0, 1.0, epsabs=1e-13, epsrel=1e-12, limit=200)
    v2, _ = scipy_quad(f, b + 1.0, np.inf, epsabs=1e-13, epsrel=1e-12, limit=200)
    return v1 + v2


def scipy_J_oracle(p: SurfaceParams) -> float:
    s = sym_funcs(p)
    a, b, x, X, y = p.a, p.b, p.x, p.X, p.y

    def f(t):
        psi = (2*np.arctan(t/X) - np.arctan(t/b)
               + np.arctan(t/x) - np.arctan(t/y))
        gm = 2.0/np.tan(psi)
        rad = (t*t + b*b)*(t*t + x*x)*(t*t + y*y)
        return (0.5*t*(t**4 - s.S2*t*t + s.S4)*gm
                / ((t*t + 1.0)*(t*t + a*a)*np.sqrt(rad)))

    v, _ = scipy_quad(f, 0.0, np.inf, epsabs=1e-13, epsrel=1e-12, limit=400)
    return v


def scipy_K_oracle(p: SurfaceParams) -> float:
    """Substitution t = y + (b-y) sin^2(theta) removes both inverse-sqrt
    endpoints at once."""
    s = sym_funcs(p)
    a, b, x, y = p.a, p.b, p.x, p.y
    span = b - y

    def f(theta):
        sn, cs = np.sin(theta), np.cos(theta)
        t = y + span*sn*sn
        # radicand factors: (t-y) = span sn^2, (b-t) = span cs^2
        rad_rest = (b + t)*(t*t - x*x)*(t + y)
        val = ((t**4 + s.S2*t*t + s.S4)/((1.0 - t*t)*(a*a - t*t))
               * t/np.sqrt(rad_rest))
        # dt = 2 span sn cs dtheta; 1/sqrt((t-y)(b-t)) = 1/(span sn cs)
        return val*2.0
    v, _ = scipy_quad(f, 0.0, np.pi/2, epsabs=1e-13, epsrel=1e-12, limit=200)
    return v
