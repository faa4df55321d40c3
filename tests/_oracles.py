"""Independent oracles used by the test suite.

Everything here deliberately avoids the code paths under test: the elliptic
oracle uses the arithmetic-geometric mean, the residue oracle continues the
curve branch step by step around an explicit circle, and the improper
integral oracles use scipy's adaptive quadrature with explicit substitutions
that remove the endpoint singularities.
"""
from __future__ import annotations

import numpy as np
from scipy.integrate import quad as scipy_quad

from saddle_forge.params import SurfaceParams, sym_funcs
from saddle_forge.weier import w_eval


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
        rhs = ((p.b + z)/(p.b - z))*((p.x - z)/(p.x + z))*((p.y + z)/(p.y - z))
        root = np.sqrt(rhs)
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
