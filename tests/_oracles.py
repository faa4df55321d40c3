"""Independent oracles used by the test suite.

Everything here deliberately avoids the code paths under test: the elliptic
oracle uses the arithmetic-geometric mean, the mpmath oracles take the
flux integral K and Bulirsch's cel in Legendre's form from mpmath's
complete integrals at 40 digits, w_eval and the residue oracle
continue the curve branch step by step (along a polyline, around an
explicit circle), and the improper integral oracles use scipy's adaptive
quadrature with explicit substitutions that remove the endpoint
singularities.  curve_rhs, rotated_data and quartic_identity_residual write
out identities the library's data must satisfy.  de_to_infinity_oracle is
the exp-sinh rule with every node recomputed from its t: one integrand
call on the first grid, whose even nodes give the rule of twice the step,
then one call per halving; the library must reproduce it bit for bit.
central_jacobian_oracle differences the period residuals, where
period_report_for differentiates under the integral sign, and
fd_newton_oracle is the period solve on a forward-difference Jacobian.
collision_pairs_oracle finds every pair of close vertices, where the
injectivity check samples pairs.  Seven oracles keep an earlier form of
library code that the library now writes more cheaply, to pin that the
values did not move: w_six_log_oracle takes the branch of w from six
logarithms, solve_y_two_call_oracle takes F and its slope from two calls
per Newton step, warm_start_sweep_oracle starts each member of a family
sweep from the last converged member, grid_nodes_oracle lays the grid's
columns row by row, assemble_oracle places the tower's vertices and
faces by fancy indexing, after welding by connected components,
shares_vertex_oracle compares the corner ids of face pairs in one
broadcast table, and tri_tri_intersect_oracle runs the narrow phase on
rows gathered by fancy indexing.
"""
from __future__ import annotations

import itertools

import mpmath
import numpy as np
from scipy.integrate import quad as scipy_quad
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components

from saddle_forge import mesh, periods, quad, verify
from saddle_forge.errors import DomainViolation, NoConvergence, NoRoot
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


def w_six_log_oracle(p: SurfaceParams, v: float, delta):
    """The anchored branch of w at z = v + delta as half the sum of six
    logarithms.  Each factor (c - z) is written as (z - c)*e^{-i pi} so that
    points on the real axis with imaginary part +0.0 take the limit from
    the upper half-plane; the loose e^{-i pi} factors combine into the
    single +i pi/2 term."""
    delta = np.asarray(delta, dtype=complex)
    b, x, y = p.b, p.x, p.y
    z = v + delta

    def dif(c):
        return (v - c) + delta

    h = 0.5*(np.log(z + b) - np.log(dif(b)) + np.log(dif(x)) - np.log(z + x)
             + np.log(z + y) - np.log(dif(y)) + 1j*np.pi)
    return np.exp(h)


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


def mpmath_cel_oracle(kc, p, c, s, dps=40):
    """Bulirsch's cel(kc, p, c, s) for p > 0 in Legendre's form: with
    m = 1 - kc^2 and n = 1 - p, c cos^2 + s sin^2 = c (cos^2 + p sin^2)
    + (s - c p) sin^2 and sin^2/(1 - n sin^2) = (1/(1 - n sin^2) - 1)/n
    give c K(m) + (s - c p)(Pi(n, m) - K(m))/n, taken by mpmath at dps
    digits from the exact values of the doubles."""
    with mpmath.workdps(dps):
        kc, p, c, s = map(mpmath.mpf, (kc, p, c, s))
        m, n = 1 - kc*kc, 1 - p
        K = mpmath.ellipk(m)
        return float(c*K + (s - c*p)*(mpmath.ellippi(n, m) - K)/n)


def mpmath_K_oracle(p: SurfaceParams, s: SymFuncs, dps=40) -> float:
    """The vertical flux integral K in Legendre's form, taken by mpmath at
    dps digits from the exact values of the doubles.  Under u = t^2, K is
    half the integral over (y^2, b^2) of N/((1 - u)(a^2 - u)) du over
    sqrt((b^2 - u)(u - y^2)(u - x^2)), N = u^2 + S2 u + S4, and
    N/((1 - u)(a^2 - u)) = 1 + A/((1 - a^2)(u - 1)) - B/((1 - a^2)(u - a^2))
    with A = N(1) and B = N(a^2).  On u = b^2 - (b^2 - y^2) sin^2 theta,
    u - c = (b^2 - c)(1 - n_c sin^2 theta) with n_c = (b^2 - y^2)/(b^2 - c),
    so K sqrt(b^2 - x^2) = K(m) + A Pi(n_1, m)/((1 - a^2)(b^2 - 1))
    - B Pi(n_a2, m)/((1 - a^2)(b^2 - a^2)) with m = n_{x^2}."""
    with mpmath.workdps(dps):
        a, b, x, y, S2, S4 = map(mpmath.mpf, (p.a, p.b, p.x, p.y, s.S2, s.S4))
        aa, bb, yy = a*a, b*b, y*y
        A, B = 1 + S2 + S4, aa*aa + S2*aa + S4
        m = (bb - yy)/(bb - x*x)
        K = (mpmath.ellipk(m)
             + A*mpmath.ellippi((bb - yy)/(bb - 1), m)/((1 - aa)*(bb - 1))
             - B*mpmath.ellippi((bb - yy)/(bb - aa), m)/((1 - aa)*(bb - aa)))
        return float(K/mpmath.sqrt(bb - x*x))


def de_to_infinity_oracle(f, lo: float, scale: float = 1.0):
    """The exp-sinh rule on (lo, inf), as quad.integrate_to_infinity: the
    trapezoid rule in t under x = lo + scale*e^(pi sinh t), refined by
    halving the step h until every row of a stacked integrand has
    converged, with the nodes of each level recomputed from t = k h.  The
    integrand is called once on every k with |k h| <= 4.5 at
    h = 2^-_MIN_LEVELS, whose even k give the rule of step 2h, then once
    per halving on the odd k; the tolerances and levels are read from quad
    at call time."""
    def grid(h):
        kmax = int(np.ceil(4.5/h))
        return np.arange(-kmax, kmax + 1)

    def weighted(h, ks):
        t = ks*h
        e = np.exp(np.pi*np.sinh(t))
        d = scale*e
        return np.asarray(f(lo + d, d))*(scale*(np.pi*np.cosh(t)*e))

    level = quad._MIN_LEVELS
    h = 0.5**level
    ks = grid(h)
    fw = weighted(h, ks)
    val = 2*h*np.sum(np.compress(ks % 2 == 0, fw, axis=-1), axis=-1)
    new = h*np.sum(fw, axis=-1)
    while True:
        delta = np.abs(new - val)
        val = new
        if np.all(delta <= np.maximum(quad._ABS_TOL,
                                      quad._REL_TOL*np.abs(val))):
            return val, delta
        if level == quad._MAX_LEVELS:
            raise NoConvergence(
                "double-exponential refinement did not converge",
                best=float(np.ravel(val)[0]),
                residual=float(np.ravel(delta)[0]))
        level += 1
        h *= 0.5
        ks = grid(h)
        new = 0.5*val + h*np.sum(weighted(h, ks[ks % 2 != 0]), axis=-1)


def period_residuals(t, X_offset, a, b):
    """(pi1, pi2) at (a, b) on the family, with its period report."""
    rep = periods.period_report_for(periods.resolve_params(t, X_offset, a, b))
    return np.array([rep.pi1, rep.pi2]), rep


def central_jacobian_oracle(t, X_offset, a, b, h):
    """The (a, b) Jacobian of (pi1, pi2) by central differences of step h,
    whose truncation error is (h^2/6) times a third derivative."""
    cols = []
    for e in np.eye(2):
        hi, _ = period_residuals(t, X_offset, a + h*e[0], b + h*e[1])
        lo, _ = period_residuals(t, X_offset, a - h*e[0], b - h*e[1])
        cols.append((hi - lo)/(2*h))
    return np.column_stack(cols)


def fd_newton_oracle(t, X_offset, v0, tol, h=1e-7):
    """The damped Newton of periods.solve_periods with a forward-difference
    Jacobian of step h, two extra reports per step, in place of each
    report's own Jacobian.  Returns the last iterate and its residuals."""
    v = np.array(v0, dtype=float)
    pv, _ = period_residuals(t, X_offset, *v)
    for _ in range(periods._MAX_ITER):
        if np.max(np.abs(pv)) < tol:
            break
        Jm = np.zeros((2, 2))
        for j in range(2):
            vp = v.copy()
            vp[j] += h
            Jm[:, j] = (period_residuals(t, X_offset, *vp)[0] - pv)/h
        dv = np.linalg.solve(Jm, -pv)
        lam = 1.0
        while True:
            vn = v + lam*dv
            try:
                pn, _ = period_residuals(t, X_offset, *vn)
                if np.linalg.norm(pn) < np.linalg.norm(pv) or lam <= 0.25:
                    v, pv = vn, pn
                    break
            except (DomainViolation, NoRoot):
                pass
            lam *= 0.5
            if lam < 1e-8:
                return v, pv
    return v, pv


def solve_y_two_call_oracle(a: float, b: float, x: float, X: float):
    """periods.solve_y's root with F and its complex-step slope taken from
    two F_eval calls per Newton polish step; returns (y, polish steps)."""
    roots = np.roots(periods._F_coeffs(a, b, x, X))
    yy = float(roots.real[(roots.imag == 0) & (roots.real > 1.0)
                          & (roots.real < b)].min())
    for steps in range(1, 4):
        F_y = periods.F_eval(a, b, x, X, yy + 1j*periods._H).imag/periods._H
        step = periods.F_eval(a, b, x, X, yy)/F_y
        yn = yy - step
        if not (1.0 < yn < b):
            break
        yy = yn
        if abs(step) < periods._Y_TOL*yy:
            break
    return yy, steps


def warm_start_sweep_oracle(t_grid, X_grid, tol=1e-10):
    """periods.sweep_family with each member started from the last
    converged member, or else the centre of DEFAULT_SEED_BOX."""
    rows = []
    seed = None
    for t in t_grid:
        for X_offset in X_grid:
            try:
                sol = periods.solve_periods(t, X_offset, tol=tol, seed=seed)
                seed = (sol.a, sol.b)
                rows.append((t, X_offset, sol))
            except (NoRoot, NoConvergence):
                rows.append((t, X_offset, None))
    return rows


def grid_nodes_oracle(p: SurfaceParams, resolution: int):
    """mesh.build_grid's node positions, dead nodes included, with the
    columns of each row laid out in a loop over the rows."""
    cut_1 = mesh._CUT_FRACTION*min(1.0 - p.a, p.y - 1.0)
    etaf = min(mesh.FAR_RADIUS*(0.5*resolution)**(-4.0), 0.25*cut_1)
    lam = np.log(mesh.FAR_RADIUS/etaf)
    n_eta = int(np.ceil(mesh._ETA_ROWS_PER_64*lam*resolution/mesh._REF_RES))
    s = np.arange(0, n_eta + 1)/n_eta
    eta = mesh.FAR_RADIUS*np.expm1(lam*s)/np.expm1(lam)
    intervals = mesh.stretch_intervals(p, mesh.FAR_RADIUS)
    deta = lam*np.maximum(eta, eta[1])/n_eta
    rows = []
    for i in range(len(eta)):
        xs = [0.0]
        for tag, (umap, n64) in mesh._COLUMNS.items():
            A, B = intervals[tag]
            n = int(np.ceil(n64*resolution/mesh._REF_RES))
            ss = np.arange(1, n + 1)/n
            wsoft = min(1.0, mesh._GAMMA*n*deta[i]/(B - A))
            u = (1.0 - wsoft)*umap(ss) + wsoft*ss
            xs.extend((A + (B - A)*u).tolist())
        rows.append(xs)
    return np.array(rows) + 1j*eta[:, None]


def assemble_oracle(piece, n_periods: int):
    """(vertices, faces) of mesh.assemble(piece, n_periods).

    The weld groups are the connected components of the seam pairs: copy c
    (period c // 8, bits 4, 2, 1 flipping x1, x2, x3) meets c ^ (4 >> axis)
    on a stretch through 0, and on the half-period mirror the s3 = +1 copy
    of period k meets the s3 = -1 copy of period k + up.  A tower vertex is
    placed from its group's least copy-major id, in id order, by fancy
    indexing, and the odd copies' faces are reversed through a mask."""
    n = len(piece.vertices)
    signs = np.array(list(itertools.product((1.0, -1.0), repeat=3)))
    copies = np.arange(8*n_periods)
    up = 1 if piece.levels["ED"] > 0 else -1
    ia, ib = [], []
    for tag, (axis, plane) in mesh.STRETCHES.items():
        for c in copies:
            if plane == mesh.ORIGIN:
                d = c ^ (4 >> axis)
            elif c % 2 == 0 and 0 <= c//8 + up < n_periods:
                d = c + 8*up + 1
            else:
                continue
            ia.append(c*n + piece.boundary[tag])
            ib.append(d*n + piece.boundary[tag])
    ia, ib = np.concatenate(ia), np.concatenate(ib)
    ids = np.arange(len(copies)*n)
    _, group = connected_components(
        coo_matrix((np.ones(len(ia)), (ia, ib)), shape=(len(ids), len(ids))),
        directed=False)
    least = np.full(group.max() + 1, len(ids))
    np.minimum.at(least, group, ids)
    rep, per_copy = np.unique(least[group], return_inverse=True)
    per_copy = per_copy.reshape(len(copies), n)

    c = rep//n
    vertices = (piece.vertices[rep % n]*signs[c % 8]
                + np.outer(c//8*piece.T, [0.0, 0.0, 1.0]))
    faces = per_copy[:, piece.faces]
    odd = np.prod(signs[copies % 8], axis=1) < 0
    faces[odd] = faces[odd][:, :, ::-1]
    return vertices, faces.reshape(-1, 3)


def collision_pairs_oracle(vertices, tol: float) -> set:
    """Every vertex pair (i, j), i < j, closer than tol, found exhaustively.

    Along one axis an interval shorter than tol holds at most one boundary
    of the two grids of cell 2*tol shifted by 0 and tol, so such a pair
    shares a cell in at least one of the eight grids shifted by 0 or tol
    along each axis; only the pairs within a shared cell are measured."""
    pairs = set()
    for shift in itertools.product((0.0, tol), repeat=3):
        keys = np.floor((vertices - shift)/(2*tol)).astype(np.int64)
        _, cell, counts = np.unique(keys, axis=0, return_inverse=True,
                                    return_counts=True)
        cell = cell.ravel()
        for crowded in np.flatnonzero(counts > 1):
            members = np.flatnonzero(cell == crowded)
            for i, j in itertools.combinations(members, 2):
                if np.linalg.norm(vertices[i] - vertices[j]) < tol:
                    pairs.add((int(i), int(j)))
    return pairs


def shares_vertex_oracle(faces, i, j):
    """verify._shares_vertex on the face pairs (i, j), from the (m, 3, 3)
    table of corner-id comparisons."""
    return (faces[i][:, :, None] == faces[j][:, None, :]).any(axis=(1, 2))


def tri_tri_intersect_oracle(tri, normals, i, j, eps):
    """verify._tri_tri_intersect with every row gathered by fancy indexing."""
    out = np.zeros(len(i), bool)
    t2, n1 = tri[j], normals[i]
    d2 = np.einsum("mkj,mj->mk", t2 - tri[i, 0][:, None], n1)
    k = np.flatnonzero(verify._straddles(d2, n1, eps))
    t1, t2, n1, n2, d2 = tri[i[k]], t2[k], n1[k], normals[j[k]], d2[k]
    d1 = np.einsum("mkj,mj->mk", t1 - t2[:, None, 0], n2)
    axis = np.cross(n1, n2)
    anorm = np.linalg.norm(axis, axis=1)
    keep = verify._straddles(d1, n2, eps) & (anorm > 1e-300)
    if not keep.any():
        return out
    axis = axis[keep]/anorm[keep][:, None]
    lo1, hi1, v1 = verify._crossing_interval(t1[keep], d1[keep], axis)
    lo2, hi2, v2 = verify._crossing_interval(t2[keep], d2[keep], axis)
    overlap = (np.minimum(hi1, hi2) - np.maximum(lo1, lo2)) > eps
    out[k[keep]] = v1 & v2 & overlap
    return out
