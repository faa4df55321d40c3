"""Numerical verification of the geometric claims about the surface family.

Checks fall into three groups:
  * curve-level: boundary symmetry table of (g, dh), winding-number degree
    count of the Gauss map, interior vertical-normal configuration;
  * mesh-level: injectivity sampling, triangle self-intersection scan,
    shape of the lower-mirror profile curve in the X = a case;
  * negative controls: deliberately broken inputs must make the checks fail
    (exercised by the test suite through the same entry points).
All stochastic checks take an explicit seed and default to a fixed one.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ContourTooClose, GaussMapPole, NotApplicable
from .mesh import PieceMesh
from .params import SurfaceParams, SymFuncs, sym_funcs
from .weier import CurvePoint, dh_eval, g_eval, vertical_normal_points, w_closed

DEFAULT_SEED = 20260823


@dataclass
class CheckResult:
    name: str
    passed: bool
    value: float
    detail: str = ""


@dataclass
class VerificationReport:
    results: list = field(default_factory=list)

    def add(self, name, passed, value, detail=""):
        self.results.append(CheckResult(name, bool(passed), float(value), detail))

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results)


# ---------------------------------------------------------------------------
# symmetry table
# ---------------------------------------------------------------------------

def _stretch_samples(p: SurfaceParams, far: float, n: int):
    """Interior sample points of each boundary stretch (endpoints avoided)."""
    a, b, x, y = p.a, p.b, p.x, p.y
    u = (np.arange(n) + 0.5)/n

    def seg(lo, hi):
        return lo + (hi - lo)*(0.05 + 0.9*u)

    return {
        "AL": 1j*np.exp(np.log(0.05) + (np.log(far) - np.log(0.05))*u),
        "LF": seg(0.0, x),
        "FE": seg(x, a),
        "ED": seg(a, 1.0),
        "DC": seg(1.0, y),
        "CB": seg(y, b),
        "BA": seg(b, far),
    }


# per stretch: (g condition, dh condition) as (kind, sign) with kinds
#   're'  : value real with the given sign
#   'im'  : value imaginary with the given sign of the imaginary part
#   'mod1': value on the unit circle (sign unused)
SYMMETRY_TABLE = {
    "AL": (("re", +1), ("im", +1)),
    "LF": (("im", +1), ("re", +1)),
    "FE": (("mod1", 0), ("im", +1)),
    "ED": (("mod1", 0), ("im", -1)),
    "DC": (("mod1", 0), ("im", +1)),
    "CB": (("im", -1), ("re", -1)),
    "BA": (("mod1", 0), ("im", -1)),
}


def _cond_residual(value: complex, kind: str, sign: int) -> float:
    m = max(abs(value), 1e-300)
    if kind == "re":
        res = abs(value.imag)/m
        if sign*value.real < 0:
            res = max(res, 1.0)
    elif kind == "im":
        res = abs(value.real)/m
        if sign*value.imag < 0:
            res = max(res, 1.0)
    elif kind == "mod1":
        res = abs(abs(value) - 1.0)
    else:  # pragma: no cover
        raise ValueError(kind)
    return res


def check_symmetry_table(p: SurfaceParams, tol: float = 1e-9,
                         n_samples: int = 48, far: float = 20.0) -> VerificationReport:
    """The boundary stretches must carry the symmetry data of the table:
    real/imaginary/unit-circle constraints on g and dh with fixed signs."""
    p.validate()
    s = sym_funcs(p)
    rep = VerificationReport()
    for tag, zs in _stretch_samples(p, far, n_samples).items():
        (gk, gs), (dk, ds) = SYMMETRY_TABLE[tag]
        worst_g = worst_dh = 0.0
        for z in zs:
            w = complex(w_closed(p, complex(z)))
            cp = CurvePoint(z=complex(z), w=w)
            try:
                g = complex(g_eval(p, cp))
                worst_g = max(worst_g, _cond_residual(g, gk, gs))
            except GaussMapPole:
                pass
            dh = complex(dh_eval(p, s, cp))
            worst_dh = max(worst_dh, _cond_residual(dh, dk, ds))
        rep.add(f"symmetry[{tag}].g", worst_g <= tol, worst_g)
        rep.add(f"symmetry[{tag}].dh", worst_dh <= tol, worst_dh)
    return rep


# ---------------------------------------------------------------------------
# Gauss-map degree diagnostic
# ---------------------------------------------------------------------------

def _quadrant_contour(p: SurfaceParams, far: float, indent: float, n: int):
    """Closed positively oriented contour around the open first quadrant:
    real axis with semicircular indentations over the pole of g at 0 and the
    punctures a and 1, arc at |z| = far, back down the imaginary axis."""
    pts = []

    def line(z0, z1, k):
        t = np.linspace(0.0, 1.0, k, endpoint=False)
        pts.extend(z0 + (z1 - z0)*t)

    def arc(c, r, th0, th1, k):
        t = np.linspace(th0, th1, k, endpoint=False)
        pts.extend(c + r*np.exp(1j*t))

    a = p.a
    arc(0.0, indent, np.pi/2, 0.0, n)            # around the pole of g at 0
    line(indent, a - indent, 3*n)
    arc(a, indent, np.pi, 0.0, n)                # around the puncture at a
    line(a + indent, 1.0 - indent, 2*n)
    arc(1.0, indent, np.pi, 0.0, n)              # around the puncture at 1
    line(1.0 + indent, far, 3*n)
    arc(0.0, far, 0.0, np.pi/2, 2*n)
    line(1j*far, 1j*indent, 3*n)
    zs = np.array(pts)
    return np.append(zs, zs[0])


def degree_diagnostic(p: SurfaceParams, probe: complex = 0.37 + 0.52j,
                      far: float = 30.0, n: int = 400,
                      min_clearance: float = 1e-4) -> dict:
    """Preimage count of a probe value under the Gauss map of the closed
    surface, assembled from winding numbers on the fundamental quadrant.

    The eight symmetry transforms {+-g, +-conj(g), +-1/g, +-1/conj(g)}
    transport g from the quadrant to the other seven copies of the curve
    covering the sphere; each conjugated transform traverses its contour
    with reversed orientation.  The summed winding numbers count the zeros
    of g - probe on the full curve, i.e. the degree of the Gauss map.
    """
    p.validate()
    indent = 0.2*min(p.a - p.x, 1.0 - p.a, p.y - 1.0)
    zs = _quadrant_contour(p, far, indent, n)

    def g_of(z):
        z = np.asarray(z, dtype=complex)
        w = w_closed(p, z)
        u = (p.X + z)/(w*(p.X - z))
        return 1j*(1 + u)/(u - 1)

    # refine the contour wherever g moves too fast for safe phase tracking
    g = g_of(zs)
    for _ in range(24):
        # fast movement on the sphere shows in g, 1/g, or across conjugation
        step = np.maximum(np.abs(np.angle(g[1:]/g[:-1])),
                          np.abs(np.diff(np.abs(np.log(np.abs(g))))))
        bad = np.where(step > 0.5)[0]
        if len(bad) == 0:
            break
        mids = 0.5*(zs[bad] + zs[bad + 1])
        zs = np.insert(zs, bad + 1, mids)
        g = np.insert(g, bad + 1, g_of(mids))

    cg = np.conj(g)
    transforms = {
        "+g": (g, +1), "-g": (-g, +1),
        "+1/g": (1.0/g, +1), "-1/g": (-1.0/g, +1),
        "+g~": (cg, -1), "-g~": (-cg, -1),
        "+1/g~": (1.0/cg, -1), "-1/g~": (-1.0/cg, -1),
    }
    windings = {}
    total = 0
    for name, (gt, orient) in transforms.items():
        d = gt - probe
        if np.min(np.abs(d)) < min_clearance*max(1.0, abs(probe)):
            raise ContourTooClose(
                f"probe {probe} within {min_clearance} of boundary values of "
                f"transform {name}; choose a different probe")
        dang = np.angle(d[1:]/d[:-1])
        if np.max(np.abs(dang)) > 2.8:
            raise ContourTooClose(
                f"contour sampling too coarse for transform {name}; raise n")
        wind = int(round(np.sum(dang)/(2*np.pi)))
        windings[name] = orient*wind
        total += orient*wind
    # each winding counts preimages minus poles of the transform inside the
    # quadrant; at an interior vertical-normal point four of the eight
    # transforms have a pole, so the preimage (degree) count is the summed
    # winding plus four per interior root of the vertical-normal quartic
    s = sym_funcs(p)
    roots, _ = vertical_normal_points(s)
    tiny = 1e-9
    n_interior = int(np.sum((roots.real > tiny) & (roots.imag > tiny)))
    degree = total + 4*n_interior
    return {"windings": windings, "total": total,
            "interior_vertical_points": n_interior, "degree": degree,
            "probe": probe}


# ---------------------------------------------------------------------------
# mesh-level checks
# ---------------------------------------------------------------------------

def check_injectivity(vertices: np.ndarray, n_pairs: int = 100_000,
                      seed: int = DEFAULT_SEED,
                      tol: float = 1e-10) -> CheckResult:
    """Distinct sampled mesh points must not coincide in space.

    Collisions are pairs closer than tol times the bounding-box diagonal;
    an immersed (non-injective) piece shows up as a nonzero count.
    """
    rng = np.random.default_rng(seed)
    n = len(vertices)
    i = rng.integers(0, n, n_pairs)
    j = rng.integers(0, n, n_pairs)
    keep = i != j
    i, j = i[keep], j[keep]
    bbox = np.linalg.norm(vertices.max(axis=0) - vertices.min(axis=0))
    d = np.linalg.norm(vertices[i] - vertices[j], axis=1)
    collisions = int(np.sum(d < tol*bbox))
    return CheckResult("injectivity", collisions == 0, collisions,
                       f"{len(i)} pairs sampled")


def _crossing_interval(tri, d, axis):
    """Projection interval, on the given axis, of the segment where each
    triangle crosses the other triangle's plane.

    tri: (m, 3, 3) vertices; d: (m, 3) signed plane distances (mixed signs
    guaranteed by the caller's filter); axis: (m, 3) line directions."""
    m = len(tri)
    sg = d > 0
    ct = sg.sum(axis=1)
    valid = (ct == 1) | (ct == 2)
    odd = np.where(ct == 1, np.argmax(sg, axis=1), np.argmin(sg, axis=1))
    ar = np.arange(m)
    i1 = (odd + 1) % 3
    i2 = (odd + 2) % 3
    pr = np.einsum("mkj,mj->mk", tri, axis)     # vertex projections
    d0, p0 = d[ar, odd], pr[ar, odd]
    with np.errstate(divide="ignore", invalid="ignore"):
        t1 = p0 + (pr[ar, i1] - p0)*d0/(d0 - d[ar, i1])
        t2 = p0 + (pr[ar, i2] - p0)*d0/(d0 - d[ar, i2])
    valid &= np.isfinite(t1) & np.isfinite(t2)
    return np.minimum(t1, t2), np.maximum(t1, t2), valid


def _tri_tri_intersect(t1, t2, eps, n1=None, n2=None):
    """Vectorized triangle-triangle crossing test (Moller interval test on
    the plane-intersection line).  t1, t2: (m, 3, 3) vertex stacks; returns
    a mask of transversally crossing pairs.  Coplanar or merely touching
    (within eps along the line) pairs are not counted.  Plane normals may
    be passed in when precomputed per triangle."""
    if n1 is None:
        n1 = np.cross(t1[:, 1] - t1[:, 0], t1[:, 2] - t1[:, 0])
    if n2 is None:
        n2 = np.cross(t2[:, 1] - t2[:, 0], t2[:, 2] - t2[:, 0])
    d2 = np.einsum("mkj,mj->mk", t2 - t1[:, None, 0], n1)
    d1 = np.einsum("mkj,mj->mk", t1 - t2[:, None, 0], n2)
    s1 = np.linalg.norm(n1, axis=1)*eps
    s2 = np.linalg.norm(n2, axis=1)*eps
    same2 = (np.all(d2 > -s1[:, None], axis=1)
             | np.all(d2 < s1[:, None], axis=1))
    same1 = (np.all(d1 > -s2[:, None], axis=1)
             | np.all(d1 < s2[:, None], axis=1))
    cand = ~(same1 | same2)
    out = np.zeros(len(t1), bool)
    if not cand.any():
        return out
    idx = np.where(cand)[0]
    axis = np.cross(n1[idx], n2[idx])
    anorm = np.linalg.norm(axis, axis=1)
    noncop = anorm > 1e-300
    idx = idx[noncop]
    if len(idx) == 0:
        return out
    axis = axis[noncop]/anorm[noncop][:, None]
    lo1, hi1, v1 = _crossing_interval(t1[idx], d1[idx], axis)
    lo2, hi2, v2 = _crossing_interval(t2[idx], d2[idx], axis)
    overlap = (np.minimum(hi1, hi2) - np.maximum(lo1, lo2)) > eps
    out[idx] = v1 & v2 & overlap
    return out


_HASH = (np.int64(73856093), np.int64(19349663), np.int64(83492791))


def _cell_entries(lo, hi, ids, h, eps_abs):
    """Spatial-hash registration of the (inflated) boxes of `ids` on a grid
    of cell size h.  Every box has extent <= h per axis at its own level, so
    it covers at most two cells per axis; all eight corner combinations are
    emitted (duplicates are harmless, pairs are deduplicated later).
    Returns (hash_keys, triangle_ids)."""
    i0 = np.floor((lo[ids] - eps_abs)/h).astype(np.int64)
    i1 = np.floor((hi[ids] + eps_abs)/h).astype(np.int64)
    keys = []
    tris = []
    for cx in (0, 1):
        ix = (i1[:, 0] if cx else i0[:, 0])*_HASH[0]
        for cy in (0, 1):
            iy = (i1[:, 1] if cy else i0[:, 1])*_HASH[1]
            for cz in (0, 1):
                iz = (i1[:, 2] if cz else i0[:, 2])*_HASH[2]
                keys.append(ix ^ iy ^ iz)
                tris.append(ids)
    return np.concatenate(keys), np.concatenate(tris)


def _candidate_keys_by_level(lo, hi, eps_abs):
    """Yield, level by level, deduplicated packed keys i*n + j (i < j) of
    triangle pairs with overlapping (inflated) bounding boxes.

    Size-binned spatial hash: each triangle is registered at the grid level
    whose cell size bounds its extent, so no box straddles more than eight
    cells and strongly graded sizes cannot blow up the registration.  At
    each level the triangles of exactly that size class are paired, within
    shared cells, against everything of their own size class and below;
    overlapping boxes always share at least one cell at the coarser of the
    two levels.  Hash collisions only add candidates, which the exact box
    test removes.  Pairs spanning two levels are reported at the coarser
    level only; a pair can still reappear across levels through different
    shared cells of a multi-cell box, so the caller must tolerate repeats
    between (not within) yielded arrays."""
    n = len(lo)
    ext = np.max(hi - lo, axis=1) + 2*eps_abs
    # the base cell tracks the smallest triangles: strongly graded meshes
    # cluster thousands of tiny triangles in a region a large cell would
    # cover, and same-cell pairing must stay local to their own size class
    h0 = max(np.percentile(ext, 1), 10*eps_abs, 1e-300)
    level = np.clip(np.ceil(np.log2(np.maximum(ext/h0, 1e-12))),
                    0, 40).astype(int)

    for lev in range(int(level.max()) + 1):
        h = h0*2.0**lev
        below = np.where(level <= lev)[0]
        members = level[below] == lev
        if not members.any():
            continue
        hk, tid = _cell_entries(lo, hi, below, h, eps_abs)
        memb = np.tile(members, 8)
        order = np.lexsort((tid, hk))
        hk, tid, memb = hk[order], tid[order], memb[order]
        # drop duplicate (cell, triangle) registrations (a box whose corner
        # combinations coincide registers the same cell several times)
        first = np.r_[True, (np.diff(hk) != 0) | (np.diff(tid) != 0)]
        hk, tid, memb = hk[first], tid[first], memb[first]
        seg_start = np.r_[0, np.where(np.diff(hk) != 0)[0] + 1]
        seg_len = np.diff(np.r_[seg_start, len(hk)])
        start_of = np.repeat(seg_start, seg_len)
        len_of = np.repeat(seg_len, seg_len)
        # each member entry pairs with every entry of its cell segment;
        # generated in bounded chunks so a dense level cannot exhaust memory
        midx = np.where(memb & (len_of > 1))[0]
        if len(midx) == 0:
            continue
        lev_mask = level == lev
        cum = np.cumsum(len_of[midx])
        bounds = np.searchsorted(cum, np.arange(
            20_000_000, int(cum[-1]) + 20_000_000, 20_000_000), side="right")
        bounds = np.unique(np.r_[0, bounds + 1, len(midx)])
        key_chunks = []
        for c0, c1 in zip(bounds[:-1], bounds[1:]):
            mc = midx[c0:c1]
            if len(mc) == 0:
                continue
            reps = len_of[mc]
            ii = np.repeat(tid[mc], reps)
            offs = np.arange(int(reps.sum())) - np.repeat(
                np.cumsum(reps) - reps, reps)
            jj = tid[np.repeat(start_of[mc], reps) + offs]
            # drop self-pairs and the double generation of same-level pairs
            # (each member of the pair enumerates the other)
            keep = (ii < jj) | ((ii > jj) & ~lev_mask[jj])
            ii, jj = ii[keep], jj[keep]
            # exact box test (removes hash collisions, corner-only sharing)
            ov = np.all((lo[ii] <= hi[jj] + eps_abs)
                        & (lo[jj] <= hi[ii] + eps_abs), axis=1)
            ii, jj = ii[ov], jj[ov]
            if len(ii):
                key_chunks.append(np.minimum(ii, jj).astype(np.int64)*n
                                  + np.maximum(ii, jj))
        if key_chunks:
            yield np.unique(np.concatenate(key_chunks))


def check_self_intersections(vertices: np.ndarray, faces: np.ndarray,
                             eps: float = 1e-9,
                             chunk: int = 2_000_000) -> CheckResult:
    """Count transversally crossing triangle pairs.

    Broad phase: size-binned spatial hashing, streamed level by level so the
    candidate set (which grows large for strongly graded, near-coincident
    sheet meshes) is never materialized at once.  Narrow phase: vectorized
    interval test with precomputed plane normals; pairs sharing a vertex are
    excluded (seam neighbours).  Only actual crossings are collected, and
    deduplicated at the end (a pair can be generated by several grid cells)."""
    tri = vertices[faces]                       # (m, 3, 3)
    lo = tri.min(axis=1)
    hi = tri.max(axis=1)
    bbox = np.linalg.norm(vertices.max(axis=0) - vertices.min(axis=0))
    eps_abs = eps*bbox
    normals = np.cross(tri[:, 1] - tri[:, 0], tri[:, 2] - tri[:, 0])
    n = len(tri)

    n_cand = 0
    hit_keys = []
    for keys in _candidate_keys_by_level(lo, hi, eps_abs):
        n_cand += len(keys)
        for s in range(0, len(keys), chunk):
            i = keys[s:s + chunk] // n
            j = keys[s:s + chunk] % n
            f0 = faces[i]
            f1 = faces[j]
            share = np.zeros(len(i), bool)
            for u in range(3):
                for w in range(3):
                    share |= f0[:, u] == f1[:, w]
            i, j = i[~share], j[~share]
            hits = _tri_tri_intersect(tri[i], tri[j], eps_abs,
                                      n1=normals[i], n2=normals[j])
            if hits.any():
                hit_keys.append(i[hits]*np.int64(n) + j[hits])
    count = len(np.unique(np.concatenate(hit_keys))) if hit_keys else 0
    return CheckResult("self_intersection", count == 0, count,
                       f"{n_cand} candidate pairs tested")


def check_profile_bell(piece: PieceMesh, tol: float = 1e-6) -> CheckResult:
    """For X = a the lower-mirror profile through the branch point at x must
    be a bell: planar, monotone flank, with a single inflection.

    The stretch starts on the plane of even symmetry (x1 = 0), so the
    monotone decreasing half extends to a symmetric bell.  Raises
    NotApplicable when X > a (the claim is specific to the X = a case)."""
    p = piece.grid.p
    if p.X_offset > 0:
        raise NotApplicable("profile-bell check applies to the X = a case only")
    nodes = piece.boundary["FE"]
    pts = piece.vertices[nodes]
    order = np.argsort(pts[:, 0])
    pts = pts[order]
    bbox = np.linalg.norm(piece.vertices.max(axis=0) - piece.vertices.min(axis=0))
    planar = float(np.max(np.abs(pts[:, 2])))
    dx1 = np.diff(pts[:, 0])
    dx2 = np.diff(pts[:, 1])
    monotone = bool(np.all(dx1 > 0) and np.all(dx2 < 0))
    slope = dx2/dx1
    dslope = np.diff(slope)
    sign_changes = int(np.sum(np.diff(np.sign(dslope)) != 0))
    ok = planar <= tol*bbox and monotone and sign_changes <= 1
    return CheckResult("profile_bell", ok, sign_changes,
                       f"planar={planar:.2e}, monotone={monotone}")


# ---------------------------------------------------------------------------
# informational diagnostics
# ---------------------------------------------------------------------------

def case_diagnostics(p: SurfaceParams, far: float = 20.0) -> dict:
    """Informational: interior vertical-normal configuration and the range
    of the Gauss-map argument along the outer stretch."""
    s = sym_funcs(p)
    roots, conj_quadruple = vertical_normal_points(s)
    zs = _stretch_samples(p, far, 64)["BA"]
    w = w_closed(p, zs)
    u = (p.X + zs)/(w*(p.X - zs))
    g = 1j*(1 + u)/(u - 1)
    theta = np.angle(g)
    return {
        "vertical_normal_roots": roots,
        "conjugate_quadruple": conj_quadruple,
        "discriminant": float(s.S2*s.S2 - 4.0*s.S4),
        "theta_outer_range": (float(theta.min()), float(theta.max())),
    }
