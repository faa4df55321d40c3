"""Numerical verification of the geometric claims about the surface family.

Checks fall into three groups:
  * curve-level: boundary symmetry table of (g, dh) sampled along each
    stretch (mesh.stretch_intervals), winding-number degree count of the
    Gauss map, interior vertical-normal configuration;
  * mesh-level: injectivity sampling, triangle self-intersection search
    over a box tree (non-finite vertices fail both),
    embeddedness of the tower certified from the reflection chamber,
    shape of the lower-mirror profile curve in the X = a case;
  * negative controls: deliberately broken inputs must make the checks fail
    (exercised by the test suite through the same entry points).
All stochastic checks take an explicit seed and default to a fixed one.

Embeddedness of the tower follows from the piece by the chamber argument
for surfaces built by Schwarz reflection (Karcher, Manuscripta Math. 62,
1988).  The mirrors of the welded stretches (mesh.STRETCHES) bound a convex
chamber holding the piece, and the reflected and translated copies occupy
disjoint chambers.  If the piece is embedded, lies strictly inside its
chamber away from its stretches, and meets each mirror in simple seam
polylines, then faces of two copies can only meet in the welded seam
vertices and edges they share.  check_tower_embedded certifies these three
conditions at the cost of the piece alone and otherwise falls back to
check_self_intersections on the whole tower, which stays the independent
oracle.
"""
from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

from .errors import ContourTooClose, InvalidResolution, NotApplicable
from .mesh import (STRETCHES, WELD_TOL, AssembledMesh, PieceMesh,
                   mirror_planes, stretch_intervals)
from .params import SurfaceParams, sym_funcs
from .weier import g_eval, phi_vec, vertical_normal_points, w_closed

DEFAULT_SEED = 20260823


@dataclass
class CheckResult:
    name: str
    passed: bool
    value: float
    detail: str = ""


# ---------------------------------------------------------------------------
# symmetry table
# ---------------------------------------------------------------------------

# the curve-level checks sample the boundary stretches out to this radius
# and close their degree contour at _CONTOUR_RADIUS, independently of the
# radius the mesh stops at
_SAMPLE_RADIUS = 20.0
_CONTOUR_RADIUS = 30.0


def _stretch_samples(p: SurfaceParams, n: int):
    """Interior sample points of each boundary stretch out to
    _SAMPLE_RADIUS (endpoints avoided; on AL log-spaced from 0.05i)."""
    u = (np.arange(n) + 0.5)/n
    out = {}
    for tag, (lo, hi) in stretch_intervals(p, _SAMPLE_RADIUS).items():
        if tag == "AL":
            out[tag] = 1j*np.exp(np.log(0.05) + (np.log(hi) - np.log(0.05))*u)
        else:
            out[tag] = lo + (hi - lo)*(0.05 + 0.9*u)
    return out


# per stretch: the signs of its (g condition, dh condition), of kinds
#   're'  : value real with the given sign
#   'im'  : value imaginary with the given sign of the imaginary part
#   'mod1': value on the unit circle (sign unused)
SYMMETRY_TABLE = {"AL": (+1, +1), "LF": (+1, +1), "FE": (0, +1),
                  "ED": (0, -1), "DC": (0, +1), "CB": (-1, -1), "BA": (0, -1)}


def _symmetry_conditions(tag: str):
    """((g kind, sign), (dh kind, sign)) of a stretch; the kinds follow from
    the axis its mirror fixes (STRETCHES).  g is imaginary on axis 0, real
    on axis 1 and on the unit circle on axis 2; dh is real exactly on a
    vertical mirror along the real axis (AL runs along z = it)."""
    axis, _ = STRETCHES[tag]
    g_sign, dh_sign = SYMMETRY_TABLE[tag]
    dh_kind = "re" if axis != 2 and tag != "AL" else "im"
    return (("im", "re", "mod1")[axis], g_sign), (dh_kind, dh_sign)


def _cond_residual(values, kind: str, sign: int) -> float:
    """Worst violation of the condition (kind, sign) over the values; a
    value of the wrong sign violates it by at least 1."""
    if kind == "mod1":
        res = np.abs(np.abs(values) - 1.0)
    else:
        along, across = ((values.real, values.imag) if kind == "re"
                         else (values.imag, values.real))
        res = np.maximum(np.abs(across)/np.maximum(np.abs(values), 1e-300),
                         sign*along < 0)
    return float(np.max(res, initial=0.0))


_SYMMETRY_SAMPLES = 48     # per stretch
_SYMMETRY_TOL = 1e-9


def check_symmetry_table(p: SurfaceParams) -> list[CheckResult]:
    """The boundary stretches must carry the symmetry data of their
    mirrors: real/imaginary/unit-circle constraints on g and dh with the
    signs of SYMMETRY_TABLE, each met to _SYMMETRY_TOL.  A sample at a
    pole of g constrains dh only."""
    p.validate()
    results = []
    for tag, zs in _stretch_samples(p, _SYMMETRY_SAMPLES).items():
        (gk, gs), (dk, ds) = _symmetry_conditions(tag)
        g = g_eval(p, zs, w_closed(p, zs))
        for f, worst in (("g", _cond_residual(g[np.isfinite(g)], gk, gs)),
                         ("dh", _cond_residual(phi_vec(p, zs)[:, 2], dk, ds))):
            results.append(CheckResult(f"symmetry[{tag}].{f}",
                                       worst <= _SYMMETRY_TOL, worst))
    return results


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


# points per indentation arc of the contour before refinement, and the least
# distance of the probe from the boundary values, relative to max(1, |probe|)
_CONTOUR_POINTS = 400
_PROBE_CLEARANCE = 1e-4


def degree_diagnostic(p: SurfaceParams, probe: complex = 0.37 + 0.52j) -> dict:
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
    zs = _quadrant_contour(p, _CONTOUR_RADIUS, indent, _CONTOUR_POINTS)

    # refine the contour wherever g moves too fast for safe phase tracking
    g = g_eval(p, zs, w_closed(p, zs))
    for _ in range(24):
        # fast movement on the sphere shows in g, 1/g, or across conjugation
        step = np.maximum(np.abs(np.angle(g[1:]/g[:-1])),
                          np.abs(np.diff(np.abs(np.log(np.abs(g))))))
        bad = np.where(step > 0.5)[0]
        if len(bad) == 0:
            break
        mids = 0.5*(zs[bad] + zs[bad + 1])
        zs = np.insert(zs, bad + 1, mids)
        g = np.insert(g, bad + 1, g_eval(p, mids, w_closed(p, mids)))

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
        if np.min(np.abs(d)) < _PROBE_CLEARANCE*max(1.0, abs(probe)):
            raise ContourTooClose(
                f"probe {probe} within {_PROBE_CLEARANCE} of boundary values of "
                f"transform {name}; choose a different probe")
        dang = np.angle(d[1:]/d[:-1])
        jump = np.max(np.abs(dang))
        if jump > 2.8:
            raise ContourTooClose(
                f"transform {name} turns by {jump:.3f} rad between adjacent "
                f"contour points (limit 2.8); its winding is ambiguous")
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

_COLLISION_TOL = 1e-10     # share of the bounding-box diagonal
_INJECTIVITY_PAIRS = 100_000


def _sample_pairs(n: int, seed: int):
    """(i, j) uint32 index arrays of the _INJECTIVITY_PAIRS vertex pairs
    drawn from n vertices, the pairs of a vertex with itself dropped.

    The indices are the bytes of the standard library's
    random.Random(seed), read as little-endian uint32 and taken mod n, so
    a seed draws the same pairs on every platform; the bias this leaves is
    below n/2^32."""
    if seed < 0:
        raise InvalidResolution(f"seed must be non-negative, got {seed}")
    draw = np.frombuffer(random.Random(seed).randbytes(8*_INJECTIVITY_PAIRS),
                         "<u4")
    i, j = np.split(draw % n if n else draw[:0], 2)
    keep = np.flatnonzero(i != j)
    return np.take(i, keep), np.take(j, keep)


def _non_finite(name: str, vertices: np.ndarray) -> CheckResult | None:
    """The named check's failure on a mesh with non-finite vertices, whose
    NaN bounding box would make every comparison false; else None."""
    bad = np.flatnonzero(~np.isfinite(vertices).all(axis=1))
    if len(bad):
        return CheckResult(name, False, len(bad),
                           f"{len(bad)} non-finite vertices, the first "
                           f"{bad[0]} at {tuple(map(float, vertices[bad[0]]))}")


def check_injectivity(vertices: np.ndarray, seed: int = DEFAULT_SEED) -> CheckResult:
    """Distinct sampled mesh points must not coincide in space.

    _INJECTIVITY_PAIRS random vertex pairs are drawn (_sample_pairs);
    collisions are pairs closer than _COLLISION_TOL times the bounding-box
    diagonal, so an immersed (non-injective) piece shows up as a nonzero
    count.  Squared distances are compared, summed one axis at a time.  A
    mesh with a non-finite vertex fails; one of fewer than two vertices has
    no pair to sample.
    """
    bad = _non_finite("injectivity", vertices)
    if bad:
        return bad
    i, j = _sample_pairs(len(vertices), seed)
    if len(i) == 0:
        return CheckResult("injectivity", True, 0, "0 pairs sampled")
    bbox = np.linalg.norm(vertices.max(axis=0) - vertices.min(axis=0))
    d2 = np.zeros(len(i))
    for col in vertices.T:
        d = np.take(col, i) - np.take(col, j)
        d2 += d*d
    collisions = int(np.count_nonzero(d2 < (_COLLISION_TOL*bbox)**2))
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


def _tri_tri_intersect(tri, normals, i, j, eps):
    """Vectorized triangle-triangle crossing test (Moller interval test on
    the plane-intersection line) of the pairs (tri[i], tri[j]), where tri
    holds (n, 3, 3) vertex stacks with plane normals `normals`; returns a
    mask of transversally crossing pairs.  Coplanar or merely touching
    (within eps along the line) pairs are not counted.

    The plane tests run in stages: tri[j] against the plane of tri[i] on
    every pair, then tri[i] against the plane of tri[j] on the pairs left,
    so tri[i] is gathered for those only; its first corners come from the
    corner rows tri.reshape(-1, 3), since np.take would copy all of the
    strided tri[:, 0] on every call."""
    out = np.zeros(len(i), bool)
    t2, n1 = np.take(tri, j, axis=0), np.take(normals, i, axis=0)
    d2 = np.einsum("mkj,mj->mk",
                   t2 - np.take(tri.reshape(-1, 3), 3*i, axis=0)[:, None], n1)
    k = np.flatnonzero(_straddles(d2, n1, eps))
    t1 = np.take(tri, np.take(i, k), axis=0)
    n2 = np.take(normals, np.take(j, k), axis=0)
    t2, n1, d2 = (np.take(a, k, axis=0) for a in (t2, n1, d2))
    d1 = np.einsum("mkj,mj->mk", t1 - t2[:, None, 0], n2)
    axis = np.cross(n1, n2)
    anorm = np.linalg.norm(axis, axis=1)
    keep = _straddles(d1, n2, eps) & (anorm > 1e-300)
    if not keep.any():
        return out
    axis = axis[keep]/anorm[keep][:, None]
    lo1, hi1, v1 = _crossing_interval(t1[keep], d1[keep], axis)
    lo2, hi2, v2 = _crossing_interval(t2[keep], d2[keep], axis)
    overlap = (np.minimum(hi1, hi2) - np.maximum(lo1, lo2)) > eps
    out[k[keep]] = v1 & v2 & overlap
    return out


def _straddles(d, n, eps):
    """Mask of the triangles whose signed distances d (times |n|) from a
    plane of normal n are not all on one side of it within eps; a NaN
    distance counts as on neither side."""
    s = np.linalg.norm(n, axis=1)*eps
    lo = np.minimum(np.minimum(d[:, 0], d[:, 1]), d[:, 2])
    hi = np.maximum(np.maximum(d[:, 0], d[:, 1]), d[:, 2])
    return ~((lo > -s) | (hi < s))


def _tree_order(lo, hi):
    """Leaf order of the boxes (lo, hi), one row each, for _candidate_pairs:
    padded to a power of two, each node from the root down is split at the
    median of its box centres along their longest axis, the padding (NaN)
    sorting last, so only the last node of each level is short."""
    n, dim = lo.shape
    size = 1 << max(n - 1, 0).bit_length()
    centres = np.full((dim, size), np.nan)
    centres[:, :n] = (lo + hi).T
    order = np.arange(size)
    while size > 2:
        c = np.take(centres, order, axis=1).reshape(dim, -1, size)
        axis = np.argmax(np.fmax.reduce(c, axis=2) - np.fmin.reduce(c, axis=2),
                         axis=0)
        key = np.take_along_axis(c, axis[None, :, None], axis=0)[0]
        half = np.argpartition(key, size//2 - 1, axis=1)
        order = np.take_along_axis(order.reshape(-1, size), half, axis=1).ravel()
        size //= 2
    return order[order < n]


def _candidate_pairs(lo, hi, eps_abs):
    """Yield (i, j) index arrays (i < j) of the pairs among the boxes
    (lo, hi), one row each, that lie within eps_abs of each other on every
    axis; over all yields each pair comes exactly once.

    The boxes, in the order given (fastest in _tree_order), are the leaves
    of a binary tree whose nodes bound their children.  Overlapping node
    pairs are descended from the root pair (0, 0), depth first in chunks
    that grow with the number of boxes: a pair (k, k) to its three distinct
    child pairs, a pair (k, l) to all four, so each leaf pair is met once.
    Each axis is tested on the survivors of the last."""
    if len(lo) < 2:
        return
    # per level, leaves last, one contiguous array per axis, each ending in
    # an empty (inf, -inf) box that a short last node pairs with
    los = [[np.append(c, np.inf) for c in lo.T]]
    his = [[np.append(c + eps_abs, -np.inf) for c in hi.T]]
    while len(los[0][0]) > 2:
        m = len(los[0][0]) - 1
        m += m % 2
        los.insert(0, [np.append(np.minimum(c[0:m:2], c[1:m:2]), np.inf)
                       for c in los[0]])
        his.insert(0, [np.append(np.maximum(c[0:m:2], c[1:m:2]), -np.inf)
                       for c in his[0]])
    # node pairs per step: enough to spread the numpy call overhead, and a
    # share of the boxes so the working set stays a fraction of the tree
    chunk = max(1 << 12, len(lo)//16)
    stack = [(0, np.zeros(1, np.intp), np.zeros(1, np.intp))]
    while stack:
        level, a, b = stack.pop()
        level += 1
        split = np.flatnonzero(a != b)
        i = np.concatenate([2*a, 2*a, 2*a + 1, 2*np.take(a, split) + 1])
        j = np.concatenate([2*b, 2*b + 1, 2*b + 1, 2*np.take(b, split)])
        for lo_k, hi_k in zip(los[level], his[level]):
            near = np.flatnonzero((np.take(lo_k, i) <= np.take(hi_k, j))
                                  & (np.take(lo_k, j) <= np.take(hi_k, i)))
            i, j = np.take(i, near), np.take(j, near)
        if level == len(los) - 1:
            keep = np.flatnonzero(i != j)
            yield np.take(i, keep), np.take(j, keep)
        else:
            stack.extend((level, i[s:s + chunk], j[s:s + chunk])
                         for s in range(0, len(i), chunk))


# pairs within this share of the bounding-box diagonal of each other are
# broad-phase candidates; touching within it along the crossing line is not
# a crossing
_CROSSING_EPS = 1e-9


def check_self_intersections(vertices: np.ndarray,
                             faces: np.ndarray) -> CheckResult:
    """Count transversally crossing triangle pairs.

    Broad phase: a box tree over the triangles (_candidate_pairs), both
    phases on the triangles in its leaf order (_tree_order), streamed in
    bounded chunks so the candidate set (which grows large for strongly
    graded, near-coincident sheet meshes) is never materialized at once.
    Pairs sharing a vertex are seam neighbours and excluded (_shares_vertex,
    which compares the corner ids column by column).  Narrow phase:
    vectorized interval test with precomputed plane normals.  A mesh with a
    non-finite vertex fails; one without faces has no candidate pair."""
    bad = _non_finite("self_intersection", vertices)
    if bad:
        return bad
    if len(faces) == 0:
        return CheckResult("self_intersection", True, 0,
                           "0 candidate pairs tested")
    tri = vertices[faces]                       # (m, 3, 3)
    lo, hi = tri.min(axis=1), tri.max(axis=1)
    order = _tree_order(lo, hi)
    tri, lo, hi = (np.take(a, order, axis=0) for a in (tri, lo, hi))
    bbox = np.linalg.norm(vertices.max(axis=0) - vertices.min(axis=0))
    eps_abs = _CROSSING_EPS*bbox
    normals = np.cross(tri[:, 1] - tri[:, 0], tri[:, 2] - tri[:, 0])

    corners = np.take(faces.T, order, axis=1)
    n_cand = count = 0
    for i, j in _candidate_pairs(lo, hi, eps_abs):
        n_cand += len(i)
        keep = np.flatnonzero(~_shares_vertex(corners, i, j))
        count += int(np.count_nonzero(_tri_tri_intersect(
            tri, normals, np.take(i, keep), np.take(j, keep), eps_abs)))
    return CheckResult("self_intersection", count == 0, count,
                       f"{n_cand} candidate pairs tested")


def _shares_vertex(corners, i, j):
    """Mask of the element pairs (i, j) with a vertex in common; corners
    holds one row of vertex ids per corner (faces.T for triangles).  Each
    corner of i is compared with each corner of j on gathered ids, the
    compares OR-ed together."""
    fi = [np.take(c, i) for c in corners]
    share = np.zeros(len(i), bool)
    for c in corners:
        fj = np.take(c, j)
        for f in fi:
            share |= f == fj
    return share


def _seam_crossings(pts, chains):
    """Number of segment pairs that touch or cross among planar polylines.

    pts: (n, 2) points; chains: index arrays into pts, one per polyline.
    The pairs whose boxes meet come from _candidate_pairs at eps 0 (the
    segments, in polyline order, are coherent leaves); as in
    check_self_intersections, segments sharing a vertex are not tested."""
    seg = np.concatenate([np.stack([c[:-1], c[1:]], axis=1) for c in chains])
    ends = pts[seg]                             # (m, 2, 2)

    def side(p, q, r):
        return (q[:, 0] - p[:, 0])*(r[:, 1] - p[:, 1]) \
            - (q[:, 1] - p[:, 1])*(r[:, 0] - p[:, 0])

    count = 0
    for i, j in _candidate_pairs(ends.min(axis=1), ends.max(axis=1), 0.0):
        a, b, c, d = ends[i, 0], ends[i, 1], ends[j, 0], ends[j, 1]
        meet = (side(a, b, c)*side(a, b, d) <= 0) \
            & (side(c, d, a)*side(c, d, b) <= 0)
        count += int(np.count_nonzero(meet & ~_shares_vertex(seg.T, i, j)))
    return count


def check_tower_embedded(piece: PieceMesh, tower: AssembledMesh) -> CheckResult:
    """Embeddedness of tower, which must be assemble(piece, ...), certified
    from the reflection chamber (see the module docstring).

    The walls are the mirror planes of the welded stretches (mesh.STRETCHES)
    and the chamber is the side of each wall the piece lies on.  The
    certificate holds when every vertex on no boundary stretch lies strictly
    inside the chamber, every stretch vertex lies inside it or on its own
    stretch's wall within the weld tolerance, the seam polylines on each
    wall are simple in its plane, and the piece alone has no crossing pair.
    Otherwise the detail names the failed condition (for the chamber, the
    wall and its worst vertex) and the verdict is check_self_intersections
    on the tower."""
    v = piece.vertices
    tol = WELD_TOL*np.linalg.norm(v.max(axis=0) - v.min(axis=0))
    on_stretch = np.zeros(len(v), bool)
    for nodes in piece.boundary.values():
        on_stretch[nodes] = True
    walls = {}
    for tag, wall in mirror_planes(piece).items():
        walls.setdefault(wall, []).append(tag)

    outside, crossings, margins = [], [], []
    for (axis, level), tags in walls.items():
        name = f"x{axis + 1} = {level:.6g} ({'/'.join(tags)})"
        d = v[:, axis] - level
        d *= np.sign(np.mean(d))             # positive inside the chamber
        own = np.zeros(len(v), bool)
        for tag in tags:
            own[piece.boundary[tag]] = True
        bad = np.flatnonzero((d <= 0) & ~(own & (d >= -tol)))
        if len(bad):
            i = bad[np.argmin(d[bad])]
            outside.append((d[i], f"{name} vertex {i} at {d[i]:.3e}"))
        n = _seam_crossings(np.delete(v, axis, axis=1),
                            [piece.boundary[tag] for tag in tags])
        if n:
            crossings.append(f"seam on {name}: {n} segment pairs meet")
        margins.append(f"{name} {np.min(d[~on_stretch]):.2e}")
    non_finite = _non_finite("self_intersection", v)
    if non_finite:
        why = f"piece has {non_finite.detail}"
    else:
        why = min(outside)[1] if outside else "; ".join(crossings)
    if not why:
        res = check_self_intersections(v, piece.faces)
        if res.passed:
            return CheckResult("self_intersection", True, 0,
                               "certified by chamber; smallest interior margin "
                               + ", ".join(margins))
        why = f"piece has {res.value} crossing pairs"
    res = check_self_intersections(tower.vertices, tower.faces)
    return CheckResult("self_intersection", res.passed, res.value,
                       f"not certified: {why}; generic check on "
                       f"{len(tower.faces)} faces, {res.detail}")


_BELL_PLANAR_TOL = 1e-6   # share of the bounding-box diagonal


def check_profile_bell(piece: PieceMesh) -> CheckResult:
    """For X = a the lower-mirror profile through the branch point at x must
    be a bell: planar to _BELL_PLANAR_TOL, monotone flank, with a single
    inflection.

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
    ok = planar <= _BELL_PLANAR_TOL*bbox and monotone and sign_changes <= 1
    return CheckResult("profile_bell", ok, sign_changes,
                       f"planar={planar:.2e}, monotone={monotone}")


# ---------------------------------------------------------------------------
# informational diagnostics
# ---------------------------------------------------------------------------

def case_diagnostics(p: SurfaceParams) -> dict:
    """Informational: interior vertical-normal configuration and the range
    of the Gauss-map argument along the outer stretch."""
    s = sym_funcs(p)
    roots, conj_quadruple = vertical_normal_points(s)
    zs = _stretch_samples(p, 64)["BA"]
    theta = np.angle(g_eval(p, zs, w_closed(p, zs)))
    return {
        "vertical_normal_roots": roots,
        "conjugate_quadruple": conj_quadruple,
        "discriminant": float(s.S2*s.S2 - 4.0*s.S4),
        "theta_outer_range": (float(theta.min()), float(theta.max())),
    }
