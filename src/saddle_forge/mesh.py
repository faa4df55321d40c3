"""Meshing of the fundamental piece and assembly of the periodic tower.

The fundamental domain is the closed first quadrant of the z-plane.  A
tensor-product grid is laid over it (graded columns along the real axis,
exponentially graded rows in the imaginary direction), with two rectangular
windows removed around the end punctures z = a and z = 1.  Column clustering
toward the punctures and branch points is softened row by row with height,
so the grid keeps pure tensor topology (no hanging nodes).  The softening
does not prevent slivers: at resolution 128 a fifth of the triangles have
aspect ratio above 1e3, and the first-row edges on BA near z = FAR_RADIUS
are shorter than 1e-9 of the bounding box.

Positions come from integrating the Weierstrass forms edge by edge with
Gauss quadrature, every edge along one path family z = v + delta(s) with s
linear: delta = s from v = 0 for a straight edge, delta = s^2 from a nearby
branch point v, delta = e^s from a nearby puncture v.  Deforming the path
is legitimate because the forms are holomorphic between the singularities.
The increments lie on the grid's layout, one array per edge direction with
zeros on dead edges.  They are summed along the top row and then down each
column; per-cell loop-closure residuals (the signed sum of the four edge
slices around each quad) certify the integration; they sit at the rounding
floor for a correct branch of w.

The assembled tower is the orbit of the piece under the three coordinate
reflections and vertical translations by the period T.  One table,
STRETCHES, names the mirror each boundary stretch lies in; it fixes the
normalization of the piece and which copies share each stretch's vertices,
so the copies are welded by index, never by comparing coordinates.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .errors import BranchInconsistency, InvalidResolution, WeldMismatch
from .files import atomic_target
from .params import SurfaceParams
from .quad import gauss_legendre_01
# phi_vec is not called here; bench/tracing.py wraps mesh.phi_vec by name
from .weier import phi_vec, phi_vec_delta

_REF_RES = 64
_GAMMA = 1.0          # softening strength of column clustering with height
_SUB_FACTOR = 10.0    # switch to substituted paths within 10 edge lengths
_ETA_ROWS_PER_64 = 3.3
_CUT_FRACTION = 0.3   # puncture window, share of the gap to the next point
FAR_RADIUS = 20.0     # the grid covers the quadrant out to this |Re z|, Im z
# rows per block of the edge integration and of the OBJ writer: a block's
# temporaries stay in cache, and larger OBJ blocks are no faster and only
# raise the peak memory of an export
_BLOCK = 1 << 14

# The boundary stretches in boundary order, each with the mirror it lies
# in: the axis the mirror fixes and its plane, ORIGIN (through 0) or
# HALF_PERIOD (x3 = levels["ED"], joining adjacent periods).  Welding, the
# mirror check and the chamber walls all read this table.
ORIGIN, HALF_PERIOD = "origin", "half-period"
STRETCHES = {
    "AL": (1, ORIGIN),
    "LF": (0, ORIGIN),
    "FE": (2, ORIGIN),
    "ED": (2, HALF_PERIOD),
    "DC": (2, ORIGIN),
    "CB": (0, ORIGIN),
    "BA": (2, HALF_PERIOD),
}
WELD_TOL = 1e-9      # welded vertices agree to this fraction of the bbox
LC_TOL = 1e-8        # a quad closes its loop to this fraction of its size


def stretch_intervals(p: SurfaceParams, far: float) -> dict:
    """Extent of each boundary stretch out to radius far: for AL the range
    of t on z = i t, for the others the range of z on the real axis."""
    return {"AL": (0.0, far), "LF": (0.0, p.x), "FE": (p.x, p.a),
            "ED": (p.a, 1.0), "DC": (1.0, p.y), "CB": (p.y, p.b),
            "BA": (p.b, far)}


def _u_sym(s):
    return s**4/(s**4 + (1 - s)**4)


def _u_right(s):
    return 1.0 - (1.0 - s)**4


def _u_left(s):
    return s**4


# the grid columns run along the real-axis stretches: per stretch, the
# grading map of its columns and their count at reference resolution 64
_COLUMNS = {"LF": (_u_right, 20), "FE": (_u_sym, 20), "ED": (_u_sym, 70),
            "DC": (_u_sym, 22), "CB": (_u_sym, 15), "BA": (_u_left, 25)}


@dataclass
class DomainGrid:
    p: SurfaceParams
    alive: np.ndarray        # (rows, cols) node mask (windows removed)
    idx: np.ndarray          # node index or -1
    z: np.ndarray            # flat complex node positions
    quads: np.ndarray        # (n_quads, 4) node indices, ccw in the grid
    tags: dict = field(default_factory=dict)   # tag -> node index array


@dataclass
class PieceMesh:
    grid: DomainGrid
    vertices: np.ndarray         # (n, 3)
    faces: np.ndarray            # (2*n_quads, 3) triangles
    loop_residuals: np.ndarray   # per quad
    cell_scales: np.ndarray      # per quad, largest edge increment norm
    boundary: dict               # tag -> vertex index array (grid order)
    levels: dict                 # tag -> mean coordinate on its mirror's axis
    T: float                     # vertical period of the tower


@dataclass
class AssembledMesh:
    vertices: np.ndarray
    faces: np.ndarray
    T: float
    n_periods: int


def build_grid(p: SurfaceParams, resolution: int) -> DomainGrid:
    """Grid over the first quadrant out to FAR_RADIUS with puncture windows
    removed.

    resolution is a linear density knob; node counts scale linearly with it
    and the reference layout is tuned at resolution 64.
    """
    p.validate()
    if not isinstance(resolution, (int, np.integer)) or resolution < 8:
        raise InvalidResolution(f"resolution must be an integer >= 8, got {resolution!r}")
    if p.b + 1.0 >= FAR_RADIUS:
        raise InvalidResolution(f"the grid radius {FAR_RADIUS} must exceed "
                                f"b + 1 = {p.b + 1.0}")
    a, x, y = p.a, p.x, p.y
    cut_a = _CUT_FRACTION*min(a - x, 1.0 - a)
    cut_1 = _CUT_FRACTION*min(1.0 - a, y - 1.0)

    # rows: exponential grading from eta ~ FAR_RADIUS*(res/2)^-4 (clamped
    # well below the z = 1 window so first-row vertical edges never straddle
    # the pole)
    etaf = min(FAR_RADIUS*(0.5*resolution)**(-4.0), 0.25*cut_1)
    lam = np.log(FAR_RADIUS/etaf)
    n_eta = int(np.ceil(_ETA_ROWS_PER_64*lam*resolution/_REF_RES))
    s = np.arange(0, n_eta + 1)/n_eta
    eta = FAR_RADIUS*np.expm1(lam*s)/np.expm1(lam)

    # columns: graded segments, softened toward uniform where the local row
    # spacing exceeds what the clustering could match
    intervals = stretch_intervals(p, FAR_RADIUS)
    deta = lam*np.maximum(eta, eta[1])[:, None]/n_eta
    segments = [np.zeros((len(eta), 1))]
    for tag, (umap, n64) in _COLUMNS.items():
        A, B = intervals[tag]
        n = int(np.ceil(n64*resolution/_REF_RES))
        ss = np.arange(1, n + 1)/n
        wsoft = np.minimum(1.0, _GAMMA*n*deta/(B - A))    # one per row
        segments.append(A + (B - A)*((1.0 - wsoft)*umap(ss) + wsoft*ss))
    xs2d = np.concatenate(segments, axis=1)

    tol = 1e-13
    alive = ~(((np.abs(xs2d - a) < cut_a - tol) & (eta[:, None] < cut_a - tol))
              | ((np.abs(xs2d - 1.0) < cut_1 - tol) & (eta[:, None] < cut_1 - tol)))
    idx = -np.ones(xs2d.shape, int)
    idx[alive] = np.arange(alive.sum())
    z = (xs2d + 1j*eta[:, None])[alive]

    # quads row-major, ccw from the lower-left corner
    q = alive[:-1, :-1] & alive[:-1, 1:] & alive[1:, 1:] & alive[1:, :-1]
    quads = np.stack([idx[:-1, :-1][q], idx[:-1, 1:][q],
                      idx[1:, 1:][q], idx[1:, :-1][q]], axis=1)

    # boundary tags: AL is the imaginary-axis column; the rest partition the
    # bottom row by the marked points, endpoints shared between neighbours
    tags = {"AL": idx[:, 0][alive[:, 0]]}
    xi0 = xs2d[0]
    alive0 = alive[0]
    for tag in _COLUMNS:
        lo, hi = intervals[tag]
        m = alive0 & (xi0 >= lo - tol) & (xi0 <= hi + tol)
        tags[tag] = idx[0][m]
    return DomainGrid(p=p, alive=alive, idx=idx, z=z, quads=quads, tags=tags)


def edge_increments(p: SurfaceParams, z0: np.ndarray, z1: np.ndarray,
                    n_gauss: int = 8) -> np.ndarray:
    """Integral of (phi1, phi2, phi3) from z0 to z1 for each edge.

    Every edge is integrated along a path z = v + delta(s) with s linear
    between its endpoints' s-values.  A straight edge has v = 0 and
    delta = s.  An edge whose nearest singularity lies within _SUB_FACTOR
    edge lengths is anchored there instead: delta = s^2 at a branch point
    v (the integrand becomes analytic in s) and delta = e^s at a puncture
    v (exact for the simple-pole part).  Path deformation is allowed
    because the forms are holomorphic between singularities, so the
    loop-closure telescoping of shared edges is preserved exactly.

    The edges are integrated in blocks of _BLOCK, one phi_vec_delta call
    per block and Gauss node, and each substitution and its derivative is
    evaluated on its own edges only.  Every step is elementwise, so an
    edge's increment has the same bits in any block.
    """
    gl_x, gl_w = gauss_legendre_01(n_gauss)
    # branch points first, so that a tie takes the square-root path; an
    # edge centred between two anchors ties with them to within rounding,
    # and takes the first whatever the last bits of the moduli
    anchors = np.array([p.x, p.y, p.b, p.a, 1.0])
    d = np.minimum(np.abs(z0[:, None] - anchors), np.abs(z1[:, None] - anchors))
    j = np.argmax(d <= d.min(axis=1, keepdims=True)*(1.0 + 1e-9), axis=1)
    near = d[np.arange(len(z0)), j] < _SUB_FACTOR*np.abs(z1 - z0)
    at_b, at_p = near & (j < 3), near & (j >= 3)
    v = np.where(near, anchors[j], 0.0)

    s0, s1 = np.stack([z0, z1]) - v
    s0[at_b], s1[at_b] = np.sqrt(s0[at_b]), np.sqrt(s1[at_b])
    s0[at_p], s1[at_p] = np.log(s0[at_p]), np.log(s1[at_p])
    ds = s1 - s0
    acc = np.zeros((len(z0), 3), complex)
    for lo in range(0, len(z0), _BLOCK):
        e = slice(lo, lo + _BLOCK)
        ib, ip = np.flatnonzero(at_b[e]), np.flatnonzero(at_p[e])
        ddelta = np.ones(len(acc[e]), complex)
        for xg, wg in zip(gl_x, gl_w):
            delta = s0[e] + xg*ds[e]      # s, and delta on a straight edge
            s = delta[ib]
            delta[ib], ddelta[ib] = s*s, 2.0*s
            delta[ip] = ddelta[ip] = np.exp(delta[ip])
            f = phi_vec_delta(p, v[e], delta)
            f *= wg     # in place: no (n, 3) temporary per node
            f *= ddelta[:, None]
            acc[e] += f
    acc *= ds[:, None]
    return acc


def integrate_piece(grid: DomainGrid) -> PieceMesh:
    """Positions by summing real edge increments along the grid's top row,
    then down each column: the domain is simply connected, so every path
    gives the same positions, and the cells' loop closure certifies them.

    The increments lie on the grid's layout: dx on the horizontal edges,
    (rows, cols - 1), and dy on the vertical ones, (rows - 1, cols), zero
    where an end is dead.  Every grid quad provides a loop-closure residual
    from the four slices around it; each must stay below LC_TOL times the
    cell scale (largest edge increment of the quad), with an absolute floor
    at the rounding level of the coordinates.
    """
    # the sums need the top row alive and each column alive from there down
    # to a window
    alive = grid.alive
    if not alive[-1].all() or np.any(alive[:-1] & ~alive[1:]):
        raise BranchInconsistency("grid is disconnected: a dead node on the "
                                  "top row or above a live one")
    # every edge between live nodes in one call, horizontal then vertical
    h, v = alive[:, :-1] & alive[:, 1:], alive[:-1] & alive[1:]
    i0 = np.concatenate([grid.idx[:, :-1][h], grid.idx[:-1][v]])
    i1 = np.concatenate([grid.idx[:, 1:][h], grid.idx[1:][v]])
    inc = np.real(edge_increments(grid.p, grid.z[i0], grid.z[i1]))
    dx = np.zeros(h.shape + (3,))
    dy = np.zeros(v.shape + (3,))
    dx[h], dy[v] = np.split(inc, [int(h.sum())])

    # each quad's edges along its ccw walk: bottom, right, -top, -left
    q = h[:-1] & h[1:] & v[:, :-1] & v[:, 1:]
    sides = dx[:-1][q], dy[:, 1:][q], dx[1:][q], dy[:, :-1][q]
    bottom, right, top, left = sides
    lc = np.linalg.norm(bottom + right - top - left, axis=1)
    scale = np.max([np.linalg.norm(e, axis=1) for e in sides], axis=0)

    # the top row's positions, then each other node's step from the node
    # above it, summed down the columns
    step = np.zeros(alive.shape + (3,))
    step[-1, 1:] = np.cumsum(dx[-1], axis=0)
    step[:-1] = -dy
    pos = np.cumsum(step[::-1], axis=0)[::-1][alive]

    boundary = {tag: np.asarray(nodes) for tag, nodes in grid.tags.items()}

    # normalization: each axis's first ORIGIN stretch (AL, LF, FE) is moved
    # onto its mirror; every other stretch's level is the mean coordinate
    # it lands on
    levels, anchored = {}, set()
    for tag, (axis, plane) in STRETCHES.items():
        level = float(np.mean(pos[boundary[tag], axis]))
        if plane == ORIGIN and axis not in anchored:
            pos[:, axis] -= level
            anchored.add(axis)
            level = 0.0
        levels[tag] = level
    T = 2.0*abs(levels["ED"])

    floor = 64*np.finfo(float).eps*np.max(np.abs(pos))
    bad = lc > np.maximum(LC_TOL*scale, floor)
    if bad.any():
        q = int(np.argmax(lc/np.maximum(scale, 1e-300)))
        raise BranchInconsistency(
            f"{int(bad.sum())} cells violate loop closure; worst residual "
            f"{lc[q]:.3e} at cell scale {scale[q]:.3e}")

    tris = np.concatenate([grid.quads[:, [0, 1, 2]], grid.quads[:, [0, 2, 3]]])
    return PieceMesh(grid=grid, vertices=pos, faces=tris, loop_residuals=lc,
                     cell_scales=scale, boundary=boundary, levels=levels,
                     T=float(T))


def mirror_planes(piece: PieceMesh) -> dict:
    """tag -> (axis, level), the mirror x[axis] = level of a welded stretch."""
    half = piece.levels["ED"]
    return {tag: (axis, half if plane == HALF_PERIOD else 0.0)
            for tag, (axis, plane) in STRETCHES.items()}


def _seam_deviation(piece: PieceMesh):
    """Max deviation of each stretch from its own level, and the largest
    level gap of a welded stretch from its mirror (nonzero where the period
    problem is not solved)."""
    v, bd = piece.vertices, piece.boundary
    dev, gap = {}, 0.0
    for tag, (axis, level) in mirror_planes(piece).items():
        dev[tag] = float(np.max(np.abs(v[bd[tag], axis] - piece.levels[tag])))
        gap = max(gap, abs(piece.levels[tag] - level))
    return dev, gap


def assemble(piece: PieceMesh, n_periods: int = 1) -> AssembledMesh:
    """Orbit of the piece under {+-x1} x {+-x2} x {+-x3} and k*T*e3.

    Copy c is period c // 8 with signs in itertools.product order, so bits
    4, 2, 1 of c flip x1, x2, x3.  Each welded stretch lies in the mirror
    of one reflection (STRETCHES), and the copies that reflection pairs
    share its vertices: within a period for a mirror through 0, across
    adjacent periods for the half-period mirror.  Vertices are welded by
    these index maps, never by coordinates.  A stretch vertex off its
    mirror (unsolved period parameters) or welded vertices more than
    WELD_TOL times the bounding-box diagonal apart raise WeldMismatch.
    """
    if not isinstance(n_periods, (int, np.integer)) or n_periods < 1:
        raise InvalidResolution(f"n_periods must be an integer >= 1, got {n_periods!r}")
    v = piece.vertices
    n = len(v)
    bbox = np.linalg.norm(v.max(axis=0) - v.min(axis=0))
    tol = WELD_TOL*bbox
    planes = mirror_planes(piece)
    off = {tag: np.max(np.abs(v[piece.boundary[tag], axis] - level))
           for tag, (axis, level) in planes.items()}
    worst = max(off, key=off.get)
    if off[worst] > tol:
        axis, level = planes[worst]
        raise WeldMismatch(
            f"stretch {worst} lies {off[worst]:.3e} off its mirror "
            f"x{axis + 1} = {level:.6g}, beyond tol {tol:.3e} -- period "
            f"problem not solved")

    signs = np.array(list(itertools.product((1.0, -1.0), repeat=3)))
    copies = np.arange(8*n_periods)
    n_copies = len(copies)
    # at the half-period mirror the s3 = +1 copies of period k meet the
    # s3 = -1 copies of period k + up
    up = 1 if piece.levels["ED"] > 0 else -1
    k_up = copies//8 + up
    lo = copies[(copies % 2 == 0) & (0 <= k_up) & (k_up < n_periods)]
    seams = [(tag, lo, lo + 8*up + 1) if plane == HALF_PERIOD
             else (tag, copies, copies ^ (4 >> axis))
             for tag, (axis, plane) in STRETCHES.items()]
    ia = np.concatenate([(c0*n)[:, None] + piece.boundary[tag]
                         for tag, c0, _ in seams], axis=None)
    ib = np.concatenate([(c1*n)[:, None] + piece.boundary[tag]
                         for tag, _, c1 in seams], axis=None)

    # every vertex takes the smallest copy-major id of its welded group
    label = np.arange(n_copies*n)
    while True:
        m = np.minimum(label[ia], label[ib])
        if np.array_equal(m, label[ia]) and np.array_equal(m, label[ib]):
            break
        np.minimum.at(label, ia, m)
        np.minimum.at(label, ib, m)
    # each group's minimum labels itself, so the roots, in id order, are
    # the tower's vertices and a vertex's index is its root's rank
    root = label == np.arange(n_copies*n)
    rep = np.flatnonzero(root)
    per_copy = (np.cumsum(root) - 1)[label].reshape(n_copies, n)
    if np.any(np.diff(np.sort(per_copy, axis=1), axis=1) == 0):
        raise WeldMismatch("weld merged two vertices of one copy")

    def place(ids):
        c, i = np.divmod(ids, n)
        x = np.take(v, i, axis=0)
        x *= np.take(signs, c % 8, axis=0)
        x += 0.0        # a flipped zero coordinate is -0.0: make it +0.0
        x[:, 2] += c//8*piece.T
        return x

    merged = np.flatnonzero(~root)
    gap = np.max(np.linalg.norm(place(merged) - place(label[merged]), axis=1),
                 initial=0.0)
    if gap > tol:
        raise WeldMismatch(f"welded vertices {gap:.3e} apart, beyond {tol:.3e}")
    # placed before the faces are allocated, so that the temporaries of
    # placing do not add to the faces at the peak memory
    vertices = place(rep)

    # a copy with an odd number of flips reverses its triangles' orientation
    F = piece.faces
    odd = np.prod(signs[copies % 8], axis=1) < 0
    faces = np.empty((n_copies, len(F), 3), per_copy.dtype)
    for c in copies:
        np.take(per_copy[c], F[:, ::-1] if odd[c] else F, out=faces[c])
    return AssembledMesh(vertices=vertices, faces=faces.reshape(-1, 3),
                         T=piece.T, n_periods=n_periods)


def curvature_stats(vertices: np.ndarray, faces: np.ndarray):
    """Cotangent-Laplacian mean-curvature magnitude per vertex.

    Returns (H, area_weight, interior_mask); boundary vertices (incident to
    an edge with a single face) are excluded from the mask because the
    one-ring formula is meaningless there.
    """
    nnode = len(vertices)
    v0 = vertices[faces[:, 0]]
    v1 = vertices[faces[:, 1]]
    v2 = vertices[faces[:, 2]]
    nrm = np.cross(v1 - v0, v2 - v0)
    dblA = np.linalg.norm(nrm, axis=1)

    def cot(pA, pB, pC):
        u_ = pB - pA
        w_ = pC - pA
        return (np.einsum("ij,ij->i", u_, w_)
                / np.maximum(np.linalg.norm(np.cross(u_, w_), axis=1), 1e-300))

    c0, c1, c2 = cot(v0, v1, v2), cot(v1, v2, v0), cot(v2, v0, v1)
    L = np.zeros((nnode, 3))
    A = np.zeros(nnode)
    for (ia, ib, cw) in ((1, 2, c0), (2, 0, c1), (0, 1, c2)):
        d = vertices[faces[:, ib]] - vertices[faces[:, ia]]
        np.add.at(L, faces[:, ia], cw[:, None]*d)
        np.add.at(L, faces[:, ib], -cw[:, None]*d)
    for k in range(3):
        np.add.at(A, faces[:, k], dblA/6.0)

    # an edge used by a single face is a boundary edge
    e = np.sort(faces[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2), axis=1)
    keys, count = np.unique(e[:, 0].astype(np.int64)*nnode + e[:, 1],
                            return_counts=True)
    bnd = keys[count == 1]
    interior = np.ones(nnode, bool)
    interior[bnd//nnode] = False
    interior[bnd % nnode] = False
    H = np.linalg.norm(L, axis=1)/(4.0*np.maximum(A, 1e-300))
    return H, A, interior


def mean_curvature_norm(vertices: np.ndarray, faces: np.ndarray) -> float:
    """Area-weighted mean of |H| over interior vertices (the convergence
    norm of the minimality check)."""
    H, A, interior = curvature_stats(vertices, faces)
    w = A[interior]
    return float(np.sum(w*H[interior])/np.sum(w))


def export_obj(mesh, path, pi1: float = 0.0, pi2: float = 0.0,
               comment: str | None = None):
    """Deterministic OBJ writer; the header records the period residuals.

    The text is byte for byte that of the row formats ``"v %.12e %.12e
    %.12e"`` and ``"f %d %d %d"`` (1-based), written without formatting every
    number in Python.  A tower is reflections and translations of one piece,
    so a column holds few distinct magnitudes.  Each distinct ``|x|`` of a
    column is formatted once; a coordinate is that text behind a '-' when
    its sign bit is set.  This is exact because the decimal conversion is
    correctly rounded, hence symmetric in sign: ``"%.12e" % -x == "-" +
    "%.12e" % x``, for -0.0 and -inf too.  NaN is the exception: ``"%.12e"``
    prints ``nan`` whatever its sign bit, so a NaN never takes the '-'.  The
    magnitudes are formatted in numpy from a double-double product with a
    power of ten (see _magnitude_fields); Python's ``"%.12e"`` formats only
    those within 1e-6 of a rounding tie in the 13th digit, zero, subnormals,
    infinities, NaN and three-digit exponents.  Face indices are gathered
    from a table of the digits of 1..n_vertices.  Every row gather is one
    ``np.take`` along the rows of a table.  Rows are built in fixed-width
    byte blocks whose padding is NUL, then stripped.

    The file is written through files.atomic_target: a failed write leaves
    any earlier file in place and no partial one, and a symlink, a pipe or
    a device is written in place.
    """
    head = f"# pi1={pi1:.17g} pi2={pi2:.17g}\n"
    if comment:
        head += f"# {comment}\n"
    with atomic_target(path) as fh:
        _write_obj(fh, head, mesh)


def _write_obj(fh, head, mesh):
    fh.write(head.encode())
    groups = _digit_groups()
    V = np.asarray(mesh.vertices, dtype=float)
    cols = [_coordinate_table(V[:, c], groups) for c in range(3)]
    # 'v' + 3 x (' ' + sign + 19-byte magnitude) + '\n'
    buf = np.zeros((min(len(V), _BLOCK), 65), np.uint8)
    buf[:, [1, 22, 43]] = ord(" ")
    buf[:, 0], buf[:, 64] = ord("v"), ord("\n")
    for s in range(0, len(V), _BLOCK):
        rows = buf[:min(_BLOCK, len(V) - s)]
        for c, (key, table) in enumerate(cols):
            rows[:, 2 + 21*c:22 + 21*c] = np.take(table, key[s:s + len(rows)],
                                                  axis=0)
        _write_block(fh, rows)
    del cols

    F = np.asarray(mesh.faces)
    if F.size and (F.min() < 0 or F.max() >= len(V)):
        raise ValueError(f"face index out of range 0..{len(V) - 1}")
    digits = _index_table(len(V), groups)
    w = 3*digits.shape[1]
    buf = np.zeros((min(len(F), _BLOCK), w + 2), np.uint8)
    buf[:, 0], buf[:, -1] = ord("f"), ord("\n")
    for s in range(0, len(F), _BLOCK):
        rows = buf[:min(_BLOCK, len(F) - s)]
        rows[:, 1:-1] = np.take(digits, F[s:s + len(rows)],
                                axis=0).reshape(len(rows), w)
        _write_block(fh, rows)


def _write_block(fh, rows):
    flat = rows.reshape(-1)
    fh.write(flat[flat != 0])


def _digit_groups():
    """Row i is the four ASCII digits of i, i = 0..9999."""
    i = np.arange(10**4)
    return (np.stack([i//1000, i//100 % 10, i//10 % 10, i % 10], axis=1)
            + ord("0")).astype(np.uint8)


def _coordinate_table(x, groups):
    """(key, table) with table[key[i]] the 20-byte NUL-padded field holding
    '%.12e' % x[i]; each distinct |x| is formatted once."""
    mag = np.abs(x)
    order = np.argsort(mag)
    srt = mag[order]
    first = np.empty(len(srt), bool)
    first[:1] = True
    np.not_equal(srt[1:], srt[:-1], out=first[1:])
    uniq = srt[first]
    # row 2i of the table is uniq[i], row 2i + 1 the same behind a '-'
    key = np.empty(len(x), np.int32)
    key[order] = 2*(np.cumsum(first, dtype=np.int32) - 1)
    del order, srt, first
    key += np.signbit(x) & ~np.isnan(x)
    table = np.zeros((len(uniq), 2, 20), np.uint8)
    table[:, :, 1:] = _magnitude_fields(uniq, groups)[0][:, None]
    table[:, 1, 0] = ord("-")
    return key, table.reshape(-1, 20)


# the distance from a rounding tie, in units of the 13th digit, within which
# a magnitude is formatted in Python, and the largest decimal exponent
# formatted in numpy (the field has room for two exponent digits)
_TIE_GUARD = 1e-6
_MAX_EXP = 99


def _magnitude_fields(u, groups):
    """('%19.12e' % u[i] as (len(u), 19) bytes with spaces NUL, indices of
    the u[i] formatted by Python) for u >= 0 or NaN.

    With E = floor(log10 u), the 13 digits are u*10^(12 - E) rounded to an
    integer.  The product is formed as a double-double: 10^(12 - E) is the
    pair hi + lo of correctly rounded doubles (_power_of_ten), u*hi is
    Dekker's error-free product, and u*lo joins its error term, so the sum
    is within about 2^-100 relative of the exact product.  log10 can make E
    one off next to a power of ten; a product outside [10^12, 10^13) moves
    E by one.  A product still outside by a rounding error rounds to 10^12,
    or to 10^13 and carries into the next decade: the digits the other E
    would give.  The rounding is exact wherever the product lies further
    than _TIE_GUARD from a tie.  Python's correctly rounded "%19.12e"
    formats the rest: values that near a tie (2^-20 is one, and rounds half
    to even), zero, subnormals, infinities, NaN and |E| > _MAX_EXP.
    """
    out = np.zeros((len(u), 19), np.uint8)
    by_python = np.ones(len(u), bool)
    with np.errstate(divide="ignore", invalid="ignore"):
        E = np.floor(np.log10(u))
    fast = np.flatnonzero((u >= np.finfo(float).tiny)
                          & (np.abs(E) <= _MAX_EXP))
    if len(fast):
        m, e = u[fast], E[fast].astype(np.int64)
        # row r of hi10, lo10 is 10^(k0 + r), for every 12 - E with E from
        # one below the least e to one above the largest
        k0 = 11 - int(e.max())
        hi10, lo10 = np.array([_power_of_ten(k)
                               for k in range(k0, 14 - int(e.min()))]).T
        r = 12 - k0 - e
        p = m*np.take(hi10, r)
        r -= p >= 1e13      # E one too small
        r += p < 1e12       # E one too large
        b = np.take(hi10, r)
        p = m*b
        (mh, ml), (bh, bl) = _split(m), _split(b)
        lo = ((mh*bh - p) + mh*bl + ml*bh) + ml*bl + m*np.take(lo10, r)
        whole = np.floor(p)
        frac = (p - whole) + lo
        digits = (whole + (frac > 0.5)).astype(np.int64)
        e = 12 - k0 - r
        carry = digits == 10**13
        digits[carry] = 10**12
        e += carry
        by_python[fast] = ((np.abs(frac - 0.5) <= _TIE_GUARD)
                           | (np.abs(e) > _MAX_EXP))

        lead, digits = np.divmod(digits, 10**12)
        f = np.zeros((len(fast), 19), np.uint8)
        f[:, 1] = lead + ord("0")
        f[:, 2] = ord(".")
        f[:, 3:7] = np.take(groups, digits//10**8, axis=0)
        f[:, 7:11] = np.take(groups, digits//10**4 % 10**4, axis=0)
        f[:, 11:15] = np.take(groups, digits % 10**4, axis=0)
        f[:, 15] = ord("e")
        f[:, 16] = np.where(e < 0, ord("-"), ord("+"))
        f[:, 17:] = np.take(groups, np.abs(e), axis=0)[:, 2:]
        out[fast] = f
    slow = np.flatnonzero(by_python)
    text = ("%19.12e"*len(slow)) % tuple(u[slow].tolist())
    f = np.frombuffer(text.encode(), np.uint8).reshape(-1, 19)
    out[slow] = f*(f != ord(" "))
    return out, slow


def _power_of_ten(k):
    """10^k as a double-double: the nearest double, and the rest rounded,
    both correctly rounded quotients of exact integers."""
    num, den = (10**k, 1) if k >= 0 else (1, 10**-k)
    hi = num/den
    a, b = hi.as_integer_ratio()
    return hi, (num*b - a*den)/(den*b)


def _split(a):
    """Dekker's split a = hi + lo, each with at most 26 significant bits, so
    that products of halves are exact."""
    c = 134217729.0*a       # 2^27 + 1
    hi = c - (c - a)
    return hi, a - hi


def _index_table(n, groups):
    """Row k-1 is ' ' + the digits of k, NUL-padded on the left, k = 1..n."""
    w = len(str(n))
    table = np.zeros((n + 1, w + 1), np.uint8)     # row k holds k, k = 0..n
    table[:, 0] = ord(" ")
    # the q-th group of four digits from the right runs through 0..9999 and
    # again, each value held for 10^q rows; the leftmost is cut to fit
    for q in range(0, w, 4):
        run = np.repeat(np.resize(groups, (n//10**q + 1, 4)), 10**q, axis=0)
        stop = w + 1 - q
        start = max(1, stop - 4)
        table[:, start:stop] = run[:n + 1, 4 - (stop - start):]
    # leading zeros: column c is NUL while k < 10^(w - c)
    for c in range(1, w):
        table[:10**(w - c), c] = 0
    return table[1:]
