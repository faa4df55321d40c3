import contextlib
import dataclasses
import itertools
import os
import sys
import threading
import time
from collections import defaultdict

import numpy as np
import pytest
from scipy.spatial import cKDTree

import saddle_forge.mesh as mesh
from _oracles import assemble_oracle, grid_edges, grid_nodes_oracle
from saddle_forge.errors import (BranchInconsistency, InvalidResolution,
                                 WeldMismatch)
from saddle_forge.mesh import (FAR_RADIUS, STRETCHES, AssembledMesh,
                               assemble, build_grid, curvature_stats,
                               edge_increments, export_obj, integrate_piece,
                               mean_curvature_norm, _seam_deviation)
from saddle_forge.params import SurfaceParams
from saddle_forge.periods import resolve_params


# ------------------------------------------------------------------- grid

def test_grid_node_count_scales_with_resolution(solved_params):
    g = build_grid(solved_params, 64)
    assert 64*64 <= len(g.z) <= 4*64*64


def test_grid_rejects_bad_resolution(solved_params):
    with pytest.raises(InvalidResolution):
        build_grid(solved_params, 4)
    with pytest.raises(InvalidResolution):
        build_grid(solved_params, 64.5)
    # the grid radius must clear b + 1, and b comes from outside the program
    p = solved_params
    far_b = SurfaceParams(a=p.a, b=FAR_RADIUS - 0.5, x=p.x, X=p.X, y=p.y)
    with pytest.raises(InvalidResolution):
        build_grid(far_b, 64)


def test_grid_tags_cover_boundary(solved_params):
    g = build_grid(solved_params, 32)
    assert set(g.tags) == set(STRETCHES)
    for tag in STRETCHES:
        assert len(g.tags[tag]) >= 2
    # neighbouring bottom stretches share their endpoint node, except at the
    # punctures a and 1 where the window removes the corner node
    assert len(np.intersect1d(g.tags["LF"], g.tags["FE"])) == 1
    assert len(np.intersect1d(g.tags["DC"], g.tags["CB"])) == 1
    assert len(np.intersect1d(g.tags["CB"], g.tags["BA"])) == 1
    assert len(np.intersect1d(g.tags["ED"], g.tags["DC"])) == 0


def test_grid_arrays_match_nested_loops(solved_params, monkeypatch):
    # quads row-major, the order the face arrays depend on; each quad's loop
    # residual walks its edges ccw: bottom, right, then top and left backward
    monkeypatch.setattr(mesh, "LC_TOL", 1.0)   # res 16 fails the gate
    p = solved_params
    g = build_grid(p, 16)
    alive, idx = g.alive, g.idx
    nr, nc = alive.shape
    E = grid_edges(g)
    rinc = np.real(edge_increments(p, g.z[E[:, 0]], g.z[E[:, 1]]))
    inc = dict(zip(map(tuple, E.tolist()), rinc))
    quads, residuals = [], []
    for i in range(nr - 1):
        for j in range(nc - 1):
            if not (alive[i, j] and alive[i, j + 1]
                    and alive[i + 1, j + 1] and alive[i + 1, j]):
                continue
            a, b, c, d = corners = (idx[i, j], idx[i, j + 1],
                                    idx[i + 1, j + 1], idx[i + 1, j])
            quads.append(corners)
            walk = inc[a, b] + inc[b, c] - inc[d, c] - inc[a, d]
            residuals.append(np.linalg.norm(walk, axis=0))
    assert np.array_equal(g.quads, np.array(quads))
    assert np.array_equal(integrate_piece(g).loop_residuals,
                          np.array(residuals))


@pytest.mark.parametrize("resolution", [16, 32, 64, 128, 256])
def test_grid_columns_match_the_row_loop(solved_params, resolution):
    # build_grid lays out each segment's columns for all rows at once; the
    # nodes keep the bits of the loop over the rows
    g = build_grid(solved_params, resolution)
    nodes = grid_nodes_oracle(solved_params, resolution)
    assert g.alive.shape == nodes.shape
    assert np.array_equal(g.z, nodes[g.alive])


def test_grid_windows_are_dead(solved_params):
    # no node inside either puncture window
    p = solved_params
    g = build_grid(p, 32)
    cut_a = mesh._CUT_FRACTION*min(p.a - p.x, 1.0 - p.a)
    cut_1 = mesh._CUT_FRACTION*min(1.0 - p.a, p.y - 1.0)
    inside_a = (np.abs(g.z.real - p.a) < cut_a - 1e-12) \
        & (g.z.imag < cut_a - 1e-12)
    inside_1 = (np.abs(g.z.real - 1.0) < cut_1 - 1e-12) \
        & (g.z.imag < cut_1 - 1e-12)
    assert not inside_a.any()
    assert not inside_1.any()


def test_grid_is_nested_in_quadrant(solved_params):
    g = build_grid(solved_params, 32)
    assert np.all(g.z.real >= 0.0)
    assert np.all(g.z.imag >= 0.0)
    assert np.max(g.z.real) == pytest.approx(FAR_RADIUS)
    assert np.max(g.z.imag) == pytest.approx(FAR_RADIUS)


# ------------------------------------------------------------- increments

def test_edge_increment_matches_subdivided_path(solved_params):
    # integrating an edge in one piece must agree with summing four subedges.
    # Besides a straight edge, one edge runs out from each singular point,
    # from 3 to 4 of its lengths away: the whole edge takes the point's
    # square-root (x, y, b) or log (a, 1) path and its quarters are straight
    p = solved_params
    z0 = [0.05 + 0.3j, p.b + 0.4 + 0.02j, 0.3 + 0.01j]
    z1 = [0.05 + 0.5j, p.b + 0.6 + 0.02j, 0.34 + 0.01j]
    points = np.array([p.x, p.y, p.b, p.a, 1.0])
    ray = np.exp(1j*np.pi/3)
    for v in points:
        L = 0.01*np.min(np.abs(points[points != v] - v))
        z0.append(v + 3*L*ray)
        z1.append(v + 4*L*ray)
    z0, z1 = np.array(z0), np.array(z1)
    whole = edge_increments(p, z0, z1)
    parts = np.zeros_like(whole)
    for k in range(4):
        za = z0 + (k/4)*(z1 - z0)
        zb = z0 + ((k + 1)/4)*(z1 - z0)
        parts += edge_increments(p, za, zb)
    assert np.allclose(whole, parts, rtol=1e-9, atol=1e-12)


def test_edge_increment_gauss_order_stability(solved_params):
    p = solved_params
    z0 = np.array([0.2 + 0.15j])
    z1 = np.array([0.25 + 0.18j])
    v8 = edge_increments(p, z0, z1, n_gauss=8)
    v20 = edge_increments(p, z0, z1, n_gauss=20)
    assert np.allclose(v8, v20, rtol=1e-11, atol=1e-14)


def test_blocked_edge_increments_equal_per_edge_calls(solved_params):
    # the res-128 grid spans several blocks of mesh._BLOCK edges; each
    # edge's increment has the bits of a call on that edge alone, on either
    # side of every block boundary and on every path kind
    p = solved_params
    g = build_grid(p, 128)
    E = grid_edges(g)
    z0, z1 = g.z[E[:, 0]], g.z[E[:, 1]]
    assert len(z0) > 3*mesh._BLOCK
    inc = edge_increments(p, z0, z1)
    bounds = np.arange(mesh._BLOCK, len(z0), mesh._BLOCK)
    pick = np.unique(np.concatenate([np.arange(0, len(z0), 331), bounds - 1,
                                     bounds, [len(z0) - 1]]))
    kinds = set()
    for e in pick:
        one = edge_increments(p, z0[e:e + 1], z1[e:e + 1])
        assert np.array_equal(one[0], inc[e]), e
        kinds.add(_path_kind(p, z0[e], z1[e]))
    assert kinds == {"straight", "branch", "puncture"}


# ----------------------------------------------------------- threads

def _usable_cpus(monkeypatch, k):
    """k usable CPUs, as mesh._blocks counts them."""
    if hasattr(os, "sched_getaffinity"):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(k)))
    else:
        monkeypatch.setattr(os, "cpu_count", lambda: k)


@contextlib.contextmanager
def _switching_often():
    """A thread switch every microsecond, so that workers interleave."""
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        yield
    finally:
        sys.setswitchinterval(old)


def _within(seconds, fn, *args):
    """fn(*args) on a thread joined with a timeout, so that a deadlock fails
    the test instead of hanging it; fn's exception is raised here."""
    out = []

    def run():
        try:
            out.append((fn(*args), None))
        except BaseException as exc:
            out.append((None, exc))
    t = threading.Thread(target=run, daemon=True)
    t.start()
    t.join(timeout=seconds)
    assert not t.is_alive(), f"no result within {seconds} s"
    result, exc = out[0]
    if exc is not None:
        raise exc
    return result


def test_edge_increments_do_not_depend_on_the_thread_count(solved_params,
                                                           monkeypatch):
    # 8 workers on the res-128 grid's blocks, switching every microsecond:
    # each block writes only its own rows, so every bit is the one-worker
    # run's
    p = solved_params
    g = build_grid(p, 128)
    E = grid_edges(g)
    z0, z1 = g.z[E[:, 0]], g.z[E[:, 1]]
    assert len(z0) > 3*mesh._BLOCK
    _usable_cpus(monkeypatch, 1)
    one = edge_increments(p, z0, z1)
    _usable_cpus(monkeypatch, 8)
    before = threading.active_count()
    with _switching_often():
        many = _within(120, edge_increments, p, z0, z1)
    assert np.array_equal(many.view(np.uint64), one.view(np.uint64))
    assert threading.active_count() == before


def test_export_obj_does_not_depend_on_the_thread_count(piece64, monkeypatch,
                                                        tmp_path):
    tower = assemble(piece64, n_periods=2)
    assert len(tower.faces) > 8*mesh._BLOCK
    _usable_cpus(monkeypatch, 1)
    export_obj(tower, tmp_path/"one.obj")
    _usable_cpus(monkeypatch, 8)
    with _switching_often():
        _within(120, export_obj, tower, tmp_path/"many.obj")
    assert (tmp_path/"many.obj").read_bytes() == \
        (tmp_path/"one.obj").read_bytes()


@pytest.mark.parametrize("failure", ["build", "write"])
def test_export_obj_failure_on_a_middle_block_stops_every_thread(
        piece64, failure, monkeypatch, tmp_path):
    # a worker's exception (the fourth face block) or a failed write of
    # the calling thread (the fourth vertex block) reaches the caller; the
    # workers are joined and the previous file stays, with no temporary
    tower = assemble(piece64, n_periods=2)
    if failure == "build":
        strip, face_blocks = mesh._strip, itertools.count()

        def strip_failing(rows):
            if rows[0, 0] == ord("f") and next(face_blocks) == 3:
                raise RuntimeError("face block failed")
            return strip(rows)
        monkeypatch.setattr(mesh, "_strip", strip_failing)
        expected = RuntimeError
    else:
        monkeypatch.setattr(mesh, "atomic_target",
                            _failing_target(mesh.atomic_target, 5))
        expected = OSError
    path = tmp_path/"tower.obj"
    path.write_bytes(b"previous\n")
    _usable_cpus(monkeypatch, 8)
    before = threading.active_count()
    with _switching_often(), pytest.raises(expected):
        _within(120, export_obj, tower, path)
    assert threading.active_count() == before
    assert path.read_bytes() == b"previous\n"
    assert [p.name for p in tmp_path.iterdir()] == ["tower.obj"]


def test_blocks_keeps_order_and_bounds_the_blocks_in_flight(monkeypatch):
    # 8 threads and a slow caller: results come in block order, no worker
    # starts a block more than two per thread ahead of the caller, and
    # closing the generator early, with workers amid a block, joins them
    _usable_cpus(monkeypatch, 8)
    n = 40*mesh._BLOCK + 7
    lock, started = threading.Lock(), [0]

    def build(lo, hi):
        with lock:
            started[0] += 1
        time.sleep(0.003)
        return lo, hi

    def consume(stop_after):
        got = []
        blocks = mesh._blocks(build, n)
        for b, block in enumerate(blocks):
            time.sleep(0.002)
            with lock:
                assert started[0] <= b + 1 + 2*8
            got.append(block)
            if b + 1 == stop_after:
                blocks.close()
        return got

    before = threading.active_count()
    with _switching_often():
        got = _within(120, consume, None)
    assert got == [(lo, min(lo + mesh._BLOCK, n))
                   for lo in range(0, n, mesh._BLOCK)]
    assert threading.active_count() == before
    started[0] = 0
    with _switching_often():
        assert len(_within(120, consume, 3)) == 3
    assert threading.active_count() == before
    assert started[0] <= 3 + 2*8


def _path_kind(p, z0, z1):
    """The path family edge_increments takes for the edge z0 -> z1."""
    anchors = np.array([p.x, p.y, p.b, p.a, 1.0])
    d = np.minimum(np.abs(z0 - anchors), np.abs(z1 - anchors))
    if d.min() >= mesh._SUB_FACTOR*abs(z1 - z0):
        return "straight"
    return "branch" if np.argmin(d) < 3 else "puncture"


def test_edge_between_two_anchors_keeps_its_path(solved_params):
    # the edge's ends lie as near y as b: the path it takes must not turn on
    # the last bits of the moduli (the two paths' Gauss rules differ by ~1e-6)
    vals = []
    for k in range(40):
        p = dataclasses.replace(solved_params,
                                y=solved_params.y + k*np.finfo(float).eps)
        mid, half = 0.5*(p.y + p.b), 0.3*(p.b - p.y)
        vals.append(edge_increments(p, np.array([mid - half + 0.005j]),
                                    np.array([mid + half + 0.005j]))[0])
    assert np.abs(np.array(vals) - vals[0]).max() < 1e-11


# ------------------------------------------------------------------ piece

def test_loop_closure_at_machine_level(piece64):
    floor = 64*np.finfo(float).eps*np.max(np.abs(piece64.vertices))
    assert np.max(piece64.loop_residuals) <= max(1e-8*np.max(piece64.cell_scales),
                                                 floor)


def test_positions_reproduce_edge_increments(solved_params):
    # every edge difference equals its increment up to the loop-closure
    # residuals enclosed between the edge and the summation path; the
    # len(z) - 1 edges summed along, the top row's horizontal edges and
    # every vertical edge, reproduce it to rounding
    g = build_grid(solved_params, 32)
    piece = integrate_piece(g)
    E0, E1 = grid_edges(g).T
    rinc = np.real(edge_increments(solved_params, g.z[E0], g.z[E1]))
    dev = np.linalg.norm(piece.vertices[E1] - piece.vertices[E0] - rinc, axis=1)
    floor = 64*np.finfo(float).eps*np.max(np.abs(piece.vertices))
    assert np.max(dev) <= np.sum(piece.loop_residuals) + floor
    row = np.nonzero(g.alive)[0]       # the grid row of each node
    summed = (row[E0] != row[E1]) | (row[E0] == len(g.alive) - 1)
    assert np.sum(summed) == len(g.z) - 1
    assert np.max(dev[summed]) <= floor


@pytest.mark.parametrize("hole", ["mid_column", "top_row", "whole_column"])
def test_broken_column_is_a_branch_inconsistency(solved_params, hole):
    # the positions are summed down columns alive from the top row: a dead
    # node above a live one, or a column dead up to the top row, breaks
    # the sums
    g = build_grid(solved_params, 32)
    alive = g.alive.copy()
    col = alive.shape[1]//2
    assert alive[:, col].all()
    rows = {"mid_column": alive.shape[0]//2, "top_row": -1,
            "whole_column": slice(None)}[hole]
    alive[rows, col] = False
    with pytest.raises(BranchInconsistency, match="disconnected"):
        integrate_piece(dataclasses.replace(g, alive=alive))


def test_vertical_period_equals_horizontal_flux(solved, piece64):
    # the tower period from the mesh must reproduce the residue computation
    assert piece64.T == pytest.approx(solved.report.r, rel=1e-6)


def test_symmetry_stretches_are_planar(piece64):
    dev, level_gap = _seam_deviation(piece64)
    bbox = np.linalg.norm(piece64.vertices.max(0) - piece64.vertices.min(0))
    for tag, d in dev.items():
        assert d < 1e-9*bbox, tag
    assert level_gap < 1e-9*bbox


def test_piece_is_minimal_to_discretization_error(piece64):
    assert mean_curvature_norm(piece64.vertices, piece64.faces) < 0.05


def test_curvature_interior_matches_edge_count_loop(piece64):
    faces = piece64.faces
    ecount = defaultdict(int)
    for t in faces:
        for e in ((t[0], t[1]), (t[1], t[2]), (t[2], t[0])):
            ecount[(min(e), max(e))] += 1
    interior = np.ones(len(piece64.vertices), bool)
    for e, c in ecount.items():
        if c == 1:
            interior[list(e)] = False
    _, _, got = curvature_stats(piece64.vertices, faces)
    assert np.array_equal(got, interior)


def test_curvature_stats_flat_sheet_is_exact():
    # planar triangulated sheet: H = 0 in the interior, boundary flagged
    n = 9
    xs, ys = np.meshgrid(np.arange(n), np.arange(n))
    verts = np.c_[xs.ravel(), ys.ravel(), np.zeros(n*n)]
    faces = []
    for i in range(n - 1):
        for j in range(n - 1):
            k = i*n + j
            faces.append((k, k + 1, k + n + 1))
            faces.append((k, k + n + 1, k + n))
    H, A, interior = curvature_stats(verts, np.array(faces))
    assert interior.sum() == (n - 2)*(n - 2)
    assert np.max(H[interior]) < 1e-12


# --------------------------------------------------------------- assemble

def test_assemble_welds_and_is_symmetric(piece64):
    m = assemble(piece64, n_periods=1)
    assert len(m.vertices) < 8*len(piece64.vertices)  # welding happened
    assert m.faces.min() >= 0 and m.faces.max() < len(m.vertices)
    # the full tower is invariant under each coordinate reflection
    bbox = np.linalg.norm(m.vertices.max(0) - m.vertices.min(0))
    keys = {tuple(np.round(v/(1e-9*bbox)).astype(int)) for v in m.vertices}
    for sg in ([-1, 1, 1], [1, -1, 1], [1, 1, -1]):
        mirrored = {tuple(np.round(v*sg/(1e-9*bbox)).astype(int))
                    for v in m.vertices}
        assert mirrored == keys
    # faces are consistently oriented: every interior edge used twice,
    # once per direction
    from collections import Counter
    cnt = Counter()
    for t in m.faces:
        for e in ((t[0], t[1]), (t[1], t[2]), (t[2], t[0])):
            cnt[e] += 1
    for (u, v), c in cnt.items():
        assert c == 1
        assert cnt.get((v, u), 0) <= 1


def _copy_maps(piece, m):
    """Tower vertex of each piece vertex, one row per copy; copies are
    period-major, signs in itertools.product order, and odd copies carry
    reversed faces."""
    nf = len(piece.faces)
    signs = list(itertools.product((1, -1), repeat=3))
    maps = np.full((8*m.n_periods, len(piece.vertices)), -1)
    for c in range(len(maps)):
        fc = m.faces[c*nf:(c + 1)*nf]
        if np.prod(signs[c % 8]) < 0:
            fc = fc[:, ::-1]
        maps[c][piece.faces] = fc
        assert np.array_equal(maps[c][piece.faces], fc)
    return maps, np.array(signs)


@pytest.fixture(scope="module")
def piece64_x3(piece64):
    """piece64 mirrored in x3 = 0.  Its half-period mirror lies above it
    (levels["ED"] > 0, as on no solved member so far), so assemble joins
    the s3 = +1 copies of period k to the s3 = -1 copies of period k + 1."""
    levels = {tag: -level if STRETCHES[tag][0] == 2 else level
              for tag, level in piece64.levels.items()}
    assert piece64.levels["ED"] < 0 < levels["ED"]
    return dataclasses.replace(piece64, vertices=piece64.vertices*[1, 1, -1],
                               levels=levels)


@pytest.mark.parametrize("n_periods", [1, 2])
@pytest.mark.parametrize("piece_name", ["piece64", "piece128", "piece64_x3"])
def test_tower_is_welded_along_every_seam(piece_name, n_periods, request):
    piece = request.getfixturevalue(piece_name)
    m = assemble(piece, n_periods=n_periods)
    assert len(m.faces) == 8*n_periods*len(piece.faces)
    maps, signs = _copy_maps(piece, m)
    used = np.unique(piece.faces)
    v = piece.vertices
    bbox = np.linalg.norm(v.max(0) - v.min(0))
    for c, cmap in enumerate(maps):
        # no two vertices of one copy share a tower vertex
        assert len(np.unique(cmap[used])) == len(used)
        placed = v[used]*signs[c % 8] + [0.0, 0.0, (c//8)*piece.T]
        assert np.max(np.abs(m.vertices[cmap[used]] - placed)) < 1e-9*bbox

    # count the faces on each tower edge
    e = np.sort(m.faces[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2), axis=1)
    keys, count = np.unique(e[:, 0]*len(m.vertices) + e[:, 1],
                            return_counts=True)

    def uses(a, b):
        k = np.minimum(a, b)*len(m.vertices) + np.maximum(a, b)
        pos = np.searchsorted(keys, k)
        assert np.all(keys[pos] == k)
        return count[pos]

    E = grid_edges(piece.grid)
    seam_edges = {tag: E[np.isin(E, piece.boundary[tag]).all(axis=1)]
                  for tag in STRETCHES}
    # the half-period mirror of copy (k, s3) sits at height k*T + s3*ED level;
    # the copy of opposite s3 at the same height is in period k + s3*up
    up = 1 if piece.levels["ED"] > 0 else -1
    for c, cmap in enumerate(maps):
        k, s3 = c//8, signs[c % 8][2]
        for tag, se in seam_edges.items():
            assert len(se) >= 1, tag
            n = uses(cmap[se[:, 0]], cmap[se[:, 1]])
            welded = tag not in ("ED", "BA") or 0 <= k + s3*up < n_periods
            assert np.all(n == (2 if welded else 1)), (tag, c, np.unique(n))


def test_tower_vertices_are_numbered_as_by_unique(piece64):
    # every tower vertex is placed from the least copy-major id c*n + i of
    # its weld group, and the vertices come in the order of those ids: the
    # inverse of np.unique over each id's group minimum is the copy map
    n = len(piece64.vertices)
    m = assemble(piece64, n_periods=3)
    maps, signs = _copy_maps(piece64, m)
    assert maps.min() >= 0
    least = np.full(len(m.vertices), maps.size)
    np.minimum.at(least, maps.ravel(), np.arange(maps.size))
    rep, inv = np.unique(least[maps.ravel()], return_inverse=True)
    assert np.array_equal(inv.reshape(maps.shape), maps)
    c = rep//n
    placed = (piece64.vertices[rep % n]*signs[c % 8]
              + np.outer(c//8*piece64.T, [0.0, 0.0, 1.0]))
    assert np.array_equal(m.vertices, placed)


@pytest.mark.parametrize("n_periods", [1, 2])
@pytest.mark.parametrize("zero_off_mirror", [False, True])
def test_assemble_matches_the_fancy_indexing_oracle(piece32, n_periods,
                                                   zero_off_mirror):
    piece = piece32
    if zero_off_mirror:
        # x1 = 0 on a vertex of FE, which lies in x3 = 0: its weld group's
        # least id can be in a copy that flips x1, placing it at x1 = -0.0
        v = piece.vertices.copy()
        v[piece.boundary["FE"][3], 0] = 0.0
        piece = dataclasses.replace(piece, vertices=v)
    m = assemble(piece, n_periods=n_periods)
    vertices, faces = assemble_oracle(piece, n_periods)
    # the same bits as placing by fancy indexing, the sign of zero included:
    # adding +0.0 turns the -0.0 of a flipped zero coordinate into +0.0,
    # which the OBJ would otherwise print as -0.000000000000e+00
    assert np.array_equal(m.vertices.view(np.uint64), vertices.view(np.uint64))
    assert np.array_equal(m.faces, faces)
    assert not np.any(np.signbit(m.vertices[m.vertices == 0.0]))


@pytest.mark.parametrize("n_periods", [1, 2, 3])
def test_x3_mirrored_piece_builds_the_same_tower(piece64, piece64_x3,
                                                 n_periods):
    # every period holds both x3-signs of the piece, so mirroring the piece
    # changes neither the vertex count nor the point set of the tower
    m = assemble(piece64, n_periods=n_periods)
    mx = assemble(piece64_x3, n_periods=n_periods)
    assert len(mx.vertices) == len(m.vertices)
    assert len(mx.faces) == len(m.faces)
    bbox = np.linalg.norm(m.vertices.max(0) - m.vertices.min(0))
    dist, _ = cKDTree(m.vertices).query(mx.vertices)
    assert dist.max() < 1e-9*bbox


def test_assemble_stacks_periods(piece64):
    m1 = assemble(piece64, n_periods=1)
    m2 = assemble(piece64, n_periods=2)
    z1 = m1.vertices[:, 2].max() - m1.vertices[:, 2].min()
    z2 = m2.vertices[:, 2].max() - m2.vertices[:, 2].min()
    assert z2 - z1 == pytest.approx(piece64.T, rel=1e-9)


def test_assemble_rejects_unsolved_parameters(solved):
    # perturb b away from the period solution: the horizontal levels no
    # longer pair up and welding must refuse
    p_bad = resolve_params(solved.t, solved.X_offset, solved.a,
                           solved.b + 2e-3)
    piece_bad = integrate_piece(build_grid(p_bad, 32))
    with pytest.raises(WeldMismatch):
        assemble(piece_bad)


def test_assemble_rejects_an_open_horizontal_period():
    # the member that solving I - J = 0 gives at t = 0.02: its CB stretch
    # lies at x1 = I + J = 1.92, off LF's mirror x1 = 0, and the tower it
    # would build is doubly periodic
    p = resolve_params(0.02, 0.0, 0.969932910381573, 1.0019612297067058)
    piece = integrate_piece(build_grid(p, 32))
    with pytest.raises(WeldMismatch, match="stretch CB lies"):
        assemble(piece)


def test_assemble_rejects_a_stretch_vertex_off_its_mirror(piece64):
    # one interior vertex of FE leaves the mirror x3 = 0 and the rest of
    # the stretch stays on it: the check reads every vertex, not a mean
    v = piece64.vertices.copy()
    bbox = np.linalg.norm(v.max(axis=0) - v.min(axis=0))
    fe = piece64.boundary["FE"]
    v[fe[len(fe)//2], 2] += 100*mesh.WELD_TOL*bbox
    with pytest.raises(WeldMismatch, match="stretch FE lies"):
        assemble(dataclasses.replace(piece64, vertices=v))


@pytest.mark.xfail(raises=BranchInconsistency, strict=True,
                   reason="a needle cell on CB closes to 1.3e-6 of its size "
                          "at res 16; the conformal regrade of ROADMAP "
                          "direction 2 removes it")
def test_reference_member_closes_at_res_16_under_lc_tol_1e_6(solved_params,
                                                           monkeypatch):
    monkeypatch.setattr(mesh, "LC_TOL", 1e-6)
    integrate_piece(build_grid(solved_params, 16))


# ----------------------------------------------------------------- export

def test_export_obj_deterministic_and_round_trips(piece64, solved, tmp_path):
    m = assemble(piece64, n_periods=1)
    p1 = tmp_path/"a.obj"
    p2 = tmp_path/"b.obj"
    export_obj(m, p1, pi1=solved.report.pi1, pi2=solved.report.pi2)
    export_obj(m, p2, pi1=solved.report.pi1, pi2=solved.report.pi2)
    b1 = p1.read_bytes()
    assert b1 == p2.read_bytes()
    lines = b1.decode().splitlines()
    assert lines[0].startswith("# pi1=") and "pi2=" in lines[0]

    verts, faces = [], []
    for ln in lines:
        if ln.startswith("v "):
            verts.append([float(u) for u in ln.split()[1:]])
        elif ln.startswith("f "):
            faces.append([int(u) - 1 for u in ln.split()[1:]])
    verts = np.array(verts)
    faces = np.array(faces)
    assert len(verts) == len(m.vertices)
    assert np.array_equal(faces, m.faces)
    # writing the parsed mesh back is byte-identical (stable format width)
    from saddle_forge.mesh import AssembledMesh
    m2 = AssembledMesh(vertices=verts, faces=faces, T=m.T, n_periods=1)
    p3 = tmp_path/"c.obj"
    export_obj(m2, p3, pi1=solved.report.pi1, pi2=solved.report.pi2)
    assert p3.read_bytes() == b1


def test_export_obj_matches_line_writer(piece64, tmp_path):
    lines = [f"# pi1={1.25e-12:.17g} pi2={-3.5e-11:.17g}", "# piece"]
    lines += ["v %.12e %.12e %.12e" % (v[0], v[1], v[2])
              for v in piece64.vertices]
    lines += ["f %d %d %d" % (f[0] + 1, f[1] + 1, f[2] + 1)
              for f in piece64.faces]
    path = tmp_path/"piece.obj"
    export_obj(piece64, path, pi1=1.25e-12, pi2=-3.5e-11, comment="piece")
    assert path.read_bytes() == ("\n".join(lines) + "\n").encode()


def _line_writer(vertices, faces):
    """The OBJ text of `export_obj` at pi1 = pi2 = 0, one row at a time."""
    lines = [f"# pi1={0.0:.17g} pi2={0.0:.17g}"]
    lines += ["v %.12e %.12e %.12e" % tuple(v) for v in vertices.tolist()]
    lines += ["f %d %d %d" % tuple(f) for f in (faces + 1).tolist()]
    return ("\n".join(lines) + "\n").encode()


def _export_bytes(vertices, faces, path):
    export_obj(AssembledMesh(vertices=vertices, faces=faces, T=1.0,
                             n_periods=1), path)
    return path.read_bytes()


def test_export_obj_matches_line_writer_on_edge_values(tmp_path):
    # signed zeros, a NaN with its sign bit set ('%.12e' prints 'nan'
    # whatever the sign), infinities, the smallest subnormal, three-digit
    # exponents, a value whose mantissa rounds up into the next decade and
    # an exact tie, rounded half to even
    vals = np.array([0.0, -0.0, np.nan, np.copysign(np.nan, -1.0), np.inf,
                     -np.inf, 5e-324, -5e-324, 1e-100, -1e-100, 1e300,
                     -1e300, 9.9999999999995, -9.9999999999995, 1.0, -0.1,
                     123.456, 2.0**-20, -2.0**-20])
    V = np.column_stack([vals, vals[::-1], np.roll(vals, 5)])
    V = np.concatenate([V, -V, V[::2]])
    assert "1.000000000000e+01" in "%.12e" % 9.9999999999995
    F = np.arange(3*len(V)).reshape(-1, 3) % len(V)
    assert _export_bytes(V, F, tmp_path/"edge.obj") == _line_writer(V, F)


@pytest.mark.parametrize("n", [1, 9, 10, 99, 100, 101, 9999, 10000, 10001,
                               123457])
def test_export_obj_matches_line_writer_at_index_widths(n, tmp_path):
    rng = np.random.default_rng(n)
    V = rng.normal(scale=10.0**rng.integers(-3, 4, (n, 1)), size=(n, 3))
    # column-major like the piece's faces, so rows are not contiguous
    F = np.asfortranarray(rng.integers(0, n, size=(2*n + 1, 3)))
    F[0] = (n - 1, 0, n - 1)
    assert _export_bytes(V, F, tmp_path/"w.obj") == _line_writer(V, F)


def _python_fields(u):
    """'%19.12e' % u[i] as (len(u), 19) bytes with spaces NUL."""
    text = ("%19.12e"*len(u)) % tuple(u.tolist())
    f = np.frombuffer(text.encode(), np.uint8).reshape(-1, 19)
    return f*(f != ord(" "))


def _decimal_ties(rng, size):
    """Doubles halfway between two 13-digit decimals: m*2^-e = m*5^e*10^-e
    with m*5^e a 14-digit odd number, so its last digit is a 5."""
    e = rng.integers(1, 20, size)
    p5 = 5**e
    lo, hi = -(-10**13//p5), (10**14 - 1)//p5
    m = lo + rng.integers(0, 2**62, size) % (hi - lo + 1)
    odd = m % 2 == 1
    ints = 10*rng.integers(10**12, 10**13, size) + 5     # 14 digits, exact
    return np.concatenate([np.ldexp(m[odd].astype(float), -e[odd]),
                           ints.astype(float)])


def test_magnitude_fields_match_python_formatting(piece32):
    rng = np.random.default_rng(23)
    ten = np.array([float(f"1e{k}") for k in range(-323, 309)])
    tiny = np.finfo(float).tiny
    cases = {
        # non-negative bit patterns: NaNs, infinities, subnormals, 3-digit
        # exponents and any normal value
        "random bits": rng.integers(0, 2**63, 600_000).view(float),
        "log-uniform": 10.0**rng.uniform(-20, 3, 600_000),
        "powers of two": np.ldexp(1.0, np.arange(-1074, 1024)),
        "powers of ten": np.concatenate([ten, np.nextafter(ten, 0.0),
                                         np.nextafter(ten, np.inf)]),
        "ties": _decimal_ties(rng, 100_000),
        "edge": np.array([0.0, 5e-324, np.nextafter(tiny, 0.0), tiny,
                          9.9999999999995, np.nextafter(9.9999999999995, 0.0),
                          np.nextafter(9.9999999999995, 20.0), 9.99e-100,
                          1e-99, 9.9999999999995e99, 1e100, 1.5e-150,
                          np.finfo(float).max, np.inf, np.nan,
                          np.copysign(np.nan, -1.0)]),
        "res-32 piece": np.unique(np.abs(piece32.vertices)),
    }
    groups = mesh._digit_groups()
    for name, u in cases.items():
        fields, slow = mesh._magnitude_fields(u, groups)
        want = _python_fields(u)
        bad = np.flatnonzero(np.any(fields != want, axis=1))
        assert len(bad) == 0, (name, len(bad), u[bad[:5]].tolist())
        if name == "log-uniform":
            assert len(slow) <= 10      # within 1e-6 of a tie: 1.2 expected
        if name == "ties":
            assert len(slow) == len(u)
        if name == "res-32 piece":
            assert 0.0 in u[slow] and len(slow) <= 3
    assert "%.12e" % 2.0**-20 == "9.536743164062e-07"   # half to even


@pytest.mark.parametrize("piece_name, n_periods", [
    ("piece32", 0), ("piece32", 1), ("piece32", 2), ("piece32", 3),
    ("piece64_x3", 2)], ids=["piece", "tower-1", "tower-2", "tower-3",
                             "x3-mirrored-tower-2"])
def test_export_obj_matches_line_writer_on_orbits(piece_name, n_periods,
                                                  request, tmp_path):
    # a tower's rows come from its source ids: x1 and x2 of the piece, x3
    # of the piece in the first period and from one variant per period and
    # x3 sign after that (the mirrored piece has its half-period mirror
    # above it); a piece has no ids and is its own orbit
    piece = request.getfixturevalue(piece_name)
    m = assemble(piece, n_periods=n_periods) if n_periods else piece
    assert (getattr(m, "source", None) is not None) == bool(n_periods)
    path = tmp_path/"t.obj"
    export_obj(m, path)
    assert path.read_bytes() == _line_writer(m.vertices, m.faces)


@pytest.mark.parametrize("wrong", ["rolled", "x3-variant"])
def test_export_obj_rejects_ids_that_name_other_magnitudes(piece32, wrong,
                                                           tmp_path):
    # negative control: ids that pair a vertex with another point of the
    # orbit raise, and the previous file stays
    m = assemble(piece32, n_periods=2)
    n = m.piece_size
    source = m.source.copy()
    if wrong == "rolled":
        source = np.roll(source, 1)
    else:
        # one vertex of period 1 named by the copy with the other x3 sign:
        # the same |x1|, |x2| and piece vertex, x3 from the wrong variant
        c, i = np.divmod(source, n)
        j = np.flatnonzero((c >= 8) & (np.abs(piece32.vertices[i, 2]) > 1.0))[0]
        source[j] = (c[j] ^ 1)*n + i[j]
    path = tmp_path/"t.obj"
    path.write_bytes(b"previous\n")
    with pytest.raises(WeldMismatch):
        export_obj(dataclasses.replace(m, source=source), path)
    assert path.read_bytes() == b"previous\n"
    assert [p.name for p in tmp_path.iterdir()] == ["t.obj"]


class _FailingWriter:
    """A file whose write number `fail_at` raises ENOSPC."""

    def __init__(self, fh, fail_at):
        self.fh, self.fail_at, self.writes = fh, fail_at, 0

    def write(self, data):
        self.writes += 1
        if self.writes == self.fail_at:
            raise OSError(28, "No space left on device")
        return self.fh.write(data)


def _failing_target(atomic_target, fail_at):
    """atomic_target, with write number fail_at failing."""
    @contextlib.contextmanager
    def target(path):
        with atomic_target(path) as fh:
            yield _FailingWriter(fh, fail_at)
    return target


def test_export_obj_of_an_empty_mesh_is_its_header(tmp_path):
    # no vertex and no face: one empty block of each, and no rows
    V, F = np.zeros((0, 3)), np.zeros((0, 3), int)
    assert _export_bytes(V, F, tmp_path/"e.obj") == _line_writer(V, F)


@pytest.mark.parametrize("failure", ["disk_full", "bad_face_index"])
def test_export_obj_failure_keeps_previous_file(failure, tmp_path,
                                                monkeypatch):
    import saddle_forge.mesh as mesh_mod
    V = np.arange(3*50, dtype=float).reshape(-1, 3)
    F = np.arange(3*40).reshape(-1, 3) % len(V)
    if failure == "disk_full":
        # the third write, after the header and the vertex block
        monkeypatch.setattr(mesh_mod, "atomic_target",
                            _failing_target(mesh_mod.atomic_target, 3))
        expected = OSError
    else:
        F[-1, 1] = len(V)
        expected = ValueError
    path = tmp_path/"tower.obj"
    path.write_bytes(b"previous\n")
    with pytest.raises(expected):
        _export_bytes(V, F, path)
    # the error came after the header and the vertex rows had been written
    assert path.read_bytes() == b"previous\n"
    assert [p.name for p in tmp_path.iterdir()] == ["tower.obj"]


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_export_obj_writes_into_a_pipe_in_place(tmp_path):
    # renaming a finished file over a pipe or a device (-o /dev/stdout)
    # would replace it; such a target is written directly
    import stat
    import threading
    fifo = tmp_path/"pipe"
    os.mkfifo(fifo)
    got = []
    reader = threading.Thread(target=lambda: got.append(fifo.read_bytes()),
                              daemon=True)
    reader.start()
    V = np.arange(12, dtype=float).reshape(-1, 3)
    F = np.array([[0, 1, 2], [1, 2, 3]])
    export_obj(AssembledMesh(vertices=V, faces=F, T=1.0, n_periods=1), fifo)
    reader.join(timeout=30)
    assert not reader.is_alive()
    assert got == [_line_writer(V, F)]
    assert stat.S_ISFIFO(os.stat(fifo).st_mode)


def _small_mesh():
    V = np.arange(12, dtype=float).reshape(-1, 3)
    F = np.array([[0, 1, 2], [1, 2, 3]])
    return AssembledMesh(vertices=V, faces=F, T=1.0, n_periods=1)


def test_export_obj_through_a_symlink_writes_its_target(tmp_path):
    # a rename would replace the link with a plain file and leave the file
    # it points to as it was
    target = tmp_path/"store"/"tower.obj"
    target.parent.mkdir()
    target.write_bytes(b"previous\n")
    link = tmp_path/"tower.obj"
    link.symlink_to(target)
    m = _small_mesh()
    export_obj(m, link)
    assert link.is_symlink()
    assert target.read_bytes() == _line_writer(m.vertices, m.faces)
    assert sorted(p.name for p in tmp_path.rglob("*")) == [
        "store", "tower.obj", "tower.obj"]


_STDOUT_PROBE = """
import sys
import numpy as np
from saddle_forge.mesh import AssembledMesh, export_obj

V = np.arange(12, dtype=float).reshape(-1, 3)
F = np.array([[0, 1, 2], [1, 2, 3]])
export_obj(AssembledMesh(vertices=V, faces=F, T=1.0, n_periods=1),
           sys.argv[1])
"""


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"),
                    reason="needs /proc/self/fd")
def test_export_obj_to_stdout_link_sent_to_a_file(tmp_path):
    # `saddle-forge mesh -o /dev/stdout > tower.obj`, with a link of our own
    # to the process's fd 1 in place of /dev/stdout: the text must reach the
    # redirected file, and the link must not be renamed over
    import subprocess
    import sys
    import saddle_forge
    src = os.path.dirname(os.path.dirname(saddle_forge.__file__))
    link = tmp_path/"stdout"
    link.symlink_to("/proc/self/fd/1")
    out = tmp_path/"tower.obj"
    with open(out, "wb") as fh:
        res = subprocess.run([sys.executable, "-c", _STDOUT_PROBE, str(link)],
                             stdout=fh, stderr=subprocess.PIPE, cwd=tmp_path,
                             timeout=300,
                             env={"PATH": "/usr/bin:/bin", "PYTHONPATH": src,
                                  "OPENBLAS_NUM_THREADS": "1",
                                  "OMP_NUM_THREADS": "1"})
    assert res.returncode == 0, res.stderr.decode()
    m = _small_mesh()
    assert out.read_bytes() == _line_writer(m.vertices, m.faces)
    assert os.readlink(link) == "/proc/self/fd/1"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["stdout",
                                                          "tower.obj"]


def test_export_obj_skips_a_stale_temporary(tmp_path):
    # a killed run with the same pid (a container's PID 1) leaves its
    # temporary behind; the next export must not trip over it
    path = tmp_path/"tower.obj"
    stale = tmp_path/f".tower.obj.{os.getpid()}.0.tmp"
    stale.write_bytes(b"stale\n")
    m = _small_mesh()
    export_obj(m, path)
    assert path.read_bytes() == _line_writer(m.vertices, m.faces)
    assert stale.read_bytes() == b"stale\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        ["tower.obj", stale.name])


def test_export_obj_writes_in_place_when_the_folder_takes_no_file(
        tmp_path, monkeypatch):
    # a writable file in a read-only folder: no temporary can be made
    # beside it, so the file itself is overwritten.  The folder's refusal
    # is simulated, since permission bits do not bind every user.
    import builtins
    import saddle_forge.files as files_mod

    def no_new_file(file, mode="r", *args, **kwargs):
        if "x" in mode:
            raise PermissionError(13, "Permission denied", file)
        return builtins.open(file, mode, *args, **kwargs)
    monkeypatch.setattr(files_mod, "open", no_new_file, raising=False)
    path = tmp_path/"tower.obj"
    path.write_bytes(b"previous\n")
    m = _small_mesh()
    export_obj(m, path)
    assert path.read_bytes() == _line_writer(m.vertices, m.faces)
    assert [p.name for p in tmp_path.iterdir()] == ["tower.obj"]
    # with no file to overwrite, the refusal is the error
    with pytest.raises(PermissionError):
        export_obj(m, tmp_path/"new.obj")
    assert [p.name for p in tmp_path.iterdir()] == ["tower.obj"]
