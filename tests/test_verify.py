import dataclasses
import hashlib
import itertools
import random

import numpy as np
import pytest

import saddle_forge.mesh as mesh
import saddle_forge.verify as verify
from _oracles import (collision_pairs_oracle, shares_vertex_oracle,
                      tri_tri_intersect_oracle)
from saddle_forge.errors import (ContourTooClose, InvalidResolution,
                                 NotApplicable)
from saddle_forge.mesh import (STRETCHES, AssembledMesh, assemble,
                               build_grid, integrate_piece)
from saddle_forge.params import SurfaceParams, sym_funcs
from saddle_forge.verify import (SYMMETRY_TABLE, case_diagnostics,
                                 check_injectivity, check_profile_bell,
                                 check_self_intersections,
                                 check_symmetry_table, check_tower_embedded,
                                 degree_diagnostic)

P0 = SurfaceParams(a=0.5, b=2.0, x=0.3, X=0.5, y=1.5)


# --------------------------------------------------------- symmetry table

def test_symmetry_table_holds_generic():
    results = check_symmetry_table(P0)
    assert all(r.passed for r in results), [r for r in results if not r.passed]


def test_symmetry_table_holds_at_solution(solved_params):
    assert all(r.passed for r in check_symmetry_table(solved_params))


def _scalar_residual(value, kind, sign):
    # the per-sample loop the symmetry check ran before it took arrays
    m = max(abs(value), 1e-300)
    if kind == "mod1":
        return abs(abs(value) - 1.0)
    along, across = (value.real, value.imag) if kind == "re" \
        else (value.imag, value.real)
    res = abs(across)/m
    return max(res, 1.0) if sign*along < 0 else res


def test_cond_residual_matches_per_sample_loop():
    rng = np.random.default_rng(17)
    vals = rng.normal(size=48) + 1j*rng.normal(size=48)
    vals[:8] = vals[:8].real        # exactly real, both signs
    vals[8:16] = 1j*vals[8:16].imag   # exactly imaginary, both signs
    vals[16:24] /= np.abs(vals[16:24])  # unit circle
    for kind, sign in (("re", 1), ("re", -1), ("im", 1), ("im", -1),
                       ("mod1", 0)):
        expected = max(_scalar_residual(complex(v), kind, sign) for v in vals)
        # numpy's and Python's complex abs may differ in the last bit
        assert verify._cond_residual(vals, kind, sign) == pytest.approx(
            expected, rel=4*np.finfo(float).eps)


def test_symmetry_table_negative_control(monkeypatch):
    # flipping one stretch's mirror must make the check fail: AL lies in
    # x2 = 0 and carries real g; in x1 = 0 it would carry imaginary g
    broken = dict(STRETCHES)
    _, plane = broken["AL"]
    broken["AL"] = (0, plane)
    monkeypatch.setattr(verify, "STRETCHES", broken)
    assert not all(r.passed for r in check_symmetry_table(P0))


def test_symmetry_kinds_follow_from_the_mirrors():
    # the table the kinds were once stated in, stretch by stretch
    kinds = {"AL": ("re", "im"), "LF": ("im", "re"), "FE": ("mod1", "im"),
             "ED": ("mod1", "im"), "DC": ("mod1", "im"), "CB": ("im", "re"),
             "BA": ("mod1", "im")}
    for tag, (gk, dk) in kinds.items():
        gs, ds = SYMMETRY_TABLE[tag]
        assert verify._symmetry_conditions(tag) == ((gk, gs), (dk, ds))


# ------------------------------------------------------- degree diagnostic

def test_gauss_map_degree_is_five(solved_params):
    out = degree_diagnostic(solved_params)
    assert out["degree"] == 5
    assert out["total"] + 4*out["interior_vertical_points"] == 5
    assert len(out["windings"]) == 8


def test_gauss_map_degree_is_five_generic():
    assert degree_diagnostic(P0)["degree"] == 5


def test_degree_rejects_probe_on_boundary_values():
    # g = 1 is attained on the contour (top of the imaginary axis)
    with pytest.raises(ContourTooClose):
        degree_diagnostic(P0, probe=1.0 + 0.0j)


# ------------------------------------------------------------ injectivity

def test_injectivity_passes_on_piece(piece64):
    res = check_injectivity(piece64.vertices)
    assert res.passed
    assert res.value == 0


def test_injectivity_negative_control(piece64):
    # duplicating a small vertex set guarantees sampled collisions
    v = np.tile(piece64.vertices[:50], (2, 1))
    res = check_injectivity(v)
    assert not res.passed
    assert res.value > 0


def test_sample_pairs_follow_the_seed():
    n = 1000
    i, j = verify._sample_pairs(n, 7)
    again = verify._sample_pairs(n, 7)
    assert np.array_equal(i, again[0]) and np.array_equal(j, again[1])
    assert not np.array_equal(i[:n], verify._sample_pairs(n, 8)[0][:n])
    assert np.all(i != j) and max(i.max(), j.max()) < n
    # every index is drawn about as often as a uniform draw would
    counts = np.bincount(np.concatenate([i, j]), minlength=n)
    mean = 2*len(i)/n
    assert np.all(np.abs(counts - mean) < 7*np.sqrt(mean))
    with pytest.raises(InvalidResolution):
        verify._sample_pairs(n, -1)


def test_sample_pairs_stream_is_pinned():
    # the bytes behind _sample_pairs at the default seed; the same digest on
    # every Python version and platform the suite runs on is what lets a
    # seed draw the same pairs everywhere
    stream = random.Random(verify.DEFAULT_SEED).randbytes(
        8*verify._INJECTIVITY_PAIRS)
    assert hashlib.sha256(stream).hexdigest().startswith("18675846b8ad9a8d")


@pytest.mark.parametrize("n", [0, 1])
def test_injectivity_without_a_vertex_pair(n):
    res = check_injectivity(np.zeros((n, 3)))
    assert (res.passed, res.value, res.detail) == (True, 0, "0 pairs sampled")


def _collision_tol(vertices):
    bbox = np.linalg.norm(vertices.max(axis=0) - vertices.min(axis=0))
    return verify._COLLISION_TOL*bbox


def test_collision_oracle_finds_planted_pairs(piece64):
    # copies of five vertices, each moved by just under the tolerance
    v = piece64.vertices
    tol = _collision_tol(v)
    planted = v[:5] + 0.99*tol/np.sqrt(3)*np.array([1.0, -1.0, 1.0])
    n = len(v)
    assert collision_pairs_oracle(np.vstack([v, planted]), tol) == \
        {(i, n + i) for i in range(5)}


def test_piece_has_no_colliding_vertex_pair_at_res_64(piece64):
    # every pair, not the sample check_injectivity draws
    v = piece64.vertices
    assert collision_pairs_oracle(v, _collision_tol(v)) == set()


@pytest.mark.xfail(strict=True, reason=(
    "ROADMAP direction 2: at res 128 the first-row vertical edges on BA "
    "near the corner at infinity (Re z 13.5-20, Im z < 1.8e-6) are shorter "
    "than the collision tolerance; check_injectivity's sample misses them"))
def test_piece_has_no_colliding_vertex_pair_at_res_128(piece128):
    v = piece128.vertices
    assert collision_pairs_oracle(v, _collision_tol(v)) == set()


# ------------------------------------------------------ self-intersection

def _tri_mesh(tris):
    verts = np.array([q for t in tris for q in t], float)
    faces = np.arange(len(verts)).reshape(-1, 3)
    return verts, faces


def test_self_intersection_detects_crossing_pair():
    v, f = _tri_mesh([
        [(0, 0, 0), (2, 0, 0), (0, 2, 0)],
        [(0.5, 0.5, -1), (1.0, 0.5, 1), (0.5, 1.0, 1)],
    ])
    res = check_self_intersections(v, f)
    assert not res.passed
    assert res.value == 1


def test_non_finite_vertex_fails_the_mesh_checks():
    # a NaN vertex makes the bounding box NaN and every tolerance comparison
    # false, so without the verdict a crossing pair and a duplicated vertex
    # would pass
    v, f = _tri_mesh([
        [(0, 0, 0), (2, 0, 0), (0, 2, 0)],
        [(0.5, 0.5, -1), (1.0, 0.5, 1), (0.5, 1.0, 1)],
    ])
    v = np.vstack([v, v[:1], [(np.nan, 0.0, 1.0)], [(0.0, np.inf, 0.0)]])
    for res in (check_self_intersections(v, f), check_injectivity(v)):
        assert (res.passed, res.value) == (False, 2)
        assert res.detail == "2 non-finite vertices, the first 7 at (nan, 0.0, 1.0)"
    assert check_self_intersections(v[:6], f).value == 1
    assert check_injectivity(v[:7]).value > 0


def test_self_intersection_ignores_disjoint_and_touching():
    v, f = _tri_mesh([
        [(0, 0, 0), (1, 0, 0), (0, 1, 0)],
        [(5, 5, 5), (6, 5, 5), (5, 6, 5)],        # far away
        [(0, 0, 1e-3), (1, 0, 1e-3), (0, 1, 1e-3)],  # parallel, no crossing
    ])
    res = check_self_intersections(v, f)
    assert res.passed


def test_self_intersection_excludes_shared_vertex_neighbours(piece64):
    # a folded fan shares vertices; such pairs are seam neighbours, not hits
    v, f = _tri_mesh([[(0, 0, 0), (1, 0, 0), (0, 1, 0)]])
    v = np.vstack([v, [(1, 1, 1)]])
    f = np.vstack([f, [(0, 1, 3)]])
    assert check_self_intersections(v, f).passed


@pytest.mark.parametrize("n_faces, n_vertices",
                         [(0, 0), (0, 1), (0, 3), (1, 3)])
def test_self_intersection_without_a_face_pair(n_faces, n_vertices):
    v, f = _tri_mesh([[(0, 0, 0), (1, 0, 0), (0, 1, 0)]])
    res = check_self_intersections(v[:n_vertices], f[:n_faces])
    assert (res.passed, res.value, res.detail) == \
        (True, 0, "0 candidate pairs tested")


@pytest.fixture(scope="module")
def piece20_and_copy(solved_params):
    # a small piece for the all-pairs box test; res 20 closes its worst cell
    # to 3.5e-7 of the cell size, so it builds under a looser LC_TOL
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(mesh, "LC_TOL", 1e-6)
        piece = integrate_piece(build_grid(solved_params, 20))
    v = np.vstack([piece.vertices, piece.vertices + 1e-3])
    f = np.vstack([piece.faces, piece.faces + len(piece.vertices)])
    return v, f


def _box_cases(piece20_and_copy, piece32, eps):
    """(lo, hi, eps_abs) inputs of the broad phase: two meshes, random boxes
    of a power-of-two count and one more, identical boxes (every median
    split ties), one and two boxes, and touching 2-D boxes at eps 0."""
    cases = []
    # the res-32 piece is the needle-heavy mesh `verify --resolution 32`
    # checks
    for v, f in (piece20_and_copy, (piece32.vertices, piece32.faces)):
        tri = v[f]
        lo, hi = tri.min(axis=1), tri.max(axis=1)
        eps_abs = eps*np.linalg.norm(v.max(axis=0) - v.min(axis=0))
        ext = np.max(hi - lo, axis=1) + 2*eps_abs
        assert ext.max() > 8*np.percentile(ext, 1)      # strongly graded
        cases.append((lo, hi, eps_abs))
    rng = np.random.default_rng(5)
    for n in (256, 257):
        lo = rng.uniform(0.0, 1.0, (n, 3))
        cases.append((lo, lo + rng.exponential(0.05, (n, 3)), eps))
    lo, hi = np.full((9, 3), 0.25), np.full((9, 3), 0.5)
    cases += [(lo, hi, eps), (lo[:1], hi[:1], eps), (lo[:2], hi[:2], eps)]
    for gap in (0.5*eps, 2*eps):        # two boxes within eps, and not
        lo = np.array([(0.0, 0.0, 0.0), (0.0, 0.0, 1.0 + gap)])
        cases.append((lo, lo + 1.0, eps))
    # unit squares on a grid meet their 8 neighbours on an edge or a corner,
    # and degenerate boxes (a point, a segment) only what they touch
    grid = np.stack(np.meshgrid(np.arange(5.0), np.arange(4.0)), -1).reshape(-1, 2)
    lo = np.vstack([grid, [(1.5, 1.0), (3.0, 2.5)]])
    hi = np.vstack([grid + 1.0, [(1.5, 1.0), (3.0, 3.5)]])
    cases.append((lo, hi, 0.0))
    return cases


@pytest.mark.parametrize("eps", [1e-9, 1e-3])
def test_candidate_pairs_match_all_pairs_box_test(piece20_and_copy, piece32,
                                                  eps):
    # the broad phase yields every near pair of boxes exactly once, on the
    # boxes in the order given and in the tree's leaf order
    for lo, hi, eps_abs in _box_cases(piece20_and_copy, piece32, eps):
        near = np.all((lo[:, None] <= hi[None] + eps_abs)
                      & (lo[None] <= hi[:, None] + eps_abs), axis=2)
        want = np.argwhere(np.triu(near, k=1))
        order = verify._tree_order(lo, hi)
        assert np.array_equal(np.sort(order), np.arange(len(lo)))
        for perm in (np.arange(len(lo)), order):
            got = np.zeros((0, 2), int)
            for i, j in verify._candidate_pairs(lo[perm], hi[perm], eps_abs):
                assert np.all(i < j)
                got = np.vstack([got, np.stack([perm[i], perm[j]], axis=1)])
            got.sort(axis=1)
            assert len(np.unique(got, axis=0)) == len(got)      # no repeats
            assert np.array_equal(np.unique(got, axis=0), want)


@pytest.mark.parametrize("name", ["piece32", "piece20_and_copy"])
def test_share_test_and_narrow_phase_match_fancy_index_oracles(request, name):
    # the column-wise share test and the np.take gathers of the narrow phase
    # give the masks of the broadcast and fancy-index forms on every candidate
    m = request.getfixturevalue(name)
    v, f = (m.vertices, m.faces) if name == "piece32" else m
    tri = v[f]
    eps_abs = verify._CROSSING_EPS*np.linalg.norm(v.max(axis=0) - v.min(axis=0))
    normals = np.cross(tri[:, 1] - tri[:, 0], tri[:, 2] - tri[:, 0])
    i, j = map(np.concatenate, zip(*verify._candidate_pairs(
        tri.min(axis=1), tri.max(axis=1), eps_abs)))
    share = verify._shares_vertex(f.T, i, j)
    assert share.any() and not share.all()
    assert np.array_equal(share, shares_vertex_oracle(f, i, j))
    cross = verify._tri_tri_intersect(tri, normals, i, j, eps_abs)
    assert np.array_equal(
        cross, tri_tri_intersect_oracle(tri, normals, i, j, eps_abs))
    assert cross[~share].any() == (name == "piece20_and_copy")


def test_self_intersection_embedded_piece(piece64):
    res = check_self_intersections(piece64.vertices, piece64.faces)
    assert res.passed
    assert res.value == 0


@pytest.mark.slow
def test_self_intersection_offset_copy_negative_control(piece64):
    # overlaying a slightly shifted copy of the piece forces real crossings
    m = assemble(piece64, n_periods=1)
    shift = 1e-3*np.array([1.0, 1.0, 1.0])
    v = np.vstack([m.vertices, m.vertices + shift])
    f = np.vstack([m.faces, m.faces + len(m.vertices)])
    res = check_self_intersections(v, f)
    assert not res.passed
    assert res.value > 0


# ------------------------------------------------- chamber certificate

# the res-64 case runs the pair search on a whole tower (about 10 s)
@pytest.mark.parametrize("name", ["piece32",
                                  pytest.param("piece64", marks=pytest.mark.slow)])
def test_tower_certified_by_chamber(request, name):
    piece = request.getfixturevalue(name)
    tower = assemble(piece, n_periods=2)
    res = check_tower_embedded(piece, tower)
    assert res.passed and res.value == 0
    assert res.detail.startswith("certified by chamber"), res.detail
    assert check_self_intersections(tower.vertices, tower.faces).value == 0


@pytest.mark.parametrize("shift, wall", [((-1e-2, 0, 0), "x1 = 0"),
                                         ((0, 1e-2, 0), "x2 = 0"),
                                         ((0, 0, 1e-2), "x3 = 0")],
                         ids=["x1", "x2", "x3"])
def test_chamber_negative_control(piece32, shift, wall):
    # the piece pushed across one wall: the certificate must refuse and the
    # generic check on the tower must decide.  assemble refuses a piece off
    # its mirrors, so the two-period tower is its 16 placed copies, unwelded
    piece = dataclasses.replace(piece32, vertices=piece32.vertices + shift)
    signs = np.array(list(itertools.product((1.0, -1.0), repeat=3)))
    n = len(piece.vertices)
    vertices, faces = [], []
    for c in range(16):
        vertices.append(piece.vertices*signs[c % 8] + [0.0, 0.0, c//8*piece.T])
        odd = np.prod(signs[c % 8]) < 0
        faces.append(c*n + (piece.faces[:, ::-1] if odd else piece.faces))
    tower = AssembledMesh(np.vstack(vertices), np.vstack(faces), piece.T, 2)
    res = check_tower_embedded(piece, tower)
    assert not res.passed
    assert res.detail.startswith(f"not certified: {wall} "), res.detail
    generic = check_self_intersections(tower.vertices, tower.faces)
    assert res.value == generic.value > 0


@pytest.mark.parametrize("where, reason", [("seam", "seam on x3 = "),
                                           ("piece", "piece has ")],
                         ids=["seam", "piece"])
def test_crossing_inside_the_chamber_is_not_certified(piece32, where, reason):
    # two vertices trade places and stay inside the chamber (two neighbours
    # on the ED stretch stay on its wall), but the seam polyline or the
    # piece then crosses itself
    if where == "seam":
        i, j = piece32.boundary["ED"][5:7]
    else:
        on_stretch = np.zeros(len(piece32.vertices), bool)
        for nodes in piece32.boundary.values():
            on_stretch[nodes] = True
        inner = np.flatnonzero(~on_stretch)
        i, j = inner[len(inner)//3], inner[2*len(inner)//3]
    v = piece32.vertices.copy()
    v[[i, j]] = v[[j, i]]
    piece = dataclasses.replace(piece32, vertices=v)
    tower = assemble(piece, n_periods=2)
    res = check_tower_embedded(piece, tower)
    assert not res.passed
    assert res.detail.startswith(f"not certified: {reason}"), res.detail
    generic = check_self_intersections(tower.vertices, tower.faces)
    assert res.value == generic.value > 0


def test_tower_with_a_non_finite_vertex_is_not_certified(piece32):
    v = piece32.vertices.copy()
    v[100] = np.nan
    piece = dataclasses.replace(piece32, vertices=v)
    res = check_tower_embedded(piece, assemble(piece, n_periods=2))
    assert not res.passed
    assert res.detail.startswith(
        "not certified: piece has 1 non-finite vertices, the first 100 at "
        "(nan, nan, nan); generic check on "), res.detail


def test_seam_crossings_in_the_plane():
    pts = np.array([(0, 0), (1, 1), (1, 0), (0, 1), (2, 0), (3, 1), (2, 1)],
                   float)
    assert verify._seam_crossings(pts, [np.array([0, 1, 2])]) == 0
    assert verify._seam_crossings(pts, [np.array([0, 1, 2, 3])]) == 1   # bow tie
    assert verify._seam_crossings(pts, [np.array([0, 1]), np.array([2, 3])]) == 1
    assert verify._seam_crossings(pts, [np.array([4, 5]), np.array([4, 6])]) == 0
    # touching without a shared vertex counts
    assert verify._seam_crossings(pts, [np.array([0, 4]), np.array([2, 1])]) == 1


# ------------------------------------------------------------ bell profile

def test_profile_bell(piece64):
    res = check_profile_bell(piece64)
    assert res.passed, res.detail


def test_profile_bell_not_applicable_off_axis(piece64):
    p_off = SurfaceParams(a=0.9, b=1.2, x=0.88, X=0.91, y=1.05)
    grid_off = dataclasses.replace(piece64.grid, p=p_off)
    piece_off = dataclasses.replace(piece64, grid=grid_off)
    with pytest.raises(NotApplicable):
        check_profile_bell(piece_off)


# -------------------------------------------------------------- diagnostics

def test_case_diagnostics_reports_quartic_roots(solved_params):
    out = case_diagnostics(solved_params)
    s = sym_funcs(solved_params)
    for r in out["vertical_normal_roots"]:
        assert abs(r**4 + s.S2*r*r + s.S4) < 1e-8
    assert out["conjugate_quadruple"] == (out["discriminant"] < 0)
    lo, hi = out["theta_outer_range"]
    assert -np.pi <= lo <= hi <= np.pi
