"""End-to-end acceptance gate.

Nine pinned criteria covering the full pipeline: algebraic structure of the
curve data, the flux residues against independent contour oracles, the
implicit solve for the third modulus, the two-dimensional period solve, the
rotated-data identities, mesh convergence under refinement, embeddedness of
the assembled tower, the bell-shaped mirror profile, and robustness of the
solver across the two-parameter family.  Tolerances and budgets are fixed
here and are not to be loosened to make a failing build pass.
"""
import time

import numpy as np
import pytest

from _oracles import (curve_rhs, quartic_identity_residual,
                      residue_contour_oracle, rotated_data)
from conftest import draw_params
from saddle_forge.mesh import (assemble, build_grid, integrate_piece,
                               mean_curvature_norm, _seam_deviation)
from saddle_forge.params import SurfaceParams, sym_funcs
from saddle_forge.periods import (F_eval, residue_R, residue_r,
                                  solve_periods, solve_y, sweep_family)
from saddle_forge.verify import (check_injectivity, check_profile_bell,
                                 check_self_intersections,
                                 check_symmetry_table, check_tower_embedded)
from saddle_forge.weier import phi_vec, w_closed


@pytest.fixture(scope="module")
def piece256(solved_params):
    t0 = time.monotonic()
    piece = integrate_piece(build_grid(solved_params, 256))
    piece256_build_time[0] = time.monotonic() - t0
    return piece


piece256_build_time = [np.nan]


@pytest.fixture(scope="module")
def asm128(piece128):
    return assemble(piece128, n_periods=2)


# -------------------------------------------------------------- criterion 1

def test_criterion_1_algebraic_identities():
    """1000 random draws of (moduli, z): the curve branch squares to the
    rational right-hand side, the vertical-normal quartic identity holds,
    and the form triple is null.  Relative error < 1e-10, under 5 s."""
    t0 = time.monotonic()
    rng = np.random.default_rng(101)
    for _ in range(1000):
        p = draw_params(rng)
        s = sym_funcs(p)
        z = complex(rng.uniform(0.02, 4.0), rng.uniform(0.02, 4.0))
        w = complex(w_closed(p, z))
        rhs = complex(curve_rhs(p, z))
        assert abs(w*w - rhs) < 1e-10*abs(rhs)
        assert quartic_identity_residual(p, s, z) < 1e-10
        phi1, phi2, phi3 = phi_vec(p, z)
        scale = abs(phi1)**2 + abs(phi2)**2 + abs(phi3)**2
        assert abs(phi1**2 + phi2**2 + phi3**2) < 1e-10*scale
    assert time.monotonic() - t0 < 5.0


# -------------------------------------------------------------- criterion 2

def test_criterion_2_residues_against_contour_oracle():
    """20 random draws: both closed-form flux residues match stepwise
    branch-continued contour integration to 1e-8 relative, under 30 s."""
    t0 = time.monotonic()
    rng = np.random.default_rng(202)
    for _ in range(20):
        p = draw_params(rng)
        s = sym_funcs(p)
        r = residue_r(p, s)
        R = residue_R(p, s)
        c1 = residue_contour_oracle(p, 1.0)
        ca = residue_contour_oracle(p, p.a)
        assert abs(c1 - (-r)) < 1e-8*max(1.0, abs(r))
        assert abs(ca - R) < 1e-8*max(1.0, abs(R))
    assert time.monotonic() - t0 < 30.0


# -------------------------------------------------------------- criterion 3

def test_criterion_3_implicit_modulus_solve():
    """50 random draws with (x, X) within 0.05 of (a, a): the implicit
    solve returns y in (1, b) with |F| < 1e-10 and the two horizontal flux
    residues agree to 1e-8.  Under 60 s."""
    t0 = time.monotonic()
    rng = np.random.default_rng(303)
    for _ in range(50):
        a = rng.uniform(0.5, 0.95)
        b = rng.uniform(1.1, 2.2)
        x = a - rng.uniform(0.002, 0.05)
        X = a + rng.uniform(0.0, min(0.05, 0.9*(1.0 - a)))
        y = solve_y(a, b, x, X)
        assert 1.0 < y < b
        assert abs(F_eval(a, b, x, X, y)) < 1e-10
        p = SurfaceParams(a=a, b=b, x=x, X=X, y=y).validate()
        s = sym_funcs(p)
        r, R = residue_r(p, s), residue_R(p, s)
        assert abs(r - R) < 1e-8*max(abs(r), abs(R))
    assert time.monotonic() - t0 < 60.0


# -------------------------------------------------------------- criterion 4

def test_criterion_4_period_solve():
    """The two remaining period problems close at (t, X_offset) = (0.02, 0):
    a fresh solve from the default seed box drives both period residuals
    below 1e-8, lands inside (0.7, 1) x (1, 2), under 5 min."""
    t0 = time.monotonic()
    sol = solve_periods(0.02, 0.0, tol=1e-8)
    assert abs(sol.report.pi1) < 1e-8
    assert abs(sol.report.pi2) < 1e-8
    assert 0.7 < sol.a < 1.0
    assert 1.0 < sol.b < 2.0
    assert time.monotonic() - t0 < 300.0


# -------------------------------------------------------------- criterion 5

def test_criterion_5_rotated_data():
    """1000 random points: the rotated Gauss map and height differential
    satisfy both transfer identities and the closed form of the rotated
    height differential, to 1e-10 relative."""
    rng = np.random.default_rng(505)
    checked = 0
    while checked < 1000:
        p = draw_params(rng)
        z = complex(rng.uniform(0.02, 4.0), rng.uniform(0.02, 4.0))
        phi1, _, phi3 = phi_vec(p, z)
        G, dH_data, dH_closed = rotated_data(p, z)
        assert abs(dH_data - dH_closed) < 1e-10*max(1.0, abs(dH_closed))
        lhs1 = 0.5*(1.0/G - G)*dH_data
        assert abs(lhs1 - phi1) < 1e-10*max(1.0, abs(phi1))
        lhs2 = 0.5j*(1.0/G + G)*dH_data
        assert abs(lhs2 - (-phi3)) < 1e-10*max(1.0, abs(phi3))
        checked += 1


# -------------------------------------------------------------- criterion 6

def test_criterion_6_mesh_convergence(piece64, piece128, piece256):
    """Refinement 64 -> 128 -> 256: the worst loop-closure residual and the
    discrete mean-curvature norm each shrink by at least 3.5x per doubling
    (or sit at the accumulation floor of the coordinates, < 1e-11), the
    symmetry stretches are planar to 1e-6 of the bounding box at 128, and
    the 256 build stays under 10 min."""
    pieces = (piece64, piece128, piece256)
    lc = [float(np.max(pc.loop_residuals)) for pc in pieces]
    hm = [mean_curvature_norm(pc.vertices, pc.faces) for pc in pieces]
    for k in range(2):
        at_floor = lc[k + 1] < 1e-11
        assert lc[k]/lc[k + 1] >= 3.5 or at_floor, (lc, "loop closure")
        assert hm[k]/hm[k + 1] >= 3.5, (hm, "mean curvature")
    dev, level_gap = _seam_deviation(piece128)
    bbox = np.linalg.norm(piece128.vertices.max(0) - piece128.vertices.min(0))
    assert max(dev.values()) < 1e-6*bbox
    assert level_gap < 1e-6*bbox
    assert piece256_build_time[0] < 600.0


# -------------------------------------------------------------- criterion 7

def test_criterion_7_symmetry(solved_params):
    """Boundary symmetry table holds to 1e-9 on the solved member."""
    results = check_symmetry_table(solved_params)
    assert all(r.passed for r in results), [r for r in results if not r.passed]


def test_criterion_7_injectivity(piece128):
    """100000 sampled vertex pairs of the fundamental piece: no collisions;
    the duplicated-vertex negative control must fail."""
    res = check_injectivity(piece128.vertices)
    assert res.passed and res.value == 0
    dup = np.tile(piece128.vertices[:50], (2, 1))
    assert not check_injectivity(dup).passed


@pytest.mark.slow
def test_criterion_7_embeddedness(piece128, asm128):
    """The assembled two-period tower at resolution 128 has zero
    transversally crossing triangle pairs; the offset-copy negative control
    must report crossings.  The chamber certificate that `verify` uses
    must hold and agree with this oracle."""
    res = check_self_intersections(asm128.vertices, asm128.faces)
    assert res.passed, res.detail
    assert res.value == 0
    cert = check_tower_embedded(piece128, asm128)
    assert cert.detail.startswith("certified by chamber"), cert.detail
    assert cert.passed and cert.value == res.value

    v2 = np.vstack([piece128.vertices,
                    piece128.vertices + np.array([0.3, 0.2, 0.45])])
    f2 = np.vstack([piece128.faces, piece128.faces + len(piece128.vertices)])
    neg = check_self_intersections(v2, f2)
    assert not neg.passed
    assert neg.value > 0


# -------------------------------------------------------------- criterion 8

def test_criterion_8_bell_profile(piece128):
    """X = a: the lower-mirror profile through the finite branch point is a
    planar bell -- even about the vertical mirror to weld tolerance, with a
    monotone decreasing flank and a decreasing tail."""
    res = check_profile_bell(piece128)
    assert res.passed, res.detail
    pts = piece128.vertices[piece128.boundary["FE"]]
    pts = pts[np.argsort(pts[:, 0])]
    bbox = np.linalg.norm(piece128.vertices.max(0) - piece128.vertices.min(0))
    # planar to 1e-6 of the bounding box
    assert np.max(np.abs(pts[:, 2])) < 1e-6*bbox
    # the flank starts on the even-symmetry plane x1 = 0 (weld tolerance),
    # so the mirrored half continues it to an even bell
    assert abs(pts[0, 0]) < 1e-9*bbox
    # monotone flank and decreasing tail
    assert np.all(np.diff(pts[:, 1]) < 0)
    tail = pts[pts[:, 0] > 0.5*pts[-1, 0]]
    assert np.all(np.diff(tail[:, 1]) < 0)


# -------------------------------------------------------------- criterion 9

def test_criterion_9_family_sweep():
    """All nine members of t in {0.01, 0.02, 0.03} x X_offset in
    {0, 0.01, 0.02} converge, and neighbouring solutions stay within ten
    parameter grid steps of each other in (a, b)."""
    t_grid = [0.01, 0.02, 0.03]
    X_grid = [0.0, 0.01, 0.02]
    rows = sweep_family(t_grid, X_grid, tol=1e-9)
    sols = {}
    for t, X_offset, sol in rows:
        assert sol is not None, (t, X_offset)
        assert abs(sol.report.pi1) < 1e-9
        assert abs(sol.report.pi2) < 1e-9
        sols[(t, X_offset)] = sol
    step = 0.01
    for (t, X), sol in sols.items():
        for (tn, Xn) in ((t + step, X), (t, X + step)):
            if (tn, Xn) in sols:
                nb = sols[(tn, Xn)]
                d = np.hypot(nb.a - sol.a, nb.b - sol.b)
                assert d < 10*step, ((t, X), (tn, Xn), d)
