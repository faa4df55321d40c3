import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import saddle_forge.mesh as mesh
import saddle_forge.weier as weier
from _oracles import (PathThroughBranchPoint, curve_rhs, rotated_data, w_eval,
                      w_six_log_oracle)
from conftest import draw_params
from saddle_forge.params import SurfaceParams, sym_funcs
from saddle_forge.verify import _stretch_samples
from saddle_forge.weier import (g_eval, phi_vec, phi_vec_delta,
                                vertical_normal_points, w_closed,
                                w_closed_delta)

P0 = SurfaceParams(a=0.5, b=2.0, x=0.3, X=0.5, y=1.5)


def rand_z(rng, n=1):
    return rng.uniform(0.02, 4.0, n) + 1j*rng.uniform(0.02, 4.0, n)


def test_w_closed_satisfies_curve_equation():
    rng = np.random.default_rng(3)
    for _ in range(200):
        p = draw_params(rng)
        z = complex(rand_z(rng)[0])
        w = complex(w_closed(p, z))
        rhs = complex(curve_rhs(p, z))
        assert abs(w*w - rhs) < 1e-12*abs(rhs)


def test_w_anchors():
    # continuous branch on the closed upper half-plane: +1 at the origin,
    # +i at the top of the imaginary axis
    assert abs(complex(w_closed(P0, 0.0)) - 1.0) < 1e-14
    assert abs(complex(w_closed(P0, 1e8j)) - 1j) < 1e-7


def test_w_unit_modulus_on_imaginary_axis():
    ts = np.exp(np.linspace(np.log(1e-3), np.log(1e3), 40))
    w = w_closed(P0, 1j*ts)
    assert np.max(np.abs(np.abs(w) - 1.0)) < 1e-13


def test_w_eval_continuation_matches_closed_branch():
    # the polyline continuation is an independent oracle for the closed form
    rng = np.random.default_rng(11)
    for _ in range(40):
        p = draw_params(rng)
        z = complex(rand_z(rng)[0])
        assert abs(w_eval(p, z) - complex(w_closed(p, z))) < 1e-10


def test_w_eval_path_independence():
    z = 1.7 + 0.9j
    w_direct = w_eval(P0, z)
    w_dogleg = w_eval(P0, z, path=[0.0, 2.5j, 2.5j + z.real, z])
    assert abs(w_direct - w_dogleg) < 1e-10


def test_w_eval_rejects_path_through_branch_point():
    with pytest.raises(PathThroughBranchPoint):
        w_eval(P0, 0.6, path=[0.0, 0.6])  # straight through x = 0.3


def test_gauss_map_boundary_values():
    # vertical normal at the origin; g = 1 at the top of the AL axis
    g0 = complex(g_eval(P0, 1e-9j, w_closed(P0, 1e-9j)))
    assert abs(g0) > 1e6  # pole of g at the base point
    gi = complex(g_eval(P0, 1e7j, w_closed(P0, 1e7j)))
    assert abs(gi - 1.0) < 1e-6


def test_gauss_map_real_positive_on_axis():
    ts = np.exp(np.linspace(np.log(0.01), np.log(100.0), 50))
    for t in ts:
        z = 1j*t
        g = complex(g_eval(P0, z, w_closed(P0, z)))
        assert abs(g.imag) < 1e-11*abs(g)
        assert g.real > 0


def test_g_squared_satisfies_divisor_relation():
    # (g+i)/(g-i) must equal (X+z)/(w (X-z)); checked in squared form to be
    # independent of how g was produced
    rng = np.random.default_rng(7)
    for _ in range(100):
        p = draw_params(rng)
        z = complex(rand_z(rng)[0])
        w = complex(w_closed(p, z))
        g = complex(g_eval(p, z, w))
        lhs = w*(g + 1j)/(g - 1j)
        rhs = (p.X + z)/(p.X - z)
        assert abs(lhs - rhs) < 1e-10*max(1.0, abs(rhs))


def test_phi_null_and_dh_consistency():
    # conformality: phi1^2 + phi2^2 + phi3^2 = 0, and phi1, phi2 follow
    # from g and dh = phi3
    rng = np.random.default_rng(5)
    for _ in range(100):
        z = complex(rand_z(rng)[0])
        phi1, phi2, dh = phi_vec(P0, z)
        null = phi1**2 + phi2**2 + dh**2
        scale = abs(phi1)**2 + abs(phi2)**2 + abs(dh)**2
        assert abs(null) < 1e-10*scale
        g = complex(g_eval(P0, z, w_closed(P0, z)))
        if np.isfinite(g):
            assert abs(phi1 - 0.5*(1.0/g - g)*dh) < 1e-10*scale**0.5
            assert abs(phi2 - 0.5j*(1.0/g + g)*dh) < 1e-10*scale**0.5


def test_vertical_normal_roots_satisfy_quartic():
    s = sym_funcs(P0)
    roots, flag = vertical_normal_points(s)
    assert flag == (s.S2*s.S2 < 4*s.S4)
    for r in roots:
        assert abs(r**4 + s.S2*r*r + s.S4) < 1e-10


def test_vertical_normal_double_real_case():
    from saddle_forge.params import SymFuncs
    roots, flag = vertical_normal_points(
        SymFuncs(S1=0.0, S2=-2.0, S3=0.0, S4=1.0, S5=1.0))
    assert not flag
    assert np.allclose(np.sort(np.abs(roots)), 1.0)


def test_gauss_map_at_vertical_normal_roots():
    # interior root of the quartic: the normal is vertical there (g is 0 or
    # infinite on this sheet)
    s = sym_funcs(P0)
    roots, _ = vertical_normal_points(s)
    alpha = [r for r in roots if r.real > 0 and r.imag > 0][0]
    g = complex(g_eval(P0, alpha, w_closed(P0, alpha)))
    assert not np.isfinite(g) or abs(g) < 1e-6 or abs(g) > 1e6


def test_rotated_data_identities():
    rng = np.random.default_rng(9)
    for _ in range(100):
        p = draw_params(rng)
        z = complex(rand_z(rng)[0])
        g = complex(g_eval(p, z, w_closed(p, z)))
        dh = phi_vec(p, z)[2]
        G, dH_data, dH_closed = rotated_data(p, z)
        if G == 0 or not np.isfinite(G):
            continue        # g = +-i: the rotated data is degenerate
        assert abs(dH_data - dH_closed) < 1e-10*max(1.0, abs(dH_closed))
        lhs1 = (1.0/G - G)*dH_data
        rhs1 = (1.0/g - g)*dh
        assert abs(lhs1 - rhs1) < 1e-10*max(1.0, abs(rhs1))
        lhs2 = 1j*(1.0/G + G)*dH_data
        assert abs(lhs2 - (-2.0*dh)) < 1e-10*max(1.0, abs(dh))


def test_rotated_closed_form_vanishes_at_X():
    p = SurfaceParams(a=0.5, b=2.0, x=0.3, X=0.7, y=1.5)
    z = p.X + 0.3j
    # the closed-form numerator X^2 - z^2 vanishes when z = X exactly
    val = (p.X*p.X - p.X*p.X)
    assert val == 0.0
    _, dH_data, dH_closed = rotated_data(p, z)
    assert abs(dH_data - dH_closed) < 1e-10*max(1.0, abs(dH_closed))


def test_delta_forms_match_plain_forms():
    # moderate offsets where both forms are accurate
    v = P0.y
    deltas = np.array([1e-3 + 1e-3j, 2e-2j, 5e-2 + 1e-2j])
    np.testing.assert_allclose(w_closed_delta(P0, v, deltas),
                               w_closed(P0, v + deltas), rtol=1e-12)
    np.testing.assert_allclose(phi_vec_delta(P0, v, deltas),
                               phi_vec(P0, v + deltas), rtol=1e-10)


def test_delta_form_is_stable_below_float_scale():
    # the whole point of the delta form: offsets far below eps*|v|
    v = P0.y
    d = 1e-20 + 1e-22j
    vals = phi_vec_delta(P0, v, np.array([d]))
    assert np.all(np.isfinite(vals))
    # dh ~ C/sqrt(z - y) near the branch point: halving delta scales by sqrt 2
    v1 = phi_vec_delta(P0, v, np.array([d]))[0, 2]
    v2 = phi_vec_delta(P0, v, np.array([2*d]))[0, 2]
    assert abs(v1/v2 - np.sqrt(2)) < 1e-6


def _gauss_nodes(p, resolution, monkeypatch):
    """(v, delta) of every Gauss node at which mesh.edge_increments
    evaluates the forms on the grid of this resolution."""
    seen = []

    def recording(p_, v, delta):
        seen.append((np.broadcast_to(v, delta.shape).copy(), delta.copy()))
        return phi_vec_delta(p_, v, delta)

    grid = mesh.build_grid(p, resolution)
    z0, z1 = grid.z[grid.edges[:, 0]], grid.z[grid.edges[:, 1]]
    with monkeypatch.context() as m:
        m.setattr(mesh, "phi_vec_delta", recording)
        mesh.edge_increments(p, z0, z1)
    v, delta = zip(*seen)
    return np.concatenate(v), np.concatenate(delta)


def _rel_rows(new, old):
    """Max over points of sum |new - old| / sum |old|, each sum over the
    point's components (one for w, three for the forms)."""
    return np.max(np.abs(new - old).reshape(len(old), -1).sum(axis=1)
                  / np.abs(old).reshape(len(old), -1).sum(axis=1))


def test_square_root_branch_matches_six_log_oracle(solved_params, monkeypatch):
    # w from three square roots is w from six logarithms to rounding, at
    # every Gauss node of the res-64 reference grid and on every stretch;
    # so are the forms built on it
    p = solved_params
    v, delta = _gauss_nodes(p, 64, monkeypatch)
    samples = _stretch_samples(p, 48)
    v = np.concatenate([v] + [np.zeros(len(zs)) for zs in samples.values()])
    delta = np.concatenate([delta] + list(samples.values()))
    w = w_closed_delta(p, v, delta)
    assert _rel_rows(w, w_six_log_oracle(p, v, delta)) <= 1e-14
    phi = phi_vec_delta(p, v, delta)
    monkeypatch.setattr(weier, "w_closed_delta", w_six_log_oracle)
    assert _rel_rows(phi, phi_vec_delta(p, v, delta)) <= 1e-14


def test_branch_on_the_real_axis_ignores_the_sign_of_zero(solved_params):
    # on the real axis the ratio (z + b)/(z - b) is negative for z < b, and
    # the division leaves -0.0 in its imaginary part; w must still be the
    # limit from the upper half-plane on every real stretch
    p = solved_params
    samples = _stretch_samples(p, 48)
    zs = np.concatenate([samples[tag] for tag in samples if tag != "AL"]) + 0j
    assert np.signbit(((zs + p.b)/(zs - p.b)).imag[zs.real < p.b]).all()
    above = w_six_log_oracle(p, 0.0, zs + 1e-200j)
    np.testing.assert_allclose(w_closed(p, zs), above, rtol=1e-14, atol=0.0)
    # each root takes the upper side whichever the sign of a zero
    # imaginary part; the principal root takes the lower one for -0.0
    r = np.array([complex(-4.0, 0.0), complex(-4.0, -0.0)])
    assert np.sqrt(r)[1] == -2j
    assert np.array_equal(weier._upper_sqrt(r), [2j, 2j])


@settings(max_examples=100, deadline=None)
@given(st.floats(0.05, 3.0), st.floats(0.05, 3.0))
def test_w_upper_half_plane_property(zr, zi):
    z = complex(zr, zi)
    w = complex(w_closed(P0, z))
    rhs = complex(curve_rhs(P0, z))
    assert abs(w*w - rhs) <= 1e-12*abs(rhs)
