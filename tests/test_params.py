import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import quartic_identity_residual
from saddle_forge.errors import DomainViolation
from saddle_forge.params import SurfaceParams, from_family, sym_funcs


def test_sym_funcs_hand_evaluated_example():
    # direct evaluation of the defining polynomial coefficients
    p = SurfaceParams(a=0.5, b=2.0, x=0.3, X=0.5, y=1.5)
    s = sym_funcs(p)
    assert np.isclose(s.S1, -2.2)
    assert np.isclose(s.S2, -1.0)
    assert np.isclose(s.S3, 2.05)
    assert np.isclose(s.S4, 1.3875)
    assert np.isclose(s.S5, 0.225)
    assert s.S5 > 0


def test_degenerate_limit_identities():
    # at (x, X, y) = (a, a, 1) the even combinations factor completely
    for (a, b) in [(0.5, 2.0), (0.9, 1.2), (0.3, 1.05)]:
        s = sym_funcs(SurfaceParams(a=a, b=b, x=a, X=a, y=1.0))
        assert np.isclose(1 + s.S2 + s.S4, (b + 1)*(1 - a)**3, rtol=1e-12)
        assert np.isclose(a**4 + s.S2*a*a + s.S4, 4*a*a*(1 - a)*(b - a),
                          rtol=1e-12)


def test_validate_rejects_bad_orderings():
    with pytest.raises(DomainViolation):
        SurfaceParams(a=0.5, b=2.0, x=0.6, X=0.5, y=1.5).validate()  # x > a
    with pytest.raises(DomainViolation):
        SurfaceParams(a=0.5, b=1.2, x=0.3, X=0.5, y=1.5).validate()  # y > b
    with pytest.raises(DomainViolation):
        SurfaceParams(a=0.5, b=2.0, x=0.3, X=0.4, y=1.5).validate()  # X < a
    with pytest.raises(DomainViolation):
        SurfaceParams(a=0.5, b=2.0, x=0.3, X=1.0, y=1.5).validate()  # X >= 1


def test_family_coordinates_round_trip():
    p = from_family(0.02, 0.01, 0.9, 1.2, 1.05)
    assert p.t == pytest.approx(0.02)
    assert p.X_offset == pytest.approx(0.01)
    assert p.x == pytest.approx(0.88)
    assert p.X == pytest.approx(0.91)


@settings(max_examples=200, deadline=None)
@given(st.floats(0.3, 0.95), st.floats(1.05, 2.5), st.floats(0.1, 0.95),
       st.floats(0.0, 0.9), st.floats(0.1, 0.9),
       st.floats(-3.0, 3.0), st.floats(-3.0, 3.0))
def test_quartic_identity_property(a, b, xf, Xf, yf, zr, zi):
    p = SurfaceParams(a=a, b=b, x=a*xf, X=a + Xf*(1 - a)*0.999,
                      y=1 + yf*(b - 1))
    s = sym_funcs(p)
    assert quartic_identity_residual(p, s, complex(zr, zi)) < 1e-12
