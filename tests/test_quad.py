import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import elliptic_oracle
from saddle_forge import quad
from saddle_forge.errors import NoConvergence
from saddle_forge.quad import (gauss_legendre_01, integrate_singular,
                               integrate_to_infinity)


def test_inverse_sqrt_endpoint():
    v, e = integrate_singular(lambda t, dlo, dhi: 1.0/np.sqrt(t), 0.0, 1.0)
    assert abs(v - 2.0) < 1e-12


def test_inverse_sqrt_endpoint_delta_form():
    # delta-aware callback receives exact distances to the endpoints
    v, _ = integrate_singular(lambda t, dlo, dhi: 1.0/np.sqrt(dlo), 0.0, 1.0)
    assert abs(v - 2.0) < 1e-13


def test_smooth_regression():
    v, _ = integrate_singular(lambda t, dlo, dhi: np.sin(t), 0.0, np.pi)
    assert abs(v - 2.0) < 1e-12


def test_complete_elliptic_agm_oracle():
    y, b = 1.5, 2.0

    def f(t, dlo, dhi):
        return 1.0/np.sqrt(dhi*(b + t)*dlo*(t + y))

    v, _ = integrate_singular(f, y, b)
    assert abs(v - elliptic_oracle(y, b)) < 1e-10


def test_semi_infinite_inverse_square():
    v, _ = integrate_to_infinity(lambda t, dlo, dhi: t**-2, 1.0)
    assert abs(v - 1.0) < 1e-12


def test_semi_infinite_lorentzian():
    v, _ = integrate_to_infinity(lambda t, dlo, dhi: 1.0/(1.0 + t*t), 0.0)
    assert abs(v - np.pi/2) < 1e-11


def test_semi_infinite_singular_endpoint():
    # int_b^inf dt/(t sqrt(t^2-b^2)) = pi/(2b), here b = 2
    b = 2.0
    v, _ = integrate_to_infinity(lambda t, dlo, dhi: 1.0/(t*np.sqrt(dlo*(t + b))),
                                 b, scale=b)
    assert abs(v - np.pi/4) < 1e-11


def test_no_convergence_reports_best():
    # a nearly non-integrable interior singularity defeats every level
    with pytest.raises(NoConvergence) as exc:
        integrate_singular(lambda t, dlo, dhi: np.abs(t - np.sqrt(2)/2)**-0.999,
                           0.0, 1.0)
    assert exc.value.best is not None
    assert exc.value.residual is not None


def test_gauss_nodes_integrate_polynomials_exactly():
    xs, ws = gauss_legendre_01(8)
    for k in range(0, 16):
        assert abs(np.sum(ws*xs**k) - 1.0/(k + 1)) < 1e-13


@settings(max_examples=50, deadline=None)
@given(st.floats(-0.49, 0.0), st.floats(0.5, 3.0))
def test_power_endpoint_property(alpha, hi):
    # int_0^hi t^alpha dt = hi^(alpha+1)/(alpha+1)
    v, _ = integrate_singular(lambda t, dlo, dhi: dlo**alpha, 0.0, hi)
    exact = hi**(alpha + 1)/(alpha + 1)
    assert abs(v - exact) < 1e-9*max(1.0, abs(exact))


def test_halving_tolerance_self_consistency(monkeypatch):
    y, b = 1.0001, 1.002  # sharply peaked, like the flux integrand

    def f(t, dlo, dhi):
        return 1.0/np.sqrt(dhi*(b + t)*dlo*(t + y))

    v1, e1 = integrate_singular(f, y, b)
    monkeypatch.setattr(quad, "_REL_TOL", 0.5*quad._REL_TOL)
    monkeypatch.setattr(quad, "_ABS_TOL", 0.5*quad._ABS_TOL)
    v2, _ = integrate_singular(f, y, b)
    assert abs(v1 - v2) <= max(e1, 1e-12*abs(v1))
