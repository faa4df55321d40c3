import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import de_to_infinity_oracle, elliptic_oracle
from saddle_forge import periods, quad
from saddle_forge.errors import NoConvergence
from saddle_forge.quad import gauss_legendre_01, integrate_to_infinity


def _bits(result):
    """(value, err) as bytes, so that equality is bitwise (NaN and -0.0)."""
    return np.array(result, dtype=float).tobytes()


def _counting(f, calls):
    def counted(x, d):
        calls.append(len(x))
        return f(x, d)
    return counted


def test_inverse_sqrt_endpoint():
    # int_0^inf e^-x/sqrt(x) dx = sqrt(pi)
    v, _ = integrate_to_infinity(lambda x, d: np.exp(-x)/np.sqrt(x), 0.0)
    assert abs(v - np.sqrt(np.pi)) < 1e-14


def test_inverse_sqrt_endpoint_delta_form():
    # the integrand receives the exact distance d to the endpoint: at
    # lo = 1e6, x - lo rounds to 0 at the innermost nodes, d does not
    lo = 1e6
    v, _ = integrate_to_infinity(lambda x, d: 1.0/(np.sqrt(d)*(1.0 + d)), lo)
    assert abs(v - np.pi) < 1e-14


def test_smooth_regression():
    # int_0^inf e^-x sin x dx = 1/2
    v, _ = integrate_to_infinity(lambda x, d: np.exp(-x)*np.sin(x), 0.0)
    assert abs(v - 0.5) < 1e-14


def test_complete_elliptic_agm_oracle():
    # under x = b/s, int_b^inf dx/sqrt((x^2 - b^2)(x^2 - y^2)) is the
    # complete integral int_0^1 ds/sqrt((1 - s^2)(b^2 - y^2 s^2))
    y, b = 1.5, 2.0

    def f(x, d):
        return 1.0/np.sqrt(d*(x + b)*(x*x - y*y))

    v, _ = integrate_to_infinity(f, b, scale=b)
    assert abs(v - elliptic_oracle(np.sqrt(b*b - y*y), b)) < 1e-15


def test_semi_infinite_inverse_square():
    v, _ = integrate_to_infinity(lambda x, d: x**-2, 1.0)
    assert abs(v - 1.0) < 1e-12


def test_semi_infinite_lorentzian():
    v, _ = integrate_to_infinity(lambda x, d: 1.0/(1.0 + x*x), 0.0)
    assert abs(v - np.pi/2) < 1e-11


def test_semi_infinite_singular_endpoint():
    # int_b^inf dx/(x sqrt(x^2-b^2)) = pi/(2b), here b = 2
    b = 2.0
    v, _ = integrate_to_infinity(lambda x, d: 1.0/(x*np.sqrt(d*(x + b))),
                                 b, scale=b)
    assert abs(v - np.pi/4) < 1e-11


@pytest.mark.parametrize("f, lo, scale, exact", [
    (lambda x, d: x**-2, 1.0, 1e-8, 1.0),
    (lambda x, d: x**-2, 1.0, 1.0, 1.0),
    (lambda x, d: x**-2, 1.0, 1e8, 1.0),
    (lambda x, d: np.exp(-x*x), 0.0, 1.0, 0.5*np.sqrt(np.pi)),
])
def test_semi_infinite_closed_forms_to_rounding(f, lo, scale, exact):
    # the rule is as accurate when the scale is far off the integrand's own
    # length scale
    v, _ = integrate_to_infinity(f, lo, scale=scale)
    assert abs(v - exact) <= 1e-15


# a nearly non-integrable interior singularity defeats every level
_SPIKE = lambda x, d: np.abs(x - np.sqrt(2)/2)**-0.999*np.exp(-x)  # noqa: E731


def test_no_convergence_reports_best():
    # the best value and residual are the oracle's, bit for bit
    with pytest.raises(NoConvergence) as exc:
        integrate_to_infinity(_SPIKE, 0.0)
    with pytest.raises(NoConvergence) as oracle:
        de_to_infinity_oracle(_SPIKE, 0.0)
    assert (_bits((exc.value.best, exc.value.residual))
            == _bits((oracle.value.best, oracle.value.residual)))


def test_gauss_nodes_integrate_polynomials_exactly():
    for n in range(1, 33):
        xs, ws = gauss_legendre_01(n)
        for k in range(0, 2*n):
            assert abs(np.sum(ws*xs**k) - 1.0/(k + 1)) < 1e-13, (n, k)


def test_gauss_legendre_matches_leggauss():
    # the rule is computed without importing numpy.polynomial, to its numbers
    from numpy.polynomial.legendre import leggauss
    for n in range(1, 33):
        xg, wg = leggauss(n)
        xs, ws = gauss_legendre_01(n)
        np.testing.assert_array_max_ulp(xs, 0.5*(xg + 1.0), maxulp=4)
        np.testing.assert_array_max_ulp(ws, 0.5*wg, maxulp=4)


@settings(max_examples=50, deadline=None)
@given(st.floats(-0.49, 3.0), st.floats(-5.0, 5.0))
def test_power_endpoint_property(alpha, lo):
    # int_lo^inf (x - lo)^alpha e^-(x - lo) dx = Gamma(alpha + 1)
    v, _ = integrate_to_infinity(lambda x, d: d**alpha*np.exp(-d), lo)
    exact = math.gamma(alpha + 1)
    assert abs(v - exact) < 1e-9*exact


def test_halving_tolerance_self_consistency(monkeypatch):
    y, b = 1.0001, 1.002  # y close to b, like I's integrand as t -> 0

    def f(x, d):
        return 1.0/np.sqrt(d*(x + b)*(x*x - y*y))

    v1, e1 = integrate_to_infinity(f, b, scale=b)
    monkeypatch.setattr(quad, "_REL_TOL", 0.5*quad._REL_TOL)
    monkeypatch.setattr(quad, "_ABS_TOL", 0.5*quad._ABS_TOL)
    v2, _ = integrate_to_infinity(f, b, scale=b)
    assert abs(v1 - v2) <= max(e1, 1e-12*abs(v1))


_Y, _B = 1.5, 2.0
# every integrand above, plus a Lorentzian peak and an oscillatory tail,
# each needing 8 levels; the peak makes the rules of step 2^-5 and 2^-4
# differ in more than rounding
_PEAK = lambda x, d: 1.0/(1e-3 + (x - 0.3)**2)  # noqa: E731
_ORACLE_CASES = [
    (lambda x, d: np.exp(-x)/np.sqrt(x), (0.0,)),
    (lambda x, d: 1.0/(np.sqrt(d)*(1.0 + d)), (1e6,)),
    (lambda x, d: np.exp(-x)*np.sin(x), (0.0,)),
    (lambda x, d: 1.0/np.sqrt(d*(x + _B)*(x*x - _Y*_Y)), (_B, _B)),
    (lambda x, d: 1.0/np.sqrt(d*(x + 1.002)*(x*x - 1.0001**2)),
     (1.002, 1.002)),
    (lambda x, d: d**-0.3*np.exp(-d), (0.0, 2.5)),
    (lambda x, d: x**-2, (1.0, 1e8)),
    (lambda x, d: x**-2, (1.0,)),
    (lambda x, d: 1.0/(1.0 + x*x), (0.0,)),
    (lambda x, d: 1.0/(x*np.sqrt(d*(x + 2.0))), (2.0, 2.0)),
    (lambda x, d: np.exp(-x)*np.cos(5*x), (0.0,)),
    (_PEAK, (0.0,)),
]


@pytest.mark.parametrize("f, args", _ORACLE_CASES)
def test_fused_rule_matches_level_by_level_oracle(f, args):
    # the integrand sees the same nodes in the same calls as the oracle's,
    # whose nodes are recomputed from t on every call
    got_calls, want_calls = [], []
    got = integrate_to_infinity(_counting(f, got_calls), *args)
    want = de_to_infinity_oracle(_counting(f, want_calls), *args)
    assert _bits(got) == _bits(want)
    assert got_calls == want_calls


@pytest.mark.parametrize("f, args, calls", [
    (lambda x, d: x**-2, (1.0,), [289]),
    (lambda x, d: np.exp(-x)*np.sin(x), (0.0,), [289, 288]),
    # 8 levels: one call on the first grid, then one per level
    (lambda x, d: np.exp(-x)*np.cos(5*x), (0.0,), [289, 288, 576, 1152]),
])
def test_one_call_up_to_the_minimum_level_then_one_per_level(f, args, calls):
    seen = []
    integrate_to_infinity(_counting(f, seen), *args)
    assert seen == calls


@pytest.mark.parametrize("rows, args", [
    ([lambda x, d: 1.0/np.sqrt(d*(x + _B)*(x*x - _Y*_Y)),
      lambda x, d: 1.0/(x*np.sqrt(d*(x + _B)*(x*x - _Y*_Y))),
      lambda x, d: 1.0/(x*x*np.sqrt(d*(x + _B)*(x*x - _Y*_Y)))], (_B, _B)),
    ([lambda x, d: 1.0/(x*np.sqrt(d*(x + 2.0))),
      lambda x, d: 1.0/(x*x*np.sqrt(d*(x + 2.0)))], (2.0, 2.0)),
    # both rows need 8 levels
    ([lambda x, d: np.exp(-x)*np.cos(5*x),
      lambda x, d: np.exp(-x)*np.sin(5*x)], (0.0,)),
])
def test_stacked_rows_match_one_row_calls(rows, args):
    # rows that converge at the same level come back bit for bit as k
    # one-row calls return them
    def stack(x, d):
        return np.vstack([f(x, d) for f in rows])
    val, err = integrate_to_infinity(stack, *args)
    assert val.shape == err.shape == (len(rows),)
    for k, f in enumerate(rows):
        assert _bits((val[k], err[k])) == _bits(integrate_to_infinity(f, *args))


def test_stacked_no_convergence_reports_the_first_row_as_floats():
    # a stack converges only once every row has; its NoConvergence carries
    # the first row's best value and residual, as plain floats
    def stack(x, d):
        return np.vstack((np.exp(-x)*np.sin(x), _SPIKE(x, d)))

    with pytest.raises(NoConvergence) as exc:
        integrate_to_infinity(stack, 0.0)
    assert type(exc.value.best) is float
    assert type(exc.value.residual) is float
    with pytest.raises(NoConvergence) as oracle:
        de_to_infinity_oracle(stack, 0.0)
    assert (_bits((exc.value.best, exc.value.residual))
            == _bits((oracle.value.best, oracle.value.residual)))
    assert exc.value.best == pytest.approx(0.5, abs=1e-13)


@pytest.mark.parametrize("level", [quad._MIN_LEVELS, 6])
def test_cached_node_tables_refuse_writes(level):
    table = quad._exp_sinh(level)
    assert quad._exp_sinh(level) is table
    for arr in table:
        with pytest.raises(ValueError):
            arr[0] = 0


# the solved member at (t, X_offset) = (1e-5, 0.049), where y - 1 ~ 3e-7
_EDGE_MEMBER = (1e-5, 0.049, 0.654726569382211, 1.3349559787754532)


def test_period_integrals_match_oracle(monkeypatch, solved_params):
    matches = []

    def paired(f, *args, **kwargs):
        got = integrate_to_infinity(f, *args, **kwargs)
        want = de_to_infinity_oracle(f, *args, **kwargs)
        matches.append(_bits(got) == _bits(want))
        return got

    monkeypatch.setattr(periods, "integrate_to_infinity", paired)
    for p in (solved_params, periods.resolve_params(*_EDGE_MEMBER)):
        periods.period_report_for(p)
    # I and J, two reports; K is a closed form and takes no rule
    assert matches == [True]*4


def test_period_report_takes_one_call_per_integral(monkeypatch,
                                                   solved_params):
    # at the reference member each of I and J converges on the first grid:
    # one integrand call on 289 nodes apiece, and K takes none
    seen = []

    def counted(f, *args, **kwargs):
        seen.append([])
        return integrate_to_infinity(_counting(f, seen[-1]), *args, **kwargs)

    monkeypatch.setattr(periods, "integrate_to_infinity", counted)
    periods.period_report_for(solved_params)
    assert seen == [[289]]*2
