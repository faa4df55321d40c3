import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import de_singular_oracle, de_to_infinity_oracle, elliptic_oracle
from saddle_forge import periods, quad
from saddle_forge.errors import NoConvergence
from saddle_forge.quad import (gauss_legendre_01, integrate_singular,
                               integrate_to_infinity)


def _bits(result):
    """(value, err) as bytes, so that equality is bitwise (NaN and -0.0)."""
    return np.array(result, dtype=float).tobytes()


def _counting(f, calls):
    def counted(t, dlo, dhi):
        calls.append(len(t))
        return f(t, dlo, dhi)
    return counted


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


@pytest.mark.parametrize("f, lo, scale, exact", [
    (lambda t, dlo, dhi: t**-2, 1.0, 1e-8, 1.0),
    (lambda t, dlo, dhi: t**-2, 1.0, 1.0, 1.0),
    (lambda t, dlo, dhi: t**-2, 1.0, 1e8, 1.0),
    (lambda t, dlo, dhi: np.exp(-t*t), 0.0, 1.0, 0.5*np.sqrt(np.pi)),
])
def test_semi_infinite_closed_forms_to_rounding(f, lo, scale, exact):
    # the mapped rule is as accurate when the scale is far off the
    # integrand's own length scale
    v, _ = integrate_to_infinity(f, lo, scale=scale)
    assert abs(v - exact) <= 1e-15


def test_no_convergence_reports_best():
    # a nearly non-integrable interior singularity defeats every level; the
    # best value and residual are the oracle's, bit for bit
    f = lambda t, dlo, dhi: np.abs(t - np.sqrt(2)/2)**-0.999  # noqa: E731
    with pytest.raises(NoConvergence) as exc:
        integrate_singular(f, 0.0, 1.0)
    with pytest.raises(NoConvergence) as oracle:
        de_singular_oracle(f, 0.0, 1.0)
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


_Y, _B = 1.5, 2.0
# every integrand above, plus an oscillatory tail that needs 8 levels and a
# range so narrow that the extreme nodes are dropped (dhi underflows to 0);
# there the kept nodes start at an odd k, and the peak makes the rules of
# step 2^-5 and 2^-4 differ in more than rounding
_PEAK = lambda t, dlo, dhi: 1.0/(1e-3 + (1e300*t - 0.3)**2)  # noqa: E731
_ORACLE_CASES = [
    (integrate_singular, lambda t, dlo, dhi: 1.0/np.sqrt(t), (0.0, 1.0)),
    (integrate_singular, lambda t, dlo, dhi: 1.0/np.sqrt(dlo), (0.0, 1.0)),
    (integrate_singular, lambda t, dlo, dhi: np.sin(t), (0.0, np.pi)),
    (integrate_singular,
     lambda t, dlo, dhi: 1.0/np.sqrt(dhi*(_B + t)*dlo*(t + _Y)), (_Y, _B)),
    (integrate_singular,
     lambda t, dlo, dhi: 1.0/np.sqrt(dhi*(1.002 + t)*dlo*(t + 1.0001)),
     (1.0001, 1.002)),
    (integrate_singular, lambda t, dlo, dhi: dlo**-0.3, (0.0, 2.5)),
    (integrate_singular, lambda t, dlo, dhi: np.ones_like(t), (0.0, 1e-300)),
    (integrate_to_infinity, lambda t, dlo, dhi: t**-2, (1.0,)),
    (integrate_to_infinity, lambda t, dlo, dhi: 1.0/(1.0 + t*t), (0.0,)),
    (integrate_to_infinity,
     lambda t, dlo, dhi: 1.0/(t*np.sqrt(dlo*(t + 2.0))), (2.0, 2.0)),
    (integrate_to_infinity,
     lambda t, dlo, dhi: np.exp(-t)*np.cos(5*t), (0.0,)),
    (integrate_singular, _PEAK, (0.0, 1e-300)),
]
_ORACLE = {integrate_singular: de_singular_oracle,
           integrate_to_infinity: de_to_infinity_oracle}


@pytest.mark.parametrize("rule, f, args", _ORACLE_CASES)
def test_fused_rule_matches_level_by_level_oracle(rule, f, args):
    # the integrand sees the same nodes in the same calls as the oracle's,
    # whose node tables are recomputed on every call
    got_calls, want_calls = [], []
    got = rule(_counting(f, got_calls), *args)
    want = _ORACLE[rule](_counting(f, want_calls), *args)
    assert _bits(got) == _bits(want)
    assert got_calls == want_calls


@pytest.mark.parametrize("rule, f, args, calls", [
    (integrate_singular, lambda t, dlo, dhi: np.sin(t), (0.0, np.pi), [289]),
    (integrate_to_infinity, lambda t, dlo, dhi: t**-2, (1.0,), [289]),
    # 8 levels: one call on the first grid, then one per level
    (integrate_to_infinity, lambda t, dlo, dhi: np.exp(-t)*np.cos(5*t), (0.0,),
     [289, 288, 576, 1152]),
])
def test_one_call_up_to_the_minimum_level_then_one_per_level(rule, f, args,
                                                             calls):
    seen = []
    rule(_counting(f, seen), *args)
    assert seen == calls


@pytest.mark.parametrize("rule", [integrate_singular, de_singular_oracle])
def test_zero_width_interval_is_one_call_on_no_nodes(rule):
    # every node is dropped; the integrand still sees one call, on empty
    # arrays, and a stack comes back as zero arrays
    seen = []
    got = rule(_counting(lambda t, dlo, dhi: np.ones_like(t), seen), 1.0, 1.0)
    assert seen == [0]
    assert _bits(got) == _bits((0.0, 0.0))
    val, err = rule(lambda t, dlo, dhi: np.vstack((t, dlo, dhi)), 1.0, 1.0)
    assert _bits((val, err)) == _bits((np.zeros(3), np.zeros(3)))


@pytest.mark.parametrize("rule, rows, args", [
    (integrate_singular,
     [lambda t, dlo, dhi: 1.0/np.sqrt(dhi*(_B + t)*dlo*(t + _Y)),
      lambda t, dlo, dhi: t/np.sqrt(dhi*(_B + t)*dlo*(t + _Y)),
      lambda t, dlo, dhi: t*t/np.sqrt(dhi*(_B + t)*dlo*(t + _Y))], (_Y, _B)),
    (integrate_to_infinity,
     [lambda t, dlo, dhi: 1.0/(t*np.sqrt(dlo*(t + 2.0))),
      lambda t, dlo, dhi: 1.0/(t*t*np.sqrt(dlo*(t + 2.0)))], (2.0, 2.0)),
    # the kept nodes start at an odd k, so the step-2h rule starts at index 1
    (integrate_singular, [lambda t, dlo, dhi: np.ones_like(t), _PEAK],
     (0.0, 1e-300)),
])
def test_stacked_rows_match_one_row_calls(rule, rows, args):
    # rows that converge at the same level come back bit for bit as k
    # one-row calls return them
    def stack(t, dlo, dhi):
        return np.vstack([f(t, dlo, dhi) for f in rows])
    val, err = rule(stack, *args)
    assert val.shape == err.shape == (len(rows),)
    for k, f in enumerate(rows):
        assert _bits((val[k], err[k])) == _bits(rule(f, *args))


def test_stacked_no_convergence_reports_the_first_row_as_floats():
    # a stack converges only once every row has; its NoConvergence carries
    # the first row's best value and residual, as plain floats
    smooth = lambda t, dlo, dhi: np.sin(t)  # noqa: E731
    spike = lambda t, dlo, dhi: np.abs(t - np.sqrt(2)/2)**-0.999  # noqa: E731
    with pytest.raises(NoConvergence) as exc:
        integrate_singular(
            lambda t, dlo, dhi: np.vstack((smooth(t, dlo, dhi),
                                           spike(t, dlo, dhi))), 0.0, 1.0)
    assert type(exc.value.best) is float
    assert type(exc.value.residual) is float
    with pytest.raises(NoConvergence) as oracle:
        de_singular_oracle(
            lambda t, dlo, dhi: np.vstack((smooth(t, dlo, dhi),
                                           spike(t, dlo, dhi))), 0.0, 1.0)
    assert (_bits((exc.value.best, exc.value.residual))
            == _bits((oracle.value.best, oracle.value.residual)))
    assert exc.value.best == pytest.approx(1.0 - np.cos(1.0), abs=1e-13)


@pytest.mark.parametrize("level", [quad._MIN_LEVELS, 6])
def test_cached_node_tables_refuse_writes(level):
    table = quad._tanh_sinh(level)
    assert quad._tanh_sinh(level) is table
    for arr in table:
        with pytest.raises(ValueError):
            arr[0] = 0


def test_interval_nodes_are_reused_and_refuse_writes():
    nodes = quad._nodes(quad._MIN_LEVELS, 0.0, 1.0)
    assert quad._nodes(quad._MIN_LEVELS, 0.0, 1.0) is nodes
    for arr in nodes[:-1]:
        with pytest.raises(ValueError):
            arr[0] = 0


# the solved member at (t, X_offset) = (1e-5, 0.049), where y - 1 ~ 3e-7
_EDGE_MEMBER = (1e-5, 0.049, 0.654726569382211, 1.3349559787754532)


def test_period_integrals_match_oracle(monkeypatch, solved_params):
    matches = []

    def paired(rule):
        def run(f, *args, **kwargs):
            got = rule(f, *args, **kwargs)
            want = _ORACLE[rule](f, *args, **kwargs)
            matches.append(_bits(got) == _bits(want))
            return got
        return run

    monkeypatch.setattr(periods, "integrate_singular",
                        paired(integrate_singular))
    monkeypatch.setattr(periods, "integrate_to_infinity",
                        paired(integrate_to_infinity))
    for p in (solved_params, periods.resolve_params(*_EDGE_MEMBER)):
        periods.period_report_for(p)
    # I and J, two reports; K is a closed form and takes no rule
    assert matches == [True]*4


def test_period_report_takes_one_call_per_integral(monkeypatch,
                                                   solved_params):
    # at the reference member each of I and J converges on the first grid:
    # one integrand call on 289 nodes apiece, and K takes none
    seen = []

    def counted(rule):
        def run(f, *args, **kwargs):
            seen.append([])
            return rule(_counting(f, seen[-1]), *args, **kwargs)
        return run

    monkeypatch.setattr(periods, "integrate_singular",
                        counted(integrate_singular))
    monkeypatch.setattr(periods, "integrate_to_infinity",
                        counted(integrate_to_infinity))
    periods.period_report_for(solved_params)
    assert seen == [[289]]*2
