"""Threshold solver, value function, and mean-time identities."""

import math

import mpmath
import numpy as np
import pytest
from scipy import integrate, special

from lastzero.models import BetaFamily, BrownianDrift, CramerLundberg
from lastzero.stopping import (
    Regime,
    V_a_at,
    V_at,
    V_prime_at,
    build_value_curve,
    expected_g,
    expected_tau_plus,
    laplace_g_brownian,
    solve,
)

BM = BrownianDrift(1.0, 1.0)
CL = CramerLundberg(2.0, 1.0, 1.0)


def test_threshold_brownian():
    # 2 a* is the median of Gamma(2, 1), since the depth sum is Gamma(2, 2)
    ev, rule = solve(BM)
    assert rule.regime is Regime.SMOOTH_FIT
    assert rule.a_star == pytest.approx(float(special.gammaincinv(2.0, 0.5)) / 2.0, abs=1e-9)
    assert rule.a_star == pytest.approx(0.8391734950083306, abs=1e-9)
    assert rule.x0 == pytest.approx(math.log(2.0) / 2.0, abs=1e-12)


def test_threshold_cramer_lundberg():
    ev, rule = solve(CL)
    assert rule.regime is Regime.SMOOTH_FIT
    assert rule.a_star == pytest.approx(1.1661477520733816, abs=1e-9)
    # direct check on the closed form of the depth-sum law, r = k = 1/2
    r = k = 0.5
    e = math.exp(-k * rule.a_star)
    h = (1 - r) ** 2 + 2 * r * (1 - r) * (1 - e) + r**2 * (1 - k * rule.a_star * e - e)
    assert h == pytest.approx(0.5, abs=1e-10)


def test_threshold_beta_family():
    ev, rule = solve(BetaFamily(2.0))
    assert rule.a_star == pytest.approx(float(special.gammaincinv(2.0, 0.5)), abs=1e-8)
    ev15, rule15 = solve(BetaFamily(1.5))
    assert rule15.a_star == pytest.approx(0.8694492629410581, abs=1e-8)
    assert rule15.a_star > rule15.x0
    # near beta = 1 the median is tiny; its relative precision still holds
    b = mpmath.mpf("1.01")
    c = mpmath.gamma(b) ** 2 / mpmath.gamma(2 * b - 1)

    def h_mp(x):
        v = -mpmath.expm1(-x)
        return c * v ** (2 * b - 2) * mpmath.hyp2f1(b - 1, b - 1, 2 * b - 1, v) - 0.5

    with mpmath.workdps(30):
        ref = float(mpmath.findroot(h_mp, (mpmath.mpf("5e-16"), mpmath.mpf("2e-15")),
                                    solver="anderson"))
    _, rule101 = solve(BetaFamily(1.01))
    assert rule101.a_star == pytest.approx(ref, rel=1e-9)


def test_beta_two_matches_brownian():
    _, rule_beta = solve(BetaFamily(2.0))
    _, rule_bm = solve(BrownianDrift(1.0, math.sqrt(2.0)))
    assert rule_beta.a_star == pytest.approx(rule_bm.a_star, abs=1e-8)


def test_continuous_fit_regime():
    # atom mass squared 0.75^2 > 1/2: stop immediately at the first nonnegative point
    ev, rule = solve(CramerLundberg(4.0, 1.0, 1.0))
    assert rule.regime is Regime.CONTINUOUS_FIT_ONLY
    assert rule.a_star == 0.0
    # H is still available: its atom at 0 is F(0)^2 = 0.75^2
    assert rule.table(0.0) == pytest.approx(0.5625, abs=1e-15)
    assert V_at(ev, rule, -0.9) == pytest.approx(-0.3, abs=1e-14)
    assert V_at(ev, rule, 0.0) == 0.0
    assert V_at(ev, rule, 2.0) == 0.0
    with pytest.raises(ValueError):
        V_prime_at(ev, rule, 0.0)
    assert V_prime_at(ev, rule, -1e-9) == pytest.approx(1.0 / 3.0, abs=1e-9)


def test_regime_tie_goes_to_continuous_fit():
    # atom mass tuned so the computed f0^2 sits right on 1/2 (one ulp above);
    # the tie belongs to the continuous-fit branch
    f0 = 0.7071067811865476
    m = CramerLundberg(1.0, 1.0 - f0, 1.0)
    assert m.profile().f0 == f0
    assert m.profile().f0**2 >= 0.5
    _, rule = solve(m)
    assert rule.regime is Regime.CONTINUOUS_FIT_ONLY
    assert rule.a_star == 0.0


def test_smooth_fit_slope_vanishes():
    for model in (BM, CL, BetaFamily(1.5)):
        ev, rule = solve(model)
        assert V_prime_at(ev, rule, rule.a_star) == 0.0
        eps = 1e-7
        assert abs(V_prime_at(ev, rule, rule.a_star - eps)) < 1e-5


def test_value_at_zero_frozen():
    ev, rule = solve(BM)
    assert V_at(ev, rule, 0.0) == pytest.approx(-0.4741441961408327, abs=1e-9)
    ev, rule = solve(CL)
    assert V_at(ev, rule, 0.0) == pytest.approx(-0.2756722970816635, abs=1e-9)


def test_value_matches_direct_quadrature():
    # hand-written H for the Brownian case, integrated by scipy
    ev, rule = solve(BM)

    def h(y):
        return 1.0 - 2.0 * y * math.exp(-2.0 * y) - math.exp(-2.0 * y)

    a = 1.2
    for x in (-0.5, 0.0, 0.3, 1.0):
        base = max(x, 0.0)
        ref, _ = integrate.quad(h, base, a)
        ref = 2.0 * ref - (a - base) + min(x, 0.0)
        assert V_a_at(ev, rule.table, a, x) == pytest.approx(ref, abs=1e-9)


def test_value_alternative_form():
    # V_a(x) = 2 p (Q(a) - Q(x)) - (a - x)/p with Q(x) = int_0^x W(y) W(x-y) dy
    for model in (BM, CramerLundberg(2.5, 1.2, 1.0)):
        ev, rule = solve(model)
        p = ev.profile.psi_prime0

        def q_fn(x):
            if x <= 0.0:
                return 0.0
            val, _ = integrate.quad(lambda y: ev.w(y) * ev.w(x - y), 0.0, x, limit=200)
            return val

        a = 1.5
        for x in (0.2, 0.8):
            ref = 2.0 * p * (q_fn(a) - q_fn(x)) - (a - x) / p
            assert V_a_at(ev, rule.table, a, x) == pytest.approx(ref, abs=1e-7)


def test_value_shape():
    for model in (BM, CL, BetaFamily(1.5)):
        ev, rule = solve(model)
        xs = np.linspace(-2.0, rule.a_star + 1.0, 121)
        vals = np.array([V_at(ev, rule, float(x)) for x in xs])
        assert np.all(vals <= 1e-12)
        assert np.all(np.diff(vals) >= -1e-12)
        assert V_at(ev, rule, rule.a_star) == 0.0
        p = ev.profile.psi_prime0
        # unit slope in 1/p below zero
        assert V_at(ev, rule, -2.0) - V_at(ev, rule, -1.0) == pytest.approx(-1.0 / p, abs=1e-10)


def test_value_is_minimal_at_threshold():
    for model in (BM, CL):
        ev, rule = solve(model)
        v_star = V_a_at(ev, rule.table, rule.a_star, 0.0)
        for a in (0.5 * rule.a_star, 1.5 * rule.a_star):
            assert V_a_at(ev, rule.table, a, 0.0) > v_star + 1e-5


def test_value_prime_matches_difference_quotient():
    ev, rule = solve(CL)
    h = 1e-6
    for x in (-0.7, 0.4, 1.0):
        num = (
            V_a_at(ev, rule.table, rule.a_star, x + h)
            - V_a_at(ev, rule.table, rule.a_star, x - h)
        ) / (2 * h)
        assert V_prime_at(ev, rule, x) == pytest.approx(num, abs=1e-6)


def test_value_guards():
    ev, rule = solve(BM)
    with pytest.raises(ValueError):
        V_a_at(ev, rule.table, -0.5, 0.0)
    assert V_a_at(ev, rule.table, 0.7, 0.7) == 0.0
    assert V_a_at(ev, rule.table, 0.7, 2.0) == 0.0


def test_root_tolerance_guards():
    # a tolerance of 1 or more ends the root solve anywhere in the bracket
    for tol in (math.inf, math.nan, 0.0, -1e-10, 1.0):
        with pytest.raises(ValueError):
            solve(BM, tol=tol)
        with pytest.raises(ValueError):
            solve(CramerLundberg(4.0, 1.0, 1.0), tol=tol)


def test_expected_g_values():
    # E_0(g) = psi''(0+)/psi'(0+)^2
    assert expected_g(BM) == pytest.approx(1.0, abs=1e-14)
    assert expected_g(CL) == pytest.approx(2.0, abs=1e-14)
    assert expected_g(BetaFamily(1.5)) == pytest.approx(4.0 - 4.0 * math.log(2.0), rel=1e-12)
    # linear extension below zero
    assert expected_g(CL, -1.0) == pytest.approx(3.0, abs=1e-14)


def test_expected_g_continuous_at_zero():
    h = 1e-9
    assert expected_g(BM, -h) == pytest.approx(expected_g(BM, h), abs=1e-7)
    mid = expected_g(BM, 0.0)
    assert expected_g(BM, h) == pytest.approx(mid, abs=1e-7)


def test_expected_g_positive_start_brownian_only():
    m = BrownianDrift(1.0, 1.0)
    assert expected_g(m, 0.5) == pytest.approx(math.exp(-1.0) * 1.5, rel=1e-12)
    with pytest.raises(ValueError):
        expected_g(CL, 0.5)


def test_expected_passage_time():
    assert expected_tau_plus(BM, 2.0) == pytest.approx(2.0)
    assert expected_tau_plus(CL, 1.5) == pytest.approx(1.5)
    assert expected_tau_plus(CramerLundberg(4.0, 1.0, 1.0), 1.5) == pytest.approx(0.5)
    assert expected_tau_plus(BM, -1.0) == 0.0
    assert expected_tau_plus(BM, 0.0) == 0.0


def test_laplace_transform_of_g():
    assert laplace_g_brownian(BM, 0.0) == pytest.approx(1.0, abs=1e-14)
    assert laplace_g_brownian(BM, 0.0, x=0.8) == pytest.approx(1.0, abs=1e-12)
    assert laplace_g_brownian(BM, 1.0) == pytest.approx(1.0 / math.sqrt(3.0), rel=1e-12)
    with pytest.raises(ValueError):
        laplace_g_brownian(BM, -0.5)
    with pytest.raises(ValueError):
        laplace_g_brownian(CL, 1.0)


def test_laplace_decreasing_in_start():
    # starting higher makes g stochastically smaller but the transform larger
    vals = [laplace_g_brownian(BM, 1.0, x=x) for x in (-1.0, 0.0, 1.0, 2.0)]
    assert all(b > a for a, b in zip(vals, vals[1:]))
    assert vals[-1] < 1.0


def test_build_value_curve():
    for model in (CL, BetaFamily(1.5)):
        ev, rule = solve(model)
        xs = np.linspace(-1.0, 2.0, 31)
        thr = (0.5 * rule.a_star, rule.a_star)
        curve = build_value_curve(ev, rule.table, xs, thr)
        assert curve.values.shape == (2, 31)
        assert curve.thresholds == thr
        # the curve evaluates V_a on the whole grid at once; pointwise agrees
        for i, x in enumerate(xs):
            assert curve.values[1, i] == pytest.approx(
                V_a_at(ev, rule.table, rule.a_star, float(x)), abs=1e-12
            )
        assert np.allclose(curve.inf_cdf, ev.inf_cdf(xs))
        assert np.allclose(curve.conv, rule.table(xs))


def test_build_value_curve_continuous_fit():
    ev, rule = solve(CramerLundberg(4.0, 1.0, 1.0))
    xs = np.linspace(-0.5, 1.0, 7)
    curve = build_value_curve(ev, rule.table, xs, (0.0,))
    assert curve.conv[0] == 0.0
    assert curve.conv[-1] > 0.5


@pytest.mark.parametrize(
    "model",
    [BM, CL, CramerLundberg(4.0, 1.0, 1.0), BetaFamily(1.5)],
    ids=["bm", "cl-smooth", "cl-continuous", "beta1.5"],
)
def test_build_value_curve_columns_equal_v_a_at(model):
    # the curve takes the running integral of H in one pass for all
    # thresholds; each column is V_a_at's, bit for bit, for thresholds out
    # of order and repeated, 0 among them, on a grid past the top one
    ev, rule = solve(model)
    top = max(rule.a_star, 0.4)
    thr = (top, 0.0, 0.5 * top, top, 0.25 * top)
    xs = np.linspace(-1.0, 3.0 * top + 1.0, 57)
    curve = build_value_curve(ev, rule.table, xs, thr)
    for i, a in enumerate(thr):
        assert np.array_equal(curve.values[i], V_a_at(ev, rule.table, a, xs))
    with pytest.raises(ValueError, match="threshold"):
        build_value_curve(ev, rule.table, xs, (0.5, -0.1))
