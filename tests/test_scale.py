"""Scale functions, the infimum law, and its quantiles."""

import math

import mpmath
import numpy as np
import pytest
from scipy import integrate

from lastzero.models import BetaFamily, BrownianDrift, CramerLundberg
from lastzero.scale import ScaleEvaluator

MODELS = [
    BrownianDrift(1.0, 1.0),
    BrownianDrift(0.7, 1.4),
    CramerLundberg(2.0, 1.0, 1.0),
    CramerLundberg(4.0, 1.0, 1.0),
    BetaFamily(1.5),
    BetaFamily(2.0),
]


def test_laplace_transform_of_w():
    # int_0^inf exp(-beta x) W(x) dx = 1 / psi(beta)
    for m in MODELS:
        ev = ScaleEvaluator(m)
        beta = 1.5
        val, err = integrate.quad(lambda t: math.exp(-beta * t) * ev.w(t), 0.0, 60.0)
        assert val == pytest.approx(1.0 / m.psi(beta), abs=1e-8 + 10 * err)


def test_w_at_zero():
    assert ScaleEvaluator(BrownianDrift(1.0, 1.0)).w(0.0) == 0.0
    assert ScaleEvaluator(BetaFamily(1.5)).w(0.0) == 0.0
    # finite variation: W(0) = 1/drift
    assert ScaleEvaluator(CramerLundberg(2.0, 1.0, 1.0)).w(0.0) == pytest.approx(0.5, abs=1e-14)


def test_w_vanishes_below_zero():
    for m in MODELS:
        ev = ScaleEvaluator(m)
        xs = np.array([-3.0, -0.5, -1e-9])
        assert np.all(ev.w(xs) == 0.0)
        assert np.all(ev.inf_cdf(xs) == 0.0)
        assert np.all(ev.gain(xs) == -1.0)


def test_w_prime_value():
    ev = ScaleEvaluator(CramerLundberg(2.0, 1.0, 1.0))
    assert ev.w_prime(0.5) == pytest.approx(0.19470019576785122, abs=1e-15)


def test_w_prime_matches_difference_quotient():
    rng = np.random.default_rng(11)
    for m in MODELS:
        ev = ScaleEvaluator(m)
        xs = rng.uniform(0.2, 3.0, size=6)
        h = 1e-6
        num = (ev.w(xs + h) - ev.w(xs - h)) / (2 * h)
        assert np.allclose(ev.w_prime(xs), num, rtol=1e-7, atol=1e-9)


def test_w_prime_rejects_nonpositive():
    ev = ScaleEvaluator(BrownianDrift(1.0, 1.0))
    with pytest.raises(ValueError):
        ev.w_prime(0.0)
    with pytest.raises(ValueError):
        ev.w_prime(np.array([0.5, -1.0]))


def test_w_monotone_and_bounded():
    xs = np.linspace(0.0, 12.0, 600)
    for m in MODELS:
        ev = ScaleEvaluator(m)
        w = np.asarray(ev.w(xs))
        assert np.all(np.diff(w) >= -1e-15)
        cdf = np.asarray(ev.inf_cdf(xs))
        assert np.all((cdf >= 0.0) & (cdf <= 1.0))
        assert cdf[-1] > 0.99
        p1 = m.psi_derivatives()[0]
        assert np.allclose(cdf, p1 * w, rtol=1e-12, atol=1e-12)


def test_w_q_brownian_reduces_to_w():
    ev = ScaleEvaluator(BrownianDrift(1.3, 0.8))
    xs = np.linspace(-1.0, 4.0, 41)
    assert np.allclose(ev.w_q_brownian(xs, 0.0), ev.w(xs), rtol=1e-12, atol=1e-12)


def test_w_q_brownian_laplace_transform():
    # int_0^inf exp(-beta x) W_q(x) dx = 1 / (psi(beta) - q) for beta > phi(q)
    m = BrownianDrift(1.0, 1.0)
    ev = ScaleEvaluator(m)
    q = 0.8
    beta = m.phi(q) + 1.0
    val, err = integrate.quad(lambda t: math.exp(-beta * t) * ev.w_q_brownian(t, q), 0.0, 80.0)
    assert val == pytest.approx(1.0 / (m.psi(beta) - q), abs=1e-8 + 10 * err)


def test_w_q_brownian_guards():
    ev = ScaleEvaluator(BrownianDrift(1.0, 1.0))
    with pytest.raises(ValueError):
        ev.w_q_brownian(1.0, -0.1)
    with pytest.raises(ValueError):
        ScaleEvaluator(CramerLundberg(2.0, 1.0, 1.0)).w_q_brownian(1.0, 0.5)


def test_quantile_roundtrip():
    rng = np.random.default_rng(12)
    ps = rng.uniform(0.01, 0.98, size=12)
    for m in MODELS:
        ev = ScaleEvaluator(m)
        f0 = m.profile().f0
        for p in ps:
            x = ev.inf_cdf_quantile(p)
            if p <= f0:
                assert x == 0.0
            else:
                assert ev.inf_cdf(x) == pytest.approx(p, abs=1e-12)


def test_quantile_rejects_bad_p():
    ev = ScaleEvaluator(BrownianDrift(1.0, 1.0))
    with pytest.raises(ValueError):
        ev.inf_cdf_quantile(1.0)
    with pytest.raises(ValueError):
        ev.inf_cdf_quantile(-0.2)


def test_median_closed_forms():
    assert ScaleEvaluator(BrownianDrift(1.0, 1.0)).x0() == pytest.approx(
        math.log(2.0) / 2.0, abs=1e-15
    )
    assert ScaleEvaluator(BetaFamily(2.0)).x0() == pytest.approx(math.log(2.0), abs=1e-15)
    assert ScaleEvaluator(BetaFamily(1.5)).x0() == pytest.approx(
        0.2876820724517809, abs=1e-15
    )
    # atom at zero already holds half the mass
    assert ScaleEvaluator(CramerLundberg(4.0, 1.0, 1.0)).x0() == 0.0


def test_median_solves_half_mass():
    for m in MODELS:
        ev = ScaleEvaluator(m)
        x0 = ev.x0()
        assert ev.inf_cdf(x0) >= 0.5 - 1e-12
        if x0 > 0.0:
            assert ev.inf_cdf(x0 - 1e-9) < 0.5


def test_decay_rate():
    assert ScaleEvaluator(BrownianDrift(1.0, 1.0)).decay_rate() == pytest.approx(2.0)
    assert ScaleEvaluator(CramerLundberg(2.0, 1.0, 1.0)).decay_rate() == pytest.approx(0.5)
    assert ScaleEvaluator(BetaFamily(1.5)).decay_rate() == pytest.approx(1.0)


def test_median_is_the_half_quantile():
    for m in MODELS:
        ev = ScaleEvaluator(m)
        assert ev.x0() == ev.inf_cdf_quantile(0.5)


def test_inf_cdf_small_x_matches_mpmath():
    # F = -expm1(-k x) in the mixture form keeps every digit at small x
    x = 1e-12
    with mpmath.workdps(30):
        bm_ref = float(-mpmath.expm1(-2 * mpmath.mpf(x)))
        beta_ref = float(mpmath.sqrt(-mpmath.expm1(-mpmath.mpf(x))))
    assert ScaleEvaluator(BrownianDrift(1.0, 1.0)).inf_cdf(x) == pytest.approx(bm_ref, rel=1e-14)
    assert ScaleEvaluator(BetaFamily(1.5)).inf_cdf(x) == pytest.approx(beta_ref, rel=1e-14)
