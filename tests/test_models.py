"""Laplace exponents, derivatives, and the right inverse."""

import math

import mpmath
import numpy as np
import pytest

from lastzero.models import (
    BetaFamily,
    BrownianDrift,
    CramerLundberg,
    ModelProfile,
    Variation,
    model_from_dict,
)

ALL_MODELS = [
    BrownianDrift(1.0, 1.0),
    BrownianDrift(0.5, 2.0),
    CramerLundberg(2.0, 1.0, 1.0),
    CramerLundberg(4.0, 1.0, 1.0),
    CramerLundberg(2.5, 1.2, 1.0),
    BetaFamily(1.5),
    BetaFamily(2.0),
]


def test_brownian_psi_closed_form():
    m = BrownianDrift(1.5, 0.7)
    th = np.linspace(0.0, 5.0, 21)
    expect = 1.5 * th + 0.5 * 0.49 * th**2
    assert np.allclose(m.psi(th), expect, rtol=0, atol=1e-14)
    assert np.allclose(m.psi_prime(th), 1.5 + 0.49 * th, rtol=0, atol=1e-14)


def test_cramer_lundberg_psi_closed_form():
    m = CramerLundberg(2.0, 1.0, 1.0)
    # psi(theta) = 2 theta - theta / (1 + theta)
    assert m.psi(1.0) == pytest.approx(1.5, abs=1e-14)
    assert m.psi(3.0) == pytest.approx(6.0 - 0.75, abs=1e-14)
    p1, p2 = m.psi_derivatives()
    assert p1 == pytest.approx(1.0, abs=1e-14)
    assert p2 == pytest.approx(2.0, abs=1e-14)


def test_cramer_lundberg_psi_second_derivative_numeric():
    # psi''(0+) = 2 lam / rho^2, checked against a central difference
    m = CramerLundberg(2.5, 1.2, 1.3)
    h = 1e-5
    num = (m.psi(2 * h) - 2 * m.psi(h) + m.psi(0.0)) / h**2
    _, p2 = m.psi_derivatives()
    assert p2 == pytest.approx(2 * 1.2 / 1.3**2, rel=1e-12)
    assert num == pytest.approx(p2, rel=1e-3)


def test_beta_two_is_quadratic():
    m = BetaFamily(2.0)
    th = np.linspace(0.0, 4.0, 17)
    assert np.allclose(m.psi(th), th**2 + th, rtol=1e-13, atol=1e-13)
    p1, p2 = m.psi_derivatives()
    assert p1 == pytest.approx(1.0, abs=1e-12)
    assert p2 == pytest.approx(2.0, abs=1e-12)
    eq = m.brownian_equivalent()
    assert eq is not None and eq.mu == 1.0 and eq.sigma == pytest.approx(math.sqrt(2.0))


def test_beta_second_derivative_closed_form():
    # psi''(0+) = 2 (digamma(beta) - digamma(1)); at beta = 3/2 this is 4 - 4 ln 2
    m = BetaFamily(1.5)
    p1, p2 = m.psi_derivatives()
    assert p1 == pytest.approx(1.0, abs=1e-12)
    assert p2 == pytest.approx(4.0 - 4.0 * math.log(2.0), rel=1e-12)
    h = 1e-5
    num = (m.psi(2 * h) - 2 * m.psi(h) + m.psi(0.0)) / h**2
    assert num == pytest.approx(p2, rel=1e-3)


def test_psi_prime_matches_difference_quotient():
    rng = np.random.default_rng(5)
    for m in ALL_MODELS:
        th = rng.uniform(0.05, 4.0, size=8)
        h = 1e-6
        num = (m.psi(th + h) - m.psi(th - h)) / (2 * h)
        assert np.allclose(m.psi_prime(th), num, rtol=1e-6, atol=1e-8)


def test_psi_convexity_and_zero():
    th = np.linspace(0.0, 6.0, 301)
    for m in ALL_MODELS:
        vals = np.asarray(m.psi(th))
        assert vals[0] == pytest.approx(0.0, abs=1e-14)
        second = np.diff(vals, 2)
        assert np.all(second > -1e-10)


def test_phi_inverts_psi():
    for m in ALL_MODELS:
        for q in (0.1, 1.0, 7.5):
            x = m.phi(q)
            assert m.psi(x) == pytest.approx(q, abs=1e-10)
    # the residual is held relative to q, small or large; at 1e300 psi
    # overflows inside the initial bracket
    for m, q in (
        (BrownianDrift(1.0, 1.0), 1e-6),
        (BrownianDrift(1.0, 1.0), 1e5),
        (BrownianDrift(1e-3, 1e-2), 1e6),
        (BetaFamily(1.5), 1e-6),
        (BetaFamily(1.5), 1e6),
        (CramerLundberg(4.0, 1.0, 1.0), 1e300),
        (BrownianDrift(1.0, 1.0), 1e300),
        (BetaFamily(1.5), 1e300),
    ):
        x = m.phi(q)
        assert abs(m.psi(x) - q) <= 1e-12 * q
    # near load 1 psi cancels to a few 1e-12 relative, above the residual
    # target; the solve still returns the root, to the resolution of psi:
    # mu th^2 + (mu rho - lam - q) th - q rho = 0, solved without cancellation
    mu, lam, rho, q = 1.0, 1.0 - 1e-12, 1.0, 1e-9
    c1 = mu * rho - lam - q
    root = 2.0 * q * rho / (c1 + math.sqrt(c1 * c1 + 4.0 * mu * q * rho))
    assert CramerLundberg(mu, lam, rho).phi(q) == pytest.approx(root, rel=1e-9)
    # the bracket q/psi'(0+) overflows
    with pytest.raises(ArithmeticError):
        BrownianDrift(1e-10, 1.0).phi(1e300)


def test_phi_at_zero_is_zero():
    for m in ALL_MODELS:
        assert m.phi(0.0) == pytest.approx(0.0, abs=1e-10)


def test_phi_brownian_closed_form():
    m = BrownianDrift(1.0, 1.0)
    for q in (0.5, 1.0, 2.0):
        closed = (math.sqrt(1.0 + 2.0 * q) - 1.0)
        assert m.phi(q) == pytest.approx(closed, rel=1e-12)


def test_profile_variation_and_drift():
    assert BrownianDrift(1.0, 1.0).profile().variation is Variation.INFINITE
    prof = CramerLundberg(2.0, 1.0, 1.0).profile()
    assert prof.variation is Variation.FINITE
    assert prof.drift == pytest.approx(2.0)
    assert BetaFamily(1.5).profile().variation is Variation.INFINITE


def test_profile_f0_atom():
    # finite variation: F(0) = psi'(0+)/drift; infinite variation: 0
    assert BrownianDrift(1.0, 1.0).profile().f0 == 0.0
    assert CramerLundberg(2.0, 1.0, 1.0).profile().f0 == pytest.approx(0.5, abs=1e-14)
    assert CramerLundberg(4.0, 1.0, 1.0).profile().f0 == pytest.approx(0.75, abs=1e-14)


@pytest.mark.parametrize("model", [
    BrownianDrift(1.0, 1.0), CramerLundberg(2.0, 1.0, 1.0), CramerLundberg(4.0, 1.0, 1.0),
    CramerLundberg(1.3, 1.0, 1.0), BetaFamily(1.5), BetaFamily(2.0),
], ids=["bm", "cl2", "cl4", "cl13", "beta15", "beta2"])
def test_profile_reads_mass_at_zero(model):
    # the law's float mass at 0 gives the same profile as evaluating F(0)
    law = model.infimum_law()
    f0 = law.cdf(0.0)
    assert type(law.mass_at_zero) is float and law.mass_at_zero == f0
    p1, p2 = model.psi_derivatives()
    if f0 > 0.0:
        expected = ModelProfile(p1, p2, Variation.FINITE, p1 / f0, f0)
    else:
        expected = ModelProfile(p1, p2, Variation.INFINITE, None, f0)
    assert model.profile() == expected


def test_parameter_validation():
    with pytest.raises(ValueError):
        BrownianDrift(0.0, 1.0)
    with pytest.raises(ValueError):
        BrownianDrift(1.0, -1.0)
    with pytest.raises(ValueError):
        CramerLundberg(1.0, 2.0, 1.0)  # lam/(rho mu) = 2, no drift to +inf
    with pytest.raises(ValueError):
        BetaFamily(1.0)
    with pytest.raises(ValueError):
        BetaFamily(2.5)


def test_params_roundtrip():
    for m in ALL_MODELS:
        again = model_from_dict(m.params_dict())
        assert again == m


def test_model_from_dict_rejects_unknown():
    with pytest.raises(ValueError):
        model_from_dict({"kind": "stable", "alpha": 1.5})


def test_beta_psi_large_theta_matches_mpmath():
    # the lgamma difference is summed as a Stirling series from theta + 1 = 20
    for beta in (1.01, 1.5, 1.999):
        m = BetaFamily(beta)
        for theta in (10.0, 18.99, 19.0, 1e3, 1e6, 1e9, 1e12):
            t, b = mpmath.mpf(theta), mpmath.mpf(beta)
            with mpmath.workdps(30):
                ref = float(t * mpmath.gamma(t + b) / mpmath.gamma(t + 1) / mpmath.gamma(b))
            assert m.psi(theta) == pytest.approx(ref, rel=5e-14)


def test_beta_phi_newton_converges_at_large_q(monkeypatch):
    # psi' from the derivative of the Stirling series keeps Newton quadratic
    # where the digamma difference cancels (theta beyond about 1e16)
    calls = []
    psi = BetaFamily.psi

    def counted(self, theta):
        calls.append(theta)
        return psi(self, theta)

    monkeypatch.setattr(BetaFamily, "psi", counted)
    m = BetaFamily(1.5)
    for q in (1e100, 1e300):
        calls.clear()
        x = m.phi(q)
        assert len(calls) <= 25
        assert abs(psi(m, x) - q) <= 1e-12 * q
