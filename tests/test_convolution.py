"""Convolution square of the infimum law: closed forms against quadrature."""

import numpy as np
import pytest
from scipy import integrate, special

from lastzero.convolution import (
    build_table,
    conv_analytic,
    conv_cdf,
    conv_numeric,
)
from lastzero.laws import ExpMixtureLaw
from lastzero.models import BetaFamily, BrownianDrift, CramerLundberg
from lastzero.scale import ScaleEvaluator


def test_exp_mixture_params():
    law = ScaleEvaluator(BrownianDrift(1.0, 1.0)).law
    assert (law.r, law.k) == (1.0, 2.0)
    law = ScaleEvaluator(CramerLundberg(2.0, 1.0, 1.0)).law
    assert law.r == pytest.approx(0.5) and law.k == pytest.approx(0.5)
    # the Beta family's law has no exponential-mixture form
    assert not isinstance(ScaleEvaluator(BetaFamily(1.5)).law, ExpMixtureLaw)


def test_analytic_matches_quadrature():
    # BM(30, 1) has a steep scale (k = 60), CL(1.05, 1, 1) a load near 1;
    # at BM(30, 1), x = 0.4, H is within 1e-9 of 1, where a quadrature over
    # u = F(t) alone was 5.9e-10 off
    for m, tol in ((BrownianDrift(1.0, 1.0), 1e-8), (BrownianDrift(30.0, 1.0), 1e-12),
                   (CramerLundberg(2.0, 1.0, 1.0), 1e-8), (CramerLundberg(2.5, 1.2, 1.0), 1e-8),
                   (CramerLundberg(1.05, 1.0, 1.0), 1e-8)):
        ev = ScaleEvaluator(m)
        for x in np.linspace(0.0, 8.0, 21):
            assert conv_numeric(ev, float(x)) == pytest.approx(
                conv_analytic(ev, float(x)), abs=tol
            )
    # the 2F1 closed form of the Beta family against the quadrature route
    for beta in (1.01, 1.05, 1.5, 1.999, 2.0):
        ev = ScaleEvaluator(BetaFamily(beta))
        for x in np.linspace(0.0, 40.0, 17):
            assert conv_numeric(ev, float(x)) == pytest.approx(
                conv_analytic(ev, float(x)), abs=1e-9
            )


def test_atom_mass_at_zero():
    # H(0) is the squared atom of the infimum law
    assert conv_analytic(ScaleEvaluator(BrownianDrift(1.0, 1.0)), 0.0) == 0.0
    assert conv_analytic(ScaleEvaluator(CramerLundberg(2.0, 1.0, 1.0)), 0.0) == pytest.approx(
        0.25, abs=1e-14
    )
    assert conv_analytic(ScaleEvaluator(CramerLundberg(4.0, 1.0, 1.0)), 0.0) == pytest.approx(
        0.5625, abs=1e-14
    )


def test_beta_two_is_gamma_cdf():
    # beta = 2: infimum depth is Exp(1), so the sum is Gamma(2, 1)
    ev = ScaleEvaluator(BetaFamily(2.0))
    for x in np.linspace(0.0, 9.0, 19):
        assert conv_numeric(ev, float(x)) == pytest.approx(
            float(special.gammainc(2.0, x)), abs=1e-8
        )
        assert conv_analytic(ev, float(x)) == pytest.approx(
            float(special.gammainc(2.0, x)), abs=1e-15
        )


def test_beta_singular_endpoint_handled():
    # independent route: u = F(y) substitution evaluated by a fine trapezoid
    m = BetaFamily(1.5)
    ev = ScaleEvaluator(m)

    def h_trapezoid(x):
        u = np.linspace(0.0, ev.inf_cdf(x), 400001)[:-1]
        y = -np.log1p(-(u ** (1.0 / (m.beta - 1.0))))
        return float(np.trapezoid(ev.inf_cdf(x - y), u))

    for x in (0.4, 1.0, 2.5):
        assert conv_numeric(ev, x) == pytest.approx(h_trapezoid(x), abs=1e-6)


def test_conv_cdf_negative_and_saturation():
    for m in (BrownianDrift(1.0, 1.0), BetaFamily(1.5)):
        ev = ScaleEvaluator(m)
        assert conv_cdf(ev, -0.5) == 0.0
        assert conv_cdf(ev, 40.0) == pytest.approx(1.0, abs=1e-9)


def test_conv_cdf_monotone():
    xs = np.linspace(0.0, 10.0, 80)
    for m in (BrownianDrift(1.0, 1.0), CramerLundberg(2.0, 1.0, 1.0), BetaFamily(1.01),
              BetaFamily(1.5), BetaFamily(2.0)):
        ev = ScaleEvaluator(m)
        vals = np.array([conv_cdf(ev, float(x)) for x in xs])
        assert np.all(np.diff(vals) >= -1e-10)
        assert np.all((vals >= 0.0) & (vals <= 1.0 + 1e-12))


def test_table_interpolation_accuracy():
    # the table evaluates the closed form itself, so it matches H exactly
    rng = np.random.default_rng(21)
    xs = rng.uniform(-1.0, 12.0, size=40)
    for m in (CramerLundberg(2.0, 1.0, 1.0), BetaFamily(1.5)):
        ev = ScaleEvaluator(m)
        table = build_table(ev)
        direct = np.array([conv_cdf(ev, float(x)) for x in xs])
        assert np.array_equal(table(xs), direct)
        assert table(float(xs[0])) == direct[0]


def test_table_covers_median():
    # the solver's bracket [0, 2 F^-1(2^-1/2)]: H(x) >= F(x/2)^2 >= 1/2 at its end
    for m in (BrownianDrift(1.0, 1.0), CramerLundberg(2.0, 1.0, 1.0), BetaFamily(1.01),
              BetaFamily(1.5)):
        ev = ScaleEvaluator(m)
        hi = 2.0 * ev.inf_cdf_quantile(2.0**-0.5)
        table = build_table(ev)
        assert table(hi) >= ev.inf_cdf(0.5 * hi) ** 2 >= 0.5 - 1e-15
        assert table(hi) > 0.5


def test_table_extends_flat_and_zero():
    for m in (BrownianDrift(1.0, 1.0), BetaFamily(1.5)):
        table = build_table(ScaleEvaluator(m))
        assert table(-1.0) == 0.0
        assert table(99.0) == 1.0


def test_cum_integral_matches_quadrature():
    for m in (BrownianDrift(1.0, 1.0), CramerLundberg(2.0, 1.0, 1.0), BetaFamily(1.01),
              BetaFamily(1.5), BetaFamily(2.0)):
        ev = ScaleEvaluator(m)
        table = build_table(ev)
        for x in (1e-6, 0.5, 1.3, 2.7, 9.0, 40.0, 100.0):
            ref, _ = integrate.quad(
                lambda t: conv_analytic(ev, t), 0.0, x, epsabs=0.0, epsrel=1e-12, limit=200,
                points=[p for p in (1e-3, 1.0) if p < x] or None,
            )
            assert table.cum_integral(x) == pytest.approx(ref, rel=1e-10)


def test_cum_integral_additivity():
    for m in (CramerLundberg(2.0, 1.0, 1.0), BetaFamily(1.5)):
        table = build_table(ScaleEvaluator(m))
        a, b = 0.8, 2.2
        seg = table.cum_integral(b) - table.cum_integral(a)
        mid = table.cum_integral(1.5) - table.cum_integral(a) + (
            table.cum_integral(b) - table.cum_integral(1.5)
        )
        assert seg == pytest.approx(mid, abs=1e-14)
        # H is bounded by 1 and increasing, so the segment is bounded by its ends
        assert (b - a) * table(a) <= seg <= (b - a) * table(b)


def test_cum_integral_guards():
    for m in (BrownianDrift(1.0, 1.0), BetaFamily(1.5)):
        table = build_table(ScaleEvaluator(m))
        assert table.cum_integral(-1.0) == 0.0
        assert table.cum_integral(0.0) == 0.0
        for bad in (float("nan"), float("inf")):
            with pytest.raises(ValueError):
                table.cum_integral(bad)
