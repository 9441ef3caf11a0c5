"""Property tests over wide parameter ranges, against mpmath oracles.

Each example is checked against an oracle that shares no code with the
package: 30-digit hypergeometric functions, mpmath quadrature, and root
solves of the depth-sum median equation written out by hand.
"""

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lastzero.convolution import build_table, conv_cdf
from lastzero.models import BetaFamily, BrownianDrift, CramerLundberg
from lastzero.scale import ScaleEvaluator
from lastzero.stopping import V_a_at, solve

# a fixed example sequence and no example database keep runs reproducible;
# the mpmath oracles are slow, so there is no per-example deadline
PROPERTY = settings(deadline=None, derandomize=True, database=None, max_examples=40)
SLOW_PROPERTY = settings(PROPERTY, max_examples=10)

BETAS = st.floats(min_value=1.0, max_value=2.0, exclude_min=True)
# below beta ~ 1.0005 the median of H underflows double precision
SOLVABLE_BETAS = st.floats(min_value=1.001, max_value=2.0)
LOG10_A_STAR = st.floats(min_value=-8.0, max_value=3.0)
# r = 1 - F(0) above 1 - 2^-1/2 is the smooth-fit side for Cramer-Lundberg
CL_RATIOS = st.floats(min_value=0.3, max_value=0.99)


def beta_h_mp(beta, x):
    b = mpmath.mpf(beta)
    v = -mpmath.expm1(-mpmath.mpf(x))
    c = mpmath.gamma(b) ** 2 / mpmath.gamma(2 * b - 1)
    return c * v ** (2 * b - 2) * mpmath.hyp2f1(b - 1, b - 1, 2 * b - 1, v)


def mixture_xi_mp(r):
    """Root of H = 1/2 at unit decay rate, for F(u) = 1 - r e^{-u}."""
    r = mpmath.mpf(r)

    def f(u):
        e = mpmath.exp(-u)
        return (1 - r) ** 2 + 2 * r * (1 - r) * (1 - e) + r**2 * (1 - e - u * e) - 0.5

    hi = 2 * mpmath.log(r / (1 - mpmath.sqrt(0.5)))
    return mpmath.findroot(f, (mpmath.mpf(0), hi), solver="anderson")


def mixture_model(r, log10_a_star):
    """A model with F(u) = 1 - r e^{-k u} whose a* is near 10^log10_a_star."""
    with mpmath.workdps(30):
        k = float(mixture_xi_mp(r)) / 10.0**log10_a_star
    if r == 1.0:
        return BrownianDrift(1.0, (2.0 / k) ** 0.5)
    # mu = 1: r = lam/rho, k = rho - lam
    return CramerLundberg(1.0, r * k / (1.0 - r), k / (1.0 - r))


@PROPERTY
@given(beta=BETAS, x=st.floats(min_value=0.0, max_value=40.0))
def test_beta_conv_cdf_matches_mpmath(beta, x):
    ev = ScaleEvaluator(BetaFamily(beta))
    with mpmath.workdps(30):
        ref = float(beta_h_mp(beta, x))
    assert abs(conv_cdf(ev, x) - ref) <= 1e-13


@SLOW_PROPERTY
@given(beta=BETAS, x=st.floats(min_value=1e-6, max_value=40.0))
def test_beta_cum_integral_matches_mpmath(beta, x):
    table = build_table(ScaleEvaluator(BetaFamily(beta)))
    with mpmath.workdps(20):
        pts = [0.0] + [p for p in (1e-3, 1.0, 4.0, 16.0) if p < x] + [x]
        ref = float(mpmath.quad(lambda y: beta_h_mp(beta, y), pts))
    assert table.cum_integral(x) == pytest.approx(ref, rel=1e-10)


@PROPERTY
@given(r=st.one_of(st.just(1.0), CL_RATIOS), log10_a=LOG10_A_STAR)
def test_mixture_a_star_scales_with_decay_rate(r, log10_a):
    ev, rule = solve(mixture_model(r, log10_a))
    r_model, k = ev.law.r, ev.law.k
    with mpmath.workdps(30):
        xi = float(mixture_xi_mp(r_model))
    assert rule.a_star * k == pytest.approx(xi, rel=1e-9)


@PROPERTY
@given(
    family=st.sampled_from(("mixture", "beta")),
    r=st.one_of(st.just(1.0), CL_RATIOS),
    log10_a=LOG10_A_STAR,
    beta=SOLVABLE_BETAS,
)
def test_median_equation_holds_at_a_star(family, r, log10_a, beta):
    model = mixture_model(r, log10_a) if family == "mixture" else BetaFamily(beta)
    # the root tolerance is relative to a*; at 1e-13 H(a*) is 1/2 to 1e-12
    ev, rule = solve(model, tol=1e-13)
    assert abs(conv_cdf(ev, rule.a_star) - 0.5) <= 1e-12


@PROPERTY
@given(b1=SOLVABLE_BETAS, b2=SOLVABLE_BETAS)
def test_a_star_nondecreasing_in_beta(b1, b2):
    lo, hi = sorted((b1, b2))
    _, rule_lo = solve(BetaFamily(lo))
    _, rule_hi = solve(BetaFamily(hi))
    assert rule_lo.a_star <= rule_hi.a_star * (1.0 + 1e-9)


@PROPERTY
@given(
    beta=BETAS,
    theta=st.sampled_from((3.0, 19.5, 1e3, 1e10, 1e16, 1e100, 1e300)),
)
def test_beta_psi_prime_matches_mpmath(beta, theta):
    # the digamma difference of psi' needs about log10(theta) extra digits
    with mpmath.workdps(400):
        t, b = mpmath.mpf(theta), mpmath.mpf(beta)
        log_ratio = mpmath.loggamma(t + b) - mpmath.loggamma(t + 1) - mpmath.loggamma(b)
        slope = mpmath.digamma(t + b) - mpmath.digamma(t + 1)
        ref = float(mpmath.exp(log_ratio) * (1 + t * slope))
    assert BetaFamily(beta).psi_prime(theta) == pytest.approx(ref, rel=1e-13)


@PROPERTY
@given(
    family=st.sampled_from(("mixture", "beta")),
    r=st.one_of(st.just(1.0), CL_RATIOS),
    log10_a=LOG10_A_STAR,
    beta=BETAS,
    a=st.floats(min_value=0.0, max_value=50.0),
)
def test_mean_abs_error_exceeds_gap_of_means(family, r, log10_a, beta, a):
    # E|g - tau_a| = V_a(0) + E(g) >= |E(g) - E(tau_a)|, with E(g) =
    # psi''/psi'^2 and E(tau_a) = a/psi'; at a = 0, tau_0 = 0 and they are equal
    model = mixture_model(r, log10_a) if family == "mixture" else BetaFamily(beta)
    ev = ScaleEvaluator(model)
    table = build_table(ev)
    p1, p2 = model.psi_derivatives()
    mean_g = p2 / p1**2

    def mae(a):
        return V_a_at(ev, table, a, 0.0) + mean_g

    gap = abs(mean_g - a / p1)
    assert mae(a) >= gap - 1e-12 * max(mae(a), gap)
    assert mae(0.0) == pytest.approx(mean_g, rel=1e-12)
