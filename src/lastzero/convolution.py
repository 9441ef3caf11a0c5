"""Self-convolution of the infimum law.

With F = inf_cdf, the optimal threshold of the stopping rule is the median
of the distribution

    H(x) = integral_[0,x] F(x - y) dF(y),

the law of the sum of two independent infimum depths.  Every supported
family has H in closed form (``conv_analytic``):

* Brownian and Cramer-Lundberg: F(y) = 1 - r e^{-k y}, an atom 1-r at 0
  plus an Exp(k) depth, so H mixes an atom, one exponential and a Gamma(2)
  term: H(x) = (1-r)^2 + 2 r (1-r) P(1, kx) + r^2 P(2, kx), with P the
  regularized lower incomplete gamma function (accurate also at small kx,
  where 1 - e^{-kx} - kx e^{-kx} cancels).
* Beta family: F(y) = V(y)^(beta-1) with V(y) = 1 - e^{-y}.  Substituting
  v = 1 - e^{-t} turns H into Euler's integral (DLMF 15.6.1),

      H(x) = Gamma(beta)^2 / Gamma(2 beta - 1) * V^(2 beta - 2)
             * 2F1(beta - 1, beta - 1; 2 beta - 1; V),   V = 1 - e^{-x}.

  Here c - a - b = 1, the logarithmic case of 2F1 at V = 1, where the
  library 2F1 loses digits; for V >= 3/4 the expansion in 1 - V = e^{-x}
  (DLMF 15.8.10) is summed instead.  At beta = 2 both give the Gamma(2, 1)
  CDF with no special case.

``conv_numeric`` integrates the scale-function identity

      H(x) = psi'(0+)^2 * ( W(x) W(0) + int_0^x W(x-t) W'(t) dt )

by adaptive quadrature.  It shares no code with the closed forms and is
kept as the independent reference the tests compare against.

``ConvolutionTable`` is H of one model together with its exact running
integral, which the value function needs.
"""

from __future__ import annotations

import functools
import math

import numpy as np
from scipy import integrate, special

from .models import BetaFamily, BrownianDrift, CramerLundberg
from .scale import ScaleEvaluator

__all__ = [
    "ConvolutionTable",
    "conv_analytic",
    "conv_numeric",
    "conv_cdf",
    "exp_mixture_params",
    "build_table",
]

DEFAULT_QUAD_TOL = 1e-9

# Beta family: below x = ln 4 (V < 3/4) the library 2F1 is accurate; above
# it the expansion in w = e^{-x} <= 1/4 has terms below 1e-20 after 40.
_LOG_CASE_FROM = math.log(4.0)
_LOG_CASE_TERMS = 40
# H(x) = 1 to double precision for x >= 64 (1 - H(64) < 1e-25 for every beta)
_BETA_SATURATION = 64.0
_JACOBI_NODES = 32
_PANEL_NODES = 16
_GAMMA_ORDERS = np.array([1.0, 2.0, 3.0])


def exp_mixture_params(ev: ScaleEvaluator) -> tuple[float, float]:
    """(ratio, rate) such that inf_cdf(x) = 1 - ratio * exp(-rate * x).

    Holds exactly for BrownianDrift (ratio = 1) and CramerLundberg
    (ratio = lam/(mu rho) < 1); raises for the Beta family.
    """
    m = ev.model
    if isinstance(m, BrownianDrift):
        return 1.0, ev.decay_rate()
    if isinstance(m, CramerLundberg):
        return m.lam / (m.mu * m.rho), ev.decay_rate()
    raise ValueError("no exponential-mixture form for this model")


def _beta_h(beta: float, x: np.ndarray) -> np.ndarray:
    """Closed-form H of BetaFamily(beta) at x >= 0."""
    a = beta - 1.0
    out = np.empty_like(x)
    near = x >= _LOG_CASE_FROM
    xf = x[~near]
    v = -np.expm1(-xf)
    c = math.exp(2.0 * special.gammaln(beta) - special.gammaln(2.0 * a + 1.0))
    out[~near] = c * v ** (2.0 * a) * special.hyp2f1(a, a, 2.0 * a + 1.0, v)
    if np.any(near):
        # c 2F1(a, a; 2a+1; 1-w) = 1 + a^2 w sum_n c_n w^n (log w + d_n),
        # c_n = (a+1)_n^2 / (n! (n+1)!), d_n = 2 digamma(a+1+n)
        # - digamma(n+1) - digamma(n+2); here log w = -x exactly.
        n = np.arange(_LOG_CASE_TERMS, dtype=float)
        cn = np.exp(
            2.0 * (special.gammaln(a + 1.0 + n) - special.gammaln(a + 1.0))
            - special.gammaln(n + 1.0)
            - special.gammaln(n + 2.0)
        )
        dn = (
            2.0 * special.digamma(a + 1.0 + n)
            - special.digamma(n + 1.0)
            - special.digamma(n + 2.0)
        )
        xn = x[near]
        w = np.exp(-xn)
        powers = w[:, None] ** n
        series = powers @ (cn * dn) - xn * (powers @ cn)
        out[near] = np.exp(2.0 * a * np.log1p(-w)) * (1.0 + a * a * w * series)
    return out


def conv_analytic(ev: ScaleEvaluator, x):
    """Closed-form H for every family (see the module docstring); 0 for x < 0."""
    xa = np.asarray(x, float)
    neg = xa < 0.0
    xp = np.where(neg, 0.0, xa)
    if isinstance(ev.model, BetaFamily):
        vals = _beta_h(ev.model.beta, np.atleast_1d(xp)).reshape(xp.shape)
    else:
        r, k = exp_mixture_params(ev)
        u = k * xp
        vals = (
            (1.0 - r) ** 2
            + 2.0 * r * (1.0 - r) * special.gammainc(1.0, u)
            + r**2 * special.gammainc(2.0, u)
        )
    out = np.where(neg, 0.0, vals)
    return float(out) if np.ndim(x) == 0 else out


def conv_numeric(ev: ScaleEvaluator, x: float, quad_tol: float = DEFAULT_QUAD_TOL) -> float:
    """H(x) by quadrature of the scale-function identity; any model.

    The reference route: for the Beta family the integrand has an endpoint
    singularity W'(t) ~ (beta-1) t^(beta-2) at t = 0 when beta < 2, which
    the substitution u = W(t) absorbs, leaving a bounded integrand.
    """
    if x < 0.0:
        return 0.0
    p1 = ev.profile.psi_prime0
    atom = p1**2 * ev.w(x) * ev.w(0.0)
    if x == 0.0:
        return atom
    m = ev.model
    if isinstance(m, BetaFamily):
        # u = W(t):  int_0^x W(x-t) W'(t) dt = int_0^W(x) W(x - t(u)) du
        # with t(u) = -log1p(-u^(1/(beta-1))); the integrand is bounded.
        bm1 = m.beta - 1.0

        def integrand(u):
            t = -np.log1p(-u ** (1.0 / bm1))
            return ev.w(x - t)

        upper = ev.w(x)
        val, _ = integrate.quad(
            integrand, 0.0, upper, epsabs=quad_tol, epsrel=1e-10, limit=200
        )
    else:

        def integrand(t):
            return ev.w(x - t) * ev.w_prime(t)

        val, _ = integrate.quad(
            integrand, 0.0, x, epsabs=quad_tol, epsrel=1e-10, limit=200
        )
    return atom + p1**2 * val


def conv_cdf(ev: ScaleEvaluator, x):
    """H(x), the law of the sum of two independent infimum depths."""
    return conv_analytic(ev, x)


class ConvolutionTable:
    """The closed-form H of one model and its exact running integral.

    Calling the table evaluates H (``conv_analytic``); ``cum_integral(x)``
    is integral_0^x H(y) dy, which assembles the value function.
    """

    def __init__(self, ev: ScaleEvaluator):
        self.ev = ev

    def __call__(self, x):
        return conv_analytic(self.ev, x)

    def cum_integral(self, x):
        """integral_0^x H(y) dy; 0 for x <= 0.  Accepts scalars or arrays.

        Exponential mixtures use the closed antiderivative, from
        integral_0^u P(n, s) ds = u P(n, u) - n P(n+1, u).  The Beta family
        uses a fixed-order rule on the closed form: Gauss-Jacobi with weight
        y^(2 beta - 2) on [0, min(x, 1)], which absorbs the branch point of
        H at 0, then Gauss-Legendre on the panels [1, 2], [2, 4], ... up to
        min(x, 64), beyond which H = 1 to double precision.
        """
        xa = np.asarray(x, float)
        if not np.isfinite(xa).all():
            raise ValueError(f"integral endpoint must be finite, got {x!r}")
        xp = np.maximum(xa, 0.0)
        if isinstance(self.ev.model, BetaFamily):
            ends, where = np.unique(xp, return_inverse=True)
            out = np.array([self._beta_cum_integral(float(e)) for e in ends])[where]
            out = out.reshape(xp.shape)
        else:
            r, k = exp_mixture_params(self.ev)
            u = k * xp
            p1, p2, p3 = np.moveaxis(special.gammainc(_GAMMA_ORDERS, u[..., None]), -1, 0)
            a1, a2 = u * p1 - p2, u * p2 - 2.0 * p3
            out = (1.0 - r) ** 2 * xp + (2.0 * r * (1.0 - r) * a1 + r**2 * a2) / k
        return float(out) if np.ndim(x) == 0 else out

    @functools.cached_property
    def _beta_rules(self):
        gamma = 2.0 * (self.ev.model.beta - 1.0)
        s, w = special.roots_jacobi(_JACOBI_NODES, 0.0, gamma)
        # divide out the weight: the rule then applies to H itself
        jacobi = (0.5 * (1.0 + s), 0.5 * w / (1.0 + s) ** gamma)
        t, g = special.roots_legendre(_PANEL_NODES)
        return jacobi, (0.5 * (1.0 + t), 0.5 * g)

    def _beta_cum_integral(self, x: float) -> float:
        if x == 0.0:
            return 0.0
        (js, jw), (ps, pw) = self._beta_rules
        b = min(x, 1.0)
        nodes, weights = [b * js], [b * jw]
        top = min(x, _BETA_SATURATION)
        lo = 1.0
        while lo < top:
            hi = min(2.0 * lo, top)
            nodes.append(lo + (hi - lo) * ps)
            weights.append((hi - lo) * pw)
            lo = hi
        vals = _beta_h(self.ev.model.beta, np.concatenate(nodes))
        return float(vals @ np.concatenate(weights)) + max(x - _BETA_SATURATION, 0.0)


def build_table(ev: ScaleEvaluator) -> ConvolutionTable:
    """H of the model behind ``ev``, ready to evaluate and integrate."""
    return ConvolutionTable(ev)
