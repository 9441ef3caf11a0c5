"""The law of the depth of the all-time infimum, one object per family.

For a spectrally negative Levy process drifting to +infinity with scale
function W, the depth of the all-time infimum started from 0 has the law
F = psi'(0+) W, and the optimal threshold of the stopping rule is the
median of H = F * F, the law of the sum of two independent depths.  Every
family has F, F', F^{-1}, H and the running integral of H in closed form:

* ``ExpMixtureLaw(r, k)``: F(x) = 1 - r e^{-kx} = (1 - r) - r expm1(-kx), an
  atom 1 - r at 0 plus an Exp(k) depth.  BrownianDrift(mu, sigma) has r = 1,
  k = 2 mu / sigma^2; CramerLundberg(mu, lam, rho) has r = lam/(mu rho),
  k = rho - lam/mu.  H(x) = (1-r)^2 + 2 r (1-r) P(1, kx) + r^2 P(2, kx), with
  P the regularized lower incomplete gamma function (accurate also at small
  kx, where 1 - e^{-kx} - kx e^{-kx} cancels); integral_0^u P(n, s) ds =
  u P(n, u) - n P(n+1, u) integrates it.
* ``BetaLaw(beta)``: F(x) = V^(beta-1) with V = 1 - e^{-x}, the law of
  BetaFamily(beta).  Substituting v = 1 - e^{-t} turns H into Euler's
  integral (DLMF 15.6.1), H(x) = Gamma(beta)^2 / Gamma(2 beta - 1)
  * V^(2 beta - 2) * 2F1(beta - 1, beta - 1; 2 beta - 1; V).  Here
  c - a - b = 1, the logarithmic case of 2F1 at V = 1, where the library
  2F1 loses digits; for V >= 3/4 the expansion in 1 - V = e^{-x} (DLMF
  15.8.10) is summed instead.  At beta = 2 both give the Gamma(2, 1) CDF.
  The integral of H is Gauss-Jacobi with weight y^(2 beta - 2) on
  [0, min(x, 1)], which absorbs the branch point of H at 0, then
  Gauss-Legendre on the panels [1, 2], [2, 4], ... up to min(x, 64),
  beyond which H = 1 to double precision.

``k`` is the exponential decay rate of 1 - F, which sets the tail scale.
Every function takes a scalar or an array; F and H vanish below 0.
"""

from __future__ import annotations

import functools
import math

import numpy as np
from scipy import special

__all__ = ["ExpMixtureLaw", "BetaLaw"]

# Beta family: below x = ln 4 (V < 3/4) the library 2F1 is accurate; above
# it the expansion in w = e^{-x} <= 1/4 has terms below 1e-20 after 40.
_LOG_CASE_FROM = math.log(4.0)
_LOG_CASE_TERMS = 40
# H(x) = 1 to double precision for x >= 64 (1 - H(64) < 1e-25 for every beta)
_BETA_SATURATION = 64.0
_JACOBI_NODES = 32
_PANEL_NODES = 16
_GAMMA_ORDERS = np.array([1.0, 2.0, 3.0])


class _Law:
    """Argument handling shared by the families, each of which defines
    ``_cdf``, ``_pdf``, ``_h`` and ``_cum_h`` on arrays of x >= 0,
    ``_quantile`` on p in [0, 1), and the float ``mass_at_zero`` = F(0)."""

    def _at(self, f, x):
        xa = np.asarray(x, float)
        out = np.where(xa < 0.0, 0.0, f(np.maximum(xa, 0.0)))
        return float(out) if out.ndim == 0 else out

    def cdf(self, x):
        return self._at(self._cdf, x)

    def pdf(self, x):
        """dF/dx for x > 0; raises on x <= 0, where F is flat or has its atom."""
        if np.any(np.asarray(x, float) <= 0.0):
            raise ValueError("the density is defined for x > 0 only")
        return self._at(self._pdf, x)

    def quantile(self, p: float) -> float:
        """Smallest x with F(x) >= p, for p in [0, 1)."""
        if not 0.0 <= p < 1.0:
            raise ValueError(f"quantile requires p in [0, 1), got {p!r}")
        return self._quantile(p)

    def h(self, x):
        """H = F * F."""
        return self._at(self._h, x)

    def cum_h(self, x):
        """integral_0^x H(y) dy; 0 for x <= 0."""
        xa = np.asarray(x, float)
        if not np.isfinite(xa).all():
            raise ValueError(f"integral endpoint must be finite, got {x!r}")
        out = self._cum_h(np.maximum(xa, 0.0))
        return float(out) if out.ndim == 0 else out


class ExpMixtureLaw(_Law):
    """F(x) = 1 - r e^{-k x} on x >= 0, with 0 < r <= 1 and k > 0."""

    def __init__(self, r: float, k: float):
        self.r = r
        self.k = k
        self.mass_at_zero = float(1.0 - r)

    def _cdf(self, x):
        return (1.0 - self.r) - self.r * np.expm1(-self.k * x)

    def _pdf(self, x):
        return self.r * self.k * np.exp(-self.k * x)

    def _quantile(self, p):
        if p <= 1.0 - self.r:
            return 0.0
        if self.r == 1.0:  # log1p keeps the digits of small p
            return -math.log1p(-p) / self.k
        return math.log(self.r / (1.0 - p)) / self.k

    def _h(self, x):
        r, u = self.r, self.k * x
        return ((1.0 - r) ** 2 + 2.0 * r * (1.0 - r) * special.gammainc(1.0, u)
                + r**2 * special.gammainc(2.0, u))

    def _cum_h(self, x):
        r, k = self.r, self.k
        u = k * x
        p1, p2, p3 = np.moveaxis(special.gammainc(_GAMMA_ORDERS, u[..., None]), -1, 0)
        a1, a2 = u * p1 - p2, u * p2 - 2.0 * p3
        return (1.0 - r) ** 2 * x + (2.0 * r * (1.0 - r) * a1 + r**2 * a2) / k


class BetaLaw(_Law):
    """F(x) = (1 - e^{-x})^(beta - 1) on x >= 0, beta in (1, 2].

    The series coefficients of H and the quadrature rules of its integral
    are built on first use, so a law asked only for F costs nothing more.
    """

    k = 1.0
    mass_at_zero = 0.0

    def __init__(self, beta: float):
        self.beta = beta

    def _cdf(self, x):
        return (-np.expm1(-x)) ** (self.beta - 1.0)

    def _pdf(self, x):
        return (self.beta - 1.0) * (-np.expm1(-x)) ** (self.beta - 2.0) * np.exp(-x)

    def _quantile(self, p):
        return -math.log1p(-p ** (1.0 / (self.beta - 1.0)))

    @functools.cached_property
    def _series(self):
        # c 2F1(a, a; 2a+1; 1-w) = 1 + a^2 w sum_n c_n w^n (log w + d_n),
        # c_n = (a+1)_n^2 / (n! (n+1)!), d_n = 2 digamma(a+1+n)
        # - digamma(n+1) - digamma(n+2)
        a = self.beta - 1.0
        n = np.arange(_LOG_CASE_TERMS, dtype=float)
        cn = np.exp(2.0 * (special.gammaln(a + 1.0 + n) - special.gammaln(a + 1.0))
                    - special.gammaln(n + 1.0) - special.gammaln(n + 2.0))
        dn = 2 * special.digamma(a + 1.0 + n) - special.digamma(n + 1.0) - special.digamma(n + 2.0)
        return n, cn, cn * dn

    def _h(self, x):
        beta = self.beta
        a = beta - 1.0
        out = np.empty_like(x)
        near = x >= _LOG_CASE_FROM
        v = -np.expm1(-x[~near])
        c = math.exp(2.0 * special.gammaln(beta) - special.gammaln(2.0 * a + 1.0))
        out[~near] = c * v ** (2.0 * a) * special.hyp2f1(a, a, 2.0 * a + 1.0, v)
        if np.any(near):
            n, cn, cndn = self._series
            xn = x[near]
            w = np.exp(-xn)  # log w = -x exactly
            powers = w[:, None] ** n
            series = powers @ cndn - xn * (powers @ cn)
            out[near] = np.exp(2.0 * a * np.log1p(-w)) * (1.0 + a * a * w * series)
        return out

    @functools.cached_property
    def _rules(self):
        gamma = 2.0 * (self.beta - 1.0)
        s, w = special.roots_jacobi(_JACOBI_NODES, 0.0, gamma)
        # divide out the weight: the rule then applies to H itself
        jacobi = (0.5 * (1.0 + s), 0.5 * w / (1.0 + s) ** gamma)
        t, g = special.roots_legendre(_PANEL_NODES)
        return jacobi, (0.5 * (1.0 + t), 0.5 * g)

    def _cum_h(self, x):
        ends, where = np.unique(x, return_inverse=True)
        return np.array([self._cum_h_at(float(e)) for e in ends])[where].reshape(x.shape)

    def _cum_h_at(self, x: float) -> float:
        if x == 0.0:
            return 0.0
        (js, jw), (ps, pw) = self._rules
        b = min(x, 1.0)
        nodes, weights = [b * js], [b * jw]
        top = min(x, _BETA_SATURATION)
        lo = 1.0
        while lo < top:
            hi = min(2.0 * lo, top)
            nodes.append(lo + (hi - lo) * ps)
            weights.append((hi - lo) * pw)
            lo = hi
        vals = self._h(np.concatenate(nodes))
        return float(vals @ np.concatenate(weights)) + max(x - _BETA_SATURATION, 0.0)
