"""Spectrally negative Levy models with positive mean drift.

Three parametric families, each drifting to +infinity so that the all-time
infimum is finite and the last zero of the path is a proper random time:

* ``BrownianDrift(mu, sigma)``: X_t = mu*t + sigma*B_t with mu > 0.
  Laplace exponent psi(theta) = sigma^2 theta^2 / 2 + mu theta.
* ``CramerLundberg(mu, lam, rho)``: premium drift mu minus a compound
  Poisson sum of Exp(rho) claims arriving at rate lam.  The net profit
  condition lam / (rho * mu) < 1 is required.
  psi(theta) = mu theta - lam theta / (rho + theta).
* ``BetaFamily(beta)``: the pure-jump process with
  psi(theta) = Gamma(theta + beta) / (Gamma(theta) Gamma(beta)),
  beta in (1, 2].  At beta = 2 this is exactly BrownianDrift(1, sqrt(2)).

Downstream code consumes models through a small surface: ``psi`` and its
first two derivatives at 0+, the right inverse ``phi`` of psi, the law of
the depth of the all-time infimum (``infimum_law``, one object of ``laws``
per family), the Brownian motion the model equals, if any
(``brownian_equivalent``), and a static ``profile`` of model facts (drift,
variation class, mass of the infimum law at zero).
"""

from __future__ import annotations

import dataclasses
import enum
import math
from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np
from scipy import special

from .laws import BetaLaw, ExpMixtureLaw

__all__ = [
    "Variation",
    "ModelProfile",
    "LevyModel",
    "BrownianDrift",
    "CramerLundberg",
    "BetaFamily",
    "model_from_dict",
]

_PHI_MAX_ITER = 200
# B_2k / (2k (2k - 1)), k = 1..4: the Stirling series of lgamma
_STIRLING = (1.0 / 12.0, -1.0 / 360.0, 1.0 / 1260.0, -1.0 / 1680.0)
_STIRLING_FROM = 20.0


def _split(lo: float, hi: float) -> float:
    """Bisection point of [lo, hi]: the geometric mean of max(lo, 1) and hi
    while hi exceeds that by more than three decades, else the midpoint."""
    floor = max(lo, 1.0)
    if hi > 1e3 * floor:
        return math.sqrt(floor) * math.sqrt(hi)
    return 0.5 * (lo + hi)


class Variation(enum.Enum):
    """Path variation class of the jump part plus Gaussian part."""

    FINITE = "finite"
    INFINITE = "infinite"


@dataclass(frozen=True)
class ModelProfile:
    """Static facts about a model used by the solver and the simulators.

    ``f0`` is the probability that the all-time infimum (started at 0) is
    exactly 0, i.e. psi'(0+) * W(0).  It is positive only for finite
    variation paths, where ``drift`` holds the linear drift coefficient.
    """

    psi_prime0: float
    psi_double_prime0: float
    variation: Variation
    drift: float | None
    f0: float


class LevyModel(ABC):
    """Common interface for the supported spectrally negative models."""

    kind: str

    @abstractmethod
    def psi(self, theta):
        """Laplace exponent, vectorized over theta >= 0."""

    @abstractmethod
    def psi_prime(self, theta):
        """First derivative of psi, vectorized over theta >= 0."""

    @abstractmethod
    def psi_derivatives(self) -> tuple[float, float]:
        """(psi'(0+), psi''(0+))."""

    @abstractmethod
    def infimum_law(self) -> ExpMixtureLaw | BetaLaw:
        """The law F = psi'(0+) W of the depth of the all-time infimum."""

    def brownian_equivalent(self) -> BrownianDrift | None:
        """The BrownianDrift with the same law, or None."""
        return None

    def profile(self) -> ModelProfile:
        """Static model facts; cheap to call repeatedly.  Paths have finite
        variation exactly when the infimum law has an atom at 0, and then
        F(0) = psi'(0+)/drift."""
        p1, p2 = self.psi_derivatives()
        f0 = self.infimum_law().cdf(0.0)
        if f0 > 0.0:
            return ModelProfile(p1, p2, Variation.FINITE, p1 / f0, f0)
        return ModelProfile(p1, p2, Variation.INFINITE, None, f0)

    @abstractmethod
    def params_dict(self) -> dict:
        """JSON-friendly parameter echo, including the ``kind`` tag."""

    def phi(self, q: float, tol: float = 1e-12) -> float:
        """Right inverse of psi: the largest root of psi(theta) = q.

        psi is strictly increasing and convex on [0, inf) with psi(0) = 0
        and psi'(0+) > 0 for every model here, so the root is unique and
        psi(theta) >= psi'(0+) theta brackets it in [0, q/psi'(0+)].
        Solved by Newton steps safeguarded with bisection; the bisection
        is geometric while the bracket spans more than three decades, so
        a psi that overflows inside the bracket costs a few steps, not
        hundreds.  The returned value satisfies |psi(phi(q)) - q| <= tol * q,
        or, where psi itself loses digits to cancellation (Cramer-Lundberg
        near load 1), is the root to the resolution of psi's sign changes:
        the solve stops when the bracket holds no further point.
        """
        if not np.isfinite(q) or q < 0:
            raise ValueError(f"phi requires q >= 0, got {q!r}")
        if q == 0.0:
            return 0.0
        lo, hi = 0.0, q / self.psi_derivatives()[0]
        if not math.isfinite(hi):
            raise ArithmeticError(f"phi({q}): upper bracket q/psi'(0+) overflows")
        res_tol = tol * q
        x = _split(lo, hi)
        with np.errstate(over="ignore"):  # an overflowing psi only lowers hi
            for _ in range(_PHI_MAX_ITER):
                res = self.psi(x) - q
                if abs(res) <= res_tol:
                    return float(x)
                if res > 0.0:
                    hi = x
                else:
                    lo = x
                x_new = _split(lo, hi)
                if not lo < x_new < hi:
                    return float(x)
                slope = self.psi_prime(x)
                if math.isfinite(res) and slope > 0.0 and math.isfinite(slope):
                    newton = x - res / slope
                    if lo < newton < hi:
                        x_new = newton
                x = x_new
        raise ArithmeticError(f"phi({q}) did not converge to residual {res_tol}")


@dataclass(frozen=True)
class BrownianDrift(LevyModel):
    """Brownian motion with positive drift: X_t = mu*t + sigma*B_t."""

    mu: float
    sigma: float
    kind = "bm"

    def __post_init__(self):
        if not (np.isfinite(self.mu) and self.mu > 0):
            raise ValueError(f"BrownianDrift requires mu > 0, got {self.mu!r}")
        if not (np.isfinite(self.sigma) and self.sigma > 0):
            raise ValueError(f"BrownianDrift requires sigma > 0, got {self.sigma!r}")

    def psi(self, theta):
        theta = np.asarray(theta, float)
        out = 0.5 * self.sigma**2 * theta**2 + self.mu * theta
        return out if out.ndim else float(out)

    def psi_prime(self, theta):
        theta = np.asarray(theta, float)
        out = self.sigma**2 * theta + self.mu
        return out if out.ndim else float(out)

    def psi_derivatives(self):
        return self.mu, self.sigma**2

    def infimum_law(self):
        return ExpMixtureLaw(1.0, 2.0 * self.mu / self.sigma**2)

    def brownian_equivalent(self):
        return self

    def params_dict(self):
        return {"kind": self.kind, "mu": self.mu, "sigma": self.sigma}


@dataclass(frozen=True)
class CramerLundberg(LevyModel):
    """Drift mu minus compound Poisson(lam) claims with Exp(rho) sizes."""

    mu: float
    lam: float
    rho: float
    kind = "cl"

    def __post_init__(self):
        for name in ("mu", "lam", "rho"):
            v = getattr(self, name)
            if not (np.isfinite(v) and v > 0):
                raise ValueError(f"CramerLundberg requires {name} > 0, got {v!r}")
        load = self.lam / (self.rho * self.mu)
        if load >= 1.0:
            raise ValueError(
                f"CramerLundberg requires lam/(rho*mu) < 1, got {load:.6g}"
            )

    def psi(self, theta):
        theta = np.asarray(theta, float)
        out = self.mu * theta - self.lam * theta / (self.rho + theta)
        return out if out.ndim else float(out)

    def psi_prime(self, theta):
        theta = np.asarray(theta, float)
        out = self.mu - (self.lam / self.rho) * (self.rho / (self.rho + theta)) ** 2
        return out if out.ndim else float(out)

    def psi_derivatives(self):
        # psi''(theta) = 2 lam rho / (rho + theta)^3, so psi''(0+) = 2 lam / rho^2
        return self.mu - self.lam / self.rho, 2.0 * self.lam / self.rho**2

    def infimum_law(self):
        return ExpMixtureLaw(self.lam / (self.mu * self.rho), self.rho - self.lam / self.mu)

    def params_dict(self):
        return {"kind": self.kind, "mu": self.mu, "lam": self.lam, "rho": self.rho}


@dataclass(frozen=True)
class BetaFamily(LevyModel):
    """Pure-jump family with psi(theta) = Gamma(theta+beta)/(Gamma(theta)Gamma(beta)).

    The Gamma-ratio is evaluated as theta * exp(L(theta)) with
    L(theta) = lgamma(theta+beta) - lgamma(theta+1) - lgamma(beta),
    which is finite at theta = 0.  For theta + 1 >= 20 the lgamma
    difference is summed as its Stirling series, and psi' uses the
    derivative of that series: the direct differences of lgamma (size
    theta log theta) and of digamma (size log theta) lose about
    log10(theta) digits.
    """

    beta: float
    kind = "beta"

    def __post_init__(self):
        if not (np.isfinite(self.beta) and 1.0 < self.beta <= 2.0):
            raise ValueError(f"BetaFamily requires beta in (1, 2], got {self.beta!r}")

    def _log_ratio(self, theta):
        z, a = theta + 1.0, self.beta - 1.0
        # lgamma(z + a) - lgamma(z); truncation error below 1e-15 at z = 20
        zs = np.maximum(z, _STIRLING_FROM)
        shift = (zs - 0.5) * np.log1p(a / zs) + a * np.log(zs + a) - a
        for k, c in enumerate(_STIRLING, start=1):
            shift += c * ((zs + a) ** (1 - 2 * k) - zs ** (1 - 2 * k))
        direct = special.gammaln(z + a) - special.gammaln(z)
        return np.where(z >= _STIRLING_FROM, shift, direct) - special.gammaln(self.beta)

    def psi(self, theta):
        theta = np.asarray(theta, float)
        out = theta * np.exp(self._log_ratio(theta))
        return out if out.ndim else float(out)

    def _log_ratio_prime(self, theta):
        z, a = theta + 1.0, self.beta - 1.0
        # digamma(z + a) - digamma(z), the derivative of the shift above:
        # the direct difference cancels to 0 once z passes about 1e16
        zs = np.maximum(z, _STIRLING_FROM)
        slope = np.log1p(a / zs) + a / (2.0 * zs) / (zs + a)
        for k, c in enumerate(_STIRLING, start=1):
            slope += c * (1 - 2 * k) * ((zs + a) ** (-2 * k) - zs ** (-2 * k))
        direct = special.digamma(z + a) - special.digamma(z)
        return np.where(z >= _STIRLING_FROM, slope, direct)

    def psi_prime(self, theta):
        theta = np.asarray(theta, float)
        lp = self._log_ratio_prime(theta)
        out = np.exp(self._log_ratio(theta)) * (1.0 + theta * lp)
        return out if out.ndim else float(out)

    def psi_derivatives(self):
        # psi(theta) = theta * exp(L(theta)) with L(0) = 0 gives
        # psi'(0+) = 1 and psi''(0+) = 2 L'(0) = 2(digamma(beta) - digamma(1)).
        p2 = 2.0 * (special.digamma(self.beta) - special.digamma(1.0))
        return 1.0, float(p2)

    def infimum_law(self):
        return BetaLaw(self.beta)

    def params_dict(self):
        return {"kind": self.kind, "beta": self.beta}

    def brownian_equivalent(self):
        """At beta = 2, psi(theta) = theta^2 + theta: BrownianDrift(1, sqrt(2))."""
        if self.beta == 2.0:
            return BrownianDrift(mu=1.0, sigma=math.sqrt(2.0))
        return None


def model_from_dict(d: dict) -> LevyModel:
    """Rebuild a model from its ``params_dict`` echo (used by the CLI)."""
    kind = d.get("kind")
    for cls in (BrownianDrift, CramerLundberg, BetaFamily):
        if cls.kind == kind:
            return cls(**{f.name: float(d[f.name]) for f in dataclasses.fields(cls)})
    raise ValueError(f"unknown model kind {kind!r}")
