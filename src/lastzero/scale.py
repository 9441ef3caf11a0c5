"""Zero-discount scale functions and the law of the all-time infimum.

For a spectrally negative Levy process drifting to +infinity, the scale
function W characterises exit problems, and

    inf_cdf(x) = psi'(0+) * W(x) = P(-inf_{t>=0} X_t <= x)

is the distribution function of the depth of the all-time infimum started
from 0.  The closed forms of every family live in ``laws``, on the law
object each model names with ``LevyModel.infimum_law``; this module scales
them into W and W'.

``gain(x) = 2*inf_cdf(x) - 1`` is the pointwise expected payoff density of
the stopping problem: negative where the path is more likely than not to
return below zero, positive past the median ``x0`` of the infimum law.
"""

from __future__ import annotations

import math

import numpy as np

from .models import BrownianDrift, LevyModel

__all__ = ["ScaleEvaluator"]


class ScaleEvaluator:
    """Evaluates W, W', the q-scale function (Brownian case), and the
    infimum law ``law`` of one model.  Accepts scalars or numpy arrays."""

    def __init__(self, model: LevyModel):
        self.model = model
        self.law = model.infimum_law()
        self.profile = model.profile()

    # -- scale function -------------------------------------------------

    def w(self, x):
        """W = inf_cdf/psi'(0+): 0 on x < 0, and W(0) = 1/mu for CramerLundberg."""
        return self.law.cdf(x) / self.profile.psi_prime0

    def w_prime(self, x):
        """dW/dx for x > 0.  Raises on x <= 0, where W is flat or jumps."""
        return self.law.pdf(x) / self.profile.psi_prime0

    def w_q_brownian(self, x, q: float):
        """q-scale function for the Brownian model.

        W_q(x) = (exp((D-mu)x/sigma^2) - exp(-(D+mu)x/sigma^2)) / D with
        D = sqrt(mu^2 + 2 q sigma^2); at q = 0 this reduces to w(x) with
        no special-casing since D = mu > 0.
        """
        m = self.model
        if not isinstance(m, BrownianDrift):
            raise ValueError("w_q_brownian requires a BrownianDrift model")
        if q < 0:
            raise ValueError(f"w_q_brownian requires q >= 0, got {q!r}")
        xa = np.asarray(x, float)
        d = math.sqrt(m.mu**2 + 2.0 * q * m.sigma**2)
        pos = xa > 0.0
        xp = np.where(pos, xa, 0.0)
        vals = (np.exp((d - m.mu) * xp / m.sigma**2)
                - np.exp(-(d + m.mu) * xp / m.sigma**2)) / d
        out = np.where(pos, vals, 0.0)
        return float(out) if np.ndim(x) == 0 else out

    # -- infimum law ----------------------------------------------------

    def inf_cdf(self, x):
        """P(-inf X <= x) = psi'(0+) W(x)."""
        return self.law.cdf(x)

    def inf_cdf_quantile(self, p: float) -> float:
        """Smallest x with inf_cdf(x) >= p, for p in [0, 1)."""
        return self.law.quantile(p)

    def gain(self, x):
        """2*inf_cdf(x) - 1; equals -1 on x < 0."""
        return 2.0 * self.inf_cdf(x) - 1.0

    def x0(self) -> float:
        """Median of the infimum law; 0 when the atom at 0 holds half the mass."""
        return self.law.quantile(0.5)

    def decay_rate(self) -> float:
        """Exponential decay rate of 1 - inf_cdf; sets the tail scale."""
        return self.law.k
