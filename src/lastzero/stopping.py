"""Optimal stopping rule for predicting the last time below zero.

The problem: stop as close as possible in L1 to g = sup{t : X_t <= 0},
over stopping times with finite mean.  The optimal rule is the first
passage above a fixed threshold a*, and a* is the median of H, the
self-convolution of the infimum law:

    a* = inf{ x >= 0 : H(x) >= 1/2 }.

Writing p for psi'(0+), the value of stopping at the first passage above
a (relative to the best possible mean error) is, for x <= a,

    V_a(x) = (2/p) * int_max(x,0)^a H(y) dy - (a - max(x,0))/p + min(x,0)/p,

and V_a(x) = 0 for x >= a.  H is in closed form for every family (see
``convolution``), so a* is one bracketed root solve and V_a needs only
the running integral of H.  V = V_{a*} is nonpositive, nondecreasing, and
flat at 0 beyond a*.  Two regimes exist:

* smooth fit (V'(a*-) = 0): always when paths have infinite variation,
  and for finite variation when F(0)^2 < 1/2;
* continuous fit only: finite variation with F(0)^2 >= 1/2, where a* = 0
  and V(x) = x/p for x <= 0 with a kink V'(0-) = 1/p.

``expected_g`` and ``laplace_g_brownian`` give the mean and the Laplace
transform of g itself, used to translate V into the absolute mean error
E|g - tau| = V(0) + E(g) and to cross-check the Monte Carlo engine.
"""

from __future__ import annotations

import enum
import math
import sys
from dataclasses import dataclass

import numpy as np
from scipy import optimize

from .convolution import ConvolutionTable, build_table, conv_cdf
from .models import BrownianDrift, LevyModel, Variation
from .scale import ScaleEvaluator

__all__ = [
    "Regime",
    "OptimalRule",
    "ValueCurve",
    "solve_a_star",
    "solve",
    "V_a_at",
    "V_at",
    "V_prime_at",
    "expected_g",
    "expected_tau_plus",
    "laplace_g_brownian",
    "build_value_curve",
]

DEFAULT_ROOT_TOL = 1e-10


class Regime(enum.Enum):
    SMOOTH_FIT = "smooth-fit"
    CONTINUOUS_FIT_ONLY = "continuous-fit-only"


@dataclass(frozen=True)
class OptimalRule:
    """Solved stopping rule: threshold, regime, and the H of the model."""

    a_star: float
    x0: float
    regime: Regime
    expected_g0: float
    table: ConvolutionTable


def solve_a_star(ev: ScaleEvaluator, tol: float = DEFAULT_ROOT_TOL) -> OptimalRule:
    """Locate the optimal threshold as the median of H.

    In the smooth-fit regime H(0) = F(0)^2 < 1/2, and H(x) >= F(x/2)^2
    (both depths at most x/2), so [0, 2 F^{-1}(2^{-1/2})] brackets the
    root of H = 1/2.  One bracketing solve on the closed-form H finds it
    to within tol times the bracket, so a* has the same relative precision
    at every scale.
    """
    if not (math.isfinite(tol) and 0.0 < tol < 1.0):
        raise ValueError(f"root tolerance must lie in (0, 1), got {tol!r}")
    prof = ev.profile
    eg0 = prof.psi_double_prime0 / prof.psi_prime0**2
    table = build_table(ev)
    if prof.variation is Variation.FINITE and prof.f0**2 >= 0.5:
        a, regime = 0.0, Regime.CONTINUOUS_FIT_ONLY
    else:
        hi = 2.0 * ev.inf_cdf_quantile(2.0**-0.5)
        if hi < sys.float_info.min:
            # Beta family with beta - 1 below about 5e-4
            raise ArithmeticError(f"a* <= {hi:g} underflows double precision")
        a = optimize.brentq(lambda x: conv_cdf(ev, x) - 0.5, 0.0, hi, xtol=tol * hi)
        regime = Regime.SMOOTH_FIT
    return OptimalRule(
        a_star=float(a), x0=ev.x0(), regime=regime, expected_g0=eg0, table=table
    )


def solve(model: LevyModel, tol: float = DEFAULT_ROOT_TOL) -> tuple[ScaleEvaluator, OptimalRule]:
    """One-call convenience: evaluator and solved rule."""
    ev = ScaleEvaluator(model)
    return ev, solve_a_star(ev, tol=tol)


def _check_threshold(a) -> None:
    if not (np.isfinite(a) and a >= 0.0):
        raise ValueError(f"threshold must be finite and >= 0, got {a!r}")


def _v_a(p: float, a: float, xa: np.ndarray, cum_a, cum_base) -> np.ndarray:
    """V_a at the start points ``xa`` (the formula of the module docstring),
    from the running integral of H at a and at clip(xa, 0, a); ``cum_base``
    is only read where xa < a."""
    base = np.clip(xa, 0.0, a)
    val = (2.0 / p) * (cum_a - cum_base) - (a - base) / p + np.minimum(xa, 0.0) / p
    return np.where(xa >= a, 0.0, val)


def V_a_at(ev: ScaleEvaluator, table: ConvolutionTable, a: float, x):
    """Value of the first-passage rule with threshold a, started at x.

    Accepts a scalar or an array of start points.
    """
    _check_threshold(a)
    xa = np.asarray(x, float)
    cum_base = table.cum_integral(np.clip(xa, 0.0, a))
    out = _v_a(ev.profile.psi_prime0, a, xa, table.cum_integral(a), cum_base)
    return float(out) if np.ndim(x) == 0 else out


def V_at(ev: ScaleEvaluator, rule: OptimalRule, x):
    """Optimal value V(x) = V_{a*}(x), for a scalar or an array x.

    In the continuous-fit regime a* = 0, so this is exactly x/psi'(0+)
    below zero and 0 above.
    """
    return V_a_at(ev, rule.table, rule.a_star, x)


def V_prime_at(ev: ScaleEvaluator, rule: OptimalRule, x: float) -> float:
    """dV/dx; equals (1 - 2H(x))/psi'(0+) below a*, 0 above.

    At x = a* the derivative is 0 under smooth fit; in the continuous-fit
    regime the two one-sided slopes differ (kink), so x = a* is rejected.
    """
    if x > rule.a_star:
        return 0.0
    if x == rule.a_star:
        if rule.regime is Regime.SMOOTH_FIT:
            return 0.0
        raise ValueError("V has a kink at the threshold in this regime")
    h = rule.table(x) if x > 0.0 else 0.0
    return (1.0 - 2.0 * h) / ev.profile.psi_prime0


def expected_g(model: LevyModel, x: float = 0.0) -> float:
    """E_x(g), the mean of the last time below zero started from x.

    From the Laplace transform of g: for x <= 0 the scale terms vanish and
    E_x(g) = psi''(0+)/psi'(0+)^2 - x/psi'(0+) for every model; for x > 0
    a closed form exists for BrownianDrift only,
    E_x(g) = exp(-2 mu x/sigma^2) (x/mu + sigma^2/mu^2).
    """
    p1, p2 = model.psi_derivatives()
    if x <= 0.0:
        return p2 / p1**2 - x / p1
    if isinstance(model, BrownianDrift):
        c = 2.0 * model.mu / model.sigma**2
        return math.exp(-c * x) * (x / model.mu + model.sigma**2 / model.mu**2)
    raise ValueError(
        "expected_g at x > 0 requires the q-scale function in closed form; "
        "only BrownianDrift is supported"
    )


def expected_tau_plus(model: LevyModel, a: float) -> float:
    """Mean first-passage time above level a from 0: a/psi'(0+) for a >= 0."""
    if a <= 0.0:
        return 0.0
    return a / model.psi_derivatives()[0]


def laplace_g_brownian(model: BrownianDrift, q: float, x: float = 0.0) -> float:
    """E_x(exp(-q g)) for Brownian motion with drift.

    E_x(e^{-q g}) = e^{phi(q) x} phi'(q) psi'(0+)
                    + psi'(0+) (W(x) - W_q(x)),
    with phi(q) = (sqrt(mu^2 + 2 q sigma^2) - mu)/sigma^2 analytic.  For
    x < 0 the scale terms vanish.  Equals 1 at q = 0 for every x.
    """
    if not isinstance(model, BrownianDrift):
        raise ValueError("laplace_g_brownian requires a BrownianDrift model")
    if q < 0.0:
        raise ValueError(f"q must be >= 0, got {q!r}")
    mu, sig = model.mu, model.sigma
    d = math.sqrt(mu**2 + 2.0 * q * sig**2)
    phi_q = (d - mu) / sig**2
    ev = ScaleEvaluator(model)
    return math.exp(phi_q * x) * mu / d + mu * (ev.w(x) - ev.w_q_brownian(x, q))


@dataclass(frozen=True)
class ValueCurve:
    """Sampled curves along one x grid: infimum law, gain, H, and V_a."""

    x: np.ndarray
    inf_cdf: np.ndarray
    gain: np.ndarray
    conv: np.ndarray
    thresholds: tuple[float, ...]
    values: np.ndarray  # shape (len(thresholds), len(x))


def build_value_curve(
    ev: ScaleEvaluator,
    table: ConvolutionTable,
    xs,
    thresholds,
) -> ValueCurve:
    """V_a for each threshold along ``xs`` (each row equal to ``V_a_at``),
    with the infimum law, gain and H there."""
    xs = np.asarray(xs, float)
    thresholds = tuple(float(a) for a in thresholds)
    for a in thresholds:
        _check_threshold(a)
    # one pass over the running integral of H: at clip(x, 0, top), which is
    # clip(x, 0, a) wherever x < a, and at each threshold
    top = max(thresholds, default=0.0)
    cum = table.cum_integral(np.append(np.clip(xs, 0.0, top), thresholds))
    p = ev.profile.psi_prime0
    values = np.empty((len(thresholds), xs.size))
    for i, a in enumerate(thresholds):
        values[i] = _v_a(p, a, xs, cum[xs.size + i], cum[: xs.size])
    return ValueCurve(
        x=xs,
        inf_cdf=np.asarray(ev.inf_cdf(xs)),
        gain=np.asarray(ev.gain(xs)),
        conv=np.asarray(table(xs)),
        thresholds=thresholds,
        values=values,
    )
