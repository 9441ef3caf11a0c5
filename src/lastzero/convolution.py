"""Self-convolution of the infimum law.

With F = inf_cdf, the optimal threshold of the stopping rule is the median
of the law of the sum of two independent infimum depths,

    H(x) = integral_[0,x] F(x - y) dF(y).

Every family has H and its running integral in closed form; the formulas
live on the law of each family in ``laws``.  ``conv_numeric`` integrates
the scale-function identity instead, after the substitution u = F(t),

    H(x) = psi'(0+)^2 W(x) W(0) + psi'(0+) int_{F(0)}^{F(x)} W(x - F^{-1}(u)) du,

whose integrand is bounded for every family.  Where F(x) > 1 - TAIL_MASS
the integrand climbs within a u-width of about 1 - F(x) below F(x), too
narrow for the quadrature's absolute tolerance, so the part above
u = 1 - TAIL_MASS is integrated in t, int W(x - t) F'(t) dt, where it is
smooth.  It shares no code with the closed forms of H and is the
independent reference the tests compare to.
"""

from __future__ import annotations

from scipy import integrate

from .scale import ScaleEvaluator

__all__ = ["ConvolutionTable", "conv_analytic", "conv_numeric", "conv_cdf", "build_table"]

DEFAULT_QUAD_TOL = 1e-9
TAIL_MASS = 1e-2  # mass of the infimum law above the t-space part of conv_numeric


def conv_analytic(ev: ScaleEvaluator, x):
    """Closed-form H for every family (see ``laws``); 0 for x < 0."""
    return ev.law.h(x)


def conv_numeric(ev: ScaleEvaluator, x: float, quad_tol: float = DEFAULT_QUAD_TOL) -> float:
    """H(x) by quadrature of the scale-function identity; any model."""
    if x < 0.0:
        return 0.0
    p1 = ev.profile.psi_prime0
    atom = p1**2 * ev.w(x) * ev.w(0.0)
    if x == 0.0:
        return atom
    t = min(x, ev.law.quantile(1.0 - TAIL_MASS))
    val, _ = integrate.quad(lambda u: ev.w(x - ev.law.quantile(u)), ev.inf_cdf(0.0),
                            ev.inf_cdf(t), epsabs=quad_tol, epsrel=1e-10, limit=200)
    if t < x:
        # the tail holds under TAIL_MASS of the mass: a relative tolerance
        tail, _ = integrate.quad(lambda s: ev.w(x - s) * ev.law.pdf(s), t, x,
                                 epsabs=0.0, epsrel=1e-10, limit=200)
        val += tail
    return atom + p1 * val


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
        """integral_0^x H(y) dy, for scalars or finite arrays; 0 for x <= 0."""
        return self.ev.law.cum_h(x)


def build_table(ev: ScaleEvaluator) -> ConvolutionTable:
    """H of the model behind ``ev``, ready to evaluate and integrate."""
    return ConvolutionTable(ev)
