"""Reference values for the benchmark's correctness checks.

Nothing here imports the package under test: every quantity is rebuilt
from the model parameters with numpy, scipy.special and mpmath only, so a
defect in the package cannot cancel against the same defect in its check.

* Brownian motion BM(mu, sigma): the depth-sum law H is Gamma(2, k) with
  k = 2 mu / sigma^2, so a* = xi / k with xi = gammaincinv(2, 1/2).
* Cramer-Lundberg CL(mu, lam, rho): the infimum law is 1 - r e^{-k x}
  with r = lam / (mu rho) and k = rho - lam / mu; H is the mixture written
  out in ``mixture_h`` and a* comes from bisection on it.  The boundary is
  only continuous-fit (a* = 0) when (1 - r)^2 >= 1/2.
* Beta family: H(x) = Gamma(b)^2 / Gamma(2b - 1) V^{2(b-1)}
  2F1(b-1, b-1; 2b-1; V) with V = 1 - e^{-x}, evaluated at 30 digits.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import special

XI_BM = float(special.gammaincinv(2.0, 0.5))  # median of Gamma(2, 1)
DPS = 30
# mpmath is imported inside the functions that use it: generating inputs
# is timed as set-up and needs only the float closed forms.


# ---------------------------------------------------------------------------
# exponential-mixture families (BM, CL)
# ---------------------------------------------------------------------------


def mixture_params(spec: dict) -> tuple[float, float, float]:
    """(r, k, p): infimum law 1 - r e^{-k x}, and p = psi'(0+)."""
    if spec["kind"] == "bm":
        mu, sigma = spec["mu"], spec["sigma"]
        return 1.0, 2.0 * mu / sigma**2, mu
    mu, lam, rho = spec["mu"], spec["lam"], spec["rho"]
    return lam / (mu * rho), rho - lam / mu, mu - lam / rho


def mixture_h(u: float, r: float) -> float:
    """H at u = k x for the infimum law 1 - r e^{-k x}."""
    e1 = -math.expm1(-u)
    return (1.0 - r) ** 2 + 2.0 * r * (1.0 - r) * e1 + r * r * (e1 - u * math.exp(-u))


def mixture_median_u(r: float) -> float:
    """k a*: bisection on mixture_h down to adjacent doubles."""
    lo, hi = 0.0, 1.0
    while mixture_h(hi, r) < 0.5:
        lo, hi = hi, 2.0 * hi
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        if mixture_h(mid, r) < 0.5:
            lo = mid
        else:
            hi = mid
    return hi


def continuous_fit(spec: dict) -> bool:
    """Only continuous fit (a* = 0): finite variation and f0^2 >= 1/2."""
    if spec["kind"] != "cl":
        return False
    r, _, _ = mixture_params(spec)
    return (1.0 - r) ** 2 >= 0.5


def a_star(spec: dict) -> float:
    """The optimal threshold for any of the three families."""
    kind = spec["kind"]
    if kind == "bm":
        return XI_BM * spec["sigma"] ** 2 / (2.0 * spec["mu"])
    if kind == "cl":
        if continuous_fit(spec):
            return 0.0
        r, k, _ = mixture_params(spec)
        return mixture_median_u(r) / k
    return beta_a_star(spec["beta"])


def expected_g(spec: dict) -> float:
    """E(g) = psi''(0+) / psi'(0+)^2 from 0."""
    import mpmath
    kind = spec["kind"]
    if kind == "bm":
        return spec["sigma"] ** 2 / spec["mu"] ** 2
    if kind == "cl":
        mu, lam, rho = spec["mu"], spec["lam"], spec["rho"]
        return (2.0 * lam / rho**2) / (mu - lam / rho) ** 2
    b = mpmath.mpf(spec["beta"])
    return float(2 * (mpmath.digamma(b) - mpmath.digamma(1)))


def inf_cdf(spec: dict, x):
    """P(-inf X <= x), vectorised over numpy x."""
    x = np.asarray(x, float)
    xp = np.maximum(x, 0.0)
    if spec["kind"] == "beta":
        vals = (-np.expm1(-xp)) ** (spec["beta"] - 1.0)
    else:
        r, k, _ = mixture_params(spec)
        vals = 1.0 - r * np.exp(-k * xp)
    return np.where(x < 0.0, 0.0, vals)


def inf_quantile(spec: dict, p: float) -> float:
    """Smallest x with inf_cdf(x) >= p (exponential-mixture families)."""
    r, k, _ = mixture_params(spec)
    return max(0.0, math.log(r / (1.0 - p)) / k)


def h_density_at(spec: dict, x: float) -> float:
    """dH/dx for the pure Gamma(2, k) case (BM, Beta(2))."""
    r, k, _ = mixture_params(spec)
    if r != 1.0:
        raise ValueError("density is only needed for r = 1")
    return k * k * x * math.exp(-k * x)


def _mp_anti(u, r):
    """int_0^u H(s) ds in units of u = k x (mpmath)."""
    import mpmath
    e1 = -mpmath.expm1(-u)
    return (
        (1 - r) ** 2 * u
        + 2 * r * (1 - r) * (u - e1)
        + r * r * (u - 2 * e1 + u * mpmath.exp(-u))
    )


def value(spec: dict, a: float, x: float) -> float:
    """V_a(x), the value of the first-passage rule at a, from x (BM, CL)."""
    import mpmath
    if x >= a:
        return 0.0
    with mpmath.workdps(DPS):
        r, k, p = (mpmath.mpf(v) for v in _mp_params(spec))
        a_m, x_m = mpmath.mpf(a), mpmath.mpf(x)
        base = max(x_m, mpmath.mpf(0))
        val = 2 / p * (_mp_anti(k * a_m, r) - _mp_anti(k * base, r)) / k - (a_m - base) / p
        if x_m < 0:
            val += x_m / p
        return float(val)


def _mp_params(spec: dict):
    """(r, k, p) in exact arithmetic from the float parameters."""
    import mpmath
    with mpmath.workdps(DPS):
        if spec["kind"] == "bm":
            mu, sigma = mpmath.mpf(spec["mu"]), mpmath.mpf(spec["sigma"])
            return mpmath.mpf(1), 2 * mu / sigma**2, mu
        mu, lam, rho = (mpmath.mpf(spec[n]) for n in ("mu", "lam", "rho"))
        return lam / (mu * rho), rho - lam / mu, mu - lam / rho


def h(spec: dict, x: float) -> float:
    """H(x) at 30 digits for any family."""
    import mpmath
    if x < 0.0:
        return 0.0
    if spec["kind"] == "beta":
        return float(_beta_h(mpmath.mpf(spec["beta"]), mpmath.mpf(x)))
    with mpmath.workdps(DPS):
        r, k, _ = _mp_params(spec)
        u = k * mpmath.mpf(x)
        e1 = -mpmath.expm1(-u)
        return float((1 - r) ** 2 + 2 * r * (1 - r) * e1 + r * r * (e1 - u * mpmath.exp(-u)))


def mae(spec: dict, a: float) -> float:
    """E|g - tau_a| = V_a(0) + E(g)."""
    return value(spec, a, 0.0) + expected_g(spec)


def psi(spec: dict, theta: float):
    """Laplace exponent at 30 digits (mpmath number)."""
    import mpmath
    with mpmath.workdps(DPS):
        t = mpmath.mpf(theta)
        kind = spec["kind"]
        if kind == "bm":
            mu, sigma = mpmath.mpf(spec["mu"]), mpmath.mpf(spec["sigma"])
            return sigma**2 * t**2 / 2 + mu * t
        if kind == "cl":
            mu, lam, rho = (mpmath.mpf(spec[n]) for n in ("mu", "lam", "rho"))
            return mu * t - lam * t / (rho + t)
        b = mpmath.mpf(spec["beta"])
        return t * mpmath.exp(mpmath.loggamma(t + b) - mpmath.loggamma(t + 1) - mpmath.loggamma(b))


def phi_rel_residual(spec: dict, q: float, theta: float) -> float:
    """|psi(theta) - q| / q for a claimed root theta of psi = q."""
    import mpmath
    with mpmath.workdps(DPS):
        return float(abs(psi(spec, theta) - mpmath.mpf(q)) / mpmath.mpf(q))


# ---------------------------------------------------------------------------
# Beta family
# ---------------------------------------------------------------------------


def _beta_h(b, x):
    import mpmath
    with mpmath.workdps(DPS):
        v = -mpmath.expm1(-x)
        c = mpmath.gamma(b) ** 2 / mpmath.gamma(2 * b - 1)
        return c * v ** (2 * (b - 1)) * mpmath.hyp2f1(b - 1, b - 1, 2 * b - 1, v)


def beta_a_star(beta: float) -> float:
    """Median of the Beta-family H, solved in log x at 30 digits."""
    import mpmath
    with mpmath.workdps(DPS):
        b = mpmath.mpf(beta)
        half = mpmath.mpf(1) / 2

        def f(t):
            return _beta_h(b, mpmath.exp(t)) - half

        lo, hi = mpmath.mpf(-700), mpmath.mpf(5)
        for _ in range(12):  # coarse bisection, then a bracketing solver
            mid = (lo + hi) / 2
            if f(mid) < 0:
                lo = mid
            else:
                hi = mid
        t = mpmath.findroot(f, (lo, hi), solver="anderson")
        return float(mpmath.exp(t))


# ---------------------------------------------------------------------------
# distribution checks
# ---------------------------------------------------------------------------


def ks_distance(samples, cdf, cdf_left) -> float:
    """sup |F_n - F| allowing for atoms through the left limits of F."""
    x = np.sort(np.asarray(samples, float))
    n = x.size
    i = np.arange(1, n + 1)
    return float(max(np.max(i / n - cdf(x)), np.max(cdf_left(x) - (i - 1) / n), 0.0))


def ks_limit(n: int, alpha: float) -> float:
    """Asymptotic Kolmogorov critical value at level alpha."""
    return float(special.kolmogi(alpha)) / math.sqrt(n)
