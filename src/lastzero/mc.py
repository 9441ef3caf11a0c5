"""Monte Carlo engine for path functionals of the three model families.

Per path, up to the first passage above a high barrier b, the engine
extracts the last time at or below zero (g), first-passage times over a
set of thresholds, the depth of the running infimum, and the integral of
the gain function along the path.  The barrier is placed so the infimum
law puts mass >= 1 - tail_eps below it, which bounds the truncation bias
of every estimator by a quantity of order tail_eps.

Scheme by family:

* CramerLundberg: exact event-driven simulation.  Paths are piecewise
  linear between Exp-distributed jumps; passage times, zero upcrossings,
  the infimum, and gain integrals (closed antiderivative per linear
  segment) are all computed without discretisation error.
* BrownianDrift: Euler grid with step dt.  g and passage times are
  grid-resolved (bias of order dt); for the infimum the per-step minimum
  is refined with the exact Brownian-bridge minimum law, so sampled
  infima carry no discretisation bias at any step size.
* BetaFamily: compound-Poisson approximation.  Jumps larger than a cutoff
  are simulated exactly (rejection sampling from the jump law), smaller
  ones are replaced by a Brownian motion matching their variance, and the
  drift is compensated so the mean of X_1 is exact.  beta = 2 contains no
  jumps at all and runs through the exact Brownian route.  Intended for
  soft (several-standard-error) cross-checks only.

Reproducibility contract: paths are organised in fixed-size batches of
``BATCH``; batch j draws from ``Philox(key=base_seed).jumped(j)`` and
every draw is a full-width block, so the stream feeding path k is a
function of (base_seed, k) alone -- independent of n_paths, of which
other paths are still alive, and of how results are later aggregated.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy import integrate, special

from .models import BetaFamily, BrownianDrift, CramerLundberg, LevyModel
from .scale import ScaleEvaluator

__all__ = [
    "BATCH",
    "McConfig",
    "McReport",
    "PathEvents",
    "resolve_barrier",
    "simulate_paths",
    "sample_path_events",
    "sample_infimum",
    "infimum_pair_sum_median",
    "estimate_mean_abs_error",
    "estimate_mean_abs_error_grid",
    "estimate_expected_g",
    "estimate_passage_time",
    "estimate_value",
    "estimate_laplace_g",
    "ks_statistic",
    "ks_critical",
]

BATCH = 1024  # paths per RNG batch; fixed so streams don't depend on n_paths
BLOCK = 1024  # Euler steps drawn per block
INFIMUM_BLOCK = 128  # shorter blocks for the coarse-step infimum sampler
EVENT_BLOCK = 64  # jump events drawn per block (CramerLundberg)
BETA_JUMP_CUTOFF = 1e-2  # |y| below this is folded into the Gaussian proxy
INFIMUM_STEP = 0.02  # default bridge step for Brownian infimum sampling


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


@dataclass(frozen=True)
class McConfig:
    """Simulation budget and numerical knobs.

    ``tail_eps`` controls the stopping barrier: simulation runs to the
    first passage above the (1 - tail_eps)-quantile of the infimum law.
    ``dt`` is the Euler step for the grid-based families (ignored by the
    exact CramerLundberg engine).
    """

    n_paths: int
    base_seed: int
    dt: float = 1e-3
    tail_eps: float = 1e-3

    def __post_init__(self):
        if not (_is_int(self.n_paths) and self.n_paths >= 1):
            raise ValueError(f"n_paths must be a positive int, got {self.n_paths!r}")
        if not (_is_int(self.base_seed) and self.base_seed >= 0):
            raise ValueError(f"base_seed must be a nonnegative int, got {self.base_seed!r}")
        if not (np.isfinite(self.dt) and self.dt > 0):
            raise ValueError(f"dt must be positive, got {self.dt!r}")
        if not (0.0 < self.tail_eps <= 0.01):
            raise ValueError(f"tail_eps must lie in (0, 0.01], got {self.tail_eps!r}")


@dataclass(frozen=True)
class McReport:
    """One scalar estimate with its standard error and provenance."""

    quantity: str
    estimate: float
    std_error: float
    n_paths: int
    base_seed: int
    a: float | None = None
    x: float | None = None
    q: float | None = None


@dataclass(frozen=True)
class PathEvents:
    """Per-path functionals extracted by the engine."""

    g: float
    tau: tuple[float, ...]
    inf_depth: float
    gint: tuple[float, ...]


def resolve_barrier(ev: ScaleEvaluator, tail_eps: float) -> float:
    """Smallest barrier b with inf_cdf(b) >= 1 - tail_eps."""
    p = 1.0 - tail_eps
    b = ev.inf_cdf_quantile(p)
    while ev.inf_cdf(b) < p:
        b = b * (1.0 + 1e-12) + 1e-300
    return b


def _batch_gen(base_seed: int, batch_index: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=base_seed).jumped(batch_index))


# ---------------------------------------------------------------------------
# grid engine: Brownian motion with drift, optionally plus compound jumps
# ---------------------------------------------------------------------------


def _run_grid(
    cfg: McConfig,
    start: float,
    b: float,
    a_arr: np.ndarray,
    dt: float,
    mu_rate: float,
    sig: float,
    gain_fn,
    jumper,
    want_gint: bool,
    bridge: bool,
    batch_filter=None,
    block: int = BLOCK,
    exact_events: bool = False,
):
    n = cfg.n_paths
    na = a_arr.size
    g_out = np.zeros(n)
    inf_out = np.full(n, float(start))
    tau_out = np.zeros((n, na))
    gint_out = np.zeros((n, na))
    drift = mu_rate * dt
    sigstep = sig * math.sqrt(dt)
    var_step = sig * sig * dt
    two_var = 2.0 * var_step
    exp_steps = (b - min(start, 0.0)) / max(mu_rate, 1e-12) / dt
    cap_blocks = int(60.0 * exp_steps / block) + 200
    hit0 = start > a_arr  # levels already exceeded at t = 0
    n_batches = (n + BATCH - 1) // BATCH
    for bi in range(n_batches):
        if batch_filter is not None and bi not in batch_filter:
            continue
        gen = _batch_gen(cfg.base_seed, bi)
        lo = bi * BATCH
        m = min(BATCH, n - lo)
        x = np.full(BATCH, float(start))
        alive = np.zeros(BATCH, bool)
        alive[:m] = True
        stepbase = np.zeros(BATCH, np.int64)
        g_cur = np.zeros(BATCH)
        inf_cur = np.full(BATCH, float(start))
        tau_t = np.zeros((BATCH, na))
        gint_at = np.zeros((BATCH, na))
        tau_done = np.zeros((BATCH, na), bool)
        tau_done[:, hit0] = True
        gint_cum = np.zeros(BATCH)
        jgrid = np.arange(block)
        blocks = 0
        while alive.any():
            # full-width draws in fixed order keep per-path streams stable
            Z = gen.standard_normal((BATCH, block))
            J = jumper(gen) if jumper is not None else None
            U = gen.random((BATCH, block)) if bridge else None
            E0 = gen.random((BATCH, block)) if exact_events else None
            EA = gen.random((BATCH, block, na)) if exact_events and na else None
            blocks += 1
            if blocks > cap_blocks:
                raise ArithmeticError(
                    f"paths did not cross barrier {b:g} within {cap_blocks * block} steps"
                )
            idx = np.flatnonzero(alive)
            inc = drift + sigstep * Z[idx]
            if J is not None:
                inc = inc + J[idx]
            X = x[idx, None] + np.cumsum(inc, axis=1)
            M = np.maximum.accumulate(X, axis=1)
            kb = (M <= b).sum(axis=1)  # crossing step index in block; == block if none
            vmask = jgrid[None, :] <= kb[:, None]
            t0 = stepbase[idx]
            need_prev = bridge or want_gint or exact_events
            if need_prev:
                P = np.concatenate([x[idx, None], X[:, :-1]], axis=1)
            if exact_events:
                # exact within-step events from the bridge law: the segment
                # dips to 0 with prob exp(-2 P X / (sigma^2 dt))
                prod = np.maximum(P, 0.0) * np.maximum(X, 0.0)
                dipped = (
                    (X <= 0.0)
                    | (P <= 0.0)
                    | (E0[idx] < np.exp(-2.0 * prod / var_step))
                )
                negm = dipped & vmask
            else:
                negm = (X <= 0.0) & vmask
            rows = np.flatnonzero(negm.any(axis=1))
            if rows.size:
                jlast = block - 1 - np.argmax(negm[rows, ::-1], axis=1)
                g_cur[idx[rows]] = (t0[rows] + jlast + 1) * dt
            xmin = np.where(vmask, X, np.inf).min(axis=1)
            if bridge:
                # exact conditional minimum of each Brownian step segment
                disc = (X - P) ** 2 - two_var * np.log1p(-U[idx])
                mbr = 0.5 * (P + X - np.sqrt(disc))
                xmin = np.minimum(xmin, np.where(vmask, mbr, np.inf).min(axis=1))
            inf_cur[idx] = np.minimum(inf_cur[idx], xmin)
            if want_gint:
                cg = np.cumsum(gain_fn(P), axis=1) * dt
            for ia in range(na):
                pend = np.flatnonzero(~tau_done[idx, ia])
                if pend.size == 0:
                    continue
                if exact_events:
                    # segment max exceeds a with prob exp(-2 (a-P)(a-X)/var)
                    a = a_arr[ia]
                    gap = np.maximum(a - P[pend], 0.0) * np.maximum(a - X[pend], 0.0)
                    cross = (
                        (X[pend] > a)
                        | (EA[idx[pend], :, ia] < np.exp(-2.0 * gap / var_step))
                    ) & vmask[pend]
                    ka = (np.cumsum(cross, axis=1) == 0).sum(axis=1)
                else:
                    ka = (M[pend] <= a_arr[ia]).sum(axis=1)
                hitrel = np.flatnonzero(ka < block)
                if hitrel.size == 0:
                    continue
                hs = pend[hitrel]
                rows = idx[hs]
                tau_t[rows, ia] = (t0[hs] + ka[hitrel] + 1) * dt
                if want_gint:
                    gint_at[rows, ia] = gint_cum[rows] + cg[hs, ka[hitrel]]
                tau_done[rows, ia] = True
            if want_gint:
                gint_cum[idx] += cg[:, -1]
            x[idx] = X[:, -1]
            stepbase[idx] += block
            died = kb < block
            if died.any():
                alive[idx[died]] = False
        sl = slice(lo, lo + m)
        g_out[sl] = g_cur[:m]
        inf_out[sl] = inf_cur[:m]
        if na:
            tau_out[sl] = tau_t[:m]
            gint_out[sl] = gint_at[:m]
    return {"g": g_out, "tau": tau_out, "inf_depth": -inf_out, "gint": gint_out}


# ---------------------------------------------------------------------------
# exact event engine: CramerLundberg
# ---------------------------------------------------------------------------


def _run_cl(
    model: CramerLundberg,
    cfg: McConfig,
    start: float,
    b: float,
    a_arr: np.ndarray,
    want_gint: bool,
    batch_filter=None,
):
    lam, rho, mu = model.lam, model.rho, model.mu
    p1 = mu - lam / rho
    r = lam / (mu * rho)
    k = rho - lam / mu

    def psi_gain(v):
        # antiderivative of gain from 0: gain = -1 below 0, 1 - 2r e^{-kv} above
        v = np.asarray(v, float)
        vp = np.maximum(v, 0.0)
        up = vp + (2.0 * r / k) * (np.exp(-k * vp) - 1.0)
        return np.where(v >= 0.0, up, -v)

    n = cfg.n_paths
    na = a_arr.size
    K = EVENT_BLOCK
    g_out = np.zeros(n)
    inf_out = np.full(n, float(start))
    tau_out = np.zeros((n, na))
    gint_out = np.zeros((n, na))
    exp_events = lam * (b - min(start, 0.0)) / p1
    cap_blocks = int(60.0 * exp_events / K) + 200
    hit0 = start > a_arr
    psi_gain_a = psi_gain(a_arr) if na else None
    n_batches = (n + BATCH - 1) // BATCH
    for bi in range(n_batches):
        if batch_filter is not None and bi not in batch_filter:
            continue
        gen = _batch_gen(cfg.base_seed, bi)
        lo = bi * BATCH
        m = min(BATCH, n - lo)
        x = np.full(BATCH, float(start))
        tseg = np.zeros(BATCH)
        alive = np.zeros(BATCH, bool)
        alive[:m] = True
        g_cur = np.zeros(BATCH)
        inf_cur = np.full(BATCH, float(start))
        tau_t = np.zeros((BATCH, na))
        gint_at = np.zeros((BATCH, na))
        tau_done = np.zeros((BATCH, na), bool)
        tau_done[:, hit0] = True
        gint_cum = np.zeros(BATCH)
        segs = np.arange(K)
        blocks = 0
        while alive.any():
            waits = gen.standard_exponential((BATCH, K)) / lam
            sizes = gen.standard_exponential((BATCH, K)) / rho
            blocks += 1
            if blocks > cap_blocks:
                raise ArithmeticError(
                    f"paths did not cross barrier {b:g} within {cap_blocks * K} jumps"
                )
            idx = np.flatnonzero(alive)
            mrows = idx.size
            T = np.cumsum(waits[idx], axis=1)
            CJ = np.cumsum(sizes[idx], axis=1)
            xr = x[idx][:, None]
            L = xr + mu * T - (CJ - sizes[idx])  # peak just before each jump
            A = L - sizes[idx]  # position just after each jump
            ML = np.maximum.accumulate(L, axis=1)
            jb = (ML <= b).sum(axis=1)  # index of the death segment; K if none
            Aprev = np.concatenate([xr, A[:, :-1]], axis=1)
            Tprev = np.concatenate([np.zeros((mrows, 1)), T[:, :-1]], axis=1)
            segv = segs[None, :]
            # last upcrossing of zero: segment rises from Aprev < 0 through 0
            crossm = (Aprev < 0.0) & (L > 0.0) & (segv <= jb[:, None])
            anyc = crossm.any(axis=1)
            if anyc.any():
                jl = K - 1 - np.argmax(crossm[:, ::-1], axis=1)
                rows = np.flatnonzero(anyc)
                g_cur[idx[rows]] = (
                    tseg[idx[rows]] + Tprev[rows, jl[rows]] - Aprev[rows, jl[rows]] / mu
                )
            inf_cur[idx] = np.minimum(
                inf_cur[idx], np.where(segv < jb[:, None], A, np.inf).min(axis=1)
            )
            if want_gint:
                cgs = np.cumsum((psi_gain(L) - psi_gain(Aprev)) / mu, axis=1)
            for ia in range(na):
                pend = np.flatnonzero(~tau_done[idx, ia])
                if pend.size == 0:
                    continue
                ja = (ML[pend] <= a_arr[ia]).sum(axis=1)
                hitrel = np.flatnonzero(ja < K)
                if hitrel.size == 0:
                    continue
                hs = pend[hitrel]
                jah = ja[hitrel]
                rows = idx[hs]
                tau_t[rows, ia] = (
                    tseg[rows] + Tprev[hs, jah] + (a_arr[ia] - Aprev[hs, jah]) / mu
                )
                if want_gint:
                    prior = np.where(jah > 0, cgs[hs, np.maximum(jah - 1, 0)], 0.0)
                    gint_at[rows, ia] = gint_cum[rows] + prior + (
                        psi_gain_a[ia] - psi_gain(Aprev[hs, jah])
                    ) / mu
                tau_done[rows, ia] = True
            if want_gint:
                gint_cum[idx] += cgs[:, -1]
            x[idx] = A[:, -1]
            tseg[idx] += T[:, -1]
            died = jb < K
            if died.any():
                alive[idx[died]] = False
        sl = slice(lo, lo + m)
        g_out[sl] = g_cur[:m]
        inf_out[sl] = inf_cur[:m]
        if na:
            tau_out[sl] = tau_t[:m]
            gint_out[sl] = gint_at[:m]
    return {"g": g_out, "tau": tau_out, "inf_depth": -inf_out, "gint": gint_out}


# ---------------------------------------------------------------------------
# Beta-family jump machinery
# ---------------------------------------------------------------------------


@lru_cache(maxsize=64)
def beta_jump_params(beta: float, cutoff: float = BETA_JUMP_CUTOFF):
    """(rate, mean, variance-of-small, effective drift) of the jump split.

    The jump measure, mapped through u = 1 - e^y onto (0, 1), has density
    c(beta) * u^(-beta-1) * (1-u)^(beta-1) with
    c(beta) = beta * |sin(pi beta)| / pi -- the normalisation that
    reproduces psi (checked in the tests against psi''(0+)).  Jumps with
    |y| > cutoff are kept; the remainder contributes its variance to the
    Gaussian proxy, and the drift is adjusted so E X_1 = psi'(0+) = 1.
    """
    if not 1.0 < beta < 2.0:
        raise ValueError("jump split applies to beta in (1, 2) only")
    c = beta * abs(math.sin(math.pi * beta)) / math.pi
    u_eps = -math.expm1(-cutoff)

    def dens(u):
        return u ** (-beta - 1.0) * (1.0 - u) ** (beta - 1.0)

    rate = c * integrate.quad(dens, u_eps, 1.0, limit=200)[0]
    mean_big = c * integrate.quad(
        lambda u: math.log1p(-u) * dens(u), u_eps, 1.0, limit=200
    )[0]
    # small-jump second moment: substitute u = v^(1/(2-beta)) to remove
    # the u^(1-beta) endpoint singularity
    pw = 2.0 - beta

    def smooth(v):
        u = v ** (1.0 / pw)
        return (math.log1p(-u) / u) ** 2 * (1.0 - u) ** (beta - 1.0)

    var_small = c / pw * integrate.quad(smooth, 0.0, u_eps**pw, limit=200)[0]
    mu_eff = 1.0 - mean_big
    return rate, mean_big, var_small, mu_eff


def _sample_big_jumps(gen, count, beta, u_eps):
    """Rejection sampling of u ~ u^(-beta-1)(1-u)^(beta-1) on (u_eps, 1);
    returns jump sizes y = log(1 - u) < 0."""
    out = np.empty(count)
    filled = 0
    t = u_eps**-beta
    while filled < count:
        need = count - filled
        u = (t - gen.random(need) * (t - 1.0)) ** (-1.0 / beta)
        acc = gen.random(need) <= (1.0 - u) ** (beta - 1.0)
        got = int(acc.sum())
        out[filled : filled + got] = u[acc]
        filled += got
    return np.log1p(-out)


def _beta_jumper(beta: float, dt: float):
    rate, _, _, _ = beta_jump_params(beta)
    u_eps = -math.expm1(-BETA_JUMP_CUTOFF)
    lam_dt = rate * dt

    def jumper(gen):
        counts = gen.poisson(lam_dt, size=(BATCH, BLOCK))
        tot = int(counts.sum())
        if tot == 0:
            return np.zeros((BATCH, BLOCK))
        sizes = _sample_big_jumps(gen, tot, beta, u_eps)
        flat = counts.ravel()
        out = np.zeros(BATCH * BLOCK)
        nz = np.flatnonzero(flat)
        starts = (np.cumsum(flat) - flat)[nz]
        out[nz] = np.add.reduceat(sizes, starts)
        return out.reshape(BATCH, BLOCK)

    return jumper


# ---------------------------------------------------------------------------
# dispatch and estimators
# ---------------------------------------------------------------------------


def simulate_paths(
    model: LevyModel,
    cfg: McConfig,
    start: float = 0.0,
    a_levels=(),
    want_gint: bool = False,
    infimum_mode: bool = False,
    exact_crossings: bool = False,
    batch_filter=None,
) -> dict:
    """Run all paths; returns arrays g, tau, inf_depth, gint (see engines).

    ``exact_crossings`` applies only to the pure-diffusion route: per-step
    zero visits and threshold crossings are then drawn from the exact
    bridge probabilities, cutting the O(sqrt(dt)) detection bias of the
    plain grid scan down to the O(dt) time-stamping resolution.
    """
    ev = ScaleEvaluator(model)
    b = resolve_barrier(ev, cfg.tail_eps)
    a_arr = np.asarray(tuple(a_levels), float)
    if start >= b:
        raise ValueError(f"start {start:g} must lie below the barrier {b:g}")
    if a_arr.size and np.max(a_arr) >= b:
        raise ValueError(
            f"thresholds must lie below the barrier {b:g}; lower tail_eps"
        )
    if isinstance(model, CramerLundberg):
        # the event engine is exact already
        return _run_cl(model, cfg, start, b, a_arr, want_gint, batch_filter)
    if isinstance(model, BrownianDrift):
        mu, sig = model.mu, model.sigma
        jumper = None
    elif isinstance(model, BetaFamily):
        equiv = model.brownian_equivalent()
        if equiv is not None:
            mu, sig = equiv.mu, equiv.sigma
            jumper = None
        else:
            rate, _, var_small, mu_eff = beta_jump_params(model.beta)
            mu, sig = mu_eff, math.sqrt(var_small)
            jumper = _beta_jumper(model.beta, cfg.dt)
    else:
        raise TypeError(f"no simulation engine for {type(model).__name__}")
    if exact_crossings and jumper is not None:
        raise ValueError("exact_crossings requires a jump-free diffusion route")
    bridge = infimum_mode and jumper is None
    # the jump scatter is laid out for full BLOCK-wide draws
    block = INFIMUM_BLOCK if (bridge and not a_arr.size and not want_gint) else BLOCK
    return _run_grid(
        cfg,
        start,
        b,
        a_arr,
        cfg.dt,
        mu,
        sig,
        ev.gain,
        jumper,
        want_gint,
        bridge,
        batch_filter,
        block=block,
        exact_events=exact_crossings,
    )


def sample_path_events(
    model: LevyModel,
    cfg: McConfig,
    path_index: int,
    a_list=(),
    want_gint: bool = False,
) -> PathEvents:
    """Functionals of one path, by simulating only its RNG batch.

    The result for a given (base_seed, path_index) is identical whatever
    n_paths is, as long as path_index < n_paths.
    """
    if not 0 <= path_index < cfg.n_paths:
        raise ValueError(f"path_index {path_index} outside [0, {cfg.n_paths})")
    res = simulate_paths(
        model,
        cfg,
        a_levels=a_list,
        want_gint=want_gint,
        batch_filter={path_index // BATCH},
    )
    i = path_index
    return PathEvents(
        g=float(res["g"][i]),
        tau=tuple(res["tau"][i]),
        inf_depth=float(res["inf_depth"][i]),
        gint=tuple(res["gint"][i]),
    )


def _mean_report(quantity, vals, cfg, **tags) -> McReport:
    vals = np.asarray(vals, float)
    if not np.all(np.isfinite(vals)):
        raise ArithmeticError(f"non-finite samples in {quantity} estimate")
    if vals.size < 2:
        raise ValueError(f"{quantity} needs at least 2 paths for a standard error")
    est = float(vals.mean())
    se = float(vals.std(ddof=1) / math.sqrt(vals.size))
    return McReport(
        quantity=quantity,
        estimate=est,
        std_error=se,
        n_paths=cfg.n_paths,
        base_seed=cfg.base_seed,
        **tags,
    )


def estimate_mean_abs_error(model: LevyModel, cfg: McConfig, a: float) -> McReport:
    """E|g - tau_a| for the first-passage rule at threshold a, from 0."""
    res = simulate_paths(model, cfg, a_levels=(a,))
    return _mean_report(
        "mean_abs_error", np.abs(res["g"] - res["tau"][:, 0]), cfg, a=float(a)
    )


def estimate_mean_abs_error_grid(
    model: LevyModel, cfg: McConfig, a_list
) -> list[McReport]:
    """E|g - tau_a| over a grid of thresholds from one common set of paths.

    Sharing paths across thresholds makes differences between adjacent
    estimates far less noisy than the individual standard errors suggest.
    """
    a_list = [float(a) for a in a_list]
    res = simulate_paths(model, cfg, a_levels=a_list)
    return [
        _mean_report(
            "mean_abs_error", np.abs(res["g"] - res["tau"][:, i]), cfg, a=a
        )
        for i, a in enumerate(a_list)
    ]


def estimate_expected_g(
    model: LevyModel, cfg: McConfig, exact_crossings: bool = False
) -> McReport:
    """Mean of the last time at or below zero, from 0."""
    res = simulate_paths(model, cfg, exact_crossings=exact_crossings)
    return _mean_report("expected_g", res["g"], cfg)


def estimate_passage_time(
    model: LevyModel, cfg: McConfig, a: float, exact_crossings: bool = False
) -> McReport:
    """Mean first-passage time above a, from 0."""
    res = simulate_paths(model, cfg, a_levels=(a,), exact_crossings=exact_crossings)
    return _mean_report("passage_time", res["tau"][:, 0], cfg, a=float(a))


def estimate_value(model: LevyModel, cfg: McConfig, a: float, x: float = 0.0) -> McReport:
    """Mean of int_0^tau_a gain(X_s) ds started from x (the value V_a(x))."""
    if x >= a:
        return McReport(
            quantity="value",
            estimate=0.0,
            std_error=0.0,
            n_paths=cfg.n_paths,
            base_seed=cfg.base_seed,
            a=float(a),
            x=float(x),
        )
    res = simulate_paths(model, cfg, start=x, a_levels=(a,), want_gint=True)
    return _mean_report("value", res["gint"][:, 0], cfg, a=float(a), x=float(x))


def estimate_laplace_g(
    model: LevyModel, cfg: McConfig, q: float, exact_crossings: bool = False
) -> McReport:
    """Mean of exp(-q g), from 0."""
    if q < 0:
        raise ValueError(f"q must be >= 0, got {q!r}")
    res = simulate_paths(model, cfg, exact_crossings=exact_crossings)
    return _mean_report("laplace_g", np.exp(-q * res["g"]), cfg, q=float(q))


def sample_infimum(model: LevyModel, cfg: McConfig, step: float | None = None) -> np.ndarray:
    """Sampled depths of the all-time infimum, one per path.

    For the Brownian route the per-step minimum uses the exact bridge law,
    so the default coarse step costs nothing in accuracy; the cutoff bias
    (infimum observed only until the barrier passage) is bounded by
    tail_eps.  CramerLundberg infima are exact by construction.
    """
    if isinstance(model, BrownianDrift) or (
        isinstance(model, BetaFamily) and model.brownian_equivalent() is not None
    ):
        cfg = dataclasses.replace(cfg, dt=step if step is not None else INFIMUM_STEP)
    elif step is not None:
        cfg = dataclasses.replace(cfg, dt=step)
    res = simulate_paths(model, cfg, infimum_mode=True)
    return res["inf_depth"]


def infimum_pair_sum_median(
    model: LevyModel, cfg: McConfig, step: float | None = None
) -> tuple[float, np.ndarray]:
    """Median of sums of disjoint pairs of sampled infima.

    The population median of the pair sum is the optimal threshold a*;
    this is the distribution-level cross-check of the solver.
    """
    depths = sample_infimum(model, cfg, step=step)
    half = depths.size // 2
    if half < 1:
        raise ValueError("need at least 2 paths to form pairs")
    sums = depths[: 2 * half : 2] + depths[1 : 2 * half : 2]
    return float(np.median(sums)), sums


# ---------------------------------------------------------------------------
# distribution checks
# ---------------------------------------------------------------------------


def ks_statistic(samples, cdf, cdf_left=None) -> float:
    """sup_x |F_n(x) - F(x)| against a reference CDF.

    ``cdf_left`` supplies left limits when F has atoms (CramerLundberg has
    one at 0); for continuous F it defaults to ``cdf`` itself.
    """
    x = np.sort(np.asarray(samples, float))
    n = x.size
    if n == 0:
        raise ValueError("need at least one sample")
    fx = np.asarray(cdf(x), float)
    fl = fx if cdf_left is None else np.asarray(cdf_left(x), float)
    d_plus = float(np.max(np.arange(1, n + 1) / n - fx))
    d_minus = float(np.max(fl - np.arange(0, n) / n))
    return max(d_plus, d_minus, 0.0)


def ks_critical(n: int, alpha: float = 0.01) -> float:
    """Asymptotic Kolmogorov critical value at level alpha."""
    return float(special.kolmogi(alpha)) / math.sqrt(n)
