"""Monte Carlo engine for path functionals of the three model families.

Per path the engine extracts the last time at or below zero (g),
first-passage times over a set of thresholds, the depth of the all-time
infimum, and the integral of the gain function up to each passage.  A
high barrier b, placed so the infimum law puts mass >= 1 - tail_eps
below it, bounds every path's simulated length; where a path's future
after b is not sampled exactly, the truncation bias is of order tail_eps.

Scheme by family:

* CramerLundberg: exact event-driven simulation up to the passage above b.
  Paths are piecewise linear between Exp-distributed jumps; passage
  times, zero upcrossings, the infimum, and gain integrals (closed
  antiderivative per linear segment) are all computed without
  discretisation error.
* BrownianDrift (and BetaFamily(2), which is BrownianDrift(1, sqrt 2)):
  a skeleton of Gaussian steps, with every event drawn at its exact time
  from the Brownian-bridge laws of the steps (``pieces`` holds the laws,
  ``bridge`` the route and its constants).  The step minimum gives the
  step's touch of 0 and the infimum, and the step maximum screens the
  lowest pending level.  A level is passed in the first step whose
  maximum passes it; the levels above it follow one by one from the
  previous passage, over the rest of that step (the bridge is Markov), so
  every threshold is stamped exactly and tau is nondecreasing in the level.
  The last zero of a block lies in its last touching step: its time L is
  drawn there, and the step minimum from the bridge from P to 0 over
  [0, L], which keeps g and the infimum jointly exact; a touch in a later
  block replaces g.  Only steps within reach of 0, of the lowest grid
  point, or of a pending level draw.  A step within reach of both 0 and a
  pending level, ending after the last grid point at or below 0, could
  hold both the last zero and a passage; it is split at its bridge midpoints (the Levy
  construction) until no piece is, deciding from the points drawn so far
  only, for at most SPLIT_DEPTH halvings (a piece of h / 2^30 may keep
  both).  The step is a fixed share of the time scale sigma^2/mu^2
  (``run_step``: INFIMUM_STEP without thresholds, THRESHOLD_STEP with),
  so every Brownian model takes as many steps; an explicit ``step`` of
  ``simulate_paths`` or ``sample_infimum`` replaces it.  As
  E|g - tau| = E(g) + E int_0^tau (2F(X_s) - 1) ds for every stopping
  time (du Toit, Peskir & Shiryaev 2008), a path's gint is |g - tau| - g:
  the gain integral in mean, not path by path.  A
  block spans BLOCK_SPAN mean path lengths, in [BLOCK_MIN, BLOCK] steps, and
  doubles every BLOCK_GROW blocks, up to eight times, so that the few slow
  paths take few blocks (its length depends on its index only).  Every
  path stops at the end of the block in which it passes its top level
  (b when there are no thresholds, where a grid point above b marks the
  passage): a fixed time, decided by the path up to it.  A block spans
  several mean path lengths, so a threshold path simulates about five
  times the steps it needs, which costs less than more blocks.  The
  future after the stop (infimum, return to 0 and last zero) is drawn
  exactly by the strong Markov property.  So g carries no
  tail_eps bias, and g, tau and the infimum are exact at any step.
* BetaFamily(beta < 2): compound-Poisson approximation on the grid, run
  to b.  Jumps larger than a cutoff are simulated exactly (rejection
  sampling from the jump law), smaller ones are replaced by a Brownian
  motion matching their variance, and the drift is compensated so the
  mean of X_1 is exact.  Zero dips, passages and the infimum are read
  off the grid points (there is no bridge law).  Intended for soft
  (several-standard-error) cross-checks only.

The engines share one batch driver: ``_Batch`` holds a batch's per-path
state (position, clock, last zero, infimum, and per level the passage
time, gain integral and a done flag).  The event engine and the jump
route share one passage search, which finds per block the first claim
segment or step whose running maximum passes each sorted level, b
included where paths run to it.  A run whose paths would
take more than ``batch.MAX_STEPS_PER_PATH`` steps or claims on average is
refused before its first block.

Reproducibility contract: paths are organised in batches of ``BATCH``,
the unit of ``batch_filter``.  The event engine gives batch j the stream
``Philox(key=base_seed).jumped(j)`` and draws full-width blocks.  The grid
engines split each batch into groups of ``GROUP`` paths and give group j
(paths GROUP*j .. GROUP*j + GROUP - 1) the stream jumped(j); per block they
draw only for the group's live paths, in row order, and the last group's
padding rows beyond n_paths are simulated as ordinary paths.  The bridge
route's event draws come from a reserve of uniforms per group: its first
RESERVE values are row g of one draw from the batch's own stream
jumped(j + 2^64), the rest from the group's stream, handed out in the
order of the group's requests and refilled by the group's own needs.
In every engine the draws feeding path k are a function of (base_seed,
k) alone: independent of n_paths and of how results are later
aggregated, so one path can be simulated alone with its group (its
batch on the event engine).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy import integrate, special

from .batch import (
    BATCH,
    BLOCK,
    GROUP,
    MAX_RESULT_BYTES,
    _Batch,
    _batch_gen,
    _block_cap,
    _first_passages,
    _last_true,
    _levels,
    _outputs,
    _Streams,
)
from .bridge import run_bridge
from .models import CramerLundberg, LevyModel
from .scale import ScaleEvaluator

__all__ = [
    "BATCH",
    "GROUP",
    "McConfig",
    "McReport",
    "PathEvents",
    "resolve_barrier",
    "simulate_paths",
    "sample_path_events",
    "run_step",
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

EVENT_BLOCK = 64  # jump events drawn per block (CramerLundberg)
BETA_JUMP_CUTOFF = 1e-2  # |y| below this is folded into the Gaussian proxy
# bridge-route steps in units of the model's time scale sigma^2/mu^2, so that
# every Brownian model takes as many steps: runs without thresholds and with
INFIMUM_STEP = 8.0
THRESHOLD_STEP = 0.125


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


@dataclass(frozen=True)
class McConfig:
    """Simulation budget and numerical knobs.

    ``tail_eps`` places the barrier b at the (1 - tail_eps)-quantile of
    the infimum law: thresholds must lie below it, and paths without an
    exact continuation are simulated up to their passage above it.
    ``dt`` is the grid step of the Beta jump route (beta < 2) only: the
    Brownian route takes its own step in model units (``run_step``) and
    the exact CramerLundberg engine none.  A run raises ValueError when its
    paths would take more than ``batch.MAX_STEPS_PER_PATH`` on average: steps to
    the top level, (top - min(start, 0)) / (mu step), or claims to b,
    lam (b - min(start, 0)) / psi'(0+).
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
    """Per-path functionals extracted by the engine; on the Brownian route
    gint is |g - tau| - g, the gain integral in mean, not path by path."""

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


class _GroupFilter(frozenset):
    """A ``batch_filter`` naming the batch of one RNG group, ``group``: the
    event engine runs that batch, the grid engines only the group, whose
    draws do not depend on the rest of its batch."""

    def __new__(cls, group: int):
        self = super().__new__(cls, {group * GROUP // BATCH})
        self.group = group
        return self


def _todo(n: int, batch_filter, by_group: bool) -> list[tuple[int, int]]:
    """(first path, path count) of each batch to run; only the one group of
    a ``_GroupFilter`` when the engine runs ``by_group``."""
    if by_group and isinstance(batch_filter, _GroupFilter):
        lo = batch_filter.group * GROUP
        return [(lo, min(GROUP, n - lo))]
    return [(lo, min(BATCH, n - lo)) for lo in range(0, n, BATCH)
            if batch_filter is None or lo // BATCH in batch_filter]


# ---------------------------------------------------------------------------
# jump route: Beta(beta < 2) on a grid of dt steps
# ---------------------------------------------------------------------------


def _run_grid(
    cfg: McConfig,
    dt: float,
    start: float,
    b: float,
    a_arr: np.ndarray,
    mu_rate: float,
    sig: float,
    gain_fn,
    jumper,
    want_gint: bool,
    todo,
):
    """Compound-Poisson approximation on a grid of ``dt`` steps, run to
    b; events are read off the grid points (see the module docstring)."""
    levels, rank = _levels(a_arr, b, True)
    drift = mu_rate * dt
    sigstep = sig * math.sqrt(dt)
    block = BLOCK
    steps = (levels[-1] - min(start, 0.0)) / max(mu_rate, 1e-12) / dt
    cap = _block_cap(steps, "steps", block)
    out = _outputs(cfg, start, a_arr.size)
    jgrid = np.arange(block)
    streams = _Streams(cfg)
    for lo, m in todo:
        ng = -(-m // GROUP)
        rows = ng * GROUP  # the last group's padding rows run too
        streams.seat(lo, ng)
        s = _Batch(rows, rows, start, levels, cap, np.int64)
        while (idx := s.running()).size:
            # each group draws from its own stream, for its live rows only
            inc, groups = streams.normals(idx, block)
            inc *= sigstep
            inc += drift
            for gen, grp in groups:
                inc[grp] += jumper(gen, grp.stop - grp.start, block)
            X = np.cumsum(inc, axis=1)
            X += s.x[idx, None]
            first = _first_passages(levels, np.maximum.accumulate(X, axis=1))
            kstop = first[:, -1]  # == block when the path goes on
            stop = np.flatnonzero(kstop < block)
            low = X.copy()
            if stop.size:
                low[stop] = np.where(jgrid > kstop[stop, None], np.inf, low[stop])
            t0 = s.clock[idx]
            rws, jlast = _last_true(low <= 0.0)
            s.g[idx[rws]] = (t0[rws] + jlast + 1) * dt
            s.inf[idx] = np.minimum(s.inf[idx], low.min(axis=1))
            r, l, k = s.passages(idx, first, block)
            s.tau[idx[r], l] = (t0[r] + k + 1) * dt
            if want_gint:
                P = np.empty_like(X)
                P[:, 0] = s.x[idx]
                P[:, 1:] = X[:, :-1]
                cg = np.cumsum(gain_fn(P), axis=1) * dt
                s.gint[idx[r], l] = s.gint_cum[idx[r]] + cg[r, k]
                s.gint_cum[idx] += cg[:, -1]
            s.x[idx] = X[:, -1]
            s.clock[idx] += block
            if stop.size:
                rs = idx[stop]
                s.x[rs] = X[stop, kstop[stop]]
                s.clock[rs] = t0[stop] + kstop[stop] + 1
                s.alive[rs] = False
        s.store(out, lo, m, rank)
    return out


# ---------------------------------------------------------------------------
# exact event engine: CramerLundberg
# ---------------------------------------------------------------------------


def _run_cl(
    model: CramerLundberg,
    law,
    cfg: McConfig,
    start: float,
    b: float,
    a_arr: np.ndarray,
    want_gint: bool,
    todo,
):
    lam, rho, mu = model.lam, model.rho, model.mu
    r, k = law.r, law.k

    def psi_gain(v):
        # antiderivative of gain from 0: gain = -1 below 0, 1 - 2r e^{-kv} above
        v = np.asarray(v, float)
        vp = np.maximum(v, 0.0)
        up = vp + (2.0 * r / k) * (np.exp(-k * vp) - 1.0)
        return np.where(v >= 0.0, up, -v)

    K = EVENT_BLOCK
    # every path runs to b: the last level
    levels, rank = _levels(a_arr, b, True)
    psi_gain_lv = psi_gain(levels)
    cap = _block_cap(lam * (b - min(start, 0.0)) / (mu - lam / rho), "claims", K)
    out = _outputs(cfg, start, a_arr.size)
    segs = np.arange(K)
    for lo, m in todo:
        gen = _batch_gen(cfg.base_seed, lo // BATCH)
        s = _Batch(BATCH, m, start, levels, cap)
        while (idx := s.running()).size:
            waits = gen.standard_exponential((BATCH, K)) / lam
            sizes = gen.standard_exponential((BATCH, K)) / rho
            T = np.cumsum(waits[idx], axis=1)
            CJ = np.cumsum(sizes[idx], axis=1)
            xr = s.x[idx][:, None]
            L = xr + mu * T - (CJ - sizes[idx])  # peak just before each jump
            A = L - sizes[idx]  # position just after each jump
            first = _first_passages(levels, np.maximum.accumulate(L, axis=1))
            jb = first[:, -1]  # the segment that passes b; K if none
            Aprev = np.concatenate([xr, A[:, :-1]], axis=1)
            Tprev = np.concatenate([np.zeros((idx.size, 1)), T[:, :-1]], axis=1)
            # last upcrossing of zero: segment rises from Aprev < 0 through 0
            rws, jl = _last_true((Aprev < 0.0) & (L > 0.0) & (segs <= jb[:, None]))
            s.g[idx[rws]] = s.clock[idx[rws]] + Tprev[rws, jl] - Aprev[rws, jl] / mu
            s.inf[idx] = np.minimum(
                s.inf[idx], np.where(segs < jb[:, None], A, np.inf).min(axis=1)
            )
            # each level is passed on the segment rising from Aprev at speed mu
            rp, lp, kp = s.passages(idx, first, K)
            rows = idx[rp]
            s.tau[rows, lp] = s.clock[rows] + Tprev[rp, kp] + (levels[lp] - Aprev[rp, kp]) / mu
            if want_gint:
                cgs = np.cumsum((psi_gain(L) - psi_gain(Aprev)) / mu, axis=1)
                prior = np.where(kp > 0, cgs[rp, np.maximum(kp - 1, 0)], 0.0)
                s.gint[rows, lp] = s.gint_cum[rows] + prior + (
                    psi_gain_lv[lp] - psi_gain(Aprev[rp, kp])
                ) / mu
                s.gint_cum[idx] += cgs[:, -1]
            s.x[idx] = A[:, -1]
            s.clock[idx] += T[:, -1]
            s.alive[idx[jb < K]] = False
        s.store(out, lo, m, rank)
    return out


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

    def jumper(gen, rows, block):
        counts = gen.poisson(lam_dt, size=(rows, block))
        tot = int(counts.sum())
        if tot == 0:
            return 0.0
        sizes = _sample_big_jumps(gen, tot, beta, u_eps)
        flat = counts.ravel()
        out = np.zeros(flat.size)
        nz = np.flatnonzero(flat)
        starts = (np.cumsum(flat) - flat)[nz]
        out[nz] = np.add.reduceat(sizes, starts)
        return out.reshape(rows, block)

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
    step: float | None = None,
) -> dict:
    """Run all paths; returns arrays g, tau, inf_depth, gint (see engines).

    The Brownian route draws every event from the bridge laws at the step
    ``step``, by default ``run_step``'s, so ``cfg.dt``, ``infimum_mode``
    and ``exact_crossings`` change nothing there, and its gint is
    |g - tau| - g, the gain integral in mean, not path by path.  The jump
    route steps in ``step``, by default ``cfg.dt``, has no bridge law and
    refuses ``exact_crossings``.  ``start`` and the levels must be finite.
    A run whose result arrays would take more than ``batch.MAX_RESULT_BYTES``
    is refused before any is built.
    """
    a_arr = np.asarray(tuple(a_levels), float)
    need = 8 * cfg.n_paths * (2 + 2 * a_arr.size)  # bytes of g, inf_depth, tau and gint
    if need > MAX_RESULT_BYTES:
        raise ValueError(f"{cfg.n_paths} paths with {a_arr.size} thresholds need {need:.3g} "
                         f"bytes of results, over {MAX_RESULT_BYTES:.3g}")
    ev = ScaleEvaluator(model)
    b = resolve_barrier(ev, cfg.tail_eps)
    if not (math.isfinite(start) and np.isfinite(a_arr).all()):
        raise ValueError("start and thresholds must be finite")
    if step is not None and not (math.isfinite(step) and step > 0):
        raise ValueError(f"step must be positive, got {step!r}")
    if start >= b:
        raise ValueError(f"start {start:g} must lie below the barrier {b:g}")
    if a_arr.size and np.max(a_arr) >= b:
        raise ValueError(
            f"thresholds must lie below the barrier {b:g}; lower tail_eps"
        )
    if isinstance(model, CramerLundberg):
        # the event engine is exact already
        return _run_cl(model, ev.law, cfg, start, b, a_arr, want_gint,
                       _todo(cfg.n_paths, batch_filter, False))
    todo = _todo(cfg.n_paths, batch_filter, True)
    equiv = model.brownian_equivalent()
    if equiv is not None:
        if step is None:
            step = run_step(model, cfg, a_arr.size > 0)
        out = run_bridge(cfg, start, b, a_arr, equiv.mu, equiv.sigma, step, todo)
        if want_gint:
            g, gint = out["g"][:, None], out["gint"]
            np.abs(np.subtract(g, out["tau"], out=gint), out=gint)
            gint -= g
        return out
    if exact_crossings:
        raise ValueError("exact_crossings requires a jump-free diffusion route")
    # BetaFamily(beta < 2)
    _, _, var_small, mu_eff = beta_jump_params(model.beta)
    dt = cfg.dt if step is None else step
    return _run_grid(cfg, dt, start, b, a_arr, mu_eff, math.sqrt(var_small), ev.gain,
                     _beta_jumper(model.beta, dt), want_gint, todo)


def run_step(model: LevyModel, cfg: McConfig, levels: bool = False) -> float:
    """The step a run of ``model`` takes.  On the Brownian route it is a
    fixed share of the model's time scale sigma^2/mu^2: THRESHOLD_STEP for
    runs with thresholds and INFIMUM_STEP for runs without.  Elsewhere it
    is ``cfg.dt`` (which the exact CramerLundberg engine does not use)."""
    equiv = model.brownian_equivalent()
    if equiv is None:
        return cfg.dt
    share = THRESHOLD_STEP if levels else INFIMUM_STEP
    return share * (equiv.sigma / equiv.mu) ** 2


def sample_path_events(
    model: LevyModel,
    cfg: McConfig,
    path_index: int,
    a_list=(),
    want_gint: bool = False,
) -> PathEvents:
    """Functionals of one path, by simulating only its RNG group (its batch
    on the CramerLundberg engine, whose streams are per batch).

    The result for a given (base_seed, path_index) is identical whatever
    n_paths is, as long as path_index < n_paths.
    """
    if not 0 <= path_index < cfg.n_paths:
        raise ValueError(f"path_index {path_index} outside [0, {cfg.n_paths})")
    res = simulate_paths(model, cfg, a_levels=a_list, want_gint=want_gint,
                         batch_filter=_GroupFilter(path_index // GROUP))
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
    if not (math.isfinite(q) and q >= 0):
        raise ValueError(f"q must be finite and >= 0, got {q!r}")
    res = simulate_paths(model, cfg, exact_crossings=exact_crossings)
    return _mean_report("laplace_g", np.exp(-q * res["g"]), cfg, q=float(q))


def sample_infimum(model: LevyModel, cfg: McConfig, step: float | None = None) -> np.ndarray:
    """Sampled depths of the all-time infimum, one per path.

    An explicit ``step`` replaces the grid step of either route.  On the
    Brownian route the step minima come from the exact bridge law, a path
    stops at the end of the block in which a grid point passes b, and the
    infimum after it is drawn exactly, so the coarse default step of
    ``run_step`` is exact too.
    CramerLundberg infima are exact up to the barrier passage, which bounds
    their cutoff bias by tail_eps.
    """
    return simulate_paths(model, cfg, infimum_mode=True, step=step)["inf_depth"]


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
