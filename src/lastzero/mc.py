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
  Euler grid with step dt, refined by the Brownian-bridge law.  Each
  step's minimum, 1/2 (P + X - sqrt((X - P)^2 - 2 sigma^2 dt log U)), gives
  its zero dips and the infimum; one more uniform gives its maximum and
  with it the passages over every threshold.  The uniforms are drawn
  only on steps within sqrt(19 sigma^2 dt) of a level that matters (0,
  the lowest point so far, a threshold): further away the bridge reaches
  the level with probability below 2^-53.  Events are stamped at the end
  of their step, a bias of order dt.  A path stops at the step whose
  maximum passes the top threshold, or b when there are none, and its
  future is drawn exactly (strong Markov property at the grid point
  (t, x)): with E ~ Exp(2 mu / sigma^2) the future infimum is x - E, the
  path returns to 0 iff E >= x, the return takes an inverse Gaussian
  time with mean |x|/mu and shape x^2/sigma^2, and the last zero after it
  adds Gamma(1/2, scale 2 sigma^2 / mu^2).  So g carries no tail_eps bias.
* BetaFamily(beta < 2): compound-Poisson approximation on the grid, run
  to b.  Jumps larger than a cutoff are simulated exactly (rejection
  sampling from the jump law), smaller ones are replaced by a Brownian
  motion matching their variance, and the drift is compensated so the
  mean of X_1 is exact.  Zero dips, passages and the infimum are read
  off the grid points (there is no bridge law).  Intended for soft
  (several-standard-error) cross-checks only.

Both engines share one batch driver: ``_Batch`` holds a batch's per-path
state (position, clock, last zero, infimum, and per level the passage
time, gain integral and a done flag), and one passage search finds, per
block, the first step or claim segment whose running maximum passes each
sorted level, b included where paths run to it.  A run whose paths would
take more than ``MAX_STEPS_PER_PATH`` steps or claims on average is
refused before its first block.

Reproducibility contract: paths are organised in batches of ``BATCH``,
the unit of ``batch_filter``.  The event engine gives batch j the stream
``Philox(key=base_seed).jumped(j)`` and draws full-width blocks.  The grid
engine splits each batch into groups of ``GROUP`` paths and gives group j
(paths GROUP*j .. GROUP*j + GROUP - 1) the stream jumped(j); per block it
draws only for the group's live paths, in row order, and the last
group's padding rows beyond n_paths are simulated as ordinary paths.  In
both engines the draws feeding path k are a function of (base_seed, k)
alone: independent of n_paths and of how results are later aggregated.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy import integrate, special

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

BATCH = 1024  # paths per batch: the unit of batch_filter and of the CL streams
GROUP = 16  # paths per RNG stream of the grid engine
BLOCK = 256  # Euler steps drawn per block
INFIMUM_BLOCK = 128  # shorter blocks for the coarse-step infimum sampler
# a bridge step whose end points lie further than sqrt(BRIDGE_REACH sigma^2 dt)
# from a level reaches it with probability below exp(-2 BRIDGE_REACH) < 2^-53
BRIDGE_REACH = 19.0
EVENT_BLOCK = 64  # jump events drawn per block (CramerLundberg)
BETA_JUMP_CUTOFF = 1e-2  # |y| below this is folded into the Gaussian proxy
INFIMUM_STEP = 0.02  # default bridge step for Brownian infimum sampling
# a run is refused when its paths would take more Euler steps or claims than
# this on average (BM(1,1) to b: about 3.5e3 steps; CL(1.3,1,1): about 100 claims)
MAX_STEPS_PER_PATH = 1e7


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


@dataclass(frozen=True)
class McConfig:
    """Simulation budget and numerical knobs.

    ``tail_eps`` places the barrier b at the (1 - tail_eps)-quantile of
    the infimum law: thresholds must lie below it, and paths without an
    exact continuation are simulated up to their passage above it.
    ``dt`` is the Euler step for the grid-based families (ignored by the
    exact CramerLundberg engine).  A run raises ValueError when its paths
    would take more than ``MAX_STEPS_PER_PATH`` on average: Euler steps to
    the top level, (top - min(start, 0)) / (mu dt), or claims to b,
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


def _batch_gen(base_seed: int, index: int) -> np.random.Generator:
    """Stream ``index`` of ``base_seed``: Philox(key=base_seed).jumped(index),
    set up through the counter, which is three times cheaper."""
    return np.random.Generator(np.random.Philox(key=base_seed, counter=[0, 0, index, 0]))


# ---------------------------------------------------------------------------
# batch driver shared by the engines
# ---------------------------------------------------------------------------


def _levels(a_arr: np.ndarray, b: float, with_b: bool):
    """The thresholds in ascending (stable) order, with b appended when
    paths run to it, and the rank that maps them back to the input order."""
    order = np.argsort(a_arr, kind="stable")
    rank = np.empty_like(order)
    rank[order] = np.arange(a_arr.size)
    levels = a_arr[order]
    return (np.append(levels, b) if with_b else levels), rank


def _batches(cfg: McConfig, start: float, na: int, batch_filter):
    """The result arrays, and the (first path, path count) of each batch to
    run; filtered-out paths keep g = tau = gint = 0 and inf_depth = -start."""
    n = cfg.n_paths
    out = {"g": np.zeros(n), "tau": np.zeros((n, na)),
           "inf_depth": np.full(n, -float(start)), "gint": np.zeros((n, na))}
    return out, [(lo, min(BATCH, n - lo)) for lo in range(0, n, BATCH)
                 if batch_filter is None or lo // BATCH in batch_filter]


def _block_cap(per_path: float, unit: str, width: int) -> int:
    """Blocks of ``width`` steps or claims a batch may take: 60 times the
    expected path length plus a margin.  Refuses, with ValueError, a run
    whose paths would need more than MAX_STEPS_PER_PATH of them."""
    if not per_path <= MAX_STEPS_PER_PATH:
        raise ValueError(f"paths need {per_path:.3g} {unit} per path, over {MAX_STEPS_PER_PATH:g}")
    return int(60.0 * per_path / width) + 200


def _first_passages(levels: np.ndarray, runmax: np.ndarray) -> np.ndarray:
    """Per row and sorted level, the first column whose running maximum
    passes the level (runmax > level), or the column count if none does:
    the count of columns whose running maximum is still at or below it."""
    first = np.empty((runmax.shape[0], levels.size), np.intp)
    for j, v in enumerate(levels):
        first[:, j] = (runmax <= v).sum(axis=1)
    return first


def _last_true(mask: np.ndarray):
    """The rows of ``mask`` with a True entry, and the column of their last one."""
    rows = np.flatnonzero(mask.any(axis=1))
    return rows, mask.shape[1] - 1 - np.argmax(mask[rows, ::-1], axis=1)


class _Batch:
    """State of one batch's paths, one row each: position ``x``, ``clock``
    (a step count on the grid, a time for the event engine), whether it is
    ``alive``, the last zero ``g`` and infimum ``inf`` so far, and per
    level its passage time ``tau``, ``gint`` up to it and whether it is
    ``done``; ``gint_cum`` is the gain integral so far."""

    def __init__(self, rows, live, start, levels, cap, clock=float):
        hit0 = start > levels  # levels already exceeded at t = 0
        self.x = np.full(rows, float(start))
        self.clock = np.zeros(rows, clock)
        self.alive = np.zeros(rows, bool)
        self.alive[:live] = not hit0[-1]  # else every path continues from t = 0
        self.g = np.zeros(rows)
        self.inf = np.full(rows, float(start))
        self.tau = np.zeros((rows, levels.size))
        self.gint = np.zeros((rows, levels.size))
        self.done = np.tile(hit0, (rows, 1))
        self.gint_cum = np.zeros(rows)
        self.top, self.cap, self.blocks = levels[-1], cap, 0

    def running(self) -> np.ndarray:
        """The live rows; counts a block for them and raises ArithmeticError
        once the cap is passed."""
        idx = np.flatnonzero(self.alive)
        if idx.size:
            self.blocks += 1
            if self.blocks > self.cap:
                raise ArithmeticError(f"paths did not pass level {self.top:g} in {self.cap} blocks")
        return idx

    def passages(self, idx, first, K):
        """(row in idx, level, column) of each level that row idx[row]
        passes for the first time in this block; marks them done."""
        r, l = np.nonzero((first < K) & ~self.done[idx])
        self.done[idx[r], l] = True
        return r, l, first[r, l]

    def store(self, out, lo, m, rank):
        """Copy the first m rows into the results from path lo on, with the
        threshold columns back in input order (an appended b is dropped)."""
        sl = slice(lo, lo + m)
        out["g"][sl] = self.g[:m]
        out["inf_depth"][sl] = -self.inf[:m]
        out["tau"][sl] = self.tau[:m, rank]
        out["gint"][sl] = self.gint[:m, rank]


# ---------------------------------------------------------------------------
# grid engine: Brownian motion with drift, optionally plus compound jumps
# ---------------------------------------------------------------------------


def _levels_below(levels: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Number of the sorted ``levels`` strictly below each v."""
    if levels.size == 1:  # a comparison costs a tenth of a searchsorted
        return (v > levels[0]).astype(np.intp)
    return np.searchsorted(levels, v)


def _bridge_refine(ext, cand, P, X, inc, gens, live, gbound, var_step, sign):
    """Replace ``ext`` on the candidate steps by the minimum (sign -1) or the
    maximum (sign +1) of the Brownian bridge from P to X over the step.

    Each live group draws one uniform per candidate step of its rows, in
    row order, from its own stream.
    """
    flat = np.flatnonzero(cand)
    u = np.empty(flat.size)
    off = np.searchsorted(flat, gbound * cand.shape[1])
    for j, gi in enumerate(live):
        gens[gi].random(out=u[off[j] : off[j + 1]])
    d = inc.ravel()[flat]
    spread = np.sqrt(d * d - 2.0 * var_step * np.log1p(-u))
    ext.ravel()[flat] = 0.5 * (P.ravel()[flat] + X.ravel()[flat] + sign * spread)


def _run_grid(
    cfg: McConfig,
    start: float,
    b: float,
    a_arr: np.ndarray,
    mu_rate: float,
    sig: float,
    gain_fn,
    jumper,
    want_gint: bool,
    batch_filter=None,
    block: int = BLOCK,
):
    dt = cfg.dt
    exact = jumper is None  # bridge events and exact continuation
    # paths stop at the top level: the top threshold, or b on the jump route
    # and when there are no thresholds
    levels, rank = _levels(a_arr, b, not exact or a_arr.size == 0)
    drift = mu_rate * dt
    sigstep = sig * math.sqrt(dt)
    var_step = sig * sig * dt
    reach = math.sqrt(BRIDGE_REACH * var_step)
    # the union of the intervals (level - reach, level], merged where they overlap
    gap = np.diff(levels) > reach
    near_lo = np.append(levels[0], levels[1:][gap]) - reach
    near_hi = np.append(levels[:-1][gap], levels[-1])
    steps = (levels[-1] - min(start, 0.0)) / max(mu_rate, 1e-12) / dt
    cap = _block_cap(steps, "steps", block)
    out, todo = _batches(cfg, start, a_arr.size, batch_filter)
    jgrid = np.arange(block)
    # one generator per group slot of a batch, moved to each batch's group
    # streams by setting its state, which is five times cheaper than a new one
    gens = [_batch_gen(cfg.base_seed, 0) for _ in range(-(-min(cfg.n_paths, BATCH) // GROUP))]
    fresh = gens[0].bit_generator.state
    for lo, m in todo:
        ng = -(-m // GROUP)
        rows = ng * GROUP  # the last group's padding rows run too
        for j in range(ng):
            fresh["state"]["counter"] = np.array([0, 0, lo // GROUP + j, 0], np.uint64)
            gens[j].bit_generator.state = fresh
        s = _Batch(rows, rows, start, levels, cap, np.int64)
        while (idx := s.running()).size:
            R = idx.size
            # live rows of one group are contiguous; each group draws from
            # its own stream, for its live rows only
            live, gstart = np.unique(idx // GROUP, return_index=True)
            gbound = np.append(gstart, R)
            inc = np.empty((R, block))
            for j, gi in enumerate(live):
                gens[gi].standard_normal(out=inc[gbound[j] : gbound[j + 1]])
            inc *= sigstep
            inc += drift
            if not exact:
                for j, gi in enumerate(live):
                    inc[gbound[j] : gbound[j + 1]] += jumper(
                        gens[gi], gbound[j + 1] - gbound[j], block
                    )
            X = np.cumsum(inc, axis=1)
            X += s.x[idx, None]
            P = np.empty_like(X)
            P[:, 0] = s.x[idx]
            P[:, 1:] = X[:, :-1]
            if exact:
                # passages: step maxima from the bridge law, drawn only on
                # steps whose end points lie within reach below a level
                high = np.maximum(P, X)
                cand = _levels_below(near_lo, high) > _levels_below(near_hi, high)
                _bridge_refine(high, cand, P, X, inc, gens, live, gbound, var_step, 1.0)
            else:
                high = X
            first = _first_passages(levels, np.maximum.accumulate(high, axis=1))
            kstop = first[:, -1]  # == block when the path goes on
            stop = np.flatnonzero(kstop < block)
            low = np.minimum(P, X) if exact else X.copy()
            if stop.size:
                low[stop] = np.where(jgrid > kstop[stop, None], np.inf, low[stop])
            if exact:
                # zero dips and the infimum: step minima from the bridge law,
                # drawn only on steps within reach above 0 or above the
                # lowest point so far
                ref = np.minimum(s.inf[idx], low.min(axis=1))[:, None]
                cand = (low < ref + reach) | ((low > 0.0) & (low < reach))
                _bridge_refine(low, cand, P, X, inc, gens, live, gbound, var_step, -1.0)
            t0 = s.clock[idx]
            rws, jlast = _last_true(low <= 0.0)
            s.g[idx[rws]] = (t0[rws] + jlast + 1) * dt
            s.inf[idx] = np.minimum(s.inf[idx], low.min(axis=1))
            r, l, k = s.passages(idx, first, block)
            s.tau[idx[r], l] = (t0[r] + k + 1) * dt
            if want_gint:
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
        if exact:
            # strong Markov property at the stop: from x the future infimum
            # is x - E with E ~ Exp(2 mu / sigma^2); the path returns to 0
            # iff x - E <= 0, after an inverse Gaussian hitting time, and
            # the last zero of a fresh path from 0 is Gamma(1/2, 2 sigma^2 / mu^2)
            t_stop = s.clock * dt
            for j, gen in enumerate(gens[:ng]):
                sl = slice(j * GROUP, (j + 1) * GROUP)
                xs = s.x[sl]
                e = gen.standard_exponential(GROUP) * (0.5 * sig * sig / mu_rate)
                s.inf[sl] = np.minimum(s.inf[sl], xs - e)
                ret = np.flatnonzero(e >= xs)
                if ret.size:
                    xr = np.abs(xs[ret])
                    shape = (xr / sig) ** 2
                    hit = np.zeros(ret.size)
                    pos = shape > 0.0  # from x = 0 the return is immediate
                    hit[pos] = gen.wald(xr[pos] / mu_rate, shape[pos])
                    last = gen.gamma(0.5, 2.0 * (sig / mu_rate) ** 2, ret.size)
                    s.g[sl][ret] = t_stop[sl][ret] + hit + last
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
    batch_filter=None,
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
    out, todo = _batches(cfg, start, a_arr.size, batch_filter)
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
) -> dict:
    """Run all paths; returns arrays g, tau, inf_depth, gint (see engines).

    The diffusion route always detects zero dips and passages from the
    bridge law, so ``exact_crossings`` changes nothing there; the jump
    route has no bridge law and refuses it.  ``infimum_mode`` selects the
    shorter block of the coarse-step infimum sampler.  ``start`` and the
    levels must be finite.
    """
    ev = ScaleEvaluator(model)
    b = resolve_barrier(ev, cfg.tail_eps)
    a_arr = np.asarray(tuple(a_levels), float)
    if not (math.isfinite(start) and np.isfinite(a_arr).all()):
        raise ValueError("start and thresholds must be finite")
    if start >= b:
        raise ValueError(f"start {start:g} must lie below the barrier {b:g}")
    if a_arr.size and np.max(a_arr) >= b:
        raise ValueError(
            f"thresholds must lie below the barrier {b:g}; lower tail_eps"
        )
    if isinstance(model, CramerLundberg):
        # the event engine is exact already
        return _run_cl(model, ev.law, cfg, start, b, a_arr, want_gint, batch_filter)
    equiv = model.brownian_equivalent()
    if equiv is not None:
        mu, sig, jumper = equiv.mu, equiv.sigma, None
    else:  # BetaFamily(beta < 2)
        _, _, var_small, mu_eff = beta_jump_params(model.beta)
        mu, sig = mu_eff, math.sqrt(var_small)
        jumper = _beta_jumper(model.beta, cfg.dt)
    if exact_crossings and jumper is not None:
        raise ValueError("exact_crossings requires a jump-free diffusion route")
    block = INFIMUM_BLOCK if infimum_mode else BLOCK
    return _run_grid(
        cfg, start, b, a_arr, mu, sig, ev.gain, jumper, want_gint, batch_filter, block
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
    if not (math.isfinite(q) and q >= 0):
        raise ValueError(f"q must be finite and >= 0, got {q!r}")
    res = simulate_paths(model, cfg, exact_crossings=exact_crossings)
    return _mean_report("laplace_g", np.exp(-q * res["g"]), cfg, q=float(q))


def sample_infimum(model: LevyModel, cfg: McConfig, step: float | None = None) -> np.ndarray:
    """Sampled depths of the all-time infimum, one per path.

    For the Brownian route the per-step minimum uses the exact bridge law
    and the infimum after the barrier passage is drawn exactly, so the
    default coarse step costs nothing in accuracy.  CramerLundberg infima
    are exact up to the barrier passage, which bounds their cutoff bias
    by tail_eps.
    """
    if model.brownian_equivalent() is not None:
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
