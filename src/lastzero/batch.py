"""Per-batch state and bookkeeping shared by the Monte Carlo engines.

``mc`` describes the engines and their reproducibility contract: paths
run in batches of ``BATCH``, and the grid engines give each group of
``GROUP`` paths its own Philox stream.
"""

from __future__ import annotations

import numpy as np

BATCH = 1024  # paths per batch: the unit of batch_filter and of the CL streams
GROUP = 16  # paths per RNG stream of the grid engines
BLOCK = 256  # steps drawn per block: the jump route's, and the bridge route's most
# a run is refused when its paths would take more steps or claims than this
# on average (BM(1,1) to a* at THRESHOLD_STEP: about 7 steps; CL(1.3,1,1) to b:
# about 100 claims)
MAX_STEPS_PER_PATH = 1e7
# a run is refused when its result arrays (g, inf_depth, and tau and gint per
# threshold) would take more bytes than this: 2^30 holds 2^26 paths without
# thresholds, or about 2.4e6 with 21
MAX_RESULT_BYTES = 2**30


def _batch_gen(base_seed: int, index: int) -> np.random.Generator:
    """Stream ``index`` of ``base_seed``: Philox(key=base_seed).jumped(index),
    set up through the counter, which is three times cheaper."""
    return np.random.Generator(np.random.Philox(key=base_seed, counter=[0, 0, index, 0]))


def _levels(a_arr: np.ndarray, b: float, with_b: bool):
    """The thresholds in ascending (stable) order, with b appended when
    paths run to it, and the rank that maps them back to the input order."""
    order = np.argsort(a_arr, kind="stable")
    rank = np.empty_like(order)
    rank[order] = np.arange(a_arr.size)
    levels = a_arr[order]
    return (np.append(levels, b) if with_b else levels), rank


def _outputs(cfg, start: float, na: int) -> dict:
    """The result arrays; paths not run keep g = tau = gint = 0 and
    inf_depth = -start."""
    n = cfg.n_paths
    return {"g": np.zeros(n), "tau": np.zeros((n, na)),
            "inf_depth": np.full(n, -float(start)), "gint": np.zeros((n, na))}


class _Streams:
    """The group streams of the grid engines: after ``seat(lo, ng)``,
    generator j of ``gens`` draws the stream of group lo // GROUP + j."""

    def __init__(self, cfg):
        # one generator per group slot of a batch, moved to each batch's group
        # streams by setting its state, which is five times cheaper than a new one
        self.gens = [_batch_gen(cfg.base_seed, 0) for _ in range(-(-min(cfg.n_paths, BATCH) // GROUP))]
        self._fresh = self.gens[0].bit_generator.state

    def seat(self, lo: int, ng: int) -> None:
        for j in range(ng):
            self._fresh["state"]["counter"] = np.array([0, 0, lo // GROUP + j, 0], np.uint64)
            self.gens[j].bit_generator.state = self._fresh

    def normals(self, idx: np.ndarray, block: int):
        """Standard normals, a row of ``block`` per row of the ascending
        batch rows idx, each group's rows (contiguous in idx) from its own
        stream; and the (generator, slice of idx) of each group drawn."""
        live, start = np.unique(idx // GROUP, return_index=True)
        bound = np.append(start, idx.size).tolist()
        groups = [(self.gens[g], slice(a, b)) for g, a, b in zip(live, bound[:-1], bound[1:])]
        inc = np.empty((idx.size, block))
        for gen, rows in groups:
            gen.standard_normal(out=inc[rows])
        return inc, groups


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
    ``done``; ``gint_cum`` is the gain integral so far.  With ``closed``
    a level at the start counts as passed at t = 0, as it is by a path of
    infinite variation."""

    def __init__(self, rows, live, start, levels, cap, clock=float, closed=False):
        hit0 = start >= levels if closed else start > levels  # passed at t = 0
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
