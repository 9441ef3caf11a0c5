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
