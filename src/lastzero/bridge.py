"""The Brownian route of the Monte Carlo engine: a skeleton of Gaussian steps
whose passages, last zero and infimum are drawn at their exact times from
the Brownian-bridge laws of ``pieces`` (the scheme is set out in ``mc``).
"""

from __future__ import annotations

import math

import numpy as np

from . import pieces
from .batch import (BATCH, BLOCK, GROUP, _Batch, _block_cap, _last_true, _levels, _outputs,
                    _Streams)

BLOCK_MIN = 4  # the bridge route's fewest steps per block
BLOCK_SPAN = 4.0  # mean path lengths a bridge-route block spans
BLOCK_GROW = 8  # bridge-route blocks per doubling of the block length (up to 8 times)
SPLIT_DEPTH = 30  # most halvings of a bridge step (a piece of h / 2^30 may hold both)
RESERVE = 256  # uniforms each RNG group of the bridge route holds ready at a batch start


def _block_steps(steps: float) -> int:
    """Steps per block of the bridge route: BLOCK_SPAN mean path lengths,
    rounded up to a power of two, within [BLOCK_MIN, BLOCK]."""
    span = max(BLOCK_SPAN * steps, 1.0)
    return int(min(BLOCK, max(BLOCK_MIN, 2 ** math.ceil(math.log2(span)))))


def _group_runs(keys: np.ndarray):
    """The distinct values of an ascending array, the index of each one's
    first occurrence, and its count."""
    new = np.empty(keys.size, bool)
    new[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=new[1:])
    first = np.flatnonzero(new)
    return keys[first], first, np.diff(first, append=keys.size)


class _Pool:
    """Uniforms held in reserve per RNG group and handed out in request
    order: a request for batch rows ``rows`` (ascending) gives each group's
    rows the next values of that group's reserve.  The first reserve is
    row g of ``first``; when a request needs more, the group keeps what is
    left and draws twice the request from its own stream.  So what a path
    receives depends only on its group's requests, and a group draws a few
    times per batch instead of once per request."""

    def __init__(self, gens, first: np.ndarray):
        self.gens = gens
        self.buf = list(first)
        self.cur = [0] * len(self.buf)

    def take(self, rows: np.ndarray, k: int = 0):
        """One uniform per row, or with k > 0 an array of k per row (k by
        len(rows))."""
        if k:
            return self.take(np.repeat(rows, k)).reshape(-1, k).T
        bounds = np.searchsorted(rows, GROUP * np.arange(len(self.buf) + 1)).tolist()
        parts = [np.empty(0)]
        for g, (a, b) in enumerate(zip(bounds[:-1], bounds[1:])):
            if b > a:
                buf, c = self.buf[g], self.cur[g]
                if buf.size - c < b - a:
                    buf = self.buf[g] = np.concatenate(
                        (buf[c:], self.gens[g].random(max(2 * (b - a), RESERVE) - buf.size + c)))
                    c = 0
                self.cur[g] = c + b - a
                parts.append(buf[c : self.cur[g]])
        return np.concatenate(parts)


def _split(unif, grow, lrow, tneg, tstart, tend, P, X, ref, plo, pending, sig2):
    """Levy construction: split each piece, from P at time tstart to X at
    tend, at its bridge midpoint, N((P + X)/2, sig2 (tend - tstart)/4), and
    the halves again, while a piece may hold both the last zero and a
    passage: while 0 and the lowest pending level (``plo``; ``pending``
    holds the levels, ascending, and inf) are both within reach of it
    (``pieces.within_reach``) and it ends after the latest known point at or below 0
    of its row (``tneg``, by local row ``lrow``; midpoints update it), for
    at most SPLIT_DEPTH halvings.  The decisions read only points already
    drawn, so each midpoint keeps its bridge law.

    Returns (parent, start, end, P, X, near low, near high) of the final
    pieces near a level, in (parent, time) order; a piece left at the
    depth cap is near both."""
    F = np.stack([tstart, tend, P, X, ref, plo])
    I = np.stack([np.arange(P.size), grow, lrow])
    outs = []
    for depth in range(SPLIT_DEPTH + 1):
        tstart, tend, P, X, ref, plo = F
        t = tend - tstart
        near0 = pieces.within_reach(P, X, 0.0, sig2, t)
        near_lo = near0 | pieces.within_reach(P, X, ref, sig2, t)
        near_hi = (np.maximum(P, X) > plo) | pieces.within_reach(P, X, plo, sig2, t)
        both = near0 & near_hi
        both &= tend > tneg[I[2]]
        if depth == SPLIT_DEPTH:
            both[:] = False
        fin = np.flatnonzero(~both & (near_lo | near_hi))
        outs.append((I[0, fin], F[:4, fin], near_lo[fin], near_hi[fin]))
        if not both.any():
            break
        F, I = F[:, both], I[:, both]
        tmid = 0.5 * (F[0] + F[1])
        mid = pieces.midpoint(F[2], F[3], sig2, F[1] - F[0], unif.take(I[1]))
        neg = mid <= 0.0
        np.maximum.at(tneg, I[2, neg], tmid[neg])
        F, I = np.repeat(F, 2, axis=1), np.repeat(I, 2, axis=1)
        F[1, 0::2] = F[0, 1::2] = tmid
        F[3, 0::2] = F[2, 1::2] = mid
        # levels below a midpoint are passed before the half after it
        F[5, 1::2] = np.maximum(F[5, 1::2], pending[np.searchsorted(pending, mid)])
    parent = np.concatenate([o[0] for o in outs])
    F = np.concatenate([o[1] for o in outs], axis=1)
    order = np.lexsort((F[0], parent))
    return (parent[order], *F[:, order], np.concatenate([o[2] for o in outs])[order],
            np.concatenate([o[3] for o in outs])[order])


def run_bridge(
    cfg,
    start: float,
    b: float,
    a_arr: np.ndarray,
    mu_rate: float,
    sig: float,
    step: float,
    todo,
):
    """The Brownian route: a skeleton of Gaussian steps of length ``step``,
    with passages, the last zero and the infimum drawn from the bridge laws
    of its pieces (see the module docstring)."""
    h = step
    sig2 = sig * sig
    reach = pieces.reach(sig2, h)
    with_levels = a_arr.size > 0
    # without thresholds the top level is b
    levels, rank = _levels(a_arr, b, not with_levels)
    nl = levels.size
    pending = np.append(levels, np.inf)  # lowest pending level by done count
    steps = (levels[-1] - min(start, 0.0)) / max(mu_rate, 1e-12) / h
    base = _block_steps(steps)
    cap = _block_cap(steps, "steps", base)
    out = _outputs(cfg, start, a_arr.size)
    streams = _Streams(cfg)
    for lo, m in todo:
        ng = -(-m // GROUP)
        rows = ng * GROUP  # the last group's padding rows run too
        streams.seat(lo, ng)
        # the groups' first reserves: rows of one draw from the batch's own
        # stream, far from every group stream (one draw, where one per group
        # costs a third of a pair median's time)
        g0 = lo % BATCH // GROUP
        first = np.random.Generator(np.random.Philox(
            key=cfg.base_seed, counter=[0, 0, lo // BATCH, 1])).random((BATCH // GROUP, RESERVE))
        unif = _Pool(streams.gens, first[g0 : g0 + ng])
        s = _Batch(rows, rows, start, levels, cap, np.int64, closed=True)
        while (idx := s.running()).size:
            R = idx.size
            # the few paths still running after BLOCK_GROW blocks take ever
            # longer blocks: the length depends on the block's index only
            block = base << min((s.blocks - 1) // BLOCK_GROW, 3)
            tgrid = np.arange(block + 1) * h  # grid point times within the block
            inc, _ = streams.normals(idx, block)
            inc *= sig * math.sqrt(h)
            inc += mu_rate * h
            X = np.cumsum(inc, axis=1, out=inc)
            X += s.x[idx, None]
            P = np.empty_like(X)
            P[:, 0] = s.x[idx]
            P[:, 1:] = X[:, :-1]
            t0 = s.clock[idx] * h
            # the last grid point at or below 0, kz of rows rz, at time tneg
            # (-1 if none): no step before it holds the last zero
            kz = np.where(P[:, 0] <= 0.0, 0, -1)
            rz, k = _last_true(X <= 0.0)
            kz[rz] = k + 1
            rz = np.flatnonzero(kz >= 0)
            kz = kz[rz]
            tneg = np.full(R, -1.0)
            tneg[rz] = tgrid[kz]
            s.g[idx[rz]] = t0[rz] + tneg[rz]
            # a step reaches a level with probability above 2^-53 only when
            # its end points lie within reach of it, or across it: 0 after the
            # last grid point at or below it, the lowest grid point (the
            # infimum is no lower than that), and the lowest pending level
            ref = np.minimum(s.inf[idx], X.min(axis=1))
            low = np.minimum(P, X)
            near_lo = (low < ref[:, None] + reach) | ((low > 0.0) & (low < reach))
            del low
            # the step from the last grid point at or below 0
            after = np.flatnonzero(kz < block)
            near_lo[rz[after], kz[after]] = True
            if with_levels:
                done0 = s.done[idx].sum(axis=1)
                # the lowest pending level at each step of the rows rh near
                # one (all rows, as a slice that indexes without a copy, when
                # most are): levels below a grid point so far are passed for sure
                near = np.maximum(P[:, 0], X.max(axis=1)) > pending[done0] - reach
                rh = slice(None) if 2 * near.sum() > R else np.flatnonzero(near)
                top = np.maximum.accumulate(P[rh], axis=1)
                below = top > levels[0] if nl == 1 else np.searchsorted(levels, top)
                plo = pending[np.maximum(done0[rh, None], below)]
                near_hi = np.maximum(P[rh], X[rh]) > plo - reach  # rows rh
            # pieces (row, start, end, P, X): near a pending level in (row,
            # time) order, and near 0 or the lowest point
            low_parts = []
            if with_levels:
                hq, hk = np.nonzero(near_hi)
                hr = np.arange(R)[rh][hq]
                hs, he, hP, hX, hplo = tgrid[hk], tgrid[hk + 1], P[hr, hk], X[hr, hk], plo[hq, hk]
                # a step that may hold both the last zero and a passage is
                # split until no piece does
                shared = np.flatnonzero(near_lo[hr, hk] & pieces.within_reach(hP, hX, 0.0, sig2, h)
                                        & (he > tneg[hr]))
                if shared.size:
                    near_lo[hr[shared], hk[shared]] = False
                    par, ps_, pe_, pP_, pX_, plow_, phigh_ = _split(
                        unif, idx[hr[shared]], hr[shared], tneg, hs[shared], he[shared],
                        hP[shared], hX[shared], ref[hr[shared]], hplo[shared], pending, sig2)
                    par = shared[par]
                    low_parts.append([a[plow_] for a in (hr[par], ps_, pe_, pP_, pX_)])
                    # each shared step gives way to its parts near a level, in place
                    par, ps_, pe_, pP_, pX_ = (a[phigh_] for a in (par, ps_, pe_, pP_, pX_))
                    was = np.zeros(hr.size, bool)
                    was[shared] = True
                    count = np.bincount(par, minlength=hr.size) + ~was
                    slots = np.repeat(was, count)
                    hr, hplo = (np.repeat(a, count) for a in (hr, hplo))
                    hs, he, hP, hX = (np.repeat(a, count) for a in (hs, he, hP, hX))
                    for col, new in zip((hs, he, hP, hX), (ps_, pe_, pP_, pX_)):
                        col[slots] = new
                hlen = he - hs
                # each piece's maximum screens the lowest level pending at it;
                # a piece whose maximum stays below that level passes none
                hM = pieces.piece_max(hP, hX, sig2, hlen, unif.take(idx[hr]))
                keep = np.flatnonzero(hM > hplo)
                hr, hs, hlen, hP, hX, hM = (a[keep] for a in (hr, hs, hlen, hP, hX, hM))
                urows, _, ucnt = _group_runs(hr)
                slot = np.repeat(np.arange(urows.size), ucnt)
                cur = np.full(urows.size, -1)
                curT = np.zeros(urows.size)
                # round i takes each row's i-th level pending at the block start
                j = done0[urows]
                active = j < nl
                H = np.arange(hr.size)
                while active.any():
                    lj = pending[j]
                    passed = np.zeros(urows.size, bool)
                    # hit times: from distance p to end distance x over rem
                    p, x, rem = np.zeros((3, urows.size))
                    # the previous level was passed here: the rest of its
                    # piece is a bridge from that level to the piece's end
                    sq = np.flatnonzero(active & (cur >= 0))
                    if sq.size:
                        c = cur[sq]
                        rem[sq] = hlen[c] - curT[sq]
                        p[sq] = lj[sq] - levels[j[sq] - 1]
                        x[sq] = hX[c] - lj[sq]
                        hit = x[sq] > 0.0
                        un = sq[~hit]
                        hit[~hit] = pieces.hits(p[un], -x[un], sig2, rem[un],
                                                unif.take(idx[urows[un]]))
                        passed[sq[hit]] = True
                    # otherwise the first later piece whose maximum passes it
                    cand = np.flatnonzero(
                        (hM > lj[slot]) & (active & ~passed)[slot] & (H > cur[slot]))
                    if cand.size:
                        cs, f, _ = _group_runs(slot[cand])
                        cand = cand[f]
                        cur[cs] = cand
                        curT[cs] = 0.0
                        rem[cs], p[cs], x[cs] = hlen[cand], lj[cs] - hP[cand], hX[cand] - lj[cs]
                        passed[cs] = True
                    ps = np.flatnonzero(passed)
                    rws = idx[urows[ps]]
                    curT[ps] += rem[ps] * pieces.first_hit(p[ps], x[ps], sig2, rem[ps],
                                                           unif.take(rws, 2))
                    gi, jp = cur[ps], j[ps]
                    s.tau[rws, jp] = t0[urows[ps]] + hs[gi] + curT[ps]
                    s.done[rws, jp] = True
                    j[ps] += 1
                    active &= passed & (j < nl)
            # zeros and the infimum, over each list of low pieces in its
            # (row, time) order: each row's last touch of 0 in the block after
            # its last grid point at or below 0 ends at ``last``
            f = np.flatnonzero(near_lo)
            lr, lk = np.divmod(f, block)
            low_parts.insert(0, [lr, tgrid[lk], tgrid[lk + 1], P.ravel()[f], X.ravel()[f]])
            last = np.full(R, -np.inf)
            for part in low_parts:
                lr, ls_, le, lP, lX = part
                lm = pieces.piece_min(lP, lX, sig2, le - ls_, unif.take(idx[lr]))
                touch = (lm <= 0.0) & (le > tneg[lr])
                np.maximum.at(last, lr[touch], le[touch])
                part += [lm, touch]
            for lr, ls_, le, lP, lX, lm, touch in low_parts:
                # each row's last touch in the block ends above 0 (a point at
                # or below 0 moves tneg): its last zero L, and its minimum from
                # the bridge from P to 0 over [0, L]; a later touch replaces g
                e = np.flatnonzero(touch & (le == last[lr]))
                er, tlen = lr[e], le[e] - ls_[e]
                u = unif.take(idx[er], 3)
                L = tlen * pieces.last_visit(lP[e], lX[e], sig2, tlen, u[:2])
                s.g[idx[er]] = t0[er] + ls_[e] + L
                lm[e] = pieces.piece_min(lP[e], 0.0, sig2, L, u[2])
                np.minimum.at(s.inf, idx[lr], lm)
            s.x[idx] = X[:, -1]
            s.clock[idx] += block
            # a row stops at the end of the block in which it passes its top
            # level (without thresholds, in which a grid point passes b): a
            # fixed time, decided by the path up to it
            s.alive[idx[s.done[idx, -1] | (X.max(axis=1) > levels[-1])]] = False
        # the future after the stop, from x at time clock h (strong Markov property)
        low = pieces.future_infimum(s.x, mu_rate, sig2, unif.take(np.arange(rows)))
        s.inf = np.minimum(s.inf, low)
        ret = np.flatnonzero(low <= 0.0)
        u = unif.take(ret, 3)
        s.g[ret] = (s.clock[ret] * h + pieces.return_time(s.x[ret], mu_rate, sig, u[:2])
                    + pieces.fresh_last_zero(mu_rate, sig2, u[2]))
        s.store(out, lo, m, rank)
    return out
