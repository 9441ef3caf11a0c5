"""The bridge laws of ``lastzero.pieces``, each against a reference that
shares no code with it: closed-form CDFs, and hitting densities of the
Brownian bridge integrated with ``quad``."""

import math

import numpy as np
import pytest
from scipy import integrate, special

from lastzero import pieces
from lastzero.mc import ks_critical, ks_statistic

N = 20_000
SIG2, T = 1.7, 0.8


def _uniforms(seed, rows=None):
    return np.random.default_rng(seed).random(N if rows is None else (rows, N))


def _gauss_cdf(z):
    return 0.5 * special.erfc(-z / math.sqrt(2.0))


def _ks_ok(samples, cdf):
    return ks_statistic(samples, cdf) < ks_critical(samples.size)


def _density_cdf(dens):
    """The CDF on [0, 1] of a density on (0, 1) known up to a factor, by
    quad over a fine grid, denser at the ends, and linear interpolation."""
    grid = 0.5 - 0.5 * np.cos(np.linspace(0.0, math.pi, 801))
    mass = np.cumsum([0.0] + [integrate.quad(dens, a, b)[0] for a, b in zip(grid[:-1], grid[1:])])
    return lambda a: np.interp(a, grid, mass / mass[-1])


def test_extremes_match_their_cdfs():
    P, X, var = 0.3, -0.2, SIG2 * T
    low = pieces.piece_min(np.full(N, P), np.full(N, X), SIG2, T, _uniforms(1))
    assert _ks_ok(low, lambda m: np.where(
        m < min(P, X), np.exp(-2.0 * (P - m) * (X - m) / var), 1.0))
    high = pieces.piece_max(np.full(N, P), np.full(N, X), SIG2, T, _uniforms(2))
    assert _ks_ok(high, lambda m: np.where(
        m > max(P, X), -np.expm1(-2.0 * (m - P) * (m - X) / var), 0.0))


def test_midpoint_is_gaussian():
    P, X = 0.3, 1.1
    mid = pieces.midpoint(np.full(N, P), np.full(N, X), SIG2, T, _uniforms(3))
    sd = math.sqrt(SIG2 * T / 4.0)
    assert _ks_ok(mid, lambda m: _gauss_cdf((m - 0.5 * (P + X)) / sd))


def test_hit_frequency_matches_its_probability():
    p, x = 0.4, 0.3
    prob = math.exp(-2.0 * p * x / (SIG2 * T))
    freq = pieces.hits(np.full(N, p), np.full(N, x), SIG2, T, _uniforms(4)).mean()
    assert abs(freq - prob) < 4.0 * math.sqrt(prob * (1.0 - prob) / N)
    # beyond reach of a level, a piece hits it with probability below 2^-53
    r = pieces.reach(SIG2, T)
    assert not pieces.within_reach(1.001 * r, r, 0.0, SIG2, T)
    assert pieces.within_reach(0.999 * r, r, 0.0, SIG2, T)
    assert math.exp(-2.0 * pieces.BRIDGE_REACH) < 2.0**-53


def _first_passage(d, s):
    """Density that a Brownian motion with variance SIG2 per unit time
    first passes a level at distance d at time s."""
    return d / math.sqrt(2.0 * math.pi * SIG2 * s**3) * math.exp(-d * d / (2.0 * SIG2 * s))


def _transition(d, s):
    return math.exp(-d * d / (2.0 * SIG2 * s)) / math.sqrt(2.0 * math.pi * SIG2 * s)


@pytest.mark.parametrize("p, x", [(0.5, 0.4), (0.2, -0.6)])
def test_first_hit_matches_bridge_density(p, x):
    # first passage at s, then a free move from the level to the end
    cdf = _density_cdf(lambda a: _first_passage(p, a * T) * _transition(x, T - a * T))
    frac = pieces.first_hit(np.full(N, p), np.full(N, x), SIG2, T, _uniforms(5, 2))
    assert _ks_ok(frac, cdf)


@pytest.mark.parametrize("p, x", [(-0.3, 0.5), (0.4, 0.1)])
def test_last_visit_matches_bridge_density(p, x):
    # at the level at s, then a first passage read backwards from the end
    cdf = _density_cdf(lambda a: _transition(p, a * T) * _first_passage(x, T - a * T))
    frac = pieces.last_visit(np.full(N, p), np.full(N, x), SIG2, T, _uniforms(6, 2))
    assert _ks_ok(frac, cdf)


def test_future_after_a_stop_matches_exp_inverse_gaussian_and_gamma():
    mu, sig = 1.3, 0.7
    sig2 = sig * sig
    x = 0.4
    depth = x - pieces.future_infimum(np.full(N, x), mu, sig2, _uniforms(7))
    assert _ks_ok(depth, lambda e: -np.expm1(-2.0 * mu * e / sig2))
    for x in (-0.6, 0.25):
        m, lam = abs(x) / mu, x * x / sig2
        back = pieces.return_time(np.full(N, x), mu, sig, _uniforms(8, 2))
        assert _ks_ok(back, lambda s: _gauss_cdf(np.sqrt(lam / s) * (s / m - 1.0))
                      + math.exp(2.0 * lam / m) * _gauss_cdf(-np.sqrt(lam / s) * (s / m + 1.0)))
    last = pieces.fresh_last_zero(mu, sig2, _uniforms(9))
    assert _ks_ok(last, lambda s: special.gammainc(0.5, s / (2.0 * sig2 / mu**2)))
