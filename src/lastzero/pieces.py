"""The Brownian-bridge laws of the Brownian route, as pure functions on
arrays of pieces (Borodin & Salminen 2002; Beskos & Roberts 2005).

A piece is a Brownian bridge from P to X over a length t, with variance
sig2 per unit time; p and x are the distances of its ends from a level.
Each function takes end points or distances, sig2, lengths and the
uniforms on [0, 1) it needs (several as rows of ``u``), and draws nothing.
The laws, for a piece over t:

* it reaches a level on one side of both ends with probability
  exp(-2 p x / (sig2 t)), and surely one across; with p x > BRIDGE_REACH
  sig2 t that is below exp(-2 BRIDGE_REACH) < 2^-53, so only pieces within
  reach of a level draw;
* its minimum is 1/2 (P + X - sqrt((X - P)^2 - 2 sig2 t log U)), and its
  maximum the same with +sqrt;
* given that it hits a level, it first does at t s/(1 + s) with s ~
  Wald(p/x, p^2/(sig2 t)); read backwards, its last visit is at t/(1 + s)
  with p and x swapped;
* its value at t/2 is N((P + X)/2, sig2 t/4) (the Levy construction);
* after a point x, BM(mu, sig) has the infimum x - E, E ~ Exp(2 mu / sig2)
  (strong Markov property); it returns to 0 iff E >= x, after an inverse
  Gaussian time with mean |x|/mu and shape x^2/sig2, and the last zero of
  a fresh path from 0 is Gamma(1/2, scale 2 sig2/mu^2), that is
  sig2/mu^2 Z^2.

Products keep the order the route's outputs were first computed in: sig2
and a length enter as (2 sig2) t, (sig2/4) t and (BRIDGE_REACH sig2) t.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import special

BRIDGE_REACH = 19.0  # p x / (sig2 t) beyond which a piece reaches a level with probability < 2^-53


def _normal(u):
    """Standard normals from uniforms on [0, 1), by inversion."""
    return special.ndtri(np.maximum(u, 1e-300))


def reach(sig2: float, t: float) -> float:
    """The distance sqrt(BRIDGE_REACH sig2 t) from a level beyond which a
    piece with both ends on one side does not reach it."""
    return math.sqrt(BRIDGE_REACH * sig2 * t)


def within_reach(P, X, level, sig2, t):
    """Whether a piece may reach ``level``: (P - level)(X - level) < BRIDGE_REACH sig2 t."""
    return (P - level) * (X - level) < BRIDGE_REACH * sig2 * t


def _spread(P, X, sig2, t, u):
    return np.sqrt((X - P) ** 2 - 2.0 * sig2 * t * np.log1p(-u))


def piece_min(P, X, sig2, t, u):
    """The minimum of a piece, from one uniform."""
    return 0.5 * (P + X - _spread(P, X, sig2, t, u))


def piece_max(P, X, sig2, t, u):
    """The maximum of a piece, from one uniform."""
    return 0.5 * (P + X + _spread(P, X, sig2, t, u))


def hits(p, x, sig2, t, u):
    """Whether a piece with both ends on one side of a level hits it."""
    return u <= np.exp(-2.0 * p * x / (sig2 * t))


def _wald_split(p, x, var, z, u):
    """(s / (1 + s), 1 / (1 + s)) for s ~ Wald(p / x, p^2 / var), from one
    normal z and one uniform u (Michael, Schucany & Haas), in a form that
    stays finite as x -> 0, where s tends to the Levy law (p^2 / var) / z^2."""
    y = 4.0 * (p * p / var) / (np.abs(z) + np.sqrt(z * z + 4.0 * p * x / var)) ** 2
    acc = u * y * x <= p * (1.0 - u)
    d = p * p + x * x * y
    d = np.where(d > 0.0, d, 1.0)  # p = 0: the level at the start, s = 0
    return np.where(acc, y / (1.0 + y), p * p / d), np.where(acc, 1.0 / (1.0 + y), x * x * y / d)


def first_hit(p, x, sig2, t, u):
    """The share of t at which a piece hits a level first, given that it
    does, with x of either sign, from two uniforms."""
    return _wald_split(p, np.abs(x), sig2 * t, _normal(u[0]), u[1])[0]


def last_visit(p, x, sig2, t, u):
    """The share of t at which a piece visits a level last, given that it
    does, with p and x of either sign, from two uniforms."""
    return _wald_split(np.abs(x), np.abs(p), sig2 * t, _normal(u[0]), u[1])[1]


def midpoint(P, X, sig2, t, u):
    """The value of a piece at t / 2, from one uniform."""
    return 0.5 * (P + X) + np.sqrt(0.25 * sig2 * t) * _normal(u)


def future_infimum(x, mu, sig2, u):
    """The infimum of BM(mu, sqrt sig2) after a point x, from one uniform."""
    return x + np.log1p(-u) * (0.5 * sig2 / mu)


def return_time(x, mu, sig, u):
    """The time BM(mu, sig) takes from x to 0, given that it gets there,
    from two uniforms."""
    a, c = _wald_split(np.abs(x) / sig, mu / sig, 1.0, _normal(u[0]), u[1])
    return a / c


def fresh_last_zero(mu, sig2, u):
    """The last zero of BM(mu, sqrt sig2) from 0, from one uniform."""
    return sig2 / mu**2 * _normal(u) ** 2
