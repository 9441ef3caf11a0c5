"""The three workloads: seeded inputs, the operations run on them, and the
oracle checks applied to each operation's output.

``make_inputs(workload, seed)`` returns plain data (dicts, lists, floats)
and is the only place the seed is used, so the same seed gives the same
inputs and only generated inputs reach the package.  ``build_ops`` turns
the inputs into two lists of ``Op``: the timed ops, which ``run.py``
issues once per round, round after round, and the ops issued once after
the timed phase, whose outputs are checked but whose latencies are not
gated.

Draws are stratified (one draw per equal-width cell, cells shuffled), so
another seed moves every parameter but keeps each workload's family mix,
sizes, and spread of scales, and with them its cost.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
import os
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

import oracles

WORKLOADS = ("analytic-sweep", "mc-grid", "claims-cli")
# each timed op's latency is its best of this many samples, one per round
SAMPLES = {"analytic-sweep": 80, "mc-grid": 4, "claims-cli": 60}

# analytic-sweep: family mix and the spread of each family's parameters.
# The 200 checked requests run once; a smaller draw of the same mix is timed,
# so that each timed op gets many samples in a run.
N_BM, N_CL_SMOOTH, N_CL_CONT = 100, 60, 40
TIMED_MIX = (12, 8, 4)
LOG10_A_STAR = (-8.0, 3.0)  # a* spans these decades (BM and smooth-fit CL)
LOG10_Q = (-6.0, 6.0)  # phi(q) arguments
BETA_CELLS = ((1.01, 1.05), (1.38, 1.42))
# each Beta model also gets this many H(x) + phi(q) queries, x stratified
# over BETA_X; one query is one quadrature, the unit of the Beta solve's cost
BETA_QUERIES = 4
BETA_X = (0.0, 4.0)
CURVE_POINTS = 401
CURVE_SAMPLE = 40  # every 40th curve point is checked against the oracle

# mc-grid: Brownian motion BM(1, 1) plus two Beta cases.  The grid engines
# draw paths in RNG batches of 1024, and a batch runs until its slowest path
# ends, so one batch's cost swings by up to 1.7x with the seed.  A timed call
# is one batch on a new seed each round, and its latency is the median.
MC_BM = {"kind": "bm", "mu": 1.0, "sigma": 1.0}
MC_PATHS = 1024
MC_INF_PATHS = 12288  # the pair medians are sized to cost about one grid batch
MC_BETA2_INF_PATHS = 6144
MC_JUMP_PATHS = 2048
MC_KINDS = ("mae", "mae_grid", "expected_g_exact", "value", "pair_median",
            "expected_g_jump", "pair_median_beta2")

# claims-cli: Cramer-Lundberg sets at fixed loads, two per regime.  One set
# per regime is timed as small calls (one RNG batch of paths, a coarse
# curve), which give each op many samples in a run; every set's calls run
# once at full size.
# Sizes: (curve step, mae paths, infimum paths, value paths, verify paths).
CLI_LOADS = (0.2, 0.2, 0.5, 0.5)  # lam/(mu rho); 0.2 is continuous-fit only
CLI_TIMED_SETS = (0, 2)  # one set per regime; fewer timed calls, more samples each
CLI_VERIFY_DEFAULT = 20_000  # verify also samples as many infima
CLI_SMALL = (0.01, 1024, 1024, 1024, 1024)
CLI_FULL = (0.001, 200_000, 100_000, 20_000, CLI_VERIFY_DEFAULT)

SE_TARGET = 0.01  # target standard error, as a share of the estimate's scale
MC_SIGMAS, MC_GROSS_SIGMAS = 5.0, 8.0
KS_ALPHA, KS_GROSS_ALPHA = 1e-6, 1e-15


@dataclass
class Check:
    """One oracle comparison.  ``ok`` is the benchmark's standard (a miss
    counts the op as failed); ``sane`` is false only for an answer wrong
    beyond the package's own stated tolerance, which makes a run incorrect."""

    name: str
    ok: bool
    sane: bool = True
    rel_err: float | None = None


@dataclass
class Op:
    kind: str
    call: Callable[[], Any]
    check: Callable[[Any], list[Check]]
    paths: int = 0
    se_factor: Callable[[Any], float] = lambda out: 1.0
    out_file: str | None = None  # where a CLI op writes its output
    # a larger run of the same estimator, issued once: the op's time-to-SE
    # factor is scaled from the twin's, whose variance estimate is steadier
    full: Op | None = None
    # each call simulates fresh paths (the RNG seed advances per call), so
    # the op's latency and SE factor are medians over calls, not the best
    fresh: bool = False


def _close(name, got, want, tol, gross_tol, rel_base=None) -> Check:
    err = abs(got - want)
    if not math.isfinite(err):
        return Check(name, False, False)
    rel = err / rel_base if rel_base else None
    return Check(name, err <= tol, err <= gross_tol, rel)


def _mc_close(name, est, se, want) -> Check:
    if not (math.isfinite(est) and math.isfinite(se) and se > 0):
        return Check(name, False, False)
    err = abs(est - want)
    return Check(name, err <= MC_SIGMAS * se, err <= MC_GROSS_SIGMAS * se)


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------


def _rng(workload: str, seed: int) -> np.random.Generator:
    return np.random.default_rng([seed, WORKLOADS.index(workload)])


def _cells(rng, n, lo, hi):
    """n draws, one uniform in each of n equal cells of [lo, hi], shuffled."""
    u = (np.arange(n) + rng.random(n)) / n
    rng.shuffle(u)
    return lo + (hi - lo) * u


def _log_uniform(rng, n, lo, hi):
    return 10.0 ** rng.uniform(math.log10(lo), math.log10(hi), n)


def make_inputs(workload: str, seed: int) -> dict:
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    if seed < 0:
        raise ValueError("seed must be >= 0")
    rng = _rng(workload, seed)
    return {"analytic-sweep": _sweep_inputs, "mc-grid": _mc_inputs,
            "claims-cli": _cli_inputs}[workload](rng)


def _requests(rng, n_bm, n_smooth, n_cont) -> list[dict]:
    """BM/CL model requests in a fixed family mix, each with its phi(q) argument."""
    models = []
    # Brownian motion: a* = xi sigma^2 / (2 mu) is placed in each decade
    a_bm = 10.0 ** _cells(rng, n_bm, *LOG10_A_STAR)
    sig = _log_uniform(rng, n_bm, 1e-2, 1e2)
    for a, s in zip(a_bm, sig):
        models.append({"kind": "bm", "mu": float(oracles.XI_BM * s * s / (2.0 * a)),
                       "sigma": float(s)})
    # Cramer-Lundberg, smooth fit: load 0.31..0.95, rho sets the scale of a*
    loads = _cells(rng, n_smooth, 0.31, 0.95)
    a_cl = 10.0 ** _cells(rng, n_smooth, *LOG10_A_STAR)
    mus = _log_uniform(rng, n_smooth, 1e-2, 1e2)
    for th, a, mu in zip(loads, a_cl, mus):
        rho = oracles.mixture_median_u(th) / (a * (1.0 - th))
        models.append({"kind": "cl", "mu": float(mu), "lam": float(th * mu * rho),
                       "rho": float(rho)})
    # Cramer-Lundberg, continuous fit only: load below 1 - 1/sqrt(2)
    loads = _cells(rng, n_cont, 0.01, 0.28)
    mus = _log_uniform(rng, n_cont, 1e-2, 1e2)
    rhos = _log_uniform(rng, n_cont, 1e-3, 1e3)
    for th, mu, rho in zip(loads, mus, rhos):
        models.append({"kind": "cl", "mu": float(mu), "lam": float(th * mu * rho),
                       "rho": float(rho)})
    qs = 10.0 ** _cells(rng, len(models), *LOG10_Q)
    order = rng.permutation(len(models))
    return [{"model": models[i], "q": float(qs[j])} for j, i in enumerate(order)]


def _sweep_inputs(rng) -> dict:
    betas = [{"kind": "beta", "beta": float(rng.uniform(lo, hi))} for lo, hi in BETA_CELLS]
    queries = []
    for spec in betas:
        xs = _cells(rng, BETA_QUERIES, *BETA_X)
        qs = 10.0 ** _cells(rng, BETA_QUERIES, *LOG10_Q)
        queries += [{"model": spec, "x": float(x), "q": float(q)} for x, q in zip(xs, qs)]
    qs = 10.0 ** _cells(rng, len(betas), *LOG10_Q)
    return {"timed_requests": _requests(rng, *TIMED_MIX),
            "beta_queries": [queries[i] for i in rng.permutation(len(queries))],
            "requests": _requests(rng, N_BM, N_CL_SMOOTH, N_CL_CONT),
            "beta_requests": [{"model": spec, "q": float(q)} for spec, q in zip(betas, qs)]}


def _seeds(rng, n):
    return [int(s) for s in rng.integers(0, 2**31 - 1, n)]


def _mc_inputs(rng) -> dict:
    a = oracles.a_star(MC_BM)
    return {
        "a_star": a,
        "grid": [float(v) for v in a * np.linspace(0.0, 2.0, 21)],
        "x_value": -0.5,
        "seeds": dict(zip(MC_KINDS, _seeds(rng, len(MC_KINDS)))),
    }


def _cli_inputs(rng) -> dict:
    sets = []
    for load in CLI_LOADS:
        th = load * (1.0 + rng.uniform(-0.02, 0.02))
        rho = float(_log_uniform(rng, 1, 2.0, 4.0)[0])
        mu = float(_log_uniform(rng, 1, 0.5, 4.0)[0])
        spec = {"kind": "cl", "mu": mu, "lam": float(th * mu * rho), "rho": rho}
        a = oracles.a_star(spec)
        _, k, _ = oracles.mixture_params(spec)
        # thresholds span up to 2 a*, or up to the infimum's 90% quantile
        # where a* = 0
        top = 2.0 * a if a > 0 else oracles.inf_quantile(spec, 0.9)
        sets.append({
            "model": spec,
            "mae_a": [float(v) for v in np.linspace(0.0, top, 21)],
            "value_a": a if a > 0 else 0.5 * top,
            "value_x": -0.5 / k,
            "seeds": dict(zip(("mae", "infimum", "value", "verify"), _seeds(rng, 4))),
        })
    return {"sets": sets}


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------


def _model(lz, spec):
    kind = spec["kind"]
    if kind == "bm":
        return lz.BrownianDrift(spec["mu"], spec["sigma"])
    if kind == "cl":
        return lz.CramerLundberg(spec["mu"], spec["lam"], spec["rho"])
    return lz.BetaFamily(spec["beta"])


def build_ops(workload: str, inputs: dict, lz, out_dir: str) -> tuple[list[Op], list[Op]]:
    """(timed ops, ops issued once)."""
    if workload == "analytic-sweep":
        timed = [_request_op(lz, r["model"], r["q"]) for r in inputs["timed_requests"]]
        timed += [_beta_query_op(lz, r["model"], r["x"], r["q"])
                  for r in inputs["beta_queries"]]
        once = [_request_op(lz, r["model"], r["q"])
                for r in inputs["requests"] + inputs["beta_requests"]]
        return timed, once
    if workload == "mc-grid":
        return _mc_ops(lz, inputs)
    timed, once = [], []
    for i, s in enumerate(inputs["sets"]):
        t, o = _cli_ops(lz, s, i, out_dir, i in CLI_TIMED_SETS)
        timed += t
        once += o
    return timed, once


def thresholds_for(a: float) -> list[float]:
    """{1/2, 1, 3/2} a*, or [0] when a* = 0 (as the CLI's curve does)."""
    return list(dict.fromkeys([0.5 * a, a, 1.5 * a])) if a > 0 else [0.0]


# -- analytic-sweep ----------------------------------------------------------


def _request_op(lz, spec, q) -> Op:
    model = _model(lz, spec)

    def call():
        ev, rule = lz.solve(model)
        v0 = lz.V_at(ev, rule, 0.0)
        a = rule.a_star
        xs = np.linspace(-1.0, max(3.0 * a, 2.0), CURVE_POINTS)
        curve = lz.build_value_curve(ev, rule.table, xs, thresholds_for(a))
        h = lz.conv_cdf(ev, a)
        return {"a": a, "regime": rule.regime.value, "v0": v0, "h": h,
                "x": curve.x, "inf_cdf": curve.inf_cdf, "conv": curve.conv,
                "thresholds": curve.thresholds, "values": curve.values,
                "phi": _phi_or_none(model, q)}

    kind = "beta-request" if spec["kind"] == "beta" else "request"
    return Op(kind, call, lambda out: sweep_checks(spec, q, out))


def _phi_or_none(model, q):
    try:
        return model.phi(q)
    except ArithmeticError:  # the documented refusal; checked as a miss
        return None


def _beta_query_op(lz, spec, x, q) -> Op:
    """H(x) by the package's route for the family (quadrature today) and phi(q)."""
    model = _model(lz, spec)

    def call():
        return {"h": lz.conv_cdf(lz.ScaleEvaluator(model), x), "phi": _phi_or_none(model, q)}

    def check(out):
        return [_close("H(x)", out["h"], oracles.h(spec, x), 1e-9, 1e-6), phi_check(spec, q, out)]

    return Op("beta-query", call, check)


def a_star_check(spec, a) -> Check:
    oa = oracles.a_star(spec)
    if oa == 0.0:
        return Check("a_star", a == 0.0, a == 0.0)
    # the solver's stated root tolerance is 1e-10 absolute; ten times that
    # (plus 1e-6 relative) separates a wrong answer from an imprecise one
    return _close("a_star", a, oa, 1e-9 * oa, 1e-9 + 1e-6 * oa, rel_base=oa)


def value_check(name, spec, a, x, got) -> Check:
    """V_a(x) against the oracle, relative to the size of its linear terms."""
    _, _, p = oracles.mixture_params(spec)
    scale = (abs(a - max(x, 0.0)) + abs(min(x, 0.0))) / p
    return _close(name, got, oracles.value(spec, a, x), 1e-9 * scale, 1e-9 + 1e-6 * scale)


def curve_checks(spec, xs, inf_cdf, conv, thresholds, values, stride) -> list[Check]:
    idx = range(0, len(xs), stride)
    xs_s = np.asarray([xs[j] for j in idx])
    checks = []
    f_err = float(np.max(np.abs(np.asarray([inf_cdf[j] for j in idx]) - oracles.inf_cdf(spec, xs_s))))
    checks.append(Check("curve.inf_cdf", f_err <= 1e-12, f_err <= 1e-6))
    # the curve's H column is interpolated from a table, hence the loose bound
    h_err = max(abs(conv[j] - oracles.h(spec, float(xs[j]))) for j in idx)
    checks.append(Check("curve.conv", h_err <= 1e-4, h_err <= 1e-2))
    if spec["kind"] == "beta":
        # no closed-form V here, only invariants: V_{a*} <= 0, and V_{a*} is
        # the pointwise minimum over the thresholds as far as the numerics
        # resolve the thresholds (strict standard only)
        v = np.asarray(values)
        star = v[1] if v.shape[0] == 3 else v[0]
        nonpos = bool(np.all(star <= 1e-12))
        checks.append(Check("curve.V*<=0", nonpos, nonpos))
        checks.append(Check("curve.V_a*_min", bool(np.all(star <= v.min(axis=0) + 1e-9))))
        return checks
    for i, a in enumerate(thresholds):
        for j in idx:
            checks.append(value_check(f"curve.V[{i}]", spec, a, float(xs[j]), values[i][j]))
    return checks


def sweep_checks(spec, q, out) -> list[Check]:
    kind = spec["kind"]
    want = "continuous-fit-only" if oracles.continuous_fit(spec) else "smooth-fit"
    regime_ok = out["regime"] == want
    checks = [Check("regime", regime_ok, regime_ok), a_star_check(spec, out["a"])]
    a = out["a"]
    if kind != "beta":
        checks.append(value_check("V(0)", spec, oracles.a_star(spec), 0.0, out["v0"]))
    checks.append(_close("H(a*)", out["h"], oracles.h(spec, a), 1e-9, 1e-6))
    checks += curve_checks(spec, out["x"], out["inf_cdf"], out["conv"],
                           out["thresholds"], out["values"], CURVE_SAMPLE)
    checks.append(phi_check(spec, q, out))
    return checks


def phi_check(spec, q, out) -> Check:
    if out["phi"] is None:
        return Check("phi", False, True)  # ArithmeticError: a refusal
    res = oracles.phi_rel_residual(spec, q, out["phi"])
    return Check("phi", res <= 1e-9, res <= 1e-6 + 1e-9 / q)


# -- mc-grid -----------------------------------------------------------------


def _report_check(name, rep, want) -> list[Check]:
    return [_mc_close(name, rep.estimate, rep.std_error, want)]


def _se_factor(se, scale):
    return (se / (SE_TARGET * scale)) ** 2


def _pair_se(spec, out, a):
    """Standard error of the median of m pair sums, 1 / (2 h(a*) sqrt(m)),
    from the oracle density of H."""
    return 1.0 / (2.0 * oracles.h_density_at(spec, a) * math.sqrt(len(out[1])))


def _pair_check(name, spec, out, a):
    return [_mc_close(name, out[0], _pair_se(spec, out, a), a)]


def _mc_ops(lz, inp) -> tuple[list[Op], list[Op]]:
    """The timed estimator calls, and the Beta(1.5) jump route, issued once."""
    bm = _model(lz, MC_BM)
    beta15, beta2 = lz.BetaFamily(1.5), lz.BetaFamily(2.0)
    beta2_spec = {"kind": "bm", "mu": 1.0, "sigma": math.sqrt(2.0)}  # Beta(2) law
    a, grid, x = inp["a_star"], inp["grid"], inp["x_value"]
    eg = oracles.expected_g(MC_BM)
    eg15 = oracles.expected_g({"kind": "beta", "beta": 1.5})
    a2 = oracles.a_star(beta2_spec)
    mae_a, mae_grid = oracles.mae(MC_BM, a), [oracles.mae(MC_BM, g) for g in grid]
    v_x = oracles.value(MC_BM, a, x)
    seeds = {kind: itertools.count(seed) for kind, seed in inp["seeds"].items()}

    def cfg(n, kind, **kw):
        """The next seed of this kind's stream: every call simulates new paths."""
        return lz.McConfig(n_paths=n, base_seed=next(seeds[kind]), **kw)

    timed = [
        Op("mae", lambda: lz.estimate_mean_abs_error(bm, cfg(MC_PATHS, "mae"), a),
           lambda r: _report_check("mae", r, mae_a),
           MC_PATHS, lambda r: _se_factor(r.std_error, eg), fresh=True),
        Op("mae_grid",
           lambda: lz.estimate_mean_abs_error_grid(bm, cfg(MC_PATHS, "mae_grid"), grid),
           lambda reps: [c for r, g, want in zip(reps, grid, mae_grid)
                         for c in _report_check(f"mae[{g:.4g}]", r, want)],
           MC_PATHS, lambda reps: max(_se_factor(r.std_error, eg) for r in reps),
           fresh=True),
        Op("expected_g_exact",
           lambda: lz.estimate_expected_g(bm, cfg(MC_PATHS, "expected_g_exact", dt=2e-3),
                                          exact_crossings=True),
           lambda r: _report_check("E(g)", r, eg),
           MC_PATHS, lambda r: _se_factor(r.std_error, eg), fresh=True),
        Op("value", lambda: lz.estimate_value(bm, cfg(MC_PATHS, "value"), a, x),
           lambda r: _report_check("V(x)", r, v_x),
           MC_PATHS, lambda r: _se_factor(r.std_error, eg), fresh=True),
        Op("pair_median",
           lambda: lz.infimum_pair_sum_median(bm, cfg(MC_INF_PATHS, "pair_median")),
           lambda out: _pair_check("pair_median", MC_BM, out, a),
           MC_INF_PATHS, lambda out: _se_factor(_pair_se(MC_BM, out, a), a), fresh=True),
        Op("pair_median_beta2",
           lambda: lz.infimum_pair_sum_median(beta2,
                                              cfg(MC_BETA2_INF_PATHS,
                                                  "pair_median_beta2")),
           lambda out: _pair_check("pair_median beta 2", beta2_spec, out, a2),
           MC_BETA2_INF_PATHS, lambda out: _se_factor(_pair_se(beta2_spec, out, a2), a2),
           fresh=True),
    ]
    # a Beta(1.5) batch takes three grid batches' time, and its cost and SE
    # swing with the heaviest-tailed path: the jump route runs once, ungated
    once = [
        Op("expected_g_jump",
           lambda: lz.estimate_expected_g(beta15,
                                          cfg(MC_JUMP_PATHS, "expected_g_jump", dt=2e-3)),
           lambda r: _report_check("E(g) beta 1.5", r, eg15),
           MC_JUMP_PATHS, lambda r: _se_factor(r.std_error, eg15)),
    ]
    return timed, once


# -- claims-cli --------------------------------------------------------------


def _model_argv(spec):
    return ["--model", "cl", "--mu", repr(spec["mu"]), "--lambda", repr(spec["lam"]),
            "--rho", repr(spec["rho"])]


def _read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def _cli_op(lz, kind, argv, path, check, paths=0, se_factor=None) -> Op:
    """One cli.main call writing to ``path``.  Exit codes 1-3 are the CLI's
    documented failures (1 is a normal outcome of verify); others are crashes."""
    expected = (0, 1) if kind == "verify" else (0,)

    def checked(rc):
        if rc not in expected:
            return [Check(f"exit={rc}", False, rc in (1, 2, 3))]
        return check(rc)

    def factor(rc):
        return se_factor(rc) if se_factor is not None and rc == 0 else 1.0

    return Op(kind, lambda: lz.cli.main(argv + ["--out", path]), checked, paths, factor,
              out_file=path)


def _cli_ops(lz, s, i, out_dir, timed) -> tuple[list[Op], list[Op]]:
    """A timed set's small calls and, issued once, the same calls at full
    size (solve has no size, so it is not repeated); an untimed set's calls
    at full size only."""
    once = _cli_calls(lz, s, os.path.join(out_dir, f"set{i}-full-"), CLI_FULL)
    if not timed:
        return [], once
    timed = _cli_calls(lz, s, os.path.join(out_dir, f"set{i}-"), CLI_SMALL)
    once = once[1:]
    for op, twin in zip(timed[1:], once):
        if op.kind in ("simulate-mae", "simulate-value"):  # the ops with an SE
            op.full = twin
    return timed, once


def _cli_calls(lz, s, prefix, size) -> list[Op]:
    """solve, curve, simulate mae / infimum / value and verify on one set."""
    spec = s["model"]
    margs = _model_argv(spec)
    sim = ["simulate", *margs]
    eg = oracles.expected_g(spec)
    oa = oracles.a_star(spec)
    seeds = s["seeds"]
    step, n_mae, n_inf, n_value, n_verify = size

    def path(tag):
        return prefix + tag

    def read_rows(tag):
        header, rows = _read_csv(path(tag))
        return [dict(zip(header, r)) for r in rows]

    def solve_check(rc):
        with open(path("solve.json")) as fh:
            rep = json.load(fh)
        want = "continuous-fit-only" if oa == 0.0 else "smooth-fit"
        return [
            a_star_check(spec, rep["a_star"]),
            Check("regime", rep["regime"] == want, rep["regime"] == want),
            value_check("value_at_zero", spec, oa, 0.0, rep["value_at_zero"]),
            _close("expected_g", rep["expected_g"], eg, 1e-12 * eg, 1e-6 * eg),
            _close("x0", rep["x0"], oracles.inf_quantile(spec, 0.5),
                   1e-12 * (1.0 + rep["x0"]), 1e-6 * (1.0 + rep["x0"])),
        ]

    def curve_check(rc):
        header, rows = _read_csv(path("curve.csv"))
        n_want = int(round((max(3.0 * oa, 2.0) + 1.0) / step)) + 1
        if len(rows) != n_want or header[:4] != ["x", "inf_cdf", "gain", "conv"]:
            return [Check("curve.shape", False, False)]
        cols = list(zip(*rows))
        xs = [float(v) for v in cols[0]]
        thresholds = [float(h[len("V[a="):-1]) for h in header[4:]]
        values = [[float(v) for v in cols[4 + i]] for i in range(len(thresholds))]
        return curve_checks(spec, xs, [float(v) for v in cols[1]], [float(v) for v in cols[3]],
                            thresholds, values, stride=max(1, n_want // 10))

    def mae_check(rc):
        rows = read_rows("mae.csv")
        if len(rows) != len(s["mae_a"]):
            return [Check("mae.rows", False, False)]
        return [_mc_close(f"mae[{r['a']}]", float(r["estimate"]), float(r["std_error"]),
                          oracles.mae(spec, a)) for r, a in zip(rows, s["mae_a"])]

    def infimum_check(rc):
        header, rows = _read_csv(path("infimum.csv"))
        depths = np.asarray([float(r[1]) for r in rows])
        if header != ["path_index", "depth"] or depths.size != n_inf:
            return [Check("infimum.shape", False, False)]
        d = oracles.ks_distance(depths, lambda x: oracles.inf_cdf(spec, x),
                                lambda x: np.where(x > 0.0, oracles.inf_cdf(spec, x), 0.0))
        return [Check("infimum.ks", d <= oracles.ks_limit(depths.size, KS_ALPHA),
                      d <= oracles.ks_limit(depths.size, KS_GROSS_ALPHA))]

    def value_check_mc(rc):
        r = read_rows("value.csv")[0]
        return [_mc_close("value", float(r["estimate"]), float(r["std_error"]),
                          oracles.value(spec, s["value_a"], s["value_x"]))]

    def verify_check(rc):
        with open(path("verify.json")) as fh:
            rep = json.load(fh)
        target = {c["name"]: c["target"] for c in rep["checks"]}.get("mc_mean_g", math.nan)
        return [Check("verify.passed", bool(rep["passed"]) and rc == 0),
                _close("verify.mc_mean_g.target", target, eg, 1e-9 * eg, 1e-6 * eg)]

    mae_argv = sim + ["--quantity", "mae", "--paths", str(n_mae), "--seed", str(seeds["mae"])]
    for a in s["mae_a"]:
        mae_argv += ["--a", repr(a)]
    verify_argv = ["verify", *margs, "--seed", str(seeds["verify"])]
    if n_verify != CLI_VERIFY_DEFAULT:
        verify_argv += ["--paths", str(n_verify)]
    return [
        _cli_op(lz, "solve", ["solve", *margs], path("solve.json"), solve_check),
        _cli_op(lz, "curve", ["curve", *margs, "--step", repr(step)],
                path("curve.csv"), curve_check),
        _cli_op(lz, "simulate-mae", mae_argv, path("mae.csv"), mae_check, n_mae,
                lambda rc: max(_se_factor(float(r["std_error"]), eg)
                               for r in read_rows("mae.csv"))),
        _cli_op(lz, "simulate-infimum",
                sim + ["--quantity", "infimum", "--paths", str(n_inf),
                       "--seed", str(seeds["infimum"])],
                path("infimum.csv"), infimum_check, n_inf),
        _cli_op(lz, "simulate-value",
                sim + ["--quantity", "value", "--a", repr(s["value_a"]), "--x",
                       repr(s["value_x"]), "--paths", str(n_value),
                       "--seed", str(seeds["value"])],
                path("value.csv"), value_check_mc, n_value,
                lambda rc: _se_factor(float(read_rows("value.csv")[0]["std_error"]), eg)),
        _cli_op(lz, "verify", verify_argv, path("verify.json"), verify_check, 2 * n_verify),
    ]
