"""Command line front end.

Four subcommands: ``solve`` reports the optimal threshold and the
quantities behind it; ``curve`` tabulates the distribution functions and
value functions on a grid; ``simulate`` runs the Monte Carlo estimators;
``verify`` runs an invariant battery (analytic identities plus simulation
cross-checks) and fails nonzero if anything is off.

Outputs are plain JSON or CSV, written to stdout or --out.  No
timestamps or environment data are included, so a rerun with the same
arguments produces byte-identical output.

Exit codes: 0 success, 1 verification failure, 2 invalid usage or
parameters or too little memory, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

import numpy as np
from scipy import integrate

from . import __version__
from .convolution import conv_cdf
from .mc import (
    McConfig,
    McReport,
    estimate_expected_g,
    estimate_laplace_g,
    estimate_mean_abs_error_grid,
    estimate_passage_time,
    estimate_value,
    infimum_pair_sum_median,
    run_step,
    sample_infimum,
    simulate_paths,
)
from .models import BrownianDrift, model_from_dict
from .stopping import (
    Regime,
    V_at,
    V_prime_at,
    build_value_curve,
    expected_tau_plus,
    laplace_g_brownian,
    solve,
)

_MODEL_DEFAULTS = {
    "bm": {"mu": 1.0, "sigma": 1.0},
    "cl": {"mu": 2.0, "lam": 1.0, "rho": 1.0},
    "beta": {"beta": 2.0},
}


_MAX_CURVE_ROWS = 10**6
# verify's standard errors and pair median need a sample this large to mean
# anything; one grid batch is 1024 paths
_MIN_VERIFY_PATHS = 1000


def _fmt(x) -> str:
    return format(float(x), ".12g")


def _build_model(args):
    spec = {}
    if args.config:
        with open(args.config) as fh:
            spec = json.load(fh)
        if not isinstance(spec, dict):
            raise ValueError("config file must hold a JSON object")
    if args.model:
        spec["kind"] = args.model
    kind = spec.pop("kind", None)
    if not isinstance(kind, str) or kind not in _MODEL_DEFAULTS:
        raise ValueError(
            f"unknown or missing model kind {kind!r}; pass --model bm|cl|beta"
        )
    for name in ("mu", "sigma", "lam", "rho", "beta"):
        if getattr(args, name) is not None:
            spec[name] = getattr(args, name)
    extra = sorted(set(spec) - set(_MODEL_DEFAULTS[kind]))
    if extra:
        raise ValueError(f"parameters {extra} do not apply to model {kind!r}")
    # JSON true would pass float() as 1.0, a list or null would crash it, and
    # an integer beyond the float range would overflow it
    for name, value in spec.items():
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ValueError(f"parameter {name!r} must be a number, got {value!r}")
        if isinstance(value, int) and abs(value) > sys.float_info.max:
            raise ValueError(f"parameter {name!r} is an integer beyond the float range")
    return model_from_dict({"kind": kind, **_MODEL_DEFAULTS[kind], **spec})


def _write(args, report, header, rows) -> None:
    """Write ``report`` as JSON, or ``header`` and ``rows`` as CSV.

    ``rows`` is only iterated for CSV; arrays in ``report`` become lists.
    """
    if args.format == "json":
        text = json.dumps(report, sort_keys=True, indent=2, default=np.ndarray.tolist) + "\n"
    else:
        lines = [",".join(header)]
        for row in rows:
            lines.append(",".join("" if v is None else v if isinstance(v, str) else _fmt(v) for v in row))
        text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------


def _key_rows(report):
    """(key, value) rows sorted by key, a nested entry as ``key.sub``."""
    flat = {}
    for key, value in report.items():
        if isinstance(value, dict):
            flat.update((f"{key}.{sub}", v) for sub, v in value.items())
        else:
            flat[key] = value
    yield from sorted(flat.items())


def _cmd_solve(args) -> int:
    model = _build_model(args)
    ev, rule = solve(model, tol=args.tol)
    prof = ev.profile
    v0 = V_at(ev, rule, 0.0)
    report = {
        "model": model.params_dict(),
        "a_star": rule.a_star,
        "x0": rule.x0,
        "regime": rule.regime.value,
        "f0": prof.f0,
        "psi_prime0": prof.psi_prime0,
        "psi_double_prime0": prof.psi_double_prime0,
        "expected_g": rule.expected_g0,
        "expected_tau_a_star": expected_tau_plus(model, rule.a_star),
        "value_at_zero": v0,
        "vstar_at_zero": v0 + rule.expected_g0,
        "h_at_a_star": (
            conv_cdf(ev, rule.a_star) if rule.regime is Regime.SMOOTH_FIT else None
        ),
        "solver": {"root_tol": args.tol},
    }
    _write(args, report, ("key", "value"), _key_rows(report))
    return 0


# ---------------------------------------------------------------------------
# curve
# ---------------------------------------------------------------------------


def _cmd_curve(args) -> int:
    model = _build_model(args)
    ev, rule = solve(model, tol=args.tol)
    # the default 0.5, 1 and 1.5 times a* collapse to one threshold at a* = 0
    thresholds = args.a or list(dict.fromkeys(f * rule.a_star for f in (0.5, 1.0, 1.5)))
    if any(a < 0 for a in thresholds):
        raise ValueError("thresholds must be >= 0")
    xmin = args.xmin if args.xmin is not None else -1.0
    xmax = args.xmax if args.xmax is not None else max(3.0 * rule.a_star, 2.0)
    step = args.step
    if not (step > 0 and xmax > xmin):
        raise ValueError("need step > 0 and xmax > xmin")
    n_steps = (xmax - xmin) / step
    if not n_steps < _MAX_CURVE_ROWS:
        raise ValueError(f"grid would exceed {_MAX_CURVE_ROWS} rows; raise --step")
    n = int(round(n_steps)) + 1
    xs = xmin + step * np.arange(n)
    curve = build_value_curve(ev, rule.table, xs, thresholds)
    labels = [f"V[a={_fmt(a)}]" for a in curve.thresholds]
    columns = ("x", "inf_cdf", "gain", "conv")
    report = {
        "model": model.params_dict(),
        "a_star": rule.a_star,
        "thresholds": curve.thresholds,
        **{c: getattr(curve, c) for c in columns},
        "values": dict(zip(labels, curve.values)),
    }
    rows = zip(*(report[c] for c in columns), *curve.values)
    _write(args, report, (*columns, *labels), rows)
    return 0


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

# McReport fields in column order, then the McConfig knobs behind them
_SIM_HEADER = (
    "quantity",
    "a",
    "x",
    "q",
    "estimate",
    "std_error",
    "n_paths",
    "base_seed",
    "dt",
    "tail_eps",
)


def _pair_median(model, cfg) -> McReport:
    """The pair-sum median of the sampled infima, an estimate of a*."""
    med, sums = infimum_pair_sum_median(model, cfg)
    if sums.size < 2:
        raise ValueError("pair-median needs at least 4 paths for a standard error")
    return McReport(
        quantity="pair_median",
        estimate=med,
        # the median's asymptotic standard error, sqrt(pi/2) sd/sqrt(n),
        # taken as if the pair sums were normal
        std_error=float(1.2533 * sums.std(ddof=1) / math.sqrt(sums.size)),
        n_paths=cfg.n_paths,
        base_seed=cfg.base_seed,
    )


def _cmd_simulate(args) -> int:
    model = _build_model(args)
    cfg = McConfig(
        n_paths=args.paths, base_seed=args.seed, dt=args.dt, tail_eps=args.tail_eps
    )
    quantity = args.quantity
    if quantity == "infimum":
        depths = sample_infimum(model, cfg)
        report = {
            "model": model.params_dict(),
            "quantity": "infimum_depth",
            "n_paths": cfg.n_paths,
            "base_seed": cfg.base_seed,
            "depths": depths,
        }
        _write(args, report, ("path_index", "depth"), enumerate(depths))
        return 0

    def thresholds():
        return args.a or [solve(model)[1].a_star]

    if quantity == "mae":
        reports = estimate_mean_abs_error_grid(model, cfg, thresholds())
    elif quantity == "expected-g":
        reports = [estimate_expected_g(model, cfg)]
    elif quantity == "passage":
        reports = [estimate_passage_time(model, cfg, a) for a in thresholds()]
    elif quantity == "value":
        reports = [estimate_value(model, cfg, thresholds()[0], x=args.x)]
    elif quantity == "laplace":
        reports = [estimate_laplace_g(model, cfg, args.q)]
    else:
        reports = [_pair_median(model, cfg)]
    # Brownian runs take their own step: the dt column reports it
    step = run_step(model, cfg, quantity in ("mae", "passage", "value"))
    rows = [
        (*(getattr(r, f) for f in _SIM_HEADER[:-2]), step, cfg.tail_eps)
        for r in reports
    ]
    report = {
        "model": model.params_dict(),
        "results": [dict(zip(_SIM_HEADER, row)) for row in rows],
    }
    _write(args, report, _SIM_HEADER, rows)
    return 0


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def _cmd_verify(args) -> int:
    if args.paths < _MIN_VERIFY_PATHS:
        raise ValueError(f"verify needs --paths >= {_MIN_VERIFY_PATHS}, got {args.paths}")
    model = _build_model(args)
    ev, rule = solve(model)
    prof = ev.profile
    p1, p2 = prof.psi_prime0, prof.psi_double_prime0
    checks = []

    def add(name, observed, target, tol):
        ok = bool(abs(observed - target) <= tol)
        checks.append(
            {
                "name": name,
                "ok": ok,
                "observed": float(observed),
                "target": float(target),
                "tol": float(tol),
            }
        )

    def add_mean(name, samples, target, slack):
        """A sample mean against its target, within 4 standard errors plus ``slack``."""
        se = samples.std(ddof=1) / math.sqrt(samples.size)
        add(name, samples.mean(), target, 4.0 * se + slack)

    x1 = model.phi(1.0)
    add("phi_inverts_psi", model.psi(x1), 1.0, 1e-9)

    beta0 = x1 + 1.0
    lap = integrate.quad(
        lambda t: math.exp(-beta0 * t) * ev.w(t), 0.0, 60.0, limit=200
    )[0]
    add("scale_laplace_transform", lap, 1.0 / model.psi(beta0), 1e-6)

    big = ev.inf_cdf_quantile(1.0 - 1e-9)
    add("inf_cdf_saturates", ev.inf_cdf(big), 1.0, 1e-6)

    if rule.regime is Regime.SMOOTH_FIT:
        add("median_equation", conv_cdf(ev, rule.a_star), 0.5, 1e-8)
        add("smooth_fit_slope", V_prime_at(ev, rule, rule.a_star - 1e-9), 0.0, 1e-6)
    else:
        add("atom_forces_zero_threshold", float(prof.f0**2 >= 0.5), 1.0, 0.0)
        add("kink_slope", V_prime_at(ev, rule, -1e-12), 1.0 / p1, 1e-9)
    xs = np.linspace(-2.0, max(rule.a_star, 1.0), 101)
    vmax = float(np.max(V_at(ev, rule, xs)))
    add("value_max_nonpositive", vmax, 0.0, 1e-12)

    cfg = McConfig(n_paths=args.paths, base_seed=args.seed)
    a_probe = rule.a_star if rule.a_star > 0 else 1.0
    res = simulate_paths(model, cfg, a_levels=(a_probe,))
    g = res["g"]
    add_mean("mc_mean_g", g, p2 / p1**2, 1e-9)
    add_mean("mc_mean_passage", res["tau"][:, 0], a_probe / p1, 1e-9)
    if isinstance(model, BrownianDrift):
        add_mean("mc_laplace_g", np.exp(-g), laplace_g_brownian(model, 1.0), 0.0)
    med = _pair_median(model, cfg)
    med_target = rule.a_star if rule.regime is Regime.SMOOTH_FIT else 0.0
    add("mc_pair_median", med.estimate, med_target, max(0.06, 6.0 * med.std_error))

    passed = all(c["ok"] for c in checks)
    report = {
        "model": model.params_dict(),
        "n_paths": cfg.n_paths,
        "base_seed": cfg.base_seed,
        "passed": passed,
        "checks": checks,
    }
    rows = (
        (c["name"], "ok" if c["ok"] else "FAIL", c["observed"], c["target"], c["tol"])
        for c in checks
    )
    _write(args, report, ("name", "status", "observed", "target", "tol"), rows)
    return 0 if passed else 1


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _add_model_args(sp):
    sp.add_argument("--model", choices=("bm", "cl", "beta"), help="model family")
    sp.add_argument("--mu", type=float, help="drift (bm) or premium rate (cl)")
    sp.add_argument("--sigma", type=float, help="volatility (bm)")
    sp.add_argument("--lambda", dest="lam", type=float, help="claim rate (cl)")
    sp.add_argument("--rho", type=float, help="claim-size rate (cl)")
    sp.add_argument("--beta", type=float, help="family index in (1, 2] (beta)")
    sp.add_argument("--config", help="JSON file with model parameters; flags override")


def _add_io_args(sp, default_format):
    sp.add_argument("--format", choices=("json", "csv"), default=default_format)
    sp.add_argument("--out", help="write output to this file instead of stdout")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process: parsing leaves it unchanged, and
    the repeatable ``--a`` copies its None default rather than growing it."""
    p = argparse.ArgumentParser(
        prog="lastzero",
        description="optimal threshold rules for predicting the last visit to zero",
    )
    p.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("solve", help="solve for the optimal threshold")
    _add_model_args(sp)
    sp.add_argument("--tol", type=float, default=1e-10, help="root tolerance for a*, relative")
    _add_io_args(sp, "json")
    sp.set_defaults(func=_cmd_solve)

    sp = sub.add_parser("curve", help="tabulate F, G, H and value functions")
    _add_model_args(sp)
    sp.add_argument("--tol", type=float, default=1e-10, help="root tolerance for a*, relative")
    sp.add_argument("--a", action="append", type=float, help="threshold (repeatable); default 0.5/1.0/1.5 times a*")
    sp.add_argument("--xmin", type=float, help="grid start (default -1)")
    sp.add_argument("--xmax", type=float, help="grid end (default max(3 a*, 2))")
    sp.add_argument("--step", type=float, default=0.01, help="grid spacing")
    _add_io_args(sp, "csv")
    sp.set_defaults(func=_cmd_curve)

    sp = sub.add_parser("simulate", help="Monte Carlo estimators")
    _add_model_args(sp)
    sp.add_argument(
        "--quantity",
        choices=("mae", "expected-g", "passage", "value", "laplace", "infimum", "pair-median"),
        default="mae",
        help="what to estimate (mae = mean |g - tau_a|)",
    )
    sp.add_argument("--a", action="append", type=float, help="threshold (repeatable); default a*")
    sp.add_argument("--x", type=float, default=0.0, help="start point for --quantity value")
    sp.add_argument("--q", type=float, default=1.0, help="rate for --quantity laplace")
    sp.add_argument("--paths", type=int, default=10000)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--dt", type=float, default=1e-3,
                    help="grid step of the Beta jump route (beta < 2); Brownian runs take "
                         "their own step in model units, which the dt column reports")
    sp.add_argument("--tail-eps", type=float, default=1e-3, help="barrier tail mass")
    _add_io_args(sp, "csv")
    sp.set_defaults(func=_cmd_simulate)

    sp = sub.add_parser("verify", help="run invariant checks; exit 1 on failure")
    _add_model_args(sp)
    sp.add_argument(
        "--paths", type=int, default=20000, help=f"at least {_MIN_VERIFY_PATHS}"
    )
    sp.add_argument("--seed", type=int, default=0)
    _add_io_args(sp, "json")
    sp.set_defaults(func=_cmd_verify)
    return p


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 2
    except ArithmeticError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
