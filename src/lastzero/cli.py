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
parameters, 3 numerical failure.
"""

from __future__ import annotations

import argparse
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
_MODEL_FIELDS = {
    "bm": ("mu", "sigma"),
    "cl": ("mu", "lam", "rho"),
    "beta": ("beta",),
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
    kind = spec.get("kind")
    if kind not in _MODEL_FIELDS:
        raise ValueError(
            f"unknown or missing model kind {kind!r}; pass --model bm|cl|beta"
        )
    flags = {
        "mu": args.mu,
        "sigma": args.sigma,
        "lam": args.lam,
        "rho": args.rho,
        "beta": args.beta,
    }
    merged = dict(_MODEL_DEFAULTS[kind])
    merged.update({k: v for k, v in spec.items() if k != "kind"})
    merged.update({k: v for k, v in flags.items() if v is not None})
    extra = sorted(set(merged) - set(_MODEL_FIELDS[kind]))
    if extra:
        raise ValueError(f"parameters {extra} do not apply to model {kind!r}")
    return model_from_dict({"kind": kind, **merged})


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _json_text(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _csv_text(header, rows) -> str:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join("" if v is None else v if isinstance(v, str) else _fmt(v) for v in row))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------


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
    if args.format == "json":
        _emit(_json_text(report), args.out)
    else:
        rows = []
        for key in sorted(report):
            if key in ("model", "solver"):
                for sub in sorted(report[key]):
                    rows.append((f"{key}.{sub}", report[key][sub]))
            else:
                rows.append((key, report[key]))
        _emit(_csv_text(("key", "value"), rows), args.out)
    return 0


# ---------------------------------------------------------------------------
# curve
# ---------------------------------------------------------------------------


def _cmd_curve(args) -> int:
    model = _build_model(args)
    ev, rule = solve(model, tol=args.tol)
    if args.a:
        thresholds = [float(a) for a in args.a]
        if any(a < 0 for a in thresholds):
            raise ValueError("thresholds must be >= 0")
    elif rule.a_star > 0:
        seen = []
        for a in (0.5 * rule.a_star, rule.a_star, 1.5 * rule.a_star):
            if a not in seen:
                seen.append(a)
        thresholds = seen
    else:
        thresholds = [0.0]
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
    if args.format == "json":
        report = {
            "model": model.params_dict(),
            "a_star": rule.a_star,
            "thresholds": list(curve.thresholds),
            "x": curve.x.tolist(),
            "inf_cdf": curve.inf_cdf.tolist(),
            "gain": curve.gain.tolist(),
            "conv": curve.conv.tolist(),
            "values": {lab: curve.values[i].tolist() for i, lab in enumerate(labels)},
        }
        _emit(_json_text(report), args.out)
    else:
        header = ["x", "inf_cdf", "gain", "conv", *labels]
        rows = [
            (
                curve.x[j],
                curve.inf_cdf[j],
                curve.gain[j],
                curve.conv[j],
                *(curve.values[i][j] for i in range(len(labels))),
            )
            for j in range(curve.x.size)
        ]
        _emit(_csv_text(header, rows), args.out)
    return 0


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

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


def _report_row(rep, cfg):
    return (
        rep.quantity,
        rep.a,
        rep.x,
        rep.q,
        rep.estimate,
        rep.std_error,
        rep.n_paths,
        rep.base_seed,
        cfg.dt,
        cfg.tail_eps,
    )


def _cmd_simulate(args) -> int:
    model = _build_model(args)
    cfg = McConfig(
        n_paths=args.paths, base_seed=args.seed, dt=args.dt, tail_eps=args.tail_eps
    )
    quantity = args.quantity
    if quantity == "infimum":
        depths = sample_infimum(model, cfg, step=args.inf_step)
        if args.format == "json":
            report = {
                "model": model.params_dict(),
                "quantity": "infimum_depth",
                "n_paths": cfg.n_paths,
                "base_seed": cfg.base_seed,
                "depths": depths.tolist(),
            }
            _emit(_json_text(report), args.out)
        else:
            rows = [(i, d) for i, d in enumerate(depths)]
            _emit(_csv_text(("path_index", "depth"), rows), args.out)
        return 0

    def default_a():
        _, rule = solve(model)
        return rule.a_star

    reports = []
    if quantity == "mae":
        a_list = [float(a) for a in args.a] if args.a else [default_a()]
        reports = estimate_mean_abs_error_grid(model, cfg, a_list)
    elif quantity == "expected-g":
        reports = [estimate_expected_g(model, cfg)]
    elif quantity == "passage":
        a_list = [float(a) for a in args.a] if args.a else [default_a()]
        reports = [estimate_passage_time(model, cfg, a) for a in a_list]
    elif quantity == "value":
        a = float(args.a[0]) if args.a else default_a()
        reports = [estimate_value(model, cfg, a, x=args.x)]
    elif quantity == "laplace":
        reports = [estimate_laplace_g(model, cfg, args.q)]
    elif quantity == "pair-median":
        med, sums = infimum_pair_sum_median(model, cfg, step=args.inf_step)
        reports = [
            McReport(
                quantity="pair_median",
                estimate=med,
                std_error=float(1.2533 * sums.std(ddof=1) / math.sqrt(sums.size)),
                n_paths=cfg.n_paths,
                base_seed=cfg.base_seed,
            )
        ]
    if args.format == "json":
        body = [
            {k: v for k, v in zip(_SIM_HEADER, _report_row(r, cfg))} for r in reports
        ]
        _emit(_json_text({"model": model.params_dict(), "results": body}), args.out)
    else:
        _emit(
            _csv_text(_SIM_HEADER, [_report_row(r, cfg) for r in reports]), args.out
        )
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
    n = g.size
    se_g = g.std(ddof=1) / math.sqrt(n)
    add("mc_mean_g", g.mean(), p2 / p1**2, 4.0 * se_g + 1e-9)
    tau = res["tau"][:, 0]
    se_tau = tau.std(ddof=1) / math.sqrt(n)
    add("mc_mean_passage", tau.mean(), a_probe / p1, 4.0 * se_tau + 1e-9)
    lap_samples = np.exp(-g)
    se_lap = lap_samples.std(ddof=1) / math.sqrt(n)
    if isinstance(model, BrownianDrift):
        lap_ref = laplace_g_brownian(model, 1.0)
        add("mc_laplace_g", lap_samples.mean(), lap_ref, 4.0 * se_lap)
    med, sums = infimum_pair_sum_median(model, cfg)
    se_med = 1.2533 * sums.std(ddof=1) / math.sqrt(sums.size)
    med_target = rule.a_star if rule.regime is Regime.SMOOTH_FIT else 0.0
    add("mc_pair_median", med, med_target, max(0.06, 6.0 * se_med))

    passed = all(c["ok"] for c in checks)
    report = {
        "model": model.params_dict(),
        "n_paths": cfg.n_paths,
        "base_seed": cfg.base_seed,
        "passed": passed,
        "checks": checks,
    }
    if args.format == "json":
        _emit(_json_text(report), args.out)
    else:
        rows = [
            (c["name"], "ok" if c["ok"] else "FAIL", c["observed"], c["target"], c["tol"])
            for c in checks
        ]
        _emit(_csv_text(("name", "status", "observed", "target", "tol"), rows), args.out)
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


def build_parser() -> argparse.ArgumentParser:
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
    sp.add_argument("--dt", type=float, default=1e-3, help="Euler step (grid families)")
    sp.add_argument("--tail-eps", type=float, default=1e-3, help="barrier tail mass")
    sp.add_argument("--inf-step", type=float, help="bridge step for infimum sampling")
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
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        return args.func(args)
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ArithmeticError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
