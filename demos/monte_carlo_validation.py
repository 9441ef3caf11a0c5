"""Simulation engine validation in one sitting.

Runs the cheap end of every distribution and moment check the test suite
pins down: infimum law against its closed form, mean of the last zero
time, mean passage time, and the reproducibility contract (a path's
draws depend only on the seed and its index, never on the budget).

    python3 demos/monte_carlo_validation.py
"""

import math

import numpy as np

from lastzero import (
    BrownianDrift,
    CramerLundberg,
    McConfig,
    ScaleEvaluator,
    estimate_expected_g,
    estimate_passage_time,
    ks_critical,
    ks_statistic,
    sample_infimum,
    sample_path_events,
    simulate_paths,
)

BM = BrownianDrift(1.0, 1.0)
CL = CramerLundberg(2.0, 1.0, 1.0)


def check(name, ok, detail):
    print(f"  [{'ok' if ok else 'FAIL'}] {name}: {detail}")
    return ok


def main():
    all_ok = True
    print("infimum law (20000 samples, 1% KS level):")
    for model in (BM, CL):
        ev = ScaleEvaluator(model)
        depths = sample_infimum(model, McConfig(n_paths=20000, base_seed=5, tail_eps=1e-4))
        left = (lambda x: np.where(x > 0.0, ev.inf_cdf(x), 0.0)) if model is CL else None
        d = ks_statistic(depths, ev.inf_cdf, cdf_left=left)
        all_ok &= check(
            f"{model.kind} depth distribution",
            d < ks_critical(depths.size),
            f"KS {d:.5f} < {ks_critical(depths.size):.5f}",
        )

    print("moments (4 standard errors):")
    rep = estimate_expected_g(BM, McConfig(8000, 6, dt=2e-3, tail_eps=1e-4))
    all_ok &= check(
        "bm mean g = 1", abs(rep.estimate - 1.0) < 4 * rep.std_error,
        f"{rep.estimate:.4f} (se {rep.std_error:.4f})",
    )
    rep = estimate_expected_g(CL, McConfig(40000, 6))
    all_ok &= check(
        "cl mean g = 2", abs(rep.estimate - 2.0) < 4 * rep.std_error,
        f"{rep.estimate:.4f} (se {rep.std_error:.4f})",
    )
    rep = estimate_passage_time(CL, McConfig(40000, 6), a=1.5)
    all_ok &= check(
        "cl mean tau_1.5 = 1.5", abs(rep.estimate - 1.5) < 4 * rep.std_error,
        f"{rep.estimate:.4f} (se {rep.std_error:.4f})",
    )

    print("determinism (same seed, different budgets):")
    small = simulate_paths(CL, McConfig(1500, 7))
    large = simulate_paths(CL, McConfig(6000, 7))
    all_ok &= check(
        "first 1500 paths identical",
        bool(np.array_equal(small["g"], large["g"][:1500])),
        "g arrays match bit for bit",
    )
    one = sample_path_events(CL, McConfig(6000, 7), path_index=4242)
    all_ok &= check(
        "single-path replay",
        one.g == large["g"][4242],
        f"path 4242 g = {one.g:.6f} both ways",
    )

    print("all checks passed" if all_ok else "SOME CHECKS FAILED")
    return 0 if all_ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
