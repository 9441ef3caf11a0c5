"""End-to-end acceptance checks.

Each test pins one headline behavior of the package against an oracle
that does not reuse the code under test: hand-rolled root finding,
hand-coded closed forms, exact moment identities, distributional checks
on simulated samples, and byte-level determinism of the CLI.  Monte
Carlo seeds are fixed, so every pass is reproducible.
"""

import math
import time

import numpy as np
import pytest

from lastzero.cli import main
from lastzero.convolution import conv_analytic, conv_numeric
from lastzero.mc import (
    McConfig,
    estimate_expected_g,
    estimate_mean_abs_error,
    estimate_mean_abs_error_grid,
    infimum_pair_sum_median,
    ks_critical,
    ks_statistic,
    sample_infimum,
    simulate_paths,
)
from lastzero.models import BetaFamily, BrownianDrift, CramerLundberg
from lastzero.scale import ScaleEvaluator
from lastzero.stopping import (
    Regime,
    V_a_at,
    V_at,
    V_prime_at,
    expected_g,
    laplace_g_brownian,
    solve,
)

BM = BrownianDrift(1.0, 1.0)
CL = CramerLundberg(2.0, 1.0, 1.0)
CL4 = CramerLundberg(4.0, 1.0, 1.0)


def test_criterion_01_threshold_against_independent_oracles():
    t0 = time.perf_counter()
    # oracle 1: hand-rolled bisection on 1 - e^{-2x}(1 + 2x) = 1/2, the
    # depth-sum median equation written out with no package code involved
    lo, hi = 0.0, 4.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if 1.0 - math.exp(-2.0 * mid) * (1.0 + 2.0 * mid) < 0.5:
            lo = mid
        else:
            hi = mid
    oracle = 0.5 * (lo + hi)
    _, rule = solve(BM)
    assert abs(rule.a_star - oracle) <= 1e-8
    # oracle 2: empirical median of sums of paired sampled infimum depths
    cfg = McConfig(n_paths=100000, base_seed=22, tail_eps=1e-4)
    med, _ = infimum_pair_sum_median(BM, cfg, step=0.04)
    assert abs(med - rule.a_star) <= 0.01
    assert time.perf_counter() - t0 < 5.0


def test_criterion_02_value_function_closed_form():
    t0 = time.perf_counter()
    ev, rule = solve(BM)
    a = rule.a_star

    def reference(x):
        # hand-coded piecewise form for mu = sigma = 1 (exponent rate 2)
        if x >= a:
            return 0.0
        if x > 0.0:
            return (
                2.0 * (a * math.exp(-2.0 * a) - x * math.exp(-2.0 * x))
                + 2.0 * (math.exp(-2.0 * a) - math.exp(-2.0 * x))
                + (a - x)
            )
        return (
            2.0 * a * math.exp(-2.0 * a)
            - 2.0 * (1.0 - math.exp(-2.0 * a))
            + (a + x)
        )

    for x in np.linspace(-1.0, 2.0, 100):
        assert V_at(ev, rule, float(x)) == pytest.approx(reference(float(x)), abs=1e-6)
    assert time.perf_counter() - t0 < 1.0


def test_criterion_03_claims_model_consistency():
    t0 = time.perf_counter()
    ev, rule = solve(CL)
    assert ev.inf_cdf(0.0) == pytest.approx(0.5, abs=1e-14)
    assert rule.regime is Regime.SMOOTH_FIT
    # quadrature route against the closed-form mixture on [0, 10]
    for x in np.linspace(0.0, 10.0, 201):
        assert conv_numeric(ev, float(x)) == pytest.approx(
            conv_analytic(ev, float(x)), abs=1e-8
        )
    for x in np.linspace(-1.0, 2.0, 61):
        assert V_at(ev, rule, float(x)) <= 1e-12
    v_star0 = V_at(ev, rule, 0.0)
    for a in (0.5 * rule.a_star, 1.5 * rule.a_star):
        assert V_a_at(ev, rule.table, a, 0.0) - v_star0 > 1e-4
    assert time.perf_counter() - t0 < 5.0


def test_criterion_04_immediate_stop_regime():
    ev, rule = solve(CL4)
    prof = ev.profile
    assert prof.f0**2 == pytest.approx(0.5625, abs=1e-12)
    assert prof.f0**2 >= 0.5
    assert rule.regime is Regime.CONTINUOUS_FIT_ONLY
    assert rule.a_star == 0.0
    for x in (-2.0, -0.5, -1e-6):
        assert V_at(ev, rule, x) == pytest.approx(x / 3.0, abs=1e-12)
    assert V_at(ev, rule, 0.0) == 0.0
    assert V_prime_at(ev, rule, -1e-12) == pytest.approx(1.0 / 3.0, abs=1e-12)


def test_criterion_05_mean_error_identity():
    # mean |g - tau_{a*}| equals V(0) + E(g) for the optimal rule
    t0 = time.perf_counter()
    ev, rule = solve(BM)
    target = V_at(ev, rule, 0.0) + expected_g(BM)
    cfg = McConfig(n_paths=200000, base_seed=51, dt=2e-3, tail_eps=1e-4)
    rep = estimate_mean_abs_error(BM, cfg, rule.a_star)
    assert abs(rep.estimate - target) <= 3.0 * rep.std_error

    ev, rule = solve(CL)
    target = V_at(ev, rule, 0.0) + expected_g(CL)
    cfg = McConfig(n_paths=200000, base_seed=52, tail_eps=1e-4)
    rep = estimate_mean_abs_error(CL, cfg, rule.a_star)
    assert abs(rep.estimate - target) <= 3.0 * rep.std_error
    assert time.perf_counter() - t0 < 60.0


def test_criterion_06_threshold_is_empirical_argmin():
    # grid {0, 0.1 a*, ..., 2 a*} shares one set of paths per model; the
    # empirical best threshold must land within one grid step of a*
    t0 = time.perf_counter()
    for model, seed in ((BM, 23), (CL, 61)):
        _, rule = solve(model)
        grid = rule.a_star * np.linspace(0.0, 2.0, 21)
        step = 0.1 * rule.a_star
        reports = estimate_mean_abs_error_grid(
            model, McConfig(n_paths=100000, base_seed=seed), list(grid)
        )
        best = grid[int(np.argmin([r.estimate for r in reports]))]
        assert abs(best - rule.a_star) <= step + 1e-12
    # a* = 0 collapses the scaled grid, so scan a fixed grid instead
    grid = np.linspace(0.0, 2.0, 21)
    reports = estimate_mean_abs_error_grid(
        CL4, McConfig(n_paths=100000, base_seed=61), list(grid)
    )
    best = grid[int(np.argmin([r.estimate for r in reports]))]
    assert best <= 0.1 + 1e-12
    assert time.perf_counter() - t0 < 120.0


def test_criterion_07_mean_g_and_passage_time():
    # E(g) = psi''(0+)/psi'(0+)^2 and E(tau_a) = a/psi'(0+)
    _, rule = solve(BM)
    a_bm = rule.a_star
    cfg = McConfig(n_paths=50000, base_seed=71, dt=2e-3, tail_eps=1e-4)
    res = simulate_paths(BM, cfg, a_levels=(a_bm,), exact_crossings=True)
    g, tau = res["g"], res["tau"][:, 0]
    se_g = g.std(ddof=1) / math.sqrt(g.size)
    assert abs(g.mean() - 1.0) <= 3.0 * se_g
    se_tau = tau.std(ddof=1) / math.sqrt(tau.size)
    assert abs(tau.mean() - a_bm) <= 3.0 * se_tau

    cfg = McConfig(n_paths=100000, base_seed=72)
    res = simulate_paths(CL, cfg, a_levels=(1.0,))
    g, tau = res["g"], res["tau"][:, 0]
    se_g = g.std(ddof=1) / math.sqrt(g.size)
    assert abs(g.mean() - 2.0) <= 3.0 * se_g
    se_tau = tau.std(ddof=1) / math.sqrt(tau.size)
    assert abs(tau.mean() - 1.0) <= 3.0 * se_tau


def test_criterion_08_infimum_law_and_laplace_transform():
    ev = ScaleEvaluator(BM)
    depths = sample_infimum(BM, McConfig(n_paths=100000, base_seed=81, tail_eps=1e-4))
    assert ks_statistic(depths, ev.inf_cdf) < ks_critical(100000)

    ev = ScaleEvaluator(CL)
    depths = sample_infimum(CL, McConfig(n_paths=100000, base_seed=82, tail_eps=1e-4))
    d = ks_statistic(
        depths, ev.inf_cdf, cdf_left=lambda x: np.where(x > 0.0, ev.inf_cdf(x), 0.0)
    )
    assert d < ks_critical(100000)

    assert laplace_g_brownian(BM, 0.0) == pytest.approx(1.0, abs=1e-12)
    # one-sided second-order difference at q = 0 (the transform needs q >= 0)
    h = 1e-4
    deriv = (
        4.0 * laplace_g_brownian(BM, h)
        - 3.0 * laplace_g_brownian(BM, 0.0)
        - laplace_g_brownian(BM, 2.0 * h)
    ) / (2.0 * h)
    assert abs(deriv + expected_g(BM)) <= 1e-4


def test_criterion_09_pure_jump_family():
    ev, rule = solve(BetaFamily(2.0))
    assert rule.x0 == pytest.approx(math.log(2.0), abs=1e-10)
    grid = np.linspace(0.0, 2.0 * ev.inf_cdf_quantile(0.995) + 1.0, 2001)
    h_grid = rule.table(grid)
    assert np.all(np.diff(h_grid) >= 0.0)
    # a depth sum can never be smaller than a single depth
    f_grid = np.asarray(ev.inf_cdf(grid))
    assert np.all(h_grid <= f_grid + 1e-9)
    assert rule.a_star >= rule.x0
    assert rule.regime is Regime.SMOOTH_FIT
    assert abs(V_prime_at(ev, rule, rule.a_star - 1e-9)) <= 1e-6

    # distribution-level cross-check of the threshold
    med, sums = infimum_pair_sum_median(
        BetaFamily(2.0), McConfig(n_paths=50000, base_seed=92, tail_eps=1e-4)
    )
    se_med = 1.2533 * sums.std(ddof=1) / math.sqrt(sums.size)
    assert abs(med - rule.a_star) <= 5.0 * se_med

    # moments through the compound-jump engine, away from the diffusion case
    rep = estimate_expected_g(
        BetaFamily(1.5), McConfig(n_paths=15000, base_seed=91, dt=2e-3)
    )
    target = BetaFamily(1.5).psi_derivatives()[1]
    assert abs(rep.estimate - target) <= 5.0 * rep.std_error


def test_criterion_10_cli_output_is_byte_identical(tmp_path):
    runs = {
        "bm": [
            "simulate", "--model", "bm", "--quantity", "expected-g",
            "--paths", "3000", "--seed", "17", "--dt", "0.005",
        ],
        "cl": [
            "simulate", "--model", "cl", "--quantity", "mae",
            "--a", "1.0", "--paths", "5000", "--seed", "17",
        ],
    }
    for tag, argv in runs.items():
        f1 = tmp_path / f"{tag}_first.csv"
        f2 = tmp_path / f"{tag}_second.csv"
        assert main(argv + ["--out", str(f1)]) == 0
        assert main(argv + ["--out", str(f2)]) == 0
        b1, b2 = f1.read_bytes(), f2.read_bytes()
        assert b1 == b2
        assert b1.decode().endswith("\n")
