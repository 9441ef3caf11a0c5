"""Monte Carlo engines: determinism, distributions, and guard rails."""

import math
import tracemalloc

import numpy as np
import pytest
from scipy import integrate

from lastzero import mc
from lastzero.mc import (
    BATCH,
    BETA_JUMP_CUTOFF,
    GROUP,
    McConfig,
    beta_jump_params,
    estimate_expected_g,
    estimate_laplace_g,
    estimate_mean_abs_error,
    estimate_passage_time,
    estimate_value,
    infimum_pair_sum_median,
    ks_critical,
    ks_statistic,
    resolve_barrier,
    sample_infimum,
    sample_path_events,
    simulate_paths,
)
from lastzero.models import BetaFamily, BrownianDrift, CramerLundberg, LevyModel
from lastzero.scale import ScaleEvaluator

BM = BrownianDrift(1.0, 1.0)
CL = CramerLundberg(2.0, 1.0, 1.0)


def _coarse(n, seed):
    return McConfig(n_paths=n, base_seed=seed, dt=5e-3)


@pytest.mark.parametrize("model", [BM, CL, BetaFamily(1.5)], ids=["bm", "cl", "beta"])
def test_streams_independent_of_budget(model):
    # path k's draws depend only on (base_seed, k): growing the budget or
    # simulating a single batch must reproduce earlier paths bit for bit
    small = simulate_paths(model, _coarse(1500, 7), a_levels=(0.8,))
    large = simulate_paths(model, _coarse(4000, 7), a_levels=(0.8,))
    assert np.array_equal(small["g"], large["g"][:1500])
    assert np.array_equal(small["tau"], large["tau"][:1500])
    assert np.array_equal(small["inf_depth"], large["inf_depth"][:1500])
    one = sample_path_events(model, _coarse(4000, 7), 1337, a_list=(0.8,))
    assert one.g == large["g"][1337]
    assert one.tau == tuple(large["tau"][1337])


def test_group_streams_independent_of_budget():
    # budgets that end inside an RNG group: the last group's padding rows
    # are simulated, so the real rows of that group see the same draws
    assert 1000 % GROUP and 1030 % GROUP
    for levels in ((), (0.3, 0.8)):
        small = simulate_paths(BM, _coarse(1000, 5), a_levels=levels)
        large = simulate_paths(BM, _coarse(1030, 5), a_levels=levels)
        for key in ("g", "tau", "inf_depth"):
            assert np.array_equal(small[key], large[key][:1000])
    # paths on either side of a group and of a batch boundary
    large = simulate_paths(BM, _coarse(BATCH + 6, 5), a_levels=(0.8,))
    for i in (GROUP - 1, GROUP, BATCH - 1, BATCH, BATCH + 5):
        one = sample_path_events(BM, _coarse(BATCH + 6, 5), i, a_list=(0.8,))
        assert one.g == large["g"][i]
        assert one.tau == tuple(large["tau"][i])
        assert one.inf_depth == large["inf_depth"][i]


def test_coarse_step_brownian_is_unbiased():
    # the bridge law for zero dips and passages plus the exact continuation
    # after tau_a leave only the O(dt) time stamping: at dt = 0.02 the plain
    # grid scan misses about a tenth of E(g) (12 standard errors here)
    from lastzero.stopping import V_at, expected_g, solve

    ev, rule = solve(BM)
    cfg = McConfig(n_paths=40000, base_seed=11, dt=0.02)
    rep = estimate_expected_g(BM, cfg)
    assert abs(rep.estimate - expected_g(BM)) <= 4.0 * rep.std_error
    rep = estimate_mean_abs_error(BM, cfg, rule.a_star)
    target = V_at(ev, rule, 0.0) + expected_g(BM)
    assert abs(rep.estimate - target) <= 4.0 * rep.std_error


def test_many_thresholds_bounded_memory():
    # passages are found per level from shared per-step arrays, so memory
    # does not grow with the number of thresholds times the block size
    levels = tuple(np.linspace(0.0, 3.0, 200))
    for model in (BM, CL):
        tracemalloc.start()
        try:
            res = simulate_paths(model, _coarse(BATCH, 2), a_levels=levels, exact_crossings=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20
        # every passage time is nondecreasing in the level
        assert np.all(np.diff(res["tau"], axis=1) >= 0.0)


@pytest.mark.parametrize("model", [BM, CL], ids=["bm", "cl"])
def test_unsorted_levels_match_sorted(model):
    # the engines sort the levels and scatter the columns back: thresholds
    # given out of order and twice give the sorted call's columns
    levels = (0.9, 0.2, 1.5, 0.2, 0.0)
    order = np.argsort(levels, kind="stable")
    cfg = _coarse(1100, 4)
    res = simulate_paths(model, cfg, a_levels=levels, want_gint=True)
    ref = simulate_paths(model, cfg, a_levels=np.sort(levels), want_gint=True)
    for key in ("g", "inf_depth"):
        assert np.array_equal(res[key], ref[key])
    for key in ("tau", "gint"):
        assert np.array_equal(res[key][:, order], ref[key])
    assert np.array_equal(res["tau"][:, 1], res["tau"][:, 3])


@pytest.mark.parametrize("nl", [1, 22, 200])
def test_first_passages_matches_reference(nl):
    # the first column whose running maximum passes each level, ties not
    # counting as passed, against a per-row search
    rng = np.random.default_rng(nl)
    runmax = np.maximum.accumulate(rng.standard_normal((300, 64)).cumsum(axis=1), axis=1)
    levels = np.sort(np.concatenate([
        rng.uniform(-3.0, 12.0, nl - min(nl, 3)), runmax[[0, 5, 9], [0, 30, 63]][: nl]
    ]))
    ref = np.array([[np.argmax(row > v) if row[-1] > v else row.size for v in levels]
                    for row in runmax])
    assert np.array_equal(mc._first_passages(levels, runmax), ref)


def test_sample_path_events_guards():
    cfg = _coarse(100, 7)
    with pytest.raises(ValueError):
        sample_path_events(BM, cfg, 100)
    with pytest.raises(ValueError):
        sample_path_events(BM, cfg, -1)


def test_mean_g_brownian():
    # E(g) = psi''/psi'^2 = 1; bridge-event crossings avoid the sqrt(dt) bias
    cfg = McConfig(n_paths=4000, base_seed=3, dt=5e-3)
    rep = estimate_expected_g(BM, cfg, exact_crossings=True)
    assert abs(rep.estimate - 1.0) < 4.0 * rep.std_error + 0.01
    assert rep.n_paths == 4000 and rep.base_seed == 3


def test_mean_g_and_passage_cramer_lundberg():
    # the piecewise-linear engine is exact in time, no step bias at all
    cfg = McConfig(n_paths=20000, base_seed=4)
    rep = estimate_expected_g(CL, cfg)
    assert abs(rep.estimate - 2.0) < 4.0 * rep.std_error
    rep_tau = estimate_passage_time(CL, cfg, a=1.0)
    assert abs(rep_tau.estimate - 1.0) < 4.0 * rep_tau.std_error
    assert rep_tau.a == 1.0


def test_value_estimate_cramer_lundberg():
    from lastzero.stopping import V_at, solve

    ev, rule = solve(CL)
    cfg = McConfig(n_paths=20000, base_seed=9)
    rep = estimate_value(CL, cfg, a=rule.a_star)
    assert abs(rep.estimate - V_at(ev, rule, 0.0)) < 4.0 * rep.std_error


def test_value_estimate_trivial_when_started_at_threshold():
    # no simulation: the rule stops immediately
    cfg = McConfig(n_paths=10**9, base_seed=0)
    rep = estimate_value(BM, cfg, a=0.5, x=0.7)
    assert rep.estimate == 0.0 and rep.std_error == 0.0
    assert rep.a == 0.5 and rep.x == 0.7


def test_laplace_estimate_brownian():
    cfg = McConfig(n_paths=4000, base_seed=6, dt=5e-3)
    rep = estimate_laplace_g(BM, cfg, q=1.0, exact_crossings=True)
    assert abs(rep.estimate - 1.0 / math.sqrt(3.0)) < 4.0 * rep.std_error + 0.01
    for q in (-1.0, math.nan, math.inf):
        for model in (BM, CL):
            with pytest.raises(ValueError):
                estimate_laplace_g(model, cfg, q=q)


def test_infimum_law_brownian():
    cfg = McConfig(n_paths=20000, base_seed=14, tail_eps=1e-4)
    depths = sample_infimum(BM, cfg)
    assert depths.shape == (20000,)
    assert np.all(depths >= 0.0)
    ev = ScaleEvaluator(BM)
    d = ks_statistic(depths, ev.inf_cdf)
    assert d < ks_critical(20000)


def test_infimum_law_cramer_lundberg():
    cfg = McConfig(n_paths=20000, base_seed=13, tail_eps=1e-4)
    depths = sample_infimum(CL, cfg)
    frac_zero = float(np.mean(depths == 0.0))
    assert frac_zero == pytest.approx(0.5, abs=0.015)
    ev = ScaleEvaluator(CL)
    d = ks_statistic(
        depths,
        ev.inf_cdf,
        cdf_left=lambda x: np.where(x > 0.0, ev.inf_cdf(x), 0.0),
    )
    assert d < ks_critical(20000)


def test_pair_median_pairing():
    cfg = McConfig(n_paths=5, base_seed=1, dt=5e-3)
    med, sums = infimum_pair_sum_median(BM, cfg)
    assert sums.shape == (2,)
    depths = sample_infimum(BM, cfg)
    assert sums[0] == depths[0] + depths[1]
    assert sums[1] == depths[2] + depths[3]
    with pytest.raises(ValueError):
        infimum_pair_sum_median(BM, McConfig(n_paths=1, base_seed=1))


def test_ks_statistic_hand_example():
    d = ks_statistic([0.1, 0.5], lambda x: np.clip(x, 0.0, 1.0))
    assert d == pytest.approx(0.5, abs=1e-14)
    d = ks_statistic([0.5], lambda x: np.clip(x, 0.0, 1.0))
    assert d == pytest.approx(0.5, abs=1e-14)
    with pytest.raises(ValueError):
        ks_statistic([], lambda x: x)


def test_ks_statistic_atom_left_limits():
    def cdf(x):
        x = np.asarray(x, float)
        return np.where(x >= 0.0, 0.5 - 0.5 * np.expm1(-np.maximum(x, 0.0)), 0.0)

    def cdf_left(x):
        x = np.asarray(x, float)
        return np.where(x > 0.0, cdf(x), 0.0)

    f1 = 0.5 - 0.5 * math.expm1(-1.0)
    d = ks_statistic([0.0, 1.0], cdf, cdf_left=cdf_left)
    # D+ = 1 - F(1); D- = F(1-) - 1/2; the atom at 0 contributes no D-
    assert d == pytest.approx(max(1.0 - f1, f1 - 0.5), abs=1e-14)


def test_ks_critical_frozen():
    assert ks_critical(10000) == pytest.approx(1.6276236115189504 / 100.0, rel=1e-12)
    assert ks_critical(400, alpha=0.05) == pytest.approx(1.3580986393225507 / 20.0, rel=1e-12)


def test_config_validation():
    with pytest.raises(ValueError):
        McConfig(n_paths=0, base_seed=1)
    with pytest.raises(ValueError):
        McConfig(n_paths=10, base_seed=-1)
    with pytest.raises(ValueError):
        McConfig(n_paths=10, base_seed=1, dt=0.0)
    with pytest.raises(ValueError):
        McConfig(n_paths=10, base_seed=1, tail_eps=0.0)
    with pytest.raises(ValueError):
        McConfig(n_paths=10, base_seed=1, tail_eps=0.02)
    with pytest.raises(ValueError):
        McConfig(n_paths=True, base_seed=1)
    with pytest.raises(ValueError):
        McConfig(n_paths=10, base_seed=False)


def test_simulation_guards():
    cfg = McConfig(n_paths=16, base_seed=1)
    with pytest.raises(ValueError):
        simulate_paths(BM, cfg, start=10.0)
    with pytest.raises(ValueError):
        simulate_paths(BM, cfg, a_levels=(50.0,))
    with pytest.raises(ValueError):
        simulate_paths(BetaFamily(1.5), cfg, exact_crossings=True)
    for model in (BM, CL):
        for bad in (dict(start=math.nan), dict(start=-math.inf),
                    dict(a_levels=(0.5, math.nan)), dict(a_levels=(math.inf,))):
            with pytest.raises(ValueError, match="finite"):
                simulate_paths(model, cfg, **bad)
    # paths that would take more than MAX_STEPS_PER_PATH claims on average
    for model, start in ((CL, -1e300), (CramerLundberg(1.0000001, 1.0, 1.0), 0.0)):
        with pytest.raises(ValueError, match="claims per path"):
            simulate_paths(model, cfg, start=start)
    # one path gives no standard error, so the estimators refuse it
    with pytest.raises(ValueError):
        estimate_expected_g(CL, McConfig(n_paths=1, base_seed=1))


def test_unknown_model_rejected():
    class Odd(LevyModel):
        kind = "odd"

        def psi(self, theta):
            return np.asarray(theta, float)

        def psi_prime(self, theta):
            return np.ones_like(np.asarray(theta, float))

        def psi_derivatives(self):
            return 1.0, 0.0

        def profile(self):
            raise NotImplementedError

        def params_dict(self):
            return {"kind": self.kind}

    with pytest.raises((TypeError, NotImplementedError)):
        simulate_paths(Odd(), McConfig(n_paths=4, base_seed=0))


def test_resolve_barrier_covers_tail():
    for m in (BM, CL, BetaFamily(1.5)):
        ev = ScaleEvaluator(m)
        for eps in (1e-2, 1e-3, 1e-4):
            b = resolve_barrier(ev, eps)
            assert ev.inf_cdf(b) >= 1.0 - eps
            assert b > 0.0


def test_beta_jump_split_reproduces_moments():
    # the split must conserve the drift and the second moment of the jump law
    beta = 1.5
    rate, drift_big, var_small, mu_eff = beta_jump_params(beta)
    c = beta * abs(math.sin(math.pi * beta)) / math.pi
    u_eps = -math.expm1(-BETA_JUMP_CUTOFF)

    def dens(u):
        return c * u ** (-beta - 1.0) * (1.0 - u) ** (beta - 1.0)

    rate_ref, _ = integrate.quad(dens, u_eps, 1.0, limit=200)
    assert rate == pytest.approx(rate_ref, rel=1e-9)
    drift_ref, _ = integrate.quad(lambda u: math.log1p(-u) * dens(u), u_eps, 1.0, limit=200)
    assert drift_big == pytest.approx(drift_ref, rel=1e-9)
    # adjusted drift restores E X_1 = psi'(0+) = 1
    assert mu_eff + drift_big == pytest.approx(1.0, abs=1e-9)
    m2_big, _ = integrate.quad(
        lambda u: math.log1p(-u) ** 2 * dens(u), u_eps, 1.0, limit=200
    )
    p2 = BetaFamily(beta).psi_derivatives()[1]
    assert var_small + m2_big == pytest.approx(p2, abs=1e-8)
