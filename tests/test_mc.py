"""Monte Carlo engines: determinism, distributions, and guard rails."""

import math
import tracemalloc
from dataclasses import replace
from pathlib import Path

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
from lastzero.stopping import V_a_at, V_at, expected_g, solve

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


def test_pool_draws_independent_of_other_groups():
    # a group's uniforms, and where its stream stands after them, depend on
    # its own requests alone, however many values the other groups of the
    # batch ask for in the same requests
    from lastzero.bridge import RESERVE, _Pool

    def run(others):
        gens = [mc._batch_gen(3, g) for g in range(5)]
        first = np.random.default_rng(3).random((5, RESERVE))
        pool = _Pool(gens, first)
        got = []
        for n in (200, 200, 300, 5, 40):
            rows = np.concatenate([np.zeros(n, np.intp)]
                                  + [np.full(others, GROUP * g) for g in range(1, 5)])
            got.append(pool.take(rows)[:n])
        return np.concatenate(got + [gens[0].random(3)])

    ref = run(0)
    for others in (1, 30, 100, 400):
        assert np.array_equal(run(others), ref)


def test_multi_block_groups_match_single_paths(monkeypatch):
    # a many-threshold run whose slowest paths take several blocks: every
    # path of the groups at the batch's ends and of the slowest path's
    # group is reproduced when simulated alone
    running = mc._Batch.running
    blocks = [0]

    def counted(self):
        idx = running(self)
        blocks[0] += bool(idx.size)
        return idx

    a = solve(BM)[1].a_star
    levels = tuple(a * np.linspace(0.0, 2.0, 21))
    cfg = McConfig(n_paths=BATCH, base_seed=19)
    monkeypatch.setattr(mc._Batch, "running", counted)
    full = simulate_paths(BM, cfg, a_levels=levels)
    monkeypatch.setattr(mc._Batch, "running", running)
    assert blocks[0] > 1
    slow = int(np.argmax(full["tau"][:, -1])) // GROUP
    for grp in sorted({0, slow, BATCH // GROUP - 1}):
        for i in range(grp * GROUP, grp * GROUP + GROUP):
            one = sample_path_events(BM, cfg, i, a_list=levels)
            assert one.g == full["g"][i]
            assert one.tau == tuple(full["tau"][i])
            assert one.inf_depth == full["inf_depth"][i]


def test_coarse_step_brownian_is_unbiased():
    # the bridge law for zero dips and passages plus the exact continuation
    # after tau_a leave only the O(dt) time stamping: at dt = 0.02 the plain
    # grid scan misses about a tenth of E(g) (12 standard errors here)
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


def test_infimum_scale_covariance():
    # every Brownian run steps in model units (time in sigma^2/mu^2, space
    # in sigma^2/mu) and stamps its events exactly, so every Brownian model
    # draws the same infima, and the same g and tau from levels in those
    # units, with thresholds (a* and the small 0.1 a*, whose steps split)
    # and without
    cfg = McConfig(n_paths=2048, base_seed=21)
    a = solve(BM)[1].a_star
    ref = sample_infimum(BM, cfg)
    ref_a = simulate_paths(BM, cfg, a_levels=(a, 0.1 * a))
    ref_g = simulate_paths(BM, cfg)["g"]
    for model, mu, sig in (
        (BrownianDrift(0.1, 1.0), 0.1, 1.0),
        (BrownianDrift(10.0, 1.0), 10.0, 1.0),
        (BrownianDrift(1.0, 3.0), 1.0, 3.0),
        (BrownianDrift(0.3, 2.0), 0.3, 2.0),
        (BetaFamily(2.0), 1.0, math.sqrt(2.0)),  # BrownianDrift(1, sqrt 2)
    ):
        np.testing.assert_allclose(sample_infimum(model, cfg) * mu / sig**2, ref, rtol=1e-11)
        time = (sig / mu) ** 2
        res = simulate_paths(model, cfg, a_levels=(a * sig**2 / mu, 0.1 * a * sig**2 / mu))
        np.testing.assert_allclose(res["g"] / time, ref_a["g"], rtol=1e-11)
        np.testing.assert_allclose(res["tau"] / time, ref_a["tau"], rtol=1e-11)
        np.testing.assert_allclose(simulate_paths(model, cfg)["g"] / time, ref_g, rtol=1e-11)


def test_explicit_infimum_step_is_honoured():
    # an explicit step replaces the Brownian route's default one, and the
    # bridge laws keep the infimum exact at it
    cfg = McConfig(n_paths=4096, base_seed=23)
    fine = sample_infimum(BM, cfg, step=0.04)
    assert np.array_equal(fine, simulate_paths(BM, cfg, step=0.04)["inf_depth"])
    assert not np.array_equal(fine, sample_infimum(BM, cfg))
    d = ks_statistic(fine, lambda x: -np.expm1(-2.0 * x))  # Exp(2 mu / sigma^2)
    assert d < ks_critical(fine.size)
    with pytest.raises(ValueError):
        simulate_paths(BM, cfg, step=0.0)
    # the jump route takes it as its grid step
    beta = BetaFamily(1.5)
    cfg = replace(cfg, n_paths=40)
    assert np.array_equal(sample_infimum(beta, cfg, step=1e-2),
                          simulate_paths(beta, replace(cfg, dt=1e-2))["inf_depth"])


def test_infimum_cost_independent_of_scale(monkeypatch):
    # every Brownian model reaches b in the same number of steps, so the
    # infimum sampler runs as many blocks whatever mu is
    running = mc._Batch.running
    blocks = []

    def counted(self):
        idx = running(self)
        blocks[-1] += bool(idx.size)
        return idx

    monkeypatch.setattr(mc._Batch, "running", counted)
    for mu in (0.1, 1.0, 10.0):
        blocks.append(0)
        sample_infimum(BrownianDrift(mu, 1.0), McConfig(n_paths=4096, base_seed=8))
    assert blocks[0] == blocks[1] == blocks[2] > 0


def test_threshold_cost_independent_of_scale(monkeypatch):
    # threshold runs step in model units too: MAE at a* runs as many blocks
    # whatever mu is
    running = mc._Batch.running
    blocks = []

    def counted(self):
        idx = running(self)
        blocks[-1] += bool(idx.size)
        return idx

    monkeypatch.setattr(mc._Batch, "running", counted)
    for mu in (0.1, 1.0, 10.0):
        blocks.append(0)
        model = BrownianDrift(mu, 1.0)
        estimate_mean_abs_error(model, McConfig(n_paths=4096, base_seed=8), solve(model)[1].a_star)
    assert blocks[0] == blocks[1] == blocks[2] > 0


@pytest.mark.parametrize("mu", [10.0, 30.0])
def test_brownian_events_unbiased_at_any_scale(mu):
    # passages and the last zero are drawn at their exact times within a
    # step, so E(g) and E|g - tau_a*| carry no step bias however steep the
    # drift (stamped at the end of 1e-3 steps they were off by +16 and -8
    # standard errors at mu = 10, by +196 and -91 at mu = 30)
    model = BrownianDrift(mu, 1.0)
    ev, rule = solve(model)
    n = 200_000
    res = simulate_paths(model, McConfig(n_paths=n, base_seed=int(mu)), a_levels=(rule.a_star,))
    g, err = res["g"], np.abs(res["g"] - res["tau"][:, 0])
    for vals, want in ((g, expected_g(model)), (err, V_at(ev, rule, 0.0) + expected_g(model))):
        assert abs(vals.mean() - want) <= 4.0 * vals.std(ddof=1) / math.sqrt(n)


def test_value_unbiased_at_steep_drift():
    # gint = |g - tau| - g carries no step bias at any scale (a left Riemann
    # sum at a step of 1e-3 was -409 standard errors off at BM(30, 1) and
    # 2e5 paths)
    model = BrownianDrift(30.0, 1.0)
    ev, rule = solve(model)
    rep = estimate_value(model, McConfig(n_paths=20_000, base_seed=30), rule.a_star)
    assert abs(rep.estimate - V_at(ev, rule, 0.0)) <= 4.0 * rep.std_error


def test_value_unbiased_over_starts_and_levels():
    # E|g - tau_a| = E(g) + V_a(x) from every start x and at every level a,
    # so the mean of |g - tau_a| - g is V_a(x), which is 0 for x >= a
    for i, (model, x, factors) in enumerate((
        (BM, -0.5, (0.1, 1.0, 2.0)),
        (BM, 0.0, (0.1, 1.0, 2.0)),
        (BM, 0.5 * A_STAR_BM, (0.1, 1.0, 2.0)),
        (BetaFamily(2.0), 0.0, (1.0,)),
    )):
        ev, rule = solve(model)
        levels = rule.a_star * np.array(factors)
        res = simulate_paths(model, McConfig(n_paths=50_000, base_seed=40 + i), start=x,
                             a_levels=levels, want_gint=True)
        for a, v in zip(levels, res["gint"].T):
            se = v.std(ddof=1) / math.sqrt(v.size)
            assert abs(v.mean() - V_a_at(ev, rule.table, a, x)) <= 4.0 * se, (i, a)


def test_value_run_takes_the_threshold_skeleton():
    # a value run draws the paths of the same threshold run, and its gint
    # is |g - tau| - g of them
    cfg = McConfig(n_paths=300, base_seed=8)
    kw = dict(start=-0.5, a_levels=tuple(A_STAR_BM * np.array([0.1, 1.0, 2.0])))
    res = simulate_paths(BM, cfg, want_gint=True, **kw)
    ref = simulate_paths(BM, cfg, **kw)
    for key in ("g", "tau", "inf_depth"):
        assert np.array_equal(res[key], ref[key]), key
    g = res["g"][:, None]
    assert np.array_equal(res["gint"], np.abs(g - res["tau"]) - g)


def test_small_threshold_mean_abs_error():
    # at a = 0.1 a* zero and the threshold lie within one step's reach of
    # each other, so the steps that may hold both the last zero and the
    # passage are split until they do not
    ev, rule = solve(BM)
    a = 0.1 * rule.a_star
    rep = estimate_mean_abs_error(BM, McConfig(n_paths=50_000, base_seed=12), a)
    target = V_a_at(ev, rule.table, a, 0.0) + expected_g(BM)
    assert abs(rep.estimate - target) <= 4.0 * rep.std_error


@pytest.mark.parametrize("model, factors, seed", [
    (BM, (1.0, 2.0), 44), (BetaFamily(2.0), (1.0,), 45)])
def test_creeping_identities_brownian(model, factors, seed):
    # X(tau_a) = a, so the path after tau_a is a fresh path from a:
    # P(g < tau_a) = F(a) and E(g - tau_a)+ = E_a(g).  Together they check
    # the joint law of g and tau across the stop at a block's end and the
    # last zero drawn in its block
    ev, rule = solve(model)
    levels = rule.a_star * np.array(factors)
    n = 200_000
    res = simulate_paths(model, McConfig(n_paths=n, base_seed=seed), a_levels=levels)
    for a, tau in zip(levels, res["tau"].T):
        for vals, want in ((res["g"] < tau, ev.inf_cdf(a)),
                           (np.maximum(res["g"] - tau, 0.0),
                            expected_g(model.brownian_equivalent(), a))):
            assert abs(vals.mean() - want) <= 4.0 * vals.std(ddof=1) / math.sqrt(n), a


def test_event_and_jump_routes_unchanged():
    # the CramerLundberg engine and the Beta jump route draw and compute as
    # they did before the Brownian route stamped events exactly; the arrays
    # were saved from that version
    ref = np.load(Path(__file__).parent / "data" / "cl_beta_paths.npz")
    runs = {
        "cl_levels": (CL, McConfig(n_paths=1100, base_seed=4),
                      dict(a_levels=(0.9, 0.2, 1.5, 0.0), want_gint=True)),
        "cl_start": (CL, McConfig(n_paths=1100, base_seed=4),
                     dict(start=-0.5, a_levels=(0.7,), want_gint=True)),
        "cl_none": (CL, McConfig(n_paths=1100, base_seed=4), {}),
        "beta_levels": (BetaFamily(1.5), McConfig(n_paths=40, base_seed=5, dt=1e-2),
                        dict(a_levels=(0.3, 0.8), want_gint=True)),
        "beta_none": (BetaFamily(1.5), McConfig(n_paths=40, base_seed=5, dt=1e-2), {}),
    }
    for tag, (model, cfg, kw) in runs.items():
        res = simulate_paths(model, cfg, **kw)
        for key, arr in res.items():
            assert np.array_equal(arr, ref[f"{tag}_{key}"]), (tag, key)


A_STAR_BM = 0.8391734950083061  # a* of BrownianDrift(1, 1)


def brownian_runs():
    """The Brownian-route runs whose arrays ``brownian_paths.npz`` holds, by
    key prefix.  Each run's arrays can be regenerated on their own: save
    ``simulate_paths(model, cfg, **kw)[key]`` under ``f"{tag}_{key}"``.
    All 32 arrays were saved again when every run came to stop at the end
    of the block in which it passes its top level, and each block's last
    zero came to be drawn in that block."""
    cfg = McConfig(n_paths=300, base_seed=8)
    return {
        "bm_astar": (BM, cfg, dict(a_levels=(A_STAR_BM,))),
        # 0.1 a* is within reach of 0, so steps near both are split
        "bm_grid": (BM, cfg, dict(a_levels=tuple(A_STAR_BM * np.array([1.0, 0.1, 2.0, 0.5, 1.5])))),
        "bm_none": (BM, cfg, {}),
        "bm_step": (BM, cfg, dict(a_levels=(0.3, A_STAR_BM), step=0.04)),
        "bm_none_step": (BM, cfg, dict(step=0.04)),
        "bm_start_gint": (BM, McConfig(n_paths=100, base_seed=8),
                          dict(start=-0.5, a_levels=(A_STAR_BM,), want_gint=True)),
        "beta2": (BetaFamily(2.0), cfg, dict(a_levels=(0.4, 2.0 * A_STAR_BM))),
        "bm_batches": (BM, McConfig(n_paths=1100, base_seed=9), dict(a_levels=(A_STAR_BM,))),
    }


def test_brownian_route_unchanged():
    # the Brownian route (BM, and Beta(2) through its Brownian equivalent)
    # draws and computes as it did when the arrays were saved (see
    # ``brownian_runs``)
    ref = np.load(Path(__file__).parent / "data" / "brownian_paths.npz")
    for tag, (model, cfg, kw) in brownian_runs().items():
        res = simulate_paths(model, cfg, **kw)
        for key, arr in res.items():
            assert np.array_equal(arr, ref[f"{tag}_{key}"]), (tag, key)


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


def test_result_arrays_over_budget_refused_first(monkeypatch):
    # the byte budget is checked before the batch list or any result array
    # is built: 10^12 paths would need 16 TB of g and inf_depth alone
    class Reached(Exception):
        pass

    def todo(*args):
        raise Reached

    monkeypatch.setattr(mc, "_todo", todo)
    for model in (BM, CL, BetaFamily(1.5)):
        with pytest.raises(ValueError, match="bytes of results"):
            simulate_paths(model, McConfig(n_paths=10**12, base_seed=1))
    # tau and gint count per threshold
    most = mc.MAX_RESULT_BYTES // (8 * (2 + 2 * 3))
    with pytest.raises(ValueError, match="bytes of results"):
        simulate_paths(BM, McConfig(n_paths=most + 1, base_seed=1), a_levels=(0.1, 0.2, 0.3))
    with pytest.raises(Reached):
        simulate_paths(BM, McConfig(n_paths=most, base_seed=1), a_levels=(0.1, 0.2, 0.3))


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
