"""Self-tests of the benchmark harness (not of the package).

    python3 perfbench/selftest.py        # from the repository root

Checks that the oracles reproduce the package's documented defaults, that
a seed fixes the inputs while other seeds keep each workload's mix and
sizes, that every metric the benchmark defines is declared in
BENCHMARK.json with its unit, and that the tracer's spans nest and add up.
"""

import json
import os
import sys
import unittest
from collections import Counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import oracles  # noqa: E402
import workloads  # noqa: E402

# every metric the benchmark defines, with its unit
END_TO_END = {
    "setup_s": "s", "ops_per_s": "1/s", "op_p50_ms": "ms", "time_to_se_s": "s",
    "ok_ratio": "1", "peak_rss_mb": "MB",
}
MODES = ("grid", "grid_exact", "grid_gint", "grid_jump", "bridge_infimum", "events")
PER_LAYER = {
    "import.lastzero_ms": "ms", "import.scipy_integrate_ms": "ms",
    "import.scipy_optimize_ms": "ms", "import.scipy_special_ms": "ms",
    "models.phi.calls": "count", "models.phi.p50_us": "us", "models.psi.calls_per_phi": "1",
    "scale.w.calls": "count", "scale.w.self_ms": "ms",
    "scale.inf_cdf.calls": "count", "scale.inf_cdf.self_ms": "ms",
    "convolution.build_table.self_ms": "ms", "convolution.conv_numeric.calls": "count",
    "convolution.conv_numeric.self_ms": "ms", "convolution.w_calls_per_h": "1",
    "stopping.solve.p50_ms": "ms", "stopping.solve.self_ms": "ms",
    "stopping.h_evals_per_solve": "1", "stopping.build_value_curve.self_ms": "ms",
    "stopping.V_a_at.calls": "count", "stopping.a_star.max_rel_err": "1",
    **{f"mc.{m}.paths_per_s": "1/s" for m in MODES},
    **{f"mc.{m}.peak_alloc_mb": "MB" for m in MODES},
    "mc.paths_per_s": "1/s",
    **{f"cli.{c}.p50_ms": "ms" for c in ("solve", "curve", "simulate", "verify")},
    "cli.self_ms": "ms", "cli.output_bytes": "B",
    "trace.overhead_s": "s", "repo.src_lines": "count",
}


class Oracles(unittest.TestCase):
    def test_brownian_default(self):
        a = oracles.a_star({"kind": "bm", "mu": 1.0, "sigma": 1.0})
        self.assertTrue(f"{a:.12f}".startswith("0.83917349500"), a)
        # the closed form and the mixture bisection agree (r = 1 is BM)
        self.assertAlmostEqual(oracles.mixture_median_u(1.0) / 2.0, a, delta=1e-15)

    def test_claims_defaults(self):
        cl4 = {"kind": "cl", "mu": 4.0, "lam": 1.0, "rho": 1.0}
        self.assertTrue(oracles.continuous_fit(cl4))
        self.assertEqual(oracles.a_star(cl4), 0.0)
        cl2 = {"kind": "cl", "mu": 2.0, "lam": 1.0, "rho": 1.0}
        self.assertFalse(oracles.continuous_fit(cl2))
        self.assertAlmostEqual(oracles.a_star(cl2), 1.1661477520733816, delta=1e-12)
        self.assertAlmostEqual(oracles.h(cl2, oracles.a_star(cl2)), 0.5, delta=1e-15)

    def test_beta_two_is_brownian(self):
        # Beta(2) has the law of BM(1, sqrt 2): a* = xi
        self.assertAlmostEqual(oracles.beta_a_star(2.0), oracles.XI_BM, delta=1e-14)

    def test_value_at_zero_brownian(self):
        # hand-coded V(0) for mu = sigma = 1: 2a e^{-2a} - 2(1 - e^{-2a}) + a
        import math

        spec = {"kind": "bm", "mu": 1.0, "sigma": 1.0}
        a = oracles.a_star(spec)
        want = 2 * a * math.exp(-2 * a) - 2 * (1 - math.exp(-2 * a)) + a
        self.assertAlmostEqual(oracles.value(spec, a, 0.0), want, delta=1e-14)


class Inputs(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        for wl in workloads.WORKLOADS:
            self.assertEqual(json.dumps(workloads.make_inputs(wl, 7)),
                             json.dumps(workloads.make_inputs(wl, 7)))
            self.assertNotEqual(json.dumps(workloads.make_inputs(wl, 7)),
                                json.dumps(workloads.make_inputs(wl, 8)))

    def test_sweep_mix_is_seed_independent(self):
        for seed in range(5):
            inp = workloads.make_inputs("analytic-sweep", seed)
            reqs = inp["requests"]
            kinds = Counter(r["model"]["kind"] for r in reqs)
            cont = sum(oracles.continuous_fit(r["model"]) for r in reqs)
            self.assertEqual(kinds, {"bm": 100, "cl": 100})
            self.assertEqual(cont, workloads.N_CL_CONT)
            n_bm, n_smooth, n_cont = workloads.TIMED_MIX
            timed = [r["model"] for r in inp["timed_requests"]]
            self.assertEqual(Counter(m["kind"] for m in timed),
                             {"bm": n_bm, "cl": n_smooth + n_cont})
            self.assertEqual(sum(map(oracles.continuous_fit, timed)), n_cont)
            betas = [r["model"] for r in inp["beta_requests"]]
            self.assertEqual(len(betas), len(workloads.BETA_CELLS))
            for spec, (lo, hi) in zip(betas, workloads.BETA_CELLS):
                self.assertTrue(lo <= spec["beta"] <= hi)
            per_model = Counter(r["model"]["beta"] for r in inp["beta_queries"])
            self.assertEqual(per_model, {b["beta"]: workloads.BETA_QUERIES for b in betas})
            a = [oracles.a_star(r["model"]) for r in reqs if r["model"]["kind"] != "beta"]
            a = [x for x in a if x > 0]
            self.assertLess(min(a), 1e-7)
            self.assertGreater(max(a), 1e2)

    def test_mc_and_cli_sizes_are_seed_independent(self):
        for seed in range(5):
            mc = workloads.make_inputs("mc-grid", seed)
            self.assertEqual(len(mc["grid"]), 21)
            self.assertEqual(set(mc["seeds"]), set(workloads.MC_KINDS))
            self.assertEqual(mc["a_star"], oracles.a_star(workloads.MC_BM))
            sets = workloads.make_inputs("claims-cli", seed)["sets"]
            regimes = [oracles.continuous_fit(s["model"]) for s in sets]
            self.assertEqual(regimes, [True, True, False, False])
            for s in sets:
                self.assertEqual(len(s["mae_a"]), 21)
                # the curve's x range stays [-1, 2]: a fixed 3001-point table
                self.assertLess(3.0 * oracles.a_star(s["model"]), 2.0)


class Declared(unittest.TestCase):
    def test_metrics_declared_with_units(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            spec = json.load(fh)
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]}, END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]}, PER_LAYER)
        self.assertEqual([w["name"] for w in spec["workloads"]], list(workloads.WORKLOADS))
        setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"][0]
        self.assertEqual(setup["bound"], max(m["bound"] for m in spec["end_to_end"]))


class Tracing(unittest.TestCase):
    def test_spans_nest_and_self_time_adds_up(self):
        sys.path.insert(0, os.path.join(ROOT, "src"))
        import lastzero
        import lastzero.cli  # noqa: F401

        import tracing

        tracer = tracing.Tracer()
        tracer.install()
        try:
            ev, rule = lastzero.solve(lastzero.CramerLundberg(2.0, 1.0, 1.0))
            lastzero.V_at(ev, rule, 0.0)
        finally:
            tracer.uninstall()
        self.assertIs(lastzero.solve, lastzero.stopping.solve)
        self.assertFalse(hasattr(lastzero.solve, "__wrapped__"))
        names = [s[1] for s in tracer.spans]
        self.assertEqual(names[0], "stopping.solve")
        self.assertIn("convolution.build_table", names)
        for s in tracer.spans:
            self.assertLessEqual(s[6], s[3] - s[2] + 1e-9)  # children fit inside
            if s[4] >= 0:
                parent = tracer.spans[s[4]]
                self.assertLessEqual(parent[2], s[2])
                self.assertLessEqual(s[3], parent[3])
        m = tracer.layer_metrics()
        self.assertEqual(m["stopping.V_a_at.calls"], 1)
        self.assertGreater(m["stopping.h_evals_per_solve"], 1)


if __name__ == "__main__":
    unittest.main()
