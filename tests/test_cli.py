"""Command line interface: formats, exit codes, determinism."""

import json
import math
import time

import pytest
from scipy import integrate

from lastzero.cli import main
from lastzero.convolution import conv_analytic
from lastzero.models import BetaFamily
from lastzero.scale import ScaleEvaluator


def run(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr().out
    return rc, out


def csv_rows(text):
    lines = text.strip().split("\n")
    header = lines[0].split(",")
    return header, [dict(zip(header, line.split(","))) for line in lines[1:]]


def test_solve_json_brownian(capsys):
    rc, out = run(capsys, "solve", "--model", "bm")
    assert rc == 0
    rep = json.loads(out)
    assert rep["model"] == {"kind": "bm", "mu": 1.0, "sigma": 1.0}
    assert rep["a_star"] == pytest.approx(0.8391734950083306, abs=1e-9)
    assert rep["regime"] == "smooth-fit"
    assert rep["h_at_a_star"] == pytest.approx(0.5, abs=1e-9)
    assert rep["vstar_at_zero"] == pytest.approx(
        rep["value_at_zero"] + rep["expected_g"], abs=1e-12
    )
    assert rep["solver"] == {"root_tol": 1e-10}
    assert rep["expected_tau_a_star"] == pytest.approx(rep["a_star"], abs=1e-12)


def test_solve_csv_cramer_lundberg(capsys):
    rc, out = run(capsys, "solve", "--model", "cl", "--format", "csv")
    assert rc == 0
    header, rows = csv_rows(out)
    assert header == ["key", "value"]
    kv = {r["key"]: r["value"] for r in rows}
    assert kv["model.kind"] == "cl"
    assert float(kv["a_star"]) == pytest.approx(1.1661477520733816, abs=1e-9)
    assert kv["regime"] == "smooth-fit"
    assert float(kv["f0"]) == pytest.approx(0.5)


def test_solve_continuous_fit_report(capsys):
    rc, out = run(capsys, "solve", "--model", "cl", "--mu", "4")
    assert rc == 0
    rep = json.loads(out)
    assert rep["a_star"] == 0.0
    assert rep["regime"] == "continuous-fit-only"
    assert rep["h_at_a_star"] is None
    assert rep["f0"] == pytest.approx(0.75)
    assert rep["psi_prime0"] == pytest.approx(3.0)
    assert rep["expected_g"] == pytest.approx(2.0 / 9.0)
    assert rep["expected_tau_a_star"] == 0.0


def test_solve_beta_family(capsys):
    rc, out = run(capsys, "solve", "--model", "beta", "--beta", "1.5")
    assert rc == 0
    rep = json.loads(out)
    assert rep["a_star"] == pytest.approx(0.8694492629410581, abs=1e-8)
    assert rep["h_at_a_star"] == pytest.approx(0.5, abs=1e-9)
    assert rep["solver"] == {"root_tol": 1e-10}


def test_config_file_with_flag_override(tmp_path, capsys):
    cfgfile = tmp_path / "model.json"
    cfgfile.write_text(json.dumps({"kind": "cl", "mu": 2.0, "lam": 1.0, "rho": 1.0}))
    rc, out = run(capsys, "solve", "--config", str(cfgfile))
    assert rc == 0
    assert json.loads(out)["f0"] == pytest.approx(0.5)
    rc, out = run(capsys, "solve", "--config", str(cfgfile), "--mu", "4")
    assert rc == 0
    rep = json.loads(out)
    assert rep["model"]["mu"] == 4.0
    assert rep["f0"] == pytest.approx(0.75)


def test_config_without_kind_needs_model_flag(tmp_path, capsys):
    cfgfile = tmp_path / "params.json"
    cfgfile.write_text(json.dumps({"mu": 1.0, "sigma": 2.0}))
    rc, _ = run(capsys, "solve", "--config", str(cfgfile))
    assert rc == 2
    rc, out = run(capsys, "solve", "--config", str(cfgfile), "--model", "bm")
    assert rc == 0
    assert json.loads(out)["model"]["sigma"] == 2.0


def test_invalid_parameters_exit_2(tmp_path, capsys):
    rc, _ = run(capsys, "solve", "--model", "bm", "--sigma", "-1")
    assert rc == 2
    # parameter from the wrong family
    rc, _ = run(capsys, "solve", "--model", "cl", "--beta", "1.5")
    assert rc == 2
    bad = tmp_path / "broken.json"
    bad.write_text("{not json")
    rc, _ = run(capsys, "solve", "--model", "bm", "--config", str(bad))
    assert rc == 2


def test_usage_errors_exit_2(capsys):
    assert main(["solve", "--model", "nope"]) == 2
    assert main([]) == 2
    capsys.readouterr()


def test_version_exits_zero(capsys):
    assert main(["--version"]) == 0
    assert "lastzero" in capsys.readouterr().out


def test_curve_default_thresholds(capsys):
    rc, out = run(capsys, "curve", "--model", "bm", "--step", "0.5")
    assert rc == 0
    header, rows = csv_rows(out)
    assert header[:4] == ["x", "inf_cdf", "gain", "conv"]
    v_cols = [c for c in header if c.startswith("V[a=")]
    assert len(v_cols) == 3
    assert float(rows[0]["x"]) == -1.0
    # the middle threshold is a*; its value at every x is the smallest
    at_zero = [r for r in rows if float(r["x"]) == 0.0][0]
    vals = [float(at_zero[c]) for c in v_cols]
    assert vals[1] <= min(vals) + 1e-12
    assert all(float(r[v_cols[1]]) <= 1e-12 for r in rows)


def test_curve_json_custom_thresholds(capsys):
    rc, out = run(
        capsys,
        "curve", "--model", "cl", "--format", "json",
        "--a", "0.5", "--a", "1.2",
        "--xmin", "-0.5", "--xmax", "1.5", "--step", "0.25",
    )
    assert rc == 0
    rep = json.loads(out)
    assert rep["thresholds"] == [0.5, 1.2]
    assert len(rep["x"]) == 9
    assert rep["x"][0] == pytest.approx(-0.5)
    assert rep["x"][-1] == pytest.approx(1.5)
    assert set(rep["values"]) == {"V[a=0.5]", "V[a=1.2]"}
    conv = rep["conv"]
    assert all(b >= a - 1e-12 for a, b in zip(conv, conv[1:]))


def test_curve_threshold_far_beyond_a_star(capsys):
    # V_9(x) = 2 int_x^9 H - (9 - x) for BM(1, 1), where int_0^y H = y - 1 + (1 + y) e^{-2y}
    rc, out = run(
        capsys,
        "curve", "--model", "bm", "--format", "json",
        "--a", "9.0", "--xmax", "2.0", "--step", "0.5",
    )
    assert rc == 0
    rep = json.loads(out)
    assert rep["thresholds"] == [9.0]

    def int_h(y):
        return y - 1.0 + (1.0 + y) * math.exp(-2.0 * y)

    for x, v in zip(rep["x"], rep["values"]["V[a=9]"]):
        base = max(x, 0.0)
        want = 2.0 * (int_h(9.0) - int_h(base)) - (9.0 - base) + min(x, 0.0)
        assert v == pytest.approx(want, abs=1e-12)
    rc, out = run(
        capsys,
        "curve", "--model", "beta", "--beta", "1.5", "--format", "json",
        "--a", "9.0", "--xmax", "2.0", "--step", "0.5",
    )
    assert rc == 0
    rep = json.loads(out)
    ev = ScaleEvaluator(BetaFamily(1.5))
    for x, v in zip(rep["x"], rep["values"]["V[a=9]"]):
        base = max(x, 0.0)
        int_h, _ = integrate.quad(lambda y: conv_analytic(ev, y), base, 9.0, epsabs=1e-13)
        assert v == pytest.approx(2.0 * int_h - (9.0 - base) + min(x, 0.0), abs=1e-9)


def test_curve_bad_grid_exits_2(capsys):
    rc, _ = run(capsys, "curve", "--model", "bm", "--step", "0")
    assert rc == 2
    rc, _ = run(capsys, "curve", "--model", "bm", "--a", "-1")
    assert rc == 2
    # a grid beyond the row cap is refused before anything is allocated
    rc, _ = run(capsys, "curve", "--model", "bm", "--step", "1e-9")
    assert rc == 2


def test_simulate_output_is_reproducible(tmp_path, capsys):
    f1, f2 = tmp_path / "a.csv", tmp_path / "b.csv"
    argv = [
        "simulate", "--model", "cl", "--quantity", "expected-g",
        "--paths", "2000", "--seed", "5",
    ]
    assert main(argv + ["--out", str(f1)]) == 0
    assert main(argv + ["--out", str(f2)]) == 0
    capsys.readouterr()
    assert f1.read_bytes() == f2.read_bytes()
    header, rows = csv_rows(f1.read_text())
    assert rows[0]["quantity"] == "expected_g"
    est, se = float(rows[0]["estimate"]), float(rows[0]["std_error"])
    assert abs(est - 2.0) < 4.0 * se


def test_simulate_mae_grid(capsys):
    rc, out = run(
        capsys,
        "simulate", "--model", "cl", "--quantity", "mae",
        "--a", "0.8", "--a", "1.2", "--paths", "2000", "--seed", "3",
    )
    assert rc == 0
    header, rows = csv_rows(out)
    assert [r["quantity"] for r in rows] == ["mean_abs_error", "mean_abs_error"]
    assert [float(r["a"]) for r in rows] == [0.8, 1.2]
    assert all(float(r["estimate"]) > 0.0 for r in rows)


def test_simulate_infimum_json(capsys):
    rc, out = run(
        capsys,
        "simulate", "--model", "cl", "--quantity", "infimum",
        "--paths", "512", "--seed", "2", "--format", "json",
    )
    assert rc == 0
    rep = json.loads(out)
    assert rep["quantity"] == "infimum_depth"
    assert len(rep["depths"]) == 512
    assert all(d >= 0.0 for d in rep["depths"])


def test_simulate_pair_median(capsys):
    rc, out = run(
        capsys,
        "simulate", "--model", "cl", "--quantity", "pair-median",
        "--paths", "4000", "--seed", "6",
    )
    assert rc == 0
    _, rows = csv_rows(out)
    assert rows[0]["quantity"] == "pair_median"
    est, se = float(rows[0]["estimate"]), float(rows[0]["std_error"])
    assert abs(est - 1.1661477520733816) < 5.0 * se


def test_simulate_bad_tail_eps_exits_2(capsys):
    rc, _ = run(
        capsys,
        "simulate", "--model", "cl", "--paths", "100", "--tail-eps", "0.5",
    )
    assert rc == 2


def test_simulate_refuses_runaway_step_count(capsys):
    # dt = 1e-300 would need about 3e303 steps per path; refused before the
    # first block
    assert main([
        "simulate", "--model", "bm", "--quantity", "expected-g",
        "--paths", "2", "--dt", "1e-300",
    ]) == 2
    assert "steps per path" in capsys.readouterr().err


def test_simulate_refuses_runaway_claim_count(capsys):
    # the event engine's paths would need about 1e300 and 7e14 claims each
    # (a start far below 0, and load 1 - 1e-7); refused before the first block
    for argv in (
        ["--quantity", "value", "--x=-1e300", "--paths", "100"],
        ["--mu", "1.0000001", "--quantity", "mae", "--paths", "16"],
    ):
        t0 = time.perf_counter()
        assert main(["simulate", "--model", "cl", *argv]) == 2
        assert time.perf_counter() - t0 < 10.0
        captured = capsys.readouterr()
        assert captured.out == "" and "claims per path" in captured.err


def test_simulate_non_finite_inputs_exit_2(capsys):
    for argv in (
        ["--model", "cl", "--a", "nan"],
        ["--model", "cl", "--quantity", "passage", "--a", "nan"],
        ["--model", "bm", "--a", "nan"],
        ["--model", "bm", "--quantity", "value", "--x", "nan"],
        ["--model", "cl", "--quantity", "value", "--x", "nan"],
        ["--model", "bm", "--quantity", "laplace", "--q", "nan"],
        ["--model", "cl", "--quantity", "laplace", "--q", "inf"],
    ):
        assert main(["simulate", *argv, "--paths", "16"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "finite" in captured.err


def test_solve_bad_tol_exits_2(capsys):
    for tol in ("inf", "nan", "0", "1", "-1e-10"):
        assert main(["solve", "--model", "bm", f"--tol={tol}"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "root tolerance" in captured.err


def test_verify_passes_cramer_lundberg(capsys):
    rc, out = run(capsys, "verify", "--model", "cl", "--paths", "4000", "--seed", "1")
    assert rc == 0
    rep = json.loads(out)
    assert rep["passed"] is True
    names = {c["name"] for c in rep["checks"]}
    assert {"phi_inverts_psi", "median_equation", "mc_mean_g", "mc_pair_median"} <= names
    assert all(c["ok"] for c in rep["checks"])


def test_verify_csv_brownian(capsys):
    rc, out = run(
        capsys,
        "verify", "--model", "bm", "--paths", "4000", "--seed", "1",
        "--format", "csv",
    )
    assert rc == 0
    header, rows = csv_rows(out)
    assert header == ["name", "status", "observed", "target", "tol"]
    assert all(r["status"] == "ok" for r in rows)
    assert any(r["name"] == "mc_laplace_g" for r in rows)


def test_verify_refuses_tiny_budget(capsys):
    # two paths give one pair and a standard error of noise: refused up front
    for paths in ("2", "999"):
        assert main(["verify", "--model", "bm", "--paths", paths]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "--paths >= 1000" in captured.err
    rc, _ = run(capsys, "verify", "--model", "cl", "--paths", "1000", "--seed", "1")
    assert rc in (0, 1)


def test_verify_continuous_fit_checks(capsys):
    rc, out = run(capsys, "verify", "--model", "cl", "--mu", "4", "--paths", "4000", "--seed", "1")
    assert rc == 0
    rep = json.loads(out)
    names = {c["name"] for c in rep["checks"]}
    assert "atom_forces_zero_threshold" in names
    assert "kink_slope" in names
    assert rep["passed"] is True
