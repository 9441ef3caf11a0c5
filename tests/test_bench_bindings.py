"""The benchmark's tracer binds package names; a renamed one must fail here.

``perfbench/tracing.py`` wraps the functions it names and reads the
``simulate_paths`` parameters by name, so a rename would otherwise show
only when the benchmark's traced run fails.
"""

import importlib.util
from pathlib import Path

import lastzero.cli
from lastzero import mc
from lastzero.models import CramerLundberg

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_binds_the_package_names(tmp_path):
    tracer = _load_tracing().Tracer()
    tracer.install()
    try:
        # through the module, where the tracer put its wrapper
        mc.simulate_paths(
            CramerLundberg(2.0, 1.0, 1.0),
            mc.McConfig(n_paths=16, base_seed=0),
            a_levels=(1.0,),
            want_gint=False,
            infimum_mode=False,
            exact_crossings=False,
            batch_filter=None,
        )
        out = tmp_path / "solve.json"
        assert lastzero.cli.main(["solve", "--model", "cl", "--out", str(out)]) == 0
    finally:
        tracer.uninstall()
    names = [s[1] for s in tracer.spans]
    assert {"mc.simulate_paths", "cli.main", "stopping.solve"} <= set(names)
    metrics = tracer.layer_metrics()
    assert metrics["mc.events.paths_per_s"] > 0.0
    assert metrics["cli.solve.p50_ms"] > 0.0
