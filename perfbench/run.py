"""Benchmark of the lastzero package: three closed-loop workloads whose
outputs are checked against independent oracles.

Run from the repository root:

    python3 perfbench/run.py --workload analytic-sweep --seed 1 --seconds 15 --trace 0

One process, one caller, no worker threads.  The timed phase runs whole
rounds (one pass over the workload's timed ops): ``workloads.SAMPLES`` of
them, then more while another round still fits in ``--seconds``.  An op's
latency is its best sample, or the median for an op that simulates fresh
paths on each call.  The first round's outputs are checked after the timed
phase.  Then the workload's full-size ops run once, timed but not gated,
and their outputs are checked too.  The last line of stdout is the result
JSON; the line before it holds provenance and the figures that are not
gated (fail ratio, largest relative error of a*, tail latency, Monte Carlo
paths/s, the full-size ops' latencies).

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` adds one
traced round of the timed ops, runs the full-size ops traced (spans and
counters from ``tracing.py``) and reports the per-layer metrics with the
tracing overhead.

Exit status 2, with no result, when ./src/lastzero is missing.
"""

import os

# one thread per process for every BLAS / OpenMP runtime, set before numpy
# loads so that both this process and its children inherit it
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from collections import Counter  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

import workloads  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
SETUP_RUNS = 5  # cold starts per run; setup_s is their median
IMPORTS = {
    "lastzero": "import.lastzero_ms",
    "scipy.integrate": "import.scipy_integrate_ms",
    "scipy.optimize": "import.scipy_optimize_ms",
    "scipy.special": "import.scipy_special_ms",
}
TAIL_BEYOND = 10  # samples beyond the reported tail percentile
TAIL_MIN_OPS = 100  # below this many ops per round the tail is the maximum


# ---------------------------------------------------------------------------
# set-up in a fresh interpreter
# ---------------------------------------------------------------------------


def _coldstart_cmd(workload, seed, importtime=False):
    return [sys.executable, *(["-X", "importtime"] if importtime else []),
            os.path.join(HERE, "coldstart.py"), workload, str(seed)]


def cold_setup_s(workload, seed) -> float:
    """Seconds from spawning an interpreter to its 'ready' line."""
    t0 = perf_counter()
    proc = subprocess.Popen(_coldstart_cmd(workload, seed), stdout=subprocess.PIPE,
                            stderr=subprocess.DEVNULL, text=True)
    try:
        line = proc.stdout.readline()
        elapsed = perf_counter() - t0
        proc.communicate(timeout=120)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0 or line.strip() != "ready":
        raise RuntimeError(f"cold start failed with exit code {proc.returncode}")
    return elapsed


def import_breakdown(workload, seed) -> dict:
    """Cumulative import times (ms) from one run under -X importtime."""
    proc = subprocess.run(_coldstart_cmd(workload, seed, importtime=True),
                          capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise RuntimeError(f"import-time run failed with exit code {proc.returncode}")
    rows = []  # (depth, name, cumulative us)
    for line in proc.stderr.splitlines():
        parts = line.split("|")
        if len(parts) == 3 and line.startswith("import time:") and parts[1].strip().isdigit():
            name = parts[2].rstrip()
            rows.append((len(name) - len(name.lstrip()), name.strip(), int(parts[1])))
    out = {}
    for mod, metric in IMPORTS.items():
        own = [cum for _, name, cum in rows if name == mod]
        if not own:
            # a package loaded through a lazy attribute hook has no line of
            # its own: add up its outermost submodules instead
            subs = [(d, cum) for d, name, cum in rows if name.startswith(mod + ".")]
            top = min((d for d, _ in subs), default=0)
            own = [sum(cum for d, cum in subs if d == top)]
        out[metric] = own[0] / 1e3
    return out


# ---------------------------------------------------------------------------
# provenance
# ---------------------------------------------------------------------------


def _git_sha():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                          text=True, timeout=30)
    return proc.stdout.strip() or None


def _src_files():
    for dirpath, dirnames, filenames in os.walk(SRC):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith(".py"):
                yield os.path.join(dirpath, name)


def src_digest_and_lines():
    h, lines = hashlib.sha256(), 0
    for path in _src_files():
        with open(path, "rb") as fh:
            data = fh.read()
        h.update(os.path.relpath(path, SRC).encode() + b"\0" + data)
        lines += data.count(b"\n")
    return h.hexdigest(), lines


def provenance(seed, load_start) -> dict:
    import mpmath
    import scipy

    digest, _ = src_digest_and_lines()
    return {
        "git_sha": _git_sha(),
        "src_sha256": digest,
        "seed": seed,
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_start": load_start,
        "loadavg_end": list(os.getloadavg()),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
    }


# ---------------------------------------------------------------------------
# timed rounds
# ---------------------------------------------------------------------------


def issue(ops, lats=None, tracer=None, first_id=0):
    """Issue each op once, in order; returns each op's (output, exception).
    With ``tracer``, op i's spans carry request id ``first_id + i``."""
    outputs = []
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.request = first_id + i
        t0 = perf_counter()
        try:
            out, err = op.call(), None
        except Exception as exc:  # recorded per op; the loop keeps going
            out, err = None, exc
        if lats is not None:
            lats[i].append(perf_counter() - t0)
        outputs.append((out, err))
    return outputs


def run_rounds(ops, seconds, samples):
    """Closed loop: ``samples`` whole rounds, then more while another round
    (as long as the last) still ends within ``seconds``.  Returns (timed
    seconds, rounds, each op's latencies, each op's outputs: every round's
    for a fresh op, else the first round's)."""
    lats, outs = [[] for _ in ops], [[] for _ in ops]
    t_start = t_round = perf_counter()
    rounds = 0
    while True:
        now = perf_counter()
        if rounds >= samples and 2 * now - t_round - t_start > seconds:
            break
        t_round = now
        for op, kept, out in zip(ops, outs, issue(ops, lats)):
            if op.fresh or not kept:
                kept.append(out)
        rounds += 1
    return perf_counter() - t_start, rounds, lats, outs


class Ledger:
    """Oracle verdicts over every checked op, plus the largest relative
    error of a* and the size of the files the CLI ops wrote."""

    def __init__(self):
        self.attempted = self.failed = 0
        self.correct = True
        self.max_rel_err = 0.0
        self.misses = Counter()
        self.output_bytes = 0

    def check(self, ops, outputs) -> list[float | None]:
        """Check one output per op; returns each op's time-to-SE factor
        (se/se*)^2 (1 for deterministic ops), None where it failed."""
        factors = [None] * len(ops)
        for i, (op, (out, err)) in enumerate(zip(ops, outputs)):
            self.attempted += 1
            if err is not None:
                self.failed += 1
                self.misses[f"{op.kind}: {type(err).__name__}"] += 1
                # ValueError / ArithmeticError are the package's documented
                # refusals; any other exception is a defect
                self.correct &= isinstance(err, (ValueError, ArithmeticError))
                continue
            try:
                checks = op.check(out)
                factors[i] = op.se_factor(out)
            except Exception as exc:  # an output the oracle cannot read
                checks = [workloads.Check(f"unreadable output ({type(exc).__name__})",
                                          False, False)]
            bad = [c for c in checks if not c.ok]
            if bad:
                self.failed += 1
                for c in bad:
                    self.misses[f"{op.kind}: {c.name.split('[')[0]}"] += 1
            self.correct &= all(c.sane for c in checks)
            for c in checks:
                if c.name == "a_star" and c.rel_err is not None:
                    self.max_rel_err = max(self.max_rel_err, c.rel_err)
            if op.out_file is not None and os.path.exists(op.out_file):
                self.output_bytes += os.path.getsize(op.out_file)
        return factors


def issue_once(ops, tracer=None, first_id=0):
    """The once-ops, each timed; with ``tracer`` they run traced."""
    if tracer is not None:
        tracer.install()
    try:
        lats = [[] for _ in ops]
        outputs = issue(ops, lats, tracer, first_id)
    finally:
        if tracer is not None:
            tracer.uninstall()
    return outputs, [x[0] for x in lats]


def by_kind(ops, seconds) -> dict:
    """{kind: [ops, total seconds, longest seconds]}."""
    out = {}
    for op, t in zip(ops, seconds):
        row = out.setdefault(op.kind, [0, 0.0, 0.0])
        row[0] += 1
        row[1] += t
        row[2] = max(row[2], t)
    return out


def fresh_factor(op, outputs) -> float | None:
    """Median (se/se*)^2 over a fresh op's calls that returned an output."""
    values = []
    for out, err in outputs:
        try:
            values.append(op.se_factor(out) if err is None else None)
        except Exception:  # an unreadable output is the ledger's to report
            pass
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else None


def se_factor(op, own, full) -> float:
    """An op's (se/se*)^2 at its own size: scaled from its full-size twin's
    when it has one that ran, else its own (1 when that failed)."""
    twin = full.get(id(op.full))
    if twin is not None:
        return twin * op.full.paths / op.paths
    return 1.0 if own is None else own


def traced_round(ops, tracer):
    """Each op once more, with the tracer installed; returns its wall time."""
    tracer.install()
    try:
        t0 = perf_counter()
        issue(ops, tracer=tracer)
        return perf_counter() - t0
    finally:
        tracer.uninstall()


def tail(latencies):
    """(value, percentile, samples beyond it): the latency with TAIL_BEYOND
    samples beyond it, or the maximum when there are fewer than TAIL_MIN_OPS."""
    s = sorted(latencies)
    n = len(s)
    if n < TAIL_MIN_OPS:
        return s[-1], 100.0, 0
    k = n - TAIL_BEYOND - 1
    return s[k], 100.0 * (k + 1) / n, TAIL_BEYOND


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------


def warm_up(lz, workload, out_dir):
    """Let lazy imports and first-call set-up finish before timing."""
    ev, rule = lz.solve(lz.BrownianDrift(1.0, 1.0))
    lz.build_value_curve(ev, rule.table, np.linspace(-1.0, 2.0, 11), [rule.a_star])
    if workload == "claims-cli":
        lz.cli.main(["solve", "--model", "cl", "--out", os.path.join(out_dir, "warm.json")])


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def load_package():
    if not os.path.isfile(os.path.join(SRC, "lastzero", "__init__.py")):
        print("perfbench: ./src/lastzero not found; run from the repository root",
              file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, SRC)
    import lastzero
    import lastzero.cli  # noqa: F401

    if not os.path.abspath(lastzero.__file__).startswith(SRC + os.sep):
        print(f"perfbench: imported lastzero from {lastzero.__file__}, not ./src",
              file=sys.stderr)
        sys.exit(2)
    return lastzero


def main(argv=None) -> int:
    args = parse_args(argv)
    load_start = list(os.getloadavg())
    lz = load_package()
    wl, seed = args.workload, args.seed

    cold_setup_s(wl, seed)  # fills bytecode caches; not counted
    setups = [cold_setup_s(wl, seed) for _ in range(SETUP_RUNS)]
    imports = import_breakdown(wl, seed) if args.trace else {}

    inputs = workloads.make_inputs(wl, seed)
    run_dir = os.path.join(OUT_DIR, f"run-{os.getpid()}")
    os.makedirs(run_dir, exist_ok=True)
    samples = workloads.SAMPLES[wl]
    try:
        ops, once = workloads.build_ops(wl, inputs, lz, run_dir)
        warm_up(lz, wl, run_dir)
        elapsed, rounds, lats, outs = run_rounds(ops, args.seconds, samples)
        ledger = Ledger()
        factors = ledger.check(ops, [kept[0] for kept in outs])
        factors = [fresh_factor(op, kept[:samples]) if op.fresh else f
                   for op, kept, f in zip(ops, outs, factors)]
        tracer = None
        if args.trace:
            import tracing

            tracer = tracing.Tracer()
            traced_s = traced_round(ops, tracer)
        once_out, once_s = issue_once(once, tracer, len(ops))
        full = dict(zip(map(id, once), ledger.check(once, once_out)))
        factors = [se_factor(op, f, full) for op, f in zip(ops, factors)]
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if args.trace:
            tracer.dump(os.path.join(OUT_DIR, f"trace-{wl}-{seed}.jsonl"))
            allocs = tracing.Tracer(track_alloc=True)
            if tracer.simulated():
                # one more pass with tracemalloc, for memory only, over the
                # ops no larger than the largest timed op
                biggest = max(op.paths for op in ops)
                traced_round(ops + [op for op in once if op.paths <= biggest], allocs)
            layer = tracer.layer_metrics()
            layer.update(allocs.alloc_metrics())
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    # each timed op's best of its first `samples` latencies: the package is
    # deterministic, so every sample is the same work, and other processes
    # on a shared host only ever add time.  A fixed count keeps a faster
    # program from getting more tries at a low minimum.  A fresh op does
    # new work on each call, so it takes the median instead.
    best = [(statistics.median if op.fresh else min)(x[:samples]) for op, x in zip(ops, lats)]
    tail_s, tail_pct, beyond = tail(best)
    mc_s = sum(t for t, op in zip(best, ops) if op.paths)
    e2e = {
        "setup_s": statistics.median(setups),
        "ops_per_s": len(ops) / sum(best),
        "op_p50_ms": statistics.median(best) * 1e3,
        "time_to_se_s": sum(t * f for t, f in zip(best, factors)),
        "ok_ratio": (ledger.attempted - ledger.failed) / ledger.attempted,
        "peak_rss_mb": peak_rss_mb,
    }
    details = {
        "workload": wl,
        "provenance": provenance(seed, load_start),
        "rounds": rounds,
        "samples": samples,
        "timed_s": elapsed,
        "timed_ops": len(ops),
        "throughput_ops_per_s": rounds * len(ops) / elapsed,
        "best_s": by_kind(ops, best),
        "once_s": by_kind(once, once_s),
        "setup_runs_s": setups,
        "op_tail": {"value": tail_s * 1e3, "unit": "ms", "percentile": tail_pct,
                    "samples": len(best), "beyond": beyond},
        "fail_ratio": ledger.failed / ledger.attempted,
        "max_rel_err": ledger.max_rel_err,
        "paths_per_s": sum(op.paths for op in ops) / mc_s if mc_s else 0.0,
        "misses": dict(ledger.misses.most_common()),
        "end_to_end": with_units(e2e, "end_to_end"),
    }
    if args.trace:
        layer.update(imports)
        layer["cli.output_bytes"] = ledger.output_bytes
        layer["stopping.a_star.max_rel_err"] = ledger.max_rel_err
        # the traced round issues each timed op once; compare with the
        # median untraced latency of each op
        layer["trace.overhead_s"] = traced_s - sum(statistics.median(x) for x in lats)
        layer["repo.src_lines"] = src_digest_and_lines()[1]
        metrics = with_units(layer, "per_layer")
    else:
        metrics = details["end_to_end"]
    print(json.dumps(details))
    print(json.dumps({"correct": bool(ledger.correct), "attempted": ledger.attempted,
                      "failed": ledger.failed, "metrics": metrics}))
    return 0


def with_units(values: dict, section: str) -> dict:
    """Attach units from BENCHMARK.json, which must list exactly these names."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        units = {m["name"]: m["unit"] for m in json.load(fh)[section]}
    if set(units) != set(values):
        raise RuntimeError(f"{section} metrics differ from BENCHMARK.json: "
                           f"{sorted(set(units) ^ set(values))}")
    return {k: {"value": float(values[k]), "unit": u} for k, u in units.items()}


if __name__ == "__main__":
    sys.exit(main())
