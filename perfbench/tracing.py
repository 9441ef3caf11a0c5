"""In-process spans and counters around the package's public functions.

``Tracer.install`` replaces the public functions and methods of each
module with wrappers, in every module namespace that holds them (the
package re-exports names, and modules import each other's functions by
name), so calls between modules are traced too.  Nothing in the package
is edited; ``uninstall`` puts the originals back.

A span records [id, name, start, end, parent id, request id, child
seconds, counts, tag].  Hot scalar methods (``ScaleEvaluator.w``,
``w_prime``, the models' ``psi`` and ``psi_prime``) get no span: each
call only bumps a counter and a timer, and its time is charged to the
enclosing span as child time, so self times exclude it.  Spans stay in
memory until ``dump`` writes them out.
"""

from __future__ import annotations

import functools
import inspect
import json
import statistics
import sys
import tracemalloc
from collections import defaultdict
from time import perf_counter

PKG = "lastzero"
# (module, names) whose functions get a span; "Class.method" for methods
SPANNED = {
    "models": ["LevyModel.phi", "model_from_dict"],
    "scale": [
        "ScaleEvaluator.inf_cdf",
        "ScaleEvaluator.inf_cdf_quantile",
        "ScaleEvaluator.gain",
        "ScaleEvaluator.x0",
        "ScaleEvaluator.w_q_brownian",
    ],
    "convolution": [
        "conv_analytic",
        "conv_numeric",
        "conv_cdf",
        "build_table",
        "ConvolutionTable.__call__",
        "ConvolutionTable.cum_integral",
    ],
    "stopping": [
        "solve",
        "solve_a_star",
        "V_a_at",
        "V_at",
        "V_prime_at",
        "expected_g",
        "expected_tau_plus",
        "laplace_g_brownian",
        "build_value_curve",
    ],
    "mc": [
        "resolve_barrier",
        "simulate_paths",
        "sample_path_events",
        "sample_infimum",
        "infimum_pair_sum_median",
        "estimate_mean_abs_error",
        "estimate_mean_abs_error_grid",
        "estimate_expected_g",
        "estimate_passage_time",
        "estimate_value",
        "estimate_laplace_g",
        "ks_statistic",
        "ks_critical",
    ],
    "cli": ["main"],
}
COUNTED = {
    "scale": ["ScaleEvaluator.w", "ScaleEvaluator.w_prime"],
    "models": [
        f"{cls}.{meth}"
        for cls in ("BrownianDrift", "CramerLundberg", "BetaFamily")
        for meth in ("psi", "psi_prime")
    ],
}
MC_MODES = ("grid", "grid_exact", "grid_gint", "grid_jump", "bridge_infimum", "events")

_NAME, _T0, _T1, _PARENT, _REQ, _CHILD, _COUNTS, _TAG = 1, 2, 3, 4, 5, 6, 7, 8


def _subcommand(args, kwargs):
    argv = args[0] if args else kwargs.get("argv")
    return argv[0] if argv else None


def _short(qual: str) -> str:
    """Span name of a traced callable: methods drop their class, except
    ``__call__``, which takes it."""
    cls, _, meth = qual.rpartition(".")
    return cls if meth == "__call__" else meth


class Tracer:
    """``track_alloc`` also measures the peak of memory allocated inside each
    ``simulate_paths`` call (tracemalloc); it slows the engines, so it is
    left off in the pass whose timings are reported."""

    def __init__(self, track_alloc: bool = False):
        self.track_alloc = track_alloc
        self.spans: list[list] = []
        self.stack: list[list] = []
        self.counters: dict[str, list] = {}
        self.request = -1
        self._undo: list[tuple] = []

    # -- wrappers -------------------------------------------------------

    def _span(self, name, fn, tagger=None, alloc=False):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            rec = [len(spans), name, 0.0, 0.0, parent[0] if parent else -1,
                   self.request, 0.0, None, None]
            spans.append(rec)
            stack.append(rec)
            if tagger is not None:
                rec[_TAG] = tagger(args, kwargs)
            if alloc:
                tracemalloc.start()
            rec[_T0] = t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[_T1] = t1 = perf_counter()
                if alloc:
                    rec[_TAG]["peak_bytes"] = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                stack.pop()
                if parent is not None:
                    parent[_CHILD] += t1 - t0

        return traced

    def _count(self, name, fn):
        stack = self.stack
        cell = self.counters.setdefault(name, [0, 0.0])  # calls, seconds

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                cell[0] += 1
                cell[1] += dt
                if stack:
                    top = stack[-1]
                    top[_CHILD] += dt
                    counts = top[_COUNTS]
                    if counts is None:
                        top[_COUNTS] = {name: 1}
                    else:
                        counts[name] = counts.get(name, 0) + 1

        return counted

    def _mc_tagger(self):
        mc = sys.modules[f"{PKG}.mc"]
        models = sys.modules[f"{PKG}.models"]
        sig = inspect.signature(mc.simulate_paths)

        def tag(args, kwargs):
            b = sig.bind(*args, **kwargs)
            b.apply_defaults()
            a = b.arguments
            model, cfg = a["model"], a["cfg"]
            if isinstance(model, models.CramerLundberg):
                mode = "events"
            elif isinstance(model, models.BetaFamily) and model.beta != 2.0:
                mode = "grid_jump"
            elif a["infimum_mode"]:
                mode = "bridge_infimum"
            elif a["exact_crossings"]:
                mode = "grid_exact"
            elif a["want_gint"]:
                mode = "grid_gint"
            else:
                mode = "grid"
            n, batch = cfg.n_paths, mc.BATCH
            if a["batch_filter"] is None:
                paths = n
            else:
                paths = sum(max(0, min(batch, n - i * batch)) for i in a["batch_filter"])
            return {"mode": mode, "paths": paths}

        return tag

    # -- install / uninstall ---------------------------------------------

    def _replace(self, owner, attr, orig, wrapper):
        """Swap ``orig`` for ``wrapper`` on its owner and wherever it is re-exported."""
        self._undo.append((owner, attr, orig))
        setattr(owner, attr, wrapper)
        if isinstance(owner, type):
            return
        for mod_name, mod in list(sys.modules.items()):
            if mod is owner or not (mod_name == PKG or mod_name.startswith(PKG + ".")):
                continue
            for key, val in list(vars(mod).items()):
                if val is orig:
                    self._undo.append((mod, key, orig))
                    setattr(mod, key, wrapper)

    def install(self):
        for table, spanned in ((SPANNED, True), (COUNTED, False)):
            for mod_short, quals in table.items():
                mod = sys.modules[f"{PKG}.{mod_short}"]
                for qual in quals:
                    owner = mod
                    parts = qual.split(".")
                    for part in parts[:-1]:
                        owner = getattr(owner, part)
                    attr = parts[-1]
                    orig = vars(owner)[attr] if isinstance(owner, type) else getattr(owner, attr)
                    name = f"{mod_short}.{_short(qual)}"
                    if qual == "simulate_paths":
                        wrapper = self._span(name, orig, self._mc_tagger(),
                                             alloc=self.track_alloc)
                    elif qual == "main":
                        wrapper = self._span(name, orig, _subcommand)
                    elif spanned:
                        wrapper = self._span(name, orig)
                    else:
                        wrapper = self._count(name, orig)
                    self._replace(owner, attr, orig, wrapper)

    def uninstall(self):
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()

    # -- analysis -------------------------------------------------------

    def simulated(self) -> bool:
        return any(s[_NAME] == "mc.simulate_paths" for s in self.spans)

    def alloc_metrics(self) -> dict:
        """Largest allocation peak (MB) of one simulate_paths call, per mode."""
        peaks = dict.fromkeys(MC_MODES, 0.0)
        for s in self.spans:
            if s[_NAME] == "mc.simulate_paths":
                mode = s[_TAG]["mode"]
                peaks[mode] = max(peaks[mode], s[_TAG]["peak_bytes"] / 2**20)
        return {f"mc.{mode}.peak_alloc_mb": v for mode, v in peaks.items()}

    def dump(self, path):
        """Write every span as one JSON line: id, name, start, end, parent, request."""
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(s[:6]) + "\n")

    def layer_metrics(self) -> dict:
        spans = self.spans
        by_name = defaultdict(list)
        children = defaultdict(list)
        for s in spans:
            by_name[s[_NAME]].append(s)
            if s[_PARENT] >= 0:
                children[s[_PARENT]].append(s[0])

        def dur(s):
            return s[_T1] - s[_T0]

        def self_s(name):
            return sum(dur(s) - s[_CHILD] for s in by_name[name])

        def calls(name):
            return len(by_name[name])

        def p50(name):
            d = [dur(s) for s in by_name[name]]
            return statistics.median(d) if d else 0.0

        def counted_in(name, counter):
            return sum((s[_COUNTS] or {}).get(counter, 0) for s in by_name[name])

        def ratio(num, den):
            return num / den if den else 0.0

        def descendants(root_id, names):
            n, todo = 0, list(children[root_id])
            while todo:
                sid = todo.pop()
                n += spans[sid][_NAME] in names
                todo.extend(children[sid])
            return n

        phi_psi = counted_in("models.phi", "models.psi")
        h_names = {"convolution.conv_numeric", "convolution.conv_analytic"}
        solves = by_name["stopping.solve"]
        h_evals = sum(descendants(s[0], h_names) for s in solves)
        w_in_h = counted_in("convolution.conv_numeric", "scale.w")
        w_calls, w_s = self.counters.get("scale.w", (0, 0.0))

        m = {
            "models.phi.calls": calls("models.phi"),
            "models.phi.p50_us": p50("models.phi") * 1e6,
            "models.psi.calls_per_phi": ratio(phi_psi, calls("models.phi")),
            "scale.w.calls": w_calls,
            "scale.w.self_ms": w_s * 1e3,
            "scale.inf_cdf.calls": calls("scale.inf_cdf"),
            "scale.inf_cdf.self_ms": self_s("scale.inf_cdf") * 1e3,
            "convolution.build_table.self_ms": self_s("convolution.build_table") * 1e3,
            "convolution.conv_numeric.calls": calls("convolution.conv_numeric"),
            "convolution.conv_numeric.self_ms": self_s("convolution.conv_numeric") * 1e3,
            "convolution.w_calls_per_h": ratio(w_in_h, calls("convolution.conv_numeric")),
            "stopping.solve.p50_ms": p50("stopping.solve") * 1e3,
            "stopping.solve.self_ms": self_s("stopping.solve") * 1e3,
            "stopping.h_evals_per_solve": ratio(h_evals, len(solves)),
            "stopping.build_value_curve.self_ms": self_s("stopping.build_value_curve") * 1e3,
            "stopping.V_a_at.calls": calls("stopping.V_a_at"),
        }
        sims = by_name["mc.simulate_paths"]
        tot_paths = tot_s = 0.0
        for mode in MC_MODES:
            mine = [s for s in sims if s[_TAG]["mode"] == mode]
            paths = sum(s[_TAG]["paths"] for s in mine)
            secs = sum(dur(s) for s in mine)
            tot_paths += paths
            tot_s += secs
            m[f"mc.{mode}.paths_per_s"] = ratio(paths, secs)
        m["mc.paths_per_s"] = ratio(tot_paths, tot_s)
        mains = by_name["cli.main"]
        for sub in ("solve", "curve", "simulate", "verify"):
            d = [dur(s) for s in mains if s[_TAG] == sub]
            m[f"cli.{sub}.p50_ms"] = statistics.median(d) * 1e3 if d else 0.0
        m["cli.self_ms"] = self_s("cli.main") * 1e3
        return m
