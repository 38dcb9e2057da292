"""Span tracing of nearcrit's public functions, installed from outside.

The benchmark does not edit the program: :meth:`Tracer.install` replaces
every public function of the layer modules with a timing wrapper, and
rebinds each place a caller can resolve it from. That covers the defining
module and every ``from ... import`` alias in the other nearcrit modules
(``cli.classify``, ``diagnostics.chain_logs``, ...) and the package
namespace. Methods of the family classes and ``Pmf.__post_init__`` are
patched on their classes. ``numpy.convolve`` gets a counter without a span.

A span is (index, name, start, end, parent index, call id). Aggregates are
kept exactly as spans close; the first ``SPAN_CAP`` spans are also kept in
memory and written out when the run ends.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import defaultdict

LAYERS = ("cli", "scenarios", "families", "pgf", "linfrac", "engine", "limits",
          "diagnostics")
FAMILY_CLASSES = ("OffspringFamily", "ImmigrationFamily")
# spans kept in memory for write_spans; aggregates count every span
SPAN_CAP = 100_000


class Tracer:
    def __init__(self):
        self.active = False
        self.call_id = -1
        self.spans = []
        self.spans_opened = 0
        self.calls = defaultdict(int)
        self.busy = defaultdict(float)
        self.self_time = defaultdict(float)
        self.counters = defaultdict(float)
        self._stack = []  # open frames: [child seconds, span index]
        self._depth = defaultdict(int)  # open spans per name
        self._restore = []

    # -- wrappers -------------------------------------------------------------

    def _wrap(self, name: str, fn, hook=None):
        tracer = self
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack, depth = tracer._stack, tracer._depth
            index = tracer.spans_opened
            tracer.spans_opened += 1
            parent = stack[-1][1] if stack else -1
            frame = [0.0, index]
            stack.append(frame)
            depth[name] += 1
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                depth[name] -= 1
                dur = end - start
                tracer.calls[name] += 1
                tracer.self_time[name] += dur - frame[0]
                if depth[name] == 0:  # busy time counts nested recursion once
                    tracer.busy[name] += dur
                if stack:
                    stack[-1][0] += dur
                if index < SPAN_CAP:
                    tracer.spans.append(
                        (index, name, start, end, parent, tracer.call_id)
                    )
                if hook is not None:
                    hook(args, kwargs)

        return traced

    def _set(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _rebind_everywhere(self, package_modules, original, wrapper) -> list:
        """Point every module attribute holding ``original`` at ``wrapper``."""
        bound = []
        for mod in package_modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, attr, wrapper)
                    bound.append(f"{mod.__name__}.{attr}")
        return bound

    # -- hooks that turn arguments into counts -----------------------------------

    def _simulate_hook(self, fn):
        sig = inspect.signature(fn)

        def hook(args, kwargs):
            bound = sig.bind(*args, **kwargs).arguments
            self.counters["engine.simulate.traj_steps"] += (
                int(bound["n"]) * int(bound["reps"])
            )

        return hook

    def _composed_hook(self, args, kwargs):
        if self._depth["limits.product_law_eval"] > 0:
            self.counters["limits.product_law_eval.composed_passes"] += 1

    def _counting_convolve(self, original):
        counters = self.counters

        @functools.wraps(original)
        def convolve(a, v, mode="full"):
            if self.active:
                la, lv = len(a), len(v)
                counters["pgf.kernel.convolve_calls"] += 1
                # computed from operand sizes: full-mode multiply-adds, and
                # float64 bytes read (both operands) plus written (result)
                counters["pgf.kernel.madds"] += la * lv
                counters["pgf.kernel.bytes"] += 8 * (2 * (la + lv) - 1)
            return original(a, v, mode)

        return convolve

    # -- install / remove ----------------------------------------------------------

    def install(self, nc, numpy_module) -> dict:
        """Wrap the layer functions of the imported package ``nc``.

        Returns {span name: [bindings patched]} so callers can assert that
        every alias was reached.
        """
        if self._restore:
            raise RuntimeError("tracer already installed")
        package_modules = [
            m for name, m in sorted(sys.modules.items())
            if m is not None and (name == nc.__name__
                                  or name.startswith(nc.__name__ + "."))
        ]
        bindings = {}
        for layer in LAYERS:
            mod = getattr(nc, layer)
            for attr, obj in list(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__):
                    continue
                name = f"{layer}.{attr}"
                hook = None
                if name == "engine.simulate":
                    hook = self._simulate_hook(obj)
                elif name == "engine.composed_eval_all":
                    hook = self._composed_hook
                wrapper = self._wrap(name, obj, hook)
                bindings[name] = self._rebind_everywhere(package_modules, obj,
                                                         wrapper)
        for cls_name in FAMILY_CLASSES:
            cls = getattr(nc.families, cls_name)
            for attr, obj in list(vars(cls).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                name = f"families.{cls_name}.{attr}"
                self._set(cls, attr, self._wrap(name, obj))
                bindings[name] = [f"{cls.__module__}.{cls_name}.{attr}"]
        pmf = nc.pgf.Pmf
        self._set(pmf, "__post_init__",
                  self._wrap("pgf.Pmf.__post_init__", pmf.__post_init__))
        bindings["pgf.Pmf.__post_init__"] = ["nearcrit.pgf.Pmf.__post_init__"]
        self._set(numpy_module, "convolve",
                  self._counting_convolve(numpy_module.convolve))
        return bindings

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    # -- output ------------------------------------------------------------------

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for index, name, start, end, parent, call_id in sorted(self.spans):
                fh.write(json.dumps({"id": index, "name": name, "start": start,
                                     "end": end, "parent": parent,
                                     "call": call_id}) + "\n")

    def layer_self(self, layer: str) -> float:
        prefix = layer + "."
        return sum(v for k, v in self.self_time.items() if k.startswith(prefix))


# ---------------------------------------------------------------------------
# per-layer metrics; every time and count is per deck pass

_S, _N = "s", "count"
PER_LAYER = (
    # (metric, unit, source kind, span or counter name)
    ("pgf.compound.calls", _N, "calls", "pgf.compound"),
    ("pgf.compound.self_s", _S, "self", "pgf.compound"),
    ("pgf.convolve.calls", _N, "calls", "pgf.convolve"),
    ("pgf.convolve.self_s", _S, "self", "pgf.convolve"),
    ("pgf.kernel.convolve_calls", _N, "counter", "pgf.kernel.convolve_calls"),
    ("pgf.kernel.madds", "madd", "counter", "pgf.kernel.madds"),
    ("pgf.kernel.bytes", "B", "counter", "pgf.kernel.bytes"),
    ("pgf.Pmf.constructed", _N, "calls", "pgf.Pmf.__post_init__"),
    ("pgf.Pmf.validate_s", _S, "busy", "pgf.Pmf.__post_init__"),
    ("pgf.exp_series.busy_s", _S, "busy", "pgf.exp_series"),
    ("pgf.exp_centered.busy_s", _S, "busy", "pgf.exp_centered"),
    ("pgf.evaluate.calls", _N, "calls", "pgf.evaluate"),
    ("families.OffspringFamily.pmf.calls", _N, "calls",
     "families.OffspringFamily.pmf"),
    ("families.OffspringFamily.pmf.busy_s", _S, "busy",
     "families.OffspringFamily.pmf"),
    ("families.ImmigrationFamily.pmf.calls", _N, "calls",
     "families.ImmigrationFamily.pmf"),
    ("families.ImmigrationFamily.pmf.busy_s", _S, "busy",
     "families.ImmigrationFamily.pmf"),
    ("families.OffspringFamily.pgf_at.calls", _N, "calls",
     "families.OffspringFamily.pgf_at"),
    ("families.OffspringFamily.pgf_at.busy_s", _S, "busy",
     "families.OffspringFamily.pgf_at"),
    ("families.classify.busy_s", _S, "busy", "families.classify"),
    ("families.condition_ratios.busy_s", _S, "busy", "families.condition_ratios"),
    ("linfrac.chain_logs.calls", _N, "calls", "linfrac.chain_logs"),
    ("linfrac.chain_logs.busy_s", _S, "busy", "linfrac.chain_logs"),
    ("linfrac.chain_product.calls", _N, "calls", "linfrac.chain_product"),
    ("engine.propagate_sequence.calls", _N, "calls", "engine.propagate_sequence"),
    ("engine.propagate_sequence.busy_s", _S, "busy", "engine.propagate_sequence"),
    ("engine.propagate_sequence.self_s", _S, "self", "engine.propagate_sequence"),
    ("engine.step.calls", _N, "calls", "engine.step"),
    ("engine.simulate.calls", _N, "calls", "engine.simulate"),
    ("engine.simulate.busy_s", _S, "busy", "engine.simulate"),
    ("engine.simulate.traj_steps", _N, "counter", "engine.simulate.traj_steps"),
    ("engine.composed_eval_all.calls", _N, "calls", "engine.composed_eval_all"),
    ("engine.composed_eval_all.busy_s", _S, "busy", "engine.composed_eval_all"),
    ("limits.product_law_eval.calls", _N, "calls", "limits.product_law_eval"),
    ("limits.product_law_eval.busy_s", _S, "busy", "limits.product_law_eval"),
    ("limits.product_law_eval.self_s", _S, "self", "limits.product_law_eval"),
    ("limits.product_law_eval.composed_passes", "1/eval", "per_eval",
     "limits.product_law_eval.composed_passes"),
    ("limits.product_law_mean.busy_s", _S, "busy", "limits.product_law_mean"),
    ("limits.cp_pmf.busy_s", _S, "busy", "limits.cp_pmf"),
    ("limits.nb_pmf.busy_s", _S, "busy", "limits.nb_pmf"),
    ("limits.poisson_pmf.busy_s", _S, "busy", "limits.poisson_pmf"),
    ("diagnostics.report.calls", _N, "calls", "diagnostics.report"),
    ("diagnostics.report.busy_s", _S, "busy", "diagnostics.report"),
    ("diagnostics.report.self_s", _S, "self", "diagnostics.report"),
    ("diagnostics.toeplitz_weights.calls", _N, "calls",
     "diagnostics.toeplitz_weights"),
    ("diagnostics.toeplitz_weights.busy_s", _S, "busy",
     "diagnostics.toeplitz_weights"),
    ("diagnostics.tv_distance.calls", _N, "calls", "diagnostics.tv_distance"),
    ("diagnostics.tv_distance.busy_s", _S, "busy", "diagnostics.tv_distance"),
    ("diagnostics.accompanying_gap_bound.busy_s", _S, "busy",
     "diagnostics.accompanying_gap_bound"),
    ("scenarios.parse_scenario.calls", _N, "calls", "scenarios.parse_scenario"),
    ("scenarios.parse_scenario.busy_s", _S, "busy", "scenarios.parse_scenario"),
    ("cli.run.self_s", _S, "self", "cli.run"),
    ("cli.output_bytes", "B", "run", "cli.output_bytes"),
    ("families.clamp_warnings", _N, "run", "families.clamp_warnings"),
    ("engine.truncation_warnings", _N, "run", "engine.truncation_warnings"),
    ("pgf.compound.busy_share", "ratio", "busy_share", "pgf.compound"),
    ("pgf.Pmf.validate_share", "ratio", "busy_share", "pgf.Pmf.__post_init__"),
) + tuple(
    (f"{layer}.self_share", "ratio", "layer_share", layer) for layer in LAYERS
) + (
    ("bench.check_s", _S, "run", "bench.check_s"),
    ("trace.overhead_frac", "ratio", "run", "trace.overhead_frac"),
)


def layer_metrics(tracer: Tracer, passes: int, traced_wall: float,
                  run_values: dict) -> dict:
    """Per-layer metric values from ``passes`` traced deck passes.

    ``traced_wall`` is the summed wall time of those passes; ``run_values``
    supplies the figures the harness measures itself.
    """
    out = {}
    for name, unit, kind, source in PER_LAYER:
        if kind == "calls":
            value = tracer.calls[source] / passes
        elif kind == "busy":
            value = tracer.busy[source] / passes
        elif kind == "self":
            value = tracer.self_time[source] / passes
        elif kind == "counter":
            value = tracer.counters[source] / passes
        elif kind == "per_eval":
            evals = tracer.calls["limits.product_law_eval"]
            value = tracer.counters[source] / evals if evals else 0.0
        elif kind == "busy_share":
            value = tracer.busy[source] / traced_wall
        elif kind == "layer_share":
            value = tracer.layer_self(source) / traced_wall
        else:
            value = run_values[source]
        out[name] = {"value": value, "unit": unit}
    return out
