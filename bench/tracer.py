"""Per-layer spans and counters, recorded from the benchmark's side.

`Tracer.install()` replaces the public functions of each slowprov module (and
the few private ones named below) with timing wrappers, in the defining
module and in every module that imported the name; `uninstall()` puts the
originals back. Nothing under src/ is edited.

A span opens only where a call crosses from one layer into another, so a
recursive `compare` is counted call by call but timed as one span. A
layer's self time is the duration of its spans minus the part their child
spans cover. Spans are kept in memory, up to SPAN_CAP of them, and written
out with the counters at the end; counters and times cover every span.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time
from collections import Counter, defaultdict

LAYERS = ("ordinal", "fgh", "itercalc", "modal.formula", "modal.kripke", "modal.prover",
          "modal.proofs", "modal.decide", "oracles", "cli")
# private functions wrapped as well, for the counters they feed
PRIVATE = {"modal.kripke": ("_rows_for",), "fgh": ("_run",)}
# functions timed inclusively (outermost call only), by timer name
TIMERS = {
    ("ordinal", "render_ordinal"): "ordinal.render",
    ("ordinal", "stepdown_path"): "ordinal.descent",
    ("fgh", "_run"): "fgh.machine",
    ("fgh", "SlowFunctions.l"): "fgh.slow.l",
    ("fgh", "SlowFunctions._compute_l"): "fgh.slow.compute_l",
    ("modal.kripke", "_rows_for"): "modal.kripke.eval",
    ("modal.kripke", "validate_model"): "modal.kripke.validate",
    ("modal.proofs", "check_proof"): "modal.proofs.check",
}
SPAN_CAP = 200_000
ROOT = "bench"


class Tracer:
    def __init__(self):
        self.clock = time.perf_counter
        self.self_time = defaultdict(float)
        self.timer_time = defaultdict(float)
        self.timer_depth = Counter()
        self.counts = Counter()
        self.spans = []          # (id, parent id, layer, function, start, end)
        self.spans_dropped = 0
        # open spans: [layer, start, time covered by children, id]
        self.stack = [[ROOT, 0.0, 0.0, 0]]
        self._next_id = 1
        self._patches = []

    # --- wrappers ----------------------------------------------------------

    def _enter(self, layer, name, timer):
        """Open a span at a layer crossing and a timer at its outermost call."""
        span = None
        if self.stack[-1][0] != layer:
            span = [layer, self.clock(), 0.0, self._next_id]
            self._next_id += 1
            self.stack.append(span)
        tstart = None
        if timer is not None:
            if self.timer_depth[timer] == 0:
                tstart = self.clock()
            self.timer_depth[timer] += 1
        return span, tstart

    def _exit(self, layer, name, timer, span, tstart):
        now = self.clock()
        if timer is not None:
            self.timer_depth[timer] -= 1
            if tstart is not None:
                self.timer_time[timer] += now - tstart
        if span is not None:
            self.stack.pop()
            parent = self.stack[-1]
            d = now - span[1]
            self.self_time[layer] += d - span[2]
            parent[2] += d
            if len(self.spans) < SPAN_CAP:
                self.spans.append((span[3], parent[3], layer, name, span[1], now))
            else:
                self.spans_dropped += 1

    def wrap(self, layer, name, fn, after=None):
        timer = TIMERS.get((layer, name))
        counts = self.counts
        calls_key = layer + ".calls"
        fn_key = layer + "." + name

        def traced(*args, **kwargs):
            counts[calls_key] += 1
            counts[fn_key] += 1
            if timer is None and self.stack[-1][0] == layer:
                result = fn(*args, **kwargs)
            else:
                span, tstart = self._enter(layer, name, timer)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    self._exit(layer, name, timer, span, tstart)
            if after is not None:
                after(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def wrap_iterable(self, layer, name, fn, counter):
        """For functions that return iterators: time and count each item."""
        tracer = self

        class Items:
            def __init__(self, it):
                self.it = it

            def __iter__(self):
                return self

            def __next__(self):
                span, tstart = tracer._enter(layer, name, None)
                try:
                    item = next(self.it)
                finally:
                    tracer._exit(layer, name, None, span, tstart)
                tracer.counts[counter] += 1
                return item

        def traced(*args, **kwargs):
            self.counts[layer + ".calls"] += 1
            self.counts[layer + "." + name] += 1
            return Items(iter(fn(*args, **kwargs)))

        traced.__wrapped__ = fn
        return traced

    # --- installation ------------------------------------------------------

    def install(self, extra_modules=()):
        """Wrap every layer's functions and rebind the names importers hold."""
        modules = {layer: importlib.import_module("slowprov." + layer) for layer in LAYERS}
        replaced = {}
        for layer, mod in modules.items():
            for name, fn in list(vars(mod).items()):
                if not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                if name.startswith("_") and name not in PRIVATE.get(layer, ()):
                    continue
                wrapper = self._wrapper_for(layer, name, fn)
                replaced[fn] = wrapper
                self._patch(mod, name, wrapper)
        fgh, kripke = modules["fgh"], modules["modal.kripke"]
        for meth in ("l", "r", "_compute_l"):
            fn = vars(fgh.SlowFunctions)[meth]
            self._patch(fgh.SlowFunctions, meth,
                        self._wrapper_for("fgh", "SlowFunctions." + meth, fn))
        self._patch(kripke.KripkeModel, "__init__",
                    self.wrap("modal.kripke", "KripkeModel", kripke.KripkeModel.__init__))
        importers = [m for n, m in list(sys.modules.items())
                     if n.startswith("slowprov") and m is not None]
        for mod in importers + list(extra_modules):
            for name, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in replaced:
                    self._patch(mod, name, replaced[value])
        # the machine steps of fgh are its calls to classify
        self._patch(fgh, "classify", self._counting(fgh.classify, "fgh.machine_steps"))

    def _wrapper_for(self, layer, name, fn):
        c = self.counts
        if (layer, name) == ("oracles", "enumerate_tree_frames"):
            return self.wrap_iterable(layer, name, fn, "oracles.frames_enumerated")
        if (layer, name) == ("oracles", "enumerate_a_sound_extensions"):
            return self.wrap_iterable(layer, name, fn, "oracles.extensions_yielded")
        if (layer, name) == ("ordinal", "stepdown_path"):
            return self.wrap(layer, name, fn, lambda r: c.update({"ordinal.descent_steps": r.steps}))
        if layer == "fgh" and name in ("eval_F", "eval_F_iter", "eval_F_shifted", "compare_F_to"):
            return self.wrap(layer, name, fn, self._fgh_result)
        if (layer, name) == ("modal.prover", "prove"):
            return self.wrap(layer, name, fn, lambda r: r is not None and c.update(
                {"modal.prover.proof_lines": len(r.lines)}))
        if (layer, name) == ("modal.formula", "subformulas"):
            return self.wrap(layer, name, fn, self._formula_walk)
        if (layer, name) == ("modal.kripke", "validate_model"):
            inner = self.wrap(layer, name, fn)

            def validate(*args, **kwargs):
                if self.stack[-1][0] == "oracles":
                    c["oracles.extensions_tried"] += 1
                return inner(*args, **kwargs)
            return validate
        if (layer, name) == ("modal.kripke", "_rows_for"):
            return self.wrap(layer, name, fn, lambda r: c.update({"modal.kripke.models_evaluated": 1}))
        return self.wrap(layer, name, fn)

    def _fgh_result(self, r):
        c = self.counts
        kind = type(r).__name__
        if kind in ("Value", "LE"):
            c["fgh.result_bits"] += r.v.bit_length()
        elif kind == "BudgetExceeded":
            c["fgh.budget_stops"] += 1
        if self.timer_depth["fgh.slow.compute_l"]:
            c["fgh.slow.threshold_tests"] += 1

    def _formula_walk(self, _):
        if self.timer_depth["modal.kripke.eval"]:
            self.counts["modal.formula.walks_in_eval"] += 1

    def _counting(self, fn, key):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return counted

    def _patch(self, owner, name, value):
        self._patches.append((owner, name, vars(owner)[name]))
        setattr(owner, name, value)

    def uninstall(self):
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    # --- results -----------------------------------------------------------

    def layer_metrics(self) -> dict:
        c, st, tt = self.counts, self.self_time, self.timer_time

        def rate(num, den):
            return num / den if den else 0.0

        models = c["modal.kripke.models_evaluated"]
        return {
            "ordinal.self_s": st["ordinal"],
            "ordinal.calls": c["ordinal.calls"],
            "ordinal.render_s": tt["ordinal.render"],
            "ordinal.descent_steps": c["ordinal.descent_steps"],
            "ordinal.descent_steps_per_s": rate(c["ordinal.descent_steps"], tt["ordinal.descent"]),
            "fgh.self_s": st["fgh"],
            "fgh.calls": c["fgh.calls"],
            "fgh.machine_steps": c["fgh.machine_steps"],
            "fgh.steps_per_s": rate(c["fgh.machine_steps"], tt["fgh.machine"]),
            "fgh.result_bits": c["fgh.result_bits"],
            "fgh.budget_stops": c["fgh.budget_stops"],
            "fgh.slow.l_s": tt["fgh.slow.l"],
            "fgh.slow.threshold_tests": c["fgh.slow.threshold_tests"],
            "fgh.slow.tests_per_l": rate(c["fgh.slow.threshold_tests"],
                                         c["fgh.SlowFunctions._compute_l"]),
            "itercalc.self_s": st["itercalc"],
            "itercalc.calls": c["itercalc.calls"],
            "modal.formula.self_s": st["modal.formula"],
            "modal.formula.walks_per_model": rate(c["modal.formula.walks_in_eval"], models),
            "modal.kripke.self_s": st["modal.kripke"],
            "modal.kripke.models_evaluated": models,
            "modal.kripke.models_per_s": rate(models, tt["modal.kripke.eval"]),
            "modal.kripke.validate_s": tt["modal.kripke.validate"],
            "modal.prover.self_s": st["modal.prover"],
            "modal.prover.proof_lines": c["modal.prover.proof_lines"],
            "modal.proofs.check_s": tt["modal.proofs.check"],
            "modal.decide.self_s": st["modal.decide"],
            "modal.decide.calls": c["modal.decide.calls"],
            "oracles.self_s": st["oracles"],
            "oracles.frames_enumerated": c["oracles.frames_enumerated"],
            "oracles.extensions_useful_ratio": rate(c["oracles.extensions_yielded"],
                                                    c["oracles.extensions_tried"]),
        }

    def dump(self) -> dict:
        return {
            "self_time_s": dict(self.self_time),
            "timers_s": dict(self.timer_time),
            "counters": dict(self.counts),
            "spans_dropped": self.spans_dropped,
            "spans": [dict(zip(("id", "parent", "layer", "function", "start", "end"), s))
                      for s in self.spans],
        }
