"""Span tracing for the benchmark's traced run.

The tracer wraps public functions and class constructors of ``cstar_fusion``
from outside the package.  Every ``cstar_fusion.*`` module attribute that
names a wrapped function is rebound to the wrapper, so internal calls such
as ``reconstruct`` -> ``frame_bounds`` nest under their caller.  Classes keep
their identity; their ``__init__`` is replaced in place.

Each span records its name, start, end, parent span and op id.  Spans stay
in memory and are written once, when the run ends.  A span's self time is
its duration minus the time its child spans cover; the op's own root span
(``bench.op``) holds the benchmark's share, so the self times of one op add
up to the op's traced duration.

This module imports neither numpy nor ``cstar_fusion`` at import time, so
``run.py`` can read the metric table without loading the library.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array
from pathlib import Path

# Wrapped callables, as ``<module>.<name>`` under ``cstar_fusion``.  A class
# entry times its ``__init__``.
WRAPPED = (
    "submodule.span_submodule",
    "submodule.block_submodule",
    "submodule.project",
    "frame.WeightedFrame",
    "frame.frame_bounds",
    "frame.tightness",
    "frame.reconstruct",
    "frame.synthesis",
    "frame.synthesis_adjoint",
    "frame.cone_add",
    "frame.block_multiplier_check",
    "morphism.OrthoMap",
    "morphism.transport_frame",
    "perturbation.proj_distance",
    "perturbation.perturbation_check",
    "perturbation.randomly_rotated",
    "oracle.flatten_frame_operator",
    "oracle.eigen_bounds",
    "oracle.brute_force_frame_check",
    "hilbert_module.inner_product",
    "hilbert_module.left_action",
    "hilbert_module.ModuleVector",
    "algebra.AlgebraElement",
    "scenario.load_scenario",
    "cli.run_scenario",
    "cli.dump_json",
)

# The library's modules that do work (``errors`` does none).
LAYERS = (
    "algebra",
    "hilbert_module",
    "submodule",
    "frame",
    "morphism",
    "perturbation",
    "oracle",
    "scenario",
    "cli",
)

OP_SPAN = "bench.op"

# Spans beyond this many are counted in the statistics but not stored, which
# bounds the tracer's memory at about 40 bytes per stored span.
MAX_STORED_SPANS = 1_000_000


def per_layer_metrics() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every metric a traced run reports, per op."""
    rows = []
    for name in WRAPPED:
        rows.append((f"{name}.calls", "calls/op", "lower"))
        rows.append((f"{name}.self_ms", "ms/op", "lower"))
        rows.append((f"{name}.errors", "errors/op", "lower"))
    rows += [(f"{layer}.self_ms", "ms/op", "lower") for layer in LAYERS]
    rows += [
        (f"{OP_SPAN}.self_ms", "ms/op", "lower"),
        ("perturbation.guaranteed_ratio", "fraction", "higher"),
        ("oracle.match_ratio", "fraction", "higher"),
        ("frame.reconstruct.max_rel_error", "ratio", "lower"),
        ("trace.op_p50_ms", "ms", "lower"),
        ("trace.untraced_op_p50_ms", "ms", "lower"),
        ("trace.overhead_ratio", "ratio", "lower"),
        ("trace.unaccounted_ms", "ms/op", "lower"),
    ]
    return rows


class Tracer:
    """Collects spans and per-name call counts, self times and errors."""

    def __init__(self) -> None:
        self.names = [OP_SPAN, *WRAPPED]
        count = len(self.names)
        self.calls = [0] * count
        self.self_ns = [0] * count
        self.errors = [0] * count
        self.span_name = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.dropped = 0
        self.op_id = -1
        # Open spans: [name id, stored span index or -1, start ns, child ns].
        self._stack: list[list[int]] = []
        self._restore: list[tuple[object, str, object]] = []
        self.guaranteed = [0, 0]
        self.oracle_matched = [0, 0]
        self.max_rel_error = 0.0

    # -- spans ---------------------------------------------------------------

    def _enter(self, nid: int) -> None:
        stack = self._stack
        start = time.perf_counter_ns()
        index = len(self.span_start)
        if index < MAX_STORED_SPANS:
            self.span_name.append(nid)
            self.span_start.append(start)
            self.span_end.append(0)
            self.span_parent.append(stack[-1][1] if stack else -1)
            self.span_op.append(self.op_id)
        else:
            self.dropped += 1
            index = -1
        stack.append([nid, index, start, 0])

    def _exit(self, failed: bool) -> None:
        end = time.perf_counter_ns()
        nid, index, start, child = self._stack.pop()
        duration = end - start
        self.calls[nid] += 1
        self.self_ns[nid] += duration - child
        if failed:
            self.errors[nid] += 1
        if self._stack:
            self._stack[-1][3] += duration
        if index >= 0:
            self.span_end[index] = end

    def wrap(self, nid: int, fn, observe=None):
        """A wrapper that records one span per call of ``fn``.

        A direct recursive call (``dump_json`` calls itself through its
        module global) is folded into the outermost span.
        """
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if stack and stack[-1][0] == nid:
                return fn(*args, **kwargs)
            self._enter(nid)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self._exit(True)
                raise
            self._exit(False)
            if observe is not None:
                observe(result)
            return result

        return traced

    # -- outcome counters ------------------------------------------------------

    def _observe_perturbation(self, report) -> None:
        self.guaranteed[0] += bool(report.guaranteed)
        self.guaranteed[1] += 1

    def _observe_reconstruct(self, result) -> None:
        self.max_rel_error = max(self.max_rel_error, float(result.rel_error))

    def _observe_run_scenario(self, outcome) -> None:
        report, _ok = outcome
        for entry in report["results"]:
            if entry["command"] == "verify-oracle" and "output" in entry:
                out = entry["output"]
                self.oracle_matched[0] += bool(out["matches_bounds"] and out["sample_check"])
                self.oracle_matched[1] += 1

    # -- installation ----------------------------------------------------------

    def install(self) -> None:
        """Wrap every entry of WRAPPED and rebind all references to it."""
        observers = {
            "perturbation.perturbation_check": self._observe_perturbation,
            "frame.reconstruct": self._observe_reconstruct,
            "cli.run_scenario": self._observe_run_scenario,
        }
        for module_name in LAYERS:
            importlib.import_module(f"cstar_fusion.{module_name}")
        modules = [
            mod
            for name, mod in sys.modules.items()
            if name == "cstar_fusion" or name.startswith("cstar_fusion.")
        ]
        for nid, qualified in enumerate(self.names[1:], start=1):
            module_name, attr = qualified.split(".")
            original = getattr(sys.modules[f"cstar_fusion.{module_name}"], attr)
            if isinstance(original, type):
                init = original.__dict__["__init__"]
                original.__init__ = self.wrap(nid, init)
                self._restore.append((original, "__init__", init))
                continue
            wrapper = self.wrap(nid, original, observers.get(qualified))
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        self._restore.append((mod, key, original))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()

    def run_op(self, op_id: int, op, inputs):
        """Run one op under the root span ``bench.op``."""
        self.op_id = op_id
        self._enter(0)
        try:
            result = op(inputs)
        except BaseException:
            self._exit(True)
            raise
        self._exit(False)
        return result

    # -- results ---------------------------------------------------------------

    def summary(self, ops: int, traced_total_ms: float) -> dict[str, float]:
        """Per-op metrics over ``ops`` traced ops (see ``per_layer_metrics``)."""
        ops = max(ops, 1)
        out: dict[str, float] = {}
        layer_ms = dict.fromkeys(LAYERS, 0.0)
        for nid, name in enumerate(self.names):
            self_ms = self.self_ns[nid] / 1e6
            if nid == 0:
                out[f"{OP_SPAN}.self_ms"] = self_ms / ops
                continue
            out[f"{name}.calls"] = self.calls[nid] / ops
            out[f"{name}.self_ms"] = self_ms / ops
            out[f"{name}.errors"] = self.errors[nid] / ops
            layer_ms[name.split(".")[0]] += self_ms
        for layer, total in layer_ms.items():
            out[f"{layer}.self_ms"] = total / ops
        hits, total = self.guaranteed
        out["perturbation.guaranteed_ratio"] = hits / total if total else 0.0
        hits, total = self.oracle_matched
        out["oracle.match_ratio"] = hits / total if total else 0.0
        out["frame.reconstruct.max_rel_error"] = self.max_rel_error
        accounted_ms = sum(self.self_ns) / 1e6
        out["trace.unaccounted_ms"] = (traced_total_ms - accounted_ms) / ops
        return out

    def write(self, path: Path) -> None:
        """Write the stored spans as one .npz file of parallel columns."""
        import numpy as np

        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            start_ns=np.frombuffer(self.span_start, dtype=np.int64),
            end_ns=np.frombuffer(self.span_end, dtype=np.int64),
            parent=np.frombuffer(self.span_parent, dtype=np.int32),
            op=np.frombuffer(self.span_op, dtype=np.int32),
            dropped=np.array(self.dropped),
        )
