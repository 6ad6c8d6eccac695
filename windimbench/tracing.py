"""Per-layer spans recorded around the public entry points of ``repro``.

The program itself carries no tracing, so this module wraps the module
attributes and class methods at each layer boundary for the traced run
only, and puts the originals back afterwards.  A wrapped function is
rebound in every loaded ``repro`` module that holds it (``from x import
f`` copies the binding), and the call sites that import lazily look the
attribute up at call time, so every caller sees the wrapper.

A span records its name, start, end and parent.  A layer's self time is
the duration of its spans minus the time covered by their child spans.
"""

from __future__ import annotations

import importlib
import statistics
import sys
import time
from typing import Callable, Dict, List, Optional, Tuple

#: Layer -> the ``(module, attribute)`` boundaries its spans wrap.
LAYERS: Dict[str, Tuple[Tuple[str, str], ...]] = {
    "search": (("repro.search.pattern", "pattern_search"),),
    "evalplane": (
        ("repro.evalplane.plane", "EvaluationPlane.submit"),
        ("repro.evalplane.plane", "EvaluationPlane.submit_many"),
        ("repro.evalplane.serial", "SerialPlane.submit_many"),
    ),
    "objective": (
        ("repro.core.objective", "WindowObjective.__call__"),
        ("repro.core.objective", "WindowObjective.batch_solve"),
    ),
    "mva": (("repro.mva.heuristic", "solve_mva_heuristic"),),
    "kernel": (("repro.mva.heuristic", "batched_increments"),),
    "soa": (
        ("repro.mva.soa", "pack_windows"),
        ("repro.mva.soa", "solve_packed"),
    ),
    "netmodel": (
        ("repro.netmodel.builder", "build_closed_network"),
        ("repro.queueing.network", "ClosedNetwork.with_populations"),
    ),
}

#: Layers each workload must reach, and layers it must never reach.  A
#: rename or an eager import that silently zeroed a layer fails here.
COVERAGE = {
    "arpanet-loads": {
        "present": {"search", "evalplane", "objective", "mva", "kernel", "netmodel"},
        "absent": {"soa"},
    },
    "arpanet-grid": {
        "present": {"evalplane", "objective", "soa", "kernel", "netmodel"},
        "absent": {"search", "mva"},
    },
    "medium-curve": {
        "present": {"mva", "kernel", "netmodel"},
        "absent": {"search", "evalplane", "objective", "soa"},
    },
}

#: float64 (R, L) arrays the increments recursion reads or writes per
#: population step (``scaled`` and ``queue`` in, ``queue`` out); the
#: basis of the computed ``kernel.bytes_computed``.
KERNEL_ARRAYS_PER_STEP = 3

#: Samples that must lie beyond a reported tail percentile.
TAIL_MIN_BEYOND = 10


class Span:
    __slots__ = ("layer", "name", "start", "end", "parent", "child_s", "info")

    def __init__(self, layer: str, name: str, parent: Optional["Span"]):
        self.layer = layer
        self.name = name
        self.parent = parent
        self.child_s = 0.0
        self.info = None
        self.start = time.perf_counter()
        self.end = self.start

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s

    def under(self, layer: str) -> bool:
        """True when an ancestor span belongs to ``layer``."""
        span = self.parent
        while span is not None:
            if span.layer == layer:
                return True
            span = span.parent
        return False


class Tracer:
    """Installs the layer wrappers and keeps the spans they record."""

    def __init__(self):
        self.spans: List[Span] = []
        self.objectives: list = []
        self._stack: List[Span] = []
        self._undo: List[Tuple[object, str, object]] = []

    # -- installation --------------------------------------------------
    def _wrap(self, layer: str, name: str, original: Callable) -> Callable:
        stack, spans = self._stack, self.spans

        def traced(*args, **kwargs):
            span = Span(layer, name, stack[-1] if stack else None)
            stack.append(span)
            result = None
            try:
                result = original(*args, **kwargs)
                return result
            finally:
                span.end = time.perf_counter()
                stack.pop()
                if span.parent is not None:
                    span.parent.child_s += span.duration
                span.info = _summarise(name, args, result)
                spans.append(span)

        traced.__wrapped__ = original
        return traced

    def _rebind(self, owner, attribute: str, value) -> None:
        self._undo.append((owner, attribute, owner.__dict__[attribute]))
        setattr(owner, attribute, value)

    def install(self) -> None:
        """Wrap every boundary of :data:`LAYERS`; raises if one is missing."""
        for layer, boundaries in LAYERS.items():
            for module_name, attribute in boundaries:
                module = importlib.import_module(module_name)
                if "." in attribute:
                    class_name, method = attribute.split(".")
                    owner = getattr(module, class_name)
                    self._rebind(owner, method, self._wrap(layer, attribute, owner.__dict__[method]))
                    continue
                original = getattr(module, attribute)
                wrapped = self._wrap(layer, attribute, original)
                for name, loaded in list(sys.modules.items()):
                    if name.split(".")[0] == "repro" and getattr(loaded, attribute, None) is original:
                        self._rebind(loaded, attribute, wrapped)
        from repro.core.objective import WindowObjective

        init = WindowObjective.__dict__["__init__"]
        objectives = self.objectives

        def registering_init(obj, *args, **kwargs):
            init(obj, *args, **kwargs)
            objectives.append(obj)

        self._rebind(WindowObjective, "__init__", registering_init)

    def uninstall(self) -> None:
        while self._undo:
            owner, attribute, value = self._undo.pop()
            setattr(owner, attribute, value)

    # -- metrics -------------------------------------------------------
    def layers_seen(self) -> set:
        return {span.layer for span in self.spans}

    def coverage_errors(self, workload: str) -> List[str]:
        """Violations of :data:`COVERAGE` for ``workload`` (empty = pass)."""
        seen = self.layers_seen()
        expected = COVERAGE[workload]
        errors = [f"layer {l!r} recorded no span" for l in sorted(expected["present"] - seen)]
        errors += [f"layer {l!r} recorded spans but must be absent" for l in sorted(expected["absent"] & seen)]
        return errors

    def metrics(self, passes: int, traced_wall_s: float, soa_stats: Dict) -> Dict[str, Tuple[float, str]]:
        """Per-layer metrics, counts and times given per timed pass."""
        by_layer: Dict[str, List[Span]] = {layer: [] for layer in LAYERS}
        for span in self.spans:
            by_layer[span.layer].append(span)

        def outer(layer):
            return [s for s in by_layer[layer] if not s.under(layer)]

        def per_pass(value):
            return value / passes

        def self_s(layer):
            return per_pass(sum(s.self_s for s in by_layer[layer]))

        def busy_s(layer):
            return per_pass(sum(s.duration for s in outer(layer)))

        out: Dict[str, Tuple[float, str]] = {}

        searches = by_layer["search"]
        submits = []
        for span in outer("evalplane"):
            submits.extend((span, fresh) for fresh in span.info or ())
        out["search.calls"] = (per_pass(len(searches)), "count")
        out["search.self_s"] = (self_s("search"), "s")
        out["search.submits"] = (per_pass(sum(s.under("search") for s, _ in submits)), "count")
        out["evalplane.submits"] = (per_pass(len(submits)), "count")
        out["evalplane.self_s"] = (self_s("evalplane"), "s")
        hits = sum(not fresh for _, fresh in submits)
        out["evalplane.hit_ratio"] = (hits / len(submits) if submits else 0.0, "ratio")

        out["objective.fresh_solves"] = (per_pass(sum(o.evaluations for o in self.objectives)), "count")
        out["objective.self_s"] = (self_s("objective"), "s")

        solves = by_layer["mva"]
        durations_ms = sorted(s.duration * 1e3 for s in solves)
        tail_pct, tail_ms = _tail(durations_ms)
        out["mva.solves"] = (per_pass(len(solves)), "count")
        out["mva.busy_s"] = (busy_s("mva"), "s")
        out["mva.self_s"] = (self_s("mva"), "s")
        out["mva.p50_ms"] = (statistics.median(durations_ms) if durations_ms else 0.0, "ms")
        out["mva.tail_ms"] = (tail_ms, "ms")
        out["mva.tail_pct"] = (tail_pct, "%")
        out["mva.tail_samples"] = (float(len(durations_ms)), "count")
        out["mva.iterations_mean"] = (
            statistics.fmean(s.info[0] for s in solves if s.info) if solves else 0.0,
            "count",
        )
        out["mva.converged_ratio"] = (
            statistics.fmean(bool(s.info[1]) for s in solves if s.info) if solves else 0.0,
            "ratio",
        )

        kernels = by_layer["kernel"]
        kernel_busy = sum(s.duration for s in kernels)
        computed = sum(s.info or 0 for s in kernels)
        out["kernel.calls"] = (per_pass(len(kernels)), "count")
        out["kernel.busy_s"] = (per_pass(kernel_busy), "s")
        out["kernel.mean_us"] = (kernel_busy / len(kernels) * 1e6 if kernels else 0.0, "us")
        out["kernel.wall_share"] = (kernel_busy / traced_wall_s if traced_wall_s > 0 else 0.0, "ratio")
        out["kernel.bytes_computed"] = (per_pass(computed), "B")

        packs = [s for s in by_layer["soa"] if s.name == "pack_windows"]
        solved = [s for s in by_layer["soa"] if s.name == "solve_packed"]
        out["soa.pack_s"] = (per_pass(sum(s.duration for s in packs)), "s")
        out["soa.solve_s"] = (per_pass(sum(s.duration for s in solved)), "s")
        out["soa.networks"] = (per_pass(sum(s.info or 0 for s in packs)), "count")
        batches = soa_stats["engaged_batches"] + soa_stats["declined_batches"]
        out["soa.engaged_ratio"] = (
            soa_stats["engaged_batches"] / batches if batches else 0.0,
            "ratio",
        )

        out["netmodel.builds"] = (per_pass(len(by_layer["netmodel"])), "count")
        out["netmodel.busy_s"] = (busy_s("netmodel"), "s")
        return out


def _summarise(name: str, args: tuple, result) -> object:
    """The few facts a span keeps from its call (never the arrays)."""
    if result is None:
        return None
    if name == "solve_mva_heuristic":
        return (result.iterations, result.converged)
    if name == "batched_increments":
        scaled, populations = args[0], args[1]
        steps = int(populations.max()) if populations.size else 0
        return steps * scaled.size * scaled.itemsize * KERNEL_ARRAYS_PER_STEP
    if name == "pack_windows":
        return result.batch
    if name.endswith(".submit"):
        return (result.fresh,)
    if name.endswith(".submit_many"):
        return tuple(r.fresh for r in result)
    return None


def _tail(sorted_ms: List[float]) -> Tuple[float, float]:
    """``(percentile, value)`` of the highest sample that has
    :data:`TAIL_MIN_BEYOND` samples beyond it; ``(0, 0)`` with too few."""
    count = len(sorted_ms)
    if count <= TAIL_MIN_BEYOND:
        return 0.0, 0.0
    index = count - TAIL_MIN_BEYOND - 1
    return 100.0 * index / (count - 1), sorted_ms[index]
