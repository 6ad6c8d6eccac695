"""The benchmark's workloads: seeded inputs, one timed pass, result checks.

Every workload is a closed loop: the benchmark calls one public ``repro``
sweep, waits for it, checks what came back and calls again.  A *pass* is
one such call; a *point* is the unit a pass is made of (a load level
dimensioned, a window vector evaluated, or a load level solved).

The seed picks the inputs and nothing else: the same seed gives the same
load levels.  Seeds only jitter the load levels around a fixed design,
so every seed asks for about the same amount of work.

``repro`` is imported lazily, inside the workload constructors, so that
the import counts into set-up time and ``run.py`` can list the workload
names without it.
"""

from __future__ import annotations

import json
import math
import pathlib
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

#: The seed whose outputs are checked against ``reference.json``.
DEFAULT_SEED = 0

#: Relative band within which a power must match its reference value.
PARITY_RTOL = 1e-8

#: The four ARPANET class rates (msg/s) that the load levels scale.
ARPANET_BASE_RATES = (8.0, 8.0, 6.0, 6.0)

REFERENCE_PATH = pathlib.Path(__file__).with_name("reference.json")


def _rng(seed: int, stream: str) -> np.random.Generator:
    """A generator private to one workload, so workloads never share draws."""
    return np.random.default_rng([seed, sum(map(ord, stream))])


def _close(value: float, expected: float) -> bool:
    return abs(value - expected) <= PARITY_RTOL * abs(expected)


def _positive(value: float) -> bool:
    return math.isfinite(value) and value > 0.0


def load_reference(name: str) -> Dict:
    """The committed default-seed reference of one workload."""
    return json.loads(REFERENCE_PATH.read_text())[name]


def _arpanet(rates: Sequence[float]):
    from repro.netmodel.examples import arpanet_fragment

    return arpanet_fragment(tuple(rates))


def _solve(network):
    """An independent heuristic solve and its power, for spot checks."""
    from repro.core.power import network_power
    from repro.mva.heuristic import solve_mva_heuristic

    solution = solve_mva_heuristic(network)
    return solution, network_power(solution)


class Workload:
    """One named workload; subclasses fill in the hooks below."""

    name = ""
    #: Points in one pass.
    points = 0
    #: Whether the timed path consults the SoA autobatch crossover.
    uses_autobatch = False

    def __init__(self, seed: int):
        self.seed = seed
        #: The workload's fixture, as the stamp describes it.
        self.network = None

    def run_pass(self):
        """One timed call into the public API; returns its raw outputs."""
        raise NotImplementedError

    def check(self, outputs, reference: Optional[Dict]) -> int:
        """Failed points of one pass: against ``reference`` when given,
        otherwise against the invariants only."""
        raise NotImplementedError

    def spot_check(self, outputs) -> Tuple[int, int]:
        """``(checked, failed)`` over a few points re-solved independently.

        The sweeps return powers only, so this is where convergence of
        their solves is checked; it runs after the timed phase."""
        return 0, 0

    def inputs(self) -> Dict:
        """The seeded inputs, as recorded next to a reference."""
        raise NotImplementedError

    def reference_payload(self, outputs) -> Dict:
        """The JSON-able record ``check`` compares against."""
        raise NotImplementedError

    def describe(self) -> Dict:
        """Point count and fixture shape, for the result stamp."""
        demands = self.network.demands
        return {
            "points_per_pass": self.points,
            "chains": int(demands.shape[0]),
            "stations": int(demands.shape[1]),
            "nonzero_share": round(float((demands > 0).mean()), 6),
        }


class ArpanetLoads(Workload):
    """WINDIM (pattern search over the serial plane) at 16 load levels."""

    name = "arpanet-loads"
    LEVELS = 16
    MAX_WINDOW = 32
    points = LEVELS

    def __init__(self, seed: int):
        super().__init__(seed)
        from repro.analysis.sweeps import optimal_window_sweep

        self._sweep = optimal_window_sweep
        scales = np.linspace(0.5, 2.0, self.LEVELS)
        scales = scales * (1.0 + _rng(seed, self.name).uniform(-0.02, 0.02, self.LEVELS))
        self.rate_vectors = [
            tuple(float(r * s) for r in ARPANET_BASE_RATES) for s in scales
        ]
        self.network = _arpanet(ARPANET_BASE_RATES)

    def run_pass(self):
        return self._sweep(
            lambda *rates: _arpanet(rates),
            self.rate_vectors,
            solver="mva-heuristic",
            max_window=self.MAX_WINDOW,
        )

    def check(self, outputs, reference):
        expected = reference["points"] if reference is not None else None
        failed = 0
        for k, point in enumerate(outputs):
            ok = (
                point.result.converged
                and _positive(point.power)
                and all(1 <= w <= self.MAX_WINDOW for w in point.windows)
            )
            if ok and expected is not None:
                ok = tuple(expected[k]["windows"]) == tuple(point.windows) and _close(
                    point.power, expected[k]["power"]
                )
            failed += not ok
        return failed + max(0, self.LEVELS - len(outputs))

    def inputs(self):
        return {"rates": [list(r) for r in self.rate_vectors]}

    def reference_payload(self, outputs):
        return {
            "inputs": self.inputs(),
            "points": [
                {"windows": list(p.windows), "power": p.power} for p in outputs
            ],
        }


class ArpanetGrid(Workload):
    """Power over every window vector of ``[1, 7]^4`` at one load."""

    name = "arpanet-grid"
    uses_autobatch = True
    MAX_WINDOW = 7
    points = MAX_WINDOW ** 4
    SPOT_CHECKS = 16

    def __init__(self, seed: int):
        super().__init__(seed)
        from repro.analysis.sweeps import window_grid_power
        from repro.search.space import IntegerBox

        self._grid = window_grid_power
        scale = 1.0 + _rng(seed, self.name).uniform(-0.1, 0.1)
        self.rates = tuple(float(r * scale) for r in ARPANET_BASE_RATES)
        self.network = _arpanet(self.rates)
        self.space = IntegerBox.windows(4, self.MAX_WINDOW)

    def run_pass(self):
        return self._grid(self.network, self.space)

    def check(self, outputs, reference):
        expected = (
            {tuple(w): p for *w, p in reference["grid"]}
            if reference is not None
            else None
        )
        failed = 0
        for windows in self.space.points():
            value = outputs.get(tuple(windows))
            ok = value is not None and _positive(value)
            if ok and expected is not None:
                ok = _close(value, expected[tuple(windows)])
            failed += not ok
        return failed

    def spot_check(self, outputs):
        keys = sorted(outputs)
        picks = _rng(self.seed, "spot").choice(len(keys), self.SPOT_CHECKS, replace=False)
        failed = 0
        for i in picks:
            solution, power = _solve(self.network.with_populations(keys[i]))
            failed += not (solution.converged and _close(outputs[keys[i]], power))
        return len(picks), failed

    def inputs(self):
        return {"rates": list(self.rates)}

    def reference_payload(self, outputs):
        return {
            "inputs": self.inputs(),
            "grid": [[*w, outputs[w]] for w in sorted(outputs)],
        }


class MediumCurve(Workload):
    """Fig. 4.9-style power curve of the 120-chain scale fixture."""

    name = "medium-curve"
    uses_autobatch = True
    LEVELS = 8
    points = LEVELS
    PRESET = "medium"
    SPOT_CHECKS = 2

    def __init__(self, seed: int):
        super().__init__(seed)
        import dataclasses

        from repro.analysis.sweeps import power_curve
        from repro.netmodel import builder
        from repro.netmodel.generator import (
            SCALE_FIXTURE_SEED,
            SCALE_PRESETS,
            random_mesh_topology,
            random_traffic_classes,
        )

        # scale_fixture(PRESET), drawn step by step so the class rates
        # can be scaled to each load level.
        preset = SCALE_PRESETS[self.PRESET]
        draws = np.random.default_rng(SCALE_FIXTURE_SEED)
        topology = random_mesh_topology(
            preset["num_nodes"], preset["extra_edges"], seed=draws
        )
        classes = random_traffic_classes(topology, preset["num_classes"], seed=draws)

        def factory(scale: float):
            # Looked up per call, so the traced run sees the netmodel layer.
            return builder.build_closed_network(
                topology,
                [dataclasses.replace(c, arrival_rate=c.arrival_rate * scale) for c in classes],
            )

        self._curve = power_curve
        self.factory = factory
        self.network = factory(1.0)
        # Hop-count windows: the builder's default populations.
        self.windows = [int(w) for w in self.network.populations]
        scales = np.linspace(0.25, 2.0, self.LEVELS)
        scales = scales * (1.0 + _rng(seed, self.name).uniform(-0.02, 0.02, self.LEVELS))
        self.scales = [float(s) for s in scales]

    def run_pass(self):
        return self._curve(self.factory, [(s,) for s in self.scales], self.windows)

    def check(self, outputs, reference):
        expected = reference["powers"] if reference is not None else None
        failed = 0
        for k, (_, power) in enumerate(outputs):
            ok = _positive(power)
            if ok and expected is not None:
                ok = _close(power, expected[k])
            failed += not ok
        return failed + max(0, self.LEVELS - len(outputs))

    def spot_check(self, outputs):
        from repro.netmodel.generator import scale_fixture

        # The step-by-step draw must be the canonical fixture.
        failed = int(not np.array_equal(self.network.demands, scale_fixture(self.PRESET).demands))
        picks = _rng(self.seed, "spot").choice(self.LEVELS, self.SPOT_CHECKS, replace=False)
        for k in picks:
            network = self.factory(self.scales[k]).with_populations(self.windows)
            solution, power = _solve(network)
            failed += not (solution.converged and _close(outputs[k][1], power))
        return len(picks) + 1, failed

    def inputs(self):
        return {"scales": list(self.scales)}

    def reference_payload(self, outputs):
        return {"inputs": self.inputs(), "powers": [p for _, p in outputs]}


WORKLOADS = {w.name: w for w in (ArpanetLoads, ArpanetGrid, MediumCurve)}

