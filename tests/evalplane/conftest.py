"""Harness shared by the cross-plane conformance suite.

Every test in this package parametrises over the evaluation planes
(:data:`repro.evalplane.PLANES`).  The harness knows how to build, for
each plane, an objective satisfying its requirements (a worker pool for
``persistent``, the resilient ladder for ``resilient``) plus the plane on
top of it — tests only say *which* plane and *which* network.
"""

from __future__ import annotations

import pytest

from repro.core.objective import WindowObjective
from repro.evalplane import PLANES
from repro.search.cache import EvaluationCache
from repro.search.space import IntegerBox

#: Worker count for pooled planes throughout the suite (CI-friendly).
POOL_WORKERS = 2

BUILTIN_PLANES = tuple(PLANES)


def build_harness(
    plane_name: str,
    network,
    max_window: int = 12,
    reuse: bool = False,
    budget=None,
    max_evaluations: int = 10**9,
    on_evaluation=None,
    with_bound: bool = False,
    solver: str = "mva-heuristic",
):
    """Build ``(objective, plane)`` satisfying the named plane's needs."""
    plane_class = PLANES[plane_name]
    wiring = {}
    if plane_name == "resilient":
        from repro.resilience.ladder import ResilientSolver

        ladder = ResilientSolver(solver)
        objective = WindowObjective(network, ladder, reuse=reuse)
        wiring["resilient_solver"] = ladder
    elif plane_name == "persistent":
        objective = WindowObjective(
            network, solver, workers=POOL_WORKERS, reuse=reuse
        )
    else:
        objective = WindowObjective(network, solver, reuse=reuse)
    space = IntegerBox.windows(network.num_chains, max_window)
    plane = plane_class(
        objective,
        cache=EvaluationCache(objective),
        space=space,
        budget=budget,
        max_evaluations=max_evaluations,
        on_evaluation=on_evaluation,
        bound=objective.lower_bound if with_bound else None,
        seed_for=objective.seed_for if reuse else None,
        **wiring,
    )
    return objective, plane


@pytest.fixture(params=BUILTIN_PLANES)
def plane_name(request) -> str:
    """Parametrise a test over every evaluation plane."""
    return request.param


@pytest.fixture
def moderate_net():
    """The thesis 2-class network at moderate symmetric load."""
    from repro.netmodel.examples import canadian_two_class

    return canadian_two_class(18.0, 18.0, windows=(4, 4))
