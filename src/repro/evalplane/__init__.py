"""Unified evaluation plane: one interface over every execution path.

See :mod:`repro.evalplane.plane` for the contract.  There are exactly
three planes, named in :data:`PLANES`: ``serial`` (the in-process
reference), ``persistent`` (the shared-memory worker fleet with the
speculative scheduler) and ``resilient`` (the retry/escalation ladder).
:func:`build_plane` picks one from an objective's configuration.  The
conformance suite in ``tests/evalplane/`` certifies every entry of
:data:`PLANES` against the serial reference.
"""

from repro.evalplane.persistent import PersistentPlane
from repro.evalplane.plane import EvaluationPlane, build_plane
from repro.evalplane.resilient import ResilientPlane
from repro.evalplane.result import EvalResult
from repro.evalplane.serial import SerialPlane

#: Every evaluation plane, by name (also the ``source`` tag on results).
PLANES = {
    "serial": SerialPlane,
    "persistent": PersistentPlane,
    "resilient": ResilientPlane,
}

__all__ = ["EvaluationPlane", "EvalResult", "PLANES", "build_plane"]
