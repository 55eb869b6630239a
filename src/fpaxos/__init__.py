"""Flexible Paxos toolkit.

Quorum systems generalized over the two protocol phases, pure
single-decree state machines, a slot-replicated multi-decree layer, a
deterministic fault-injecting simulator, and a bounded explicit-state
safety checker.
"""

from .checker import CheckConfig, explore, quorum_safety_sweep, replay
from .quorum import (
    FaultToleranceReport,
    QuorumSystem,
    failure_tolerance,
    make_explicit,
    make_grid,
    make_majority,
    make_simple,
    select_quorum,
    validate_cross_intersection,
)
from .scenarios import run_scenario
from .sim import RunMetrics, SafetyViolationError, SimConfig
from .sim import run as run_simulation

__all__ = [
    "CheckConfig",
    "FaultToleranceReport",
    "QuorumSystem",
    "RunMetrics",
    "SafetyViolationError",
    "SimConfig",
    "explore",
    "failure_tolerance",
    "make_explicit",
    "make_grid",
    "make_majority",
    "make_simple",
    "quorum_safety_sweep",
    "replay",
    "run_scenario",
    "run_simulation",
    "select_quorum",
    "validate_cross_intersection",
]
