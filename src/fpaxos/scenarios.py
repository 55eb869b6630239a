"""Scripted single-decree executions with byte-stable traces.

A scenario is data: a quorum system, its values, a path of actions and
the documented outcome.  :func:`fpaxos.checker.replay` delivers the path
to ``multi.Replica.on_message`` at slot 0 and records what it delivers
and decides as event tuples; this module names the parties (ballot i's
owner ``P{i+1}``, acceptor a ``A{a+1}``), renders each event as a
single-decree trace line, lets each proposer learn by
:func:`fpaxos.core.decided_proposals` over the accepts that reached it,
and raises :class:`ScenarioOutcomeError` unless the outcome is the
documented one.

Two scenarios exercise the four-acceptor improved-majority system
(|Q1| = 3, |Q2| = 2) with two competing proposers: ``fig2a`` runs them
serially (the second proposer must learn and re-propose the first value),
``fig2b`` runs them concurrently against disjoint phase-2 quorums
(exactly one can win).

``amnesia`` demonstrates why promises and accepted values must be
durable: an acceptor that forgets its state across a crash lets two
different values be decided.  ``amnesia-durable`` replays the same
schedule without the memory wipe and stays safe.  Without their
refusals, answers and crash, all paths but ``amnesia``'s are ones the
checker's model can take.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from . import core
from .checker import CheckConfig, replay
from .quorum import QuorumSystem, make_majority, mask_of


class ScenarioOutcomeError(AssertionError):
    """A scripted run ended in a state other than the documented one."""


@dataclass
class ScenarioResult:
    name: str
    trace: list = field(default_factory=list)
    decisions: list = field(default_factory=list)  # (ballot, value) in observation order
    proposer_values: dict = field(default_factory=dict)  # label -> decided value or None
    violation: bool = False

    @property
    def decided_values(self):
        return [v for _, v in self.decisions]


@dataclass(frozen=True)
class _Scenario:
    quorum: QuorumSystem
    values: tuple
    path: tuple
    proposer_values: dict  # documented: proposer -> the value it learns decided, or None
    decided: tuple  # documented: the decided values, in order


def _round(b, v, promisers, acceptors):
    """Ballot b alone: promises from ``promisers`` justify value v, which
    ``acceptors`` accept, and their answers reach the proposer."""
    return (
        (("prepare", b),)
        + tuple(("promise", a, b) for a in promisers)
        + (("propose", b, v, tuple(promisers)),)
        + tuple(("accept", a, b, v) for a in acceptors)
        + tuple(("answer", a, b) for a in acceptors)
    )


def _amnesia(wipe: bool) -> _Scenario:
    """A2 crashes after x is decided; P2 then prepares A2 and A3."""
    v = 1 if wipe else 0  # the wiped A2 promises a clean slate, so P2 may push y
    path = _round(0, 0, (0, 1), (0, 1)) + (("crash", 1, wipe),) + _round(1, v, (1, 2), (1, 2))
    p2 = "xy"[v]
    return _Scenario(make_majority(3), ("x", "y"), path, {"P1": "x", "P2": p2}, ("x", p2))


_SCENARIOS = {
    # P2 hears A4 and A3 first; A2's promise carries the accepted (1, a)
    "fig2a": _Scenario(
        make_majority(4, improved=True), ("a", "b"),
        _round(0, 0, (0, 1, 2), (0, 1)) + _round(1, 0, (3, 2, 1), (2, 3)),
        {"P1": "a", "P2": "a"}, ("a", "a"),
    ),
    # the proposals race: A1 accepts (1, a); A2 already promised 2 and
    # refuses it; A3 and A4 accept (2, b)
    "fig2b": _Scenario(
        make_majority(4, improved=True), ("a", "b"),
        (("prepare", 0), ("promise", 0, 0), ("promise", 1, 0), ("promise", 2, 0),
         ("prepare", 1), ("promise", 3, 1), ("promise", 2, 1), ("promise", 1, 1),
         ("propose", 0, 0, (0, 1, 2)), ("propose", 1, 1, (3, 2, 1)),
         ("accept", 0, 0, 0), ("refuse", 1, 0, 0), ("accept", 2, 1, 1), ("accept", 3, 1, 1),
         ("answer", 0, 0), ("answer", 1, 0), ("answer", 2, 1), ("answer", 3, 1)),
        {"P1": None, "P2": "b"}, ("b",),
    ),
    "amnesia": _amnesia(wipe=True),
    "amnesia-durable": _amnesia(wipe=False),
}
SCENARIOS = tuple(_SCENARIOS)


def _ballot(b: core.Ballot) -> core.Ballot:
    return replace(b, proposer=f"P{b.proposer + 1}")


def _acceptor(a: int) -> str:
    return f"A{a + 1}"


def _named(x):
    """``x`` as trace JSON, with the proposer of each ballot named."""
    if type(x) is core.Ballot:
        return _ballot(x).json()
    if type(x) is tuple:
        return [_named(y) for y in x]
    return x


_EXTRA_KEY = {"promise": "accepted", "propose": "value", "nack": "promised"}


def _message(kind, a, ballot, *extra) -> dict:
    """The trace line of a message that replay delivered between acceptor a
    and ``ballot``'s proposer; ``extra`` is the one field its type adds."""
    d = {"type": kind, "ballot": _named(ballot)}
    if extra:
        d[_EXTRA_KEY[kind]] = _named(extra[0])
    proposer = _ballot(ballot).proposer
    to_acceptor = kind in ("prepare", "propose")
    d["src"], d["dst"] = (proposer, _acceptor(a)) if to_acceptor else (_acceptor(a), proposer)
    return d


def _lines(kind, x, *rest) -> list:
    """The trace lines of one replay event, before their step numbers."""
    if kind == "decide":
        return [{"ev": "decide", "ballot": _ballot(x[0]).json(), "value": x[1]}]
    if kind == "violation":
        return [{"ev": "violation", "values": x}]
    if kind == "crash":
        return [{"ev": "crash", "acceptor": _acceptor(x), "wipe": rest[0]},
                {"ev": "restore", "acceptor": _acceptor(x)}]
    return [{"ev": "msg", "msg": _message(kind, x, *rest)}]


def run_scenario(name: str) -> ScenarioResult:
    if name not in _SCENARIOS:
        raise ValueError(f"unknown scenario {name!r}; choose from {SCENARIOS}")
    sc = _SCENARIOS[name]
    rr = replay(sc.path, CheckConfig(sc.quorum, values=sc.values))
    # a proposer learns its value once accepts from a phase-2 quorum reach it
    accepts = [e[1:] for e in rr.events if e[0] == "accept"]  # (acceptor, ballot)
    reached = {(b, v): mask_of(a for a, b1 in accepts if b1 == b) for b, v in rr.proposals.items()}
    learned = dict(core.decided_proposals(reached, sc.quorum))  # ballot -> value
    result = ScenarioResult(
        name=name,
        trace=[{"step": i, **l} for i, l in enumerate(l for e in rr.events for l in _lines(*e))],
        decisions=[(_ballot(b), v) for b, v in rr.decisions],
        proposer_values={_ballot(b).proposer: learned.get(b) for b in rr.proposals},
        violation=rr.conflicting,
    )
    outcome = (result.proposer_values, tuple(result.decided_values))
    if outcome != (sc.proposer_values, sc.decided):
        raise ScenarioOutcomeError(f"{name}: got {outcome}, documented {sc.proposer_values, sc.decided}")
    return result
