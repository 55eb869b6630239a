"""Single-decree protocol state machines.

Pure transition functions over immutable acceptor and proposer states.
The callers own message delivery and scheduling: :func:`fpaxos.checker.replay`,
which also runs the scripted scenarios, the simulator's ``multi.Replica``,
and the tests, the only users of the proposer functions.  Every function
here is deterministic in (state, input).

Messages follow the classic two-phase shape: prepare/promise to win a
phase-1 quorum, propose/accept to commit a value on a phase-2 quorum.
Explicit nacks are an artifact addition so rejected proposers can react
promptly; they never change acceptor state, so safety is unaffected.

:func:`message_json`, which reads a message's JSON off its fields, is the
one trace encoder for these messages and the slot-level ones of ``multi``.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from functools import cache
from typing import Mapping, Optional, Tuple

from .quorum import QuorumSystem, select_quorum

Value = str

IDLE = "idle"
PHASE1 = "phase1"
PHASE2 = "phase2"
DECIDED = "decided"


class AgreementViolation(Exception):
    """Two phase-2 quorums hold different values: safety is broken."""

    def __init__(self, proposals):
        self.proposals = proposals
        super().__init__(f"conflicting decided proposals: {proposals}")


@dataclass(frozen=True, order=True)
class Ballot:
    """Totally ordered, proposer-unique proposal number."""

    round: int
    proposer: int

    def json(self) -> list:
        return [self.round, self.proposer]


@dataclass(frozen=True)
class AcceptorState:
    promised: Optional[Ballot] = None
    accepted: Optional[Tuple[Ballot, Value]] = None


# -- wire messages ------------------------------------------------------


@dataclass(frozen=True)
class Prepare:
    src: object
    dst: object
    ballot: Ballot


@dataclass(frozen=True)
class Promise:
    src: object
    dst: object
    ballot: Ballot
    accepted: Optional[Tuple[Ballot, Value]]


@dataclass(frozen=True)
class Propose:
    src: object
    dst: object
    ballot: Ballot
    value: Value


@dataclass(frozen=True)
class Accept:
    src: object
    dst: object
    ballot: Ballot


@dataclass(frozen=True)
class Nack:
    src: object
    dst: object
    ballot: Ballot
    promised: Ballot


@cache
def _plan(cls) -> tuple:
    """``(type, ((key, field name), ...))``: how ``message_json`` encodes ``cls``."""
    name = cls.__name__.removeprefix("Leader").removeprefix("Slot").lower()
    return name, tuple(
        (f.metadata.get("trace", f.name), f.name)
        for f in fields(cls)
        if f.name not in ("src", "dst") and f.metadata.get("trace", f.name) is not None
    )


def _json_value(v):
    if type(v) is Ballot:
        return [v.round, v.proposer]
    if type(v) is tuple:
        return [_json_value(x) for x in v]
    return v


def message_json(m) -> dict:
    """Canonical trace form of a message of either vocabulary, read off its fields.

    ``type`` is the class name without a ``Leader``/``Slot`` prefix,
    lower-cased; the other fields follow in declaration order, then ``src``
    and ``dst``.  A ballot is ``[round, proposer]`` and a tuple a list.  A
    field's ``metadata["trace"]`` renames its key, or with None leaves it out.
    """
    name, keys = _plan(type(m))
    d = {"type": name}
    for key, attr in keys:
        d[key] = _json_value(getattr(m, attr))
    d["src"] = m.src
    d["dst"] = m.dst
    return d


# -- acceptor -----------------------------------------------------------


def acceptor_handle_prepare(st: AcceptorState, m: Prepare):
    """Promise the ballot if it beats every earlier promise, else nack."""
    if st.promised is None or m.ballot > st.promised:
        st2 = replace(st, promised=m.ballot)
        return st2, Promise(src=m.dst, dst=m.src, ballot=m.ballot, accepted=st.accepted)
    return st, Nack(src=m.dst, dst=m.src, ballot=m.ballot, promised=st.promised)


def acceptor_handle_propose(st: AcceptorState, m: Propose):
    """Accept at or above the promised ballot; re-accepting is idempotent.

    Reads only ``ballot``, ``value``, ``src`` and ``dst``, so a
    ``multi.SlotPropose`` is handled as it is.
    """
    if st.promised is None or m.ballot >= st.promised:
        st2 = AcceptorState(promised=m.ballot, accepted=(m.ballot, m.value))
        return st2, Accept(src=m.dst, dst=m.src, ballot=m.ballot)
    return st, Nack(src=m.dst, dst=m.src, ballot=m.ballot, promised=st.promised)


# -- proposer -----------------------------------------------------------


@dataclass(frozen=True)
class ProposerState:
    proposer_id: int
    ballot: Ballot
    phase: str = IDLE
    candidate_value: Optional[Value] = None
    promises: Mapping[int, Optional[Tuple[Ballot, Value]]] = None
    accepts: frozenset = frozenset()
    chosen_value: Optional[Value] = None
    seen_round: int = 0

    def __post_init__(self):
        if self.promises is None:
            object.__setattr__(self, "promises", {})


def make_proposer(proposer_id: int, round: int, candidate: Value) -> ProposerState:
    return ProposerState(
        proposer_id=proposer_id,
        ballot=Ballot(round, proposer_id),
        candidate_value=candidate,
        seen_round=round,
    )


def choose_value(promised_pairs, candidate: Value) -> Value:
    """The value of the highest-ballot accepted pair, else the candidate."""
    pairs = [p for p in promised_pairs if p is not None]
    if not pairs:
        return candidate
    return max(pairs, key=lambda p: p[0])[1]


def proposer_start(ps: ProposerState, qs: QuorumSystem, targets):
    """Enter phase 1 by preparing to a phase-1 quorum (or to everyone)."""
    targets = frozenset(targets)
    if targets != qs.universe and not qs.is_q1(targets):
        raise ValueError(f"prepare targets {sorted(targets)} do not contain a phase-1 quorum")
    ps2 = replace(ps, phase=PHASE1, promises={}, accepts=frozenset(), chosen_value=None)
    msgs = [Prepare(src=ps.proposer_id, dst=t, ballot=ps.ballot) for t in sorted(targets)]
    return ps2, msgs


def proposer_on_promise(ps: ProposerState, qs: QuorumSystem, m: Promise, q2_targets=None):
    """Record a promise; on the first full phase-1 quorum, start phase 2.

    The proposed value is forced to the highest-ballot accepted pair among
    the collected promises; only with a clean slate may the proposer use
    its own candidate.  ``q2_targets`` overrides the default fixed-first
    phase-2 quorum choice.
    """
    if ps.phase != PHASE1 or m.ballot != ps.ballot:
        return ps, []
    promises = dict(ps.promises)
    promises[m.src] = m.accepted
    ps2 = replace(ps, promises=promises)
    if not qs.is_q1(frozenset(promises)):
        return ps2, []
    value = choose_value(promises.values(), ps.candidate_value)
    if q2_targets is None:
        q2_targets = select_quorum(qs, 2, qs.universe)
    else:
        q2_targets = frozenset(q2_targets)
        if q2_targets != qs.universe and not qs.is_q2(q2_targets):
            raise ValueError(
                f"propose targets {sorted(q2_targets)} do not contain a phase-2 quorum"
            )
    ps3 = replace(ps2, phase=PHASE2, chosen_value=value)
    msgs = [
        Propose(src=ps.proposer_id, dst=t, ballot=ps.ballot, value=value)
        for t in sorted(q2_targets)
    ]
    return ps3, msgs


def proposer_on_accept(ps: ProposerState, qs: QuorumSystem, m: Accept) -> ProposerState:
    """Record an accept; a full phase-2 quorum means the value is decided."""
    if ps.phase not in (PHASE2, DECIDED) or m.ballot != ps.ballot:
        return ps
    accepts = ps.accepts | {m.src}
    phase = DECIDED if qs.is_q2(accepts) else ps.phase
    return replace(ps, accepts=accepts, phase=phase)


def proposer_on_nack(ps: ProposerState, m: Nack) -> ProposerState:
    """Track the highest round seen so a retry can outbid it."""
    return replace(ps, seen_round=max(ps.seen_round, m.promised.round))


def proposer_retry(ps: ProposerState, qs: QuorumSystem, targets):
    """Re-enter phase 1 with a round above everything observed."""
    round = max(ps.seen_round, ps.ballot.round) + 1
    ps2 = replace(
        ps,
        ballot=Ballot(round, ps.proposer_id),
        seen_round=round,
        phase=IDLE,
        chosen_value=None,
    )
    return proposer_start(ps2, qs, targets)


# -- learner ------------------------------------------------------------


def decided_proposals(states: Mapping[int, AcceptorState], qs: QuorumSystem):
    """All (ballot, value) pairs currently held by a full phase-2 quorum."""
    holders = {}
    for aid, st in states.items():
        if st.accepted is not None:
            holders.setdefault(st.accepted, set()).add(aid)
    return sorted(
        (pair for pair, who in holders.items() if qs.is_q2(frozenset(who))),
        key=lambda p: p[0],
    )


def learner_decided(states: Mapping[int, AcceptorState], qs: QuorumSystem):
    """The decided (ballot, value), or None.

    Raises :class:`AgreementViolation` if quorums hold different values.
    """
    qualifying = decided_proposals(states, qs)
    if not qualifying:
        return None
    if len({v for _, v in qualifying}) > 1:
        raise AgreementViolation(qualifying)
    return qualifying[-1]
