"""Multi-decree replication over a slot-indexed log.

One aggregated phase 1 establishes a replica as leader for every slot at
or above its first undecided index; phase 2 then runs per slot to commit
client values.  Each replica combines the acceptor, proposer and learner
roles, and its leader is the only proposer.  The rules are
:mod:`fpaxos.core`'s: the acceptor applies core's one rule, a ballot at or
above its promise is taken, to a prepare (``core.acceptor_handle_prepare``)
and per slot to a propose (``core.acceptor_handle_propose``), and nacks
what it refuses; at recovery the leader chooses each slot's value with
``core.choose_value``, else a no-op.  The checker's replay delivers to
replicas of this class and reads its records off their replies.  The one
aggregated piece of durable state is the promised ballot, for all slots.
A replica holding a ballot is electing until it leads; only a leader
fills ``inflight`` or moves ``next_slot``, so recovery starts at the
``next_slot`` its prepare carried.

Followers learn decisions from the leader's commit point, as with Raft's
``leaderCommit``: every propose carries the sender's first undecided
slot, and a replica that accepts it logs each slot below that point
whose accepted pair is at the propose's ballot.  So a new leader's first
undecided slot, and with it the history its phase 1 recovers, sits about
one window behind the old leader.  A leader or candidate steps down on
seeing any higher ballot, in a prepare, a propose or a nack, as a Raft
server does on seeing a higher term.

Replicas are plain deterministic objects: every method is a function of
current state and its arguments, and the harness owns all scheduling and
delivery (including the liveness machinery of retries and elections).
Crashes wipe volatile leader state; durable state additionally vanishes
only when a crash is injected with ``lose_memory``.

These wire messages are the program's one message vocabulary; the
simulator's message counts are keyed by class name, and the trace
encoder is :func:`fpaxos.core.message_json`, which writes a message's
JSON text as the simulator records it.  They are slotted
dataclass records that nothing mutates or hashes, and ``on_message``
dispatches them through a table keyed by class.  They are not frozen: a
frozen dataclass sets each field through ``object.__setattr__``, which
makes building one, the simulator's commonest operation, more than twice
as slow.  A delivery must leave its message as it was, since a
duplicated message is one object delivered twice, and the simulator's
trace encodes a message once, when it is sent, and writes that text in
its drop and deliver lines too; ``tests/test_sim.py`` checks that of
every handler.

A ``first`` or ``fastest`` quorum pick depends only on the phase and the
alive set, so a replica makes it once per reachable set and remembers
the sorted targets; ``rotating`` and ``random`` pick afresh each time.
"""

from __future__ import annotations

import heapq
import random
from collections import deque
from dataclasses import dataclass, field
from typing import Optional, Tuple

from . import core
from .core import Ballot
from .quorum import QuorumSystem, mask_of, select_quorum

NOOP = ""  # reserved payload proposed to close log gaps during recovery

CLIENT = "client"


# -- wire messages ------------------------------------------------------


@dataclass(slots=True)
class Request:
    src: object
    dst: object
    req_id: str = field(metadata={"trace": "req"})
    payload: str = field(metadata={"trace": None})


@dataclass(slots=True)
class Response:
    src: object
    dst: object
    req_id: str = field(metadata={"trace": "req"})
    slot: int
    payload: str = field(metadata={"trace": None})


@dataclass(slots=True)
class LeaderPrepare:
    src: object
    dst: object
    ballot: Ballot
    from_slot: int


@dataclass(slots=True)
class LeaderPromise:
    src: object
    dst: object
    ballot: Ballot
    from_slot: int
    accepted: Tuple[Tuple[int, Ballot, str], ...]  # (slot, ballot, value), slot-sorted


@dataclass(slots=True)
class LeaderNack:
    src: object
    dst: object
    ballot: Ballot
    promised: Ballot


@dataclass(slots=True)
class SlotPropose:
    src: object
    dst: object
    ballot: Ballot
    slot: int
    value: str
    commit: int  # the sender's first undecided slot: every slot below it is decided


@dataclass(slots=True)
class SlotAccept:
    src: object
    dst: object
    ballot: Ballot
    slot: int


@dataclass(slots=True)
class SlotNack:
    src: object
    dst: object
    ballot: Ballot
    slot: int
    promised: Ballot


message_json = core.message_json  # the simulator encodes its trace through this name

_INBOUND = (Request, LeaderPrepare, LeaderPromise, LeaderNack, SlotPropose, SlotAccept, SlotNack)
_REMEMBERED = ("first", "fastest")  # strategies whose pick is a function of (phase, alive)


@dataclass
class _Inflight:
    value: str
    req_id: Optional[str]
    acks: int = 0  # bitmask of the acceptors that accepted


class Replica:
    """A combined acceptor/proposer/learner over a replicated log."""

    def __init__(
        self,
        replica_id: int,
        qs: QuorumSystem,
        window: int = 10,
        strategy: str = "first",
        send_to_all: bool = False,
        rng: Optional[random.Random] = None,
        latency=None,
    ):
        self.id = replica_id
        self.qs = qs
        self.window = window
        self.strategy = strategy
        self.send_to_all = send_to_all
        self.rng = rng
        self.latency = latency
        # durable acceptor state
        self.promised: Optional[Ballot] = None
        self.accepted: dict = {}  # slot -> (Ballot, value)
        # learner state
        self.log: dict = {}  # slot -> (Ballot, value)
        self._undecided = 0  # no slot below it is missing from the log
        self._unlogged: list = []  # heap of accepted slots not yet checked against a commit
        # volatile leader state
        self.leading = False
        self.ballot: Optional[Ballot] = None
        self.seen_round = 0
        self.next_slot = 0
        self.inflight: dict = {}  # slot -> _Inflight
        self.pending: deque = deque()
        self._promises: dict = {}
        # (phase, frozenset(alive)) -> sorted targets or None, for the _REMEMBERED strategies
        self._picks: Optional[dict] = {} if strategy in _REMEMBERED else None
        self._handlers = {cls: getattr(self, "_on_" + cls.__name__) for cls in _INBOUND}

    # -- lifecycle ----------------------------------------------------

    def crash(self, lose_memory: bool = False) -> None:
        self._demote()
        self.seen_round = self.promised.round if self.promised else 0
        if lose_memory:
            self.promised = None
            self.accepted = {}
            self.log = {}
            self._undecided = 0
            self._unlogged = []
            self.seen_round = 0

    @property
    def electing(self) -> bool:
        """Whether a phase 1 of this replica's ballot is under way."""
        return self.ballot is not None and not self.leading

    def _demote(self) -> None:
        self.leading = False
        self.ballot = None
        self.inflight.clear()
        self.pending.clear()
        self._promises = {}

    def first_undecided(self) -> int:
        s = self._undecided
        while s in self.log:
            s += 1
        self._undecided = s
        return s

    def _learn(self, slot: int, pair) -> None:
        """Log ``pair`` at ``slot``; a second value there is a ``core.SafetyViolationError``."""
        prior = self.log.setdefault(slot, pair)
        if prior[1] != pair[1]:
            raise core.SafetyViolationError(slot, [prior[1], pair[1]])

    # -- leader side ----------------------------------------------------

    def become_leader(self, alive) -> list:
        """Start (or restart) an aggregated phase 1 at a fresh ballot.

        Returns no messages when the alive set cannot form a phase-1 quorum,
        unless ``send_to_all`` sends to all n anyway; the harness retries
        after restores.
        """
        self._demote()
        self.seen_round += 1
        self.ballot = Ballot(self.seen_round, self.id)
        self.next_slot = self.first_undecided()
        targets = self._pick(1, alive, tick=self.seen_round)
        if targets is None:
            return []
        return [
            LeaderPrepare(src=self.id, dst=t, ballot=self.ballot, from_slot=self.next_slot)
            for t in targets
        ]

    def retransmit(self, slot: int, alive) -> list:
        """Re-send an undecided proposal, re-picking targets among alive.

        While no phase-2 quorum is formable nothing is sent, unless
        ``send_to_all`` sends to all n anyway; the harness keeps retrying
        until restores make one available.
        """
        fl = self.inflight.get(slot)
        if fl is None:
            return []
        return self._fan_out(slot, fl.value, alive)

    def _pick(self, phase, alive, tick) -> Optional[tuple]:
        """The ids of a phase quorum among ``alive`` in ascending order, or None.

        A ``first`` or ``fastest`` pick depends only on the phase and the
        alive set (the latency map is fixed), so it is made once per pair
        and remembered.  A crash, restore or partition changes the alive
        set the harness passes, and with it the key.
        """
        if self.send_to_all:
            return tuple(range(self.qs.n))
        if self._picks is not None:
            key = (phase, frozenset(alive))
            if key in self._picks:
                return self._picks[key]
        q = select_quorum(
            self.qs, phase, alive,
            strategy=self.strategy, tick=tick, rng=self.rng, latency=self.latency,
        )
        targets = None if q is None else tuple(sorted(q))
        if self._picks is not None:
            self._picks[key] = targets
        return targets

    def _propose_slot(self, slot, value, req_id, alive) -> list:
        self.inflight[slot] = _Inflight(value=value, req_id=req_id)
        return self._fan_out(slot, value, alive)

    def _fan_out(self, slot, value, alive) -> list:
        """Propose ``value`` at ``slot`` to a phase-2 quorum of alive, or to all n with
        ``send_to_all``; without it, if no quorum is formable, nothing."""
        targets = self._pick(2, alive, tick=slot)
        if targets is None:
            return []
        commit = self.first_undecided()
        return [
            SlotPropose(
                src=self.id, dst=t, ballot=self.ballot, slot=slot, value=value, commit=commit
            )
            for t in targets
        ]

    def _drain_pending(self, alive) -> list:
        out = []
        while self.pending and len(self.inflight) < self.window:
            req = self.pending.popleft()
            slot = self.next_slot
            self.next_slot += 1
            out += self._propose_slot(slot, req.payload, req.req_id, alive)
        return out

    def _finish_election(self, alive) -> list:
        self.leading = True
        pool = {}  # slot -> the (ballot, value) pairs the promises report, all >= next_slot
        for pm in self._promises.values():
            for slot, b, v in pm.accepted:
                pool.setdefault(slot, []).append((b, v))
        horizon = max(pool, default=self.next_slot - 1)
        out = []
        for slot in range(self.next_slot, horizon + 1):
            if slot in self.log:
                continue
            value = core.choose_value(pool.get(slot, ()), NOOP)
            out += self._propose_slot(slot, value, None, alive)
        self.next_slot = horizon + 1
        out += self._drain_pending(alive)
        return out

    # -- dispatch -------------------------------------------------------

    def on_message(self, m, alive) -> list:
        """Total dispatcher; unknown or stale messages never raise."""
        handler = self._handlers.get(type(m))
        if handler is None:
            return []
        return handler(m, alive)

    def _observe(self, ballot: Ballot) -> None:
        if ballot.round > self.seen_round:
            self.seen_round = ballot.round
        if self.ballot is not None and ballot > self.ballot:
            # The one way down.  A higher ballot's commit point may log decisions
            # our ballot never saw; proposing on with it could log ours over them.
            self._demote()

    def _on_Request(self, m: Request, alive) -> list:
        if not self.leading:
            return []  # client is expected to redirect
        self.pending.append(m)
        return self._drain_pending(alive)

    def _on_LeaderPrepare(self, m: LeaderPrepare, alive) -> list:
        self._observe(m.ballot)
        if not core.acceptor_handle_prepare(self, m.ballot):
            return [LeaderNack(src=self.id, dst=m.src, ballot=m.ballot, promised=self.promised)]
        pairs = tuple((s, b, v) for s, (b, v) in sorted(self.accepted.items()) if s >= m.from_slot)
        return [LeaderPromise(src=self.id, dst=m.src, ballot=m.ballot,
                              from_slot=m.from_slot, accepted=pairs)]

    def _on_LeaderPromise(self, m: LeaderPromise, alive) -> list:
        if self.leading or m.ballot != self.ballot:
            return []
        self._promises[m.src] = m
        if not self.qs.is_q1(mask_of(self._promises)):
            return []
        return self._finish_election(alive)

    def _on_SlotPropose(self, m: SlotPropose, alive) -> list:
        self._observe(m.ballot)
        if not core.acceptor_handle_propose(self, m.ballot, m.slot, m.value):
            nack = SlotNack(src=self.id, dst=m.src, ballot=m.ballot, slot=m.slot,
                            promised=self.promised)
            return [nack]
        self._learn_commit(m.ballot, m.slot, m.commit)
        return [SlotAccept(src=self.id, dst=m.src, ballot=m.ballot, slot=m.slot)]

    def _learn_commit(self, ballot: Ballot, slot: int, commit: int) -> None:
        """Log every accepted slot below ``commit`` whose pair is at ``ballot``.

        A ballot proposes one value per slot, so a pair accepted at the
        ballot whose leader reports the slot decided is that decision.  A
        slot held at another ballot can only be learned once a later ballot
        proposes it again, which puts it back in the queue.
        """
        heapq.heappush(self._unlogged, slot)
        while self._unlogged and self._unlogged[0] < commit:
            s = heapq.heappop(self._unlogged)
            pair = self.accepted.get(s)
            if pair is not None and pair[0] == ballot:
                self._learn(s, pair)

    def _on_SlotAccept(self, m: SlotAccept, alive) -> list:
        if m.ballot != self.ballot:
            return []
        fl = self.inflight.get(m.slot)
        if fl is None:
            return []  # duplicate accept after decision: idempotent
        fl.acks |= 1 << m.src
        if not self.qs.is_q2(fl.acks):
            return []
        self._learn(m.slot, (m.ballot, fl.value))
        del self.inflight[m.slot]
        out = []
        if fl.req_id is not None:
            out.append(
                Response(src=self.id, dst=CLIENT, req_id=fl.req_id, slot=m.slot, payload=fl.value)
            )
        out += self._drain_pending(alive)
        return out

    def _on_nack(self, m, alive) -> list:
        self._observe(m.promised)
        return []

    _on_LeaderNack = _on_SlotNack = _on_nack
