"""Multi-decree replication over a slot-indexed log.

One aggregated phase 1 establishes a replica as leader for every slot at
or above its first undecided index; phase 2 then runs per slot to commit
client values.  Each replica combines the acceptor, proposer and learner
roles, and its leader is the only proposer.  The rules are
:mod:`fpaxos.core`'s: promise or nack a prepare (``core.can_promise``),
accept or nack per slot (``core.can_accept``), and at recovery choose
each slot's value (``core.choose_value``, else a no-op).  The one aggregated
piece of durable state is the promised ballot, which covers all slots.

Followers learn decisions from the leader's commit point, as with Raft's
``leaderCommit``: every propose carries the sender's first undecided
slot, and a replica that accepts it logs each slot below that point
whose accepted pair is at the propose's ballot.  So a new leader's first
undecided slot, and with it the history its phase 1 recovers, sits about
one window behind the old leader.  A leader or candidate that accepts a
higher ballot's propose steps down, since it may then know decisions its
own ballot never saw.

Replicas are plain deterministic objects: every method is a function of
current state and its arguments, and the harness owns all scheduling and
delivery (including the liveness machinery of retries and elections).
Crashes wipe volatile leader state; durable state additionally vanishes
only when a crash is injected with ``lose_memory``.

The wire messages here are classes of their own, since the simulator's
message counts are keyed by class name, but they share core's trace
encoder: ``message_json`` is :func:`fpaxos.core.message_json`.
"""

from __future__ import annotations

import heapq
import random
from collections import deque
from dataclasses import dataclass, field
from typing import Optional, Tuple

from . import core
from .core import Ballot
from .quorum import QuorumSystem, select_quorum

NOOP = ""  # reserved payload proposed to close log gaps during recovery

CLIENT = "client"


# -- wire messages ------------------------------------------------------


@dataclass(frozen=True)
class Request:
    src: object
    dst: object
    req_id: str = field(metadata={"trace": "req"})
    payload: str = field(metadata={"trace": None})


@dataclass(frozen=True)
class Response:
    src: object
    dst: object
    req_id: str = field(metadata={"trace": "req"})
    slot: int
    payload: str = field(metadata={"trace": None})


@dataclass(frozen=True)
class LeaderPrepare:
    src: object
    dst: object
    ballot: Ballot
    from_slot: int


@dataclass(frozen=True)
class LeaderPromise:
    src: object
    dst: object
    ballot: Ballot
    from_slot: int
    accepted: Tuple[Tuple[int, Ballot, str], ...]  # (slot, ballot, value), slot-sorted


@dataclass(frozen=True)
class LeaderNack:
    src: object
    dst: object
    ballot: Ballot
    promised: Ballot


@dataclass(frozen=True)
class SlotPropose:
    src: object
    dst: object
    ballot: Ballot
    slot: int
    value: str
    commit: int  # the sender's first undecided slot: every slot below it is decided


@dataclass(frozen=True)
class SlotAccept:
    src: object
    dst: object
    ballot: Ballot
    slot: int


@dataclass(frozen=True)
class SlotNack:
    src: object
    dst: object
    ballot: Ballot
    slot: int
    promised: Ballot


message_json = core.message_json  # one encoder serves both vocabularies


@dataclass
class _Inflight:
    value: str
    req_id: Optional[str]
    acks: set = field(default_factory=set)


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
        self.electing = False
        self.ballot: Optional[Ballot] = None
        self.seen_round = 0
        self.next_slot = 0
        self.inflight: dict = {}  # slot -> _Inflight
        self.pending: deque = deque()
        self._promises: dict = {}
        self._from_slot = 0
        self._new_slots: list = []  # harness hook: slots proposed since last drain

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

    def _demote(self) -> None:
        self.leading = False
        self.electing = False
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
        prior = self.log.setdefault(slot, pair)
        if prior[1] != pair[1]:
            raise core.AgreementViolation([prior, pair])

    # -- leader side ----------------------------------------------------

    def become_leader(self, alive) -> list:
        """Start (or restart) an aggregated phase 1 at a fresh ballot.

        Returns no messages when the alive set cannot form a phase-1
        quorum; the harness retries after restores.
        """
        self._demote()
        self.electing = True
        self.seen_round += 1
        self.ballot = Ballot(self.seen_round, self.id)
        self._from_slot = self.first_undecided()
        self.next_slot = self._from_slot
        targets = self._pick(1, alive, tick=self.seen_round)
        if targets is None:
            return []
        return [
            LeaderPrepare(src=self.id, dst=t, ballot=self.ballot, from_slot=self._from_slot)
            for t in sorted(targets)
        ]

    def retransmit(self, slot: int, alive) -> list:
        """Re-send an undecided proposal, re-picking targets among alive.

        While no phase-2 quorum is formable nothing is sent; the harness
        keeps retrying until restores make one available.
        """
        fl = self.inflight.get(slot)
        if not self.leading or fl is None:
            return []
        return self._fan_out(slot, fl.value, alive)

    def _pick(self, phase, alive, tick):
        if self.send_to_all:
            return self.qs.universe
        return select_quorum(
            self.qs, phase, alive,
            strategy=self.strategy, tick=tick, rng=self.rng, latency=self.latency,
        )

    def _propose_slot(self, slot, value, req_id, alive) -> list:
        self.inflight[slot] = _Inflight(value=value, req_id=req_id)
        self._new_slots.append(slot)
        return self._fan_out(slot, value, alive)

    def _fan_out(self, slot, value, alive) -> list:
        """Propose ``value`` at ``slot`` to a phase-2 quorum of alive; if none is formable, nothing."""
        targets = self._pick(2, alive, tick=slot)
        if targets is None:
            return []
        commit = self.first_undecided()
        return [
            SlotPropose(
                src=self.id, dst=t, ballot=self.ballot, slot=slot, value=value, commit=commit
            )
            for t in sorted(targets)
        ]

    def take_new_slots(self) -> list:
        """Drain the slots proposed since the last call (harness hook)."""
        out = self._new_slots
        self._new_slots = []
        return out

    def _drain_pending(self, alive) -> list:
        out = []
        while self.pending and len(self.inflight) < self.window:
            req = self.pending.popleft()
            slot = self.next_slot
            self.next_slot += 1
            out += self._propose_slot(slot, req.payload, req.req_id, alive)
        return out

    def _finish_election(self, alive) -> list:
        self.electing = False
        self.leading = True
        pool = {}  # slot -> the (ballot, value) pairs the promises report
        for pm in self._promises.values():
            for slot, b, v in pm.accepted:
                pool.setdefault(slot, []).append((b, v))
        horizon = max(pool, default=self._from_slot - 1)
        out = []
        for slot in range(self._from_slot, horizon + 1):
            if slot in self.log:
                continue
            value = core.choose_value(pool.get(slot, ()), NOOP)
            out += self._propose_slot(slot, value, None, alive)
        self.next_slot = max(self.next_slot, horizon + 1)
        out += self._drain_pending(alive)
        return out

    # -- dispatch -------------------------------------------------------

    def on_message(self, m, alive) -> list:
        """Total dispatcher; unknown or stale messages never raise."""
        handler = getattr(self, "_on_" + type(m).__name__, None)
        if handler is None:
            return []
        return handler(m, alive)

    def _observe(self, ballot: Ballot) -> None:
        if ballot.round > self.seen_round:
            self.seen_round = ballot.round

    def _on_Request(self, m: Request, alive) -> list:
        if not self.leading:
            return []  # client is expected to redirect
        self.pending.append(m)
        return self._drain_pending(alive)

    def _on_LeaderPrepare(self, m: LeaderPrepare, alive) -> list:
        self._observe(m.ballot)
        # A duplicate of the promised ballot's prepare is promised again, not nacked.
        if m.ballot != self.promised and not core.can_promise(self.promised, m.ballot):
            return [LeaderNack(src=self.id, dst=m.src, ballot=m.ballot, promised=self.promised)]
        self.promised = m.ballot
        pairs = tuple((s, b, v) for s, (b, v) in sorted(self.accepted.items()) if s >= m.from_slot)
        return [LeaderPromise(src=self.id, dst=m.src, ballot=m.ballot,
                              from_slot=m.from_slot, accepted=pairs)]

    def _on_LeaderPromise(self, m: LeaderPromise, alive) -> list:
        if not self.electing or m.ballot != self.ballot:
            return []
        self._promises[m.src] = m
        if not self.qs.is_q1(frozenset(self._promises)):
            return []
        return self._finish_election(alive)

    def _on_LeaderNack(self, m: LeaderNack, alive) -> list:
        self._observe(m.promised)
        return []

    def _on_SlotPropose(self, m: SlotPropose, alive) -> list:
        self._observe(m.ballot)
        if not core.can_accept(self.promised, m.ballot):
            nack = SlotNack(src=self.id, dst=m.src, ballot=m.ballot, slot=m.slot,
                            promised=self.promised)
            return [nack]
        self.promised = m.ballot
        self.accepted[m.slot] = (m.ballot, m.value)
        if self.ballot is not None and m.ballot > self.ballot:
            # A higher ballot's commit may log decisions our ballot never
            # saw; proposing on with that commit point could log ours over them.
            self._demote()
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
        if not self.leading or m.ballot != self.ballot:
            return []
        fl = self.inflight.get(m.slot)
        if fl is None:
            return []  # duplicate accept after decision: idempotent
        fl.acks.add(m.src)
        if not self.qs.is_q2(frozenset(fl.acks)):
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

    def _on_SlotNack(self, m: SlotNack, alive) -> list:
        self._observe(m.promised)
        if self.leading and self.ballot is not None and m.promised > self.ballot:
            self._demote()  # preempted by a higher ballot
        return []
