"""Multi-decree replication over a slot-indexed log.

One aggregated phase 1 establishes a replica as leader for every slot at
or above its first undecided index; phase 2 then runs per slot to commit
client values.  Each replica combines the acceptor, proposer and learner
roles, and its leader is the only proposer.  The rules are
:mod:`fpaxos.core`'s: promise or nack a prepare, accept per slot, and at
recovery choose each slot's value (else a no-op).  The one aggregated
piece of durable state is the promised ballot, which covers all slots.

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

import random
from collections import deque
from dataclasses import dataclass, field
from typing import Optional, Tuple

from . import core
from .core import Ballot
from .quorum import QuorumSystem, select_quorum

NOOP = ""  # reserved payload proposed to close log gaps during recovery

CLIENT = "client"


class NotLeaderError(Exception):
    """Submit sent to a replica that is not the established leader."""


class WindowFullError(Exception):
    """Backpressure: the leader already has a full window in flight."""


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
        self.demote()
        self.seen_round = self.promised.round if self.promised else 0
        if lose_memory:
            self.promised = None
            self.accepted = {}
            self.log = {}
            self.seen_round = 0

    def demote(self) -> None:
        self.leading = False
        self.electing = False
        self.ballot = None
        self.inflight.clear()
        self.pending.clear()
        self._promises = {}

    def first_undecided(self) -> int:
        s = 0
        while s in self.log:
            s += 1
        return s

    def log_json(self) -> list:
        return [
            {"slot": s, "ballot": self.log[s][0].json(), "value": self.log[s][1]}
            for s in sorted(self.log)
        ]

    # -- leader side ----------------------------------------------------

    def become_leader(self, alive) -> list:
        """Start (or restart) an aggregated phase 1 at a fresh ballot.

        Returns no messages when the alive set cannot form a phase-1
        quorum; the harness retries after restores.
        """
        self.demote()
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

    def submit(self, req: Request, alive) -> list:
        """Assign the next slot to a client value and propose it."""
        if not self.leading:
            raise NotLeaderError(f"replica {self.id} is not the leader")
        if len(self.inflight) >= self.window:
            raise WindowFullError(f"{len(self.inflight)} proposals already in flight")
        slot = self.next_slot
        self.next_slot += 1
        return self._propose_slot(slot, req.payload, req.req_id, alive)

    def retransmit(self, slot: int, alive) -> list:
        """Re-send an undecided proposal, re-picking targets among alive.

        While no phase-2 quorum is formable nothing is sent; the harness
        keeps retrying until restores make one available.
        """
        fl = self.inflight.get(slot)
        if not self.leading or fl is None:
            return []
        targets = self._pick(2, alive, tick=slot)
        if targets is None:
            return []
        return [
            SlotPropose(src=self.id, dst=t, ballot=self.ballot, slot=slot, value=fl.value)
            for t in sorted(targets)
        ]

    def _pick(self, phase, alive, tick):
        if self.send_to_all:
            return self.qs.universe
        return select_quorum(
            self.qs, phase, alive,
            strategy=self.strategy, tick=tick, rng=self.rng, latency=self.latency,
        )

    def _propose_slot(self, slot, value, req_id, alive) -> list:
        targets = self._pick(2, alive, tick=slot)
        self.inflight[slot] = _Inflight(value=value, req_id=req_id)
        self._new_slots.append(slot)
        # with no quorum formable nothing is sent; retransmits adapt later
        return [
            SlotPropose(src=self.id, dst=t, ballot=self.ballot, slot=slot, value=value)
            for t in sorted(targets or ())
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
        if len(self.inflight) >= self.window:
            self.pending.append(m)
            return []
        return self.submit(m, alive)

    def _on_LeaderPrepare(self, m: LeaderPrepare, alive) -> list:
        self._observe(m.ballot)
        st, reply = core.acceptor_handle_prepare(core.AcceptorState(promised=self.promised), m)
        if isinstance(reply, core.Promise):
            self.promised = st.promised
            pairs = tuple(
                (s, b, v)
                for s, (b, v) in sorted(self.accepted.items())
                if s >= m.from_slot
            )
            return [
                LeaderPromise(
                    src=self.id, dst=m.src, ballot=m.ballot,
                    from_slot=m.from_slot, accepted=pairs,
                )
            ]
        return [LeaderNack(src=self.id, dst=m.src, ballot=m.ballot, promised=reply.promised)]

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
        st = core.AcceptorState(promised=self.promised, accepted=self.accepted.get(m.slot))
        st2, reply = core.acceptor_handle_propose(st, m)
        if isinstance(reply, core.Accept):
            self.promised = st2.promised
            self.accepted[m.slot] = st2.accepted
            return [SlotAccept(src=self.id, dst=m.src, ballot=m.ballot, slot=m.slot)]
        return [
            SlotNack(src=self.id, dst=m.src, ballot=m.ballot, slot=m.slot, promised=reply.promised)
        ]

    def _on_SlotAccept(self, m: SlotAccept, alive) -> list:
        if not self.leading or m.ballot != self.ballot:
            return []
        fl = self.inflight.get(m.slot)
        if fl is None:
            return []  # duplicate accept after decision: idempotent
        fl.acks.add(m.src)
        if not self.qs.is_q2(frozenset(fl.acks)):
            return []
        prior = self.log.get(m.slot)
        if prior is not None and prior[1] != fl.value:
            raise core.AgreementViolation([prior, (m.ballot, fl.value)])
        self.log[m.slot] = (m.ballot, fl.value)
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
            self.demote()  # preempted by a higher ballot
        return []
