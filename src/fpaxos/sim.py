"""Deterministic discrete-event simulator with fault injection.

A world hosts n combined acceptor/proposer/learner replicas, a virtual
clock in integer microseconds, and a single seeded RNG.  Identical
configurations (including the seed) produce byte-identical traces and
metrics.  Events are processed in (time, insertion-sequence) order, so
ties break deterministically.  ``SimConfig.from_json`` decodes a config
through :func:`fpaxos.core.read_config`; every time must be finite in us.

The network model is one-way link latency per replica pair (fixed, or
sampled once per pair from a uniform range), optional message loss and
duplication, and partition schedules.  Bandwidth and queueing are not
modeled; absolute throughput is therefore not meaningful to compare
against real deployments, while trends across quorum configurations are.

The client is closed-loop and co-located with the leader: it keeps a
fixed window of requests outstanding and submits a new one per response.
Client links have zero latency and never fail, so protocol messages and
client messages can be accounted separately.

Elections follow a schedule, which stands in for a failure detector: an
election starts its candidate's phase 1, holds the client back until the
candidate leads, and reaches no other replica.  A deposed leader steps
down only as a real one would: on a nack naming a higher ballot, on
accepting a higher ballot's propose, by a crash or by campaigning again.
Until then one cut off by a partition keeps leading its side, so two
proposers can compete.

Safety is checked online.  Only a propose delivery changes what an
acceptor holds, and then only for the recipient's slot, so it is the one
(ballot, value) pair the recipient now holds there that can newly reach a
phase-2 quorum (a memory-wiping crash only removes holders).  The world
collects that pair's holders as a bitmask over the replicas and asks the
quorum system's compiled phase-2 predicate; the first pair to qualify is
the slot's decision, and any later pair with another value aborts the run
with the trace as counterexample.
"""

from __future__ import annotations

import heapq
import math
import random
from collections import Counter, defaultdict
from dataclasses import MISSING, dataclass, fields
from typing import Optional, Tuple

from . import multi
from .core import read_config, to_jsonl  # noqa: F401 (the CLI and perfbench call sim.to_jsonl)
from .multi import CLIENT, NOOP, Replica
from .quorum import QuorumSystem, is_id_lists

US_PER_MS = 1000
REQUEST_BYTES = 64  # client payload length; no bandwidth is modeled, so size moves no metric


def ms_to_us(ms: float) -> int:
    return int(round(ms * US_PER_MS))


def _is_time(ms) -> bool:
    """``ms`` is >= 0 and stays finite in microseconds, so ``ms_to_us`` takes it."""
    return 0 <= ms * US_PER_MS < math.inf


class SafetyViolationError(Exception):
    """A slot resolved to two different values; carries the evidence."""

    def __init__(self, slot, values, trace):
        self.slot = slot
        self.values = values
        self.trace = trace
        super().__init__(f"slot {slot} decided as {values!r}")


@dataclass(frozen=True)
class Latency:
    """One-way link latency; fixed when lo == hi, else uniform per pair."""

    lo_ms: float = 10.0
    hi_ms: float = 10.0

    def __post_init__(self):
        if not (0 <= self.lo_ms <= self.hi_ms and _is_time(self.hi_ms)):
            raise ValueError(f"latency needs 0 <= lo_ms <= hi_ms, finite in us, got {self!r}")

    def sample_us(self, rng: random.Random) -> int:
        if self.lo_ms == self.hi_ms:
            return ms_to_us(self.lo_ms)
        return ms_to_us(rng.uniform(self.lo_ms, self.hi_ms))

    @staticmethod
    def parse(text: str) -> "Latency":
        lo, sep, hi = text.partition(":")
        try:
            lo_ms = float(lo)
            hi_ms = float(hi) if sep else lo_ms
        except ValueError:
            raise ValueError(f"latency must be 'MS' or 'LO:HI' in ms, got {text!r}") from None
        return Latency(lo_ms, hi_ms)


@dataclass(frozen=True)
class CrashEvent:
    t_ms: float
    replica: int
    lose_memory: bool = False


@dataclass(frozen=True)
class RestoreEvent:
    t_ms: float
    replica: int


@dataclass(frozen=True)
class ElectionEvent:
    t_ms: float
    replica: int


@dataclass(frozen=True)
class PartitionEvent:
    t_ms: float
    groups: Tuple[Tuple[int, ...], ...] = ()  # empty tuple heals the network

    def __post_init__(self):  # JSON gives lists; keep the event hashable
        object.__setattr__(self, "groups", tuple(tuple(g) for g in self.groups))


# What each entry of a schedule row must be, by event field.
_ROW_ENTRIES = {
    "t_ms": (lambda x: type(x) in (int, float), "a time in ms"),
    "replica": (lambda x: type(x) is int, "a replica id"),
    "lose_memory": (lambda x: type(x) is bool, "true or false"),
    "groups": (is_id_lists, "a list of replica-id lists"),
}


def _schedule_decoder(key: str, event):
    names = [f.name for f in fields(event)]
    required = sum(f.default is MISSING for f in fields(event))
    shape = ", ".join(names[:required]) + "".join(f" [, {n}]" for n in names[required:])

    def decode(rows):
        if not isinstance(rows, (list, tuple)):
            raise ValueError(f"{key} must be a list of rows, got {rows!r}")
        for row in rows:
            if not isinstance(row, (list, tuple)) or not required <= len(row) <= len(names):
                raise ValueError(f"{key} row {row!r} must be [{shape}]")
            for name, x in zip(names, row):
                valid, what = _ROW_ENTRIES[name]
                if not valid(x):
                    raise ValueError(f"{key} row {row!r}: {name} must be {what}")
        return tuple(event(*row) for row in rows)

    return decode


_SCHEDULES = {
    "crashes": CrashEvent, "restores": RestoreEvent,
    "elections": ElectionEvent, "partitions": PartitionEvent,
}

# Decoders for the SimConfig fields that are not plain JSON values.
_DECODERS = {
    "quorum": QuorumSystem.from_json,
    "latency": lambda text: Latency.parse(str(text)),
    **{key: _schedule_decoder(key, event) for key, event in _SCHEDULES.items()},
}


@dataclass(frozen=True)
class SimConfig:
    quorum: QuorumSystem
    seed: int = 0
    latency: Latency = Latency(10.0, 10.0)
    loss: float = 0.0
    duplicate: float = 0.0
    crashes: Tuple[CrashEvent, ...] = ()
    restores: Tuple[RestoreEvent, ...] = ()
    elections: Tuple[ElectionEvent, ...] = ()
    partitions: Tuple[PartitionEvent, ...] = ()
    window: int = 10
    duration_ms: float = 120_000.0
    warmup_ms: float = 10_000.0
    cooldown_ms: float = 10_000.0
    strategy: str = "first"
    send_to_all: bool = False
    initial_leader: int = 0
    record_trace: bool = True
    election_retry_ms: float = 100.0
    retransmit_ms: float = 200.0

    @property
    def n(self) -> int:
        return self.quorum.n

    def validate(self) -> None:
        for key in ("loss", "duplicate"):
            p = getattr(self, key)
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{key} must be a probability in [0, 1], got {p!r}")
        if not 0 <= self.initial_leader < self.n:
            raise ValueError("initial_leader out of range")
        if self.window < 1:
            raise ValueError("window must be >= 1")
        retries = ("election_retry_ms", "retransmit_ms")  # a retry at 0 us repeats forever
        keys = ("duration_ms", "warmup_ms", "cooldown_ms", *retries)
        times = [(key, getattr(self, key)) for key in keys]
        times += [(f"{name} entry", ev.t_ms) for name in _SCHEDULES for ev in getattr(self, name)]
        for key, ms in times:
            least_us = 1 if key in retries else 0
            if not (_is_time(ms) and ms_to_us(ms) >= least_us):
                what = "that rounds to at least 1 us (0.001 ms)" if least_us else ">= 0"
                raise ValueError(f"{key} must be a time {what}, finite in us, got {ms!r}")
        if self.warmup_ms + self.cooldown_ms >= self.duration_ms:
            raise ValueError("warmup + cooldown must leave a steady window")
        for name in _SCHEDULES:
            sched = getattr(self, name)
            times = [ev.t_ms for ev in sched]
            if times != sorted(times):
                raise ValueError(f"{name} schedule must be time-ordered")
            for ev in sched:
                ids = [ev.replica] if hasattr(ev, "replica") else [a for g in ev.groups for a in g]
                for r in ids:
                    if not 0 <= r < self.n:
                        raise ValueError(f"{name} entry names replica {r} outside [0, {self.n})")
                if len(set(ids)) < len(ids):
                    raise ValueError(f"{name} entry puts a replica in two groups: {ev.groups!r}")

    @staticmethod
    def from_json(d: dict) -> "SimConfig":
        """Decode a JSON configuration with :func:`fpaxos.core.read_config`.

        Absent keys keep the defaults above; an unknown key, or a value of
        the wrong type or shape, is a ``ValueError`` naming the key.
        """
        defaults = {f.name: f.default for f in fields(SimConfig)}
        return SimConfig(**read_config(d, defaults, _DECODERS, "simulation"))


def _pctl(sorted_xs, p: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    if not sorted_xs:
        return 0.0
    k = max(1, math.ceil(p * len(sorted_xs)))
    return sorted_xs[k - 1]


def _mean(xs) -> float:
    return sum(xs) / len(xs) if xs else 0.0


@dataclass(frozen=True)
class RunMetrics:
    n: int
    kind: str
    q1: int
    q2: int
    seed: int
    committed: int
    throughput: float
    mean_latency_ms: float
    median_latency_ms: float
    p99_latency_ms: float
    msgs_per_commit: float
    protocol_msgs_per_commit: float
    message_counts: dict
    per_replica_sent: tuple
    per_replica_received: tuple
    nacks: int
    drops: int
    decided_slots: int
    noop_slots: int

    CSV_HEADER = "n,kind,q1,q2,seed,throughput,mean_lat,p99_lat,msgs_per_commit"

    def to_json(self) -> dict:
        """Every field in declaration order, tuples as lists, message counts sorted by type."""
        d = {f.name: getattr(self, f.name) for f in fields(self)}
        d["message_counts"] = dict(sorted(self.message_counts.items()))
        d["per_replica_sent"] = list(self.per_replica_sent)
        d["per_replica_received"] = list(self.per_replica_received)
        return d

    def csv_row(self) -> str:
        return (
            f"{self.n},{self.kind},{self.q1},{self.q2},{self.seed},"
            f"{self.throughput:.6f},{self.mean_latency_ms:.6f},"
            f"{self.p99_latency_ms:.6f},{self.msgs_per_commit:.6f}"
        )


_PROTO_SLOT = (multi.SlotPropose, multi.SlotAccept, multi.SlotNack)


class World:
    """Owner of all replica state, the event heap, and the metrics."""

    def __init__(self, cfg: SimConfig):
        cfg.validate()
        self.cfg = cfg
        n = cfg.n
        self.rng = random.Random(cfg.seed)
        self.lat = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                d = cfg.latency.sample_us(self.rng)
                self.lat[i][j] = self.lat[j][i] = d
        self.replicas = [
            Replica(
                i,
                cfg.quorum,
                window=cfg.window,
                strategy=cfg.strategy,
                send_to_all=cfg.send_to_all,
                rng=random.Random((cfg.seed << 8) ^ i),
                latency=self.lat[i],
            )
            for i in range(n)
        ]
        self.alive = set(range(n))
        self.partition = None  # id -> group index, or None when healed
        self._reachable = {}  # id -> reachable(id); cleared on crash, restore, partition
        self.heap = []
        self.seq = 0
        self.now = 0
        self.end_us = ms_to_us(cfg.duration_ms)
        self.trace = []
        self.leader_id = None
        self.intended = None
        # client
        self.client_started = False
        self.req_seq = 0
        self.outstanding = {}  # req_id -> (submit_us, payload)
        self.responses = {}  # req_id -> (t_us, slot, latency_us)
        # metrics
        self.msg_counts = Counter()
        self.sent = [0] * n
        self.recv = [0] * n
        self.slot_proto = defaultdict(int)
        self.slot_client = defaultdict(int)
        self.req_msgs = Counter()
        self.registry = {}  # slot -> first decided value (world learner)
        self.drops = 0
        self.pending_retransmit = set()
        self.faults_possible = bool(
            cfg.loss or cfg.duplicate or any(getattr(cfg, key) for key in _SCHEDULES)
        )

    # -- plumbing -----------------------------------------------------

    def _schedule(self, t_us: int, kind: str, payload) -> None:
        heapq.heappush(self.heap, (t_us, self.seq, kind, payload))
        self.seq += 1

    def _trace(self, ev: str, **fields) -> None:
        if self.cfg.record_trace:
            self.trace.append({"t": self.now, "ev": ev, **fields})

    def _trace_msg(self, ev: str, m, **fields) -> None:
        """Like ``_trace`` with a trailing ``msg`` field, encoded only when recorded."""
        if self.cfg.record_trace:
            self.trace.append({"t": self.now, "ev": ev, **fields, "msg": multi.message_json(m)})

    def _same_side(self, a, b) -> bool:
        if self.partition is None:
            return True
        return self.partition.get(a) == self.partition.get(b)

    def reachable(self, r: int) -> frozenset:
        got = self._reachable.get(r)
        if got is None:
            got = self._reachable[r] = frozenset(
                a for a in self.alive if self._same_side(r, a)
            )
        return got

    # -- run loop -------------------------------------------------------

    def run(self) -> RunMetrics:
        cfg = self.cfg
        self._schedule(0, "election", cfg.initial_leader)
        for ev in cfg.crashes:
            self._schedule(ms_to_us(ev.t_ms), "crash", ev)
        for ev in cfg.restores:
            self._schedule(ms_to_us(ev.t_ms), "restore", ev)
        for ev in cfg.elections:
            self._schedule(ms_to_us(ev.t_ms), "election", ev.replica)
        for ev in cfg.partitions:
            self._schedule(ms_to_us(ev.t_ms), "partition", ev.groups)
        handlers = {
            "deliver": self._on_deliver,
            "crash": self._on_crash,
            "restore": self._on_restore,
            "election": self._on_election,
            "election_retry": self._on_election_retry,
            "retransmit": self._on_retransmit,
            "partition": self._on_partition,
        }
        while self.heap:
            t, _, kind, payload = heapq.heappop(self.heap)
            if t > self.end_us:
                break
            self.now = t
            handlers[kind](payload)
        return self._metrics()

    # -- sending --------------------------------------------------------

    def _dispatch(self, msgs, owner: Optional[Replica] = None) -> None:
        for m in msgs:
            self._send(m)
        if owner is None:
            return
        new_slots = owner.take_new_slots()
        if self.faults_possible:
            for slot in new_slots:
                self._arm_retransmit(owner.id, slot)

    def _arm_retransmit(self, r: int, slot: int) -> None:
        key = (r, slot)
        if key not in self.pending_retransmit:
            self.pending_retransmit.add(key)
            self._schedule(self.now + ms_to_us(self.cfg.retransmit_ms), "retransmit", key)

    def _send(self, m) -> None:
        cfg = self.cfg
        tname = type(m).__name__
        self.msg_counts[tname] += 1
        if isinstance(m.src, int):
            self.sent[m.src] += 1
        if isinstance(m, _PROTO_SLOT):
            self.slot_proto[m.slot] += 1
        elif isinstance(m, multi.Request):
            self.req_msgs[m.req_id] += 1
        elif isinstance(m, multi.Response):
            self.slot_client[m.slot] += self.req_msgs[m.req_id] + 1
        self._trace_msg("send", m)
        if m.src == CLIENT or m.dst == CLIENT:
            self._schedule(self.now, "deliver", m)  # co-located, lossless
            return
        if not self._same_side(m.src, m.dst):
            self.drops += 1
            self._trace_msg("drop", m, why="partition")
            return
        if cfg.loss and self.rng.random() < cfg.loss:
            self.drops += 1
            self._trace_msg("drop", m, why="loss")
            return
        d = self.lat[m.src][m.dst]
        self._schedule(self.now + d, "deliver", m)
        if cfg.duplicate and self.rng.random() < cfg.duplicate:
            self._schedule(self.now + d, "deliver", m)

    # -- fault injection (also usable directly between events) -------------

    def inject_crash(self, replica: int, lose_memory: bool = False) -> None:
        """Crash a replica now; a second crash of the same replica is a no-op."""
        self._on_crash(CrashEvent(self.now / US_PER_MS, replica, lose_memory))

    def restore(self, replica: int) -> None:
        """Bring a crashed replica back; durable state survived unless wiped."""
        self._on_restore(RestoreEvent(self.now / US_PER_MS, replica))

    # -- event handlers ---------------------------------------------------

    def _on_deliver(self, m) -> None:
        if m.dst == CLIENT:
            self._client_on_response(m)
            return
        if m.dst not in self.alive:
            self.drops += 1
            self._trace_msg("drop", m, why="crashed")
            return
        self.recv[m.dst] += 1
        self._trace_msg("deliver", m)
        rep = self.replicas[m.dst]
        out = rep.on_message(m, self.reachable(m.dst))
        self._dispatch(out, owner=rep)
        if isinstance(m, multi.SlotPropose):
            self._check_slot(m.slot, rep.accepted.get(m.slot))
        if isinstance(m, multi.LeaderPromise) and rep.leading and self.leader_id != rep.id:
            self._leader_established(rep.id)

    def _on_crash(self, ev: CrashEvent) -> None:
        if ev.replica not in self.alive:
            return  # double crash is idempotent
        self.alive.discard(ev.replica)
        self._reachable.clear()
        self.replicas[ev.replica].crash(lose_memory=ev.lose_memory)
        self._trace("crash", replica=ev.replica, wipe=ev.lose_memory)
        if self.leader_id == ev.replica:
            self.leader_id = None

    def _on_restore(self, ev: RestoreEvent) -> None:
        if ev.replica in self.alive:
            return
        self.alive.add(ev.replica)
        self._reachable.clear()
        self._trace("restore", replica=ev.replica)

    def _on_election(self, r: int) -> None:
        self.intended = r
        self.leader_id = None
        if r not in self.alive:
            self._trace("election", replica=r, note="crashed")
            return
        self._campaign(r, ms_to_us(self.cfg.election_retry_ms))

    def _on_election_retry(self, retry) -> None:
        r, wait_us = retry
        if self.intended != r or self.replicas[r].leading:
            return
        if r in self.alive:
            self._campaign(r, 2 * wait_us)  # back off: a retry drops the promises still in flight
        else:
            self._schedule(self.now + wait_us, "election_retry", retry)

    def _campaign(self, r: int, wait_us: int) -> None:
        """Start r's phase 1 now and retry it after ``wait_us`` unless r leads by then."""
        msgs = self.replicas[r].become_leader(self.reachable(r))
        self._trace("election", replica=r, round=self.replicas[r].seen_round)
        self._dispatch(msgs, owner=self.replicas[r])
        self._schedule(self.now + wait_us, "election_retry", (r, wait_us))

    def _on_retransmit(self, key) -> None:
        r, slot = key
        self.pending_retransmit.discard(key)
        rep = self.replicas[r]
        if r not in self.alive or not rep.leading or slot not in rep.inflight:
            return
        msgs = rep.retransmit(slot, self.reachable(r))
        if msgs:
            self._trace("retransmit", replica=r, slot=slot)
        self._dispatch(msgs, owner=rep)
        self._arm_retransmit(r, slot)

    def _on_partition(self, groups) -> None:
        if groups:
            self.partition = {}
            for gi, group in enumerate(groups):
                for a in group:
                    self.partition[a] = gi
        else:
            self.partition = None
        self._reachable.clear()
        self._trace("partition", groups=[list(g) for g in groups])

    # -- leader / client ---------------------------------------------------

    def _leader_established(self, r: int) -> None:
        self.leader_id = r
        self._trace("leader", replica=r, ballot=self.replicas[r].ballot.json())
        if not self.client_started:
            self.client_started = True
            for _ in range(self.cfg.window):
                self._client_submit_new()
        else:
            for req_id in sorted(self.outstanding):
                _, payload = self.outstanding[req_id]
                self._send(_request_to(self.leader_id, req_id, payload))
            while self.now < self.end_us and len(self.outstanding) < self.cfg.window:
                self._client_submit_new()  # top the window back up after churn

    def _client_submit_new(self) -> None:
        if self.now >= self.end_us or self.leader_id is None:
            return
        req_id = f"r{self.req_seq:06d}"
        self.req_seq += 1
        payload = (req_id + ":").ljust(REQUEST_BYTES, "x")
        self.outstanding[req_id] = (self.now, payload)
        self._send(_request_to(self.leader_id, req_id, payload))

    def _client_on_response(self, m: multi.Response) -> None:
        if m.req_id not in self.outstanding:
            self._trace("duplicate_response", req=m.req_id, slot=m.slot)
            return
        submit_us, payload = self.outstanding.pop(m.req_id)
        if m.payload != payload:
            raise SafetyViolationError(m.slot, [payload, m.payload], self.trace)
        latency = self.now - submit_us
        self.responses[m.req_id] = (self.now, m.slot, latency)
        self._trace("response", req=m.req_id, slot=m.slot, latency_us=latency)
        self._client_submit_new()

    # -- online safety ------------------------------------------------------

    def _check_slot(self, slot: int, pair) -> None:
        """Record or refute ``pair``, the (ballot, value) a propose recipient holds at ``slot``."""
        if pair is None:
            return
        holders = 0
        for i, rep in enumerate(self.replicas):
            if rep.accepted.get(slot) == pair:
                holders |= 1 << i
        if not self.cfg.quorum.is_q2_mask(holders):
            return
        b, v = pair
        prev = self.registry.get(slot)
        if prev is None:
            self.registry[slot] = v
            self._trace("decide", slot=slot, ballot=b.json(), value=v)
        elif prev != v:
            self._trace("violation", slot=slot, values=[prev, v])
            raise SafetyViolationError(slot, [prev, v], self.trace)

    # -- metrics -------------------------------------------------------------

    def _metrics(self) -> RunMetrics:
        cfg = self.cfg
        lo = ms_to_us(cfg.warmup_ms)
        hi = self.end_us - ms_to_us(cfg.cooldown_ms)
        in_window = [
            (slot, lat_us)
            for (t, slot, lat_us) in self.responses.values()
            if lo <= t < hi
        ]
        lats_ms = sorted(l / US_PER_MS for _, l in in_window)
        committed = len(in_window)
        window_s = (hi - lo) / 1_000_000
        slots = [s for s, _ in in_window]
        total_msgs = [self.slot_proto[s] + self.slot_client[s] for s in slots]
        proto_msgs = [self.slot_proto[s] for s in slots]
        return RunMetrics(
            n=cfg.n,
            kind=cfg.quorum.kind,
            q1=cfg.quorum.min_q1_size(),
            q2=cfg.quorum.min_q2_size(),
            seed=cfg.seed,
            committed=committed,
            throughput=committed / window_s,
            mean_latency_ms=_mean(lats_ms),
            median_latency_ms=_pctl(lats_ms, 0.5),
            p99_latency_ms=_pctl(lats_ms, 0.99),
            msgs_per_commit=_mean(total_msgs),
            protocol_msgs_per_commit=_mean(proto_msgs),
            message_counts=dict(self.msg_counts),
            per_replica_sent=tuple(self.sent),
            per_replica_received=tuple(self.recv),
            nacks=self.msg_counts["SlotNack"] + self.msg_counts["LeaderNack"],
            drops=self.drops,
            decided_slots=len(self.registry),
            noop_slots=sum(1 for v in self.registry.values() if v == NOOP),
        )


def _request_to(leader_id: int, req_id: str, payload: str) -> multi.Request:
    return multi.Request(src=CLIENT, dst=leader_id, req_id=req_id, payload=payload)


def run(cfg: SimConfig):
    """Execute one world; returns (metrics, trace lines).

    Raises :class:`SafetyViolationError` if any slot ever resolves to two
    different values (impossible for quorum systems with cross-phase
    intersection and durable acceptors).
    """
    world = World(cfg)
    metrics = world.run()
    return metrics, world.trace


def commit_times_us(trace) -> list:
    """Response timestamps from a trace, for windowed commit-rate asserts."""
    return [l["t"] for l in trace if l["ev"] == "response"]
