"""The three benchmark workloads: inputs made from a seed, one unit of fixed
work, and the checks on its outputs.

Each workload is split the same way:

* ``params(seed)`` makes the JSON-able inputs.  For the simulator workloads
  it runs a calibration world first, so that the run length is fixed in
  virtual commits rather than virtual seconds: the seed picks the link
  latencies, which move the commit rate by 2x between seeds, and a run
  fixed in virtual seconds would do 2x more work on a fast seed.
* ``configs(seed, params)`` builds the ``SimConfig``/``CheckConfig``
  objects; the program receives nothing else.
* ``setup(configs)`` is the program's set-up, timed by ``probe.py``.
* ``unit(configs)`` runs the fixed work once and returns a :class:`Unit`.

Layers are called through their module attributes (``sim.World``,
``checker.explore``...) so that the wrappers of ``spans.py`` see them.
"""

from __future__ import annotations

import hashlib
import json
import random
import time
from dataclasses import dataclass, field, replace

from fpaxos import checker, quorum, sim
from fpaxos.checker import AGREEMENT, CheckConfig
from fpaxos.sim import (
    CrashEvent,
    ElectionEvent,
    Latency,
    PartitionEvent,
    RestoreEvent,
    SimConfig,
)


@dataclass
class Unit:
    """One execution of a workload's fixed work."""

    wall_s: float  # timed region only: World.run (+ to_jsonl), or explore + replay
    virtual: dict  # outcomes that are exact for a given seed
    failures: list = field(default_factory=list)
    commits: int = 0  # client responses over the whole run
    counts: dict = field(default_factory=dict)  # per-layer counts read from the outputs


def _world_outcome(world, metrics) -> tuple:
    """Failures common to every simulator run, and the exact virtual outcomes."""
    failures = []
    for rep in world.replicas:
        for slot, (_, value) in rep.log.items():
            if world.registry.get(slot) != value:
                failures.append(
                    f"replica {rep.id} logged {value!r} at slot {slot}, "
                    f"registry holds {world.registry.get(slot)!r}"
                )
                break
    virtual = {
        "committed": metrics.committed,
        "virt_commits_per_s": metrics.throughput,
        "virt_latency_p50_ms": metrics.median_latency_ms,
        "virt_latency_p99_ms": metrics.p99_latency_ms,
        "protocol_msgs_per_commit": metrics.protocol_msgs_per_commit,
        "decided_slots": metrics.decided_slots,
        "noop_slots": metrics.noop_slots,
        "message_counts": dict(sorted(metrics.message_counts.items())),
    }
    return failures, virtual


def _world_counts(world, metrics, q2: int) -> dict:
    proto = sum(c for t, c in metrics.message_counts.items() if t not in ("Request", "Response"))
    return {
        "sim.events": world.seq - len(world.heap),
        "sim.drops": metrics.drops,
        "sim.nacks": metrics.nacks,
        "sim.proto_msgs": proto,
        "sim.useful_msgs": 2 * q2 * len(world.registry),
    }


def _simulate(cfg: SimConfig, encode: bool):
    """Run one world; the timed region is ``World.run`` plus trace encoding."""
    world = sim.World(cfg)
    t0 = time.perf_counter()
    try:
        metrics = world.run()
        text = sim.to_jsonl(world.trace) if encode else ""
    except sim.SafetyViolationError as e:
        return time.perf_counter() - t0, world, None, "", f"safety violation: {e}"
    return time.perf_counter() - t0, world, metrics, text, None


# -- steady-grid --------------------------------------------------------------


class SteadyGrid:
    name = "steady-grid"
    COMMITS = 2000  # fixed work: virtual commits after warm-up
    WARMUP_MS = 500.0

    def _base(self, seed: int, duration_ms: float) -> SimConfig:
        return SimConfig(
            quorum=quorum.make_grid(4, 5, "fpaxos"),
            seed=seed,
            latency=Latency(5.0, 25.0),
            strategy="fastest",
            record_trace=False,
            duration_ms=duration_ms,
            warmup_ms=self.WARMUP_MS,
            cooldown_ms=0.0,
        )

    def params(self, seed: int) -> dict:
        # A fault-free grid run is periodic, so a short run gives the exact rate.
        metrics, _ = sim.run(self._base(seed, 2500.0))
        return {"duration_ms": self.WARMUP_MS + round(1000.0 * self.COMMITS / metrics.throughput)}

    def configs(self, seed: int, params: dict) -> list:
        return [self._base(seed, float(params["duration_ms"]))]

    def setup(self, configs) -> None:
        for cfg in configs:
            quorum.validate_cross_intersection(cfg.quorum)
            sim.World(cfg)

    def unit(self, configs) -> Unit:
        (cfg,) = configs
        wall, world, metrics, _, err = _simulate(cfg, encode=False)
        if err:
            return Unit(wall, {"error": err}, [err])
        failures, virtual = _world_outcome(world, metrics)
        q2 = cfg.quorum.min_q2_size()
        if metrics.protocol_msgs_per_commit != 2 * q2:
            failures.append(
                f"protocol_msgs_per_commit {metrics.protocol_msgs_per_commit} != 2*|Q2| = {2 * q2}"
            )
        counts = _world_counts(world, metrics, q2)
        return Unit(wall, virtual, failures, len(world.responses), counts)


# -- failover-trace -------------------------------------------------------------


class FailoverTrace:
    name = "failover-trace"
    HISTORY = 2000  # virtual commits before the crash: recovery re-proposes them all
    WARMUP_MS = 500.0
    ELECTION_MS = 500.0  # crash to election of replica 1
    # Commits' worth of virtual time from the election to the restore of
    # replica 0, the partition of {3, 4}, the heal, and the end of the run.
    TAIL = (150, 300, 450, 600)

    def _base(self, seed: int, crash_ms=None, commit_ms=None) -> SimConfig:
        kw = {}
        if crash_ms is not None:
            elect = crash_ms + self.ELECTION_MS
            restore, split, heal, end = (elect + round(k * commit_ms) for k in self.TAIL)
            kw = dict(
                crashes=(CrashEvent(crash_ms, 0),),
                elections=(ElectionEvent(elect, 1),),
                restores=(RestoreEvent(restore, 0),),
                partitions=(
                    PartitionEvent(split, ((3, 4), (0, 1, 2))),
                    PartitionEvent(heal, ()),
                ),
                duration_ms=end,
            )
        return SimConfig(
            quorum=quorum.make_majority(5),
            seed=seed,
            latency=Latency(5.0, 25.0),
            loss=0.02,
            duplicate=0.01,
            record_trace=True,
            warmup_ms=self.WARMUP_MS,
            cooldown_ms=0.0,
            **kw,
        )

    def params(self, seed: int) -> dict:
        # Without the crash, the run is the measured run up to the crash, so
        # its commit times put the crash right after the HISTORY-th commit.
        base = self._base(seed)
        duration = 2500.0
        while True:
            world = sim.World(replace(base, duration_ms=duration, record_trace=False))
            world.run()
            times = sorted(t for t, _, _ in world.responses.values())
            if len(times) >= self.HISTORY:
                break
            duration *= 1.2 * self.HISTORY / max(len(times), 1)
        last = times[self.HISTORY - 1]
        return {
            "crash_ms": (last + 1) / 1000.0,
            "commit_ms": (last - times[0]) / (self.HISTORY - 1) / 1000.0,
        }

    def configs(self, seed: int, params: dict) -> list:
        return [self._base(seed, float(params["crash_ms"]), params["commit_ms"])]

    def setup(self, configs) -> None:
        for cfg in configs:
            quorum.validate_cross_intersection(cfg.quorum)
            sim.World(cfg)

    def unit(self, configs) -> Unit:
        (cfg,) = configs
        wall, world, metrics, text, err = _simulate(cfg, encode=True)
        if err:
            return Unit(wall, {"error": err}, [err])
        failures, virtual = _world_outcome(world, metrics)
        crash_us = sim.ms_to_us(cfg.crashes[0].t_ms)
        election_us = sim.ms_to_us(cfg.elections[0].t_ms)
        after = [t for t, _, _ in world.responses.values() if t >= crash_us]
        if not after:
            failures.append("no commit after the leader crash")
        virtual["failover_gap_ms"] = (min(after) - crash_us) / 1000.0 if after else None
        if not any(
            l["ev"] == "leader" and l["replica"] == 1 and l["t"] >= election_us
            for l in world.trace
        ):
            failures.append("no leader event for replica 1 after its election")
        for i, line in enumerate(text.splitlines()):
            try:
                json.loads(line)
            except ValueError:
                failures.append(f"trace line {i} does not parse")
                break
        virtual["trace_sha256"] = hashlib.sha256(text.encode()).hexdigest()
        counts = _world_counts(world, metrics, cfg.quorum.min_q2_size())
        counts["trace.bytes"] = len(text)
        return Unit(wall, virtual, failures, len(world.responses), counts)


# -- check-safe -----------------------------------------------------------------


class CheckSafe:
    name = "check-safe"

    def params(self, seed: int) -> dict:
        # The seed orders the safe families and picks which acceptor is the
        # broken family's lone phase-1 quorum; the verdicts do not depend on it.
        rng = random.Random(seed)
        order = [0, 1, 2]
        rng.shuffle(order)
        return {"order": order, "broken_q1": rng.randrange(2)}

    def configs(self, seed: int, params: dict) -> list:
        safe = [
            CheckConfig(quorum.make_majority(3), ballots=3),
            CheckConfig(quorum.make_majority(4, improved=True), ballots=2),
            CheckConfig(quorum.make_grid(2, 2, "fpaxos"), ballots=2),
        ]
        a = params["broken_q1"]
        broken = CheckConfig(
            quorum.make_explicit(2, [[a]], [[1 - a]]), ballots=2, properties=(AGREEMENT,)
        )
        return [safe[i] for i in params["order"]] + [broken]

    def setup(self, configs) -> None:
        # Up to the first explored state: the checker's quorum masks and the
        # initial state's successors.
        for cfg in configs:
            quorum.validate_cross_intersection(cfg.quorum)
            checker.explore(replace(cfg, max_states=1))

    def unit(self, configs) -> Unit:
        *safe, broken = configs
        failures = []
        states = []
        t0 = time.perf_counter()
        results = [checker.explore(cfg) for cfg in safe]
        bad = checker.explore(broken)
        rep = checker.replay(bad.violation.path, broken) if bad.violation else None
        wall = time.perf_counter() - t0
        for cfg, res in zip(safe, results):
            states.append(res.states)
            if not (res.complete and res.ok):
                failures.append(f"{cfg.quorum.describe()}: not complete and SAFE")
        states.append(bad.states)
        if bad.violation is None or bad.violation.property != AGREEMENT:
            failures.append("broken family: no agreement violation found")
        elif not rep.conflicting:
            failures.append("broken family: replay shows no conflicting decisions")
        virtual = {
            "states": {cfg.quorum.describe(): s for cfg, s in zip(configs, states)},
            "counterexample_len": len(bad.violation.path) if bad.violation else None,
        }
        return Unit(wall, virtual, failures, 0, {"checker.states": sum(states)})


WORKLOADS = {w.name: w for w in (SteadyGrid(), FailoverTrace(), CheckSafe())}
