import json
from dataclasses import fields, replace

import pytest
from hypothesis import Phase, find, given, settings
from hypothesis import strategies as st

from fpaxos.quorum import make_grid, make_majority, make_simple
from fpaxos.sim import (
    CrashEvent,
    ElectionEvent,
    Latency,
    PartitionEvent,
    RestoreEvent,
    SafetyViolationError,
    SimConfig,
    World,
    commit_times_us,
    run,
    to_jsonl,
)


def quick(quorum, duration_ms=2000, warmup_ms=200, cooldown_ms=200, **kw):
    return SimConfig(
        quorum=quorum,
        duration_ms=duration_ms,
        warmup_ms=warmup_ms,
        cooldown_ms=cooldown_ms,
        **kw,
    )


def commits_between(trace, lo_ms, hi_ms):
    return len([t for t in commit_times_us(trace) if lo_ms * 1000 <= t < hi_ms * 1000])


class LeaderWatch(World):
    """A world that records who leads after each delivery, as (t_us, ids) at every change."""

    def __init__(self, cfg):
        super().__init__(cfg)
        self.leaders = [(0, ())]

    def _on_deliver(self, m):
        super()._on_deliver(m)
        ids = tuple(r.id for r in self.replicas if r.leading)
        if ids != self.leaders[-1][1]:
            self.leaders.append((self.now, ids))

    def dueling(self) -> list:
        """The times at which two or more replicas began to lead at once."""
        return [t for t, ids in self.leaders if len(ids) > 1]


# ----------------------------------------------------------- steady state


def test_no_fault_run_has_constant_latency_and_no_nacks():
    m, trace = run(quick(make_majority(4, improved=True)))
    assert m.committed > 0
    # client -> co-located leader -> one protocol round trip at 10 ms/way
    assert m.mean_latency_ms == m.median_latency_ms == m.p99_latency_ms == 20.0
    assert m.nacks == 0 and m.drops == 0
    assert m.throughput == pytest.approx(m.committed / 1.6)


def test_identical_config_gives_identical_bytes():
    cfg = quick(make_majority(4, improved=True), seed=7)
    m1, t1 = run(cfg)
    m2, t2 = run(cfg)
    assert to_jsonl(t1) == to_jsonl(t2)
    assert json.dumps(m1.to_json()) == json.dumps(m2.to_json())


def test_total_loss_means_no_commits_and_no_violation():
    m, _ = run(quick(make_majority(3), loss=1.0, record_trace=False))
    assert m.committed == 0
    assert m.decided_slots == 0


def test_duplicate_heavy_run_stays_safe():
    m, _ = run(quick(make_majority(3), duplicate=0.5, seed=3, record_trace=False))
    assert m.committed > 0
    assert m.decided_slots > 0


def test_message_accounting_simple_quorums():
    m, _ = run(quick(make_simple(10, 3), record_trace=False))
    assert m.protocol_msgs_per_commit == 6.0  # propose + accept per quorum member
    assert m.msgs_per_commit == 8.0  # plus client request and response


def test_message_accounting_send_to_all():
    m, _ = run(quick(make_simple(10, 3), send_to_all=True, record_trace=False))
    assert m.protocol_msgs_per_commit == 20.0  # broadcast style: 2n
    assert m.msgs_per_commit == 22.0


def test_rotating_strategy_spreads_phase2_load():
    grid = make_grid(2, 3, mode="fpaxos")
    m, _ = run(quick(grid, strategy="rotating", record_trace=False))
    assert m.committed > 0
    assert all(r > 0 for r in m.per_replica_received)


# ------------------------------------------------------------- fault runs


def test_election_retry_below_the_round_trip_still_elects():
    # Promises return after 10-50 ms.  A retry every 30 ms that restarted
    # phase 1 each time dropped the promises in flight and never elected.
    cfg = quick(make_majority(5), duration_ms=3000, warmup_ms=0, cooldown_ms=0,
                latency=Latency.parse("5:25"), election_retry_ms=30, record_trace=False)
    m, _ = run(cfg)
    assert m.committed > 0
    assert m.message_counts["LeaderPrepare"] < 30


def test_crash_two_nonleaders_then_election_blocks_until_restore():
    cfg = quick(
        make_majority(4, improved=True),
        duration_ms=8000,
        warmup_ms=500,
        cooldown_ms=500,
        crashes=(CrashEvent(2000, 2), CrashEvent(2000, 3)),
        elections=(ElectionEvent(4000, 1),),
        restores=(RestoreEvent(6000, 2),),
    )
    m, trace = run(cfg)
    assert commits_between(trace, 2100, 4000) > 0  # replication survives 2 of 4 down
    assert commits_between(trace, 4100, 6000) == 0  # new leader cannot form a Q1
    assert commits_between(trace, 6100, 8000) > 0  # restore unblocks the election


def test_simple_quorum_survives_seven_of_ten_down():
    cfg = quick(
        make_simple(10, 3),
        duration_ms=7000,
        warmup_ms=500,
        cooldown_ms=500,
        crashes=tuple(CrashEvent(2000, r) for r in range(3, 10)),
        elections=(ElectionEvent(3500, 1),),
        restores=tuple(RestoreEvent(5000, r) for r in range(3, 8)),
    )
    m, trace = run(cfg)
    assert commits_between(trace, 2100, 3500) > 0  # 3 alive = exactly one Q2
    assert commits_between(trace, 3600, 5000) == 0  # |Q1| = 8 unreachable
    assert commits_between(trace, 5100, 7000) > 0


def test_grid_column_crash_continues_replication():
    grid = make_grid(4, 5, mode="fpaxos")
    dead_column = sorted(grid.col(0))
    cfg = quick(
        grid,
        duration_ms=5000,
        warmup_ms=500,
        cooldown_ms=500,
        initial_leader=1,
        crashes=tuple(CrashEvent(2000, r) for r in dead_column),
    )
    m, trace = run(cfg)
    assert commits_between(trace, 2100, 5000) > 0


def test_grid_row_crash_blocks_replication_but_not_phase1():
    grid = make_grid(4, 5, mode="fpaxos")
    dead_row = sorted(grid.row(2))
    cfg = quick(
        grid,
        duration_ms=5000,
        warmup_ms=500,
        cooldown_ms=500,
        initial_leader=1,
        crashes=tuple(CrashEvent(2000, r) for r in dead_row),
        elections=(ElectionEvent(3000, 0),),
    )
    m, trace = run(cfg)
    assert commits_between(trace, 2100, 5000) == 0
    leaders = [l for l in trace if l["ev"] == "leader"]
    # the late election still completes: a full row of promises remains
    assert any(l["replica"] == 0 and l["t"] >= 3_000_000 for l in leaders)


def test_partition_stops_commits_until_healed():
    cfg = quick(
        make_majority(3),
        duration_ms=4000,
        warmup_ms=200,
        cooldown_ms=200,
        partitions=(
            PartitionEvent(1005, ((0,), (1, 2))),  # mid-flight: replies get dropped
            PartitionEvent(2000, ()),
        ),
    )
    m, trace = run(cfg)
    assert commits_between(trace, 1100, 2000) == 0
    assert commits_between(trace, 2300, 4000) > 0
    assert m.drops > 0


def test_partitioned_leader_keeps_its_side_then_yields():
    """An election reaches only its candidate, so a cut-off leader is deposed by the protocol.

    On simple(5, 2) leader 0 keeps a phase-2 quorum {0, 1} on its side and
    commits its in-flight window; candidate 2 cannot form a phase-1 quorum
    of 4 from {2, 3, 4}.  After the heal both lead until 0 meets 2's
    higher ballot and steps down.
    """
    cfg = quick(
        make_simple(5, 2),
        duration_ms=4000,
        partitions=(PartitionEvent(1000, ((0, 1), (2, 3, 4))), PartitionEvent(2000, ())),
        elections=(ElectionEvent(1000, 2),),
    )
    world = LeaderWatch(cfg)
    world.run()
    drained = sorted(slot for t, slot, _ in world.responses.values() if 1_000_000 <= t < 2_000_000)
    assert drained == list(range(480, 490))
    assert not any(2 in ids for t, ids in world.leaders if t < 2_000_000)
    assert any(t >= 2_000_000 for t in world.dueling())
    assert [r.id for r in world.replicas if r.leading] == [2]
    assert all(world.replicas[2].log[s][1] == world.registry[s] for s in drained)
    assert_logs_hold_decisions(world)


def test_leader_crash_failover_preserves_log_values():
    cfg = quick(
        make_majority(3),
        duration_ms=5000,
        warmup_ms=200,
        cooldown_ms=200,
        crashes=(CrashEvent(2000, 0),),
        elections=(ElectionEvent(2500, 1),),
    )
    m, trace = run(cfg)
    assert commits_between(trace, 2600, 5000) > 0  # service resumes under new leader


def test_faulty_run_metrics_do_not_depend_on_tracing():
    cfg = quick(
        make_majority(5),
        duration_ms=4000,
        latency=Latency(5.0, 25.0),
        loss=0.05,
        duplicate=0.05,
        seed=21,
        crashes=(CrashEvent(1000, 0), CrashEvent(1200, 4)),
        elections=(ElectionEvent(1300, 1),),
        restores=(RestoreEvent(2000, 0), RestoreEvent(2100, 4)),
        partitions=(PartitionEvent(2500, ((0, 1), (2, 3, 4))), PartitionEvent(3000, ())),
    )
    traced, trace = run(cfg)
    untraced, no_trace = run(replace(cfg, record_trace=False))
    assert untraced == traced
    assert no_trace == []
    assert traced.drops > 0 and traced.committed > 0
    assert any(l["ev"] == "decide" for l in trace)


def test_post_run_structural_invariants():
    world = World(
        quick(
            make_majority(4, improved=True),
            duration_ms=4000,
            warmup_ms=300,
            cooldown_ms=300,
            crashes=(CrashEvent(1500, 3),),
            elections=(ElectionEvent(2500, 1),),
            loss=0.02,
            seed=13,
        )
    )
    world.run()
    for rep in world.replicas:
        for slot, (ballot, _) in rep.accepted.items():
            assert rep.promised is not None and ballot <= rep.promised
    # log agreement across every replica pair, and against the world registry
    for a in world.replicas:
        for b in world.replicas:
            for slot in set(a.log) & set(b.log):
                assert a.log[slot][1] == b.log[slot][1]
        for slot, (_, value) in a.log.items():
            assert world.registry.get(slot) in (None, value)


def assert_logs_hold_decisions(world):
    for rep in world.replicas:
        for slot, (_, value) in rep.log.items():
            assert world.registry.get(slot) == value, (rep.id, slot)


def test_failover_recovery_is_flat_in_history_length():
    """Promise entries and re-proposals after a crash track the window, not the history."""
    from fpaxos import multi

    class Counting(World):
        def __init__(self, cfg, crash_us):
            super().__init__(cfg)
            self.crash_us, self.entries, self.proposes = crash_us, 0, 0

        def _send(self, m):
            if self.now >= self.crash_us:
                if isinstance(m, multi.LeaderPromise):
                    self.entries += len(m.accepted)
                elif isinstance(m, multi.SlotPropose):
                    self.proposes += 1
            super()._send(m)

    costs = []
    for t_ms in (5000, 20000):
        cfg = quick(
            make_majority(5), seed=1, duration_ms=t_ms + 5000, warmup_ms=100, cooldown_ms=100,
            crashes=(CrashEvent(t_ms, 0),), elections=(ElectionEvent(t_ms + 1, 1),),
            record_trace=False,
        )
        world = Counting(cfg, crash_us=t_ms * 1000)
        world.run()
        costs.append((world.entries, world.proposes))
        # followers learned the commit point: the new leader and its
        # acceptors hold most of the history, all of it decided
        assert len(world.replicas[1].log) > len(world.registry) - 2 * cfg.window
        assert_logs_hold_decisions(world)
    (e5, p5), (e20, p20) = costs
    assert 0 < e20 <= 2 * e5 and 0 < p20 <= 2 * p5


FAMILIES = [
    make_majority(3),
    make_majority(4, improved=True),
    make_simple(4, 2),
    make_grid(2, 2),
    make_grid(2, 3),
]
FAULT_MS = 300  # every drawn fault lies before this
SETTLE_MS = 20  # beyond the longest link, so nothing sent before the faults ends is in flight
PROGRESS_MS = 3000


@st.composite
def fault_schedules(draw):
    qs = draw(st.sampled_from(FAMILIES))
    replica = st.integers(0, qs.n - 1)
    t = st.integers(0, FAULT_MS - 1)
    crashes = draw(st.lists(st.tuples(t, replica), max_size=3))
    restores = draw(st.lists(st.tuples(t, replica), max_size=3))
    elections = draw(st.lists(st.tuples(t, replica), max_size=3))
    groups = st.lists(st.integers(0, 1), min_size=qs.n, max_size=qs.n).map(
        lambda side: tuple(tuple(a for a in range(qs.n) if side[a] == g) for g in (0, 1))
    )
    partitions = draw(st.lists(st.tuples(t, groups | st.just(())), max_size=2))
    final = FAULT_MS + SETTLE_MS
    lo = draw(st.integers(1, 8))
    return quick(
        qs,
        seed=draw(st.integers(0, 2**16)),
        latency=Latency(lo, draw(st.integers(lo, 8))),
        loss=draw(st.sampled_from([0.0, 0.02, 0.05])),
        duplicate=draw(st.sampled_from([0.0, 0.05, 0.2])),
        window=draw(st.integers(1, 3)),
        election_retry_ms=draw(st.integers(1, 60)),
        retransmit_ms=draw(st.integers(1, 60)),
        initial_leader=draw(replica),
        crashes=tuple(CrashEvent(t, r) for t, r in sorted(crashes)),
        # then everything heals, and one replica is elected
        restores=tuple(RestoreEvent(t, r) for t, r in sorted(restores))
        + tuple(RestoreEvent(FAULT_MS, r) for r in range(qs.n)),
        partitions=tuple(PartitionEvent(t, g) for t, g in sorted(partitions))
        + (PartitionEvent(FAULT_MS, ()),),
        elections=tuple(ElectionEvent(t, r) for t, r in sorted(elections))
        + (ElectionEvent(final, draw(replica)),),
        duration_ms=final + PROGRESS_MS,
        warmup_ms=0,
        cooldown_ms=0,
        record_trace=False,
    )


@settings(deadline=None, max_examples=40, derandomize=True)
@given(cfg=fault_schedules())
def test_fault_schedules_stay_safe_and_recover(cfg):
    """Durable faults never break agreement, and service resumes after them."""
    world = World(cfg)
    world.run()  # a SafetyViolationError fails the test
    assert_logs_hold_decisions(world)
    final_us = (FAULT_MS + SETTLE_MS) * 1000
    assert any(t >= final_us for t, _, _ in world.responses.values())


def test_drawn_fault_schedules_run_dueling_leaders():
    """The drawn schedules do put two leaders up at once, and such a run stays safe."""

    def dueling(cfg):
        world = LeaderWatch(cfg)
        world.run()
        return bool(world.dueling())

    cfg = find(
        fault_schedules(),
        dueling,
        settings=settings(
            phases=[Phase.generate], deadline=None, derandomize=True, database=None,
            max_examples=200,
        ),
    )
    world = LeaderWatch(cfg)
    world.run()  # a SafetyViolationError fails the test
    assert world.dueling()
    assert_logs_hold_decisions(world)


# --------------------------------------------------------- durability


def amnesia_config(wipe: bool) -> SimConfig:
    return quick(
        make_majority(3),
        duration_ms=4000,
        warmup_ms=200,
        cooldown_ms=200,
        window=2,
        crashes=(CrashEvent(1000, 1, wipe), CrashEvent(2000, 0)),
        restores=(RestoreEvent(1500, 1),),
        elections=(ElectionEvent(2500, 2),),
    )


def test_reachable_cache_tracks_crash_restore_and_partition():
    world = World(quick(make_majority(5)))

    def check():
        for r in range(5):
            side = None if world.partition is None else world.partition.get(r)
            fresh = frozenset(
                a for a in world.alive
                if world.partition is None or world.partition.get(a) == side
            )
            assert world.reachable(r) == fresh

    check()
    world.inject_crash(1)
    check()
    world._on_partition(((0, 1), (2, 3, 4)))
    check()
    world.restore(1)
    check()
    world.inject_crash(3)
    check()
    world._on_partition(())
    check()
    world.restore(3)
    check()


def test_inject_crash_is_idempotent_and_restore_reverses():
    world = World(quick(make_majority(3)))
    world.inject_crash(1)
    world.inject_crash(1)  # double crash: no-op
    assert world.alive == {0, 2}
    world.restore(1)
    world.restore(1)
    assert world.alive == {0, 1, 2}
    assert world.replicas[1].promised is None  # fresh cluster state retained


def test_memory_loss_crash_manufactures_safety_violation():
    with pytest.raises(SafetyViolationError) as err:
        run(amnesia_config(wipe=True))
    assert len(err.value.values) == 2
    assert any(l["ev"] == "violation" for l in err.value.trace)


def test_memory_loss_violation_is_caught_without_a_trace():
    with pytest.raises(SafetyViolationError) as err:
        run(replace(amnesia_config(wipe=True), record_trace=False))
    assert len(err.value.values) == 2
    assert err.value.trace == []


def test_same_schedule_with_durable_state_is_safe():
    m, _ = run(amnesia_config(wipe=False))
    assert m.committed > 0


# ------------------------------------------------------------ trends


def test_latency_and_messages_grow_with_q2():
    for seed in (0, 1):
        means, msgs = [], []
        for q2 in (2, 3, 4, 5):
            cfg = SimConfig(
                quorum=make_simple(8, q2),
                seed=seed,
                latency=Latency(5, 25),
                strategy="fastest",
                duration_ms=3000,
                warmup_ms=300,
                cooldown_ms=300,
                record_trace=False,
            )
            m, _ = run(cfg)
            assert m.committed > 0
            means.append(m.mean_latency_ms)
            msgs.append(m.msgs_per_commit)
        assert means == sorted(means)
        assert msgs == [2 * q2 + 2 for q2 in (2, 3, 4, 5)]


# ------------------------------------------------------------- config


def test_config_validation():
    with pytest.raises(ValueError):
        quick(make_majority(3), loss=1.5).validate()
    with pytest.raises(ValueError):
        quick(make_majority(3), crashes=(CrashEvent(100, 7),)).validate()
    with pytest.raises(ValueError):
        quick(make_majority(3), crashes=(CrashEvent(500, 0), CrashEvent(100, 1))).validate()
    with pytest.raises(ValueError):
        SimConfig(quorum=make_majority(3), duration_ms=100, warmup_ms=90, cooldown_ms=20).validate()
    with pytest.raises(ValueError):
        quick(make_majority(3), initial_leader=5).validate()


def test_config_json_roundtrip():
    entries = {
        "quorum": {"kind": "simple", "n": 8, "q2_size": 3},
        "seed": 11,
        "latency": "2.5:12.345678901",
        "loss": 0.1,
        "duplicate": 0.05,
        "crashes": [[100.0, 2, True]],
        "restores": [[200, 2]],
        "elections": [[300.0, 1]],
        "partitions": [[400.0, [[0, 1], [2, 3]]]],
        "window": 4,
        "duration_ms": 1000,
        "warmup_ms": 100.0,
        "cooldown_ms": 100.0,
        "strategy": "fastest",
        "send_to_all": True,
        "initial_leader": 3,
        "record_trace": False,
        "election_retry_ms": 30.0,
        "retransmit_ms": 50.0,
    }
    assert set(entries) == {f.name for f in fields(SimConfig)}
    cfg = SimConfig(
        quorum=make_simple(8, 3),
        seed=11,
        latency=Latency(2.5, 12.345678901),
        loss=0.1,
        duplicate=0.05,
        crashes=(CrashEvent(100.0, 2, True),),
        restores=(RestoreEvent(200.0, 2),),
        elections=(ElectionEvent(300.0, 1),),
        partitions=(PartitionEvent(400.0, ((0, 1), (2, 3))),),
        window=4,
        duration_ms=1000.0,
        warmup_ms=100.0,
        cooldown_ms=100.0,
        strategy="fastest",
        send_to_all=True,
        initial_leader=3,
        record_trace=False,
        election_retry_ms=30.0,
        retransmit_ms=50.0,
    )
    assert SimConfig.from_json(entries) == cfg
    assert SimConfig.from_json(json.loads(json.dumps(entries))) == cfg
    with pytest.raises(ValueError, match="retransmit"):
        SimConfig.from_json({**entries, "retransmit": 50.0})


def test_latency_parse():
    assert Latency.parse("10") == Latency(10, 10)
    assert Latency.parse("5:25") == Latency(5, 25)
    with pytest.raises(ValueError):
        Latency(10, 5)
