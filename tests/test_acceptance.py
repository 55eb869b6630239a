"""Acceptance suite: one test per release criterion.

Each test prints a single ``ACCEPTANCE <k> PASS`` line on success (run
with ``pytest tests/test_acceptance.py -v -s`` to see them); a failed
assertion marks the criterion failed.  Tolerances are exact unless a
criterion states otherwise.
"""

import json
import time
from pathlib import Path

import pytest

from fpaxos.checker import AGREEMENT, CheckConfig, explore, replay
from fpaxos.cli import main
from fpaxos.quorum import (
    failure_tolerance,
    make_explicit,
    make_grid,
    make_majority,
    make_simple,
    validate_cross_intersection,
)
from fpaxos.scenarios import run_scenario
from fpaxos.sim import (
    CrashEvent,
    ElectionEvent,
    Latency,
    RestoreEvent,
    SafetyViolationError,
    SimConfig,
    commit_times_us,
    run,
    to_jsonl,
)

GOLDEN = Path(__file__).parent / "golden"


def report(k: int, text: str) -> None:
    print(f"ACCEPTANCE {k} PASS: {text}", flush=True)


def test_criterion_1_safety_replication():
    catalog = [
        ("n=3 classic majority", CheckConfig(make_majority(3), ballots=3)),
        ("n=4 improved majority", CheckConfig(make_majority(4, improved=True), ballots=2)),
        ("n=4 simple q2=2", CheckConfig(make_simple(4, 2), ballots=2)),
        ("grid 2x2 fpaxos", CheckConfig(make_grid(2, 2, "fpaxos"), ballots=2)),
    ]
    for name, cfg in catalog:
        t0 = time.monotonic()
        res = explore(cfg)
        elapsed = time.monotonic() - t0
        assert res.violation is None, f"{name}: unexpected violation"
        assert res.complete, f"{name}: exploration did not finish"
        assert res.states <= 3_000_000, f"{name}: state blow-up ({res.states})"
        assert elapsed <= 60.0, f"{name}: took {elapsed:.1f}s"
    report(1, "safety holds across the checked catalog (0 violations)")


def test_criterion_2_falsifiability():
    cfg = CheckConfig(
        make_explicit(2, [[0]], [[1]]), ballots=2, properties=(AGREEMENT,)
    )
    res = explore(cfg)
    assert res.violation is not None
    assert res.violation.property == AGREEMENT
    assert len(res.violation.path) <= 10
    rr = replay(res.violation.path, cfg)
    assert rr.conflicting
    assert len({v for _, v in rr.decisions}) == 2
    report(2, f"disjoint quorums break agreement in {len(res.violation.path)} actions; replay confirms")


def test_criterion_3_quorum_arithmetic():
    assert make_simple(10, 3).min_q1_size() == 8
    # guaranteed tolerance is |Q2| - 1 whenever |Q2| <= |Q1| (the regime
    # simple quorums target; see decision notes for |Q2| beyond it)
    for n in range(1, 13):
        for q2 in range(1, (n + 1) // 2 + 1):
            assert failure_tolerance(make_simple(n, q2)).guaranteed_f == q2 - 1
    paxos_grid = make_grid(4, 5, mode="paxos")
    assert paxos_grid.min_q1_size() == 8 and paxos_grid.min_q2_size() == 8
    fgrid = make_grid(4, 5, mode="fpaxos")
    assert (fgrid.min_q1_size(), fgrid.min_q2_size()) == (5, 4)
    rep = failure_tolerance(paxos_grid)
    assert (rep.guaranteed_f + 1, rep.best_case_f) == (4, 12)
    report(3, "quorum sizes and tolerance arithmetic reproduce exactly")


def test_criterion_4_scripted_scenarios():
    a = run_scenario("fig2a")
    assert a.proposer_values == {"P1": "a", "P2": "a"} and not a.violation
    b = run_scenario("fig2b")
    assert b.proposer_values == {"P1": None, "P2": "b"} and not b.violation
    assert len([v for v in b.proposer_values.values() if v is not None]) == 1
    for name in ("fig2a", "fig2b"):
        golden = (GOLDEN / f"{name}.jsonl").read_text()
        assert to_jsonl(run_scenario(name).trace) == golden
        assert to_jsonl(run_scenario(name).trace) == golden  # byte-stable on rerun
    report(4, "scripted executions reach the documented outcomes with stable traces")


def commits_between(trace, lo_ms, hi_ms):
    return len([t for t in commit_times_us(trace) if lo_ms * 1000 <= t < hi_ms * 1000])


def test_criterion_5_availability_scenarios():
    # (a) improved majority n=4: two of three non-leaders fail
    cfg = SimConfig(
        quorum=make_majority(4, improved=True),
        duration_ms=8000, warmup_ms=500, cooldown_ms=500,
        crashes=(CrashEvent(2000, 2), CrashEvent(2000, 3)),
        elections=(ElectionEvent(4000, 1),),
        restores=(RestoreEvent(6000, 2),),
    )
    _, trace = run(cfg)
    assert commits_between(trace, 2100, 4000) > 0, "(a) replication must survive"
    assert commits_between(trace, 4100, 6000) == 0, "(a) election must block"
    assert commits_between(trace, 6100, 8000) > 0, "(a) restore must unblock"
    assert commits_between(trace, 6100, 6500) > 0, "(a) the next look after the restore elects"

    # (b) simple(10,3): seven failures leave exactly one phase-2 quorum
    cfg = SimConfig(
        quorum=make_simple(10, 3),
        duration_ms=7000, warmup_ms=500, cooldown_ms=500,
        crashes=tuple(CrashEvent(2000, r) for r in range(3, 10)),
        elections=(ElectionEvent(3500, 1),),
        restores=tuple(RestoreEvent(5000, r) for r in range(3, 8)),
    )
    _, trace = run(cfg)
    assert commits_between(trace, 2100, 3500) > 0, "(b) replication must survive"
    assert commits_between(trace, 3600, 5000) == 0, "(b) election must block"
    assert commits_between(trace, 5100, 7000) > 0, "(b) restores must unblock"

    # (c) grid 4x5: a dead column is routed around; a dead row blocks
    # replication while phase 1 still completes
    grid = make_grid(4, 5, mode="fpaxos")
    cfg = SimConfig(
        quorum=grid, duration_ms=5000, warmup_ms=500, cooldown_ms=500,
        initial_leader=1,
        crashes=tuple(CrashEvent(2000, r) for r in sorted(grid.col(0))),
    )
    _, trace = run(cfg)
    assert commits_between(trace, 2100, 5000) > 0, "(c) column crash must not block"

    cfg = SimConfig(
        quorum=grid, duration_ms=5000, warmup_ms=500, cooldown_ms=500,
        initial_leader=1,
        crashes=tuple(CrashEvent(2000, r) for r in sorted(grid.row(2))),
        elections=(ElectionEvent(3000, 0),),
    )
    _, trace = run(cfg)
    assert commits_between(trace, 2100, 5000) == 0, "(c) row crash must block"
    leaders = [l for l in trace if l["ev"] == "leader"]
    assert any(l["replica"] == 0 and l["t"] >= 3_000_000 for l in leaders), \
        "(c) phase 1 must still succeed"
    report(5, "availability under crashes matches the per-family predictions")


def test_criterion_6_message_accounting():
    m, _ = run(SimConfig(
        quorum=make_simple(10, 3),
        duration_ms=3000, warmup_ms=300, cooldown_ms=300, record_trace=False,
    ))
    assert m.protocol_msgs_per_commit == 2 * 3
    assert m.msgs_per_commit == 2 * 3 + 2

    for q2 in (2, 4):
        m, _ = run(SimConfig(
            quorum=make_simple(8, q2),
            duration_ms=2000, warmup_ms=200, cooldown_ms=200, record_trace=False,
        ))
        assert m.protocol_msgs_per_commit == 2 * q2
        assert m.msgs_per_commit == 2 * q2 + 2

    m, _ = run(SimConfig(
        quorum=make_simple(10, 3), send_to_all=True,
        duration_ms=3000, warmup_ms=300, cooldown_ms=300, record_trace=False,
    ))
    assert m.protocol_msgs_per_commit == 2 * 10
    report(6, "steady-state cost is exactly 2*|Q2| protocol messages per commit (2n broadcast)")


def test_criterion_7_performance_trend():
    t0 = time.monotonic()
    for seed in range(5):
        lat, msgs = [], []
        for q2 in (2, 3, 4, 5):
            cfg = SimConfig(
                quorum=make_simple(8, q2),
                seed=seed,
                latency=Latency(5, 25),
                strategy="fastest",
                duration_ms=3000, warmup_ms=300, cooldown_ms=300,
                record_trace=False,
            )
            m, _ = run(cfg)
            assert m.committed > 0
            lat.append(m.mean_latency_ms)
            msgs.append(m.msgs_per_commit)
        assert lat == sorted(lat), f"latency not monotone for seed {seed}: {lat}"
        assert msgs == sorted(msgs), f"messages not monotone for seed {seed}: {msgs}"
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0, f"sweep took {elapsed:.1f}s"
    report(7, f"latency and message cost grow with |Q2| on all 5 seeds ({elapsed:.1f}s)")


def test_criterion_8_determinism(tmp_path, capsys):
    outputs = []
    for i in (1, 2):
        trace = tmp_path / f"sim{i}.jsonl"
        metrics = tmp_path / f"sim{i}.json"
        code = main([
            "simulate", "--kind", "simple", "--n", "5", "--q2", "2", "--seed", "3",
            "--duration-ms", "1500", "--warmup-ms", "200", "--cooldown-ms", "200",
            "--loss", "0.05", "--duplicate", "0.05",
            "--trace", str(trace), "--metrics", str(metrics),
        ])
        assert code == 0
        outputs.append((trace.read_bytes(), metrics.read_bytes(), capsys.readouterr().out))
    assert outputs[0] == outputs[1]

    checks = []
    for i in (1, 2):
        cx = tmp_path / f"cx{i}.jsonl"
        code = main([
            "check", "--custom-q1", "[[0]]", "--custom-q2", "[[1]]", "--n", "2",
            "--counterexample", str(cx),
        ])
        assert code == 1
        out = capsys.readouterr().out.replace(str(cx), "<path>")
        checks.append((cx.read_bytes(), out))
    assert checks[0] == checks[1]
    report(8, "identical arguments produce byte-identical traces, metrics, counterexamples")


def test_criterion_9_persistence_negative():
    # scripted: a wiped acceptor lets a second value be decided
    broken = run_scenario("amnesia")
    assert broken.violation and set(broken.decided_values) == {"x", "y"}
    safe = run_scenario("amnesia-durable")
    assert not safe.violation and set(safe.decided_values) == {"x"}

    # whole-system: the simulator's online checker aborts the same way
    def schedule(wipe):
        return SimConfig(
            quorum=make_majority(3),
            duration_ms=4000, warmup_ms=200, cooldown_ms=200, window=2,
            crashes=(CrashEvent(1000, 1, wipe), CrashEvent(2000, 0)),
            restores=(RestoreEvent(1500, 1),),
            elections=(ElectionEvent(2500, 2),),
        )

    with pytest.raises(SafetyViolationError) as err:
        run(schedule(wipe=True))
    assert len(err.value.values) == 2
    m, _ = run(schedule(wipe=False))
    assert m.committed > 0
    report(9, "losing promised state across a crash manufactures a safety violation")
