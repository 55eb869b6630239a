#!/usr/bin/env python3
"""Crash-injection runs showing how each quorum family degrades.

Three schedules: the even-size majority improvement riding out exactly
n/2 failures, simple quorums replicating with 7 of 10 acceptors down,
and a grid routing around a dead column while a dead row only blocks
replication (leader election still completes).  An election reaches only
its candidate, so the old leader's in-flight window still commits just
after it; that drain is printed apart from the blocked window.
"""

from fpaxos.quorum import make_grid, make_majority, make_simple
from fpaxos.sim import (
    CrashEvent,
    ElectionEvent,
    RestoreEvent,
    SimConfig,
    commit_times_us,
    run,
)


def window_counts(trace, *edges_ms):
    times = commit_times_us(trace)
    return [
        len([t for t in times if lo * 1000 <= t < hi * 1000])
        for lo, hi in zip(edges_ms, edges_ms[1:])
    ]


def main() -> int:
    print("== improved majority, n=4: crash 2 non-leaders, then force an election ==")
    cfg = SimConfig(
        quorum=make_majority(4, improved=True),
        duration_ms=8000, warmup_ms=500, cooldown_ms=500,
        crashes=(CrashEvent(2000, 2), CrashEvent(2000, 3)),
        elections=(ElectionEvent(4000, 1),),
        restores=(RestoreEvent(6000, 2),),
    )
    _, trace = run(cfg)
    a, d, b, c = window_counts(trace, 2100, 4000, 4100, 6000, 8000)
    print(f"commits after crash: {a}   old leader's window drained: {d}")
    print(f"during blocked election: {b}   after restore: {c}")

    print("\n== simple(10,3): 7 of 10 down, replication continues until a new leader is needed ==")
    cfg = SimConfig(
        quorum=make_simple(10, 3),
        duration_ms=7000, warmup_ms=500, cooldown_ms=500,
        crashes=tuple(CrashEvent(2000, r) for r in range(3, 10)),
        elections=(ElectionEvent(3500, 1),),
        restores=tuple(RestoreEvent(5000, r) for r in range(3, 8)),
    )
    _, trace = run(cfg)
    a, d, b, c = window_counts(trace, 2100, 3500, 3600, 5000, 7000)
    print(f"commits with 7 down: {a}   old leader's window drained: {d}")
    print(f"during blocked election: {b}   after restores: {c}")

    print("\n== grid 4x5 fpaxos: column crash vs row crash ==")
    grid = make_grid(4, 5, mode="fpaxos")
    cfg = SimConfig(
        quorum=grid, duration_ms=5000, warmup_ms=500, cooldown_ms=500, initial_leader=1,
        crashes=tuple(CrashEvent(2000, r) for r in sorted(grid.col(0))),
    )
    _, trace = run(cfg)
    (col_commits,) = window_counts(trace, 2100, 5000)
    cfg = SimConfig(
        quorum=grid, duration_ms=5000, warmup_ms=500, cooldown_ms=500, initial_leader=1,
        crashes=tuple(CrashEvent(2000, r) for r in sorted(grid.row(2))),
        elections=(ElectionEvent(3000, 0),),
    )
    _, trace = run(cfg)
    (row_commits,) = window_counts(trace, 2100, 5000)
    elected = any(l["ev"] == "leader" and l["t"] >= 3_000_000 for l in trace)
    print(f"commits after column crash: {col_commits}")
    print(f"commits after row crash: {row_commits}   late election completed: {elected}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
