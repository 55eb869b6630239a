#!/usr/bin/env python3
"""Exhaustively check the shipped quorum constructors plus broken families.

Reproduces the two safety results at desk scale: every cross-phase
intersecting family stays safe under bounded exploration, and every
non-intersecting family yields a replayable counterexample.  A last
section checks larger threshold families under symmetry reduction, after
plain majority(5) for scale, each in a fresh process so its peak RSS is
its own.
"""

import argparse
import multiprocessing
import resource
import time

from fpaxos import cli
from fpaxos.checker import AGREEMENT, SAFE, CheckConfig, explore, replay
from fpaxos.quorum import make_explicit, make_grid, make_majority, make_simple

# name -> (quorum, symmetry), each searched with 2 ballots in its own process
ONE_PROCESS_CASES = {
    "majority(5), plain": (lambda: make_majority(5), False),
    "majority(5)": (lambda: make_majority(5), True),
    "improved-majority(6)": (lambda: make_majority(6, improved=True), True),
    "majority(7)": (lambda: make_majority(7), True),
}


def peak_rss_mb() -> float:
    """This process's peak resident set.  Linux's ``ru_maxrss`` keeps the
    parent's peak across fork and exec, so read ``VmHWM`` where it exists."""
    try:
        with open("/proc/self/status") as f:
            return next(int(l.split()[1]) for l in f if l.startswith("VmHWM:")) / 1024
    except (OSError, StopIteration):
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def one_process_case(name: str):
    """One row: states (orbits under symmetry), time and peak RSS of a case; and its verdict."""
    quorum, symmetry = ONE_PROCESS_CASES[name]
    t0 = time.perf_counter()
    res = explore(CheckConfig(quorum(), ballots=2, symmetry=symmetry))
    wall = time.perf_counter() - t0
    rss_mb = peak_rss_mb()
    unit = "orbits" if symmetry else "states"
    row = f"{name:36s} {res.states:8d} {unit}  {wall:5.2f}s  {rss_mb:5.0f} MB peak RSS  {res.verdict}"
    return row, res.verdict


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n-max", type=int, default=3, help="catalog size bound (<= 4)")
    args = ap.parse_args()

    print("== bounded exploration of the standard catalog ==")
    catalog = [
        ("n=3 classic majority, 3 ballots", CheckConfig(make_majority(3), ballots=3)),
        ("n=4 improved majority, 2 ballots", CheckConfig(make_majority(4, improved=True), ballots=2)),
        ("n=4 simple |Q2|=2, 2 ballots", CheckConfig(make_simple(4, 2), ballots=2)),
        ("grid 2x2 fpaxos, 2 ballots", CheckConfig(make_grid(2, 2, "fpaxos"), ballots=2)),
    ]
    ok = True
    for name, cfg in catalog:
        t0 = time.perf_counter()
        res = explore(cfg)
        wall = time.perf_counter() - t0
        print(f"{name:36s} {res.states:8d} states  {wall:5.2f}s  "
              f"{res.states / wall:9,.0f} states/s  {res.verdict}")
        ok = ok and res.verdict == SAFE

    print("\n== falsification: disjoint singleton quorums on n=2 ==")
    cfg = CheckConfig(make_explicit(2, [[0]], [[1]]), ballots=2, properties=(AGREEMENT,))
    res = explore(cfg)
    v = res.violation
    if v is None:
        print(f"no violation: {res.verdict} at {res.states} states")
        ok = False
    else:
        rr = replay(v.path, cfg)
        shown = rr.shows(v.property)
        print(f"agreement broken in {len(v.path)} actions; replay decided "
              f"{sorted(x for _, x in rr.decisions)}, {'confirmed' if shown else 'NOT CONFIRMED'}")
        ok = ok and shown

    print(f"\n== constructor/falsification sweep up to n={args.n_max} ==", flush=True)
    ok = cli.main(["check", "--sweep", str(args.n_max)]) == 0 and ok

    print("\n== plain, then symmetry reduction, 2 ballots, one process each ==")
    for name in ONE_PROCESS_CASES:
        with multiprocessing.get_context("spawn").Pool(1) as pool:
            row, verdict = pool.apply(one_process_case, (name,))
        print(row)
        ok = ok and verdict == SAFE
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
