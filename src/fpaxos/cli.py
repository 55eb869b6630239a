"""Command-line entry point.

Subcommands:

* ``quorum analyze`` -- sizes, cross-phase intersection, fault tolerance.
* ``check`` -- bounded exhaustive safety checking, with counterexample
  output and a constructor/falsification sweep.
* ``simulate`` -- one deterministic simulation run or scripted scenario.
* ``sweep`` -- a family of simulation runs written as CSV/JSON.

Exit codes: 0 success/safe, 1 safety violation found, 2 usage error.
All output is a pure function of flags plus the seed; the default seed
comes from ``FPAXOS_SEED`` when set.

Run options are declared once, as ``SimConfig``/``CheckConfig`` fields:
flags given on the command line override ``--config``/``--spec`` entries,
and what neither gives keeps the dataclass default.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict, fields

from . import checker as chk
from . import scenarios, sim
from .core import read_config
from .quorum import (
    EXPLICIT,
    SIMPLE,
    STRATEGIES,
    QuorumSystem,
    UnverifiableError,
    failure_tolerance,
    make_grid,
    make_majority,
    make_simple,
    validate_cross_intersection,
)

USAGE_ERROR = 2

# A sweep spec's own keys, besides the SimConfig keys of every run, and their defaults.
SWEEP_DEFAULTS = {"q2_list": [], "seeds": 1, "out": "", "format": "csv"}

# Config keys a flag may set: a flag's dest is the key it overrides.
SIM_KEYS = frozenset(f.name for f in fields(sim.SimConfig))
SWEEP_KEYS = SIM_KEYS | SWEEP_DEFAULTS.keys()
CHECK_KEYS = frozenset(f.name for f in fields(chk.CheckConfig))


# -- shared quorum flags --------------------------------------------------


def add_quorum_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--kind", choices=["majority", "simple", "grid"], help="quorum family")
    p.add_argument("--n", type=int, help="acceptor count (majority/simple)")
    p.add_argument("--improved", action="store_true", help="majority: shrink |Q2| to ceil(n/2)")
    p.add_argument("--q2", type=int, help="simple: phase-2 quorum size")
    p.add_argument("--rows", type=int, help="grid: row count")
    p.add_argument("--cols", type=int, help="grid: column count")
    p.add_argument("--mode", choices=["paxos", "fpaxos"], help="grid mode (default fpaxos)")


def quorum_from_args(args) -> QuorumSystem:
    if args.kind == "majority":
        if args.n is None:
            raise ValueError("--kind majority requires --n")
        return make_majority(args.n, improved=args.improved)
    if args.kind == "simple":
        if args.n is None or args.q2 is None:
            raise ValueError("--kind simple requires --n and --q2")
        return make_simple(args.n, args.q2)
    if args.kind == "grid":
        if args.rows is None or args.cols is None:
            raise ValueError("--kind grid requires --rows and --cols")
        return make_grid(args.rows, args.cols, mode=args.mode or "fpaxos")
    raise ValueError("no quorum system given (use --kind)")


def merge_entries(path, args, keys, quorum=None) -> dict:
    """The JSON object at ``path`` (if any), overridden by the flags given.

    A flag counts when its dest is in ``keys`` and it was on the command
    line.  A quorum from the quorum flags (or ``quorum``) replaces the file's.
    """
    d = {}
    if path:
        with open(path) as f:
            d = json.load(f)
        if not isinstance(d, dict):
            raise ValueError(f"{path}: expected a JSON object")
    d.update((k, v) for k, v in vars(args).items() if k in keys)
    if quorum is None and (args.kind is not None or not {"quorum", "q1_sets"} & d.keys()):
        quorum = quorum_from_args(args)  # without --kind: "no quorum system given"
    if quorum is not None:
        d = {k: v for k, v in d.items() if k not in chk.FLAT_QUORUM_KEYS}
        d["quorum"] = quorum.to_json()
    return d


# -- quorum analyze -------------------------------------------------------


def cmd_quorum_analyze(args) -> int:
    qs = quorum_from_args(args)
    try:
        intersects = validate_cross_intersection(qs)
    except UnverifiableError as e:
        intersects = None
        note = str(e)
    report = failure_tolerance(qs)
    placement = None
    if report.guaranteed_f != report.best_case_f:
        placement = [report.guaranteed_f + 1, report.best_case_f]
    out = {
        "quorum": qs.to_json(),
        "q1": qs.min_q1_size(),
        "q2": qs.min_q2_size(),
        "intersects": intersects,
        "tolerance": asdict(report),
        "placement_range": placement,
    }
    if args.json:
        print(json.dumps(out, separators=(",", ":")))
    else:
        print(f"quorum system            : {qs.describe()}")
        print(f"acceptors                : {qs.n}")
        print(f"min |Q1|                 : {out['q1']}")
        print(f"min |Q2|                 : {out['q2']}")
        status = {True: "OK", False: "BROKEN", None: "UNVERIFIABLE"}[intersects]
        print(f"cross-phase intersection : {status}")
        if intersects is None:
            print(f"  note: {note}")
        print(f"guaranteed f (both phases) : {report.guaranteed_f}")
        print(f"best-case f (both phases)  : {report.best_case_f}")
        print(f"best-case f (phase 2 only) : {report.phase2_only_max_f}")
        if placement:
            print(f"placement-sensitive range  : {placement[0]}..{placement[1]}")
    return 1 if intersects is False else 0


# -- check ----------------------------------------------------------------


# ``check`` flags that the ``--sweep`` catalog has no use for, by dest.
NOT_WITH_SWEEP = (
    "kind", "n", "improved", "q2", "rows", "cols", "mode", "custom_q1", "custom_q2",
    "symmetry", "config", "counterexample",
)


def cmd_check(args) -> int:
    if args.sweep is not None:
        for dest in NOT_WITH_SWEEP:
            given = getattr(args, dest, None)  # unset flags are None, False or absent
            if given is not None and given is not False:
                raise ValueError(f"--{dest.replace('_', '-')} cannot be combined with --sweep")
        report = chk.quorum_safety_sweep(
            args.sweep,
            ballots=getattr(args, "ballots", chk.CheckConfig.ballots),
            values=getattr(args, "values", len(chk.CheckConfig.values)),
            max_states=getattr(args, "max_states", chk.CheckConfig.max_states),
        )
        for e in report:
            verdict = "violation" if e.violation_found else "safe"
            agree = "" if e.consistent else "  << INCONSISTENT"
            print(
                f"{e.name:28s} intersects={str(e.intersects):5s} "
                f"{verdict:9s} states={e.states}{agree}"
            )
        ok = all(e.consistent for e in report)
        print("sweep:", "consistent" if ok else "INCONSISTENT")
        return 0 if ok else 1

    qs = None
    if args.custom_q1 or args.custom_q2:
        if not (args.custom_q1 and args.custom_q2 and args.n):
            raise ValueError("--custom-q1/--custom-q2 require each other and --n")
        sets = {"q1_sets": json.loads(args.custom_q1), "q2_sets": json.loads(args.custom_q2)}
        qs = QuorumSystem.from_json({"kind": EXPLICIT, "n": args.n, **sets})
    cfg = chk.check_config_from_json(merge_entries(args.config, args, CHECK_KEYS, qs))
    res = chk.explore(cfg)
    print(f"states explored : {res.states}")
    if res.complete:
        completeness = "yes"
    elif res.violation is not None:
        completeness = "no (stopped at first violation)"
    else:
        completeness = "no (state budget exceeded)"
    print(f"complete        : {completeness}")
    if res.violation is None:
        print("result          : SAFE" if res.complete else "result          : NO VIOLATION FOUND (partial)")
        return 0
    v = res.violation
    print(f"result          : VIOLATION ({v.property}) in {len(v.path)} actions")
    rr = chk.replay(v.path, cfg)
    shown = rr.conflicting if v.property == chk.AGREEMENT else rr.contradicted
    print(f"replay          : {'confirmed' if shown else 'NOT CONFIRMED'}"
          f" ({len(rr.decisions)} decisions observed)")
    if args.counterexample:
        with open(args.counterexample, "w") as f:
            f.write(chk.counterexample_jsonl(v, cfg))
        print(f"counterexample  : {args.counterexample}")
    return 1


# -- simulate ---------------------------------------------------------------


def _timed_row(crash: bool):
    """argparse type: ``t=MS,r=ID`` (crashes: ``[,wipe]``) as a schedule row."""

    def parse(text: str) -> list:
        given = {}
        flags = []
        for part in text.split(","):
            part = part.strip()
            if "=" in part:
                k, v = part.split("=", 1)
                given[k.strip()] = v
            elif part:
                flags.append(part)
        if "t" not in given or "r" not in given:
            raise argparse.ArgumentTypeError("needs t=<ms>,r=<replica>")
        row = [float(given["t"]), int(given["r"])]
        return row + ["wipe" in flags] if crash else row

    return parse


def _partition_row(text: str) -> list:
    head, sep, groups = text.partition(";")
    key, _, t = head.partition("=")
    if not sep or key.strip() != "t":
        raise argparse.ArgumentTypeError('format: "t=<ms>;0,1|2,3" (empty groups heal)')
    groups = [g for g in groups.split("|") if g.strip()]
    return [float(t), [[int(x) for x in g.split(",") if x.strip()] for g in groups]]


def sim_config_from_args(args) -> sim.SimConfig:
    """``--config`` entries, then the flags given; seed falls back to ``$FPAXOS_SEED``."""
    d = merge_entries(args.config, args, SIM_KEYS)
    if "seed" not in d:
        d["seed"] = int(os.environ.get("FPAXOS_SEED", "0"))
    d["record_trace"] = bool(args.trace)
    return sim.SimConfig.from_json(d)


def _write(path: str, text: str) -> None:
    with open(path, "w") as f:
        f.write(text)


def cmd_simulate(args) -> int:
    if args.scenario:
        result = scenarios.run_scenario(args.scenario)
        text = sim.to_jsonl(result.trace)
        if args.trace:
            _write(args.trace, text)
            summary = {"scenario": result.name, "violation": result.violation,
                       "decided": result.decided_values}
            print(json.dumps(summary, separators=(",", ":")))
        else:
            sys.stdout.write(text)
        return 1 if result.violation else 0

    cfg = sim_config_from_args(args)
    try:
        metrics, trace = sim.run(cfg)
    except sim.SafetyViolationError as e:
        print(f"SAFETY VIOLATION: slot {e.slot} decided as {e.values!r}", file=sys.stderr)
        if args.trace:
            _write(args.trace, sim.to_jsonl(e.trace))
            print(f"counterexample trace: {args.trace}", file=sys.stderr)
        return 1
    if args.trace:
        _write(args.trace, sim.to_jsonl(trace))
    if args.metrics:
        _write(args.metrics, json.dumps(metrics.to_json(), indent=2) + "\n")
    if args.csv:
        _write(args.csv, metrics.CSV_HEADER + "\n" + metrics.csv_row() + "\n")
    print(json.dumps(metrics.to_json(), separators=(",", ":")))
    return 0


# -- sweep -------------------------------------------------------------------


def build_sweep(args):
    """Expand a JSON spec, overridden by the flags given, into a run list.

    The spec's own keys (``SWEEP_DEFAULTS``) go through ``read_config``; the
    rest is every run's ``SimConfig`` but ``seed`` and ``record_trace``.
    """
    d = merge_entries(args.spec, args, SWEEP_KEYS)
    for key in ("seed", "record_trace"):
        if key in d:
            raise ValueError(f"{key} cannot be set in a sweep spec: the sweep sets it on every run")
    own = {key: d.pop(key) for key in SWEEP_DEFAULTS if key in d}
    spec = {**SWEEP_DEFAULTS, **read_config(own, SWEEP_DEFAULTS, {}, "sweep")}
    q2_list, quorum = spec["q2_list"], d.get("quorum")
    if q2_list and not (isinstance(quorum, dict) and quorum.get("kind") == SIMPLE):
        raise ValueError(f"q2_list needs a simple quorum, got {quorum!r}")
    if spec["format"] not in ("csv", "json"):
        raise ValueError(f"format must be 'csv' or 'json', got {spec['format']!r}")
    configs = []
    for q2 in q2_list or [None]:
        if q2 is not None:
            d["quorum"] = {**quorum, "q2_size": q2}
        for seed in range(spec["seeds"]):
            configs.append(sim.SimConfig.from_json({**d, "seed": seed, "record_trace": False}))
    return configs, spec["out"], spec["format"]


def cmd_sweep(args) -> int:
    configs, out, fmt = build_sweep(args)
    if not out:
        raise ValueError("sweep needs --out (or 'out' in the spec)")
    for cfg in configs:
        if not validate_cross_intersection(cfg.quorum):
            raise ValueError(f"refusing to run {cfg.quorum.describe()}: quorums do not intersect")
    results = [sim.run(cfg)[0] for cfg in configs]
    if fmt == "csv":
        text = sim.RunMetrics.CSV_HEADER + "\n" + "".join(m.csv_row() + "\n" for m in results)
    else:
        text = json.dumps([m.to_json() for m in results], indent=2) + "\n"
    _write(out, text)
    print(f"wrote {len(results)} runs to {out}")
    return 0


# -- parser -------------------------------------------------------------------


def _int_list(text: str) -> list:
    return [int(x) for x in text.split(",")]


def build_parser() -> argparse.ArgumentParser:
    S = argparse.SUPPRESS
    p = argparse.ArgumentParser(prog="fpaxos", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    pq = sub.add_parser("quorum", help="quorum system analysis")
    qsub = pq.add_subparsers(dest="subcommand", required=True)
    pa = qsub.add_parser("analyze", help="sizes, intersection, fault tolerance")
    add_quorum_args(pa)
    pa.add_argument("--json", action="store_true", help="machine-readable output")
    pa.set_defaults(func=cmd_quorum_analyze)

    pc = sub.add_parser("check", help="bounded exhaustive safety check")
    add_quorum_args(pc)
    pc.add_argument("--custom-q1", help="explicit phase-1 sets as JSON, e.g. '[[0]]'")
    pc.add_argument("--custom-q2", help="explicit phase-2 sets as JSON, e.g. '[[1]]'")
    pc.add_argument("--ballots", type=int, default=S, help="distinct ballots to explore")
    pc.add_argument("--values", type=int, default=S, help="distinct proposable values")
    pc.add_argument("--max-states", type=int, default=S)
    pc.add_argument("--symmetry", action="store_true", default=S,
                    help="search one state per orbit of value and threshold-kind acceptor symmetry")
    pc.add_argument("--counterexample", metavar="PATH", help="write violating action trace here")
    pc.add_argument("--config", metavar="PATH", help="JSON check configuration")
    pc.add_argument("--sweep", type=int, metavar="N_MAX",
                    help="run the constructor/falsification catalog up to n=N_MAX")
    pc.set_defaults(func=cmd_check)

    # Run-shape flags shared by simulate and sweep.
    run = argparse.ArgumentParser(add_help=False, argument_default=S)
    run.add_argument("--latency", help="one-way ms: fixed '10' or uniform '5:25'")
    run.add_argument("--loss", type=float)
    run.add_argument("--duplicate", type=float)
    run.add_argument("--window", type=int)
    run.add_argument("--duration-ms", type=float)
    run.add_argument("--warmup-ms", type=float)
    run.add_argument("--cooldown-ms", type=float)
    run.add_argument("--strategy", choices=STRATEGIES)
    run.add_argument("--send-to-all", action="store_true", help="broadcast instead of quorum sends")

    ps = sub.add_parser("simulate", parents=[run], help="deterministic simulation run")
    add_quorum_args(ps)
    ps.add_argument("--scenario", choices=scenarios.SCENARIOS, help="scripted execution")
    ps.add_argument("--seed", type=int, default=S)
    for flag, dest in (("crash", "crashes"), ("restore", "restores"), ("elect", "elections")):
        wipe = flag == "crash"
        ps.add_argument(f"--{flag}", dest=dest, type=_timed_row(wipe), action="append",
                        default=S, metavar="t=MS,r=ID" + "[,wipe]" * wipe)
    ps.add_argument("--partition", dest="partitions", type=_partition_row, action="append",
                    default=S, metavar="t=MS;0,1|2,3")
    ps.add_argument("--leader", dest="initial_leader", type=int, default=S, metavar="ID",
                    help="initially elected replica")
    ps.add_argument("--trace", metavar="PATH", help="write JSON-lines trace here")
    ps.add_argument("--metrics", metavar="PATH", help="write metrics JSON here")
    ps.add_argument("--csv", metavar="PATH", help="write one-row CSV here")
    ps.add_argument("--config", metavar="PATH", help="JSON simulation configuration")
    ps.set_defaults(func=cmd_simulate)

    pw = sub.add_parser("sweep", parents=[run], help="batch of simulation runs")
    add_quorum_args(pw)
    pw.add_argument("--q2-list", type=_int_list, default=S,
                    help="comma-separated |Q2| values (simple quorums)")
    pw.add_argument("--seeds", type=int, default=S, help="seeds 0..N-1 per configuration")
    pw.add_argument("--spec", metavar="PATH", help="JSON experiment spec")
    pw.add_argument("--out", default=S, metavar="PATH", help="results file")
    pw.add_argument("--format", choices=["csv", "json"], default=S)
    pw.set_defaults(func=cmd_sweep)

    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, json.JSONDecodeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
