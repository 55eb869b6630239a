"""Command-line entry point.

Subcommands:

* ``quorum analyze`` -- sizes, cross-phase intersection, fault tolerance.
* ``check`` -- bounded exhaustive safety checking, with counterexample
  output and a constructor/falsification sweep.
* ``simulate`` -- one deterministic simulation run or scripted scenario.
* ``sweep`` -- a family of simulation runs written as CSV/JSON.

Exit codes: 0 success/safe, 1 safety violation found or a ``--sweep``
entry whose verdict (``safe``, ``violation`` or ``partial``, a search
out of budget) disagrees with intersection, 2 usage error.
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
from typing import Optional

from . import checker as chk
from . import scenarios, sim
from .core import check_type
from .quorum import (
    EXPLICIT,
    SIMPLE,
    STRATEGIES,
    QuorumSystem,
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
    p.add_argument("--custom-q1", help="explicit phase-1 sets as JSON, e.g. '[[0]]'")
    p.add_argument("--custom-q2", help="explicit phase-2 sets as JSON, e.g. '[[1]]'")


# The quorum flags each family reads, by dest; "custom" is --custom-q1/--custom-q2.
KIND_FLAGS = {
    "majority": ("n", "improved"),
    "simple": ("n", "q2"),
    "grid": ("rows", "cols", "mode"),
    "custom": ("n",),
}
NO_QUORUM = "no quorum system given (use --kind)"


def _given(args, dest) -> bool:
    """Whether a flag was on the command line: unset flags are None, False or absent."""
    value = getattr(args, dest, None)
    return value is not None and value is not False


def _json_flag(args, dest):
    try:
        return json.loads(getattr(args, dest))
    except json.JSONDecodeError as e:
        raise ValueError(f"--{dest.replace('_', '-')} must be JSON: {e}") from None


def quorum_from_args(args) -> Optional[QuorumSystem]:
    """The quorum the quorum flags name, or None when they name none.

    A quorum flag that the chosen family does not read is a ``ValueError``.
    A sweep's ``--q2-list`` stands in for a simple family's ``--q2``.
    """
    custom = _given(args, "custom_q1") or _given(args, "custom_q2")
    if custom and args.kind is not None:
        raise ValueError("--kind cannot be combined with --custom-q1/--custom-q2")
    kind = "custom" if custom else args.kind
    for dest in ("n", "improved", "q2", "rows", "cols", "mode"):
        if _given(args, dest) and dest not in KIND_FLAGS.get(kind, ()):
            raise ValueError(f"--{dest} is not read by --kind {kind}" if kind
                             else f"--{dest} needs --kind")
    if kind == "majority":
        if args.n is None:
            raise ValueError("--kind majority requires --n")
        return make_majority(args.n, improved=args.improved)
    if kind == "simple":
        q2 = args.q2 if args.q2 is not None else getattr(args, "q2_list", [None])[0]
        if args.n is None or q2 is None:
            raise ValueError("--kind simple requires --n and --q2 (or, in a sweep, --q2-list)")
        return make_simple(args.n, q2)
    if kind == "grid":
        if args.rows is None or args.cols is None:
            raise ValueError("--kind grid requires --rows and --cols")
        return make_grid(args.rows, args.cols, mode=args.mode or "fpaxos")
    if kind == "custom":
        if not (args.custom_q1 and args.custom_q2 and args.n):
            raise ValueError("--custom-q1/--custom-q2 require each other and --n")
        sets = {"q1_sets": _json_flag(args, "custom_q1"), "q2_sets": _json_flag(args, "custom_q2")}
        return QuorumSystem.from_json({"kind": EXPLICIT, "n": args.n, **sets})
    return None


def only_mode_flags(args, mode: str, *reads: str) -> None:
    """Refuse, as typed, any flag given but ``--<mode>`` and the dests it ``reads``."""
    for dest, flag in args.flags.items():
        if dest not in (mode, *reads) and _given(args, dest):
            raise ValueError(f"{flag} cannot be combined with --{mode}")


def merge_entries(path, args, keys) -> dict:
    """The JSON object at ``path`` (if any), overridden by the flags given.

    A flag counts when its dest is in ``keys`` and it was on the command
    line.  A quorum from the quorum flags replaces the file's.
    """
    d = {}
    if path:
        with open(path) as f:
            d = json.load(f)
        if not isinstance(d, dict):
            raise ValueError(f"{path}: expected a JSON object")
    d.update((k, v) for k, v in vars(args).items() if k in keys)
    quorum = quorum_from_args(args)
    if quorum is None and not {"quorum", "q1_sets"} & d.keys():
        raise ValueError(NO_QUORUM)
    if quorum is not None:
        d = {k: v for k, v in d.items() if k not in chk.FLAT_QUORUM_KEYS}
        d["quorum"] = quorum.to_json()
    return d


# -- quorum analyze -------------------------------------------------------


def cmd_quorum_analyze(args) -> int:
    qs = quorum_from_args(args)
    if qs is None:
        raise ValueError(NO_QUORUM)
    intersects = validate_cross_intersection(qs)
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
        print(f"cross-phase intersection : {'OK' if intersects else 'BROKEN'}")
        print(f"guaranteed f (both phases) : {report.guaranteed_f}")
        print(f"best-case f (both phases)  : {report.best_case_f}")
        print(f"best-case f (phase 2 only) : {report.phase2_only_max_f}")
        if placement:
            print(f"placement-sensitive range  : {placement[0]}..{placement[1]}")
    return 0 if intersects else 1


# -- check ----------------------------------------------------------------


def cmd_check(args) -> int:
    if args.sweep is not None:
        if not 1 <= args.sweep <= chk.MAX_SWEEP_N:
            raise ValueError(f"--sweep must be in [1, {chk.MAX_SWEEP_N}], got {args.sweep}")
        only_mode_flags(args, "sweep", "ballots", "values", "max_states")
        check = {k: chk.value_names(v) if k == "values" else v
                 for k, v in vars(args).items() if k in CHECK_KEYS}
        report = chk.quorum_safety_sweep(args.sweep, **check)
        for e in report:
            print(f"{e.name:28s} intersects={str(e.intersects):5s} {e.verdict:9s} "
                  f"states={e.states}{'' if e.consistent else '  << INCONSISTENT'}")
        ok = all(e.consistent for e in report)
        print("sweep:", "consistent" if ok else "INCONSISTENT")
        return 0 if ok else 1

    cfg = chk.check_config_from_json(merge_entries(args.config, args, CHECK_KEYS))
    res = chk.explore(cfg)
    print(f"states explored : {res.states}")
    if res.verdict != chk.VIOLATION:
        safe = res.verdict == chk.SAFE
        print(f"complete        : {'yes' if safe else 'no (state budget exceeded)'}")
        print(f"result          : {'SAFE' if safe else 'NO VIOLATION FOUND (partial)'}")
        return 0
    print("complete        : no (stopped at first violation)")
    v = res.violation
    print(f"result          : VIOLATION ({v.property}) in {len(v.path)} actions")
    rr = chk.replay(v.path, cfg)
    print(f"replay          : {'confirmed' if rr.shows(v.property) else 'NOT CONFIRMED'}"
          f" ({len(rr.decisions)} decisions observed)")
    if args.counterexample:
        with open(args.counterexample, "w") as f:
            f.write(chk.counterexample_jsonl(v, cfg))
        print(f"counterexample  : {args.counterexample}")
    return 1


# -- simulate ---------------------------------------------------------------


def _timed_row(crash: bool):
    """argparse type: exactly ``t=MS,r=ID`` (crashes: ``[,wipe]``), each part once."""
    parts = {"t=", "r="} | ({"wipe"} if crash else set())

    def parse(text: str) -> list:
        split = [[x.strip() for x in part.partition("=")] for part in text.split(",")]
        given = {key + eq: value for key, eq, value in split}
        try:
            if len(given) < len(split) or not given.keys() <= parts:
                raise KeyError  # a repeated part, or one this row does not read
            row = [float(given["t="]), int(given["r="])]
        except (KeyError, ValueError):
            raise argparse.ArgumentTypeError(
                f"{text!r} must be t=<ms>,r=<replica>{'[,wipe]' * crash}: "
                "t a time in ms, r an integer replica id, each once") from None
        return row + ["wipe" in given] if crash else row

    return parse


def _partition_row(text: str) -> list:
    head, sep, groups = text.partition(";")
    key, _, t = head.partition("=")
    groups = [g for g in groups.split("|") if g.strip()]
    try:
        if sep and key.strip() == "t":
            return [float(t), [[int(x) for x in g.split(",") if x.strip()] for g in groups]]
    except ValueError:
        pass
    raise argparse.ArgumentTypeError('format: "t=<ms>;0,1|2,3" (empty groups heal), '
                                     "t a time in ms, members integer replica ids")


def sim_config_from_args(args) -> sim.SimConfig:
    """``--config`` entries, then the flags given; seed falls back to ``$FPAXOS_SEED``."""
    d = merge_entries(args.config, args, SIM_KEYS)
    if "seed" not in d:
        text = os.environ.get("FPAXOS_SEED", "0")
        try:
            d["seed"] = int(text)
        except ValueError:
            raise ValueError(f"FPAXOS_SEED must be an integer, got {text!r}") from None
    d["record_trace"] = bool(args.trace)
    return sim.SimConfig.from_json(d)


def _write(path: str, text: str) -> None:
    with open(path, "w") as f:
        f.write(text)


def cmd_simulate(args) -> int:
    if args.scenario:
        only_mode_flags(args, "scenario", "trace")
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

    The spec's own keys (``SWEEP_DEFAULTS``) must have their defaults'
    types; the rest is every run's ``SimConfig`` but ``seed`` and
    ``record_trace``.
    """
    d = merge_entries(args.spec, args, SWEEP_KEYS)
    for key in ("seed", "record_trace"):
        if key in d:
            raise ValueError(f"{key} cannot be set in a sweep spec: the sweep sets it on every run")
    own = {key: d.pop(key) for key in SWEEP_DEFAULTS if key in d}
    for key, value in own.items():
        check_type(key, value, SWEEP_DEFAULTS[key])
    spec = {**SWEEP_DEFAULTS, **own}
    q2_list, quorum = spec["q2_list"], d.get("quorum")
    if q2_list and not (isinstance(quorum, dict) and quorum.get("kind") == SIMPLE):
        raise ValueError(f"q2_list needs a simple quorum, got {quorum!r}")
    if spec["format"] not in ("csv", "json"):
        raise ValueError(f"format must be 'csv' or 'json', got {spec['format']!r}")
    if spec["seeds"] < 1:
        raise ValueError(f"seeds must be at least 1, got {spec['seeds']}")
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
    try:
        return [int(x) for x in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} must be comma-separated integers") from None


def _flags(p: argparse.ArgumentParser) -> dict:
    """Each of ``p``'s options by dest, as typed on the command line."""
    return {a.dest: a.option_strings[0] for a in p._actions if a.option_strings}


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
    pc.add_argument("--ballots", type=int, default=S, help="distinct ballots to explore")
    pc.add_argument("--values", type=int, default=S, help="distinct proposable values")
    pc.add_argument("--max-states", type=int, default=S)
    pc.add_argument("--symmetry", action="store_true", default=S,
                    help="search one state per orbit of value and threshold-kind acceptor symmetry")
    pc.add_argument("--counterexample", metavar="PATH", help="write violating action trace here")
    pc.add_argument("--config", metavar="PATH", help="JSON check configuration")
    pc.add_argument("--sweep", type=int, metavar="N_MAX",
                    help="run the constructor/falsification catalog up to n=N_MAX")
    pc.set_defaults(func=cmd_check, flags=_flags(pc))

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
    ps.set_defaults(func=cmd_simulate, flags=_flags(ps))

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
