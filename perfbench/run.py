"""The fpaxos benchmark: one command, three workloads, checked outputs.

    python3 perfbench/run.py --workload steady-grid --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 0

Each workload repeats one unit of fixed work (see ``workloads.py``) until
``--seconds`` have passed, on one thread.  It reports the median wall time
of a unit, ``wall_s``, and the mean unit wall time over the mean wall time
of a fixed reference loop run between the units, ``wall_rel``, which is
steadier on a host whose speed varies.  Set-up time is the median over fresh processes,
and peak RSS comes from one fresh process that runs a single unit
(``probe.py``).  Every unit's outputs are checked; a unit whose checks
fail, or whose exact virtual outcomes differ from the fresh process's,
counts as failed.

``--trace 1`` alternates untraced units with units run under the span
wrappers of ``spans.py`` and reports the per-layer metrics instead.

Human-readable lines come first; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``,
the metrics being those ``BENCHMARK.json`` lists for the trace mode.  The
exit code is 0 when every check passed, 1 when one failed, and 2 when the
program or ``BENCHMARK.json`` cannot be found.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 9
REFERENCE_SIZE = 30_000
MIN_UNITS = 2
PROBE_TIMEOUT_S = 150


def quartiles(xs) -> tuple:
    """(q1, median, q3), as ``statistics.quantiles(xs, n=4)`` gives them."""
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    return tuple(statistics.quantiles(xs, n=4))


def _read(path: Path) -> str:
    try:
        return path.read_text().strip()
    except OSError:
        return ""


def git_commit(root: Path) -> str:
    head = _read(root / ".git" / "HEAD")
    if not head.startswith("ref: "):
        return head or "unknown"
    ref = head[5:]
    sha = _read(root / ".git" / ref)
    if sha:
        return sha
    for line in _read(root / ".git" / "packed-refs").splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return "unknown"


def environment(src: Path) -> dict:
    cpu = ""
    for line in _read(Path("/proc/cpuinfo")).splitlines():
        if line.startswith("model name"):
            cpu = line.split(":", 1)[1].strip()
            break
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu or platform.processor() or "unknown",
        "loadavg_start": list(os.getloadavg()),
        "git_commit": git_commit(src.parent),
    }


def probe(src: Path, name: str, seed: int, params: dict, with_unit: bool) -> dict:
    """Run ``probe.py`` in a fresh interpreter and return its JSON line."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "probe.py"), str(src), name, str(seed),
         json.dumps(params), "1" if with_unit else "0"],
        capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"probe for {name} exited {proc.returncode}: {proc.stderr.strip()}")
    return json.loads(proc.stdout.splitlines()[-1])


class Run:
    """Units of one workload, timed and checked."""

    def __init__(self, expected: dict):
        self.expected = expected  # virtual outcomes every unit must repeat
        self.attempted = 0
        self.failures = []

    def check(self, failures, virtual, where: str) -> None:
        self.attempted += 1
        if virtual != self.expected:
            failures = failures + ["virtual outcomes differ from the fresh process's"]
        if failures:
            self.failures.append(f"{where}: " + "; ".join(failures))


def reference() -> float:
    """Wall seconds of a fixed pure-Python workload that uses no fpaxos code.

    It builds, encodes and sorts small dicts and tuples, as the program
    does.  Run between the units, it slows down with the host, so the mean
    unit over its mean cancels most of the host's contention, while a
    change to the program still moves the ratio fully.
    """
    rng = random.Random(1)
    gc.collect()
    t0 = time.perf_counter()
    events = [
        {"t": i, "ev": "send", "msg": {"type": "propose", "ballot": [i & 7, 1], "slot": i,
                                       "src": i % 5, "dst": i * 3 % 5}}
        for i in range(REFERENCE_SIZE)
    ]
    text = "".join(json.dumps(e, separators=(",", ":")) + "\n" for e in events)
    order = sorted((rng.random(), i, str(i)) for i in range(REFERENCE_SIZE))
    del text, order
    return time.perf_counter() - t0


def run_workload(w, seed: int, seconds: float, trace: bool, src: Path, spans_out=None) -> dict:
    """Measure one workload; returns its result record."""
    import spans

    params = w.params(seed)
    configs = w.configs(seed, params)
    fresh = probe(src, w.name, seed, params, True)
    run = Run(fresh["virtual"])
    run.check(fresh["failures"], fresh["virtual"], "fresh process")

    # Set-up probes are spread over the run, as the units are, so that their
    # median sees the same spells of contention from the host.
    start = time.perf_counter()
    deadline = start + seconds
    probe_at = [start + seconds * k / SETUP_PROBES for k in range(SETUP_PROBES)]
    setups = []
    untraced, traced_units = [], []
    refs = [reference()]  # one before the first unit and one after each
    rec = spans.Recorder()
    while (time.perf_counter() < deadline or len(untraced) < MIN_UNITS
           or (trace and not traced_units)):
        while probe_at and time.perf_counter() >= probe_at[0]:
            probe_at.pop(0)
            setups.append(probe(src, w.name, seed, params, False)["setup_s"])
        gc.collect()
        if trace and len(traced_units) < len(untraced):
            with rec:
                u = w.unit(configs)
            rec.fold()
            traced_units.append(u)
            where = f"traced unit {len(traced_units)}"
        else:
            u = w.unit(configs)
            untraced.append(u)
            where = f"unit {len(untraced)}"
        refs.append(reference())
        run.check(u.failures, u.virtual, where)

    setups += [probe(src, w.name, seed, params, False)["setup_s"] for _ in probe_at]
    walls = [u.wall_s for u in untraced]
    q1, wall, q3 = quartiles(walls)
    f1, _, f3 = quartiles(refs)
    setup = statistics.median(setups)
    first = untraced[0]
    e2e = {
        "setup_s": (setup, "s"),
        "wall_rel": (statistics.mean(walls) / statistics.mean(refs), "ratio"),
        "wall_s": (wall, "s"),
        "peak_rss_mb": (fresh["peak_rss_mb"], "MB"),
        "error_rate": (len(run.failures) / run.attempted, "ratio"),
    }
    v = first.virtual
    if first.commits:
        e2e["sim_commits_per_s"] = (first.commits / wall, "1/s")
        for key, unit in (
            ("virt_commits_per_s", "1/s"),
            ("virt_latency_p50_ms", "ms"),
            ("virt_latency_p99_ms", "ms"),
            ("protocol_msgs_per_commit", "msgs"),
            ("failover_gap_ms", "ms"),
        ):
            if v.get(key) is not None:
                e2e[key] = (v[key], unit)
    record = {
        "workload": w.name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "params": params,
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "failures": run.failures,
        "metrics": {k: {"value": val, "unit": u} for k, (val, u) in e2e.items()},
        "samples": {"wall_s": walls, "reference_s": refs, "setup_s": setups,
                    "quartiles": {"wall_s": [q1, q3], "reference_s": [f1, f3]}},
        "virtual": v,
    }
    if trace:
        traced_walls = [u.wall_s for u in traced_units]
        record["per_layer"] = spans.per_layer(
            rec, traced_units, wall, statistics.median(traced_walls))
        record["samples"]["traced_wall_s"] = traced_walls
        if spans_out:
            rec.write_spans(spans_out)
    return record


def report(record: dict, spec: dict) -> None:
    """Human-readable lines for one workload."""
    s = record["samples"]
    print(f"== {record['workload']}  seed={record['seed']}  timed units={len(s['wall_s'])}  "
          f"traced units={len(s.get('traced_wall_s', []))}  correct={record['correct']}")
    notes = {
        "setup_s": f"median of {len(s['setup_s'])} fresh processes",
        "wall_rel": "mean unit over mean of {} reference loops; q1 {:.4f}, q3 {:.4f} s".format(
            len(s["reference_s"]), *s["quartiles"]["reference_s"]),
        "wall_s": "median of {} units; q1 {:.4f}, q3 {:.4f}".format(
            len(s["wall_s"]), *s["quartiles"]["wall_s"]),
        "peak_rss_mb": "one fresh process running one unit",
        "error_rate": f"{record['failed']} of {record['attempted']} units failed a check",
    }
    for name, m in record["metrics"].items():
        exact = name.startswith(("virt", "proto", "failover"))
        note = notes.get(name, "exact for this seed" if exact else "")
        print(f"  {name:<28} {m['value']:>14.6g} {m['unit']:<6} {note}")
    if record["workload"] == "check-safe":
        for fam, states in record["virtual"]["states"].items():
            print(f"  states {fam:<32} {states:>9}")
    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    for name, value in record.get("per_layer", {}).items():
        print(f"  {name:<36} {value:>14.6g} {units.get(name, '')}")
    for f in record["failures"]:
        print(f"  FAILED {f}")


def result_line(record: dict, spec: dict, trace: bool) -> dict:
    """The contract's last line for one workload."""
    if trace:
        values = record.get("per_layer", {})
        wanted = spec["per_layer"]
    else:
        values = {k: m["value"] for k, m in record.get("metrics", {}).items()}
        wanted = spec["end_to_end"]
    return {
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in wanted if m["name"] in values
        },
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, help="default: run_seconds of BENCHMARK.json")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--src", help="the program's source tree (default: src/ beside perfbench/)")
    ap.add_argument("--out", help="append each workload's full result record to this JSONL file")
    ap.add_argument("--spans", help="write the last traced unit's spans to this JSONL file")
    args = ap.parse_args(argv)

    src = Path(args.src).resolve() if args.src else ROOT / "src"
    if not (src / "fpaxos" / "__init__.py").is_file():
        print(f"error: no fpaxos package under {src}", file=sys.stderr)
        return 2
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as e:
        print(f"error: cannot read BENCHMARK.json: {e}", file=sys.stderr)
        return 2
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    sys.path.insert(0, str(src))
    import workloads

    if args.workload == "all":
        names = list(workloads.WORKLOADS)
    elif args.workload in workloads.WORKLOADS:
        names = [args.workload]
    else:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)} or all", file=sys.stderr)
        return 2

    env = environment(src)
    print("# env " + json.dumps(env))
    lines = {}
    for name in names:
        try:
            record = run_workload(workloads.WORKLOADS[name], args.seed, seconds,
                                  bool(args.trace), src, args.spans)
        except Exception:
            # One workload's crash is a failed check; the others still run.
            traceback.print_exc()
            record = {"workload": name, "seed": args.seed, "trace": args.trace, "correct": False,
                      "attempted": 1, "failed": 1, "failures": ["exception"], "metrics": {}}
        else:
            report(record, spec)
        record["env"] = env
        if args.out:
            with open(args.out, "a") as f:
                f.write(json.dumps(record) + "\n")
        lines[name] = result_line(record, spec, bool(args.trace))

    if len(names) == 1:
        final = lines[names[0]]
    else:
        final = {
            "correct": all(l["correct"] for l in lines.values()),
            "attempted": sum(l["attempted"] for l in lines.values()),
            "failed": sum(l["failed"] for l in lines.values()),
            "metrics": {f"{n}/{k}": m for n, l in lines.items() for k, m in l["metrics"].items()},
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
