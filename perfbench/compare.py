"""Compare benchmark results of two commits.

Run alternating pairs (pair i uses seed i; the base runs first in even
pairs, the head in odd ones), with this benchmark's code on both sides:

    python3 perfbench/compare.py pairs --base-src ../parent/src --head-src src \\
        --workload steady-grid --pairs 10 --out-dir cmp/

Or compare result files that ``run.py --out`` wrote, one per commit:

    python3 perfbench/compare.py report cmp/base.jsonl cmp/head.jsonl

For each workload and end-to-end metric of ``BENCHMARK.json`` the report
gives each side's median, quartiles and sample count, then a verdict:

* ``gain``: the head wins at least 9 of 10 pairs (ties count for neither)
  and the medians differ by more than the base's quartile distance;
* ``regression``: the head's median is worse than the base's by more than
  the metric's bound;
* ``unresolved``: the base's own spread is wider than the bound, unless
  every head run reads better than every base run;
* ``within bound``: none of the above.

Virtual outcomes, exact for a seed, are compared seed by seed.  The exit
code is 1 when a metric regressed or a virtual outcome changed.
"""

from __future__ import annotations

import argparse
import json
import math
import subprocess
import sys
from pathlib import Path

from run import HERE, ROOT, quartiles

GAIN_SHARE = 0.9


def load(path) -> list:
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def verdict(base: list, head: list, better: str, bound: float) -> dict:
    """Statistics and verdict for one metric; runs pair up by position."""
    b1, bm, b3 = quartiles(base)
    h1, hm, h3 = quartiles(head)
    sign = 1.0 if better == "lower" else -1.0
    worse = sign * (hm - bm) / bm  # > 0 when the head is worse
    pairs = list(zip(base, head))
    wins = sum(1 for b, h in pairs if sign * (b - h) > 0)
    spread = (b3 - b1) / bm
    every_better = all(sign * (b - h) > 0 for b in base for h in head)
    if wins >= math.ceil(GAIN_SHARE * len(pairs)) and abs(hm - bm) > b3 - b1 and worse < 0:
        call = "gain"
    elif worse > bound:
        call = "regression"
    elif spread > bound and not every_better:
        call = "unresolved"
    else:
        call = "within bound"
    return {
        "base": [bm, b1, b3, len(base)],  # median, quartiles, sample count
        "head": [hm, h1, h3, len(head)],
        "worse_by": worse,
        "base_spread": spread,
        "wins": f"{wins}/{len(pairs)}",
        "verdict": call,
    }


def report(base_records: list, head_records: list, spec: dict) -> int:
    status = 0
    workloads = [w["name"] for w in spec["workloads"]]
    for wl in workloads:
        base = [r for r in base_records if r["workload"] == wl and r.get("trace") == 0]
        head = [r for r in head_records if r["workload"] == wl and r.get("trace") == 0]
        if not base or not head:
            continue
        print(f"== {wl}: {len(base)} base runs, {len(head)} head runs")
        failed = sum(r["failed"] for r in base), sum(r["failed"] for r in head)
        print(f"  failed units: base {failed[0]}, head {failed[1]}")
        for m in spec["end_to_end"]:
            name = m["name"]
            bv = [r["metrics"][name]["value"] for r in base if name in r["metrics"]]
            hv = [r["metrics"][name]["value"] for r in head if name in r["metrics"]]
            if not bv or not hv:
                continue
            v = verdict(bv, hv, m["better"], m["bound"])
            print("  {:<12} base {:.4g} [{:.4g}, {:.4g}] n={}  head {:.4g} [{:.4g}, {:.4g}] n={}  "
                  "worse by {:+.1%} (bound {:.0%}, base spread {:.1%})  wins {}  {}".format(
                      name, *v["base"], *v["head"], v["worse_by"], m["bound"],
                      v["base_spread"], v["wins"], v["verdict"].upper()))
            if v["verdict"] == "regression":
                status = 1
        by_seed = {r["seed"]: r.get("virtual") for r in base}
        common = [r for r in head if r["seed"] in by_seed]
        same = sorted({r["seed"] for r in common if by_seed[r["seed"]] == r.get("virtual")})
        differ = sorted({r["seed"] for r in common if by_seed[r["seed"]] != r.get("virtual")})
        print(f"  virtual outcomes: identical on seeds {same}"
              + (f"; CHANGED on seeds {differ}" if differ else ""))
        if differ:
            status = 1
    return status


def run_pairs(args) -> tuple:
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    files = {"base": out / "base.jsonl", "head": out / "head.jsonl"}
    srcs = {"base": args.base_src, "head": args.head_src}
    for i in range(args.pairs):
        for side in ("base", "head") if i % 2 == 0 else ("head", "base"):
            cmd = [sys.executable, str(HERE / "run.py"), "--src", srcs[side],
                   "--workload", args.workload, "--seed", str(i),
                   "--seconds", str(args.seconds), "--out", str(files[side])]
            proc = subprocess.run(cmd, capture_output=True, text=True)
            last = proc.stdout.strip().splitlines()[-1:]
            print(f"pair {i} {side}: exit {proc.returncode} {last}", flush=True)
    return files["base"], files["head"]


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    rp = sub.add_parser("report", help="compare two result files")
    rp.add_argument("base")
    rp.add_argument("head")
    pp = sub.add_parser("pairs", help="run alternating pairs, then report")
    pp.add_argument("--base-src", required=True)
    pp.add_argument("--head-src", required=True)
    pp.add_argument("--workload", required=True)
    pp.add_argument("--pairs", type=int, default=10)
    pp.add_argument("--seconds", type=float, default=spec["run_seconds"])
    pp.add_argument("--out-dir", required=True)
    args = ap.parse_args(argv)
    if args.cmd == "pairs":
        args.base, args.head = run_pairs(args)
    return report(load(args.base), load(args.head), spec)


if __name__ == "__main__":
    sys.exit(main())
