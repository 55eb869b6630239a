"""The benchmark's own tests.

    python3 -m pytest -q perfbench

They run every workload at the shortest length (``--seconds 0``: two
timed units and one traced unit, besides the fresh-process probes), so
they take about a minute and a half.
"""

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import compare  # noqa: E402
import run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SIM_METRICS = (
    "sim_commits_per_s",
    "virt_commits_per_s",
    "virt_latency_p50_ms",
    "virt_latency_p99_ms",
    "protocol_msgs_per_commit",
)


@pytest.fixture(scope="module")
def seed1(tmp_path_factory):
    """All workloads, traced, at seed 1: (exit code, records by workload)."""
    out = tmp_path_factory.mktemp("bench") / "seed1.jsonl"
    with contextlib.redirect_stdout(io.StringIO()):
        code = run.main(["--workload", "all", "--seed", "1", "--seconds", "0",
                         "--trace", "1", "--out", str(out)])
    return code, {r["workload"]: r for r in compare.load(out)}


def _cli(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          capture_output=True, text=True, cwd=cwd, timeout=170)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_emitted_with_its_unit(seed1, workload):
    record = seed1[1][workload]
    for trace, wanted in ((False, SPEC["end_to_end"]), (True, SPEC["per_layer"])):
        metrics = run.result_line(record, SPEC, trace)["metrics"]
        assert [m["name"] for m in wanted] == list(metrics)
        for m in wanted:
            assert metrics[m["name"]]["unit"] == m["unit"]
            assert isinstance(metrics[m["name"]]["value"], (int, float))
    for m in SPEC["end_to_end"]:
        assert record["metrics"][m["name"]]["value"] > 0
    named = {"setup_s", "wall_s", "wall_rel", "peak_rss_mb", "error_rate"}
    if workload != "check-safe":
        named.update(SIM_METRICS)
    if workload == "failover-trace":
        named.add("failover_gap_ms")
    assert named <= set(record["metrics"])


def test_second_seed_passes_every_check(seed1):
    code, records = seed1
    assert code == 0
    for record in records.values():
        assert record["correct"] and record["failed"] == 0, record["failures"]
        assert record["metrics"]["error_rate"]["value"] == 0


def test_same_seed_gives_identical_virtual_metrics(tmp_path):
    out = tmp_path / "runs.jsonl"
    for _ in range(2):
        for workload in ("steady-grid", "failover-trace"):
            proc = _cli("--workload", workload, "--seed", "0", "--seconds", "0",
                        "--trace", "0", "--out", str(out))
            assert proc.returncode == 0, proc.stderr
            last = json.loads(proc.stdout.splitlines()[-1])
            assert set(last) == {"correct", "attempted", "failed", "metrics"}
            assert last["correct"] and last["attempted"] >= 1
    first, second = {}, {}
    for r in compare.load(out):
        (second if r["workload"] in first else first)[r["workload"]] = r
    for workload, r in first.items():
        assert r["virtual"] == second[workload]["virtual"]
        for name in SIM_METRICS[1:]:
            assert r["metrics"][name] == second[workload]["metrics"][name]


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "results"))
    proc = _cli("--workload", "steady-grid", "--seed", "0", "--seconds", "1",
                "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_layer_targets_cover_every_per_layer_metric(seed1):
    targets = json.loads((HERE / "targets.json").read_text())
    names = [m["name"] for m in SPEC["per_layer"]]
    assert sorted(targets) == sorted(names)
    assert list(seed1[1]["steady-grid"]["per_layer"]) == names
    workloads = set(WORKLOADS)
    for t in targets.values():
        assert set(t["on"]) <= workloads and set(t["no_change_on"]) <= workloads


def test_compare_verdicts():
    base = [1.00, 1.02, 0.98, 1.01, 0.99, 1.00, 1.03, 0.97, 1.00, 1.01]
    faster = [x * 0.8 for x in base]
    slower = [x * 1.3 for x in base]
    noisy = [0.7, 1.3, 0.8, 1.2, 1.0, 0.75, 1.25, 0.9, 1.1, 1.0]
    assert compare.verdict(base, faster, "lower", 0.1)["verdict"] == "gain"
    assert compare.verdict(base, slower, "lower", 0.1)["verdict"] == "regression"
    assert compare.verdict(base, base, "lower", 0.1)["verdict"] == "within bound"
    assert compare.verdict(noisy, noisy, "lower", 0.1)["verdict"] == "unresolved"
    assert compare.verdict(base, faster, "higher", 0.1)["verdict"] == "regression"
