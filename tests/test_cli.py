import json
import os
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path

import pytest

from fpaxos import checker
from fpaxos.cli import build_parser, main, sim_config_from_args
from fpaxos.quorum import failure_tolerance, make_explicit, make_majority
from fpaxos.scenarios import SCENARIOS
from fpaxos.sim import SimConfig

GOLDEN = Path(__file__).parent / "golden"

# 20% loss with short retry timers: dropping the timers changes the run.
DEMO_CONFIG = {
    "quorum": {"kind": "majority", "n": 3},
    "seed": 1,
    "loss": 0.2,
    "retransmit_ms": 50,
    "election_retry_ms": 30,
    "duration_ms": 3000,
    "warmup_ms": 500,
    "cooldown_ms": 500,
}


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ----------------------------------------------------------- quorum analyze


def test_analyze_simple(capsys):
    code, out, _ = run_cli(capsys, "quorum", "analyze", "--kind", "simple", "--n", "10", "--q2", "3")
    assert code == 0
    assert "min |Q1|                 : 8" in out
    assert "guaranteed f (both phases) : 2" in out
    assert "cross-phase intersection : OK" in out


def test_analyze_grid_json(capsys):
    code, out, _ = run_cli(
        capsys, "quorum", "analyze", "--kind", "grid",
        "--rows", "4", "--cols", "5", "--mode", "fpaxos", "--json",
    )
    assert code == 0
    d = json.loads(out)
    assert (d["q1"], d["q2"]) == (5, 4)
    assert d["placement_range"] == [4, 12]


def test_analyze_invalid_params_exit_2(capsys):
    code, _, err = run_cli(capsys, "quorum", "analyze", "--kind", "simple", "--n", "3", "--q2", "4")
    assert code == 2
    assert "error:" in err


def test_analyze_missing_flags_exit_2(capsys):
    code, _, err = run_cli(capsys, "quorum", "analyze", "--kind", "simple", "--n", "10")
    assert code == 2


def test_analyze_large_threshold_family_gets_a_verdict(capsys):
    # C(40, 31) phase-1 quorums: one stands for all of them
    flags = ["quorum", "analyze", "--kind", "simple", "--n", "40", "--q2", "10"]
    code, out, _ = run_cli(capsys, *flags)
    assert code == 0
    assert "cross-phase intersection : OK" in out
    code, out, _ = run_cli(capsys, *flags, "--json")
    assert code == 0
    assert json.loads(out)["intersects"] is True


def test_analyze_explicit_families(capsys):
    custom = ["quorum", "analyze", "--custom-q1", "[[0]]", "--custom-q2", "[[1]]", "--n", "2"]
    code, out, _ = run_cli(capsys, *custom)
    assert code == 1
    assert "cross-phase intersection : BROKEN" in out
    q1, q2 = [[0, 1, 2], [1, 2, 3]], [[1, 2], [0, 3]]
    code, out, _ = run_cli(capsys, "quorum", "analyze", "--custom-q1", json.dumps(q1),
                           "--custom-q2", json.dumps(q2), "--n", "4", "--json")
    assert code == 0
    report = json.loads(out)
    assert report["intersects"] is True
    assert report["tolerance"] == asdict(failure_tolerance(make_explicit(4, q1, q2)))


# ------------------------------------------------------------------- check


def test_check_majority_safe(capsys):
    code, out, _ = run_cli(
        capsys, "check", "--kind", "majority", "--n", "3", "--ballots", "2", "--values", "2"
    )
    assert code == 0
    assert "states explored : 3921" in out
    assert "SAFE" in out


def test_check_improved_majority_safe(capsys):
    code, out, _ = run_cli(
        capsys, "check", "--kind", "majority", "--n", "4", "--improved", "--ballots", "2"
    )
    assert code == 0
    assert "SAFE" in out


def test_check_custom_disjoint_violates(capsys, tmp_path):
    cx = tmp_path / "cx.jsonl"
    code, out, _ = run_cli(
        capsys, "check", "--custom-q1", "[[0]]", "--custom-q2", "[[1]]",
        "--n", "2", "--counterexample", str(cx),
    )
    assert code == 1
    assert "VIOLATION" in out
    assert "replay          : confirmed" in out
    lines = [json.loads(l) for l in cx.read_text().splitlines()]
    assert lines[0]["violated"] in ("agreement", "proposal-consistency")
    assert 1 <= len(lines) - 1 <= 10


def test_symmetric_check_reports_the_violation_it_found(capsys, tmp_path):
    # the symmetric search meets the violation at 11,348 states; a second,
    # plain search needs 33,832 and so once ran out of this budget
    cx = tmp_path / "cx.jsonl"
    code, out, _ = run_cli(
        capsys, "check", "--custom-q1", "[[0,1]]", "--custom-q2", "[[2,3]]", "--n", "4",
        "--ballots", "3", "--values", "4", "--symmetry", "--max-states", "12000",
        "--counterexample", str(cx),
    )
    assert code == 1
    assert "states explored : 11348" in out
    assert "VIOLATION (proposal-consistency) in 10 actions" in out
    assert "replay          : confirmed" in out
    lines = [json.loads(l) for l in cx.read_text().splitlines()]
    assert lines[0] == {"violated": "proposal-consistency"} and len(lines) == 11


def test_check_replay_not_confirmed_without_the_deciding_accept(capsys, monkeypatch):
    # The disjoint counterexample without its last accept decides nothing,
    # so replay cannot show proposal-consistency broken.
    explore = checker.explore

    def truncated(cfg):
        res = explore(cfg)
        v = res.violation
        return checker.CheckResult(res.states, False, checker.Violation(v.property, v.path[:-1]))

    monkeypatch.setattr(checker, "explore", truncated)
    code, out, _ = run_cli(capsys, "check", "--custom-q1", "[[0]]", "--custom-q2", "[[1]]", "--n", "2")
    assert code == 1
    assert "VIOLATION (proposal-consistency)" in out
    assert "replay          : NOT CONFIRMED (0 decisions observed)" in out


def test_check_config_file(capsys, tmp_path):
    cfgfile = tmp_path / "check.json"
    cfgfile.write_text(json.dumps({"quorum": {"kind": "majority", "n": 3}, "ballots": 2}))
    code, out, _ = run_cli(capsys, "check", "--config", str(cfgfile))
    assert code == 0
    assert "SAFE" in out


def test_check_sweep(capsys):
    code, out, _ = run_cli(capsys, "check", "--sweep", "2", "--max-states", "100000")
    assert code == 0
    assert "sweep: consistent" in out
    assert "broken-disjoint(n=2)" in out


def test_check_sweep_without_max_states_keeps_default_budget(capsys, monkeypatch):
    budgets = []
    explore = checker.explore

    def recording_explore(cfg):
        budgets.append(cfg.max_states)
        return explore(cfg)

    monkeypatch.setattr(checker, "explore", recording_explore)
    code, out, _ = run_cli(capsys, "check", "--sweep", "2")
    assert code == 0
    assert "sweep: consistent" in out
    assert budgets and set(budgets) == {2_000_000}


def test_check_sweep_passes_ballots_and_values(capsys, monkeypatch):
    shapes = []
    explore = checker.explore

    def recording_explore(cfg):
        shapes.append((cfg.ballots, cfg.values))
        return explore(cfg)

    monkeypatch.setattr(checker, "explore", recording_explore)
    code, out, _ = run_cli(capsys, "check", "--sweep", "1", "--ballots", "3", "--values", "3")
    assert code == 0
    assert shapes and set(shapes) == {(3, ("a", "b", "c"))}
    res = checker.explore(checker.CheckConfig(make_majority(1), ballots=3, values=("a", "b", "c")))
    assert out.splitlines()[0].endswith(f"states={res.states}")


def test_check_sweep_out_of_budget_is_inconsistent(capsys):
    # once printed these five as safe and exited 0
    code, out, _ = run_cli(capsys, "check", "--sweep", "3", "--max-states", "1000")
    assert code == 1
    lines = out.splitlines()
    partial = [l for l in lines if " partial " in l]
    assert [l.split()[0] for l in partial] == [
        "majority(n=3)", "simple(n=3,q2=2)", "simple(n=3,q2=3)",
        "grid-fpaxos(3x1)", "any1-vs-all(n=3)"]
    assert all(l.endswith("states=1000  << INCONSISTENT") for l in partial)
    assert sum("INCONSISTENT" in l for l in lines[:-1]) == 5
    assert lines[-1] == "sweep: INCONSISTENT"


@pytest.mark.parametrize(
    "flag, extra",
    [
        ("--rows", ["2"]),
        ("--symmetry", []),
        ("--config", ["check.json"]),
        ("--counterexample", ["cx.jsonl"]),
        ("--kind", ["majority"]),
        ("--n", ["3"]),
        ("--improved", []),
        ("--mode", ["fpaxos"]),
        ("--custom-q1", ["[[0]]"]),
        ("--custom-q2", ["[[0]]"]),
    ],
)
def test_check_sweep_rejects_flags_it_would_ignore(capsys, flag, extra):
    code, out, err = run_cli(capsys, "check", "--sweep", "1", flag, *extra)
    assert code == 2
    assert f"{flag} cannot be combined with --sweep" in err
    assert not out


@pytest.mark.parametrize("budget", ["0", "-5"])
def test_check_max_states_below_one_exits_2(capsys, budget):
    code, out, err = run_cli(capsys, "check", "--kind", "majority", "--n", "3",
                             "--max-states", budget)
    assert code == 2
    assert "max_states" in err
    assert not out


def test_check_repeated_value_names_exit_2(capsys, tmp_path):
    path = tmp_path / "check.json"
    path.write_text(json.dumps({"n": 2, "q1_sets": [[0]], "q2_sets": [[1]], "values": ["a", "a"]}))
    code, out, err = run_cli(capsys, "check", "--config", str(path))
    assert code == 2
    assert "'a' is repeated" in err
    assert not out


# ---------------------------------------------------------------- simulate


@pytest.mark.parametrize("name", SCENARIOS)
def test_simulate_scenario_matches_golden(capsys, name):
    code, out, _ = run_cli(capsys, "simulate", "--scenario", name)
    assert code == (1 if name == "amnesia" else 0)
    assert out == (GOLDEN / f"{name}.jsonl").read_text()


def test_simulate_scenario_amnesia_exits_1(capsys, tmp_path):
    trace = tmp_path / "amnesia.jsonl"
    code, out, _ = run_cli(capsys, "simulate", "--scenario", "amnesia", "--trace", str(trace))
    assert code == 1
    d = json.loads(out)
    assert d["violation"] is True
    assert set(d["decided"]) == {"x", "y"}
    assert trace.read_text() == (GOLDEN / "amnesia.jsonl").read_text()


def test_simulate_run_writes_outputs(capsys, tmp_path):
    trace = tmp_path / "t.jsonl"
    metrics = tmp_path / "m.json"
    csv = tmp_path / "m.csv"
    code, out, _ = run_cli(
        capsys, "simulate", "--kind", "majority", "--n", "4", "--improved",
        "--duration-ms", "1500", "--warmup-ms", "200", "--cooldown-ms", "200",
        "--trace", str(trace), "--metrics", str(metrics), "--csv", str(csv),
    )
    assert code == 0
    summary = json.loads(out)
    assert summary["protocol_msgs_per_commit"] == 4.0
    assert json.loads(metrics.read_text())["committed"] == summary["committed"]
    assert csv.read_text().splitlines()[0].startswith("n,kind,q1,q2,seed")
    assert trace.read_text().splitlines()


def test_simulate_crash_flags(capsys):
    code, out, _ = run_cli(
        capsys, "simulate", "--kind", "majority", "--n", "4", "--improved",
        "--duration-ms", "4000", "--warmup-ms", "300", "--cooldown-ms", "300",
        "--crash", "t=1500,r=2", "--crash", "t=1500,r=3",
    )
    assert code == 0
    assert json.loads(out)["committed"] > 0  # commits continue after the crash


def test_simulate_wipe_crash_exits_1_with_counterexample(capsys, tmp_path):
    trace = tmp_path / "violation.jsonl"
    code, _, err = run_cli(
        capsys, "simulate", "--kind", "majority", "--n", "3",
        "--duration-ms", "4000", "--warmup-ms", "200", "--cooldown-ms", "200",
        "--window", "2",
        "--crash", "t=1000,r=1,wipe", "--restore", "t=1500,r=1",
        "--crash", "t=2000,r=0", "--elect", "t=2500,r=2",
        "--trace", str(trace),
    )
    assert code == 1
    assert "SAFETY VIOLATION" in err
    lines = trace.read_text().splitlines()
    assert any('"ev":"violation"' in l for l in lines)


# Broken explicit(4) quorums where replica 2 learns a second value for slot 77.
REPLICA_VIOLATION_CONFIG = {
    "quorum": {"kind": "explicit", "n": 4, "q1_sets": [[0], [1]], "q2_sets": [[2, 3], [0, 2]]},
    "seed": 48, "latency": "1:20", "loss": 0.2, "duplicate": 0.05,
    "elections": [[500, 2], [700, 1]], "duration_ms": 1000, "warmup_ms": 10, "cooldown_ms": 10,
    "strategy": "rotating", "retransmit_ms": 30, "election_retry_ms": 20,
}


def test_simulate_replica_detected_violation_exits_1_with_trace(capsys, tmp_path):
    # the replica's learner once raised an exception of its own that escaped as a traceback
    cfgfile, trace = tmp_path / "sim.json", tmp_path / "violation.jsonl"
    cfgfile.write_text(json.dumps(REPLICA_VIOLATION_CONFIG))
    code, out, err = run_cli(capsys, "simulate", "--config", str(cfgfile), "--trace", str(trace))
    assert code == 1
    assert err.startswith("SAFETY VIOLATION: slot 77 decided as ")
    assert "Traceback" not in err and not out
    last = json.loads(trace.read_text().splitlines()[-1])
    assert last["ev"] == "violation" and last["slot"] == 77


def test_simulate_config_file(capsys, tmp_path):
    cfg = {
        "quorum": {"kind": "simple", "n": 5, "q2_size": 2},
        "duration_ms": 1200,
        "warmup_ms": 100,
        "cooldown_ms": 100,
        "seed": 5,
    }
    path = tmp_path / "sim.json"
    path.write_text(json.dumps(cfg))
    code, out, _ = run_cli(capsys, "simulate", "--config", str(path))
    assert code == 0
    assert json.loads(out)["seed"] == 5


def test_simulate_determinism_across_invocations(capsys, tmp_path):
    outs = []
    for i in (1, 2):
        trace = tmp_path / f"t{i}.jsonl"
        code, out, _ = run_cli(
            capsys, "simulate", "--kind", "simple", "--n", "5", "--q2", "2",
            "--seed", "9", "--duration-ms", "1000", "--warmup-ms", "100",
            "--cooldown-ms", "100", "--trace", str(trace),
        )
        assert code == 0
        outs.append((out, trace.read_bytes()))
    assert outs[0] == outs[1]


def test_output_does_not_depend_on_the_hash_seed(tmp_path):
    """A faulty simulation and a broken family's check, each run in a fresh
    process under two ``PYTHONHASHSEED`` values, write the same bytes."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    commands = [
        ("simulate", "--kind", "majority", "--n", "3", "--window", "2", "--latency", "5:15",
         "--loss", "0.1", "--duplicate", "0.1", "--duration-ms", "600", "--warmup-ms", "50",
         "--cooldown-ms", "50", "--crash", "t=100,r=0,wipe", "--elect", "t=150,r=1",
         "--restore", "t=200,r=0", "--partition", "t=250;0|1,2", "--partition", "t=300;",
         "--elect", "t=320,r=0", "--elect", "t=322,r=2", "--seed", "3", "--trace", "out.jsonl"),
        ("check", "--custom-q1", "[[3]]", "--custom-q2", "[[0,1]]", "--n", "4",
         "--counterexample", "out.jsonl"),
    ]
    for argv in commands:
        runs = set()
        for hash_seed in ("0", "1"):
            cwd = tmp_path / f"{argv[0]}-{hash_seed}"
            cwd.mkdir()
            proc = subprocess.run(
                [sys.executable, "-m", "fpaxos.cli", *argv], cwd=cwd, capture_output=True,
                env={**os.environ, "PYTHONPATH": path, "PYTHONHASHSEED": hash_seed},
            )
            runs.add((proc.returncode, proc.stdout, proc.stderr, (cwd / "out.jsonl").read_bytes()))
        assert len(runs) == 1, argv[0]


def test_seed_env_default(capsys, monkeypatch, tmp_path):
    monkeypatch.setenv("FPAXOS_SEED", "42")
    code, out, _ = run_cli(
        capsys, "simulate", "--kind", "majority", "--n", "3",
        "--duration-ms", "800", "--warmup-ms", "100", "--cooldown-ms", "100",
    )
    assert code == 0
    assert json.loads(out)["seed"] == 42
    # a config file without "seed" falls back to the environment too,
    # while a file's seed beats the environment and --seed beats both
    cfg = {"quorum": {"kind": "majority", "n": 3},
           "duration_ms": 800, "warmup_ms": 100, "cooldown_ms": 100}
    cases = [({}, [], 42), ({"seed": 7}, [], 7), ({"seed": 7}, ["--seed", "3"], 3)]
    for entries, flags, seed in cases:
        path = tmp_path / "sim.json"
        path.write_text(json.dumps({**cfg, **entries}))
        code, out, _ = run_cli(capsys, "simulate", "--config", str(path), *flags)
        assert code == 0
        assert json.loads(out)["seed"] == seed


def test_simulate_seed_flag_equal_to_file_seed_changes_nothing(capsys, tmp_path):
    path = tmp_path / "demo.json"
    path.write_text(json.dumps(DEMO_CONFIG))
    _, plain, _ = run_cli(capsys, "simulate", "--config", str(path))
    code, seeded, _ = run_cli(capsys, "simulate", "--config", str(path), "--seed", "1")
    assert code == 0
    assert seeded == plain
    assert json.loads(seeded)["committed"] == 295


def test_simulate_flag_overrides_config_file(capsys, tmp_path):
    path = tmp_path / "demo.json"
    path.write_text(json.dumps(DEMO_CONFIG))
    args = build_parser().parse_args(["simulate", "--config", str(path), "--loss", "0.9"])
    expected = {**DEMO_CONFIG, "loss": 0.9, "record_trace": False}
    assert sim_config_from_args(args) == SimConfig.from_json(expected)
    _, plain, _ = run_cli(capsys, "simulate", "--config", str(path))
    code, lossy, _ = run_cli(capsys, "simulate", "--config", str(path), "--loss", "0.9")
    assert code == 0
    assert json.loads(lossy)["committed"] < json.loads(plain)["committed"]


def test_simulate_quorum_flags_only_take_dataclass_defaults(monkeypatch):
    monkeypatch.delenv("FPAXOS_SEED", raising=False)
    args = build_parser().parse_args(["simulate", "--kind", "majority", "--n", "3"])
    assert sim_config_from_args(args) == SimConfig(
        quorum=make_majority(3), seed=0, record_trace=False
    )


@pytest.mark.parametrize(
    "command, flag, entries",
    [
        ("simulate", "--config", {"quorum": {"kind": "majority", "n": 3}, "retransmit": 50}),
        ("sweep", "--spec", {"quorum": {"kind": "majority", "n": 3}, "retransmit": 50,
                             "out": "never.csv"}),
        ("check", "--config", {"quorum": {"kind": "majority", "n": 3}, "retransmit": 50}),
    ],
)
def test_unknown_config_key_exits_2_naming_it(capsys, tmp_path, command, flag, entries):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(entries))
    code, out, err = run_cli(capsys, command, flag, str(path))
    assert code == 2
    assert "retransmit" in err
    assert not out


SHORT_RUN = ("--kind", "majority", "--n", "3",
             "--duration-ms", "300", "--warmup-ms", "50", "--cooldown-ms", "50")
SHORT_RUN_KEYS = {"duration_ms": 300, "warmup_ms": 50, "cooldown_ms": 50}


@pytest.mark.parametrize(
    "entries, key",
    [
        ({"quorum": {"kind": "majority"}}, "'n'"),
        ({"quorum": {"kind": "majority", "n": 3}, "crashes": [[100]]}, "crashes"),
        ({"quorum": {"kind": "majority", "n": 3}, "crashes": [[100, "x"]]}, "crashes"),
        ({"quorum": {"kind": "majority", "n": 3}, "partitions": [[5, [[0, "a"]]]]},
         "partitions"),
        ({"quorum": {"n": 3}}, "'kind'"),
        ({"quorum": {"kind": "majority", "n": "3"}}, "'n'"),
        ({"quorum": {"kind": "majority", "n": 3}, "loss": "x"}, "loss"),
        ({"quorum": {"kind": "majority", "n": 3}, "latency": "abc"}, "latency"),
        ({"quorum": {"kind": "majority", "n": 3}, "duration_ms": float("inf")}, "duration_ms"),
        ({"quorum": {"kind": "majority", "n": 4, "improved": True}, **SHORT_RUN_KEYS}, "improved"),
        ({"quorum": {"kind": "grid-fpaxos", "n": 7, "rows": 4, "cols": 5}, **SHORT_RUN_KEYS},
         "'n'"),
        ({"quorum": {"kind": "majority", "n": 3}, "strategy": "fastets", **SHORT_RUN_KEYS},
         "strategy must be"),
    ],
)
def test_malformed_config_value_exits_2_naming_the_key(capsys, tmp_path, entries, key):
    path = tmp_path / "sim.json"
    path.write_text(json.dumps(entries))
    code, out, err = run_cli(capsys, "simulate", "--config", str(path))
    assert code == 2
    assert err.startswith("error: ") and key in err
    assert not out




@pytest.mark.parametrize(
    "argv, key",
    [
        (["simulate", *SHORT_RUN, "--duration-ms", "inf"], "duration_ms"),
        (["simulate", *SHORT_RUN, "--duration-ms", "nan"], "duration_ms"),
        (["simulate", *SHORT_RUN, "--cooldown-ms", "nan"], "cooldown_ms"),
        (["simulate", *SHORT_RUN, "--warmup-ms", "-100"], "warmup_ms"),
        (["simulate", *SHORT_RUN, "--latency", "inf"], "latency"),
        (["simulate", *SHORT_RUN, "--crash", "t=inf,r=1"], "crashes"),
        (["simulate", *SHORT_RUN, "--crash", "t=nan,r=1"], "crashes"),
        (["simulate", *SHORT_RUN, "--crash", "t=-5,r=1"], "crashes"),
        (["simulate", *SHORT_RUN, "--elect", "t=1e400,r=1"], "elections"),
        (["simulate", *SHORT_RUN, "--partition", "t=1;0|9"], "partitions"),
        (["simulate", *SHORT_RUN, "--partition", "t=1;0,1|1,2"], "partitions"),
        (["check", "--custom-q1", "[[0]]", "--custom-q2", "[1]", "--n", "2"], "'q2_sets'"),
        (["check", "--custom-q1", '[["x"]]', "--custom-q2", "[[1]]", "--n", "2"], "'q1_sets'"),
        (["sweep", *SHORT_RUN, "--q2-list", "1", "--out", "never.csv"], "q2_list"),
        (["simulate", *SHORT_RUN, "--loss", "nan"], "loss"),
        (["simulate", *SHORT_RUN, "--duplicate", "2"], "duplicate"),
        (["simulate", *SHORT_RUN, "--duration-ms", "1e308"], "duration_ms"),
        (["simulate", *SHORT_RUN, "--crash", "t=1e308,r=1"], "crashes"),
        (["simulate", *SHORT_RUN, "--latency", "1e306"], "latency"),
        (["simulate", *SHORT_RUN, "--q2", "2"], "--q2"),
        (["simulate", *SHORT_RUN, "--mode", "paxos"], "--mode"),
        (["quorum", "analyze", "--kind", "simple", "--n", "3", "--q2", "2", "--improved"],
         "--improved"),
        (["quorum", "analyze", "--kind", "simple", "--n", "4", "--q2", "2", "--rows", "2"],
         "--rows"),
        (["check", "--kind", "simple", "--n", "2", "--q2", "1", "--cols", "2"], "--cols"),
        (["quorum", "analyze", "--kind", "grid", "--rows", "2", "--cols", "2", "--n", "9"],
         "--n"),
        (["check", "--kind", "grid", "--rows", "1", "--cols", "2", "--improved"], "--improved"),
        (["check", "--kind", "majority", "--n", "2", "--custom-q1", "[[0]]",
          "--custom-q2", "[[1]]"], "--kind"),
        (["simulate", "--config", "sim.json", "--n", "7"], "--n"),
        (["check", "--custom-q1", "x", "--custom-q2", "[[1]]", "--n", "2"], "--custom-q1"),
        (["FPAXOS_SEED=abc", "simulate", *SHORT_RUN], "FPAXOS_SEED"),
        (["sweep", *SHORT_RUN, "--seeds", "-2", "--out", "never.csv"], "seeds"),
        (["check", "--sweep", "0"], "--sweep"),
        (["check", "--sweep", "-1"], "--sweep"),
        (["check", "--sweep", "5"], "--sweep"),
        (["sweep", "--kind", "simple", "--n", "5", "--out", "never.csv"], "--q2-list"),
    ],
)
def test_malformed_flag_exits_2_naming_the_key(capsys, tmp_path, monkeypatch, argv, key):
    # each of these once ended in a traceback, or ran a different input than given;
    # a leading NAME=VALUE sets an environment variable, and sim.json is a valid config
    monkeypatch.chdir(tmp_path)
    (tmp_path / "sim.json").write_text(json.dumps({"quorum": {"kind": "majority", "n": 3},
                                                   **SHORT_RUN_KEYS}))
    while "=" in argv[0]:
        monkeypatch.setenv(*argv[0].split("=", 1))
        argv = argv[1:]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert err.startswith("error: ") and key in err
    assert not out
    assert [p.name for p in tmp_path.iterdir()] == ["sim.json"]


# A schedule flag and a malformed row for it.
SCHEDULE_ROW_ERRORS = [
    ("--crash", "t=1,r=inf"), ("--crash", "t=1,r=1.5"), ("--crash", "t=abc,r=1"),
    ("--elect", "t=1,r=x"), ("--partition", "t=x;0|1"), ("--partition", "t=1;0|a"),
]


@pytest.mark.parametrize("flag, row", SCHEDULE_ROW_ERRORS, ids=[r for _, r in SCHEDULE_ROW_ERRORS])
def test_schedule_row_replica_must_be_an_integer(capsys, flag, row):
    # r=inf once raised OverflowError, and r=1.5 crashed replica 1; a time or
    # member that is not a number once got a message naming a parser function
    with pytest.raises(SystemExit) as exit_info:
        main(["simulate", *SHORT_RUN, flag, row])
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert f"argument {flag}: " in err and "invalid" not in err
    assert "t=<ms>" in err and "t a time in ms" in err and "integer replica id" in err


# A command, a flag and a value the flag's type refuses, and the form the message names:
# schedule rows with a part the flag does not read or one given twice, and non-integer lists.
EXACT_FLAG_VALUES = [
    ("simulate", "--crash", "t=100,r=1,wpie", "t=<ms>,r=<replica>[,wipe]"),
    ("simulate", "--crash", "t=100,r=1,wipe=true", "t=<ms>,r=<replica>[,wipe]"),
    ("simulate", "--crash", "t=100,t=300,r=1", "t=<ms>,r=<replica>[,wipe]"),
    ("simulate", "--elect", "t=200,r=2,wipe", "t=<ms>,r=<replica>: "),
    ("simulate", "--restore", "t=5,r=0,x=5", "t=<ms>,r=<replica>: "),
    ("sweep", "--q2-list", "1,x", "comma-separated integers"),
    ("sweep", "--q2-list", "1,,2", "comma-separated integers"),
]


@pytest.mark.parametrize("command, flag, text, form", EXACT_FLAG_VALUES,
                         ids=[v for _, _, v, _ in EXACT_FLAG_VALUES])
def test_flag_value_must_have_the_exact_form(capsys, command, flag, text, form):
    # wpie and wipe=true once ran a crash that keeps its memory, t=100,t=300
    # a crash at 300 ms, x=5 and an elect's wipe were dropped, and a bad
    # --q2-list got a message naming a parser function
    with pytest.raises(SystemExit) as exit_info:
        main([command, *SHORT_RUN, flag, text])
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert f"argument {flag}: {text!r} must be {form}" in err and "invalid" not in err


@pytest.mark.parametrize(
    "flag, extra",
    [
        ("--crash", ["t=1,r=1"]),
        ("--elect", ["t=1,r=1"]),
        ("--partition", ["t=1;0|1,2"]),
        ("--leader", ["1"]),
        ("--seed", ["4"]),
        ("--loss", ["0.5"]),
        ("--send-to-all", []),
        ("--kind", ["majority", "--n", "3"]),
        ("--metrics", ["m.json"]),
        ("--config", ["sim.json"]),
        ("--custom-q1", ["[[0]]"]),
        ("--custom-q2", ["[[0]]"]),
    ],
)
def test_simulate_scenario_rejects_flags_it_would_ignore(capsys, tmp_path, monkeypatch,
                                                          flag, extra):
    # each of these once ran the scenario as scripted, ignoring the flag
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(capsys, "simulate", "--scenario", "fig2a", flag, *extra)
    assert code == 2
    assert f"error: {flag} cannot be combined with --scenario" in err
    assert not out
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("key", ["retransmit_ms", "election_retry_ms"])
@pytest.mark.parametrize("value", [0, -5, 0.0001, float("inf"), 1e308])
def test_retry_interval_below_one_microsecond_exits_2(capsys, tmp_path, key, value):
    # each of these once retried forever at one virtual instant
    path = tmp_path / "sim.json"
    path.write_text(json.dumps({"quorum": {"kind": "majority", "n": 3}, key: value}))
    code, out, err = run_cli(capsys, "simulate", "--config", str(path))
    assert code == 2
    assert err.startswith("error: ") and key in err
    assert not out


@pytest.mark.parametrize("values", [[[1], [2]], True, "ab", [1, 2]])
def test_check_config_values_of_the_wrong_shape_exit_2(capsys, tmp_path, monkeypatch, values):
    # [[1], [2]] once raised TypeError; the others ran a check on something else
    monkeypatch.chdir(tmp_path)
    path = tmp_path / "check.json"
    path.write_text(json.dumps({"quorum": {"kind": "majority", "n": 3}, "values": values}))
    code, out, err = run_cli(capsys, "check", "--config", str(path))
    assert code == 2
    assert err.startswith("error: ") and "values" in err
    assert not out
    assert [p.name for p in tmp_path.iterdir()] == ["check.json"]


@pytest.mark.parametrize(
    "entries, key",
    [
        ({"out": True}, "out"),
        ({"out": "never.csv", "format": "xml"}, "format"),
        ({"out": "never.csv", "seeds": 2.5}, "seeds"),
        ({"out": "never.csv", "seeds": True}, "seeds"),
        ({"out": "never.csv", "q2_list": 5}, "q2_list"),
        ({"out": "never.csv", "seed": 3}, "seed"),
        ({"out": "never.csv", "record_trace": True}, "record_trace"),
        ({"out": "never.csv", "seeds": 0}, "seeds"),
    ],
)
def test_malformed_sweep_spec_exits_2_naming_the_key(capsys, tmp_path, monkeypatch, entries, key):
    # out: true once wrote the CSV to fd 1 and closed stdout, format: xml wrote
    # JSON, seeds: 2.5 and q2_list: 5 raised TypeError, and a seed or
    # record_trace was silently overridden
    monkeypatch.chdir(tmp_path)
    spec = {"quorum": {"kind": "simple", "n": 3, "q2_size": 2}, "duration_ms": 300,
            "warmup_ms": 50, "cooldown_ms": 50, **entries}
    (tmp_path / "spec.json").write_text(json.dumps(spec))
    code, out, err = run_cli(capsys, "sweep", "--spec", "spec.json")
    assert code == 2
    assert err.startswith("error: ") and key in err
    assert not out
    assert [p.name for p in tmp_path.iterdir()] == ["spec.json"]


# ----------------------------------------------------------------- goldens


def test_analyze_output_matches_golden(capsys):
    _, out, _ = run_cli(capsys, "quorum", "analyze", "--kind", "simple", "--n", "10", "--q2", "3")
    assert out == (GOLDEN / "cli_analyze_simple_10_3.txt").read_text()
    _, out, _ = run_cli(
        capsys, "quorum", "analyze", "--kind", "grid", "--rows", "4", "--cols", "5",
        "--mode", "fpaxos",
    )
    assert out == (GOLDEN / "cli_analyze_grid_4x5.txt").read_text()


def test_analyze_json_matches_golden(capsys):
    _, out, _ = run_cli(
        capsys, "quorum", "analyze", "--kind", "grid", "--rows", "4", "--cols", "5",
        "--mode", "fpaxos", "--json",
    )
    assert out == (GOLDEN / "cli_analyze_grid_4x5.json").read_text()


def test_check_output_matches_golden(capsys):
    _, out, _ = run_cli(
        capsys, "check", "--kind", "majority", "--n", "3", "--ballots", "2", "--values", "2"
    )
    assert out == (GOLDEN / "cli_check_majority3.txt").read_text()


def test_check_sweep_output_matches_golden(capsys):
    code, out, _ = run_cli(capsys, "check", "--sweep", "3")
    assert code == 0
    assert out == (GOLDEN / "cli_check_sweep3.txt").read_text()


def test_check_counterexample_matches_golden(capsys, tmp_path):
    cx = tmp_path / "cx.jsonl"
    code, out, _ = run_cli(
        capsys, "check", "--custom-q1", "[[0]]", "--custom-q2", "[[1]]", "--n", "2",
        "--counterexample", str(cx),
    )
    assert code == 1
    assert out.startswith("states explored : 151\n")
    assert cx.read_text() == (GOLDEN / "cli_check_disjoint_counterexample.jsonl").read_text()


def test_sweep_output_matches_golden(capsys, tmp_path):
    out_path = tmp_path / "sweep.csv"
    code, _, _ = run_cli(
        capsys, "sweep", "--kind", "simple", "--n", "5", "--q2", "2",
        "--q2-list", "1,2", "--seeds", "1", "--duration-ms", "800",
        "--warmup-ms", "100", "--cooldown-ms", "100", "--out", str(out_path),
    )
    assert code == 0
    assert out_path.read_text() == (GOLDEN / "cli_sweep_small.csv").read_text()


def test_q2_list_stands_in_for_q2(capsys, tmp_path):
    # the golden sweep without its --q2, which the sizes replace anyway
    out_path = tmp_path / "sweep.csv"
    code, _, _ = run_cli(
        capsys, "sweep", "--kind", "simple", "--n", "5",
        "--q2-list", "1,2", "--seeds", "1", "--duration-ms", "800",
        "--warmup-ms", "100", "--cooldown-ms", "100", "--out", str(out_path),
    )
    assert code == 0
    assert out_path.read_text() == (GOLDEN / "cli_sweep_small.csv").read_text()



def test_simulate_faults_trace_and_metrics_match_golden(capsys, tmp_path):
    trace, metrics = tmp_path / "t.jsonl", tmp_path / "m.json"
    code, _, _ = run_cli(
        capsys, "simulate", "--kind", "majority", "--n", "3", "--window", "2",
        "--latency", "5:15", "--loss", "0.1", "--duplicate", "0.1",
        "--duration-ms", "600", "--warmup-ms", "50", "--cooldown-ms", "50",
        "--crash", "t=100,r=0", "--elect", "t=150,r=1", "--restore", "t=200,r=0",
        "--partition", "t=250;0|1,2", "--partition", "t=300;",
        "--elect", "t=320,r=0", "--elect", "t=322,r=2", "--seed", "3",
        "--trace", str(trace), "--metrics", str(metrics),
    )
    assert code == 0
    text = trace.read_text()
    # the run covers both kinds of network drop, and a duplicated prepare of
    # the promised ballot that is promised again rather than nacked
    assert '"why":"loss"' in text and '"why":"partition"' in text
    lines = [json.loads(l) for l in text.splitlines()]
    prepares = [
        json.dumps(l["msg"]) for l in lines if l["ev"] == "deliver" and l["msg"]["type"] == "prepare"
    ]
    assert len(prepares) > len(set(prepares))
    assert not any(l["ev"] == "send" and l["msg"]["type"] == "nack" for l in lines)
    assert text == (GOLDEN / "cli_simulate_faults.jsonl").read_text()
    assert metrics.read_text() == (GOLDEN / "cli_simulate_faults.metrics.json").read_text()


def test_simulate_amnesia_and_nacks_trace_matches_golden(capsys, tmp_path):
    trace = tmp_path / "t.jsonl"
    code, _, _ = run_cli(
        capsys, "simulate", "--kind", "majority", "--n", "5", "--window", "1",
        "--latency", "1:30", "--duplicate", "0.1",
        "--duration-ms", "400", "--warmup-ms", "50", "--cooldown-ms", "50",
        "--crash", "t=100,r=1,wipe", "--restore", "t=120,r=1",
        "--elect", "t=85,r=4", "--elect", "t=197,r=4", "--elect", "t=214,r=1",
        "--seed", "5056", "--trace", str(trace),
    )
    assert code == 0
    text = trace.read_text()
    # the run covers what the faults golden does not: a memory-wiping crash,
    # a message dropped at a crashed replica, a nack and a duplicate response
    assert '"wipe":true' in text and '"why":"crashed"' in text
    lines = [json.loads(l) for l in text.splitlines()]
    assert any(l["ev"] == "send" and l["msg"]["type"] == "nack" for l in lines)
    assert any(l["ev"] == "duplicate_response" for l in lines)
    assert text == (GOLDEN / "cli_simulate_amnesia_nack.jsonl").read_text()


# ------------------------------------------------------------------- sweep


def test_sweep_inline_flags(capsys, tmp_path):
    out_path = tmp_path / "sweep.csv"
    code, out, _ = run_cli(
        capsys, "sweep", "--kind", "simple", "--n", "8", "--q2", "2",
        "--q2-list", "2,3", "--seeds", "2", "--duration-ms", "1500",
        "--warmup-ms", "200", "--cooldown-ms", "200", "--out", str(out_path),
    )
    assert code == 0
    lines = out_path.read_text().splitlines()
    assert lines[0] == "n,kind,q1,q2,seed,throughput,mean_lat,p99_lat,msgs_per_commit"
    assert len(lines) == 5
    msgs = [float(l.split(",")[-1]) for l in lines[1:]]
    assert msgs == [6.0, 6.0, 8.0, 8.0]  # 2*q2 + 2, per seed


def test_sweep_large_majority_runs(capsys, tmp_path):
    out_path = tmp_path / "f.csv"
    code, _, _ = run_cli(
        capsys, "sweep", "--kind", "majority", "--n", "30", "--duration-ms", "300",
        "--warmup-ms", "50", "--cooldown-ms", "50", "--out", str(out_path),
    )
    assert code == 0
    assert len(out_path.read_text().splitlines()) == 2  # header and one run


def test_sweep_spec_file(capsys, tmp_path):
    out_path = tmp_path / "sweep.json"
    spec = {
        "quorum": {"kind": "simple", "n": 5, "q2_size": 2},
        "duration_ms": 1000,
        "warmup_ms": 100,
        "cooldown_ms": 100,
        "q2_list": [1, 2],
        "seeds": 1,
        "out": str(out_path),
        "format": "json",
    }
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    code, out, _ = run_cli(capsys, "sweep", "--spec", str(spec_path))
    assert code == 0
    rows = json.loads(out_path.read_text())
    assert [r["q2"] for r in rows] == [1, 2]


def test_sweep_flags_override_spec(capsys, tmp_path):
    spec = {
        "quorum": {"kind": "simple", "n": 5, "q2_size": 2},
        "duration_ms": 1000,
        "warmup_ms": 100,
        "cooldown_ms": 100,
        "seeds": 1,
        "out": str(tmp_path / "spec.json"),
        "format": "json",
    }
    spec_path = tmp_path / "spec-file.json"
    spec_path.write_text(json.dumps(spec))
    out_path = tmp_path / "flags.csv"
    code, _, _ = run_cli(
        capsys, "sweep", "--spec", str(spec_path),
        "--seeds", "2", "--out", str(out_path), "--format", "csv",
    )
    assert code == 0
    assert not (tmp_path / "spec.json").exists()
    rows = out_path.read_text().splitlines()[1:]
    assert [r.split(",")[4] for r in rows] == ["0", "1"]


def test_sweep_requires_out(capsys):
    code, _, err = run_cli(capsys, "sweep", "--kind", "majority", "--n", "3")
    assert code == 2
    assert "out" in err


def test_sweep_refuses_non_intersecting_quorums(capsys, tmp_path):
    out_path = tmp_path / "never.csv"
    spec = {
        "quorum": {"kind": "explicit", "n": 2, "q1_sets": [[0]], "q2_sets": [[1]]},
        "duration_ms": 1000,
        "warmup_ms": 100,
        "cooldown_ms": 100,
        "seeds": 1,
        "out": str(out_path),
    }
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    code, _, err = run_cli(capsys, "sweep", "--spec", str(spec_path))
    assert code == 2
    assert "do not intersect" in err
    assert not out_path.exists()  # refused before any run started
