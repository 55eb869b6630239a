import json
from pathlib import Path

import pytest

from fpaxos import checker
from fpaxos.cli import build_parser, main, sim_config_from_args
from fpaxos.quorum import make_majority
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
    ],
)
def test_malformed_config_value_exits_2_naming_the_key(capsys, tmp_path, entries, key):
    path = tmp_path / "sim.json"
    path.write_text(json.dumps(entries))
    code, out, err = run_cli(capsys, "simulate", "--config", str(path))
    assert code == 2
    assert err.startswith("error: ") and key in err
    assert not out


SHORT_RUN = ("--kind", "majority", "--n", "3",
             "--duration-ms", "300", "--warmup-ms", "50", "--cooldown-ms", "50")


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
    ],
)
def test_malformed_flag_exits_2_naming_the_key(capsys, tmp_path, monkeypatch, argv, key):
    # each of these once ended in a traceback, or ran a different input than given
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert err.startswith("error: ") and key in err
    assert not out
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("row", ["t=1,r=inf", "t=1,r=1.5"])
def test_schedule_row_replica_must_be_an_integer(capsys, row):
    # r=inf once raised OverflowError, and r=1.5 crashed replica 1
    with pytest.raises(SystemExit) as exit_info:
        main(["simulate", *SHORT_RUN, "--crash", row])
    assert exit_info.value.code == 2
    assert "argument --crash" in capsys.readouterr().err


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
