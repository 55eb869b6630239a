from dataclasses import replace
from pathlib import Path

import pytest

from fpaxos import scenarios
from fpaxos.checker import CheckConfig, ReplayDivergenceError, _Space, replay
from fpaxos.quorum import make_majority
from fpaxos.scenarios import SCENARIOS, ScenarioOutcomeError, run_scenario
from fpaxos.sim import to_jsonl

GOLDEN = Path(__file__).parent / "golden"


def test_fig2a_outcome():
    r = run_scenario("fig2a")
    assert r.proposer_values == {"P1": "a", "P2": "a"}
    assert [(b.json(), v) for b, v in r.decisions] == [
        ([1, "P1"], "a"),
        ([2, "P2"], "a"),
    ]
    assert not r.violation


def test_fig2b_outcome():
    r = run_scenario("fig2b")
    # exactly one of the two concurrent proposals wins
    assert r.proposer_values == {"P1": None, "P2": "b"}
    assert r.decided_values == ["b"]
    assert not r.violation


def test_fig2b_has_exactly_one_nack():
    r = run_scenario("fig2b")
    nacks = [l for l in r.trace if l["ev"] == "msg" and l["msg"]["type"] == "nack"]
    assert len(nacks) == 1
    assert nacks[0]["msg"]["src"] == "A2" and nacks[0]["msg"]["dst"] == "P1"


def test_amnesia_violates_and_durable_does_not():
    broken = run_scenario("amnesia")
    assert broken.violation
    assert set(broken.decided_values) == {"x", "y"}
    safe = run_scenario("amnesia-durable")
    assert not safe.violation
    assert set(safe.decided_values) == {"x"}


@pytest.mark.parametrize("name", SCENARIOS)
def test_traces_match_goldens(name):
    r = run_scenario(name)
    assert to_jsonl(r.trace) == (GOLDEN / f"{name}.jsonl").read_text()


@pytest.mark.parametrize("name", SCENARIOS)
def test_traces_byte_stable_across_runs(name):
    assert to_jsonl(run_scenario(name).trace) == to_jsonl(run_scenario(name).trace)


def _first_step_off_the_model(space, path):
    """The first action of ``path`` the checker's model cannot take, or None.

    Refusals, answers and crashes are not model actions and are skipped; a
    propose matches on ballot and value, whatever order its quorum is in.
    """
    match = lambda act: act[:3] if act[0] == "propose" else act
    s = space.initial()
    for act in path:
        if act[0] in ("refuse", "answer", "crash"):
            continue
        s = next((child for a, child in space.successors(s) if match(a) == match(act)), None)
        if s is None:
            return act
    return None


@pytest.mark.parametrize("name", SCENARIOS)
def test_scenario_paths_are_model_paths_except_amnesia(name):
    sc = scenarios._SCENARIOS[name]
    space = _Space(CheckConfig(sc.quorum, values=sc.values))
    # the model's A2 keeps (1, x) across the crash, so ballot 2 cannot propose y
    expected = ("propose", 1, 1, (1, 2)) if name == "amnesia" else None
    assert _first_step_off_the_model(space, sc.path) == expected


@pytest.mark.parametrize("change", [{"decided": ("a",)}, {"proposer_values": {"P1": "a", "P2": "b"}}])
def test_an_undocumented_outcome_is_an_error(monkeypatch, change):
    monkeypatch.setitem(scenarios._SCENARIOS, "fig2b", replace(scenarios._SCENARIOS["fig2b"], **change))
    with pytest.raises(ScenarioOutcomeError):
        run_scenario("fig2b")


def test_unknown_scenario_rejected():
    with pytest.raises(ValueError):
        run_scenario("fig9z")


def test_fig2a_schedule_under_classic_majorities_agrees():
    # same serial schedule, but both phases need 3 of 4: the second
    # proposer still converges on the first value
    cfg = CheckConfig(make_majority(4), values=("a", "b"))
    first = scenarios._round(0, 0, (0, 1, 2), (0, 1, 2))
    r = replay(first + scenarios._round(1, 0, (1, 2, 3), (1, 2, 3)), cfg)
    assert [v for _, v in r.decisions] == ["a", "a"]
    assert not r.conflicting
    with pytest.raises(ReplayDivergenceError):
        replay(first + scenarios._round(1, 1, (1, 2, 3), (1, 2, 3)), cfg)
