from dataclasses import replace
from pathlib import Path

import pytest

from fpaxos import core, scenarios
from fpaxos.checker import AGREEMENT, CheckConfig, ReplayDivergenceError, _Space, replay
from fpaxos.core import Ballot
from fpaxos.multi import LeaderPromise, Replica
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


def test_replay_and_scenarios_run_the_replicas_promise_handler(monkeypatch):
    # fig2a, but P2 proposes b: A2's promise reports (1, a), so the value
    # rule forbids it
    sc = scenarios._SCENARIOS["fig2a"]
    cfg = CheckConfig(sc.quorum, values=sc.values)
    path = scenarios._round(0, 0, (0, 1, 2), (0, 1)) + scenarios._round(1, 1, (3, 2, 1), (2, 3))
    with pytest.raises(ReplayDivergenceError, match="value-choice"):
        replay(path, cfg)
    golden = (GOLDEN / "fig2a.jsonl").read_text()
    assert to_jsonl(run_scenario("fig2a").trace) == golden
    # replay reads each promise off the reply Replica.on_message builds, so
    # a planted bug, a promise that drops its last entry, lets P2 decide b over a
    honest = Replica._on_LeaderPrepare

    def mutant(self, m, alive):
        return [replace(r, accepted=r.accepted[:-1]) if type(r) is LeaderPromise else r
                for r in honest(self, m, alive)]

    monkeypatch.setattr(Replica, "_on_LeaderPrepare", mutant)
    assert replay(path, cfg).shows(AGREEMENT)
    assert to_jsonl(run_scenario("fig2a").trace) != golden


def test_proposers_learn_by_cores_learner_over_the_accepts_that_reach_them(monkeypatch):
    # fig2b: A1's accept reaches P1 and A3's and A4's reach P2; A2's nack
    # counts for nothing.  One call of core's learner, after replay, rules
    # on both.
    calls = []
    decided = core.decided_proposals
    monkeypatch.setattr(core, "decided_proposals",
                        lambda accepts, qs: calls.append(dict(accepts)) or decided(accepts, qs))
    r = run_scenario("fig2b")
    b1, b2 = Ballot(1, 0), Ballot(2, 1)
    assert calls[-1] == {(b1, "a"): 0b0001, (b2, "b"): 0b1100}
    assert r.proposer_values == {"P1": None, "P2": "b"}


def test_scenario_lines_pin_every_message_type():
    """A replay event's trace line: type, ballot, its one extra field, src, dst."""
    b, p = Ballot(2, 0), Ballot(3, 1)
    cases = [
        (("prepare", 1, b), '{"type":"prepare","ballot":[2,"P1"],"src":"P1","dst":"A2"}'),
        (("promise", 1, b, None),
         '{"type":"promise","ballot":[2,"P1"],"accepted":null,"src":"A2","dst":"P1"}'),
        (("promise", 1, b, (Ballot(1, 1), "x")),
         '{"type":"promise","ballot":[2,"P1"],"accepted":[[1,"P2"],"x"],"src":"A2","dst":"P1"}'),
        (("propose", 1, b, "x"),
         '{"type":"propose","ballot":[2,"P1"],"value":"x","src":"P1","dst":"A2"}'),
        (("accept", 1, b), '{"type":"accept","ballot":[2,"P1"],"src":"A2","dst":"P1"}'),
        (("nack", 1, b, p),
         '{"type":"nack","ballot":[2,"P1"],"promised":[3,"P2"],"src":"A2","dst":"P1"}'),
    ]
    for event, want in cases:
        assert to_jsonl([scenarios._message(*event)]) == want + "\n", event
