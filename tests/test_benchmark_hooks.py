"""The benchmark's span recorder still finds every layer boundary it patches.

``perfbench/spans.py`` wraps names looked up in each module's or class's
``__dict__``; renaming one of them breaks traced benchmark runs.  This
loads the recorder by path and installs it around a short traced run.
"""

import importlib.util
from pathlib import Path

from fpaxos import checker, core, multi, sim
from fpaxos.quorum import make_explicit, make_majority

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_span_recorder_installs_and_uninstalls():
    spans = load_spans()
    rec = spans.Recorder()
    targets = rec._targets()
    before = [owner.__dict__[attr] for owner, attr, _, _ in targets]
    cfg = sim.SimConfig(
        quorum=make_majority(3), duration_ms=300, warmup_ms=50, cooldown_ms=50
    )
    with rec:
        for (owner, attr, _, _), orig in zip(targets, before):
            assert owner.__dict__[attr] is not orig, attr
        metrics, trace = sim.run(cfg)
        text = sim.to_jsonl(trace)
    rec.fold()
    assert [owner.__dict__[attr] for owner, attr, _, _ in targets] == before
    assert multi.message_json is core.message_json
    assert sim.to_jsonl is core.to_jsonl
    assert metrics.committed > 0 and text.count("\n") == len(trace)
    for name in ("sim.run", "multi.on_message", "trace.message_json", "trace.to_jsonl", "quorum.is_q2"):
        assert rec.calls[name] > 0, name
    assert rec.calls["core.acceptor_handle_propose"] > 0  # the simulator's acceptor steps


def test_replay_delivers_through_the_replicas_on_message():
    # the broken explicit(2) family's counterexample: replay hands each
    # prepare and propose to Replica.on_message, where the recorder sees it
    cfg = checker.CheckConfig(make_explicit(2, [[0]], [[1]]), properties=(checker.AGREEMENT,))
    path = checker.explore(cfg).violation.path
    kinds = [a[0] for a in path]
    rec = load_spans().Recorder()
    targets = rec._targets()
    before = [owner.__dict__[attr] for owner, attr, _, _ in targets]
    with rec:
        for (owner, attr, _, _), orig in zip(targets, before):
            assert owner.__dict__[attr] is not orig, attr
        assert checker.replay(path, cfg).shows(checker.AGREEMENT)
    rec.fold()
    assert [owner.__dict__[attr] for owner, attr, _, _ in targets] == before
    assert rec.calls["checker.replay"] == 1
    assert rec.calls["multi.on_message"] == kinds.count("promise") + kinds.count("accept") > 0
    assert rec.calls["core.acceptor_handle_propose"] == kinds.count("accept")
