import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fpaxos import core, scenarios, sim
from fpaxos.core import (
    Ballot,
    SafetyViolationError,
    acceptor_handle_prepare,
    acceptor_handle_propose,
    choose_value,
    decided_proposals,
)
from fpaxos.multi import (
    CLIENT,
    LeaderNack,
    LeaderPrepare,
    LeaderPromise,
    Replica,
    Request,
    SlotAccept,
    SlotNack,
    SlotPropose,
)
from fpaxos.quorum import make_grid, make_majority, make_simple

B = Ballot
P1, P2 = 100, 101  # proposer ids used in scenarios


def prep(b, src=P1, dst=0):
    return LeaderPrepare(src=src, dst=dst, ballot=b, from_slot=0)


def prop(b, v, src=P1, dst=0):
    return SlotPropose(src=src, dst=dst, ballot=b, slot=0, value=v, commit=0)


# ---------------------------------------------------------------- acceptor
#
# Core's two acceptor steps, taken on a replica at slot 0, and the replies
# the replica builds around them.


def acceptor(promised=None, accepted=None):
    """Replica 0 of one acceptor, holding ``promised`` and, at slot 0, ``accepted``."""
    r = Replica(0, make_majority(1))
    r.promised = promised
    if accepted is not None:
        r.accepted[0] = accepted
    return r


def state(r):
    return r.promised, dict(r.accepted)


def reply(r, m):
    """The one message ``r`` answers ``m`` with."""
    [out] = r.on_message(m, {0})
    return out


def test_prepare_fresh_promises():
    acc = acceptor()
    assert acceptor_handle_prepare(acc, B(1, P1))
    assert acc.promised == B(1, P1)
    assert reply(acceptor(), prep(B(1, P1))) == LeaderPromise(
        src=0, dst=P1, ballot=B(1, P1), from_slot=0, accepted=()
    )


def test_prepare_stale_nacks_and_keeps_state():
    acc = acceptor(promised=B(2, P2))
    st0 = state(acc)
    assert not acceptor_handle_prepare(acc, B(1, P1))
    assert state(acc) == st0
    nack = reply(acc, prep(B(1, P1)))
    assert nack == LeaderNack(src=0, dst=P1, ballot=B(1, P1), promised=B(2, P2))
    assert state(acc) == st0


def test_prepare_carries_accepted_pair():
    acc = acceptor(promised=B(1, P1), accepted=(B(1, P1), "a"))
    assert acceptor_handle_prepare(acc, B(2, P2))
    assert acc.promised == B(2, P2)
    assert acc.accepted[0] == (B(1, P1), "a")
    acc = acceptor(promised=B(1, P1), accepted=(B(1, P1), "a"))
    assert reply(acc, prep(B(2, P2), src=P2)).accepted == ((0, B(1, P1), "a"),)


def test_prepare_of_the_promised_ballot_promises_again():
    acc = acceptor(promised=B(2, P2), accepted=(B(1, P1), "a"))
    st0 = state(acc)
    assert acceptor_handle_prepare(acc, B(2, P2))
    assert state(acc) == st0


def test_propose_accepts_at_promise():
    acc = acceptor(promised=B(1, P1))
    assert acceptor_handle_propose(acc, B(1, P1), 0, "a")
    assert acc.accepted[0] == (B(1, P1), "a")
    assert reply(acceptor(promised=B(1, P1)), prop(B(1, P1), "a")) == SlotAccept(
        src=0, dst=P1, ballot=B(1, P1), slot=0
    )


def test_propose_below_promise_nacks():
    acc = acceptor(promised=B(2, P2))
    st0 = state(acc)
    assert not acceptor_handle_propose(acc, B(1, P1), 0, "a")
    assert state(acc) == st0
    nack = reply(acc, prop(B(1, P1), "a"))
    assert isinstance(nack, SlotNack) and nack.promised == B(2, P2)
    assert state(acc) == st0


def test_propose_duplicate_reaccepts():
    acc = acceptor(promised=B(1, P1), accepted=(B(1, P1), "a"))
    st0 = state(acc)
    assert acceptor_handle_propose(acc, B(1, P1), 0, "a")
    assert state(acc) == st0
    assert isinstance(reply(acc, prop(B(1, P1), "a")), SlotAccept)
    assert state(acc) == st0


def test_propose_without_prior_prepare_is_allowed():
    acc = acceptor()
    assert acceptor_handle_propose(acc, B(3, P1), 0, "z")
    assert acc.promised == B(3, P1)
    assert isinstance(reply(acceptor(), prop(B(3, P1), "z")), SlotAccept)


# ---------------------------------------------------------------- proposer
#
# The one proposer is the leader of ``multi.Replica``; these check core's
# single-decree proposer rules as it applies them.


def candidate(qs, alive=None, rid=0, seen_round=0):
    """A replica that has just sent its prepares, and those prepares."""
    r = Replica(rid, qs)
    r.seen_round = seen_round
    return r, r.become_leader(set(range(qs.n)) if alive is None else set(alive))


def promise(r, src, pairs=(), ballot=None):
    """src's promise to r's election, reporting (slot, ballot, value) pairs."""
    return LeaderPromise(
        src=src, dst=r.id, ballot=ballot or r.ballot, from_slot=0, accepted=tuple(pairs)
    )


def feed_promises(r, promises, alive=None):
    alive = set(range(r.qs.n)) if alive is None else set(alive)
    msgs = []
    for src, pairs in promises:
        msgs.extend(r.on_message(promise(r, src, pairs), alive))
    return msgs


def test_start_emits_prepares_to_q1():
    r, msgs = candidate(make_majority(4, improved=True))
    assert r.electing and not r.leading
    assert [m.dst for m in msgs] == [0, 1, 2]
    assert all(isinstance(m, LeaderPrepare) and m.ballot == B(1, 0) for m in msgs)


def test_start_single_acceptor():
    _, msgs = candidate(make_majority(1))
    assert len(msgs) == 1


def test_start_rejects_non_q1_targets():
    r, msgs = candidate(make_majority(4, improved=True), alive={0, 1})
    assert msgs == [] and not r.leading


def test_quorum_restricted_prepare_count():
    _, msgs = candidate(make_simple(10, 3))
    assert len(msgs) == 8


def test_promise_quorum_adopts_prior_value():
    alive = {1, 2, 3}
    r, _ = candidate(make_majority(4, improved=True), alive=alive, rid=3, seen_round=1)
    msgs = feed_promises(r, [(3, ()), (2, ()), (1, [(0, B(1, P1), "a")])], alive)
    assert r.leading
    assert sorted(m.dst for m in msgs) == [1, 2]
    assert all(isinstance(m, SlotPropose) and (m.slot, m.value) == (0, "a") for m in msgs)


def test_promise_quorum_uses_candidate_when_clean():
    qs = make_majority(4, improved=True)
    r, _ = candidate(qs)
    assert feed_promises(r, [(0, ()), (1, ()), (2, ())]) == []  # nothing to recover
    msgs = r.on_message(Request(CLIENT, 0, "r1", "b"), set(range(4)))
    assert len(msgs) == 2  # fixed-first phase-2 quorum of size 2
    assert all((m.slot, m.value) == (0, "b") for m in msgs)


def test_promise_highest_ballot_wins():
    r, _ = candidate(make_majority(4, improved=True), seen_round=3)
    msgs = feed_promises(
        r, [(0, [(0, B(1, P1), "a")]), (1, [(0, B(3, P1), "c")]), (2, ())]
    )
    assert {m.value for m in msgs} == {"c"}


def test_promise_stale_ballot_ignored():
    qs = make_majority(4, improved=True)
    r, _ = candidate(qs)
    r.become_leader(set(range(4)))  # a retry: the round-1 election is stale
    assert r.on_message(promise(r, 0, ballot=B(1, 0)), set(range(4))) == []
    assert r._promises == {}


def test_promise_after_phase2_ignored():
    r, _ = candidate(make_majority(4, improved=True))
    msgs = feed_promises(r, [(0, ()), (1, ()), (2, [(0, B(1, P1), "a")])])
    assert r.leading and msgs
    inflight = dict(r.inflight)
    assert r.on_message(promise(r, 3, [(1, B(1, P1), "z")]), set(range(4))) == []
    assert r.inflight == inflight and r.next_slot == 1


def test_accepts_reach_decision_on_q2():
    r, _ = candidate(make_majority(4, improved=True))
    feed_promises(r, [(0, ()), (1, ()), (2, ())])
    r.on_message(Request(CLIENT, 0, "r1", "a"), set(range(4)))
    alive = set(range(4))
    assert r.on_message(SlotAccept(src=0, dst=0, ballot=r.ballot, slot=0), alive) == []
    assert 0 not in r.log
    out = r.on_message(SlotAccept(src=1, dst=0, ballot=r.ballot, slot=0), alive)
    assert r.log[0] == (r.ballot, "a")
    assert [m.req_id for m in out] == ["r1"]


def test_accepts_grid_column_decides():
    qs = make_grid(4, 5, mode="fpaxos")
    r, msgs = candidate(qs)
    assert {m.dst for m in msgs} == qs.row(0)
    feed_promises(r, [(a, ()) for a in sorted(qs.row(0))])
    r.on_message(Request(CLIENT, 0, "r1", "a"), qs.universe)
    for a in sorted(qs.col(2)):
        assert 0 not in r.log
        r.on_message(SlotAccept(src=a, dst=0, ballot=r.ballot, slot=0), qs.universe)
    assert r.log[0] == (r.ballot, "a")


def test_nack_then_retry_bumps_round():
    r, _ = candidate(make_majority(4, improved=True))
    r.on_message(LeaderNack(src=1, dst=0, ballot=r.ballot, promised=B(5, P2)), set(range(4)))
    msgs = r.become_leader(set(range(4)))
    assert r.ballot == B(6, 0)
    assert len(msgs) == 3


# ----------------------------------------------------------------- learner


def test_learner_examples():
    qs = make_majority(4, improved=True)
    accepts = {(B(1, P1), "a"): 0b0001, (B(2, P2), "a"): 0b1110}
    assert decided_proposals(accepts, qs) == [(B(2, P2), "a")]

    assert decided_proposals({}, qs) == []

    lone = {(B(1, P1), "a"): 0b0001}
    assert decided_proposals(lone, qs) == []


def test_learner_counts_accepts_of_acceptors_that_moved_on():
    # 0 and 1 accepted (1, a); 0 has since accepted (2, b) and holds only that
    qs = make_majority(3)
    accepts = {(B(1, P1), "a"): 0b011, (B(2, P2), "b"): 0b001}
    assert decided_proposals(accepts, qs) == [(B(1, P1), "a")]


def test_learner_flags_conflicting_quorums():
    from fpaxos.quorum import make_explicit

    qs = make_explicit(2, [[0]], [[0], [1]])
    accepts = {(B(2, P2), "y"): 0b10, (B(1, P1), "x"): 0b01}
    assert decided_proposals(accepts, qs) == [(B(1, P1), "x"), (B(2, P2), "y")]
    # the replica's learner refuses to log a second value for a slot
    r, _ = candidate(qs)
    feed_promises(r, [(0, [(0, B(0, P1), "x")])])
    r.log[0] = (B(0, P2), "y")
    with pytest.raises(SafetyViolationError) as err:
        r.on_message(SlotAccept(src=0, dst=0, ballot=r.ballot, slot=0), qs.universe)
    assert (err.value.slot, err.value.values) == (0, ["y", "x"])


def test_choose_value_rule():
    assert choose_value([None, None], "mine") == "mine"
    assert choose_value([(B(1, 0), "a"), None, (B(3, 0), "c")], "mine") == "c"


# --------------------------------------------------------------- properties


@settings(deadline=None, max_examples=120)
@given(seed=st.integers(0, 2**32 - 1), steps=st.integers(1, 40))
def test_acceptor_ballots_never_decrease(seed, steps):
    rng = random.Random(seed)
    acc = acceptor()
    for _ in range(steps):
        b = B(rng.randint(0, 5), rng.randint(0, 2))
        promised0, pair0 = acc.promised, acc.accepted.get(0)
        if rng.random() < 0.5:
            acceptor_handle_prepare(acc, b)
        else:
            acceptor_handle_propose(acc, b, 0, rng.choice("xyz"))
        promised1, pair1 = acc.promised, acc.accepted.get(0)
        if promised0 is not None:
            assert promised1 >= promised0
        if pair0 is not None:
            assert pair1[0] >= pair0[0]
        if pair1 is not None and promised1 is not None:
            assert pair1[0] <= promised1


@st.composite
def systems(draw):
    kind = draw(st.sampled_from(["majority", "even-improved", "grid"]))
    if kind == "majority":
        return make_majority(draw(st.integers(1, 6)))
    if kind == "even-improved":
        return make_majority(2 * draw(st.integers(1, 3)), improved=True)
    rows, cols = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    return make_grid(rows, cols, mode=draw(st.sampled_from(["fpaxos", "paxos"])))


@settings(deadline=None, max_examples=150)
@given(qs=systems(), data=st.data())
def test_proposer_never_proposes_before_q1_or_decides_before_q2(qs, data):
    """A replica leads, and first proposes, exactly when its promisers hold
    a phase-1 quorum; a slot is logged exactly when its acks hold a phase-2
    quorum; the logged value is core's choice among the promisers' reports."""
    n, alive = qs.n, set(range(qs.n))
    # each acceptor reports for slot 0 nothing or the one value of a round
    reports = data.draw(st.lists(st.none() | st.integers(1, 3), min_size=n, max_size=n))
    pairs = {a: [(0, B(rnd, P1), f"v{rnd}")] if rnd else [] for a, rnd in enumerate(reports)}
    r, _ = candidate(qs, seen_round=3)
    promisers, proposed = 0, []
    for a in data.draw(st.permutations(range(n))):
        was_leading = r.leading
        out = r.on_message(promise(r, a, pairs[a]), alive)
        promisers |= 1 << a
        assert r.leading == qs.is_q1(promisers)
        if r.leading and not was_leading:
            quorum = [a for a in range(n) if promisers >> a & 1]
            proposed = out
        else:
            assert out == []
    reported = [(b, v) for a in quorum for _, b, v in pairs[a]]
    if not reported:
        assert proposed == []
        proposed = r.on_message(Request(CLIENT, 0, "r1", "mine"), alive)
    assert proposed and all(isinstance(m, SlotPropose) and m.slot == 0 for m in proposed)
    assert {m.value for m in proposed} == {choose_value(reported, "mine")}
    acks = 0
    for a in data.draw(st.permutations(range(n))):
        r.on_message(SlotAccept(src=a, dst=0, ballot=r.ballot, slot=0), alive)
        acks |= 1 << a
        assert (0 in r.log) == qs.is_q2(acks)
    assert r.log[0] == (r.ballot, choose_value(reported, "mine"))


@settings(deadline=None, max_examples=40)
@given(seed=st.integers(0, 2**32 - 1))
def test_replaying_a_message_log_is_deterministic(seed):
    rng = random.Random(seed)
    log = []
    for _ in range(30):
        b = B(rng.randint(0, 4), rng.randint(0, 1))
        if rng.random() < 0.5:
            log.append(prep(b, src=b.proposer))
        else:
            log.append(prop(b, rng.choice("pq"), src=b.proposer))

    def run():
        acc = acceptor()
        replies = [reply(acc, m) for m in log]
        return state(acc), replies

    assert run() == run()


def test_message_json_shape():
    assert scenarios._message("propose", 1, B(2, 0), "a") == {
        "type": "propose",
        "ballot": [2, "P1"],
        "value": "a",
        "src": "P1",
        "dst": "A2",
    }


def dumps_lines(lines) -> str:
    """The reference writer: one ``json.dumps`` call per line."""
    return "".join(json.dumps(l, separators=(",", ":")) + "\n" for l in lines)


_text = st.text(st.characters(blacklist_categories=())) | st.sampled_from(
    ['"', "\\", '\\"', "\x00\x1f\x7f", "\u2028\ud800", "é😀", ""]
)
_scalars = (
    _text
    | st.floats()
    | st.sampled_from([float("nan"), float("inf"), -float("inf"), -0.0, 1e308])
    | st.integers(min_value=-(2**200), max_value=2**200)
    | st.none()
    | st.booleans()
)
_ballots = st.builds(B, st.integers(0, 10**12), st.integers(-5, 5))
_accepted = st.tuples(st.integers(0, 99), _ballots, _text)
_messages = st.one_of(
    st.builds(Request, _text, st.integers(), _text, _text),
    st.builds(LeaderNack, st.integers(), _text, _ballots, _ballots),
    st.builds(LeaderPromise, st.integers(), st.integers(), _ballots, st.integers(0, 99),
              st.lists(_accepted, max_size=3).map(tuple)),
    st.builds(SlotPropose, st.integers(), st.integers(), _ballots, st.integers(0, 99), _text,
              st.integers(0, 99)),
).map(lambda m: json.loads(core.message_json(m)))
_keys = _text | st.integers() | st.floats() | st.booleans() | st.none()
_values = st.recursive(
    _scalars | _messages,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(_keys, inner, max_size=4),
    max_leaves=20,
)
_lines = st.lists(st.dictionaries(_text, _values, max_size=5) | _messages | _values, max_size=6)


@settings(deadline=None, max_examples=300)
@given(_lines)
def test_to_jsonl_matches_json_dumps_per_line(lines):
    assert core.to_jsonl(lines) == dumps_lines(lines)


def test_to_jsonl_serves_sim_and_matches_without_the_c_encoder():
    assert sim.to_jsonl is core.to_jsonl
    propose = json.loads(core.message_json(prop(B(1, 2), "v")))
    lines = [{"a": [1, 2.5, float("nan")], "é": None}, propose]
    assert core.to_jsonl([]) == ""
    assert core.to_jsonl(lines) == dumps_lines(lines)


def test_trace_reads_its_text_lines_back_as_dicts():
    trace = core.Trace()
    trace.lines += ['{"t":0,"ev":"a"}\n', '{"t":5,"ev":"b","x":[1,"\\u00e9"]}\n']
    assert len(trace) == 2
    assert trace[1] == trace[-1] == {"t": 5, "ev": "b", "x": [1, "é"]}
    assert trace[:1] == [{"t": 0, "ev": "a"}]
    assert list(trace) == [trace[0], trace[1]] and {"t": 0, "ev": "a"} in trace
    assert core.to_jsonl(trace) == "".join(trace.lines) == dumps_lines(trace)


def test_to_jsonl_errors_like_json_dumps_and_recovers():
    shared = {"ok": [1]}
    bad = [shared, {"x": [shared, object()]}]
    with pytest.raises(TypeError, match="not JSON serializable"):
        core.to_jsonl(bad)
    loop = {"ok": 1}
    loop["self"] = loop
    with pytest.raises(ValueError, match="Circular reference"):
        core.to_jsonl([loop])
    # the failed call's circular-reference markers die with it: the same containers encode again
    bad[1]["x"].pop()
    assert core.to_jsonl(bad) == dumps_lines(bad) == '{"ok":[1]}\n{"x":[{"ok":[1]}]}\n'
