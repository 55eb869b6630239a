import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fpaxos import core
from fpaxos.core import (
    Accept,
    AcceptorState,
    AgreementViolation,
    Ballot,
    Nack,
    Prepare,
    Promise,
    Propose,
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
    SlotPropose,
)
from fpaxos.quorum import make_grid, make_majority, make_simple

B = Ballot
P1, P2 = 100, 101  # proposer ids used in scenarios


def prep(b, src=P1, dst=0):
    return Prepare(src=src, dst=dst, ballot=b)


def prop(b, v, src=P1, dst=0):
    return Propose(src=src, dst=dst, ballot=b, value=v)


# ---------------------------------------------------------------- acceptor


def test_prepare_fresh_promises():
    st0 = AcceptorState()
    st1, reply = acceptor_handle_prepare(st0, prep(B(1, P1)))
    assert st1.promised == B(1, P1)
    assert reply == Promise(src=0, dst=P1, ballot=B(1, P1), accepted=None)


def test_prepare_stale_nacks_and_keeps_state():
    st0 = AcceptorState(promised=B(2, P2))
    st1, reply = acceptor_handle_prepare(st0, prep(B(1, P1)))
    assert st1 == st0
    assert reply == Nack(src=0, dst=P1, ballot=B(1, P1), promised=B(2, P2))


def test_prepare_carries_accepted_pair():
    st0 = AcceptorState(promised=B(1, P1), accepted=(B(1, P1), "a"))
    st1, reply = acceptor_handle_prepare(st0, prep(B(2, P2), src=P2))
    assert st1.promised == B(2, P2)
    assert st1.accepted == (B(1, P1), "a")
    assert reply.accepted == (B(1, P1), "a")


def test_propose_accepts_at_promise():
    st0 = AcceptorState(promised=B(1, P1))
    st1, reply = acceptor_handle_propose(st0, prop(B(1, P1), "a"))
    assert st1.accepted == (B(1, P1), "a")
    assert reply == Accept(src=0, dst=P1, ballot=B(1, P1))


def test_propose_below_promise_nacks():
    st0 = AcceptorState(promised=B(2, P2))
    st1, reply = acceptor_handle_propose(st0, prop(B(1, P1), "a"))
    assert st1 == st0
    assert isinstance(reply, Nack) and reply.promised == B(2, P2)


def test_propose_duplicate_reaccepts():
    st0 = AcceptorState(promised=B(1, P1), accepted=(B(1, P1), "a"))
    st1, reply = acceptor_handle_propose(st0, prop(B(1, P1), "a"))
    assert st1 == st0
    assert isinstance(reply, Accept)


def test_propose_without_prior_prepare_is_allowed():
    st1, reply = acceptor_handle_propose(AcceptorState(), prop(B(3, P1), "z"))
    assert st1.promised == B(3, P1)
    assert isinstance(reply, Accept)


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
    msgs = r.submit(Request(CLIENT, 0, "r1", "b"), set(range(4)))
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
    r.submit(Request(CLIENT, 0, "r1", "a"), set(range(4)))
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
    r.submit(Request(CLIENT, 0, "r1", "a"), qs.universe)
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
    states = {
        0: AcceptorState(promised=B(1, P1), accepted=(B(1, P1), "a")),
        1: AcceptorState(promised=B(2, P2), accepted=(B(2, P2), "a")),
        2: AcceptorState(promised=B(2, P2), accepted=(B(2, P2), "a")),
        3: AcceptorState(promised=B(2, P2), accepted=(B(2, P2), "a")),
    }
    assert decided_proposals(states, qs) == [(B(2, P2), "a")]

    empty = {i: AcceptorState() for i in range(4)}
    assert decided_proposals(empty, qs) == []

    lone = dict(empty)
    lone[0] = AcceptorState(promised=B(1, P1), accepted=(B(1, P1), "a"))
    assert decided_proposals(lone, qs) == []


def test_learner_flags_conflicting_quorums():
    from fpaxos.quorum import make_explicit

    qs = make_explicit(2, [[0]], [[0], [1]])
    states = {
        0: AcceptorState(promised=B(1, P1), accepted=(B(1, P1), "x")),
        1: AcceptorState(promised=B(2, P2), accepted=(B(2, P2), "y")),
    }
    assert decided_proposals(states, qs) == [(B(1, P1), "x"), (B(2, P2), "y")]
    # the replica's learner refuses to log a second value for a slot
    r, _ = candidate(qs)
    feed_promises(r, [(0, [(0, B(0, P1), "x")])])
    r.log[0] = (B(0, P2), "y")
    with pytest.raises(AgreementViolation):
        r.on_message(SlotAccept(src=0, dst=0, ballot=r.ballot, slot=0), qs.universe)


def test_choose_value_rule():
    assert choose_value([None, None], "mine") == "mine"
    assert choose_value([(B(1, 0), "a"), None, (B(3, 0), "c")], "mine") == "c"


# --------------------------------------------------------------- properties


@settings(deadline=None, max_examples=120)
@given(seed=st.integers(0, 2**32 - 1), steps=st.integers(1, 40))
def test_acceptor_ballots_never_decrease(seed, steps):
    rng = random.Random(seed)
    st0 = AcceptorState()
    for _ in range(steps):
        b = B(rng.randint(0, 5), rng.randint(0, 2))
        if rng.random() < 0.5:
            st1, _ = acceptor_handle_prepare(st0, prep(b, src=b.proposer))
        else:
            st1, _ = acceptor_handle_propose(st0, prop(b, rng.choice("xyz"), src=b.proposer))
        if st0.promised is not None:
            assert st1.promised >= st0.promised
        if st0.accepted is not None:
            assert st1.accepted[0] >= st0.accepted[0]
        if st1.accepted is not None and st1.promised is not None:
            assert st1.accepted[0] <= st1.promised
        st0 = st1


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
    promisers, proposed = set(), []
    for a in data.draw(st.permutations(range(n))):
        was_leading = r.leading
        out = r.on_message(promise(r, a, pairs[a]), alive)
        promisers.add(a)
        assert r.leading == qs.is_q1(frozenset(promisers))
        if r.leading and not was_leading:
            quorum = sorted(promisers)
            proposed = out
        else:
            assert out == []
    reported = [(b, v) for a in quorum for _, b, v in pairs[a]]
    if not reported:
        assert proposed == []
        proposed = r.submit(Request(CLIENT, 0, "r1", "mine"), alive)
    assert proposed and all(isinstance(m, SlotPropose) and m.slot == 0 for m in proposed)
    assert {m.value for m in proposed} == {choose_value(reported, "mine")}
    acks = set()
    for a in data.draw(st.permutations(range(n))):
        r.on_message(SlotAccept(src=a, dst=0, ballot=r.ballot, slot=0), alive)
        acks.add(a)
        assert (0 in r.log) == qs.is_q2(frozenset(acks))
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
        st0 = AcceptorState()
        replies = []
        for m in log:
            if isinstance(m, Prepare):
                st0, r = acceptor_handle_prepare(st0, m)
            else:
                st0, r = acceptor_handle_propose(st0, m)
            replies.append(r)
        return st0, replies

    assert run() == run()


def test_message_json_shape():
    m = Propose(src="P1", dst="A2", ballot=B(2, 1), value="a")
    assert core.message_json(m) == {
        "type": "propose",
        "ballot": [2, 1],
        "value": "a",
        "src": "P1",
        "dst": "A2",
    }
