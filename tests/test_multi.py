import json
import random
from collections import deque

from hypothesis import example, given, settings
from hypothesis import strategies as st

from fpaxos import core, multi
from fpaxos.core import Ballot
from fpaxos.multi import (
    CLIENT,
    NOOP,
    LeaderNack,
    LeaderPrepare,
    LeaderPromise,
    Replica,
    Request,
    Response,
    SlotAccept,
    SlotNack,
    SlotPropose,
    message_json,
)
from fpaxos.quorum import (
    STRATEGIES,
    make_explicit,
    make_grid,
    make_majority,
    make_simple,
    select_quorum,
)


def cluster(qs, **kw):
    return [Replica(i, qs, **kw) for i in range(qs.n)]


def pump(replicas, msgs, alive=None):
    """Deliver messages FIFO until quiescent; returns client-bound mail."""
    alive = set(range(len(replicas))) if alive is None else set(alive)
    queue = deque(msgs)
    to_client = []
    while queue:
        m = queue.popleft()
        if m.dst == CLIENT:
            to_client.append(m)
            continue
        if m.dst not in alive:
            continue
        queue.extend(replicas[m.dst].on_message(m, alive))
    return to_client


def elect(replicas, leader_id, alive=None, attempts=5):
    """Trigger an election, retrying with a higher round after nacks."""
    alive = set(range(len(replicas))) if alive is None else set(alive)
    rep = replicas[leader_id]
    out = []
    for _ in range(attempts):
        out = pump(replicas, rep.become_leader(alive), alive)
        if rep.leading:
            break
    return rep, out


# ----------------------------------------------------------- leadership


def test_fresh_cluster_election():
    qs = make_majority(4, improved=True)
    reps = cluster(qs)
    msgs = reps[0].become_leader(set(range(4)))
    assert len(msgs) == 3  # phase-1 quorum, not the whole cluster
    assert all(isinstance(m, LeaderPrepare) and m.from_slot == 0 for m in msgs)
    pump(reps, msgs)
    assert reps[0].leading
    assert reps[0].inflight == {}  # nothing to recover


def test_single_replica_cluster_leads_immediately():
    qs = make_majority(1)
    reps = cluster(qs)
    elect(reps, 0)
    assert reps[0].leading
    assert len(reps[0].inflight) == 0
    out = reps[0].on_message(Request(CLIENT, 0, "r1", "v"), {0})
    resp = pump(reps, out)
    assert [m.req_id for m in resp] == ["r1"]
    assert reps[0].log[0][1] == "v"


def test_failover_reproposes_accepted_value():
    qs = make_majority(4, improved=True)
    reps = cluster(qs)
    # replica 1 accepted (round 2, "x") at slot 5 before the old leader died
    reps[1].promised = Ballot(2, 0)
    reps[1].accepted[5] = (Ballot(2, 0), "x")
    leader, _ = elect(reps, 3, alive={1, 2, 3})
    assert leader.leading
    assert leader.log[5][1] == "x"
    # gaps below the recovered slot are closed with no-ops
    assert all(leader.log[s][1] == NOOP for s in range(5))
    assert leader.next_slot == 6
    # cross-check with the single-decree value-choice rule
    assert core.choose_value([(Ballot(2, 0), "x"), None, None], "own") == "x"


def test_recovery_skips_locally_decided_slots():
    qs = make_majority(3)
    reps = cluster(qs)
    reps[0].log[0] = (Ballot(1, 0), "done")
    msgs = reps[0].become_leader({0, 1, 2})
    assert msgs[0].from_slot == 1


def test_election_blocked_without_q1():
    qs = make_majority(4, improved=True)
    reps = cluster(qs)
    assert reps[0].become_leader({0, 1}) == []
    assert reps[0].electing and not reps[0].leading


def test_retransmit_resends_only_a_leaders_undecided_proposal():
    qs = make_majority(3)
    reps = cluster(qs)
    alive = {0, 1, 2}
    leader, _ = elect(reps, 0)
    sent = leader.on_message(Request(CLIENT, 0, "r0", "v0"), alive)
    assert leader.retransmit(0, alive) == sent
    pump(reps, sent)
    assert leader.log[0][1] == "v0"
    assert leader.retransmit(0, alive) == []  # decided
    assert leader.retransmit(7, alive) == []  # never proposed
    # a proposal in flight is dropped with the lead
    sent = leader.on_message(Request(CLIENT, 0, "r1", "v1"), alive)
    assert leader.retransmit(1, alive) == sent
    pump(reps, reps[2].become_leader(alive))
    assert not leader.leading and reps[2].leading
    follower, candidate = reps[1], Replica(1, qs)
    candidate.become_leader(alive)
    for rep in (leader, follower, candidate):
        assert [rep.retransmit(slot, alive) for slot in (0, 1, 7)] == [[], [], []]


def test_reelection_outbids_previous_ballot():
    qs = make_majority(3)
    reps = cluster(qs)
    elect(reps, 0)
    b0 = reps[0].ballot
    elect(reps, 1)
    assert reps[1].ballot > b0


# -------------------------------------------------------------- submit


def test_submit_counts_and_quorum_restriction():
    qs = make_simple(10, 3)
    reps = cluster(qs)
    leader, _ = elect(reps, 0)
    out = leader.on_message(Request(CLIENT, 0, "r1", "payload"), set(range(10)))
    assert len(out) == 3
    assert all(isinstance(m, SlotPropose) and m.slot == 0 for m in out)
    responses = pump(reps, out)
    assert [(-1 if r.slot != 0 else r.slot, r.req_id) for r in responses] == [(0, "r1")]


def test_submit_window_backpressure():
    qs = make_majority(3)
    reps = cluster(qs, window=10)
    leader, _ = elect(reps, 0)
    for i in range(10):
        assert leader.on_message(Request(CLIENT, 0, f"r{i}", f"v{i}"), {0, 1, 2})
    assert len(leader.inflight) == 10
    assert leader.on_message(Request(CLIENT, 0, "r10", "v"), {0, 1, 2}) == []
    assert [r.req_id for r in leader.pending] == ["r10"]


def test_submit_to_non_leader_redirects():
    qs = make_majority(3)
    reps = cluster(qs)
    elect(reps, 0)
    # the client is expected to redirect
    assert reps[1].on_message(Request(CLIENT, 1, "r1", "v"), {0, 1, 2}) == []


def test_request_queueing_drains_as_slots_decide():
    qs = make_majority(3)
    reps = cluster(qs, window=1)
    leader, _ = elect(reps, 0)
    first = leader.on_message(Request(CLIENT, 0, "r1", "v1"), {0, 1, 2})
    assert len(first) == 2  # proposals for slot 0
    assert leader.on_message(Request(CLIENT, 0, "r2", "v2"), {0, 1, 2}) == []
    assert len(leader.pending) == 1
    responses = pump(reps, first)
    assert {r.req_id for r in responses} == {"r1", "r2"}
    assert leader.log[0][1] == "v1" and leader.log[1][1] == "v2"


# ------------------------------------------------------------ dispatch


def test_propose_to_unknown_slot_creates_state():
    qs = make_majority(3)
    reps = cluster(qs)
    out = reps[1].on_message(
        SlotPropose(src=0, dst=1, ballot=Ballot(1, 0), slot=3, value="v", commit=0), {0, 1, 2}
    )
    assert isinstance(out[0], SlotAccept) and out[0].slot == 3
    assert reps[1].accepted[3] == (Ballot(1, 0), "v")


def test_duplicate_accept_after_decision_is_idempotent():
    qs = make_majority(3)
    reps = cluster(qs)
    leader, _ = elect(reps, 0)
    pump(reps, leader.on_message(Request(CLIENT, 0, "r1", "v"), {0, 1, 2}))
    log_before = dict(leader.log)
    dup = SlotAccept(src=1, dst=0, ballot=leader.ballot, slot=0)
    assert leader.on_message(dup, {0, 1, 2}) == []
    assert leader.log == log_before


def test_stale_prepare_is_nacked():
    qs = make_majority(3)
    reps = cluster(qs)
    elect(reps, 0)  # acceptors promised round 1
    stale = LeaderPrepare(src=2, dst=1, ballot=Ballot(0, 2), from_slot=0)
    out = reps[1].on_message(stale, {0, 1, 2})
    assert isinstance(out[0], multi.LeaderNack)
    assert out[0].promised == reps[1].promised


def test_duplicate_prepare_of_the_promised_ballot_is_promised_again():
    qs = make_majority(3)
    reps = cluster(qs)
    leader, _ = elect(reps, 0)
    pump(reps, leader.on_message(Request(CLIENT, 0, "r0", "v"), {0, 1, 2}))
    dup = LeaderPrepare(src=0, dst=1, ballot=leader.ballot, from_slot=0)
    (out,) = reps[1].on_message(dup, {0, 1, 2})
    assert isinstance(out, LeaderPromise) and out.ballot == leader.ballot
    assert out.accepted == ((0, leader.ballot, "v"),)
    assert reps[1].promised == leader.ballot
    assert leader.on_message(out, {0, 1, 2}) == [] and leader.leading


def test_follower_logs_slots_below_the_commit_point_at_the_propose_ballot():
    rep = Replica(1, make_majority(3))
    old, b = Ballot(1, 2), Ballot(2, 0)

    def propose(ballot, slot, value, commit):
        (out,) = rep.on_message(SlotPropose(0, 1, ballot, slot, value, commit), {0, 1, 2})
        assert isinstance(out, SlotAccept)

    propose(old, 0, "x", 0)
    propose(b, 1, "a", 0)
    propose(b, 2, "b", 2)
    assert rep.log == {1: (b, "a")}
    propose(b, 3, "c", 3)
    # slot 0 is decided too, but the pair held there is another ballot's
    assert rep.log == {1: (b, "a"), 2: (b, "b")} and rep.first_undecided() == 0
    propose(b, 0, "x", 3)  # proposed again at b: now it is known
    assert rep.log[0] == (b, "x") and rep.first_undecided() == 3


def test_stale_leader_steps_down_when_it_accepts_a_higher_ballot():
    """A leader that learned a higher ballot's decision must not send its commit point.

    Leader A = 0 proposes v at slot 0 and only F = 1 accepts it.  B = 2 wins
    a higher ballot with A's promise and decides w at slot 0; A accepts
    B's next propose and logs w.  Were A still leading, its next propose
    would carry commit 1 at its own ballot, and F would log v at slot 0.
    """
    qs = make_majority(3)
    reps = cluster(qs)
    a, f, b = reps
    elect(reps, 0)
    (to_f,) = [m for m in a.on_message(Request(CLIENT, 0, "r0", "v"), {0, 1, 2}) if m.dst == 1]
    f.on_message(to_f, {0, 1, 2})  # F's accept is lost
    b.seen_round = 5
    elect(reps, 2, alive={0, 2})
    assert b.ballot == Ballot(6, 2) and b.leading
    pump(reps, b.on_message(Request(CLIENT, 2, "r1", "w"), {0, 2}), alive={0, 2})
    pump(reps, b.on_message(Request(CLIENT, 2, "r2", "x"), {0, 2}), alive={0, 2})
    assert b.log[0][1] == "w" and a.log[0][1] == "w"
    assert not a.leading
    pump(reps, a.on_message(Request(CLIENT, 0, "r3", "y"), {0, 1, 2}), alive={1})
    for rep in reps:
        assert rep.log.get(0, (None, "w"))[1] == "w"


def test_candidate_steps_down_when_it_accepts_a_higher_ballot():
    """The same hazard while phase 1 is still open.

    On simple(4, 3) candidate X = 0 prepares (1, 0) at {1, 2} only.  Y = 3
    wins (2, 3) with {0, 3}, decides w at slot 0 and tells X.  Were X to
    finish its election on the promises still in flight, which report
    nothing, it would give slot 0 a client value at commit 1, and F = 1
    would log it.
    """
    qs = make_simple(4, 3)
    reps = cluster(qs)
    x, _, _, y = reps
    held = [reps[m.dst].on_message(m, {1, 2}) for m in x.become_leader({1, 2})]
    y.seen_round = 1
    elect(reps, 3, alive={0, 3})
    pump(reps, y.on_message(Request(CLIENT, 3, "r0", "w"), {0, 2, 3}), alive={0, 2, 3})
    pump(reps, y.on_message(Request(CLIENT, 3, "r1", "x"), {0, 2, 3}), alive={0, 2, 3})
    assert x.log[0][1] == "w"
    assert not x.electing
    for (promise,) in held:
        x.on_message(promise, {1, 2})
    pump(reps, x.on_message(Request(CLIENT, 0, "r2", "u"), {1, 2, 3}), alive={1})
    for rep in reps:
        assert rep.log.get(0, (None, "w"))[1] == "w"


def test_preemption_by_higher_ballot_demotes_leader():
    qs = make_majority(3)
    reps = cluster(qs)
    leader, _ = elect(reps, 0)
    elect(reps, 1)  # round 2 overtakes
    out = leader.on_message(Request(CLIENT, 0, "r1", "v"), {0, 1, 2})
    pump(reps, out)
    assert not leader.leading


def test_malformed_message_dropped():
    qs = make_majority(3)
    reps = cluster(qs)
    assert reps[0].on_message(object(), {0, 1, 2}) == []


PICK_KINDS = [
    make_majority(5),
    make_majority(4, improved=True),
    make_simple(5, 2),
    make_grid(2, 3),
    make_grid(2, 3, mode="paxos"),
    make_explicit(4, [[0, 1], [2, 3]], [[0, 2], [1, 3]]),
]


@settings(deadline=None, max_examples=80, derandomize=True)
@given(data=st.data())
def test_targets_equal_a_fresh_pick_however_alive_sets_repeat(data):
    """Prepare and propose targets are a fresh ``sorted(select_quorum(...))``, remembered or not."""
    qs = data.draw(st.sampled_from(PICK_KINDS))
    strategy = data.draw(st.sampled_from(STRATEGIES))
    latency = data.draw(st.lists(st.integers(0, 9), min_size=qs.n, max_size=qs.n))
    pool = data.draw(st.lists(st.frozensets(st.integers(0, qs.n - 1)), min_size=1, max_size=3))
    alive_sets = st.lists(st.sampled_from(pool), max_size=8)
    leader = Replica(0, qs, window=100, strategy=strategy, rng=random.Random(7), latency=latency)
    reps = [leader] + [Replica(i, qs) for i in range(1, qs.n)]
    twin = random.Random(7)  # replays the leader's random draws

    def fresh(phase, alive, tick):
        q = select_quorum(qs, phase, alive, strategy=strategy, tick=tick, rng=twin, latency=latency)
        return [] if q is None else sorted(q)

    for alive in data.draw(alive_sets) + [qs.universe]:
        sent = leader.become_leader(alive)
        assert [m.dst for m in sent] == fresh(1, alive, leader.seen_round)
    pump(reps, sent)
    assert leader.leading
    for slot, alive in enumerate(data.draw(alive_sets)):
        sent = leader.on_message(Request(CLIENT, 0, f"r{slot}", "v"), alive)
        assert [m.dst for m in sent] == fresh(2, alive, slot)


# ------------------------------------------------- aggregated phase one


@settings(deadline=None, max_examples=50)
@given(
    promised_round=st.integers(0, 3) | st.none(),
    slots=st.dictionaries(st.integers(0, 6), st.tuples(st.integers(1, 3), st.sampled_from("xyz")), max_size=4),
    prepare_round=st.integers(1, 5),
    proposer=st.sampled_from([0, 2]),
    from_slot=st.integers(0, 4),
)
@example(promised_round=2, slots={1: (2, "x")}, prepare_round=2, proposer=0, from_slot=0)
def test_aggregated_prepare_matches_per_slot_core_rule(
    promised_round, slots, prepare_round, proposer, from_slot
):
    qs = make_majority(3)
    rep = Replica(1, qs)
    promised = None if promised_round is None else Ballot(promised_round, 0)
    rep.promised = promised
    rep.accepted = {s: (Ballot(r, 0), v) for s, (r, v) in slots.items()}
    b = Ballot(prepare_round, proposer)
    out = rep.on_message(LeaderPrepare(src=proposer, dst=1, ballot=b, from_slot=from_slot),
                         {0, 1, 2})

    # reference: the acceptor's one rule, a ballot at or above the promise is
    # taken, applied to each slot alike; a re-sent prepare is promised again
    if promised is None or b >= promised:
        assert isinstance(out[0], LeaderPromise)
        got = tuple((s, br, v) for s, br, v in out[0].accepted)
        assert got == tuple((s, Ballot(r, 0), v) for s, (r, v) in sorted(slots.items()) if s >= from_slot)
        assert rep.promised == b
    else:
        assert isinstance(out[0], multi.LeaderNack)
        assert rep.promised == promised


# ------------------------------------------------------------ invariants


def run_failover_round(qs, n_requests, crash_after):
    reps = cluster(qs)
    n = qs.n
    leader, _ = elect(reps, 0)
    alive = set(range(n))
    for i in range(n_requests):
        pump(reps, leader.on_message(Request(CLIENT, 0, f"r{i}", f"v{i}"), alive))
    alive -= set(crash_after)
    for r in crash_after:
        reps[r].crash()
    new_leader, _ = elect(reps, max(alive), alive=alive)
    return reps, new_leader


def test_log_agreement_and_leader_completeness_after_failover():
    qs = make_majority(4, improved=True)
    reps, new_leader = run_failover_round(qs, n_requests=5, crash_after=[0])
    assert new_leader.leading
    # every slot decided by the old leader is decided identically by the new
    old_log, new_log = reps[0].log, new_leader.log
    for s, (_, v) in old_log.items():
        assert new_log[s][1] == v
    for a, b in [(reps[i], reps[j]) for i in range(4) for j in range(4) if i < j]:
        for s in set(a.log) & set(b.log):
            assert a.log[s][1] == b.log[s][1]


def test_log_entries_never_change():
    qs = make_majority(3)
    reps = cluster(qs)
    leader, _ = elect(reps, 0)
    pump(reps, leader.on_message(Request(CLIENT, 0, "r0", "v0"), {0, 1, 2}))
    frozen = dict(leader.log)
    elect(reps, 1)
    pump(reps, reps[1].on_message(Request(CLIENT, 1, "r1", "v1"), {0, 1, 2}))
    for s, entry in frozen.items():
        assert reps[1].log[s][1] == entry[1]


def test_crash_semantics():
    qs = make_majority(3)
    reps = cluster(qs)
    leader, _ = elect(reps, 0)
    pump(reps, leader.on_message(Request(CLIENT, 0, "r0", "v0"), {0, 1, 2}))
    keep = reps[1]
    assert keep.accepted
    keep.crash(lose_memory=False)
    assert keep.promised is not None and keep.accepted
    keep.crash(lose_memory=True)
    assert keep.promised is None and keep.accepted == {} and keep.log == {}


def test_message_json_has_slot_fields():
    m = SlotPropose(src=0, dst=1, ballot=Ballot(2, 0), slot=7, value="v", commit=4)
    d = json.loads(message_json(m))
    assert d == {
        "type": "propose",
        "ballot": [2, 0],
        "slot": 7,
        "value": "v",
        "commit": 4,
        "src": 0,
        "dst": 1,
    }
    r = json.loads(message_json(Response(src=0, dst=CLIENT, req_id="r1", slot=3, payload="v")))
    assert r["type"] == "response" and r["slot"] == 3


def test_message_json_pins_every_class():
    """One encoder for every message class; key order is part of the trace format."""
    assert message_json is core.message_json
    b, p = Ballot(2, 0), Ballot(3, 1)
    cases = [
        (Request(CLIENT, 0, "r1", "payload"), '{"type":"request","req":"r1","src":"client","dst":0}'),
        (Response(0, CLIENT, "r1", 4, "payload"),
         '{"type":"response","req":"r1","slot":4,"src":0,"dst":"client"}'),
        (LeaderPrepare(0, 1, b, 5), '{"type":"prepare","ballot":[2,0],"from_slot":5,"src":0,"dst":1}'),
        (LeaderPromise(1, 0, b, 5, ((5, Ballot(1, 1), "x"), (6, Ballot(1, 2), ""))),
         '{"type":"promise","ballot":[2,0],"from_slot":5,'
         '"accepted":[[5,[1,1],"x"],[6,[1,2],""]],"src":1,"dst":0}'),
        (LeaderPromise(1, 0, b, 0, ()),
         '{"type":"promise","ballot":[2,0],"from_slot":0,"accepted":[],"src":1,"dst":0}'),
        (multi.LeaderNack(1, 0, b, p),
         '{"type":"nack","ballot":[2,0],"promised":[3,1],"src":1,"dst":0}'),
        (SlotPropose(0, 1, b, 7, "x", 4),
         '{"type":"propose","ballot":[2,0],"slot":7,"value":"x","commit":4,"src":0,"dst":1}'),
        (SlotAccept(1, 0, b, 7), '{"type":"accept","ballot":[2,0],"slot":7,"src":1,"dst":0}'),
        (multi.SlotNack(1, 0, b, 7, p),
         '{"type":"nack","ballot":[2,0],"slot":7,"promised":[3,1],"src":1,"dst":0}'),
    ]
    for m, want in cases:
        assert message_json(m) == want, m


def spelled_out(m) -> dict:
    """A message's trace form written out class by class, not read off its fields."""

    def b(x):
        return [x.round, x.proposer]

    t = type(m)
    if t is Request:
        d = {"type": "request", "req": m.req_id}
    elif t is Response:
        d = {"type": "response", "req": m.req_id, "slot": m.slot}
    elif t is LeaderPrepare:
        d = {"type": "prepare", "ballot": b(m.ballot), "from_slot": m.from_slot}
    elif t is LeaderPromise:
        d = {"type": "promise", "ballot": b(m.ballot), "from_slot": m.from_slot,
             "accepted": [[s, b(x), v] for s, x, v in m.accepted]}
    elif t is LeaderNack:
        d = {"type": "nack", "ballot": b(m.ballot), "promised": b(m.promised)}
    elif t is SlotPropose:
        d = {"type": "propose", "ballot": b(m.ballot), "slot": m.slot, "value": m.value,
             "commit": m.commit}
    elif t is SlotAccept:
        d = {"type": "accept", "ballot": b(m.ballot), "slot": m.slot}
    else:
        assert t is SlotNack
        d = {"type": "nack", "ballot": b(m.ballot), "slot": m.slot, "promised": b(m.promised)}
    return {**d, "src": m.src, "dst": m.dst}


_strs = st.text() | st.sampled_from(
    [NOOP, '"', "\\", '\\"', "é😀", "\u2028\ud800", "\x00\x1f\x7f", 'a"b\\cé']
)
_ends = st.integers(0, 9) | st.just(CLIENT)
_ints = st.integers(0, 2**40)
_ballots = st.builds(Ballot, _ints, st.integers(0, 9))
_wire = st.one_of(
    st.builds(Request, _ends, _ends, _strs, _strs),
    st.builds(Response, _ends, _ends, _strs, _ints, _strs),
    st.builds(LeaderPrepare, _ends, _ends, _ballots, _ints),
    st.builds(LeaderPromise, _ends, _ends, _ballots, _ints,
              st.lists(st.tuples(_ints, _ballots, _strs), max_size=3).map(tuple)),
    st.builds(LeaderNack, _ends, _ends, _ballots, _ballots),
    st.builds(SlotPropose, _ends, _ends, _ballots, _ints, _strs, _ints),
    st.builds(SlotAccept, _ends, _ends, _ballots, _ints),
    st.builds(SlotNack, _ends, _ends, _ballots, _ints, _ballots),
)


@settings(deadline=None, max_examples=300)
@given(_wire)
@example(LeaderPromise(1, CLIENT, Ballot(1, 0), 0, ()))
@example(LeaderPromise(CLIENT, 0, Ballot(1, 0), 0, ((0, Ballot(0, 1), NOOP), (1, Ballot(1, 1), "é"))))
def test_message_json_is_json_dumps_of_the_spelled_out_form(m):
    assert message_json(m) == json.dumps(spelled_out(m), separators=(",", ":"))
