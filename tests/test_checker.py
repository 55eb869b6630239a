import itertools
import json
import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fpaxos import checker
from fpaxos.checker import (
    AGREEMENT,
    PARTIAL,
    PROPOSAL_CONSISTENCY,
    SAFE,
    VIOLATION,
    CheckConfig,
    ReplayDivergenceError,
    ReplayResult,
    action_json,
    check_config_from_json,
    counterexample_jsonl,
    explore,
    quorum_safety_sweep,
    replay,
    value_names,
)
from fpaxos.cli import main
from fpaxos.core import Ballot
from fpaxos.quorum import (
    QuorumSystem,
    make_explicit,
    make_grid,
    make_majority,
    make_simple,
    validate_cross_intersection,
)

DISJOINT = CheckConfig(
    make_explicit(2, [[0]], [[1]]), ballots=2, properties=(AGREEMENT,)
)


def test_classic_majority_n3_safe():
    res = explore(CheckConfig(make_majority(3), ballots=2))
    assert res.complete and res.violation is None


def test_q1_three_sets_q2_two_sets_safe():
    res = explore(CheckConfig(make_majority(4, improved=True), ballots=2))
    assert res.complete and res.violation is None


def test_disjoint_quorums_violate_agreement():
    res = explore(DISJOINT)
    assert res.violation is not None
    assert res.violation.property == AGREEMENT
    assert len(res.violation.path) <= 10


def test_disjoint_counterexample_replays_to_two_decisions():
    res = explore(DISJOINT)
    rr = replay(res.violation.path, DISJOINT)
    assert rr.conflicting
    assert len({v for _, v in rr.decisions}) == 2


def test_replay_decides_a_pair_whose_quorum_accepted_it_at_different_times():
    # {0, 1} accept both pairs, but 0 already holds (1, b) when 1 accepts
    # (0, a): a pair is chosen by the accepts sent, not by who holds it now.
    cfg = CheckConfig(make_explicit(4, [[3]], [[0, 1]]), ballots=2, properties=(AGREEMENT,))
    path = [
        ("prepare", 0), ("prepare", 1), ("promise", 3, 0), ("promise", 3, 1),
        ("propose", 0, 0, (3,)), ("propose", 1, 1, (3,)), ("accept", 3, 1, 1),
        ("accept", 0, 0, 0), ("accept", 0, 1, 1), ("accept", 1, 0, 0), ("accept", 1, 1, 1),
    ]
    rr = replay(path, cfg)
    assert rr.shows(AGREEMENT)
    b0, b1 = cfg.ballot_list()
    assert set(rr.decisions) == {(b0, cfg.values[0]), (b1, cfg.values[1])}


def test_proposal_consistency_fires_before_agreement():
    cfg = CheckConfig(make_explicit(2, [[0]], [[1]]), ballots=2)
    res = explore(cfg)
    # with both properties on, the stronger one trips first (one action
    # before the conflicting accept lands)
    assert res.violation.property == PROPOSAL_CONSISTENCY
    agreement_len = len(explore(DISJOINT).violation.path)
    assert len(res.violation.path) == agreement_len - 1


def test_replay_shows_proposal_consistency_only_once_a_pair_is_decided():
    cfg = CheckConfig(make_explicit(2, [[0]], [[1]]), ballots=2)
    path = explore(cfg).violation.path
    assert path[-1][0] == "accept"
    rr = replay(path, cfg)
    assert rr.contradicted and not rr.conflicting
    assert not replay(path[:-1], cfg).contradicted


def test_replay_empty_path_is_initial_state():
    rr = replay((), DISJOINT)
    assert rr.decisions == []
    assert all(r.promised is None and r.accepted.get(0) is None for r in rr.states)


def test_replay_prefixes_of_safe_run_hold_invariants():
    cfg = CheckConfig(make_majority(3), ballots=2)
    path = (
        ("prepare", 0),
        ("promise", 0, 0),
        ("promise", 1, 0),
        ("propose", 0, 0, (0, 1)),
        ("accept", 0, 0, 0),
        ("accept", 1, 0, 0),
    )
    for i in range(len(path) + 1):
        rr = replay(path[:i], cfg)
        assert len({v for _, v in rr.decisions}) <= 1
    assert replay(path, cfg).decisions == [(Ballot(1, 0), "a")]


def test_replay_rejects_ill_formed_paths():
    cfg = CheckConfig(make_majority(3), ballots=2)
    with pytest.raises(ReplayDivergenceError):
        replay((("propose", 0, 0, (0, 1)),), cfg)  # quorum never promised
    with pytest.raises(ReplayDivergenceError):
        replay((("accept", 0, 0, 0),), cfg)  # value never proposed
    with pytest.raises(ReplayDivergenceError):
        # value-choice rule: after a promise carrying (b0,"a"), ballot 1
        # may not propose "b"
        replay(
            (
                ("prepare", 0),
                ("promise", 0, 0),
                ("promise", 1, 0),
                ("propose", 0, 0, (0, 1)),
                ("accept", 0, 0, 0),
                ("prepare", 1),
                ("promise", 0, 1),
                ("promise", 1, 1),
                ("propose", 1, 1, (0, 1)),
            ),
            cfg,
        )
    proposed = (("prepare", 0), ("promise", 0, 0), ("promise", 1, 0), ("propose", 0, 0, (0, 1)))
    with pytest.raises(ReplayDivergenceError):
        replay(proposed + (("refuse", 0, 0, 0),), cfg)  # the core accepts it
    with pytest.raises(ReplayDivergenceError):
        # acceptor 0 promised ballot 1 first, so the core refuses
        replay(proposed + (("prepare", 1), ("promise", 0, 1), ("accept", 0, 0, 0)), cfg)
    with pytest.raises(ReplayDivergenceError):
        replay(proposed + (("accept", 1, 0, 0), ("answer", 0, 0)), cfg)  # 0 got no proposal
    with pytest.raises(ReplayDivergenceError, match="core refused promise"):
        # acceptor 0 promised ballot 1 first, so its reply to ballot 0's prepare is a nack
        replay((("prepare", 1), ("promise", 0, 1), ("prepare", 0), ("promise", 0, 0)), cfg)
    with pytest.raises(ReplayDivergenceError, match="not a phase-1 quorum"):
        replay((("prepare", 0), ("promise", 0, 0), ("propose", 0, 0, (0,))), cfg)
    with pytest.raises(ReplayDivergenceError, match="two proposals for one ballot"):
        replay(proposed + (("propose", 0, 1, (0, 1)),), cfg)
    with pytest.raises(ReplayDivergenceError, match="unknown action"):
        replay((("elect", 0),), cfg)


def test_replay_crash_wipes_only_when_asked():
    cfg = CheckConfig(make_majority(3), ballots=2)
    path = (("prepare", 0), ("promise", 0, 0), ("promise", 1, 0),
            ("propose", 0, 0, (0, 1)), ("accept", 1, 0, 0))
    acceptor = lambda r: (r.promised, r.accepted.get(0))
    held = acceptor(replay(path, cfg).states[1])
    assert held == (Ballot(1, 0), (Ballot(1, 0), "a"))
    kept = replay(path + (("crash", 1, False),), cfg)
    assert acceptor(kept.states[1]) == held and kept.events[-1] == ("crash", 1, False)
    wiped = replay(path + (("crash", 1, True),), cfg)
    assert acceptor(wiped.states[1]) == (None, None) and wiped.events[-1] == ("crash", 1, True)


def test_checker_value_rule_matches_core_on_recovery():
    # A ballot-1 quorum that witnessed (b0, "a") must re-propose "a":
    # the checker emits exactly one propose choice for ballot 1 when the
    # justifying quorum saw an accepted pair.
    cfg = CheckConfig(make_majority(3), ballots=2)
    res = explore(cfg)
    assert res.violation is None
    # replay of a hand-built recovery path agrees with the core's choice
    path = (
        ("prepare", 0),
        ("promise", 0, 0),
        ("promise", 1, 0),
        ("propose", 0, 0, (0, 1)),
        ("accept", 0, 0, 0),
        ("accept", 1, 0, 0),
        ("prepare", 1),
        ("promise", 1, 1),
        ("promise", 2, 1),
        ("propose", 1, 0, (1, 2)),  # forced back to value index 0
        ("accept", 1, 1, 0),
        ("accept", 2, 1, 0),
    )
    rr = replay(path, cfg)
    assert not rr.conflicting
    assert {v for _, v in rr.decisions} == {"a"}


def test_propose_enumeration_covers_superset_quorums():
    # 2x2 grid, phase-1 quorums are the rows.  After this path, ballot-2
    # promises come from {0, 1, 2}: the bare row {0,1} saw only (b0, "a"),
    # but a proposer that also waited for acceptor 2 must adopt (b1, "b").
    # Both behaviors have to be enabled or the search is incomplete.
    from fpaxos.checker import _Space

    cfg = CheckConfig(make_grid(2, 2, "fpaxos"), ballots=3)
    space = _Space(cfg)
    path = [
        ("prepare", 0),
        ("promise", 2, 0),
        ("promise", 3, 0),
        ("propose", 0, 0, (2, 3)),  # value "a" free-chosen
        ("accept", 0, 0, 0),  # acceptor 0 now holds (b0, "a")
        ("prepare", 1),
        ("promise", 2, 1),
        ("promise", 3, 1),
        ("propose", 1, 1, (2, 3)),  # value "b" free-chosen
        ("accept", 2, 1, 1),  # acceptor 2 now holds (b1, "b")
        ("prepare", 2),
        ("promise", 0, 2),
        ("promise", 1, 2),
        ("promise", 2, 2),
    ]
    state = space.initial()
    for want in path:
        nexts = {action: child for action, child in space.successors(state)}
        assert want in nexts, f"action {want} not enabled"
        state = nexts[want]
    ballot2_values = {
        action[2] for action, _ in space.successors(state)
        if action[0] == "propose" and action[1] == 2
    }
    assert ballot2_values == {0, 1}


def _full_violation(space, cfg, s):
    """The checked property ``s`` breaks, from scratch: the reference for
    the checker's incremental test."""
    n, B, V = space.n, space.B, space.V
    chosen = [
        (b, v) for b in range(B) for v in range(V)
        if cfg.quorum.is_q2(sum(
            1 << a for a in range(n) if s >> space.AMSG + (b * V + v) * n + a & 1))
    ]
    proposed = {}
    for b in range(B):
        pv = s >> space.PROP + b * space.wV & (1 << space.wV) - 1
        if pv:
            proposed[b] = pv - 1
    if AGREEMENT in cfg.properties and len({v for _, v in chosen}) > 1:
        return AGREEMENT
    if PROPOSAL_CONSISTENCY in cfg.properties and any(
        v2 != v for b, v in chosen for b2, v2 in proposed.items() if b2 > b
    ):
        return PROPOSAL_CONSISTENCY
    return None


@pytest.mark.parametrize("properties", [(AGREEMENT, PROPOSAL_CONSISTENCY), (AGREEMENT,),
                                        (PROPOSAL_CONSISTENCY,)])
@pytest.mark.parametrize("qs, ballots", [
    (make_explicit(2, [[0]], [[1]]), 3),
    (make_explicit(2, [[0], [1]], [[0], [1]]), 2),
    (make_explicit(3, [[0, 1], [1, 2]], [[0], [2]]), 2),
    (make_majority(3), 2),
])
def test_incremental_violation_check_matches_full_check(qs, ballots, properties):
    # Expand every safe reachable state (not stopping at violations) and
    # compare the first violating edge each expansion reports with a
    # from-scratch check of every child.
    from fpaxos.checker import _Space

    cfg = CheckConfig(qs, ballots=ballots, properties=properties)
    space = _Space(cfg)
    seen = {space.initial()}
    frontier = [space.initial()]
    violations = 0
    while frontier:
        s = frontier.pop()
        edges, bad = space.expand(s)
        verdicts = [_full_violation(space, cfg, child) for _, child in edges]
        first = next(((i, p) for i, p in enumerate(verdicts) if p is not None), None)
        assert bad == first
        violations += first is not None
        for (_, child), verdict in zip(edges, verdicts):
            if verdict is None and child not in seen:
                seen.add(child)
                frontier.append(child)
    assert violations or validate_cross_intersection(qs)


# Frozen state counts: deterministic exploration makes the counts exact,
# so any drift in the transition relation shows up here.
STATE_COUNTS = {
    "majority3_b2": 3921,
    "majority3_b3": 185369,
    "improved4_b2": 20609,
    "grid22_b2": 39937,
    "disjoint": 228,
    # with symmetry: one state per orbit under value (and, for threshold
    # kinds, acceptor) permutations
    "majority3_b2_sym": 443,
    "majority3_b3_sym": 17153,
    "improved4_b2_sym": 834,
    "grid22_b2_sym": 20113,
    "majority5_b2_sym": 5811,
    "improved4_b3_sym": 57436,
}


def test_state_counts_are_stable():
    assert explore(CheckConfig(make_majority(3), ballots=2)).states == STATE_COUNTS["majority3_b2"]
    assert (
        explore(CheckConfig(make_majority(4, improved=True), ballots=2)).states
        == STATE_COUNTS["improved4_b2"]
    )
    assert (
        explore(CheckConfig(make_grid(2, 2, "fpaxos"), ballots=2)).states
        == STATE_COUNTS["grid22_b2"]
    )
    assert explore(DISJOINT).states == STATE_COUNTS["disjoint"]


def test_symmetry_state_counts_are_stable():
    for key, qs, ballots in (
        ("majority3_b2_sym", make_majority(3), 2),
        ("majority3_b3_sym", make_majority(3), 3),
        ("improved4_b2_sym", make_majority(4, improved=True), 2),
        ("grid22_b2_sym", make_grid(2, 2, "fpaxos"), 2),
        ("majority5_b2_sym", make_majority(5), 2),
        ("improved4_b3_sym", make_majority(4, improved=True), 3),
    ):
        res = explore(CheckConfig(qs, ballots=ballots, symmetry=True))
        assert res.complete and res.violation is None
        assert res.states == STATE_COUNTS[key], key


def test_max_states_below_one_is_rejected():
    for bad in (0, -5):
        with pytest.raises(ValueError, match="max_states"):
            CheckConfig(make_majority(3), max_states=bad)
    res = explore(CheckConfig(make_majority(3), max_states=1))  # the smallest budget
    assert not res.complete and res.violation is None


def test_setup_does_not_enumerate_every_acceptor_subset(monkeypatch):
    calls = []
    is_q1 = QuorumSystem.is_q1

    def counting(qs, mask):
        calls.append(mask)
        return is_q1(qs, mask)

    monkeypatch.setattr(QuorumSystem, "is_q1", counting)
    res = explore(CheckConfig(make_majority(20), max_states=10))
    assert res.states == 10
    assert len(calls) < 100  # enumerating all subsets makes 2**20 - 1
    res = explore(CheckConfig(make_majority(20), max_states=1000))
    assert res.states == 1000
    assert 0 < len(calls) < 1000  # only subsets of the promise senders are tested


def test_directly_built_config_values_of_the_wrong_type_are_named():
    # each once ran, or died in the search with a TypeError or AttributeError
    for key, value in [("ballots", 2.0), ("ballots", "2"), ("max_states", 1.5),
                       ("symmetry", "yes")]:
        with pytest.raises(ValueError, match=key):
            CheckConfig(make_majority(3), **{key: value})


def test_directly_built_config_quorum_and_values_of_the_wrong_type_are_named():
    for key, value in [("quorum", {"kind": "majority", "n": 3}), ("values", 3),
                       ("values", ["a", "b"]), ("values", ("a", 1)), ("values", "ab")]:
        kw = {"quorum": make_majority(3), key: value}
        with pytest.raises(ValueError, match=key):
            CheckConfig(**kw)


def test_repeated_value_names_are_rejected():
    with pytest.raises(ValueError, match="'a' is repeated"):
        CheckConfig(make_majority(3), values=("a", "b", "a"))
    with pytest.raises(ValueError, match="'a' is repeated"):
        check_config_from_json({"n": 2, "q1_sets": [[0]], "q2_sets": [[1]], "values": ["a", "a"]})


def test_budget_exceeded_flags_incomplete():
    res = explore(CheckConfig(make_majority(3), ballots=2, max_states=500))
    assert not res.complete
    assert res.states == 500
    assert res.violation is None


def test_symmetry_reduction_same_verdict_fewer_states():
    base = CheckConfig(make_majority(3), ballots=2)
    plain = explore(base)
    reduced = explore(CheckConfig(make_majority(3), ballots=2, symmetry=True))
    assert reduced.violation is None
    assert reduced.states < plain.states


def test_symmetry_has_no_group_size_limit():
    # n=3 with 6 or 8 values has 3!·V! symmetries; nothing is tabulated per symmetry
    for v in (6, 8):
        res = explore(CheckConfig(make_majority(3), values=value_names(v), symmetry=True))
        assert res.complete and res.violation is None
    res = explore(CheckConfig(make_majority(6, improved=True), ballots=2, symmetry=True))
    assert res.complete and res.violation is None


def _image(space, s, ap, vp):
    """``s`` with acceptor a moved to ap[a] and value v renamed vp[v], field by field."""
    n, B, V, wC = space.n, space.B, space.V, space.wC

    def field(sh, width):
        return s >> sh & (1 << width) - 1

    def pair(code):  # 0, or 1 + b*V + v
        return code and 1 + (code - 1) // V * V + vp[(code - 1) % V]

    out = field(0, B)  # prepared
    for b in range(B):
        sh = space.PROP + b * space.wV
        p = field(sh, space.wV)
        out |= (p and 1 + vp[p - 1]) << sh
    for a in range(n):
        out |= field(space.prom_sh[a], space.wP) << space.prom_sh[ap[a]]
        for b in range(B):
            cell = field(space.row_sh[b] + a * wC, wC)
            out |= (cell and 1 + pair(cell - 1)) << space.row_sh[b] + ap[a] * wC
            for v in range(V):
                held = field(space.AMSG + (b * V + v) * n + a, 1)
                out |= held << space.AMSG + (b * V + vp[v]) * n + ap[a]
    return out


@pytest.mark.parametrize("qs, ballots, values, acceptors_interchangeable", [
    (make_majority(3), 2, 2, True),
    (make_majority(3), 2, 3, True),
    (make_grid(2, 2, "fpaxos"), 1, 2, False),
])
def test_symmetry_keys_match_brute_force_orbits(qs, ballots, values, acceptors_interchangeable):
    # The group: every value permutation and, for a threshold kind, every
    # acceptor permutation.  Each plain-reachable orbit is enumerated once
    # by imaging one member under the whole group.
    from fpaxos.checker import _Space

    cfg = CheckConfig(qs, ballots=ballots, values=value_names(values))
    space = _Space(cfg)
    reachable = {space.initial()}
    frontier = [space.initial()]
    while frontier:
        for _, child in space.successors(frontier.pop()):
            if child not in reachable:
                reachable.add(child)
                frontier.append(child)
    aperms = list(itertools.permutations(range(qs.n)) if acceptors_interchangeable else [range(qs.n)])
    vperms = list(itertools.permutations(range(values)))
    orbits, keys = 0, set()
    unassigned = set(reachable)
    while unassigned:
        s = unassigned.pop()
        orbit = {_image(space, s, ap, vp) for ap in aperms for vp in vperms}
        assert orbit <= reachable  # the model is symmetric under the group
        unassigned -= orbit
        orbits += 1
        orbit_keys = {space.canonical(t) for t in orbit}
        assert len(orbit_keys) == 1  # one key on every image
        assert orbit_keys <= orbit  # the key is a state of the orbit
        keys |= orbit_keys
    assert len(keys) == orbits  # and distinct orbits have distinct keys
    assert explore(replace(cfg, symmetry=True)).states == orbits


def test_symmetry_still_finds_violations_with_concrete_path():
    cfg = CheckConfig(
        make_explicit(2, [[0]], [[1]]), ballots=2, properties=(AGREEMENT,), symmetry=True
    )
    res = explore(cfg)
    assert res.violation is not None
    assert replay(res.violation.path, cfg).conflicting


def _events(space, s):
    """Prepared bits, non-empty promise cells, proposals and accept bits of ``s``."""
    prepared = bin(s & (1 << space.B) - 1).count("1")
    cells = sum(1 for b in range(space.B) for a in range(space.n)
                if s >> space.row_sh[b] + a * space.wC & space.cmask)
    proposals = sum(1 for b in range(space.B) if s >> space.PROP + b * space.wV & space.vmask)
    accepts = bin(s >> space.AMSG).count("1")
    return prepared + cells + proposals + accepts


@pytest.mark.parametrize("cfg", [
    CheckConfig(make_majority(3), ballots=2, symmetry=True),
    CheckConfig(make_grid(2, 2, "fpaxos"), ballots=2, symmetry=True),
    CheckConfig(make_majority(4, improved=True), ballots=2, symmetry=True),
    DISJOINT,
])
def test_every_action_adds_exactly_one_event(cfg):
    # explore deduplicates against the next BFS level only, which is
    # complete because every edge, keyed or not, climbs one event level
    from fpaxos.checker import _Space

    space = _Space(cfg)
    seen = {space.initial()}
    frontier = [space.initial()]
    assert _events(space, space.initial()) == 0
    while frontier:
        s = frontier.pop()
        level = _events(space, s)
        for _, child in space.successors(s):
            assert _events(space, child) == _events(space, space.canonical(child)) == level + 1
            key = space.canonical(child) if cfg.symmetry else child
            if key not in seen:
                seen.add(key)
                frontier.append(key)


@pytest.mark.parametrize("cfg", [
    CheckConfig(make_majority(3), ballots=2),
    CheckConfig(make_majority(4, improved=True), ballots=2),
    DISJOINT,
    CheckConfig(make_majority(2), ballots=3),  # a promise after two accepts
])
def test_model_acceptors_match_the_simulators_on_every_reachable_state(cfg):
    # the model stores an acceptor's promise but reads its accepted pair,
    # and the pair its promises report, off its accept bits
    from fpaxos.checker import _Space

    space = _Space(cfg)
    n, V, ballots = space.n, space.V, cfg.ballot_list()
    parent = {space.initial(): None}
    order = [space.initial()]
    for s in order:  # BFS: order grows while it is read
        for action, child in space.successors(s):
            if child not in parent:
                parent[child] = (s, action)
                order.append(child)
    for s in order:
        path, t = [], s
        while parent[t]:
            t, action = parent[t]
            path.append(action)
        replicas = replay(path[::-1], cfg).states
        for a, replica in enumerate(replicas):
            promised = s >> space.prom_sh[a] & space.pmask
            assert replica.promised == (ballots[promised - 1] if promised else None)
            held = [k for k in range(space.B * V) if s >> space.AMSG + k * n + a & 1]
            pair = (ballots[held[-1] // V], cfg.values[held[-1] % V]) if held else None
            assert replica.accepted.get(0) == pair
            for b in range(space.B):
                cell = s >> space.row_sh[b] + a * space.wC & space.cmask
                if cell:
                    below = [k for k in held if k // V < b]
                    assert cell == (2 + below[-1] if below else 1)


def test_search_order_results_are_pinned():
    # values that depend on the BFS order: budget cut-offs and which
    # counterexample is found first
    res = explore(CheckConfig(make_explicit(2, [[0]], [[1]]), ballots=3))
    assert res.violation.property == PROPOSAL_CONSISTENCY
    assert (res.states, len(res.violation.path)) == (582, 7)
    cfg = CheckConfig(make_explicit(4, [[0, 1]], [[2, 3]]), ballots=2, symmetry=True)
    res = explore(cfg)
    assert res.violation.property == PROPOSAL_CONSISTENCY
    assert (res.states, len(res.violation.path)) == (1356, 10)
    assert replay(res.violation.path, cfg).contradicted
    res = explore(CheckConfig(make_majority(3), ballots=3, max_states=5000))
    assert (res.verdict, res.states) == (PARTIAL, 5000)


def test_search_keeps_no_table_of_every_state():
    import tracemalloc

    tracemalloc.start()
    try:
        res = explore(CheckConfig(make_majority(3), ballots=3))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.states == STATE_COUNTS["majority3_b3"]
    assert peak < 14 * 2**20, peak


@settings(deadline=None, max_examples=15)
@given(seed=st.integers(0, 2**32 - 1))
def test_random_explicit_families_violate_iff_disjoint(seed):
    # randomized extension of the catalog sweep: bounded exploration finds
    # a violation exactly when some phase-1 and phase-2 quorum are disjoint
    rng = random.Random(seed)
    n = rng.randint(2, 3)

    def family():
        count = rng.randint(1, 3)
        out = []
        for _ in range(count):
            size = rng.randint(1, n)
            out.append(rng.sample(range(n), size))
        return out

    from fpaxos.quorum import validate_cross_intersection

    qs = make_explicit(n, family(), family())
    cfg = CheckConfig(quorum=qs, ballots=2, max_states=200_000)
    res = explore(cfg)
    assert res.states < 200_000  # must be decisive, not budget-limited
    assert (res.violation is not None) == (not validate_cross_intersection(qs))
    if res.violation is not None and res.violation.property == AGREEMENT:
        assert replay(res.violation.path, cfg).conflicting
    # the symmetric search reports its own violation with a concrete path
    # of the plain path's length, which replays as confirmed
    sym = explore(replace(cfg, symmetry=True))
    assert (sym.violation is None) == (res.violation is None)
    if sym.violation is not None:
        rr = replay(sym.violation.path, cfg)
        assert rr.conflicting if sym.violation.property == AGREEMENT else rr.contradicted
        assert len(sym.violation.path) == len(res.violation.path)


def test_safety_sweep_biconditional():
    report = quorum_safety_sweep(3)
    assert report and all(e.consistent for e in report)
    by_name = {e.name: e for e in report}
    assert not by_name["broken-singletons(n=3)"].intersects
    assert by_name["broken-singletons(n=3)"].verdict == VIOLATION
    assert by_name["any1-vs-all(n=3)"].intersects
    assert by_name["any1-vs-all(n=3)"].verdict == SAFE
    assert by_name["majority(n=3)"].verdict == SAFE


def test_sweep_covers_grid_2x2():
    report = quorum_safety_sweep(4, max_states=100_000)
    by_name = {e.name: e for e in report}
    entry = by_name["grid-fpaxos(2x2)"]
    assert entry.intersects and entry.verdict == SAFE


def test_verdict_is_safe_only_for_a_complete_search():
    assert explore(CheckConfig(make_majority(3))).verdict == SAFE
    assert explore(DISJOINT).verdict == VIOLATION
    spent = explore(CheckConfig(make_majority(3), max_states=1000))
    assert not spent.complete and spent.violation is None
    assert spent.verdict == PARTIAL


def test_sweep_entry_out_of_budget_is_inconsistent():
    # once listed as safe: a search cut off by its budget proves nothing
    report = quorum_safety_sweep(3, max_states=1000)
    partial = {e.name for e in report if e.verdict == PARTIAL}
    assert partial == {"majority(n=3)", "simple(n=3,q2=2)", "simple(n=3,q2=3)",
                       "grid-fpaxos(3x1)", "any1-vs-all(n=3)"}
    assert {e.name for e in report if not e.consistent} == partial


def test_sweep_entry_whose_replay_shows_no_violation_is_inconsistent(monkeypatch):
    monkeypatch.setattr(checker, "replay", lambda path, cfg: ReplayResult(states={}))
    report = quorum_safety_sweep(2)
    broken = {e.name for e in report if not e.intersects}
    assert broken == {"broken-singletons(n=2)", "broken-disjoint(n=2)"}
    assert all(e.verdict == VIOLATION for e in report if e.name in broken)
    assert {e.name for e in report if not e.consistent} == broken


def test_sweep_below_one_acceptor_is_rejected():
    # an empty report would read as all-consistent
    for n_max in (0, -3):
        with pytest.raises(ValueError, match="n_max"):
            quorum_safety_sweep(n_max)


def test_config_json_roundtrip():
    cfg = check_config_from_json(
        {"quorum": {"kind": "majority", "n": 3}, "ballots": 3, "values": 2}
    )
    assert cfg.quorum == make_majority(3)
    assert cfg.ballots == 3
    assert cfg.values == ("a", "b")

    cfg = check_config_from_json({"n": 2, "q1_sets": [[0]], "q2_sets": [[1]]})
    assert cfg.quorum == make_explicit(2, [[0]], [[1]])

    # absent keys keep the CheckConfig defaults; unknown keys are named
    assert check_config_from_json({"quorum": {"kind": "majority", "n": 3}}) == CheckConfig(
        make_majority(3)
    )
    with pytest.raises(ValueError, match="max_state"):
        check_config_from_json({"quorum": {"kind": "majority", "n": 3}, "max_state": 10})


def test_config_json_missing_or_ill_typed_values_are_named():
    with pytest.raises(ValueError, match="q2_sets"):
        check_config_from_json({"n": 2, "q1_sets": [[0]]})
    with pytest.raises(ValueError, match="ballots"):
        check_config_from_json({"quorum": {"kind": "majority", "n": 3}, "ballots": "2"})
    with pytest.raises(ValueError, match="symmetry"):  # "no" is truthy
        check_config_from_json({"quorum": {"kind": "majority", "n": 3}, "symmetry": "no"})


def test_cli_check_flag_overrides_config_file(capsys, tmp_path):
    path = tmp_path / "check.json"
    path.write_text(json.dumps({"quorum": {"kind": "majority", "n": 3}, "ballots": 2}))
    assert main(["check", "--config", str(path), "--ballots", "3"]) == 0
    assert f"states explored : {STATE_COUNTS['majority3_b3']}\n" in capsys.readouterr().out
    # the quorum flags replace a family given flat, too
    path.write_text(json.dumps({"n": 2, "q1_sets": [[0]], "q2_sets": [[1]], "ballots": 3}))
    assert main(["check", "--config", str(path), "--kind", "majority", "--n", "3"]) == 0
    assert f"states explored : {STATE_COUNTS['majority3_b3']}\n" in capsys.readouterr().out


def test_counterexample_jsonl_shape():
    res = explore(DISJOINT)
    text = counterexample_jsonl(res.violation, DISJOINT)
    lines = [json.loads(l) for l in text.splitlines()]
    assert lines[0] == {"violated": "agreement"}
    assert all("action" in l for l in lines[1:])
    # round-trip stability
    assert counterexample_jsonl(res.violation, DISJOINT) == text


def test_action_json_forms():
    cfg = CheckConfig(make_majority(3), ballots=2)
    assert action_json(("prepare", 1), cfg) == {"action": "prepare", "ballot": [2, 1]}
    assert action_json(("promise", 2, 0), cfg) == {
        "action": "promise",
        "acceptor": 2,
        "ballot": [1, 0],
    }
    assert action_json(("propose", 0, 1, (0, 2)), cfg) == {
        "action": "propose",
        "ballot": [1, 0],
        "value": "b",
        "quorum": [0, 2],
    }
    assert action_json(("accept", 1, 0, 0), cfg) == {
        "action": "accept",
        "acceptor": 1,
        "ballot": [1, 0],
        "value": "a",
    }


def test_ballot_bound_simple_q2_one():
    # tiny replication quorum: still safe because |Q1| = n
    res = explore(CheckConfig(make_simple(3, 1), ballots=2))
    assert res.complete and res.violation is None
