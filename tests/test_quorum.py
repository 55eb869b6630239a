import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fpaxos.quorum import (
    FaultToleranceReport,
    QuorumSystem,
    UnverifiableError,
    failure_tolerance,
    find_disjoint_pair,
    make_explicit,
    make_grid,
    make_majority,
    make_simple,
    select_quorum,
    validate_cross_intersection,
)

# ---------------------------------------------------------------- oracles
#
# Independent brute-force oracles.  They only use the public membership
# predicates and full powerset enumeration, never the closed forms under
# test.


def subsets(n):
    for mask in range(1 << n):
        yield frozenset(i for i in range(n) if mask >> i & 1)


def oracle_cross_intersection(qs):
    q1s = [s for s in subsets(qs.n) if qs.is_q1(s)]
    q2s = [s for s in subsets(qs.n) if qs.is_q2(s)]
    return all(s1 & s2 for s1 in q1s for s2 in q2s)


def oracle_tolerance(qs):
    n = qs.n
    universe = frozenset(range(n))

    def every(f, phases):
        return all(
            all(qs.is_quorum(p, universe - frozenset(dead)) for p in phases)
            for dead in itertools.combinations(range(n), f)
        )

    def some(f, phases):
        return any(
            all(qs.is_quorum(p, universe - frozenset(dead)) for p in phases)
            for dead in itertools.combinations(range(n), f)
        )

    guaranteed = max((f for f in range(n + 1) if every(f, (1, 2))), default=0)
    phase2 = max((f for f in range(n + 1) if some(f, (2,))), default=0)
    best = max((f for f in range(n + 1) if some(f, (1, 2))), default=0)
    return FaultToleranceReport(guaranteed, phase2, best)


# ------------------------------------------------------------ constructors


def test_majority_sizes():
    qs = make_majority(4, improved=True)
    assert (qs.min_q1_size(), qs.min_q2_size()) == (3, 2)
    assert make_majority(1).min_q1_size() == 1
    assert make_majority(1).min_q2_size() == 1
    qs6 = make_majority(6, improved=True)
    assert (qs6.min_q1_size(), qs6.min_q2_size()) == (4, 3)
    # every 4-set meets every 3-set over 6 acceptors
    assert oracle_cross_intersection(qs6)


def test_improved_majority_degenerates_for_odd_n():
    for n in (1, 3, 5, 7):
        imp, classic = make_majority(n, improved=True), make_majority(n)
        assert imp.min_q1_size() == classic.min_q1_size()
        assert imp.min_q2_size() == classic.min_q2_size()


def test_simple_sizes():
    assert make_simple(10, 3).min_q1_size() == 8
    assert make_simple(7, 7).min_q1_size() == 1
    qs = make_simple(5, 2)
    assert qs.min_q1_size() == 4
    assert oracle_cross_intersection(qs)


def test_simple_rejects_bad_q2():
    with pytest.raises(ValueError):
        make_simple(3, 4)
    with pytest.raises(ValueError):
        make_simple(3, 0)


def test_grid_sizes():
    paxos = make_grid(4, 5, mode="paxos")
    assert paxos.min_q1_size() == 8
    assert paxos.min_q2_size() == 8
    fp = make_grid(4, 5, mode="fpaxos")
    assert (fp.min_q1_size(), fp.min_q2_size()) == (5, 4)
    one = make_grid(1, 1, mode="fpaxos")
    assert one.is_q1({0}) and one.is_q2({0})


def test_grid_rejects_bad_params():
    with pytest.raises(ValueError):
        make_grid(0, 3)
    with pytest.raises(ValueError):
        make_grid(2, 2, mode="diagonal")


# ------------------------------------------------------------- membership


def test_membership_examples():
    qs = make_majority(4, improved=True)
    assert qs.is_q2({0, 1})
    assert qs.is_q1({1, 2, 3})
    assert not qs.is_q1({1, 2})

    grid = make_grid(4, 5, mode="fpaxos")
    assert grid.is_q2(grid.col(2))
    # four acceptors spanning two columns are never a Q2
    assert not grid.is_q2({0, 5, 11, 16})


def test_membership_outside_universe_raises():
    qs = make_majority(3)
    with pytest.raises(ValueError):
        qs.is_q1({0, 5})
    with pytest.raises(ValueError):
        qs.is_q2({-1})


@given(
    n=st.integers(1, 9),
    seed=st.integers(0, 2**32 - 1),
)
def test_membership_monotone_under_superset(n, seed):
    import random

    rng = random.Random(seed)
    qs = rng.choice(
        [
            make_majority(n),
            make_majority(n, improved=True),
            make_simple(n, rng.randint(1, n)),
        ]
    )
    small = frozenset(a for a in range(n) if rng.random() < 0.5)
    extra = frozenset(a for a in range(n) if rng.random() < 0.5)
    big = small | extra
    if qs.is_q1(small):
        assert qs.is_q1(big)
    if qs.is_q2(small):
        assert qs.is_q2(big)


def test_grid_membership_monotone():
    qs = make_grid(3, 4, mode="fpaxos")
    for r in range(3):
        base = qs.row(r)
        assert qs.is_q1(base)
        assert qs.is_q1(base | {0, 5})


# ------------------------------------- compiled form against the definitions


@st.composite
def small_quorum_systems(draw):
    """Every kind over n <= 6, with random explicit families."""
    kind = draw(
        st.sampled_from(["majority", "improved", "simple", "grid-paxos", "grid-fpaxos", "explicit"])
    )
    if kind.startswith("grid"):
        rows = draw(st.integers(1, 3))
        cols = draw(st.integers(1, 6 // rows))
        return make_grid(rows, cols, mode=kind[5:])
    n = draw(st.integers(1, 6))
    if kind == "majority":
        return make_majority(n)
    if kind == "improved":
        return make_majority(n, improved=True)
    if kind == "simple":
        return make_simple(n, draw(st.integers(1, n)))
    family = st.lists(st.frozensets(st.integers(0, n - 1), min_size=1), min_size=1, max_size=5)
    return make_explicit(n, draw(family), draw(family))


def plain_generators(qs, phase):
    """Minimal quorums straight from each kind's definition, or None for thresholds."""
    if qs.kind in ("majority", "even-improved-majority", "simple"):
        return None
    if qs.kind == "explicit":
        return list(qs.q1_sets if phase == 1 else qs.q2_sets)
    rows = [frozenset(r * qs.cols + c for c in range(qs.cols)) for r in range(qs.rows)]
    cols = [frozenset(r * qs.cols + c for r in range(qs.rows)) for c in range(qs.cols)]
    if qs.kind == "grid-paxos":
        return [row | col for row in rows for col in cols]
    return rows if phase == 1 else cols


def plain_is_quorum(qs, phase, s):
    gens = plain_generators(qs, phase)
    if gens is None:
        return len(s) >= (qs.min_q1_size() if phase == 1 else qs.min_q2_size())
    return any(g <= s for g in gens)


def plain_select(qs, phase, alive, strategy, tick, rng, latency):
    """The selection rule of each strategy over the definitions above."""
    gens = plain_generators(qs, phase)
    if gens is None:
        k = qs.min_q1_size() if phase == 1 else qs.min_q2_size()
        alive = sorted(alive)
        if len(alive) < k:
            return None
        if strategy == "first":
            return frozenset(alive[:k])
        if strategy == "rotating":
            return frozenset(alive[(tick + i) % len(alive)] for i in range(k))
        if strategy == "random":
            return frozenset(rng.sample(alive, k))
        return frozenset(sorted(alive, key=lambda a: (latency[a], a))[:k])
    candidates = [g for g in gens if g <= alive]
    if not candidates:
        return None
    if strategy == "first":
        return candidates[0]
    if strategy == "rotating":
        return candidates[tick % len(candidates)]
    if strategy == "random":
        return rng.choice(candidates)
    return min(candidates, key=lambda g: max(latency[a] for a in g))


@settings(deadline=None, max_examples=150)
@given(qs=small_quorum_systems(), data=st.data())
def test_compiled_predicates_match_definitions(qs, data):
    import random

    n = qs.n
    tick = data.draw(st.integers(0, 50))
    seed = data.draw(st.integers(0, 2**32 - 1))
    latency = data.draw(st.lists(st.integers(0, 5), min_size=n, max_size=n))
    for mask in range(1 << n):
        s = frozenset(a for a in range(n) if mask >> a & 1)
        for phase, is_q, is_q_mask in ((1, qs.is_q1, qs.is_q1_mask), (2, qs.is_q2, qs.is_q2_mask)):
            want = plain_is_quorum(qs, phase, s)
            assert is_q(s) == want
            assert is_q_mask(mask) == want
            assert qs.is_quorum(phase, s) == want
            for strategy in ("first", "rotating", "random", "fastest"):
                got = select_quorum(
                    qs, phase, s, strategy=strategy, tick=tick,
                    rng=random.Random(seed), latency=latency,
                )
                assert got == plain_select(
                    qs, phase, s, strategy, tick, random.Random(seed), latency
                )
    for bad in ({n}, {-1}, {0, n + 3}):
        for call in (qs.is_q1, qs.is_q2, lambda b: select_quorum(qs, 1, b)):
            with pytest.raises(ValueError):
                call(bad)
    # the compiled form is derived state: an uncompiled twin is equal
    twin = QuorumSystem.from_json(qs.to_json())
    assert twin == qs and hash(twin) == hash(qs) and twin.to_json() == qs.to_json()


# ------------------------------------------------- cross-phase intersection


def test_validate_examples():
    assert validate_cross_intersection(make_majority(4, improved=True))
    assert validate_cross_intersection(make_grid(4, 5, mode="fpaxos"))
    disjoint = make_explicit(2, [[0]], [[1]])
    assert not validate_cross_intersection(disjoint)
    assert find_disjoint_pair(disjoint) == (frozenset({0}), frozenset({1}))


def test_validate_matches_powerset_oracle_small():
    cases = [
        make_majority(5),
        make_majority(6, improved=True),
        make_simple(7, 2),
        make_simple(6, 6),
        make_grid(2, 3, mode="fpaxos"),
        make_grid(3, 2, mode="paxos"),
        make_explicit(4, [[0, 1]], [[2, 3]]),
        make_explicit(4, [[0, 1], [2, 3]], [[1, 2], [0, 3]]),
    ]
    for qs in cases:
        assert validate_cross_intersection(qs) == oracle_cross_intersection(qs)


def test_validate_all_constructors_up_to_12():
    for n in range(1, 13):
        assert validate_cross_intersection(make_majority(n))
        assert validate_cross_intersection(make_majority(n, improved=True))
        for q2 in range(1, n + 1):
            assert validate_cross_intersection(make_simple(n, q2))
        for rows in range(1, n + 1):
            if n % rows == 0:
                cols = n // rows
                assert validate_cross_intersection(make_grid(rows, cols, "fpaxos"))
                assert validate_cross_intersection(make_grid(rows, cols, "paxos"))


def test_validate_oracle_at_n12():
    for qs in (make_majority(12), make_simple(12, 3), make_grid(3, 4, "fpaxos")):
        assert oracle_cross_intersection(qs)


def test_validate_unverifiable_at_large_n():
    with pytest.raises(UnverifiableError):
        validate_cross_intersection(make_simple(40, 10))
    with pytest.raises(UnverifiableError):
        find_disjoint_pair(make_simple(40, 10))
    with pytest.raises(UnverifiableError):
        failure_tolerance(make_explicit(21, [[0]], [[0]]))


def test_paxos_equivalence_for_odd_n():
    # For odd n, simple(n, floor(n/2)+1) accepts exactly the same sets as
    # classic majorities.  (For even n the derived |Q1| is one smaller, so
    # the families differ; see decision notes.)
    for n in (1, 3, 5, 7):
        simple = make_simple(n, n // 2 + 1)
        classic = make_majority(n)
        for s in subsets(n):
            assert simple.is_q1(s) == classic.is_q1(s)
            assert simple.is_q2(s) == classic.is_q2(s)


def test_grid_fpaxos_same_phase_minimal_quorums_disjoint():
    qs = make_grid(4, 5, mode="fpaxos")
    rows = list(qs.generators(1))
    cols = list(qs.generators(2))
    for a, b in itertools.combinations(rows, 2):
        assert not a & b
    for a, b in itertools.combinations(cols, 2):
        assert not a & b


# --------------------------------------------------------- fault tolerance


def test_tolerance_examples():
    rep = failure_tolerance(make_simple(10, 3))
    assert rep.guaranteed_f == 2
    assert rep.phase2_only_max_f == 7

    rep = failure_tolerance(make_majority(4, improved=True))
    assert rep.guaranteed_f == 1
    assert rep.phase2_only_max_f == 2

    rep = failure_tolerance(make_grid(4, 5, mode="paxos"))
    # Worst placement first blocks progress at min(rows, cols) failures;
    # best placement keeps one row plus one column alive.
    assert rep.guaranteed_f + 1 == 4
    assert rep.best_case_f == 12

    rep = failure_tolerance(make_grid(4, 5, mode="fpaxos"))
    assert rep.guaranteed_f == 3
    assert rep.phase2_only_max_f == 16
    assert rep.best_case_f == 12


@settings(deadline=None, max_examples=60)
@given(n=st.integers(1, 7), q2=st.integers(1, 7))
def test_tolerance_closed_form_matches_oracle_threshold(n, q2):
    q2 = min(q2, n)
    for qs in (make_simple(n, q2), make_majority(n), make_majority(n, improved=True)):
        assert failure_tolerance(qs) == oracle_tolerance(qs)


@pytest.mark.parametrize("rows,cols", [(1, 1), (1, 4), (3, 1), (2, 3), (3, 3), (2, 4)])
@pytest.mark.parametrize("mode", ["paxos", "fpaxos"])
def test_tolerance_closed_form_matches_oracle_grid(rows, cols, mode):
    qs = make_grid(rows, cols, mode=mode)
    assert failure_tolerance(qs) == oracle_tolerance(qs)


def test_tolerance_explicit_exhaustive():
    qs = make_explicit(3, [[0, 1], [1, 2], [0, 2]], [[0], [1], [2]])
    assert failure_tolerance(qs) == oracle_tolerance(qs)


def test_simple_guaranteed_formula_in_small_q2_regime():
    # With |Q2| <= |Q1| (the configuration simple quorums are built for),
    # the system always rides out exactly |Q2| - 1 failures.
    for n in range(1, 13):
        for q2 in range(1, (n + 1) // 2 + 1):
            assert failure_tolerance(make_simple(n, q2)).guaranteed_f == q2 - 1


def test_improved_majority_even_cluster_guarantees():
    # even n: guaranteed progress through n/2 - 1 failures, and phase 2
    # alone still rides out exactly n/2
    for n in (2, 4, 6, 8, 10, 12):
        rep = failure_tolerance(make_majority(n, improved=True))
        assert rep.guaranteed_f == n // 2 - 1
        assert rep.phase2_only_max_f == n // 2
        classic = failure_tolerance(make_majority(n))
        assert classic.phase2_only_max_f == n // 2 - 1  # one fewer than improved


def test_report_invariants():
    for qs in (make_simple(9, 4), make_grid(3, 4, "fpaxos"), make_majority(8)):
        rep = failure_tolerance(qs)
        assert 0 <= rep.guaranteed_f <= rep.best_case_f <= qs.n
        assert rep.best_case_f <= rep.phase2_only_max_f <= qs.n


# ------------------------------------------------------------ serialization


def test_json_roundtrip():
    systems = [
        make_majority(5),
        make_majority(6, improved=True),
        make_simple(10, 3),
        make_grid(4, 5, "paxos"),
        make_grid(4, 5, "fpaxos"),
        make_explicit(3, [[0, 1]], [[1, 2]]),
    ]
    for qs in systems:
        assert QuorumSystem.from_json(qs.to_json()) == qs


# --------------------------------------------------------------- selection


def test_select_threshold_strategies():
    import random

    qs = make_simple(6, 2)
    alive = {0, 1, 2, 3, 4, 5}
    assert select_quorum(qs, 2, alive) == frozenset({0, 1})
    assert select_quorum(qs, 2, alive, strategy="rotating", tick=4) == frozenset({4, 5})
    rng = random.Random(7)
    assert qs.is_q2(select_quorum(qs, 2, alive, strategy="random", rng=rng))
    lat = [50, 10, 40, 20, 30, 60]
    assert select_quorum(qs, 2, alive, strategy="fastest", latency=lat) == frozenset({1, 3})


def test_select_respects_alive_set():
    qs = make_majority(4, improved=True)
    assert select_quorum(qs, 2, {0, 3}) == frozenset({0, 3})
    assert select_quorum(qs, 1, {0, 3}) is None

    grid = make_grid(4, 5, mode="fpaxos")
    alive = set(range(20)) - set(grid.col(0))
    picked = select_quorum(grid, 2, alive)
    assert picked == grid.col(1)
    # a whole row dead blocks every column
    assert select_quorum(grid, 2, set(range(20)) - set(grid.row(2))) is None
    assert select_quorum(grid, 1, set(range(20)) - set(grid.row(2))) == grid.row(0)


def test_select_grid_paxos_pairs():
    grid = make_grid(2, 3, mode="paxos")
    got = select_quorum(grid, 1, range(6))
    assert got == grid.row(0) | grid.col(0)
    assert select_quorum(grid, 2, {0, 1, 2, 3}) == grid.row(0) | grid.col(0)
