"""Quorum systems for two-phase consensus.

A quorum system decides which acceptor sets may act as a phase-1 quorum
(leader election / recovery) or as a phase-2 quorum (replication).  The
only structural property safety needs is that every phase-1 quorum
intersects every phase-2 quorum; quorums from the same phase never have
to overlap.

Shipped families:

* ``majority`` -- classic majorities for both phases.
* ``even-improved-majority`` -- keeps |Q1| = floor(n/2)+1 but shrinks
  |Q2| to ceil(n/2), which drops phase 2 by one acceptor when n is even
  (and degenerates to classic majorities when n is odd).
* ``simple`` -- threshold pair with a chosen |Q2| and the minimal
  |Q1| = n - |Q2| + 1 that still guarantees cross-phase intersection.
* ``grid-paxos`` / ``grid-fpaxos`` -- acceptors arranged row-major in a
  rows x cols grid.  The fpaxos variant uses one complete row for Q1 and
  one complete column for Q2; the paxos variant uses a row plus a column
  for both phases.
* ``explicit`` -- hand-listed set families, used by the checker's
  falsification catalogs.

All predicates are upward closed: any superset of a quorum is a quorum.

Each system compiles once, on first use, to one form per phase: a size
threshold for threshold kinds (their C(n, k) generators are never
enumerated), else the generators as frozensets and as bitmasks (bit a is
acceptor a), in ``generators()`` order.  ``is_q1``/``is_q2`` and
``select_quorum`` test sets against it; ``is_q1_mask``/``is_q2_mask`` test
bitmasks, for the simulator's safety check and the checker.  The compiled
form is derived state, outside equality, hashing and serialization.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Optional, Sequence

AcceptorId = int
AcceptorSet = frozenset  # of AcceptorId

MAJORITY = "majority"
IMPROVED_MAJORITY = "even-improved-majority"
SIMPLE = "simple"
GRID_PAXOS = "grid-paxos"
GRID_FPAXOS = "grid-fpaxos"
EXPLICIT = "explicit"

_THRESHOLD_KINDS = (MAJORITY, IMPROVED_MAJORITY, SIMPLE)
STRATEGIES = ("first", "rotating", "random", "fastest")
MAX_ENUM = 5_000_000  # generator families larger than this are unverifiable
MAX_N_EXHAUSTIVE = 20  # explicit families larger than this get no tolerance report


class UnverifiableError(Exception):
    """An exhaustive check would exceed the configured size limit."""


class _Phase:
    """One phase of a quorum system in compiled form.

    ``threshold`` is set for threshold kinds; otherwise ``gens`` lists the
    generators and ``masks`` the same sets as bitmasks.
    """

    __slots__ = ("threshold", "gens", "masks")

    def __init__(self, threshold: Optional[int], gens: tuple = ()):
        self.threshold = threshold
        self.gens = gens
        self.masks = tuple(sum(1 << a for a in g) for g in gens)

    def holds(self, s: frozenset) -> bool:
        if self.threshold is not None:
            return len(s) >= self.threshold
        return any(g <= s for g in self.gens)

    def holds_mask(self, m: int) -> bool:
        if self.threshold is not None:
            return m.bit_count() >= self.threshold
        return any(g & m == g for g in self.masks)


@dataclass(frozen=True)
class QuorumSystem:
    """Immutable description of a phase-1/phase-2 quorum family.

    Use the ``make_*`` constructors instead of instantiating directly;
    they validate parameters.
    """

    kind: str
    n: int
    q2_size: Optional[int] = None
    rows: Optional[int] = None
    cols: Optional[int] = None
    q1_sets: Optional[tuple] = None  # explicit kind only
    q2_sets: Optional[tuple] = None

    @cached_property
    def universe(self) -> AcceptorSet:
        return frozenset(range(self.n))

    @cached_property
    def _phases(self) -> tuple:
        """The compiled form of phases 1 and 2, built on first use."""
        if self.kind in _THRESHOLD_KINDS:
            return (_Phase(self._threshold(1)), _Phase(self._threshold(2)))
        if self.kind == GRID_FPAXOS:
            rows = tuple(self.row(r) for r in range(self.rows))
            cols = tuple(self.col(c) for c in range(self.cols))
            return (_Phase(None, rows), _Phase(None, cols))
        if self.kind == GRID_PAXOS:
            both = _Phase(None, tuple(
                self.row(r) | self.col(c) for r in range(self.rows) for c in range(self.cols)
            ))
            return (both, both)
        return (_Phase(None, self.q1_sets), _Phase(None, self.q2_sets))

    # -- thresholds ---------------------------------------------------

    def _threshold(self, phase: int) -> int:
        if self.kind == MAJORITY:
            return self.n // 2 + 1
        if self.kind == IMPROVED_MAJORITY:
            return self.n // 2 + 1 if phase == 1 else (self.n + 1) // 2
        if self.kind == SIMPLE:
            return self.n - self.q2_size + 1 if phase == 1 else self.q2_size
        raise AssertionError(self.kind)

    def min_q1_size(self) -> int:
        """Size of the smallest valid phase-1 quorum."""
        if self.kind in _THRESHOLD_KINDS:
            return self._threshold(1)
        return min(len(g) for g in self._phases[0].gens)

    def min_q2_size(self) -> int:
        """Size of the smallest valid phase-2 quorum."""
        if self.kind in _THRESHOLD_KINDS:
            return self._threshold(2)
        return min(len(g) for g in self._phases[1].gens)

    # -- grid geometry ------------------------------------------------

    def row(self, r: int) -> AcceptorSet:
        """Acceptors in grid row r (row-major id layout)."""
        return frozenset(r * self.cols + c for c in range(self.cols))

    def col(self, c: int) -> AcceptorSet:
        """Acceptors in grid column c."""
        return frozenset(r * self.cols + c for r in range(self.rows))

    # -- membership predicates ----------------------------------------

    def _check_members(self, s) -> frozenset:
        s = frozenset(s)
        if not s <= self.universe:
            raise ValueError(
                f"acceptors {sorted(s - self.universe)} outside universe [0, {self.n})"
            )
        return s

    def is_q1(self, s) -> bool:
        """True iff ``s`` contains a valid phase-1 quorum."""
        return self._phases[0].holds(self._check_members(s))

    def is_q2(self, s) -> bool:
        """True iff ``s`` contains a valid phase-2 quorum."""
        return self._phases[1].holds(self._check_members(s))

    def is_q1_mask(self, m: int) -> bool:
        """``is_q1`` over a bitmask of acceptor ids; ``m`` must lie in the universe."""
        return self._phases[0].holds_mask(m)

    def is_q2_mask(self, m: int) -> bool:
        """``is_q2`` over a bitmask of acceptor ids; ``m`` must lie in the universe."""
        return self._phases[1].holds_mask(m)

    def is_quorum(self, phase: int, s) -> bool:
        return self.is_q1(s) if phase == 1 else self.is_q2(s)

    # -- generators: sets whose upward closure is the whole family -----

    def generators(self, phase: int) -> Iterator[AcceptorSet]:
        if self.kind in _THRESHOLD_KINDS:
            k = self._threshold(phase)
            for combo in itertools.combinations(range(self.n), k):
                yield frozenset(combo)
        else:
            yield from self._phases[phase - 1].gens

    def generator_count(self, phase: int) -> int:
        if self.kind in _THRESHOLD_KINDS:
            return math.comb(self.n, self._threshold(phase))
        return len(self._phases[phase - 1].gens)

    # -- serialization --------------------------------------------------

    def to_json(self) -> dict:
        d = {"kind": self.kind, "n": self.n}
        if self.kind == SIMPLE:
            d["q2_size"] = self.q2_size
        elif self.kind in (GRID_PAXOS, GRID_FPAXOS):
            d["rows"] = self.rows
            d["cols"] = self.cols
        elif self.kind == EXPLICIT:
            d["q1_sets"] = [sorted(q) for q in self.q1_sets]
            d["q2_sets"] = [sorted(q) for q in self.q2_sets]
        return d

    @staticmethod
    def from_json(d: dict) -> "QuorumSystem":
        """Inverse of ``to_json``; a missing or ill-typed key is a ``ValueError`` naming it."""
        if not isinstance(d, dict):
            raise ValueError(f"quorum must be a JSON object, got {d!r}")

        def entry(key, valid, what):
            if key not in d:
                raise ValueError(f"quorum needs key {key!r}")
            if not valid(d[key]):
                raise ValueError(f"quorum key {key!r} must be {what}, got {d[key]!r}")
            return d[key]

        def count(key):
            return entry(key, lambda x: type(x) is int, "an integer")

        def sets(key):
            return entry(key, is_id_lists, "a list of lists of acceptor ids")

        kind = entry("kind", lambda x: isinstance(x, str), "a string")
        if kind == MAJORITY:
            return make_majority(count("n"))
        if kind == IMPROVED_MAJORITY:
            return make_majority(count("n"), improved=True)
        if kind == SIMPLE:
            return make_simple(count("n"), count("q2_size"))
        if kind in (GRID_PAXOS, GRID_FPAXOS):
            mode = "paxos" if kind == GRID_PAXOS else "fpaxos"
            return make_grid(count("rows"), count("cols"), mode=mode)
        if kind == EXPLICIT:
            return make_explicit(count("n"), sets("q1_sets"), sets("q2_sets"))
        raise ValueError(f"unknown quorum kind {kind!r}")

    def describe(self) -> str:
        if self.kind in (GRID_PAXOS, GRID_FPAXOS):
            return f"{self.kind}({self.rows}x{self.cols})"
        if self.kind == SIMPLE:
            return f"simple(n={self.n},q2={self.q2_size})"
        if self.kind == EXPLICIT:
            return f"explicit(n={self.n})"
        return f"{self.kind}(n={self.n})"


def is_id_lists(x) -> bool:
    """True when ``x`` is a list of lists of integer ids, as JSON gives them."""
    return isinstance(x, (list, tuple)) and all(
        isinstance(q, (list, tuple)) and all(type(a) is int for a in q) for q in x
    )


# -- constructors -------------------------------------------------------


def make_majority(n: int, improved: bool = False) -> QuorumSystem:
    """Majority quorums; ``improved`` shrinks |Q2| to ceil(n/2).

    For even n the improved variant lowers the phase-2 threshold by one
    acceptor; for odd n it coincides with classic majorities.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    return QuorumSystem(kind=IMPROVED_MAJORITY if improved else MAJORITY, n=n)


def make_simple(n: int, q2_size: int) -> QuorumSystem:
    """Threshold pair with |Q2| = q2_size and |Q1| = n - q2_size + 1."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if not 1 <= q2_size <= n:
        raise ValueError(f"q2_size must be in [1, {n}], got {q2_size}")
    return QuorumSystem(kind=SIMPLE, n=n, q2_size=q2_size)


def make_grid(rows: int, cols: int, mode: str = "fpaxos") -> QuorumSystem:
    """Grid quorums over rows*cols acceptors laid out row-major.

    ``fpaxos`` mode: Q1 = any complete row, Q2 = any complete column.
    ``paxos`` mode: both phases require a complete row plus a complete
    column.
    """
    if rows < 1 or cols < 1:
        raise ValueError("rows and cols must be >= 1")
    if mode not in ("paxos", "fpaxos"):
        raise ValueError(f"mode must be 'paxos' or 'fpaxos', got {mode!r}")
    kind = GRID_PAXOS if mode == "paxos" else GRID_FPAXOS
    return QuorumSystem(kind=kind, n=rows * cols, rows=rows, cols=cols)


def make_explicit(n: int, q1_sets, q2_sets) -> QuorumSystem:
    """Quorum system generated by explicitly listed acceptor sets."""
    if n < 1:
        raise ValueError("n must be >= 1")

    def canon(sets, name):
        out = []
        for q in sets:
            q = frozenset(q)
            if not q:
                raise ValueError(f"{name} contains an empty set")
            if not q <= frozenset(range(n)):
                raise ValueError(f"{name} member outside [0, {n})")
            out.append(q)
        if not out:
            raise ValueError(f"{name} must list at least one set")
        return tuple(sorted(set(out), key=sorted))

    return QuorumSystem(
        kind=EXPLICIT,
        n=n,
        q1_sets=canon(q1_sets, "q1_sets"),
        q2_sets=canon(q2_sets, "q2_sets"),
    )


# -- validation and fault tolerance --------------------------------------


def validate_cross_intersection(qs: QuorumSystem) -> bool:
    """True iff every phase-1 quorum intersects every phase-2 quorum.

    Exact by upward closure: some Q1 and Q2 are disjoint iff the
    complement of a generating Q1 still contains a Q2.  Raises
    :class:`UnverifiableError` instead of silently passing when the
    generator family is too large to enumerate.
    """
    count = qs.generator_count(1)
    if count > MAX_ENUM:
        raise UnverifiableError(
            f"{count} phase-1 quorum generators exceed the enumeration "
            f"limit of {MAX_ENUM}; intersection unverifiable at this size"
        )
    universe = qs.universe
    return all(not qs.is_q2(universe - g) for g in qs.generators(1))


def find_disjoint_pair(qs: QuorumSystem):
    """A witness (q1, q2) pair with empty intersection, or None."""
    if qs.generator_count(1) > MAX_ENUM or qs.generator_count(2) > MAX_ENUM:
        raise UnverifiableError("quorum family too large to enumerate")
    universe = qs.universe
    for g1 in qs.generators(1):
        rest = universe - g1
        if qs.is_q2(rest):
            for g2 in qs.generators(2):
                if g2 <= rest:
                    return g1, g2
    return None


@dataclass(frozen=True)
class FaultToleranceReport:
    """Failure counts a quorum system can absorb.

    ``guaranteed_f``: the largest f such that after *every* possible set
    of f failures both a Q1 and a Q2 can still form.
    ``phase2_only_max_f``: the largest f such that *some* placement of f
    failures leaves a Q2 formable (replication can continue while no new
    leader is needed).
    ``best_case_f``: the largest f such that some placement leaves both
    a Q1 and a Q2 formable.
    """

    guaranteed_f: int
    phase2_only_max_f: int
    best_case_f: int


def failure_tolerance(qs: QuorumSystem) -> FaultToleranceReport:
    """Compute the tolerance report; closed forms for shipped kinds.

    Explicit families fall back to exhaustive failure-set enumeration,
    which is limited to n <= ``MAX_N_EXHAUSTIVE``.
    """
    n = qs.n
    if qs.kind in _THRESHOLD_KINDS:
        q1, q2 = qs._threshold(1), qs._threshold(2)
        both = n - max(q1, q2)
        return FaultToleranceReport(
            guaranteed_f=both, phase2_only_max_f=n - q2, best_case_f=both
        )
    if qs.kind == GRID_FPAXOS:
        # Cheapest way to kill all rows is one full column (rows failures),
        # and symmetrically for columns; best case keeps one row + one column.
        return FaultToleranceReport(
            guaranteed_f=min(qs.rows, qs.cols) - 1,
            phase2_only_max_f=n - qs.rows,
            best_case_f=n - (qs.rows + qs.cols - 1),
        )
    if qs.kind == GRID_PAXOS:
        keep = n - (qs.rows + qs.cols - 1)
        return FaultToleranceReport(
            guaranteed_f=min(qs.rows, qs.cols) - 1,
            phase2_only_max_f=keep,
            best_case_f=keep,
        )
    if n > MAX_N_EXHAUSTIVE:
        raise UnverifiableError(
            f"exhaustive failure enumeration limited to n <= {MAX_N_EXHAUSTIVE}"
        )
    return _exhaustive_tolerance(qs)


def _exhaustive_tolerance(qs: QuorumSystem) -> FaultToleranceReport:
    universe = qs.universe
    n = qs.n

    def survives(alive, phase):
        # Upward closure: a quorum is formable iff the whole alive set passes.
        return qs.is_quorum(phase, alive)

    guaranteed = -1
    for f in range(n + 1):
        if all(
            survives(universe - frozenset(dead), 1) and survives(universe - frozenset(dead), 2)
            for dead in itertools.combinations(range(n), f)
        ):
            guaranteed = f
        else:
            break

    def best(phases):
        for f in range(n, -1, -1):
            for dead in itertools.combinations(range(n), f):
                alive = universe - frozenset(dead)
                if all(survives(alive, p) for p in phases):
                    return f
        return -1

    return FaultToleranceReport(
        guaranteed_f=max(guaranteed, 0),
        phase2_only_max_f=best([2]),
        best_case_f=best([1, 2]),
    )


# -- quorum selection (used by the simulator's senders) -------------------


def select_quorum(
    qs: QuorumSystem,
    phase: int,
    alive,
    strategy: str = "first",
    tick: int = 0,
    rng: Optional[random.Random] = None,
    latency: Optional[Sequence[int]] = None,
):
    """Pick one minimal phase quorum from the alive acceptors, or None.

    Strategies: ``first`` (lowest ids / lowest index), ``rotating``
    (advance with ``tick``), ``random`` (seeded ``rng``), ``fastest``
    (smallest ``latency`` values, ties by id).
    """
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}")
    if strategy == "random" and rng is None:
        raise ValueError("strategy 'random' needs a seeded rng")
    if strategy == "fastest" and latency is None:
        raise ValueError("strategy 'fastest' needs a latency map")
    alive_set = qs._check_members(alive)
    compiled = qs._phases[phase - 1]
    if compiled.threshold is not None:
        k = compiled.threshold
        alive = sorted(alive_set)
        if len(alive) < k:
            return None
        if strategy == "first":
            return frozenset(alive[:k])
        if strategy == "rotating":
            start = tick % len(alive)
            return frozenset(alive[(start + i) % len(alive)] for i in range(k))
        if strategy == "random":
            return frozenset(rng.sample(alive, k))
        return frozenset(sorted(alive, key=lambda a: (latency[a], a))[:k])
    candidates = [g for g in compiled.gens if g <= alive_set]
    if not candidates:
        return None
    if strategy == "first":
        return candidates[0]
    if strategy == "rotating":
        return candidates[tick % len(candidates)]
    if strategy == "random":
        return rng.choice(candidates)
    best = min(
        range(len(candidates)),
        key=lambda i: (max(latency[a] for a in candidates[i]), i),
    )
    return candidates[best]
