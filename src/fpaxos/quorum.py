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
enumerated), else the listed generators (grid rows and columns, or the
explicit sets) as frozensets and as bitmasks (bit a is acceptor a).
Sizes, membership, intersection, selection and fault tolerance all read
this form.  A phase stops exactly when the failed acceptors meet all its
quorums; the smallest such set, its transversal, is known for thresholds
and grids and searched for explicit sets, only when first asked.
``is_q1``/``is_q2`` are the one membership test: they take an acceptor
set as a bitmask (``mask_of`` builds one from ids).  ``select_quorum``
names destinations, so it takes and returns id sets.  The compiled form
is derived state, outside equality, hashing and serialization.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence

AcceptorSet = frozenset  # of acceptor ids

MAJORITY = "majority"
IMPROVED_MAJORITY = "even-improved-majority"
SIMPLE = "simple"
GRID_PAXOS = "grid-paxos"
GRID_FPAXOS = "grid-fpaxos"
EXPLICIT = "explicit"

STRATEGIES = ("first", "rotating", "random", "fastest")


def mask_of(ids) -> int:
    """The bitmask of an iterable of acceptor ids: bit a is acceptor a."""
    m = 0
    for a in ids:
        m |= 1 << a
    return m


class _Phase:
    """One phase of a quorum system in compiled form.

    ``threshold`` is set for threshold kinds; otherwise ``gens`` lists the
    generators and ``masks`` the same sets as bitmasks, over acceptors 0..n-1.
    """

    __slots__ = ("n", "threshold", "gens", "masks", "_transversal")

    def __init__(self, n: int, threshold: Optional[int], gens: tuple = (), transversal=None):
        self.n = n
        self.threshold = threshold
        self.gens = gens
        self.masks = tuple(mask_of(g) for g in gens)
        self._transversal = n - threshold + 1 if threshold is not None else transversal

    def holds(self, m: int) -> bool:
        if m < 0 or m >> self.n:
            raise ValueError(f"acceptor mask {m:#b} reaches outside universe [0, {self.n})")
        if self.threshold is not None:
            return m.bit_count() >= self.threshold
        for g in self.masks:  # a plain loop: no generator per test on the hot path
            if g & m == g:
                return True
        return False

    def min_size(self) -> int:
        """Size of the smallest quorum: the threshold, else the smallest generator."""
        if self.threshold is not None:
            return self.threshold
        return min(len(g) for g in self.gens)

    def transversal(self) -> int:
        """Size of the smallest acceptor set meeting every quorum, searched on first call."""
        if self._transversal is None:
            self._transversal = next(k for k in range(1, self.n + 1) if _meets_all(self.masks, k))
        return self._transversal

    def min_union(self, other: "_Phase") -> int:
        """Size of the smallest union of a quorum of this phase and one of ``other``."""
        if self.threshold is not None and other.threshold is not None:
            return max(self.threshold, other.threshold)
        if self is other:  # no union is smaller than its parts
            return self.min_size()
        return min((m1 | m2).bit_count() for m1 in self.masks for m2 in other.masks)


def _meets_all(masks, k: int, hit: int = 0) -> bool:
    """True iff adding at most ``k`` acceptors to ``hit`` meets every mask.

    Some member of the first mask still missed must join: branch on each.
    """
    missed = next((g for g in masks if not g & hit), 0)
    bits = (1 << a for a in range(missed.bit_length()) if missed >> a & 1)
    return not missed or k > 0 and any(_meets_all(masks, k - 1, hit | b) for b in bits)


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
        n = self.n
        if self.kind == MAJORITY:
            return (_Phase(n, n // 2 + 1), _Phase(n, n // 2 + 1))
        if self.kind == IMPROVED_MAJORITY:
            return (_Phase(n, n // 2 + 1), _Phase(n, (n + 1) // 2))
        if self.kind == SIMPLE:
            return (_Phase(n, n - self.q2_size + 1), _Phase(n, self.q2_size))
        if self.kind == GRID_FPAXOS:  # meeting every row (column) takes one acceptor in each
            rows = tuple(self.row(r) for r in range(self.rows))
            cols = tuple(self.col(c) for c in range(self.cols))
            return (_Phase(self.n, None, rows, self.rows), _Phase(self.n, None, cols, self.cols))
        if self.kind == GRID_PAXOS:
            both = _Phase(self.n, None, tuple(
                self.row(r) | self.col(c) for r in range(self.rows) for c in range(self.cols)
            ), min(self.rows, self.cols))  # a set smaller misses a row and a column
            return (both, both)
        return (_Phase(self.n, None, self.q1_sets), _Phase(self.n, None, self.q2_sets))

    def min_q1_size(self) -> int:
        """Size of the smallest valid phase-1 quorum."""
        return self._phases[0].min_size()

    def min_q2_size(self) -> int:
        """Size of the smallest valid phase-2 quorum."""
        return self._phases[1].min_size()

    # -- grid geometry ------------------------------------------------

    def row(self, r: int) -> AcceptorSet:
        """Acceptors in grid row r (row-major id layout)."""
        return frozenset(r * self.cols + c for c in range(self.cols))

    def col(self, c: int) -> AcceptorSet:
        """Acceptors in grid column c."""
        return frozenset(r * self.cols + c for r in range(self.rows))

    # -- membership predicates ----------------------------------------

    def is_q1(self, m: int) -> bool:
        """True iff the acceptor bitmask ``m`` contains a valid phase-1 quorum."""
        return self._phases[0].holds(m)

    def is_q2(self, m: int) -> bool:
        """True iff the acceptor bitmask ``m`` contains a valid phase-2 quorum."""
        return self._phases[1].holds(m)

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
        """Inverse of ``to_json``; a key missing, ill-typed or unread by the kind is an error.

        Errors are ``ValueError``s naming the key.  A grid may give ``n``, as
        ``to_json`` writes it, if it is rows x cols.
        """
        if not isinstance(d, dict):
            raise ValueError(f"quorum must be a JSON object, got {d!r}")
        read = set()

        def entry(key, valid, what):
            read.add(key)
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
        if kind in (MAJORITY, IMPROVED_MAJORITY):
            qs = make_majority(count("n"), improved=kind == IMPROVED_MAJORITY)
        elif kind == SIMPLE:
            qs = make_simple(count("n"), count("q2_size"))
        elif kind in (GRID_PAXOS, GRID_FPAXOS):
            mode = "paxos" if kind == GRID_PAXOS else "fpaxos"
            qs = make_grid(count("rows"), count("cols"), mode=mode)
            if "n" in d and count("n") != qs.n:
                raise ValueError(f"quorum key 'n' must be rows x cols = {qs.n}, got {d['n']!r}")
        elif kind == EXPLICIT:
            qs = make_explicit(count("n"), sets("q1_sets"), sets("q2_sets"))
        else:
            raise ValueError(f"unknown quorum kind {kind!r}")
        unread = sorted(set(d) - read)
        if unread:
            raise ValueError(f"quorum kind {kind!r} reads no key(s) {', '.join(unread)}")
        return qs

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
    """Quorum system generated by explicitly listed acceptor sets.

    Only the minimal listed sets are kept: a superset of another listed set
    is a quorum by upward closure anyway, and keeping it would let
    :func:`select_quorum` pick a quorum larger than it needs.
    """
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
        return tuple(sorted({q for q in out if not any(p < q for p in out)}, key=sorted))

    return QuorumSystem(
        kind=EXPLICIT,
        n=n,
        q1_sets=canon(q1_sets, "q1_sets"),
        q2_sets=canon(q2_sets, "q2_sets"),
    )


# -- validation and fault tolerance --------------------------------------


def validate_cross_intersection(qs: QuorumSystem) -> bool:
    """True iff every phase-1 quorum intersects every phase-2 quorum."""
    return find_disjoint_pair(qs) is None


def find_disjoint_pair(qs: QuorumSystem):
    """A witness (q1, q2) pair with empty intersection, or None.

    Exact by upward closure: some Q1 and Q2 are disjoint iff the
    complement of a phase-1 generator still contains a Q2.  The witness is
    the first such generator and the first phase-2 quorum inside its
    complement.  Threshold families are invariant under every permutation
    of the acceptors, so the first phase-1 quorum that ``select_quorum``
    picks stands for all of them, and |Q1| + |Q2| > n is decided at any n
    without enumeration.  Grids and explicit families test each listed
    generator.
    """
    phase1 = qs._phases[0]
    gens = phase1.gens if phase1.threshold is None else (select_quorum(qs, 1, qs.universe),)
    full = (1 << qs.n) - 1
    for g1 in gens:
        if qs.is_q2(full & ~mask_of(g1)):
            return g1, select_quorum(qs, 2, qs.universe - g1)
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
    """Compute the tolerance report from the compiled phases, one rule for every kind.

    A phase stops exactly when the failed acceptors meet every one of its
    quorums, so the smallest such set (its transversal) is its tolerance
    plus one.  Phase 2 alone survives while its smallest quorum does, and
    both phases while the smallest union of a phase-1 and a phase-2 quorum.
    """
    p1, p2 = qs._phases
    return FaultToleranceReport(
        min(p1.transversal(), p2.transversal()) - 1, qs.n - p2.min_size(), qs.n - p1.min_union(p2)
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
    alive_set = frozenset(alive)
    if not alive_set <= qs.universe:
        raise ValueError(f"acceptors {sorted(alive_set - qs.universe)} outside [0, {qs.n})")
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
