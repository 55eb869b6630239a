"""Bounded explicit-state safety checker for the single-decree protocol.

Explores every reachable global state under a ballot/value bound using
breadth-first search with deduplication.  The encoding follows the usual
explicit-state style for asynchronous consensus: the network is a
monotonically growing set of sent messages (loss is "never delivered",
duplication is "delivered again"), and acceptor state is the promised
ballot plus the last accepted proposal.

Actions:

* ``prepare(b)`` -- the owner of ballot b asks for promises.
* ``promise(a, b)`` -- acceptor a promises b if it beats every earlier
  promise; the reply freezes a's accepted pair at promise time.
* ``propose(b, v)`` -- enabled once some phase-1 quorum of promises for
  b exists; v is forced to the highest-ballot accepted value among that
  quorum's promises, and is a free choice only when the quorum reported
  a clean slate.  At most one proposal per ballot.
* ``accept(a, b, v)`` -- acceptor a accepts a sent proposal at or above
  its promise.

Checked properties:

* ``agreement`` -- all values chosen by any phase-2 quorum are equal.
* ``proposal-consistency`` -- once (b, v) is chosen, every proposal at a
  higher ballot carries v.  This is strictly stronger than agreement.

Counterexample paths replay through :mod:`fpaxos.core`'s transition
functions, cross-validating the two encodings.
"""

from __future__ import annotations

import itertools
import json
from collections import deque
from dataclasses import dataclass, field, fields, replace
from typing import Optional, Tuple

from .core import (
    AcceptorState,
    Ballot,
    Prepare,
    Promise,
    Propose,
    Accept,
    acceptor_handle_prepare,
    acceptor_handle_propose,
    choose_value,
    decided_proposals,
)
from .quorum import (
    EXPLICIT,
    QuorumSystem,
    _THRESHOLD_KINDS,
    make_explicit,
    make_grid,
    make_majority,
    make_simple,
    validate_cross_intersection,
)

AGREEMENT = "agreement"
PROPOSAL_CONSISTENCY = "proposal-consistency"


class ReplayDivergenceError(Exception):
    """Checker and protocol core disagree on a transition: a real bug."""


@dataclass(frozen=True)
class CheckConfig:
    quorum: QuorumSystem
    ballots: int = 2
    values: Tuple[str, ...] = ("a", "b")
    proposers: int = 2
    max_states: int = 2_000_000
    properties: Tuple[str, ...] = (AGREEMENT, PROPOSAL_CONSISTENCY)
    symmetry: bool = False

    def __post_init__(self):
        if self.ballots < 1:
            raise ValueError("need at least one ballot")
        if not self.values:
            raise ValueError("value set must be non-empty")
        if self.proposers < 1:
            raise ValueError("need at least one proposer")
        for p in self.properties:
            if p not in (AGREEMENT, PROPOSAL_CONSISTENCY):
                raise ValueError(f"unknown property {p!r}")

    def ballot_list(self):
        """Distinct totally ordered ballots, attributed round-robin."""
        return [Ballot(i + 1, i % self.proposers) for i in range(self.ballots)]


def value_names(k: int):
    """Default value alphabet for a k-value check."""
    if not 1 <= k <= 8:
        raise ValueError("value count must be in [1, 8]; pass explicit names beyond that")
    return tuple("abcdefgh"[:k])


def check_config_from_json(d: dict) -> CheckConfig:
    """Decode a check configuration; absent keys keep the ``CheckConfig`` defaults.

    The quorum is a ``quorum`` entry in ``QuorumSystem.to_json`` form or,
    failing that, an explicit family given flat as ``n``/``q1_sets``/``q2_sets``.
    ``values`` is a list of names or a count; ``properties`` is not accepted.
    """
    flat = ("n", "q1_sets", "q2_sets")
    kw = {k: v for k, v in d.items() if k not in flat}
    known = {f.name for f in fields(CheckConfig)} - {"properties"}
    unknown = sorted(set(kw) - known)
    if unknown:
        raise ValueError(f"unknown check config key(s): {', '.join(unknown)}")
    if "quorum" in d:
        kw["quorum"] = QuorumSystem.from_json(d["quorum"])
    else:
        kw["quorum"] = make_explicit(d["n"], d["q1_sets"], d["q2_sets"])
    if "values" in kw:
        values = kw["values"]
        kw["values"] = value_names(values) if isinstance(values, int) else tuple(values)
    return CheckConfig(**kw)


@dataclass(frozen=True)
class Violation:
    property: str
    path: Tuple[tuple, ...]


@dataclass(frozen=True)
class CheckResult:
    states: int
    complete: bool
    violation: Optional[Violation] = None

    @property
    def ok(self) -> bool:
        return self.violation is None


def action_json(action: tuple, cfg: CheckConfig) -> dict:
    ballots = cfg.ballot_list()
    kind = action[0]
    if kind == "prepare":
        return {"action": "prepare", "ballot": ballots[action[1]].json()}
    if kind == "promise":
        return {
            "action": "promise",
            "acceptor": action[1],
            "ballot": ballots[action[2]].json(),
        }
    if kind == "propose":
        return {
            "action": "propose",
            "ballot": ballots[action[1]].json(),
            "value": cfg.values[action[2]],
            "quorum": list(action[3]),
        }
    return {
        "action": "accept",
        "acceptor": action[1],
        "ballot": ballots[action[2]].json(),
        "value": cfg.values[action[3]],
    }


def counterexample_jsonl(violation: Violation, cfg: CheckConfig) -> str:
    lines = [{"violated": violation.property}]
    lines += [action_json(a, cfg) for a in violation.path]
    return "".join(json.dumps(l, separators=(",", ":")) + "\n" for l in lines)


# -- state space ----------------------------------------------------------


class _Space:
    """Flat-tuple state encoding and enabled-action generation.

    Layout of a state tuple (all small ints):
      [0, n)            promised ballot per acceptor (0 = none, else 1+b)
      [n, 2n)           accepted pair per acceptor (0 = none, else 1+b*V+v)
      2n                bitmask of prepared ballots
      [2n+1, 2n+1+n*B)  promise messages, cell a*B+b
                        (0 = absent, else 1 + accepted-code-at-promise-time)
      [.., ..+B)        proposal per ballot (0 = absent, else 1+v)
      last              bitmask of accept messages, bit (a*B+b)*V+v
    """

    def __init__(self, cfg: CheckConfig):
        qs = cfg.quorum
        self.cfg = cfg
        self.n = n = qs.n
        self.B = B = cfg.ballots
        self.V = V = len(cfg.values)
        self.PREP = 2 * n
        self.PMSG = 2 * n + 1
        self.PROP = self.PMSG + n * B
        self.AMSG = self.PROP + B
        self.size = self.AMSG + 1
        self.q1_masks = [m for m in range(1, 1 << n) if qs.is_q1_mask(m)]
        self.is_q2_mask = qs.is_q2_mask
        self.props = cfg.properties
        self.threshold_kind = qs.kind in _THRESHOLD_KINDS

    def initial(self) -> tuple:
        return tuple([0] * self.size)

    def successors(self, s: tuple):
        n, B, V = self.n, self.B, self.V
        PREP, PMSG, PROP, AMSG = self.PREP, self.PMSG, self.PROP, self.AMSG
        prep = s[PREP]
        out = []

        for b in range(B):
            if not prep >> b & 1:
                ns = list(s)
                ns[PREP] = prep | 1 << b
                out.append((("prepare", b), tuple(ns)))

        for a in range(n):
            pa = s[a]
            for b in range(B):
                if (prep >> b & 1) and (pa == 0 or pa - 1 < b) and s[PMSG + a * B + b] == 0:
                    ns = list(s)
                    ns[a] = 1 + b
                    ns[PMSG + a * B + b] = 1 + s[n + a]
                    out.append((("promise", a, b), tuple(ns)))

        for b in range(B):
            if s[PROP + b] == 0:
                senders = 0
                base = PMSG + b
                for a in range(n):
                    if s[base + a * B]:
                        senders |= 1 << a
                if not senders:
                    continue
                choices = {}
                for qm in self.q1_masks:
                    if qm & senders == qm:
                        best = 0
                        m = qm
                        while m:
                            a = (m & -m).bit_length() - 1
                            m &= m - 1
                            code = s[base + a * B] - 1
                            if code > best:
                                best = code
                        if best == 0:
                            for v in range(V):
                                choices.setdefault(v, qm)
                        else:
                            choices.setdefault((best - 1) % V, qm)
                for v in sorted(choices):
                    ns = list(s)
                    ns[PROP + b] = 1 + v
                    qm = choices[v]
                    senders_tuple = tuple(a for a in range(n) if qm >> a & 1)
                    out.append((("propose", b, v, senders_tuple), tuple(ns)))

        am = s[AMSG]
        for b in range(B):
            pv = s[PROP + b]
            if pv:
                v = pv - 1
                for a in range(n):
                    pa = s[a]
                    if pa == 0 or pa - 1 <= b:
                        bit = 1 << ((a * B + b) * V + v)
                        if not am & bit:
                            ns = list(s)
                            ns[a] = 1 + b
                            ns[n + a] = 1 + b * V + v
                            ns[AMSG] = am | bit
                            out.append((("accept", a, b, v), tuple(ns)))
        return out

    def chosen(self, s: tuple):
        """(b, v) pairs whose accept messages cover a phase-2 quorum."""
        n, B, V = self.n, self.B, self.V
        am = s[self.AMSG]
        if not am:
            return []
        found = []
        for b in range(B):
            for v in range(V):
                holders = 0
                for a in range(n):
                    if am >> ((a * B + b) * V + v) & 1:
                        holders |= 1 << a
                if holders and self.is_q2_mask(holders):
                    found.append((b, v))
        return found

    def violated(self, s: tuple) -> Optional[str]:
        chosen = self.chosen(s)
        if not chosen:
            return None
        if AGREEMENT in self.props and len({v for _, v in chosen}) > 1:
            return AGREEMENT
        if PROPOSAL_CONSISTENCY in self.props:
            PROP = self.PROP
            for b, v in chosen:
                for b2 in range(b + 1, self.B):
                    pv = s[PROP + b2]
                    if pv and pv - 1 != v:
                        return PROPOSAL_CONSISTENCY
        return None

    # -- optional symmetry canonicalization --------------------------

    def canonical(self, s: tuple) -> tuple:
        vperms = list(itertools.permutations(range(self.V)))
        if self.threshold_kind and self.n <= 5:
            aperms = list(itertools.permutations(range(self.n)))
        else:
            aperms = [tuple(range(self.n))]
        best = None
        for ap in aperms:
            for vp in vperms:
                t = self._transform(s, ap, vp)
                if best is None or t < best:
                    best = t
        return best

    def _transform(self, s: tuple, aperm, vperm) -> tuple:
        n, B, V = self.n, self.B, self.V

        def acc_code(code):
            if code == 0:
                return 0
            b, v = divmod(code - 1, V)
            return 1 + b * V + vperm[v]

        ns = [0] * self.size
        for a in range(n):
            ns[aperm[a]] = s[a]
            ns[n + aperm[a]] = acc_code(s[n + a])
        ns[self.PREP] = s[self.PREP]
        for a in range(n):
            for b in range(B):
                code = s[self.PMSG + a * B + b]
                ns[self.PMSG + aperm[a] * B + b] = 1 + acc_code(code - 1) if code else 0
        for b in range(B):
            pv = s[self.PROP + b]
            ns[self.PROP + b] = 1 + vperm[pv - 1] if pv else 0
        am = s[self.AMSG]
        nam = 0
        for a in range(n):
            for b in range(B):
                for v in range(V):
                    if am >> ((a * B + b) * V + v) & 1:
                        nam |= 1 << ((aperm[a] * B + b) * V + vperm[v])
        ns[self.AMSG] = nam
        return tuple(ns)


def explore(cfg: CheckConfig) -> CheckResult:
    """BFS over all reachable states; stops at the first violation."""
    space = _Space(cfg)
    init = space.initial()
    key = space.canonical if cfg.symmetry else (lambda s: s)
    k0 = key(init)
    visited = {k0: None}
    prop = space.violated(init)
    if prop is not None:
        return CheckResult(states=1, complete=True, violation=Violation(prop, ()))
    queue = deque([init])
    while queue:
        s = queue.popleft()
        for action, child in space.successors(s):
            ck = key(child)
            if ck in visited:
                continue
            visited[ck] = (key(s), action)
            prop = space.violated(child)
            if prop is not None:
                if cfg.symmetry:
                    # Canonicalized parents do not chain into a concrete
                    # run; re-search without symmetry for the real path.
                    return explore(replace(cfg, symmetry=False))
                path = _path_to(visited, ck)
                return CheckResult(
                    states=len(visited), complete=False, violation=Violation(prop, path)
                )
            if len(visited) >= cfg.max_states:
                return CheckResult(states=len(visited), complete=False)
            queue.append(child)
    return CheckResult(states=len(visited), complete=True)


def _path_to(visited, k):
    path = []
    while visited[k] is not None:
        k, action = visited[k][0], visited[k][1]
        path.append(action)
    return tuple(reversed(path))


# -- replay through the protocol core ------------------------------------


@dataclass
class ReplayResult:
    states: dict
    decisions: list = field(default_factory=list)

    @property
    def conflicting(self) -> bool:
        return len({v for _, v in self.decisions}) > 1


def replay(path, cfg: CheckConfig) -> ReplayResult:
    """Re-execute a checker action path through the core state machines.

    Every action must be enabled under the core's transition rules and
    agree on the produced values; any mismatch raises
    :class:`ReplayDivergenceError`.  Decisions observed along the way
    (via the learner rule) accumulate, so a historical decision later
    overwritten at a higher ballot still counts.
    """
    qs = cfg.quorum
    ballots = cfg.ballot_list()
    acc = {a: AcceptorState() for a in range(qs.n)}
    promise_snapshot = {}
    proposed = {}
    result = ReplayResult(states=acc)

    def observe():
        for pair in decided_proposals(acc, qs):
            if pair not in result.decisions:
                result.decisions.append(pair)

    observe()
    for act in path:
        kind = act[0]
        if kind == "prepare":
            pass
        elif kind == "promise":
            a, b = act[1], act[2]
            st, reply = acceptor_handle_prepare(
                acc[a], Prepare(src=ballots[b].proposer, dst=a, ballot=ballots[b])
            )
            if not isinstance(reply, Promise):
                raise ReplayDivergenceError(f"core refused promise for {act}")
            acc[a] = st
            promise_snapshot[(a, b)] = reply.accepted
        elif kind == "propose":
            b, v, senders = act[1], act[2], act[3]
            if not qs.is_q1(frozenset(senders)):
                raise ReplayDivergenceError(f"justifying set for {act} is not a phase-1 quorum")
            try:
                pairs = [promise_snapshot[(a, b)] for a in senders]
            except KeyError:
                raise ReplayDivergenceError(f"{act} cites a promise that was never sent")
            value = cfg.values[v]
            if choose_value(pairs, value) != value:
                raise ReplayDivergenceError(f"core value-choice rule rejects {act}")
            if proposed.setdefault(b, value) != value:
                raise ReplayDivergenceError(f"two proposals for one ballot at {act}")
        elif kind == "accept":
            a, b, v = act[1], act[2], act[3]
            value = cfg.values[v]
            if proposed.get(b) != value:
                raise ReplayDivergenceError(f"{act} accepts a value never proposed")
            st, reply = acceptor_handle_propose(
                acc[a], Propose(src=ballots[b].proposer, dst=a, ballot=ballots[b], value=value)
            )
            if not isinstance(reply, Accept):
                raise ReplayDivergenceError(f"core refused accept for {act}")
            acc[a] = st
        else:
            raise ReplayDivergenceError(f"unknown action {act!r}")
        observe()
    return result


# -- constructor/falsification catalog ------------------------------------


@dataclass(frozen=True)
class SweepEntry:
    name: str
    quorum: QuorumSystem
    intersects: bool
    violation_found: bool
    states: int

    @property
    def consistent(self) -> bool:
        return self.violation_found == (not self.intersects)


def sweep_catalog(n_max: int):
    """Valid constructors plus deliberately broken families, n <= n_max."""
    entries = []
    for n in range(1, n_max + 1):
        entries.append((f"majority(n={n})", make_majority(n)))
        if n % 2 == 0:
            entries.append((f"improved-majority(n={n})", make_majority(n, improved=True)))
        for q2 in range(1, n + 1):
            entries.append((f"simple(n={n},q2={q2})", make_simple(n, q2)))
        for rows in range(1, n + 1):
            if n % rows == 0:
                cols = n // rows
                entries.append((f"grid-fpaxos({rows}x{cols})", make_grid(rows, cols, "fpaxos")))
                entries.append((f"grid-paxos({rows}x{cols})", make_grid(rows, cols, "paxos")))
        if n >= 2:
            singletons = [[a] for a in range(n)]
            entries.append(
                (f"broken-singletons(n={n})", make_explicit(n, singletons, singletons))
            )
            entries.append(
                (f"broken-disjoint(n={n})", make_explicit(n, [[0]], [[1]]))
            )
            entries.append(
                (f"any1-vs-all(n={n})", make_explicit(n, singletons, [list(range(n))]))
            )
    return entries


def quorum_safety_sweep(
    n_max: int = 3, ballots: int = 2, values: int = 2, max_states: int = 500_000
):
    """Cross-check the checker against the intersection test.

    For every catalog entry, a violation must be found exactly when the
    quorum family fails cross-phase intersection.
    """
    if n_max > 4:
        raise ValueError("combinatorial sweep limited to n_max <= 4")
    report = []
    for name, qs in sweep_catalog(n_max):
        cfg = CheckConfig(
            quorum=qs,
            ballots=ballots,
            values=value_names(values),
            max_states=max_states,
        )
        res = explore(cfg)
        report.append(
            SweepEntry(
                name=name,
                quorum=qs,
                intersects=validate_cross_intersection(qs),
                violation_found=res.violation is not None,
                states=res.states,
            )
        )
    return report
