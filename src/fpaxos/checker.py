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

Search: a state is one packed int (see ``_Space``), and each reached
state costs one dict entry, which maps it to its BFS parent.  The search
stops at the first violating state, so every state it expands is safe,
and a successor is checked only where it can break a property: an accept
that makes its pair chosen, or a propose while some pair is chosen.  A
counterexample's actions are recovered afterwards by expanding its
parents again.  With ``symmetry`` the search keeps one state per orbit
under value and, for threshold kinds, acceptor permutations (scalarset
reduction, Ip & Dill 1996): same verdicts from fewer states, and a
violation found that way is searched again without it for a real path.

Counterexample paths replay through :mod:`fpaxos.core`'s rules, the ones
``multi.Replica`` applies too, cross-validating the model's encoding of
them; :func:`replay` also runs the scripts of :mod:`fpaxos.scenarios`.
:func:`check_config_from_json` decodes a check through
:func:`fpaxos.core.read_config`, the simulator's reader too.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field, fields, replace
from functools import partial
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
    read_config,
    to_jsonl,
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
    max_states: int = 2_000_000
    properties: Tuple[str, ...] = (AGREEMENT, PROPOSAL_CONSISTENCY)
    symmetry: bool = False

    def __post_init__(self):
        if self.ballots < 1:
            raise ValueError("need at least one ballot")
        if not self.values:
            raise ValueError("value set must be non-empty")
        for i, v in enumerate(self.values):
            if v in self.values[:i]:
                raise ValueError(f"value names must be distinct, {v!r} is repeated")
        if self.max_states < 1:
            raise ValueError(f"max_states must be at least 1, got {self.max_states}")
        for p in self.properties:
            if p not in (AGREEMENT, PROPOSAL_CONSISTENCY):
                raise ValueError(f"unknown property {p!r}")

    def ballot_list(self):
        """Distinct totally ordered ballots, owned in turn by two proposers."""
        return [Ballot(i + 1, i % 2) for i in range(self.ballots)]


def value_names(values) -> Tuple[str, ...]:
    """A check's value names: a list of names as given, or for a count k <= 8, ``a``, ``b``, ..."""
    if isinstance(values, (list, tuple)) and all(type(v) is str for v in values):
        return tuple(values)
    if not (type(values) is int and 1 <= values <= 8):
        raise ValueError(f"values must be a count in [1, 8] or a list of names, got {values!r}")
    return tuple("abcdefgh"[:values])


FLAT_QUORUM_KEYS = ("n", "q1_sets", "q2_sets")
_DEFAULTS = {f.name: f.default for f in fields(CheckConfig) if f.name != "properties"}
_DECODERS = {"quorum": QuorumSystem.from_json, "values": value_names}


def check_config_from_json(d: dict) -> CheckConfig:
    """Decode a check configuration; absent keys keep the ``CheckConfig`` defaults.

    The quorum is a ``quorum`` entry in ``QuorumSystem.to_json`` form or,
    failing that, an explicit family given flat as ``n``/``q1_sets``/``q2_sets``.
    ``values`` is a count or a list of names; ``properties`` is not accepted.
    """
    if "quorum" not in d:
        flat = {k: d[k] for k in FLAT_QUORUM_KEYS if k in d}
        d = {k: v for k, v in d.items() if k not in flat}
        d["quorum"] = {"kind": EXPLICIT, **flat}
    return CheckConfig(**read_config(d, _DEFAULTS, _DECODERS, "check"))


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


# The JSON key of each entry of an action tuple, after its kind.
_ACTION_KEYS = {
    "prepare": ("ballot",),
    "promise": ("acceptor", "ballot"),
    "propose": ("ballot", "value", "quorum"),
    "accept": ("acceptor", "ballot", "value"),
}


def action_json(action: tuple, cfg: CheckConfig) -> dict:
    """An action's kind, then its entries under their keys; ballots and values by name."""
    ballots, values = cfg.ballot_list(), cfg.values
    decode = {"ballot": lambda b: ballots[b].json(), "value": values.__getitem__, "quorum": list}
    d = {"action": action[0]}
    for key, x in zip(_ACTION_KEYS[action[0]], action[1:]):
        d[key] = decode[key](x) if key in decode else x
    return d


def counterexample_jsonl(violation: Violation, cfg: CheckConfig) -> str:
    lines = [{"violated": violation.property}]
    lines += [action_json(a, cfg) for a in violation.path]
    return to_jsonl(lines)


# -- state space ----------------------------------------------------------


class _Memo(dict):
    """A dict that fills a missing key with ``build(key)``."""

    def __init__(self, build):
        super().__init__()
        self.build = build

    def __missing__(self, key):
        value = self[key] = self.build(key)
        return value


class _Space:
    """Packed-int state encoding and enabled-action generation.

    A state is one non-negative int of fixed-width bit fields.  With n
    acceptors, B ballots and V values, from the least significant bit up:

      prepared   B bits, bit b: ballot b was prepared
      promised   n fields of wP bits: acceptor a's promise (0 = none, else 1+b)
      proposals  B fields of wV bits: ballot b's proposal (0 = absent, else 1+v)
      accepted   n fields of wA bits: a's accepted pair (0 = none, else 1+b*V+v)
      promises   n*B fields of wC bits, ballot-major (field b*n+a): the
                 promise a sent for b (0 = absent, else 1 + a's accepted
                 field when it promised); ballot b's n fields form one
                 row, the key of b's phase-1 value choice
      accepts    B*V*n bits, bit (b*V+v)*n + a: a's accept message for
                 (b, v), so the holders of (b, v) are one shift and one mask

    The initial state is 0, and every successor is ``s | bit`` or
    ``s + delta``.  The first three fields, the control bits, decide
    which actions are candidates; the edge templates of each control
    value are built once, and a state only tests the cells and holder
    bits its candidates need.
    """

    def __init__(self, cfg: CheckConfig):
        qs = cfg.quorum
        self.n = n = qs.n
        self.B = B = cfg.ballots
        self.V = V = len(cfg.values)
        self.wP = wP = B.bit_length()
        self.wV = wV = V.bit_length()
        self.wA = wA = (B * V).bit_length()
        self.wC = wC = (B * V + 1).bit_length()
        self.PROM = B
        self.PROP = self.PROM + n * wP
        self.ACC = self.PROP + B * wV  # the control bits end here
        self.CELL = self.ACC + n * wA
        self.AMSG = self.CELL + B * n * wC
        self.prom_sh = [self.PROM + a * wP for a in range(n)]
        self.acc_sh = [self.ACC + a * wA for a in range(n)]
        self.row_sh = [self.CELL + b * n * wC for b in range(B)]
        self.pmask, self.vmask = (1 << wP) - 1, (1 << wV) - 1
        self.amask, self.cmask = (1 << wA) - 1, (1 << wC) - 1
        self.is_q1 = qs.is_q1_mask
        self.q2 = _Memo(qs.is_q2_mask)  # holders mask -> is a phase-2 quorum
        self.threshold_kind = qs.kind in _THRESHOLD_KINDS  # acceptors interchangeable
        # Sets of pairs are masks with bit k = b*V+v for (b, v).  A checked
        # property breaks when pair k becomes chosen while a pair of
        # agreement_conflicts[k] is chosen, or while a later ballot proposes
        # another value (the control value's later_conflicts); or when
        # ballot b proposes v while a pair of older_conflicts[b][v] is
        # chosen.  An unchecked property has empty masks.
        pairs = [(b, v) for b in range(B) for v in range(V)]
        agreement = AGREEMENT in cfg.properties
        self.pc = pc = PROPOSAL_CONSISTENCY in cfg.properties
        self.agreement_conflicts = [
            sum(1 << j for j, (_, v1) in enumerate(pairs) if agreement and v1 != v)
            for _, v in pairs
        ]
        self.older_conflicts = [
            [sum(1 << j for j, (b1, v1) in enumerate(pairs) if pc and b1 < b and v1 != v)
             for v in range(V)]
            for b in range(B)
        ]
        self.chosen = _Memo(self._chosen)  # accept bits -> chosen pairs
        self.templates = _Memo(self._templates)  # control bits -> edge templates
        self.choices = [_Memo(partial(self._value_choices, b)) for b in range(B)]  # row
        # symmetry: proposals -> proposals renamed in order, and acceptor blocks
        self.props_mask = (1 << B * wV) - 1
        self.first_appearance = _Memo(self._first_appearance)
        self.regions, self.places = self._acceptor_blocks()

    def initial(self) -> int:
        return 0

    def successors(self, s: int):
        """``(action, child)`` for every action enabled in ``s``, in a fixed order."""
        return self.expand(s)[0]

    def expand(self, s: int):
        """The successors of a non-violating state, and the first that violates.

        Returns ``(edges, bad)``: ``edges`` as from ``successors`` and
        ``bad`` either ``None`` or ``(i, property)`` for the first edge
        whose child breaks a checked property.  Because ``s`` breaks none,
        only an accept that makes its pair newly chosen, or a propose once
        something is chosen, can break one.
        """
        edges = []
        add = edges.append
        bad = None
        prepares, promises, unproposed, accepts, later_conflicts = (
            self.templates[s & (1 << self.ACC) - 1]
        )
        for action, bit in prepares:
            add((action, s | bit))

        cmask, amask = self.cmask, self.amask
        for action, delta, cell, acc in promises:
            if not s >> cell & cmask:
                add((action, s + delta + (1 + (s >> acc & amask) << cell)))

        am = s >> self.AMSG
        chosen = self.chosen[am]
        row_mask = (1 << self.n * self.wC) - 1
        for b, row_sh, choices in unproposed:
            row = s >> row_sh & row_mask
            if row:
                for action, delta in choices[row]:
                    if bad is None and chosen & self.older_conflicts[b][action[2]]:
                        bad = (len(edges), PROPOSAL_CONSISTENCY)
                    add((action, s + delta))

        q2, holders_mask = self.q2, (1 << self.n) - 1
        for action, delta, acc, held_sh, bit, k in accepts:
            held = s >> held_sh & holders_mask
            if not held & bit:
                if bad is None and q2[held | bit] and not q2[held]:  # k newly chosen
                    if chosen & self.agreement_conflicts[k]:
                        bad = (len(edges), AGREEMENT)
                    elif later_conflicts >> k & 1:
                        bad = (len(edges), PROPOSAL_CONSISTENCY)
                add((action, s + delta - ((s >> acc & amask) << acc)))
        return edges, bad

    def _templates(self, control: int):
        """The edge templates of one value of the control bits.

        * prepares: ``(action, bit)`` per ballot not yet prepared.
        * promises: ``(action, delta, cell, acc)`` per promise(a, b) with b
          prepared and above a's promise, a-major.  It is enabled while
          its cell is empty; ``delta`` raises a's promise, and the caller
          also copies a's accepted field (at ``acc``) into the cell.
        * unproposed: ``(b, row shift, value-choice memo)`` per ballot
          without a proposal.
        * accepts: ``(action, delta, acc, held_sh, bit, k)`` per accept(a,
          b, v) of the proposed pair k = b*V+v by an acceptor promised at
          most b, b-major.  It is enabled while a does not hold the pair
          (bit ``bit`` of the holders at ``held_sh``); ``delta`` raises a's
          promise, sets the accept bit and adds k+1 to a's accepted field
          at ``acc``, from which the caller subtracts the old pair.
        * later_conflicts: the pairs (b, v) that a proposal at a ballot
          above b contradicts, if proposal-consistency is checked.
        """
        n, B, V = self.n, self.B, self.V
        promised = [control >> sh & self.pmask for sh in self.prom_sh]
        proposed = [control >> self.PROP + b * self.wV & self.vmask for b in range(B)]
        prepared = [bool(control >> b & 1) for b in range(B)]
        prepares = [(("prepare", b), 1 << b) for b in range(B) if not prepared[b]]
        promises = [
            (("promise", a, b), 1 + b - promised[a] << self.prom_sh[a],
             self.row_sh[b] + a * self.wC, self.acc_sh[a])
            for a in range(n)
            for b in range(promised[a], B)
            if prepared[b]
        ]
        unproposed = [(b, self.row_sh[b], self.choices[b]) for b in range(B) if not proposed[b]]
        accepts = []
        later_conflicts = 0
        for b in range(B):
            if proposed[b]:
                v = proposed[b] - 1
                k = b * V + v
                held_sh = self.AMSG + k * n
                for a in range(n):
                    if promised[a] <= b + 1:
                        delta = ((1 + b - promised[a] << self.prom_sh[a])
                                 + (1 + k << self.acc_sh[a]) + (1 << held_sh + a))
                        accepts.append((("accept", a, b, v), delta, self.acc_sh[a], held_sh,
                                        1 << a, k))
                if self.pc:
                    later_conflicts |= sum(1 << b1 * V + v1 for b1 in range(b)
                                           for v1 in range(V) if v1 != v)
        return prepares, promises, unproposed, accepts, later_conflicts

    def _value_choices(self, b: int, row: int):
        """``(action, delta)`` per propose of ballot b that b's promise row allows.

        For each phase-1 quorum among the senders, v is forced to the
        highest-ballot accepted value in the quorum's promises, or free
        when none reported one; each value is listed once, justified by
        the first quorum, in ascending mask order, that allows it.
        """
        n, V, wC = self.n, self.V, self.wC
        cells = [row >> a * wC & self.cmask for a in range(n)]
        senders = sum(1 << a for a in range(n) if cells[a])
        choices = {}
        qm = (-senders) & senders  # the senders' non-empty subsets, ascending
        while qm:
            if self.is_q1(qm):
                best = max(cells[a] - 1 for a in range(n) if qm >> a & 1)
                if best == 0:
                    for v in range(V):
                        choices.setdefault(v, qm)
                else:
                    choices.setdefault((best - 1) % V, qm)
            qm = (qm - senders) & senders
        shift = self.PROP + b * self.wV
        return [
            (("propose", b, v, tuple(a for a in range(n) if choices[v] >> a & 1)), 1 + v << shift)
            for v in sorted(choices)
        ]

    def _chosen(self, am: int) -> int:
        """The pairs whose accept bits ``am`` cover a phase-2 quorum."""
        n, q2, holders_mask = self.n, self.q2, (1 << self.n) - 1
        return sum(1 << k for k in range(self.B * self.V) if q2[am >> k * n & holders_mask])

    # -- optional symmetry canonicalization --------------------------

    def canonical(self, s: int) -> int:
        """The state that stands for ``s``'s orbit under the symmetry group.

        The model accepts only a ballot's proposal, and promise cells copy
        accepted pairs, so every value a state holds is its ballot's
        proposal: naming values by first appearance among the proposals
        fixes every label.  Threshold kinds also sort the acceptor blocks.
        The result is in the orbit, so a canonical state is its own key.
        """
        props = s >> self.PROP & self.props_mask
        canon = self.first_appearance[props]
        if canon == props and not self.threshold_kind:
            return s
        blocks = map(sum, zip(*[memo[s >> lo & mask] for lo, mask, memo in self.regions]))
        if self.threshold_kind:
            blocks = sorted(blocks)
        return ((s & (1 << self.B) - 1) + (canon << self.PROP)
                + sum([place[x | canon] for place, x in zip(self.places, blocks)]))

    def _first_appearance(self, props: int) -> int:
        """Proposals ``props`` with values renamed 0, 1, ... in order of first appearance."""
        new, out = {}, 0
        for sh in range(0, self.B * self.wV, self.wV):
            p = props >> sh & self.vmask
            if p:
                out |= 1 + new.setdefault(p - 1, len(new)) << sh
        return out

    def _acceptor_blocks(self):
        """Region memos that cut a state into acceptor blocks, and per
        position a memo that packs a block, plus proposals, back.

        Acceptor a's block holds its promise, the ballot of its accepted
        pair, the ballot in its cell of each promise row and, per ballot,
        whether it holds that ballot's proposal; the proposals fix every
        value.  A region (the promises, the accepted pairs, one promise
        row, one ballot's holders) maps its bits to each acceptor's share.
        """
        n, B, V, wP, wC, wV = self.n, self.B, self.V, self.wP, self.wC, self.wV
        wb = (B + 1).bit_length()  # a cell's ballot: 0 absent, 1 nothing accepted, else 2+b
        prom_at = B * wV  # below it, the proposals
        cell_at, held_at = prom_at + 2 * wP, prom_at + 2 * wP + B * wb

        def block(a, s):
            ballot = lambda code: code and 1 + (code - 1) // V  # of an accepted pair
            x = (s >> self.prom_sh[a] & self.pmask) << prom_at
            x |= ballot(s >> self.acc_sh[a] & self.amask) << prom_at + wP
            for b, row_sh in enumerate(self.row_sh):
                cell = s >> row_sh + a * wC & self.cmask
                x |= (cell and 1 + ballot(cell - 1)) << cell_at + b * wb
                x |= any(s >> self.AMSG + (b * V + v) * n + a & 1 for v in range(V)) << held_at + b
            return x

        def place(i, x):
            pair = lambda c: c and (c - 1) * V + (x >> (c - 1) * wV & self.vmask)  # c = 1 + b
            s = (x >> prom_at & self.pmask) << self.prom_sh[i]
            s |= pair(x >> prom_at + wP & self.pmask) << self.acc_sh[i]
            for b, row_sh in enumerate(self.row_sh):
                cell = x >> cell_at + b * wb & (1 << wb) - 1
                s |= (cell and 1 + pair(cell - 1)) << row_sh + i * wC
                if x >> held_at + b & 1:
                    s |= 1 << self.AMSG + (pair(1 + b) - 1) * n + i
            return s

        spans = ([(self.PROM, n * wP), (self.ACC, n * self.wA)]
                 + [(sh, n * wC) for sh in self.row_sh]
                 + [(self.AMSG + b * V * n, V * n) for b in range(B)])
        split = lambda lo: _Memo(lambda r: tuple(block(a, r << lo) for a in range(n)))
        regions = [(lo, (1 << w) - 1, split(lo)) for lo, w in spans]
        return regions, [_Memo(partial(place, i)) for i in range(n)]


def explore(cfg: CheckConfig) -> CheckResult:
    """BFS over all reachable states; stops at the first violation.

    ``visited`` maps each state (under symmetry, one canonical state per
    orbit) to its BFS parent; a counterexample's actions are recovered from
    the parents afterwards.  The initial state is 0 and violates nothing.
    """
    space = _Space(cfg)
    expand = space.expand
    key = space.canonical if cfg.symmetry else None
    max_states = cfg.max_states
    init = space.initial()
    visited = {init: None}
    queue = deque([init])
    while queue:
        s = queue.popleft()
        edges, bad = expand(s)
        for _, child in edges if bad is None else edges[: bad[0]]:
            if key:
                child = key(child)
            if child in visited:
                continue
            visited[child] = s
            if len(visited) >= max_states:
                return CheckResult(states=len(visited), complete=False)
            queue.append(child)
        if bad is not None:
            if key:
                # Canonical states do not chain into a concrete run;
                # re-search without symmetry for the real path.
                return explore(replace(cfg, symmetry=False))
            i, prop = bad
            child = edges[i][1]
            visited[child] = s
            path = _path_to(space, visited, child)
            return CheckResult(
                states=len(visited), complete=False, violation=Violation(prop, path)
            )
    return CheckResult(states=len(visited), complete=True)


def _path_to(space: _Space, visited: dict, state: int):
    """The actions leading from the initial state to ``state``.

    Each step is the first action of the parent whose child is the state,
    the same edge the search first reached it by.
    """
    path = []
    parent = visited[state]
    while parent is not None:
        path.append(next(a for a, child in space.successors(parent) if child == state))
        state, parent = parent, visited[parent]
    return tuple(reversed(path))


# -- replay through the protocol core ------------------------------------


@dataclass
class ReplayResult:
    states: dict
    decisions: list = field(default_factory=list)  # (ballot, value), as first decided
    proposals: dict = field(default_factory=dict)  # ballot -> its proposed value
    events: list = field(default_factory=list)  # what was delivered and decided, in order

    @property
    def conflicting(self) -> bool:
        return len({v for _, v in self.decisions}) > 1

    @property
    def contradicted(self) -> bool:
        """A decided pair is contradicted by a proposal at a higher ballot."""
        return any(b1 > b and v1 != v for b, v in self.decisions
                   for b1, v1 in self.proposals.items())


def replay(path, cfg: CheckConfig) -> ReplayResult:
    """Re-execute an action path through the core state machines.

    Besides the checker's four actions a path may hold three that only
    scripted runs use: ``("refuse", a, b, v)``, a proposal that acceptor a
    nacks; ``("answer", a, b)``, a's accept or nack of ballot b's proposal
    reaching its proposer; and ``("crash", a, wipe)``.  Every action must
    be enabled under the core's rules and agree on the produced values;
    any mismatch raises :class:`ReplayDivergenceError`.  Decisions observed
    along the way (via the learner rule) accumulate, so a decision later
    overwritten at a higher ballot still counts.

    ``events`` holds, in order, ``("msg", m)`` per delivered message (a
    prepare at its promise, the promises at the propose they justify in
    the order of its senders, a proposal at its accept or refusal, an
    answer at its own action), ``("decide", pair)`` per newly decided
    pair, ``("violation", values)`` when a second value is decided, and
    each crash action.
    """
    qs = cfg.quorum
    ballots = cfg.ballot_list()
    acc = {a: AcceptorState() for a in range(qs.n)}
    promises = {}  # (a, b) -> a's promise for ballot b
    answers = {}  # (a, b) -> a's answer to ballot b's proposal
    result = ReplayResult(states=acc)
    proposed, log = result.proposals, result.events.append
    for act in path:
        kind = act[0]
        if kind == "promise":
            a, b = act[1], act[2]
            prepare = Prepare(src=ballots[b].proposer, dst=a, ballot=ballots[b])
            log(("msg", prepare))
            st, reply = acceptor_handle_prepare(acc[a], prepare)
            if not isinstance(reply, Promise):
                raise ReplayDivergenceError(f"core refused promise for {act}")
            acc[a] = st
            promises[(a, b)] = reply
        elif kind == "propose":
            b, v, senders = act[1], act[2], act[3]
            if not qs.is_q1(frozenset(senders)):
                raise ReplayDivergenceError(f"justifying set for {act} is not a phase-1 quorum")
            try:
                cited = [promises[(a, b)] for a in senders]
            except KeyError:
                raise ReplayDivergenceError(f"{act} cites a promise that was never sent")
            value = cfg.values[v]
            if choose_value([m.accepted for m in cited], value) != value:
                raise ReplayDivergenceError(f"core value-choice rule rejects {act}")
            if proposed.setdefault(ballots[b], value) != value:
                raise ReplayDivergenceError(f"two proposals for one ballot at {act}")
            for m in cited:
                log(("msg", m))
        elif kind in ("accept", "refuse"):
            a, b, v = act[1], act[2], act[3]
            value = cfg.values[v]
            if proposed.get(ballots[b]) != value:
                raise ReplayDivergenceError(f"{act} delivers a value never proposed")
            m = Propose(src=ballots[b].proposer, dst=a, ballot=ballots[b], value=value)
            log(("msg", m))
            st, reply = acceptor_handle_propose(acc[a], m)
            if isinstance(reply, Accept) != (kind == "accept"):
                raise ReplayDivergenceError(f"core answers {act} with {type(reply).__name__}")
            acc[a] = st
            answers[(a, b)] = reply
            # Only a delivered proposal can change what the acceptors hold.
            for pair in decided_proposals(acc, qs):
                if pair not in result.decisions:
                    conflicting = result.conflicting
                    result.decisions.append(pair)
                    log(("decide", pair))
                    if result.conflicting and not conflicting:
                        log(("violation", [v for _, v in result.decisions]))
        elif kind == "answer":
            reply = answers.get((act[1], act[2]))
            if reply is None:
                raise ReplayDivergenceError(f"{act} answers a proposal never delivered")
            log(("msg", reply))
        elif kind == "crash":
            log(act)
            if act[2]:
                acc[act[1]] = AcceptorState()
        elif kind != "prepare":
            raise ReplayDivergenceError(f"unknown action {act!r}")
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
        cfg = CheckConfig(qs, ballots=ballots, values=value_names(values), max_states=max_states)
        res = explore(cfg)
        intersects = validate_cross_intersection(qs)
        report.append(SweepEntry(name, qs, intersects, res.violation is not None, res.states))
    return report
