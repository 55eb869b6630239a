"""Bounded explicit-state safety checker for the single-decree protocol.

Explores every reachable global state under a ballot/value bound using
breadth-first search with deduplication.  The encoding follows the usual
explicit-state style for asynchronous consensus: the network is a
monotonically growing set of sent messages (loss is "never delivered",
duplication is "delivered again"), and acceptor state is the promised
ballot; its accepted pair is read off its accepts.

Actions:

* ``prepare(b)`` -- the owner of ballot b asks for promises.
* ``promise(a, b)`` -- acceptor a promises b if it beats every earlier
  promise; the reply reports a's highest-ballot accept at promise time.
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

Search: a state is one packed int (see ``_Space``).  Every action adds
exactly one event (a prepared bit, a promise cell, a proposal or an
accept bit), so the state graph is layered by event count, and the
search goes level by level: the parents of a level append their
children, bare ints, to one list, and ``dict.fromkeys`` of that list
dedupes the next level in BFS order, since the next level alone holds
every duplicate (frontier search, Korf et al. 2005).  A finished level is
kept only as a list of states, with no parent map and no actions.  The
search stops at the first violating state, so every state it expands is
safe, and a child is checked only where it can break a property: an
accept that makes its pair chosen, or a propose while some pair is
chosen.  With ``symmetry`` the search keeps one state per orbit under
value and, for threshold kinds, acceptor permutations (scalarset
reduction, Ip & Dill 1996): same verdicts from fewer states, on the same
layers.  Either way a counterexample's parents are found afterwards, a
level at a time, as the first state of the level before whose children
include it, and its actions on the walk forward again, each read off the
one event its step adds.

A search is ``safe`` only when complete, and a violation counts once its
path, delivered to the simulator's acceptors (``multi.Replica``s, whose
handlers take :mod:`fpaxos.core`'s steps and build the replies), shows it;
:func:`quorum_safety_sweep` judges every family so.  :func:`replay` also
runs the scripts of :mod:`fpaxos.scenarios`.
:func:`check_config_from_json` decodes a check through
:func:`fpaxos.core.read_config`, the simulator's reader too.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from functools import partial
from typing import Optional, Tuple

from .core import (
    Ballot,
    acceptor_handle_prepare,  # noqa: F401 (perfbench/spans.py wraps it)
    acceptor_handle_propose,  # noqa: F401 (perfbench/spans.py wraps it)
    check_type,
    choose_value,
    decided_proposals,
    read_config,
    to_jsonl,
)
from .multi import LeaderPrepare, LeaderPromise, Replica, SlotAccept, SlotPropose
from .quorum import (
    EXPLICIT,
    QuorumSystem,
    make_explicit,
    make_grid,
    make_majority,
    make_simple,
    mask_of,
    validate_cross_intersection,
)

AGREEMENT = "agreement"
PROPOSAL_CONSISTENCY = "proposal-consistency"
SAFE, VIOLATION, PARTIAL = "safe", "violation", "partial"


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
        for f in fields(self):
            if f.name in ("ballots", "max_states", "symmetry"):
                check_type(f.name, getattr(self, f.name), f.default)
        if type(self.quorum) is not QuorumSystem:
            raise ValueError(f"quorum must be a QuorumSystem, got {self.quorum!r}")
        if type(self.values) is not tuple or any(type(v) is not str for v in self.values):
            raise ValueError(f"values must be a tuple of strings, got {self.values!r}")
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
MAX_SWEEP_N = 4  # the largest n_max the constructor/falsification sweep explores
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

    @property
    def verdict(self) -> str:
        """``safe`` for a complete search, ``violation`` when one was found, else ``partial``."""
        return VIOLATION if self.violation else SAFE if self.complete else PARTIAL


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
      promises   n*B fields of wC bits, ballot-major (field b*n+a): the
                 promise a sent for b (0 = absent, else 1 + a's pair when it
                 promised: 0 = none, else 1+b*V+v); ballot b's n fields
                 form one row, the key of b's phase-1 value choice
      accepts    B*V*n bits, bit (b*V+v)*n + a: a's accept message for
                 (b, v), so the holders of (b, v) are one shift and one mask

    An acceptor's accepted pair is its highest-ballot accept (it accepts
    only at or above its promise, and each accept raises it), so it is read
    off the accept bits, not stored.

    The initial state is 0, and every child is ``s | bit`` or
    ``s + delta``.  The first three fields, the control bits, decide
    which actions are candidates; the edge templates of each control
    value are built once, and a state only tests the cells and holder
    bits its candidates need.  A template holds no action: every action
    adds one event, and :meth:`action` reads it off the child.
    """

    def __init__(self, cfg: CheckConfig):
        qs = cfg.quorum
        self.n = n = qs.n
        self.B = B = cfg.ballots
        self.V = V = len(cfg.values)
        self.wP = wP = B.bit_length()
        self.wV = wV = V.bit_length()
        self.wC = wC = (B * V + 1).bit_length()
        self.PROM = B
        self.PROP = self.PROM + n * wP
        self.CELL = self.PROP + B * wV  # the control bits end here
        self.AMSG = self.CELL + B * n * wC
        self.prom_sh = [self.PROM + a * wP for a in range(n)]
        self.row_sh = [self.CELL + b * n * wC for b in range(B)]
        self.pmask, self.vmask, self.cmask = (1 << wP) - 1, (1 << wV) - 1, (1 << wC) - 1
        self.control = (1 << self.CELL) - 1  # the control bits
        self.row_mask, self.holders_mask = (1 << n * wC) - 1, (1 << n) - 1
        self.is_q1 = qs.is_q1
        self.q2 = _Memo(qs.is_q2)  # holders mask -> is a phase-2 quorum
        self.threshold_kind = qs._phases[0].threshold is not None  # acceptors interchangeable
        # Sets of pairs are masks with bit k = b*V+v for (b, v).  A checked
        # property breaks when pair k becomes chosen while a pair of
        # agreement_conflicts[k] is chosen, or while a later ballot proposes
        # another value (the control value's later_conflicts); or when
        # ballot b proposes v while a pair of older_conflicts[b][v] is
        # chosen.  An unchecked property has empty masks.
        pairs = [(b, v) for b in range(B) for v in range(V)]
        agreement = AGREEMENT in cfg.properties
        pc = PROPOSAL_CONSISTENCY in cfg.properties
        self.agreement_conflicts = [
            sum(1 << j for j, (_, v1) in enumerate(pairs) if agreement and v1 != v)
            for _, v in pairs
        ]
        self.older_conflicts = [
            [sum(1 << j for j, (b1, v1) in enumerate(pairs) if pc and b1 < b and v1 != v)
             for v in range(V)]
            for b in range(B)
        ]
        self.accepted = _Memo(self._accepted)  # accept bits -> chosen pairs, promise cells
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
        out = []
        self.children(s, out)
        return [(self.action(s, child), child) for child in out]

    def action(self, s: int, child: int) -> tuple:
        """The action that takes ``s`` to its child ``child``.

        It is read off the one event the action adds, the highest bit of
        ``child ^ s``: an accept bit, a promise cell, a proposal or a
        prepared bit (a promise or an accept also raises a promise, below).
        """
        hb = (child ^ s).bit_length() - 1
        if hb >= self.AMSG:
            k, a = divmod(hb - self.AMSG, self.n)
            return ("accept", a, *divmod(k, self.V))
        if hb >= self.CELL:
            b, a = divmod((hb - self.CELL) // self.wC, self.n)
            return ("promise", a, b)
        if hb >= self.PROP:
            b = (hb - self.PROP) // self.wV
            row = s >> self.row_sh[b] & self.row_mask
            return next(a for d, _, a in self.choices[b][row] if d == child - s)
        return ("prepare", hb)

    def children(self, s: int, out: list):
        """Append the children of a non-violating state ``s`` to ``out``.

        Returns ``None``, or ``(i, property)`` when ``out[i]`` is the first
        child appended that breaks a checked property.  Because ``s``
        breaks none, only an accept that makes its pair newly chosen, or a
        propose once something is chosen, can break one.
        """
        add = out.append
        bad = None
        prepares, promises, unproposed, accepts, later_conflicts = self.templates[s & self.control]
        for bit in prepares:
            add(s | bit)

        chosen, cells = self.accepted[s >> self.AMSG]
        cmask = self.cmask
        for delta, cell, own in promises:
            if not s >> cell & cmask:
                add(s + delta + ((cells >> own & cmask) << cell))

        row_mask = self.row_mask
        for row_sh, choices in unproposed:
            row = s >> row_sh & row_mask
            if row:
                for delta, conflicts, _ in choices[row]:
                    if bad is None and chosen & conflicts:
                        bad = (len(out), PROPOSAL_CONSISTENCY)
                    add(s + delta)

        q2, holders_mask = self.q2, self.holders_mask
        for delta, held_sh, bit, k in accepts:
            held = s >> held_sh & holders_mask
            if not held & bit:
                if bad is None and not chosen >> k & 1 and q2[held | bit]:  # k newly chosen
                    if chosen & self.agreement_conflicts[k]:
                        bad = (len(out), AGREEMENT)
                    elif later_conflicts >> k & 1:
                        bad = (len(out), PROPOSAL_CONSISTENCY)
                add(s + delta)
        return bad

    def _templates(self, control: int):
        """The edge templates of one value of the control bits.

        * prepares: the bit of each ballot not yet prepared.
        * promises: ``(delta, cell, own)`` per promise(a, b) with b
          prepared and above a's promise, a-major.  It is enabled while
          its cell is empty; ``delta`` raises a's promise, and the caller
          also writes the cell: field ``own`` of the accept bits' cells
          (``_accepted``).
        * unproposed: ``(row shift, value-choice memo)`` per ballot
          without a proposal.
        * accepts: ``(delta, held_sh, bit, k)`` per accept(a, b, v) of the
          proposed pair k = b*V+v by an acceptor promised at most b,
          b-major.  It is enabled while a does not hold the pair (bit
          ``bit`` of the holders at ``held_sh``); ``delta`` raises a's
          promise and sets the accept bit.
        * later_conflicts: the pairs (b, v) that a proposal at a ballot
          above b contradicts, if proposal-consistency is checked.
        """
        n, B, V = self.n, self.B, self.V
        promised = [control >> sh & self.pmask for sh in self.prom_sh]
        proposed = [control >> self.PROP + b * self.wV & self.vmask for b in range(B)]
        prepared = [bool(control >> b & 1) for b in range(B)]
        prepares = [1 << b for b in range(B) if not prepared[b]]
        promises = [
            (1 + b - promised[a] << self.prom_sh[a], self.row_sh[b] + a * self.wC, a * self.wC)
            for a in range(n)
            for b in range(promised[a], B)
            if prepared[b]
        ]
        unproposed = [(self.row_sh[b], self.choices[b]) for b in range(B) if not proposed[b]]
        accepts = []
        later_conflicts = 0
        for b in range(B):
            if proposed[b]:
                v = proposed[b] - 1
                k = b * V + v
                held_sh = self.AMSG + k * n
                for a in range(n):
                    if promised[a] <= b + 1:
                        delta = (1 + b - promised[a] << self.prom_sh[a]) + (1 << held_sh + a)
                        accepts.append((delta, held_sh, 1 << a, k))
                later_conflicts |= self.older_conflicts[b][v]
        return prepares, promises, unproposed, accepts, later_conflicts

    def _value_choices(self, b: int, row: int):
        """``(delta, conflicts, action)`` per propose of ballot b that b's promise row allows.

        For each phase-1 quorum among the senders, v is forced to the
        highest-ballot accepted value in the quorum's promises, or free
        when none reported one; each value is listed once, justified by
        the first quorum, in ascending mask order, that allows it.  The
        action names that quorum; ``conflicts`` are the chosen pairs the
        proposal contradicts (``older_conflicts``).
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
            (1 + v << shift, self.older_conflicts[b][v],
             ("propose", b, v, tuple(a for a in range(n) if choices[v] >> a & 1)))
            for v in sorted(choices)
        ]

    def _accepted(self, am: int):
        """``(chosen, cells)`` of accept bits ``am``.  ``chosen`` holds the pairs
        whose holders are a phase-2 quorum; field a (wC bits) of ``cells`` is
        the cell a promise by acceptor a writes: 2+k for its highest-ballot
        pair k (k = b*V+v ascends with b), or 1 if it holds none."""
        n, q2, holders_mask = self.n, self.q2, self.holders_mask
        chosen, cells = 0, [1] * n
        for k in range(self.B * self.V):
            held = am >> k * n & holders_mask
            chosen |= q2[held] << k
            cells = [2 + k if held >> a & 1 else c for a, c in enumerate(cells)]
        return chosen, sum(c << a * self.wC for a, c in enumerate(cells))

    # -- optional symmetry canonicalization --------------------------

    def canonical(self, s: int) -> int:
        """The state that stands for ``s``'s orbit under the symmetry group.

        The model accepts only a ballot's proposal, and promise cells report
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

        Acceptor a's block holds its promise, the ballot in its cell of
        each promise row and, per ballot, whether it holds that ballot's
        proposal; the proposals fix every value.  A region (the promises,
        one promise row, one ballot's holders) maps its bits to each
        acceptor's share.
        """
        n, B, V, wP, wC, wV = self.n, self.B, self.V, self.wP, self.wC, self.wV
        wb = (B + 1).bit_length()  # a cell's ballot: 0 absent, 1 nothing accepted, else 2+b
        prom_at = B * wV  # below it, the proposals
        cell_at, held_at = prom_at + wP, prom_at + wP + B * wb

        def block(a, s):
            ballot = lambda code: code and 1 + (code - 1) // V  # of an accepted pair
            x = (s >> self.prom_sh[a] & self.pmask) << prom_at
            for b, row_sh in enumerate(self.row_sh):
                cell = s >> row_sh + a * wC & self.cmask
                x |= (cell and 1 + ballot(cell - 1)) << cell_at + b * wb
                x |= any(s >> self.AMSG + (b * V + v) * n + a & 1 for v in range(V)) << held_at + b
            return x

        def place(i, x):
            pair = lambda c: c and (c - 1) * V + (x >> (c - 1) * wV & self.vmask)  # c = 1 + b
            s = (x >> prom_at & self.pmask) << self.prom_sh[i]
            for b, row_sh in enumerate(self.row_sh):
                cell = x >> cell_at + b * wb & (1 << wb) - 1
                s |= (cell and 1 + pair(cell - 1)) << row_sh + i * wC
                if x >> held_at + b & 1:
                    s |= 1 << self.AMSG + (pair(1 + b) - 1) * n + i
            return s

        spans = ([(self.PROM, n * wP)]
                 + [(sh, n * wC) for sh in self.row_sh]
                 + [(self.AMSG + b * V * n, V * n) for b in range(B)])
        split = lambda lo: _Memo(lambda r: tuple(block(a, r << lo) for a in range(n)))
        regions = [(lo, (1 << w) - 1, split(lo)) for lo, w in spans]
        return regions, [_Memo(partial(place, i)) for i in range(n)]


_MAX_PENDING = 1 << 14  # pending children folded at once at most: bounds their memory


def explore(cfg: CheckConfig) -> CheckResult:
    """BFS over all reachable states, one level at a time; stops at the first violation.

    Every action adds one event to a state (a prepared bit, a promise cell,
    a proposal or an accept bit), and a canonical key has its state's
    events, so each child lies on the level after its parent's.  The
    level's parents append their children, bare ints, to one pending list,
    and ``dict.fromkeys`` of that list (under symmetry, of its keys)
    dedupes it in BFS order: the next level alone finds every duplicate.
    The pending list is folded into the level's dict, and cleared, at the
    level's end and whenever its length reaches the room the budget
    leaves, or ``_MAX_PENDING``: so the search stops within a level, at
    exactly ``max_states`` states, folds each child once and holds few
    duplicates at a time.  A finished level is kept only as the list of
    its keys.  There is no parent map and no action is built: for a
    counterexample, ``_path_to`` takes a key's parent to be the first key
    of the level before whose children include it, the one that reached
    it first.  The initial state is 0 and violates nothing.
    """
    space = _Space(cfg)
    children = space.children
    key = space.canonical if cfg.symmetry else None

    def fold():
        """Move the pending children's new keys into the level; the room left."""
        level.update(dict.fromkeys(map(key, pending) if key else pending))
        pending.clear()
        return room - len(level)

    states = 1
    levels = [[space.initial()]]
    while levels[-1]:
        room = max(cfg.max_states - states, 1)  # new keys that end the search
        left = min(room, _MAX_PENDING)
        level, pending = {}, []
        for s in levels[-1]:
            bad = children(s, pending)
            if bad is None and len(pending) < left:
                continue
            if bad is not None:
                i, prop = bad
                child = pending[i]
                del pending[i:]
            left = fold()
            if left <= 0:
                return CheckResult(states=states + room, complete=False)
            if bad is not None:
                path = _path_to(space, levels, s, key(child) if key else child, key)
                # the child is new: a parent that reached it first would have stopped here
                return CheckResult(states=states + len(level) + 1, complete=False,
                                   violation=Violation(prop, path))
            left = min(left, _MAX_PENDING)
        if fold() <= 0:
            return CheckResult(states=states + room, complete=False)
        states += len(level)
        levels.append(list(level))
    return CheckResult(states=states, complete=True)


def _path_to(space: _Space, levels, s: int, target: int, key=None):
    """The actions of a concrete run from the initial state to one keyed ``target``.

    ``target`` is a child of ``s``, a key of the last of ``levels``.  Going
    back a level at a time, a key's parent is the first key of the level
    before, in BFS order, with it among its keyed children: the state the
    search first reached it from.  Walking forward, each step then takes
    the first child whose key is the next on that chain, and its action is
    read off the two states.  Without symmetry a key is its state, so the
    step is the edge the search reached it by.  Under symmetry the group
    maps a key's edges onto those of every state in its orbit, so the step
    exists, and the run is as long as a plain search's.
    """
    keyed = key or (lambda c: c)

    def kids(p):
        out = []
        space.children(p, out)
        return out

    chain = [target, s]
    for level in reversed(levels[:-1]):
        chain.append(next(p for p in level if chain[-1] in map(keyed, kids(p))))
    s, path = chain.pop(), []
    for nxt in reversed(chain):
        child = next(c for c in kids(s) if keyed(c) == nxt)
        path.append(space.action(s, child))
        s = child
    return tuple(path)


# -- replay through the protocol core ------------------------------------


@dataclass
class ReplayResult:
    states: list  # one multi.Replica per acceptor, indexed by id
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

    def shows(self, prop: str) -> bool:
        """Whether this replay shows ``prop`` broken: it confirms a violation of ``prop``."""
        return self.conflicting if prop == AGREEMENT else self.contradicted


def replay(path, cfg: CheckConfig) -> ReplayResult:
    """Re-execute an action path by delivering its messages to the simulator's acceptors.

    Each acceptor is a ``multi.Replica`` with a window of 1, whose
    ``on_message`` is handed a ``LeaderPrepare`` or ``SlotPropose`` at slot
    0 (``from_slot`` and ``commit`` 0).  What replay records is read off the
    reply: a promise's pair, accept or refusal, and a nack's ballot.  Besides
    the checker's four actions a path may hold three that only scripted
    runs use: ``("refuse", a, b, v)``, a proposal that acceptor a nacks;
    ``("answer", a, b)``, a's accept or nack of ballot b's proposal
    reaching its proposer; and ``("crash", a, wipe)``, which crashes a's
    replica and wipes its memory if asked.  Every action must be enabled
    under the core's rules, a promise only after its ballot's prepare, and
    agree on the produced values; any mismatch raises
    :class:`ReplayDivergenceError`.  Decisions observed along the
    way accumulate: a pair is decided once a phase-2 quorum has accepted
    it, whatever its acceptors accepted or lost since, as
    :func:`fpaxos.core.decided_proposals` rules.

    ``events`` holds, in order, one tuple per delivered message: its type,
    its acceptor, its ballot and, for a promise, a propose or a nack, the
    reported pair (or None), the value or the promised ballot.  A prepare
    is delivered at its promise, the promises at the propose they justify
    in the order of its senders, a proposal at its accept or refusal and
    an answer at its own action.  ``("decide", pair)`` follows each newly
    decided pair, ``("violation", values)`` the decision of a second
    value, and each crash action is listed as it is.
    """
    qs = cfg.quorum
    ballots = cfg.ballot_list()
    acc = [Replica(a, qs, window=1) for a in range(qs.n)]
    promises = {}  # (a, b) -> a's promise event for ballot b
    answers = {}  # (a, b) -> a's answer event to ballot b's proposal
    accepts = {}  # (ballot, value) -> mask of the acceptors that accepted it
    prepared = set()  # the ballot indices whose prepare was sent
    result = ReplayResult(states=acc)
    proposed, log = result.proposals, result.events.append
    for act in path:
        kind = act[0]
        if kind == "promise":
            a, b = act[1], act[2]
            if b not in prepared:
                raise ReplayDivergenceError(f"{act} answers a prepare never sent")
            ballot = ballots[b]
            log(("prepare", a, ballot))
            [reply] = acc[a].on_message(LeaderPrepare(ballot.proposer, a, ballot, 0), ())
            if type(reply) is not LeaderPromise:
                raise ReplayDivergenceError(f"core refused promise for {act}")
            promises[(a, b)] = ("promise", a, ballot, reply.accepted[0][1:] if reply.accepted else None)
        elif kind == "propose":
            b, v, senders = act[1], act[2], act[3]
            if not qs.is_q1(mask_of(senders)):
                raise ReplayDivergenceError(f"justifying set for {act} is not a phase-1 quorum")
            try:
                cited = [promises[(a, b)] for a in senders]
            except KeyError:
                raise ReplayDivergenceError(f"{act} cites a promise that was never sent")
            value = cfg.values[v]
            if choose_value([m[3] for m in cited], value) != value:
                raise ReplayDivergenceError(f"core value-choice rule rejects {act}")
            if proposed.setdefault(ballots[b], value) != value:
                raise ReplayDivergenceError(f"two proposals for one ballot at {act}")
            for m in cited:
                log(m)
        elif kind in ("accept", "refuse"):
            a, b, v = act[1], act[2], act[3]
            ballot, value = ballots[b], cfg.values[v]
            if proposed.get(ballot) != value:
                raise ReplayDivergenceError(f"{act} delivers a value never proposed")
            log(("propose", a, ballot, value))
            [reply] = acc[a].on_message(SlotPropose(ballot.proposer, a, ballot, 0, value, 0), ())
            accepted = type(reply) is SlotAccept
            answer = ("accept", a, ballot) if accepted else ("nack", a, ballot, reply.promised)
            answers[(a, b)] = answer
            if accepted != (kind == "accept"):
                raise ReplayDivergenceError(f"core answers {act} with {answer[0]}")
            accepts[ballot, value] = accepts.get((ballot, value), 0) | accepted << a
            for pair in decided_proposals(accepts, qs):
                if pair not in result.decisions:
                    conflicting = result.conflicting
                    result.decisions.append(pair)
                    log(("decide", pair))
                    if result.conflicting and not conflicting:
                        log(("violation", [v for _, v in result.decisions]))
        elif kind == "answer":
            answer = answers.get((act[1], act[2]))
            if answer is None:
                raise ReplayDivergenceError(f"{act} answers a proposal never delivered")
            log(answer)
        elif kind == "crash":
            log(act)
            acc[act[1]].crash(lose_memory=act[2])
        elif kind == "prepare":
            prepared.add(act[1])
        else:
            raise ReplayDivergenceError(f"unknown action {act!r}")
    return result


# -- constructor/falsification catalog ------------------------------------


@dataclass(frozen=True)
class SweepEntry:
    name: str
    intersects: bool
    verdict: str  # its search's CheckResult.verdict
    states: int
    consistent: bool  # intersecting and safe, or broken with a confirmed violation


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


def quorum_safety_sweep(n_max: int, **check):
    """Cross-check the checker against the intersection test, up to ``n_max``.

    Each catalog family is searched as ``CheckConfig(quorum, **check)``.  It
    is consistent when it intersects and is ``safe``, or it does not and
    replay shows its violation; a ``partial`` search is neither.
    """
    if n_max > MAX_SWEEP_N:
        raise ValueError(f"combinatorial sweep limited to n_max <= {MAX_SWEEP_N}")
    if n_max < 1:
        raise ValueError(f"n_max must be at least 1, got {n_max}")
    report = []
    for name, qs in sweep_catalog(n_max):
        cfg = CheckConfig(qs, **check)
        res, intersects = explore(cfg), validate_cross_intersection(qs)
        v = res.violation
        consistent = (res.verdict == SAFE if intersects
                      else v is not None and replay(v.path, cfg).shows(v.property))
        report.append(SweepEntry(name, intersects, res.verdict, res.states, consistent))
    return report
