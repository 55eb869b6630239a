"""Single-decree protocol rules.

Pure functions over immutable acceptor states: the acceptor's promise and
accept rules, the proposer's value choice (:func:`choose_value`) and the
learner's rule (:func:`decided_proposals`).  The callers own message
delivery and scheduling: :func:`fpaxos.checker.replay`, which also runs
the scripted scenarios, and the simulator's ``multi.Replica``, the one
proposer, which applies the acceptor rules :func:`can_promise` and
:func:`can_accept` to its per-slot state.  Every function here is
deterministic in (state, input).

Messages follow the classic two-phase shape: prepare/promise to win a
phase-1 quorum, propose/accept to commit a value on a phase-2 quorum.
Explicit nacks are an artifact addition so rejected proposers can react
promptly; they never change acceptor state, so safety is unaffected.

:func:`message_json`, which reads a message's JSON off its fields, is the
one trace encoder for these messages and the slot-level ones of ``multi``;
:func:`to_jsonl` is the one writer of JSON lines, for traces and
counterexamples alike; :func:`read_config` is the one reader of JSON run
configurations, for simulations, checks and sweep specs alike.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from functools import cache
from json.encoder import JSONEncoder, c_make_encoder, encode_basestring_ascii
from typing import Callable, Mapping, Optional, Tuple

from .quorum import QuorumSystem, select_quorum  # noqa: F401 (perfbench/spans.py wraps it)

Value = str


class AgreementViolation(Exception):
    """Two phase-2 quorums hold different values: safety is broken."""

    def __init__(self, proposals):
        self.proposals = proposals
        super().__init__(f"conflicting decided proposals: {proposals}")


@dataclass(frozen=True, order=True)
class Ballot:
    """Totally ordered, proposer-unique proposal number."""

    round: int
    proposer: int

    def json(self) -> list:
        return [self.round, self.proposer]


@dataclass(frozen=True)
class AcceptorState:
    promised: Optional[Ballot] = None
    accepted: Optional[Tuple[Ballot, Value]] = None


# -- wire messages ------------------------------------------------------


@dataclass(frozen=True)
class Prepare:
    src: object
    dst: object
    ballot: Ballot


@dataclass(frozen=True)
class Promise:
    src: object
    dst: object
    ballot: Ballot
    accepted: Optional[Tuple[Ballot, Value]]


@dataclass(frozen=True)
class Propose:
    src: object
    dst: object
    ballot: Ballot
    value: Value


@dataclass(frozen=True)
class Accept:
    src: object
    dst: object
    ballot: Ballot


@dataclass(frozen=True)
class Nack:
    src: object
    dst: object
    ballot: Ballot
    promised: Ballot


@cache
def _plan(cls) -> tuple:
    """``(type, ((key, field name), ...))``: how ``message_json`` encodes ``cls``."""
    name = cls.__name__.removeprefix("Leader").removeprefix("Slot").lower()
    return name, tuple(
        (f.metadata.get("trace", f.name), f.name)
        for f in fields(cls)
        if f.name not in ("src", "dst") and f.metadata.get("trace", f.name) is not None
    )


def _json_value(v):
    if type(v) is Ballot:
        return [v.round, v.proposer]
    if type(v) is tuple:
        return [_json_value(x) for x in v]
    return v


def message_json(m) -> dict:
    """Canonical trace form of a message of either vocabulary, read off its fields.

    ``type`` is the class name without a ``Leader``/``Slot`` prefix,
    lower-cased; the other fields follow in declaration order, then ``src``
    and ``dst``.  A ballot is ``[round, proposer]`` and a tuple a list.  A
    field's ``metadata["trace"]`` renames its key, or with None leaves it out.
    """
    name, keys = _plan(type(m))
    d = {"type": name}
    for key, attr in keys:
        d[key] = _json_value(getattr(m, attr))
    d["src"] = m.src
    d["dst"] = m.dst
    return d


_COMPACT = JSONEncoder(separators=(",", ":"))  # json.dumps(v, separators=(",", ":"))


def to_jsonl(lines) -> str:
    """``json.dumps(line, separators=(",", ":")) + "\\n"`` for each line, joined.

    ``json.dumps`` with non-default separators builds a new encoder for
    every line; this builds one C encoder with the same settings and runs it
    on them all.  It is built per call so that its circular-reference
    markers, which an encoding error leaves filled, are never shared.
    """
    if c_make_encoder is None:  # an interpreter without the _json accelerator
        return "".join([_COMPACT.encode(line) + "\n" for line in lines])
    c = _COMPACT
    encode = c_make_encoder(
        {}, c.default, encode_basestring_ascii, c.indent, c.key_separator,
        c.item_separator, c.sort_keys, c.skipkeys, c.allow_nan,
    )
    return "".join(["".join(encode(line, 0)) + "\n" for line in lines])


_TYPE_NAMES = {int: "an integer", float: "a number", bool: "true or false", str: "a string",
               list: "a list"}


def read_config(d, defaults: Mapping, decoders: Mapping[str, Callable], what: str) -> dict:
    """The keyword arguments that the JSON object ``d`` gives a configuration.

    Each key must be in ``defaults``.  A key in ``decoders`` takes what its
    decoder returns; any other value must have its default's type (an int
    passes for a float, a bool for no number).  A violation is a
    ``ValueError`` naming the key.  Absent keys stay absent.
    """
    unknown = sorted(set(d) - set(defaults))
    if unknown:
        raise ValueError(f"unknown {what} config key(s): {', '.join(unknown)}")
    kw = dict(d)
    for key, value in d.items():
        want = type(defaults[key])
        if key in decoders:
            kw[key] = decoders[key](value)
        elif not (type(value) is want or want is float and type(value) is int):
            raise ValueError(f"{key} must be {_TYPE_NAMES[want]}, got {value!r}")
    return kw


# -- acceptor -----------------------------------------------------------


def can_promise(promised: Optional[Ballot], ballot: Ballot) -> bool:
    """The promise rule: a prepare is promised if its ballot beats every earlier promise."""
    return promised is None or ballot > promised


def can_accept(promised: Optional[Ballot], ballot: Ballot) -> bool:
    """The accept rule: a proposal is accepted at or above the promised ballot."""
    return promised is None or ballot >= promised


def acceptor_handle_prepare(st: AcceptorState, m: Prepare):
    """Promise the ballot if :func:`can_promise` allows it, else nack."""
    if can_promise(st.promised, m.ballot):
        st2 = replace(st, promised=m.ballot)
        return st2, Promise(src=m.dst, dst=m.src, ballot=m.ballot, accepted=st.accepted)
    return st, Nack(src=m.dst, dst=m.src, ballot=m.ballot, promised=st.promised)


def acceptor_handle_propose(st: AcceptorState, m: Propose):
    """Accept if :func:`can_accept` allows it, else nack; re-accepting is idempotent."""
    if can_accept(st.promised, m.ballot):
        st2 = AcceptorState(promised=m.ballot, accepted=(m.ballot, m.value))
        return st2, Accept(src=m.dst, dst=m.src, ballot=m.ballot)
    return st, Nack(src=m.dst, dst=m.src, ballot=m.ballot, promised=st.promised)


# -- value choice -------------------------------------------------------


def choose_value(promised_pairs, candidate: Value) -> Value:
    """The value of the highest-ballot accepted pair, else the candidate."""
    pairs = [p for p in promised_pairs if p is not None]
    if not pairs:
        return candidate
    return max(pairs, key=lambda p: p[0])[1]


# -- learner ------------------------------------------------------------


def decided_proposals(states: Mapping[int, AcceptorState], qs: QuorumSystem):
    """All (ballot, value) pairs currently held by a full phase-2 quorum."""
    holders = {}
    for aid, st in states.items():
        if st.accepted is not None:
            holders.setdefault(st.accepted, set()).add(aid)
    return sorted(
        (pair for pair, who in holders.items() if qs.is_q2(frozenset(who))),
        key=lambda p: p[0],
    )
