"""Protocol rules shared by the simulator's replicas and the checker's replay.

The acceptor has two steps.  :func:`acceptor_handle_prepare` applies the
promise rule :func:`can_promise` and :func:`acceptor_handle_propose` the
accept rule :func:`can_accept`.  Each changes, in place, any record with a
``promised`` ballot and an ``accepted`` map from slot to (ballot, value),
and returns whether it promised or accepted; the caller builds the reply.
``multi.Replica`` takes these steps on every prepare and propose it
receives and builds the reply; :func:`fpaxos.checker.replay` delivers its
prepares and proposes at slot 0 to one replica per acceptor and reads
each promise, accept and nack off the reply, so a counterexample replays
through the simulator's acceptor.  The proposer's value rule is
:func:`choose_value`, which the replica's leader applies at recovery.
The learner's rule is :func:`decided_proposals`: a pair is chosen once
every acceptor of a phase-2 quorum has sent an accept for it, at any
times.  ``replay``, ``sim.World`` and the scripted scenarios' proposers
all decide by it.  Every function here is deterministic in its arguments.

:class:`SafetyViolationError` is the one safety exception, of replicas
and simulator alike.  :func:`message_json`, which writes a message's JSON
text off its fields, is the one trace encoder for ``multi``'s messages,
and :func:`json_text` encodes the other values a trace line holds.  A
:class:`Trace` keeps the simulator's lines as that text, from the moment
they are recorded, and reads them back as dicts.  :func:`to_jsonl` is the
one writer of JSON lines, for traces and counterexamples alike;
:func:`read_config` is the one reader of JSON run configurations, for
simulations and checks alike.  It only decodes: each configuration checks
its own values when it is built, by :func:`check_type`'s type rule among
others.
"""

from __future__ import annotations

import json
from collections.abc import Sequence
from dataclasses import dataclass, fields
from functools import cache
from json.encoder import JSONEncoder, encode_basestring_ascii
from typing import Callable, Mapping, Optional

from .quorum import QuorumSystem, select_quorum  # noqa: F401 (perfbench/spans.py wraps it)

Value = str


class SafetyViolationError(Exception):
    """A slot resolved to two different values; ``sim.World.run`` adds its :class:`Trace`."""

    def __init__(self, slot, values, trace=None):
        self.slot = slot
        self.values = values
        self.trace = trace
        super().__init__(f"slot {slot} decided as {values!r}")


@dataclass(frozen=True, order=True)
class Ballot:
    """Totally ordered, proposer-unique proposal number."""

    round: int
    proposer: int

    def json(self) -> list:
        return [self.round, self.proposer]


# -- trace encoding -----------------------------------------------------


@cache
def _plan(cls) -> tuple:
    """``(type, ((key, field name), ...))``: how ``message_json`` encodes ``cls``."""
    name = cls.__name__.removeprefix("Leader").removeprefix("Slot").lower()
    return name, tuple(
        (f.metadata.get("trace", f.name), f.name)
        for f in fields(cls)
        if f.name not in ("src", "dst") and f.metadata.get("trace", f.name) is not None
    )


# The trace's value types, by exact type; a bool or a float is not an int here.
_TEXTS = {
    int: int.__repr__,
    str: encode_basestring_ascii,
    Ballot: lambda b: f"[{b.round},{b.proposer}]",
    tuple: lambda t: "[" + ",".join([json_text(x) for x in t]) + "]",
}


def json_text(v) -> str:
    """``json.dumps(v, separators=(",", ":"))``, with a ballot as ``[round, proposer]``
    and a tuple as a list, as a trace records ``v``."""
    text = _TEXTS.get(type(v))
    return text(v) if text is not None else _COMPACT.encode(v)


@cache
def _formatter(cls):
    """``message_json`` of ``cls``, compiled once from ``_plan``: the constant
    text of its keys joined around each field's ``json_text``."""
    name, keys = _plan(cls)
    parts = [repr('{"type":' + encode_basestring_ascii(name))]
    for key, attr in (*keys, ("src", "src"), ("dst", "dst")):
        parts += [repr("," + encode_basestring_ascii(key) + ":"), f"json_text(m.{attr})"]
    namespace = {"json_text": json_text}
    exec(f"def message_json(m):\n    return ''.join(({', '.join(parts)}, '}}'))", namespace)
    return namespace["message_json"]


def message_json(m) -> str:
    """Canonical trace text of a message, read off its fields.

    It is the compact JSON of an object: ``type``, the class name without a
    ``Leader``/``Slot`` prefix, lower-cased; the other fields in declaration
    order, then ``src`` and ``dst``.  A ballot is ``[round, proposer]`` and a
    tuple a list.  A field's ``metadata["trace"]`` renames its key, or with
    None leaves it out.
    """
    return _formatter(type(m))(m)


class Trace(Sequence):
    """A simulator trace: one JSON text line per event, each ending in ``\\n``.

    A run records each line as its final text in ``lines``, so it keeps no
    dict per event; indexing and iteration read a line back as a dict.
    """

    __slots__ = ("lines",)

    def __init__(self):
        self.lines = []

    def __len__(self) -> int:
        return len(self.lines)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [json.loads(line) for line in self.lines[i]]
        return json.loads(self.lines[i])

    def __iter__(self):
        return map(json.loads, self.lines)


_COMPACT = JSONEncoder(separators=(",", ":"))  # json.dumps(v, separators=(",", ":"))


def to_jsonl(lines) -> str:
    """``json.dumps(line, separators=(",", ":")) + "\\n"`` for each line, joined.

    A :class:`Trace` is already that text, and is joined.  Dict lines
    (checker counterexamples, scenario traces) go through one shared
    encoder with those separators, which is what ``json.dumps`` runs.
    """
    if isinstance(lines, Trace):
        return "".join(lines.lines)
    return "".join([_COMPACT.encode(line) + "\n" for line in lines])


_TYPE_NAMES = {int: "an integer", float: "a number", bool: "true or false", str: "a string",
               list: "a list"}


def read_config(d, defaults: Mapping, decoders: Mapping[str, Callable], what: str) -> dict:
    """The keyword arguments that the JSON object ``d`` gives a configuration.

    Each key must be in ``defaults``, or it is a ``ValueError`` naming it.
    A key in ``decoders`` takes what its decoder returns, and any other
    value is passed as it is: the configuration checks its own values.
    Absent keys stay absent.
    """
    unknown = sorted(set(d) - set(defaults))
    if unknown:
        raise ValueError(f"unknown {what} config key(s): {', '.join(unknown)}")
    return {key: decoders[key](value) if key in decoders else value for key, value in d.items()}


def check_type(key: str, value, default) -> None:
    """Raise a ``ValueError`` naming ``key`` unless ``value`` has ``default``'s type.

    An int passes for a float, a bool for no number.
    """
    want = type(default)
    if not (type(value) is want or want is float and type(value) is int):
        raise ValueError(f"{key} must be {_TYPE_NAMES[want]}, got {value!r}")


# -- acceptor -----------------------------------------------------------


def can_promise(promised: Optional[Ballot], ballot: Ballot) -> bool:
    """The promise rule: a prepare is promised if its ballot beats every earlier promise."""
    return promised is None or ballot > promised


def can_accept(promised: Optional[Ballot], ballot: Ballot) -> bool:
    """The accept rule: a proposal is accepted at or above the promised ballot."""
    return promised is None or ballot >= promised


def acceptor_handle_prepare(acc, ballot: Ballot) -> bool:
    """The promise step: whether ``acc`` promises ``ballot``, raising its promise if so.

    A prepare of the ballot already promised is promised again, so a
    duplicated prepare gets a second promise rather than a nack.
    """
    if ballot != acc.promised and not can_promise(acc.promised, ballot):
        return False
    acc.promised = ballot
    return True


def acceptor_handle_propose(acc, ballot: Ballot, slot: int, value: Value) -> bool:
    """The accept step: whether ``acc`` accepts ``value`` at ``slot``.

    Re-accepting is idempotent.
    """
    if not can_accept(acc.promised, ballot):
        return False
    acc.promised = ballot
    acc.accepted[slot] = (ballot, value)
    return True


# -- value choice -------------------------------------------------------


def choose_value(promised_pairs, candidate: Value) -> Value:
    """The value of the highest-ballot accepted pair, else the candidate."""
    pairs = [p for p in promised_pairs if p is not None]
    if not pairs:
        return candidate
    return max(pairs, key=lambda p: p[0])[1]


# -- learner ------------------------------------------------------------


def decided_proposals(accepts: Mapping, qs: QuorumSystem):
    """The chosen (ballot, value) pairs, by ballot: those a full phase-2 quorum accepted.

    ``accepts`` maps each pair to the bitmask of acceptors that have sent an
    accept for it.  When each sent it does not matter, nor what it holds now.
    """
    return sorted([pair for pair, who in accepts.items() if qs.is_q2(who)], key=lambda p: p[0])
