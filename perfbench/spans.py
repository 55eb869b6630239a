"""Traced runs: span-recording wrappers around the program's layer boundaries.

The wrappers live here, in the benchmark, and are patched in where each
caller looks the name up: ``multi`` and ``core`` bind ``select_quorum`` by
name, ``checker`` binds the ``core`` functions by name, while ``sim`` calls
``core.decided_proposals`` and ``multi.message_json`` through the module.
Methods are patched on their class, before ``World.run`` binds them.

A span is ``(name, start_ns, end_ns, parent_index)``.  Spans are kept in
memory for one unit of work and folded into per-name totals after it; a
span's self time is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import json
import time
from collections import Counter

from fpaxos import checker, core, multi, quorum, sim

def _on_message_counts(counts, args, out) -> None:
    """Counts read from the messages ``Replica.on_message`` returns."""
    counts["multi.msgs_out"] += len(out)
    for m in out:
        if type(m) is multi.LeaderPromise:
            counts["multi.promise_entries"] += len(m.accepted)
    if type(args[1]) is multi.LeaderPromise:
        counts["multi.recovery_proposals"] += sum(type(m) is multi.SlotPropose for m in out)


def _retransmit_counts(counts, args, out) -> None:
    if out:
        counts["sim.retransmits"] += 1


class Recorder:
    """Installs the wrappers, records spans, and folds them into totals."""

    def __init__(self):
        self.spans = []
        self.stack = [-1]
        self.counts = Counter()
        self.calls = Counter()  # span name -> calls, over every folded unit
        self.total_ns = Counter()  # span name -> summed duration
        self.self_ns = Counter()  # span name -> summed self time
        self.root_ns = 0  # time covered by spans without a parent
        self.last_spans = []
        self._patched = []

    def _wrap(self, name, fn, observe=None):
        spans, stack, clock, counts = self.spans, self.stack, time.perf_counter_ns, self.counts

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(idx)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent)
            if observe is not None:
                observe(counts, args, out)
            return out

        return wrapper

    def _targets(self):
        """(owner, attribute, span name, observer) for every patched lookup."""
        Q, R, W = quorum.QuorumSystem, multi.Replica, sim.World
        return [
            (Q, "is_q1", "quorum.is_q1", None),
            (Q, "is_q2", "quorum.is_q2", None),
            (quorum, "select_quorum", "quorum.select_quorum", None),
            (multi, "select_quorum", "quorum.select_quorum", None),
            (core, "select_quorum", "quorum.select_quorum", None),
            (core, "acceptor_handle_propose", "core.acceptor_handle_propose", None),
            (core, "decided_proposals", "core.decided_proposals", None),
            (checker, "acceptor_handle_prepare", "core.acceptor_handle_prepare", None),
            (checker, "acceptor_handle_propose", "core.acceptor_handle_propose", None),
            (checker, "decided_proposals", "core.decided_proposals", None),
            (R, "on_message", "multi.on_message", _on_message_counts),
            (R, "become_leader", "multi.become_leader", None),
            (R, "retransmit", "multi.retransmit", _retransmit_counts),
            (W, "run", "sim.run", None),
            (W, "reachable", "sim.reachable", None),
            (W, "_check_slot", "sim.check_slot", None),
            (multi, "message_json", "trace.message_json", None),
            (sim, "to_jsonl", "trace.to_jsonl", None),
            (checker, "explore", "checker.explore", None),
            (checker, "replay", "checker.replay", None),
        ]

    def install(self) -> None:
        originals = {}
        for owner, attr, name, observe in self._targets():
            orig = owner.__dict__[attr]
            wrapped = originals.setdefault((id(orig), name), self._wrap(name, orig, observe))
            self._patched.append((owner, attr, orig))
            setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._patched):
            setattr(owner, attr, orig)
        self._patched = []

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def fold(self) -> None:
        """Add the recorded spans to the totals and start a fresh unit."""
        child_ns = [0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
            else:
                self.root_ns += end - start
        for (name, start, end, _), covered in zip(self.spans, child_ns):
            self.calls[name] += 1
            self.total_ns[name] += end - start
            self.self_ns[name] += end - start - covered
        self.last_spans = self.spans[:]
        self.spans.clear()

    def write_spans(self, path: str) -> None:
        """The last folded unit's spans, one JSON line each."""
        with open(path, "w") as f:
            for i, (name, start, end, parent) in enumerate(self.last_spans):
                f.write(json.dumps({"id": i, "name": name, "start_ns": start,
                                    "end_ns": end, "parent": parent}) + "\n")

    def layer_self_ns(self, layer: str) -> int:
        return sum(ns for name, ns in self.self_ns.items() if name.startswith(layer + "."))

    def layer_calls(self, layer: str) -> int:
        return sum(c for name, c in self.calls.items() if name.startswith(layer + "."))


def per_layer(rec: Recorder, units: list, untraced_wall_s: float, traced_wall_s: float) -> dict:
    """Every per-layer metric, from the traced units and their recorder.

    ``units`` are the traced units; counts are averaged per unit, ratios are
    taken over all of them.  Rates divide by the untraced median wall time.
    A layer the workload never calls reads 0.
    """
    k = len(units)
    commits = sum(u.commits for u in units)
    counts = Counter(rec.counts)
    for u in units:
        counts.update(u.counts)
    root = rec.root_ns or 1

    def per_commit(x):
        return x / commits if commits else 0.0

    def share(ns):
        return ns / root

    q_calls = rec.layer_calls("quorum")
    return {
        "quorum.calls": q_calls / k,
        "quorum.calls_per_commit": per_commit(q_calls),
        "quorum.call_us": rec.layer_self_ns("quorum") / q_calls / 1000 if q_calls else 0.0,
        "quorum.self_share": share(rec.layer_self_ns("quorum")),
        "core.calls_per_commit": per_commit(rec.layer_calls("core")),
        "core.self_share": share(rec.layer_self_ns("core")),
        "multi.on_message_per_commit": per_commit(rec.calls["multi.on_message"]),
        "multi.self_share": share(rec.layer_self_ns("multi")),
        "multi.msgs_out_per_commit": per_commit(counts["multi.msgs_out"]),
        "multi.promise_entries": counts["multi.promise_entries"] / k,
        "multi.recovery_proposals": counts["multi.recovery_proposals"] / k,
        "sim.events_per_s": counts["sim.events"] / k / untraced_wall_s,
        "sim.self_share": share(rec.layer_self_ns("sim")),
        "sim.reachable_calls_per_commit": per_commit(rec.calls["sim.reachable"]),
        "sim.reachable_share": share(rec.self_ns["sim.reachable"]),
        "sim.check_slot_share": share(rec.self_ns["sim.check_slot"]),
        "sim.drops": counts["sim.drops"] / k,
        "sim.retransmits": counts["sim.retransmits"] / k,
        "sim.nacks": counts["sim.nacks"] / k,
        "sim.useful_msg_ratio": (
            counts["sim.useful_msgs"] / counts["sim.proto_msgs"]
            if counts["sim.proto_msgs"] else 0.0
        ),
        "trace.message_json_calls_per_commit": per_commit(rec.calls["trace.message_json"]),
        "trace.encode_share": share(rec.layer_self_ns("trace")),
        "trace.bytes_per_commit": per_commit(counts["trace.bytes"]),
        "checker.states": counts["checker.states"] / k,
        "checker.states_per_s": counts["checker.states"] / k / untraced_wall_s,
        "checker.self_share": share(rec.layer_self_ns("checker")),
        "checker.replay_share": share(rec.total_ns["checker.replay"]),
        "trace_overhead": traced_wall_s / untraced_wall_s,
    }
