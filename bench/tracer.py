"""Span tracer for the benchmark's traced runs.

`install` wraps linlab's public functions and a few hot methods so that
every call records a span: layer, parent span, start and end. Functions
are patched at every module that binds them by name (`apply_step` is
imported by name into valence, progress and cli, the checkers into
valence), methods on their classes. Spans stay in flat arrays in memory;
`Tracer.summary` derives calls, self time and the ratios from them, and
`Tracer.write` dumps them when the run ends. Nothing here runs unless a
traced run calls `install`, and `install` returns the function that puts
every original back.
"""

from __future__ import annotations

import json
import struct
import sys
from array import array
from time import perf_counter

# layer name -> (module, attribute) targets; a dotted attribute is a method
LAYERS = {
    "model.apply_step": [("linlab.model", "apply_step")],
    "model.enabled_steps": [("linlab.model", "enabled_steps")],
    "model.core_key": [("linlab.model", "Configuration.core_key")],
    "protocols.transition": [("linlab.protocols", "ScriptedSystem.transition")],
    "valence.vkey": [("linlab.valence", "Scenario.vkey")],
    "valence.fair_completion": [("linlab.valence", "fair_completion")],
    "valence.staged_probe": [("linlab.valence", "staged_probe")],
    "valence.classify": [("linlab.valence", "classify_valence")],
    "valence.successor": [("linlab.valence", "bivalent_successor")],
    "valence.hbi": [("linlab.valence", "build_hbi")],
    "valence.audit": [("linlab.valence", "completed_implies_univalent_audit")],
    "valence.tree": [("linlab.valence", "explore_history_tree")],
    "progress.check": [
        ("linlab.progress", "check_1rlf"),
        ("linlab.progress", "check_nonblocking"),
    ],
    "seqspec.op_history": [("linlab.seqspec", "OpHistory.__init__")],
    "checkers.is_linearizable": [("linlab.checkers", "is_linearizable")],
    "checkers.strategy": [
        ("linlab.checkers", "strong_linearization_exists"),
        ("linlab.checkers", "write_strong_linearization_exists"),
    ],
    "cli.main": [("linlab.cli", "main")],
}
FAIR = ("valence.fair_completion", "valence.staged_probe")
JOB = "job"  # root span of one job
BOOKKEEPING = "tracer"  # the tracer's own work, kept out of its parent's self time


class Tracer:
    def __init__(self):
        self.layers = [JOB, BOOKKEEPING] + list(LAYERS)
        self.index = {name: i for i, name in enumerate(self.layers)}
        self.layer = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.candidates = 0  # linearizations handed to the checkers
        self.vkey_repeats = 0  # vkey results already returned in the same job
        self._keys: set = set()

    def begin(self, layer: int) -> int:
        sid = len(self.start)
        self.layer.append(layer)
        self.parent.append(self.stack[-1])
        self.end.append(0.0)
        self.stack.append(sid)
        self.start.append(perf_counter())
        return sid

    def finish(self, sid: int) -> None:
        self.end[sid] = perf_counter()
        self.stack.pop()

    def job(self, fn, arg):
        """Run one job under a root span; spans of one job share it."""
        sid = self.begin(0)
        try:
            return fn(arg)
        finally:
            self.finish(sid)
            self._keys = set()

    def wrap(self, name: str, fn):
        layer = self.index[name]
        begin, finish = self.begin, self.finish

        def traced(*args, **kw):
            sid = begin(layer)
            try:
                return fn(*args, **kw)
            finally:
                finish(sid)

        return traced

    def wrap_vkey(self, fn):
        inner = self.wrap("valence.vkey", fn)
        bookkeeping = self.index[BOOKKEEPING]

        def vkey(scenario, config):
            key = inner(scenario, config)
            sid = self.begin(bookkeeping)
            if key in self._keys:
                self.vkey_repeats += 1
            else:
                self._keys.add(key)
            self.finish(sid)
            return key

        return vkey

    def wrap_linearizations(self, fn):
        def linearizations(*args, **kw):
            for cand in fn(*args, **kw):
                self.candidates += 1
                yield cand

        return linearizations

    # --- derived numbers ------------------------------------------------------

    def summary(self, lo: int = 0, hi: int | None = None) -> dict:
        """Calls, self time and flags for spans lo..hi (one or more whole
        jobs). Self time is a span's duration minus its direct children's."""
        hi = len(self.start) if hi is None else hi
        layer, parent, start, end = self.layer, self.parent, self.start, self.end
        n_layers = len(self.layers)
        calls = [0] * n_layers
        total = [0.0] * n_layers
        child = [0.0] * (hi - lo)
        for i in range(lo, hi):
            d = end[i] - start[i]
            calls[layer[i]] += 1
            total[layer[i]] += d
            p = parent[i]
            if p >= lo:
                child[p - lo] += d
        self_s = [0.0] * n_layers
        for i in range(lo, hi):
            self_s[layer[i]] += end[i] - start[i] - child[i - lo]

        ix = self.index
        step, classify, successor = (
            ix["model.apply_step"], ix["valence.classify"], ix["valence.successor"])
        fair = {ix[name] for name in FAIR}
        check = ix["progress.check"]
        # parents precede children, so one forward pass propagates "under a
        # fair run" and "under a progress check" down the tree ...
        under_fair = bytearray(hi - lo)
        under_check = bytearray(hi - lo)
        fair_steps = check_steps = candidates = 0
        for i in range(lo, hi):
            p = parent[i] - lo
            li = layer[i]
            under_fair[i - lo] = li in fair or (p >= 0 and under_fair[p])
            under_check[i - lo] = li == check or (p >= 0 and under_check[p])
            if li == step:
                fair_steps += under_fair[i - lo]
                check_steps += under_check[i - lo]
            elif li == classify and p >= 0 and layer[p + lo] == successor:
                candidates += 1
        # ... and one backward pass tells which classify calls stepped at all
        stepped = bytearray(hi - lo)
        memo_hits = 0
        for i in range(hi - 1, lo - 1, -1):
            li = layer[i]
            if li == classify and not stepped[i - lo]:
                memo_hits += 1
            p = parent[i] - lo
            if p >= 0 and (li == step or stepped[i - lo]):
                stepped[p] = 1
        return {
            "calls": dict(zip(self.layers, calls)),
            "total_s": dict(zip(self.layers, total)),
            "self_s": dict(zip(self.layers, self_s)),
            "fair_steps": fair_steps,
            "check_steps": check_steps,
            "successor_candidates": candidates,
            "classify_memo_hits": memo_hits,
        }

    def write(self, path) -> None:
        """Spans as a JSON header line followed by the four raw arrays in
        header order (native byte order)."""
        header = {
            "layers": self.layers,
            "spans": len(self.start),
            "arrays": ["layer:i", "parent:i", "start:d", "end:d"],
            "byteorder": sys.byteorder,
        }
        with open(path, "wb") as fh:
            head = json.dumps(header).encode() + b"\n"
            fh.write(struct.pack("<I", len(head)))
            fh.write(head)
            for arr in (self.layer, self.parent, self.start, self.end):
                arr.tofile(fh)


def read_spans(path) -> tuple:
    """Inverse of Tracer.write: (layer names, layer, parent, start, end)."""
    with open(path, "rb") as fh:
        (size,) = struct.unpack("<I", fh.read(4))
        header = json.loads(fh.read(size))
        arrays = []
        for spec in header["arrays"]:
            arr = array(spec.split(":")[1])
            arr.fromfile(fh, header["spans"])
            arrays.append(arr)
    return (header["layers"], *arrays)


def resolve(module: str, attr: str) -> tuple:
    """(owner, name) of a LAYERS target: its module, or its class for a method."""
    owner = sys.modules[module]
    if "." in attr:
        cls, attr = attr.split(".")
        owner = getattr(owner, cls)
    return owner, attr


def install(tracer: Tracer):
    """Patch every traced name; return a function that undoes it."""
    modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "linlab"]
    undo = []

    def replace(owner, name, new):
        undo.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, new)

    def patch_everywhere(original, new):
        # every module that bound the function by name gets the wrapper
        for mod in modules:
            for name, value in list(vars(mod).items()):
                if value is original:
                    replace(mod, name, new)

    for layer, targets in LAYERS.items():
        for module, attr in targets:
            owner, name = resolve(module, attr)
            original = owner.__dict__[name]
            if isinstance(owner, type):
                new = (tracer.wrap_vkey(original) if layer == "valence.vkey"
                       else tracer.wrap(layer, original))
                replace(owner, name, new)
            else:
                patch_everywhere(original, tracer.wrap(layer, original))
    checkers = sys.modules["linlab.checkers"]
    patch_everywhere(checkers.linearizations,
                     tracer.wrap_linearizations(checkers.linearizations))

    def restore():
        for owner, name, original in reversed(undo):
            setattr(owner, name, original)

    return restore
