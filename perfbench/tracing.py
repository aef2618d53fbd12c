"""Spans around the calls into gent's modules, recorded from the benchmark side.

The program itself is not changed: ``Tracer.patched()`` replaces each traced
function, in every ``gent`` module that holds a reference to it, by a wrapper
that records a span, and puts the originals back on exit.  A span carries its
name, the operation it belongs to, the span that called it, start and end
times and its self time (duration minus the time of traced calls inside it).
Spans are kept in memory and written out once, when the run ends.
"""

from __future__ import annotations

import json
import statistics
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter

# (module, function, span name); the span name is the layer's public name,
# whichever gent module the call goes through.
TRACED = (
    ("relent", "rel_ent_entanglement", "relent.rel_ent_entanglement"),
    ("relent", "minimize_mode", "relent.minimize_mode"),
    ("scalar_min", "bracket_doubling", "scalar_min.bracket_doubling"),
    ("scalar_min", "golden_section", "scalar_min.golden_section"),
    ("bures", "bures_entanglement", "bures.bures_entanglement"),
    ("bures", "numeric_max_fidelity", "bures.numeric_max_fidelity"),
    ("cm_core", "is_physical", "cm_core.is_physical"),
    ("cm_core", "is_separable", "cm_core.is_separable"),
    ("cm_core", "symplectic_spectrum", "cm_core.symplectic_spectrum"),
    ("standard_forms", "to_standard_form_I", "standard_forms.to_standard_form_I"),
    ("fock", "gaussian_state_from_cm", "fock.gaussian_state_from_cm"),
    ("fock", "williamson", "fock.williamson"),
    ("fock", "euler_decompose", "fock.euler_decompose"),
    ("fock", "fidelity_fock", "fock.fidelity_fock"),
    ("fock", "rel_entropy_fock", "fock.rel_entropy_fock"),
)

# spans written to the trace file; the summary covers every span
SPANS_WRITTEN = 20_000


@dataclass(frozen=True)
class Span:
    sid: int
    parent: int  # -1 for a span opened by the benchmark itself
    name: str
    op: int
    start: float
    end: float
    self_time: float

    @property
    def duration(self) -> float:
        return self.end - self.start


def _build_span_name(v) -> str:
    """Split Fock state builds by mode count: 2x2 / OneModeCM -> 1m, 4x4 -> 2m."""
    shape = getattr(v, "shape", None)
    return "fock.gaussian_state_from_cm." + ("2m" if shape == (4, 4) else "1m")


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.op = 0  # operation id shared by the spans of one benchmark operation
        self._stack: list[list] = []  # [sid, name, child time]
        self._next = 0

    def wrap(self, name, fn):
        def traced(*args, **kwargs):
            span_name = name if name != "fock.gaussian_state_from_cm" else _build_span_name(args[0])
            sid = self._next
            self._next += 1
            parent = self._stack[-1] if self._stack else None
            frame = [sid, span_name, 0.0]
            self._stack.append(frame)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                self._stack.pop()
                if parent is not None:
                    parent[2] += t1 - t0
                self.spans.append(
                    Span(sid, -1 if parent is None else parent[0], span_name, self.op, t0, t1,
                         t1 - t0 - frame[2])
                )

        return traced

    @contextmanager
    def patched(self):
        """Route every call into the traced gent functions through spans."""
        mods = {k: m for k, m in sys.modules.items() if k == "gent" or k.startswith("gent.")}
        saved = []
        for mod_name, fn_name, span_name in TRACED:
            if "gent." + mod_name not in mods:  # a layer the workload never imports
                continue
            orig = getattr(mods["gent." + mod_name], fn_name)
            wrapper = self.wrap(span_name, orig)
            for mod in mods.values():
                for attr, val in list(vars(mod).items()):
                    if val is orig:
                        saved.append((mod, attr, val))
                        setattr(mod, attr, wrapper)
        try:
            yield self
        finally:
            for mod, attr, val in reversed(saved):
                setattr(mod, attr, val)

    # summaries ------------------------------------------------------------

    def _by_name(self, name, parent_name=None):
        if parent_name is None:
            return [s for s in self.spans if s.name == name]
        names = {s.sid: s.name for s in self.spans}
        return [s for s in self.spans if s.name == name and names.get(s.parent) == parent_name]

    def median(self, name, scale, parent_name=None, self_time=False) -> float:
        """Median duration (or self time) of the named spans, times ``scale``; 0 if none."""
        spans = self._by_name(name, parent_name)
        if not spans:
            return 0.0
        return statistics.median(s.self_time if self_time else s.duration for s in spans) * scale

    def count(self, name, parent_name=None) -> int:
        return len(self._by_name(name, parent_name))

    def write(self, path, summary) -> None:
        spans = [
            {"id": s.sid, "parent": s.parent, "name": s.name, "op": s.op,
             "start": s.start, "end": s.end, "self": s.self_time}
            for s in self.spans[:SPANS_WRITTEN]
        ]
        with open(path, "w") as fh:
            json.dump({"summary": summary, "spans_total": len(self.spans), "spans": spans}, fh)
