"""Spans and exact counters recorded from outside the program.

The tracer wraps public functions of each rouxforge layer.  Modules such
as ``families`` and ``cli`` bind many of them with ``from ... import``, so
a wrapper replaces every binding of the original object in every loaded
rouxforge module, not just the one in the defining module.  Methods are
wrapped on their class, which every binding shares.

Spans (name, start, end, parent) and counters are kept in memory; the
caller writes them out when the run ends.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass, field

# Hot backend calls are only counted: a span per call would cost more
# than the call.  Each target is (module, attribute path).
COUNTED = (
    ("rouxforge.field", "FieldSpec.mul"),
    ("rouxforge.group", "MatOps.mul"),
    ("rouxforge.group", "MatOps.inv"),
    ("rouxforge.group", "PermOps.mul"),
    ("rouxforge.group", "PermOps.inv"),
    ("rouxforge.group", "ProductOps.mul"),
    ("rouxforge.group", "ProductOps.inv"),
    ("rouxforge.families", "BitMatOps.mul"),
    ("rouxforge.families", "BitMatOps.inv"),
)
# Counter name -> the counted paths it sums.
COUNTERS = {
    "field.mul": ("FieldSpec.mul",),
    "group.mul": ("MatOps.mul", "PermOps.mul", "ProductOps.mul", "BitMatOps.mul"),
    "group.inv": ("MatOps.inv", "PermOps.inv", "ProductOps.inv", "BitMatOps.inv"),
}

# Layer-boundary functions that get a span: (module, attribute path, span name).
SPANNED = (
    ("rouxforge.group", "closure", "group.closure"),
    ("rouxforge.group", "enumerate_linear_characters", "group.characters"),
    ("rouxforge.group", "stabilizer", "group.stabilizer"),
    ("rouxforge.group", "is_doubly_transitive", "group.stabilizer"),
    ("rouxforge.radical", "HigmanDecompositionTable.__init__", "radical.table"),
    ("rouxforge.radical", "detect_higman", "radical.detect"),
    ("rouxforge.radical", "radicalize", "radical.radicalize"),
    ("rouxforge.radical", "find_key", "radical.build"),
    ("rouxforge.radical", "roux_params_from_radicalization", "radical.build"),
    ("rouxforge.radical", "roux_from_higman_pair", "radical.build"),
    ("rouxforge.radical", "CoverData.__init__", "radical.cover_verify"),
    ("rouxforge.radical", "CoverData.verify", "radical.cover_verify"),
    ("rouxforge.roux", "verify_roux", "roux.verify"),
    ("rouxforge.roux", "compress_to_subgroup", "roux.compress"),
    ("rouxforge.lines", "gram_from_signature", "lines.gram"),
    ("rouxforge.lines", "verify_etf", "lines.etf"),
    ("rouxforge.lines", "naimark_complement", "lines.etf"),
    ("rouxforge.lines", "is_real_line_sequence", "lines.real"),
    ("rouxforge.lines", "check_signature", "lines.check_signature"),
    ("rouxforge.families", "sl2_cover", "families.cover"),
    ("rouxforge.families", "su3_cover", "families.cover"),
    ("rouxforge.families", "symplectic_witness", "families.witness"),
    ("rouxforge.cli", "main", "cli.main"),
    ("rouxforge.cli", "_load_json", "cli.io"),
    ("rouxforge.cli", "_complex_matrix_from_json", "cli.io"),
    ("rouxforge.cli", "_emit", "cli.io"),
)

# Workloads on which each wrapped function must record at least one call:
# every workload meant to exercise it, which includes those whose wall and
# CPU time its metric should move.  PermOps and ProductOps count towards
# group.mul/group.inv, but no workload runs them.
EXPECTED_CALLS = {
    "FieldSpec.mul": {"family", "materialized"},
    "MatOps.mul": {"family", "materialized"},
    "MatOps.inv": {"family", "materialized"},
    "BitMatOps.mul": {"materialized"},
    "BitMatOps.inv": {"materialized"},
    "closure": {"family", "materialized"},
    "enumerate_linear_characters": {"family", "materialized"},
    "stabilizer": {"materialized"},
    "is_doubly_transitive": {"materialized"},
    "HigmanDecompositionTable.__init__": {"family", "materialized"},
    "detect_higman": {"family", "materialized"},
    "radicalize": {"family", "materialized"},
    "find_key": {"family", "materialized"},
    "roux_params_from_radicalization": {"family", "materialized"},
    "roux_from_higman_pair": {"family", "materialized"},
    "CoverData.__init__": {"family", "materialized"},
    "CoverData.verify": {"materialized"},
    "verify_roux": {"family", "materialized", "certify"},
    "compress_to_subgroup": {"family"},
    "gram_from_signature": {"family", "certify"},
    "verify_etf": {"family", "certify"},
    "naimark_complement": {"family"},
    "is_real_line_sequence": {"family", "certify"},
    "check_signature": {"family", "certify"},
    "sl2_cover": {"family"},
    "su3_cover": {"family"},
    "symplectic_witness": {"materialized"},
    "main": {"family", "materialized", "certify"},
    "_load_json": {"materialized", "certify"},
    "_complex_matrix_from_json": {"certify"},
    "_emit": {"family", "materialized", "certify"},
}


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    work: dict = field(default_factory=dict)  # counter increments inside the span
    cells: int = 0  # decomposition-table cells, for radical.table spans


@dataclass
class Tracer:
    """Records spans and call counts while installed; one per traced run."""

    spans: list = field(default_factory=list)
    calls: dict = field(default_factory=dict)  # wrapped attribute path -> calls
    _stack: list = field(default_factory=list)
    _patches: list = field(default_factory=list)

    def reset(self) -> None:
        self.spans.clear()
        self._stack.clear()
        self.calls.update(dict.fromkeys(self.calls, 0))

    def count(self, counter: str) -> int:
        return sum(self.calls.get(p, 0) for p in COUNTERS[counter])

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        self.reset()
        for module, path in COUNTED:
            self._patch(module, path, self._counted(path))
        for module, path, name in SPANNED:
            self._patch(module, path, self._spanned(path, name))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def _patch(self, module: str, path: str, make_wrapper) -> None:
        owner = sys.modules[module]
        *classes, attr = path.split(".")
        for cls in classes:
            owner = getattr(owner, cls)
        original = owner.__dict__[attr]
        wrapper = make_wrapper(original)
        self.calls[path] = 0
        if classes:
            self._set(owner, attr, wrapper, original)
            return
        bound = 0
        for name, mod in list(sys.modules.items()):
            if name == "rouxforge" or name.startswith("rouxforge."):
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, key, wrapper, original)
                        bound += 1
        if not bound:
            raise RuntimeError(f"{module}.{path} has no binding to wrap")

    def _set(self, owner, attr: str, wrapper, original) -> None:
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def _counted(self, path: str):
        calls = self.calls

        def make(original):
            # explicit arities: these run millions of times per pass
            if path.endswith(".mul"):
                def wrapper(self_, a, b):
                    calls[path] += 1
                    return original(self_, a, b)
            else:
                def wrapper(self_, a):
                    calls[path] += 1
                    return original(self_, a)

            return wrapper

        return make

    def _spanned(self, path: str, name: str):
        spans, stack, calls, count = self.spans, self._stack, self.calls, self.count
        clock = time.perf_counter
        is_table = name == "radical.table"

        def make(original):
            def wrapper(*args, **kwargs):
                calls[path] += 1
                span = Span(name, 0.0, parent=stack[-1] if stack else None)
                before = {c: count(c) for c in COUNTERS}
                stack.append(len(spans))
                spans.append(span)
                span.start = clock()
                try:
                    return original(*args, **kwargs)
                finally:
                    span.end = clock()
                    stack.pop()
                    span.work = {c: count(c) - n for c, n in before.items()}
                    if is_table:
                        span.cells = len(getattr(args[0], "cells", ()))

            return wrapper

        return make

    # -- analysis ---------------------------------------------------------

    def missing_calls(self, workload: str) -> list[str]:
        """Wrapped functions that recorded no call on a workload that lists them."""
        return sorted(p for p, wl in EXPECTED_CALLS.items() if workload in wl and not self.calls.get(p))

    def covered_seconds(self) -> float:
        """Time inside layer spans.

        Every call enters through ``cli.main``, so its root spans cover
        nearly the whole pass.  Their self time, program code that no
        other wrapper reaches, therefore counts as not covered.
        """
        roots = sum(s.end - s.start for s in self.spans if s.parent is None)
        return roots - self.self_time("cli.main")

    def inclusive(self, name: str) -> float:
        """Time inside spans of ``name``, counting nested spans of the same name once."""
        return sum((s.end - s.start for s in self.spans if s.name == name and not self._has_ancestor(s, name)), 0.0)

    def self_time(self, name: str) -> float:
        """Time inside spans of ``name`` that no child span covers."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None:
                child[s.parent] += s.end - s.start
        return sum((s.end - s.start - child[i] for i, s in enumerate(self.spans) if s.name == name), 0.0)

    def span_calls(self, name: str) -> int:
        return sum(1 for s in self.spans if s.name == name)

    def table_mul_per_cell(self) -> float:
        """Backend products while building decomposition tables, per table cell."""
        tables = [s for s in self.spans if s.name == "radical.table"]
        cells = sum(s.cells for s in tables)
        return sum(s.work["group.mul"] for s in tables) / cells if cells else 0.0

    def _has_ancestor(self, span: Span, name: str) -> bool:
        parent = span.parent
        while parent is not None:
            if self.spans[parent].name == name:
                return True
            parent = self.spans[parent].parent
        return False

    def exact_counters(self) -> dict:
        """Counts that must repeat exactly for the same inputs."""
        out = {f"{c}.calls": self.count(c) for c in COUNTERS}
        out.update({f"{p}.calls": n for p, n in sorted(self.calls.items())})
        out["radical.table.mul_per_cell"] = self.table_mul_per_cell()
        return out

    def to_json(self) -> dict:
        return {
            "spans": [
                {"name": s.name, "start": s.start, "end": s.end, "parent": s.parent, "work": s.work,
                 **({"cells": s.cells} if s.cells else {})}
                for s in self.spans
            ],
            "counters": self.exact_counters(),
        }
