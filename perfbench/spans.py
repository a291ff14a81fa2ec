"""Span recorder for the traced run.

`Recorder.install()` wraps the public entry points of each burnside layer
from outside the package: a function is replaced under every name that any
`burnside` module binds it to, a method is replaced on its class.  Spans
nest, so a layer's self time is its span minus the spans it caused.  The
per-element helpers of `fplinalg`, `intlinalg` and `perm` are not wrapped,
because a wrapper's cost would swamp them; their time is self time of the
layer that called them.

Spans stay in memory and are written as JSON lines when the pass ends.
"""

from __future__ import annotations

import functools
import json
import sys
import time

# (metric, module, function): self time of these calls adds up in `metric`.
FUNCTIONS = (
    ("permgroup.closure_s", "burnside.groups", "parse_group"),
    ("permgroup.closure_s", "burnside.permgroup", "enumerate_elements"),
    ("permgroup.classes_s", "burnside.permgroup", "subgroup_classes"),
    ("permgroup.conjugacy_s", "burnside.permgroup", "are_conjugate"),
    ("permgroup.conjugacy_s", "burnside.permgroup", "o_p"),
    ("marks.table_s", "burnside.marks", "table_of_marks"),
    ("cache.load_s", "burnside.cache", "load_marks_json"),
    ("cache.store_s", "burnside.cache", "store_marks_json"),
    ("bring.dmatrix_s", "burnside.bring", "congruence_d"),
    ("bring.dmatrix_s", "burnside.bring", "p_classes"),
    ("modp.blocks_s", "burnside.modp", "blocks"),
    ("exttor.report_s", "burnside.exttor", "ext_report"),
    ("exttor.report_s", "burnside.exttor", "tor_report"),
    ("exttor.report_s", "burnside.exttor", "ext_ranks"),
    ("exttor.report_s", "burnside.exttor", "verify_squarefree"),
    ("oracle.s", "burnside.oracle", "oracle_ext"),
    ("oracle.s", "burnside.oracle", "oracle_tor"),
    ("cli.self_s", "burnside.cli", "main"),
)

# (metric, module, class, method)
METHODS = (
    ("bring.init_s", "burnside.bring", "BRing", "__init__"),
    ("bring.structure_s", "burnside.bring", "BRing", "structure_constants"),
    ("modp.algebra_s", "burnside.modp", "ModPAlgebra", "__init__"),
    ("modp.invariants_s", "burnside.modp", "LocalBlock", "invariants"),
    ("exttor.context_s", "burnside.exttor", "ExtTorContext", "__init__"),
)

STAGE_METRIC = "resolution.extend_s"
TIME_METRICS = tuple(dict.fromkeys(
    [m for m, *_ in FUNCTIONS] + [m for m, *_ in METHODS] + [STAGE_METRIC]))

# Betti numbers of the one p-block of these groups (ROADMAP item 3), keyed
# by (--group, p, block dimension).
KNOWN_BETTI = {
    ("V4", 2, 5): [1, 3, 8, 21, 55, 144, 377, 987, 2584],
    ("C4", 2, 3): [2 ** l for l in range(16)],
    ("C9", 3, 3): [2 ** l for l in range(16)],
}


class Span:
    __slots__ = ("id", "parent", "metric", "name", "start", "end",
                 "children_s", "sizes", "request", "phase")

    def __init__(self, id_, parent, metric, name, request, phase):
        self.id = id_
        self.parent = parent
        self.metric = metric
        self.name = name
        self.request = request
        self.phase = phase
        self.children_s = 0.0
        self.sizes = None
        self.end = None
        self.start = time.perf_counter()

    @property
    def seconds(self) -> float:
        return self.end - self.start

    def to_json(self) -> dict:
        return {"id": self.id, "parent": self.parent.id if self.parent else None,
                "request": self.request, "phase": self.phase,
                "metric": self.metric, "name": self.name,
                "start": self.start, "end": self.end,
                "self_s": self.seconds - self.children_s, "sizes": self.sizes}


class Recorder:
    """Collects nested spans of one pass.

    The caller sets `phase`, `request` (an id) and `argv` before each CLI
    call; spans and resolutions started during the call carry them.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self.request = None
        self.argv = None
        self.phase = None
        self.resolutions: dict[int, dict] = {}

    def _open(self, metric: str, name: str) -> Span:
        parent = self._stack[-1] if self._stack else None
        span = Span(len(self.spans), parent, metric, name,
                    self.request, self.phase)
        self.spans.append(span)
        self._stack.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()
        if span.parent is not None:
            span.parent.children_s += span.seconds

    def wrap(self, metric: str, fn, sizer=None):
        name = fn.__qualname__

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(metric, name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if sizer is not None:
                span.sizes = sizer(args, result)
            return result

        return traced

    def wrap_extend_to(self, fn):
        """Run `MinimalResolution.extend_to` one degree per span."""

        @functools.wraps(fn)
        def traced(res, degree):
            while res.computed_degree < degree:
                d = res.computed_degree + 1
                span = self._open(STAGE_METRIC, "stage")
                try:
                    fn(res, d)
                finally:
                    self._close(span)
                span.sizes = _stage_sizes(res, d)
                entry = self.resolutions.setdefault(
                    id(res), {"res": res, "argv": self.argv, "top": None})
                entry["top"] = span

        return traced

    def install(self) -> None:
        """Patch the entry points of every loaded `burnside` module."""
        modules = [m for name, m in sys.modules.items()
                   if name == "burnside" or name.startswith("burnside.")]
        for metric, module, attr in FUNCTIONS:
            original = getattr(sys.modules[module], attr)
            wrapper = self.wrap(metric, original, SIZERS.get(attr))
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
        for metric, module, cls_name, attr in METHODS:
            cls = getattr(sys.modules[module], cls_name)
            setattr(cls, attr, self.wrap(metric, getattr(cls, attr),
                                         SIZERS.get(f"{cls_name}.{attr}")))
        res_cls = sys.modules["burnside.resolution"].MinimalResolution
        res_cls.extend_to = self.wrap_extend_to(res_cls.extend_to)

    def self_seconds(self) -> float:
        """Self time of all spans: the time of the outermost spans."""
        return sum(s.seconds - s.children_s for s in self.spans)

    def layer_metrics(self) -> dict:
        """Per-layer self times and size counters of the recorded spans."""
        out = {m: 0.0 for m in TIME_METRICS}
        for span in self.spans:
            out[span.metric] += span.seconds - span.children_s
        out["resolution.top_stage_s"] = sum(
            e["top"].seconds for e in self.resolutions.values())

        def sizes(name):
            return [s.sizes for s in self.spans
                    if s.name == name and s.sizes is not None]

        groups = sizes("parse_group") + sizes("enumerate_elements")
        tables = sizes("subgroup_classes")
        stages = sizes("stage")
        lookups = sizes("load_marks_json")
        out["permgroup.order_max"] = max((g["order"] for g in groups), default=0)
        out["permgroup.subgroups"] = sum(t["subgroups"] for t in tables)
        out["permgroup.classes"] = sum(t["classes"] for t in tables)
        out["bring.n_max"] = max((r["n"] for r in sizes("BRing.__init__")),
                                 default=0)
        out["modp.block_dim_max"] = max(
            (max(b["dims"], default=0) for b in sizes("blocks")), default=0)
        out["resolution.stages"] = len(stages)
        out["resolution.betti_max"] = max((s["betti"] for s in stages),
                                          default=0)
        out["resolution.matrix_cells_max"] = max(
            (s["cells"] for s in stages), default=0)
        out["cache.hit_ratio"] = (
            sum(x["hit"] for x in lookups) / len(lookups) if lookups else 0.0)
        return out

    def check_betti(self) -> tuple[int, list[str]]:
        """Resolutions with a known Betti sequence, and those that differ."""
        checked, bad = 0, []
        for entry in self.resolutions.values():
            res, argv = entry["res"], entry["argv"]
            group = argv[argv.index("--group") + 1] if "--group" in argv else None
            known = KNOWN_BETTI.get((group, res.block.p, res.block.dim))
            if known is None:
                continue
            checked += 1
            if list(res.betti) != known[:len(res.betti)]:
                bad.append(f"{group} p={res.block.p}: betti {res.betti} "
                           f"!= {known[:len(res.betti)]}")
        return checked, bad

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span.to_json(), sort_keys=True) + "\n")


def _stage_sizes(res, d: int) -> dict:
    """Betti number and matrix shape of stage d, from public attributes."""
    s = res.block.dim
    rows, cols = res.betti[d - 1] * s, res.kernel_dims[d - 1] * s
    return {"degree": d, "p": res.block.p, "s": s, "betti": res.betti[d],
            "rows": rows, "cols": cols, "cells": rows * cols,
            "budget_share": res.ops.matrix_cost(rows, cols) / res.max_matrix_bits}


def _group_sizes(args, group) -> dict:
    return {"order": group.order}


SIZERS = {
    "parse_group": _group_sizes,
    "enumerate_elements": _group_sizes,
    "subgroup_classes": lambda args, table: {
        "classes": len(table),
        "subgroups": sum(len(c.members) for c in table)},
    "load_marks_json": lambda args, doc: {"hit": doc is not None},
    "blocks": lambda args, blocks: {"dims": [b.dim for b in blocks]},
    "BRing.__init__": lambda args, _: {"n": args[0].n},
}
