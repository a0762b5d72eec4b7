"""In-memory span tracer that wraps bracekit's public functions from outside.

A traced run replaces each wrapped function in every ``bracekit`` namespace
that bound it (``bracekit.cli`` imports ``check_axioms`` and friends at import
time, so patching only the defining module would miss those calls), and the
public kernel methods on the brace classes. Each call records one span (name
id, start, end, parent span) in flat arrays and bumps its counters; nothing
is written until the run ends. A layer's self time is its span time minus the
time covered by its direct child spans.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from collections import defaultdict

import numpy as np

# (public layer name, module, attribute); attribute "Class.method" wraps a method.
TARGETS = [
    ("braces.add", "bracekit.braces", "FiniteBrace.add"),
    ("braces.neg", "bracekit.braces", "FiniteBrace.neg"),
    ("braces.mul", "bracekit.braces", "FiniteBrace.mul"),
    ("braces.inv", "bracekit.braces", "FiniteBrace.inv"),
    ("braces.lam", "bracekit.braces", "FiniteBrace.lam"),
    ("braces.codec.decode", "bracekit.braces", "_MixedRadix.decode"),
    ("braces.codec.encode", "bracekit.braces", "_MixedRadix.encode"),
    ("braces.ideal_closure", "bracekit.braces", "ideal_closure"),
    ("braces.is_ideal", "bracekit.braces", "is_ideal"),
    ("braces.is_left_ideal", "bracekit.braces", "is_left_ideal"),
    ("braces.star_span", "bracekit.braces", "star_span"),
    ("braces.is_prime_brace", "bracekit.braces", "is_prime_brace"),
    ("braces.is_simple", "bracekit.braces", "is_simple"),
    ("braces.check_axioms", "bracekit.braces", "check_axioms"),
    ("construct.load_spec", "bracekit.construct", "load_spec"),
    ("construct.validate_spec", "bracekit.construct", "validate_spec"),
    ("construct.build_family", "bracekit.construct", "build_family"),
    ("construct.build_prime_example", "bracekit.construct", "build_prime_example"),
    ("construct.nonsimple_witness", "bracekit.construct", "nonsimple_witness"),
    ("groupinfo.group_report", "bracekit.groupinfo", "group_report"),
    ("groupinfo.derived_subgroup", "bracekit.groupinfo", "derived_subgroup"),
    ("groupinfo.sylow_left_ideals", "bracekit.groupinfo", "sylow_left_ideals"),
    ("bounds.find_orthogonal_element", "bracekit.bounds", "find_orthogonal_element"),
    ("bounds.exponent_lower_bounds", "bracekit.bounds", "exponent_lower_bounds"),
    ("ybe.solution_from_brace", "bracekit.ybe", "solution_from_brace"),
    ("ybe.check_solution", "bracekit.ybe", "check_solution"),
    ("ybe.export_solution", "bracekit.ybe", "export_solution"),
    ("cli.run", "bracekit.cli", "run"),
]

_KERNELS = {"braces.add", "braces.neg", "braces.mul", "braces.inv", "braces.lam"}


def _counts_from(name, result):
    """Extra exact counters for one finished call, beyond ``calls``."""
    if name in _KERNELS:
        return {"elems": int(np.size(result))}
    if name == "braces.ideal_closure":
        return {"members_out": int(result.size)}
    if name == "braces.is_simple":
        return {"closures_run": int(result.closures_run)}
    if name == "braces.check_axioms":
        n = result.order
        return {"triples": n**3 if result.mode == "exhaustive" else int(result.trials)}
    if name == "ybe.check_solution":
        return {"braid_triples": int(result.braid_checked)}
    if name == "ybe.export_solution":
        return {"bytes": int(result)}
    return {}


class Tracer:
    """Records spans and counters for the wrapped layers while installed."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list[int] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._undo: list[tuple[object, str, object]] = []

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _wrap(self, name: str, fn):
        tracer = self
        fixed_id = None if name == "cli.run" else self._name_id(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if fixed_id is None:  # cli.run: one layer per subcommand
                argv = args[0] if args else kwargs.get("argv")
                label = f"{name}.{argv[0]}" if argv else name
                nid = tracer._name_id(label)
            else:
                label, nid = name, fixed_id
            idx = len(tracer.span_start)
            tracer.span_name.append(nid)
            tracer.span_parent.append(tracer._stack[-1] if tracer._stack else -1)
            tracer.span_start.append(time.perf_counter())
            tracer.span_end.append(0.0)
            tracer._stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.span_end[idx] = time.perf_counter()
                tracer._stack.pop()
                tracer.counts[f"{label}.calls"] += 1
            for key, value in _counts_from(name, result).items():
                tracer.counts[f"{label}.{key}"] += value
            return result

        return traced

    def install(self) -> None:
        """Patch every target in its defining module and in every alias of it."""
        for name, module_name, attr in TARGETS:
            module = sys.modules[module_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[meth]
                self._patch(cls, meth, original, self._wrap(name, original))
                continue
            original = getattr(module, attr)
            wrapped = self._wrap(name, original)
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not (mod_name == "bracekit" or mod_name.startswith("bracekit.")):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, original, wrapped)

    def _patch(self, owner, key, original, wrapped) -> None:
        setattr(owner, key, wrapped)
        self._undo.append((owner, key, original))

    def uninstall(self) -> None:
        while self._undo:
            owner, key, original = self._undo.pop()
            setattr(owner, key, original)

    def self_times(self) -> dict[str, float]:
        """Seconds per layer name, with direct children's span time removed."""
        if self._stack:
            raise RuntimeError("spans still open")
        start = np.frombuffer(self.span_start, dtype=np.float64)
        dur = np.frombuffer(self.span_end, dtype=np.float64) - start
        parent = np.frombuffer(self.span_parent, dtype=np.int32)
        name = np.frombuffer(self.span_name, dtype=np.int32)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)
        per_name = np.bincount(name, weights=dur - child, minlength=len(self.names))
        return {n: float(per_name[i]) for i, n in enumerate(self.names)}

    def save(self, path) -> None:
        """Write all spans: names[i] labels spans whose ``name`` column is i."""
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            parent=np.frombuffer(self.span_parent, dtype=np.int32),
            start=np.frombuffer(self.span_start, dtype=np.float64),
            end=np.frombuffer(self.span_end, dtype=np.float64),
        )


def wrapper_cost(calls: int = 20_000) -> float:
    """Seconds that tracing adds to one call, measured on a function doing nothing."""

    def noop():
        return None

    traced = Tracer()._wrap("probe", noop)
    start = time.perf_counter()
    for _ in range(calls):
        noop()
    bare = time.perf_counter() - start
    start = time.perf_counter()
    for _ in range(calls):
        traced()
    return (time.perf_counter() - start - bare) / calls
