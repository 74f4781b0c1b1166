"""In-memory spans around calls into valuesets modules, and their self times.

A span is ``[name, start, end, parent, op]``: ``parent`` is the index of the
enclosing span in the same list (-1 for none) and ``op`` the operation id the
benchmark was running.  Spans are kept in memory and written out by the
caller when the session ends.  Nothing in ``src/`` is changed: the tracer
replaces module attributes with wrappers at run time, in the session process
only.
"""

from __future__ import annotations

import functools
import json
import sys
import time

# (module, attribute, span name).  "Class.method" attributes are patched on
# the class; plain functions are patched in every valuesets module that binds
# the same object, since the CLI imports names directly.
SPANS = [
    ("gf", "FieldSpec.__init__", "gf.field_build"),
    ("gf", "FieldSpec.add_rows", "gf.dense_tables"),
    ("gf", "FieldSpec.sub_rows", "gf.dense_tables"),
    ("gf", "FieldSpec.trace_mul_rows", "gf.dense_tables"),
    ("gf", "poly_values", "gf.poly_values"),
    ("gf", "poly_table", "gf.poly_table"),
    ("conditions", "condition_profile", "conditions.profile"),
    ("conditions", "test_c1", "conditions.c1"),
    ("conditions", "test_c2", "conditions.c2"),
    ("conditions", "test_c3", "conditions.c3"),
    ("conditions", "test_c4", "conditions.c4"),
    ("conditions", "verify_average_lemma", "conditions.lemma"),
    ("conditions", "up_invariant", "conditions.up"),
    ("conditions", "wsc_lower", "conditions.wsc"),
    ("conditions", "classify_all", "conditions.classify"),
    ("bounds", "bound_report", "bounds.bound_report"),
    ("bounds", "triangular_B", "bounds.triangular_B"),
    ("bounds", "construct_lower_tight", "bounds.construct"),
    ("bounds", "construct_upper_tight", "bounds.construct"),
    ("functable", "image_count", "functable.image_count"),
    ("functable", "collision_count", "functable.collision_count"),
    ("functable", "spectrum", "functable.spectrum"),
    ("energy", "energy_bounds", "energy.energy_bounds"),
    ("energy", "product_set", "energy.product_set"),
    ("formats", "load_poly", "formats.load"),
    ("formats", "load_function_table", "formats.load"),
    ("formats", "load_code_assignment", "formats.load"),
    ("formats", "save_function_table", "formats.save"),
    ("cli", "main", "cli.main"),
]


PROBE = 1_000_000  # op ids from here on mark untimed probe calls


class Tracer:
    """Records spans; ``op`` is the id stamped on spans opened from now on."""

    def __init__(self):
        self.spans: list[list] = []
        self.op = -1
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op]
            spans.append(span)
            stack.append(idx)
            span[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()

        return traced

    def instrument(self, package: str = "valuesets") -> None:
        """Wrap every entry of SPANS in the already imported package."""
        modules = [m for k, m in sys.modules.items() if k == package or k.startswith(package + ".")]
        for mod_name, attr, name in SPANS:
            owner = sys.modules[f"{package}.{mod_name}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                setattr(cls, meth, self.wrap(name, getattr(cls, meth)))
                continue
            original = getattr(owner, attr)
            traced = self.wrap(name, original)
            for mod in modules:
                if getattr(mod, attr, None) is original:
                    setattr(mod, attr, traced)

    def write(self, path, tag: dict) -> None:
        """Append the spans as JSON lines, each tagged with ``tag``."""
        with open(path, "a") as fh:
            for i, (name, start, end, parent, op) in enumerate(self.spans):
                rec = dict(tag, id=i, name=name, start=start, end=end, parent=parent, op=op)
                fh.write(json.dumps(rec) + "\n")


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of its interval covered by its
    direct children (overlapping children are counted once)."""
    children: dict[int, list[tuple[float, float]]] = {}
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = []
    for i, (_, start, end, _, _) in enumerate(spans):
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted(children.get(i, ())):
            lo, hi = max(lo, start), min(hi, end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append((end - start) - covered)
    return out


def aggregate(spans) -> dict:
    """Per phase and span name: calls, self-time sum, duration sum, and the
    number of distinct operations it ran in.  Keys are "op:<name>" for spans
    of timed operations and "probe:<name>" for spans whose op id is at least
    PROBE, the untimed per-condition calls of a traced run."""
    out: dict[str, dict] = {}
    selfs = self_times(spans)
    ops: dict[str, set] = {}
    for (name, start, end, _, op), st in zip(spans, selfs):
        key = ("probe:" if op >= PROBE else "op:") + name
        rec = out.setdefault(key, {"calls": 0, "self_s": 0.0, "dur_s": 0.0, "ops": 0})
        rec["calls"] += 1
        rec["self_s"] += st
        rec["dur_s"] += end - start
        ops.setdefault(key, set()).add(op)
    for key, seen in ops.items():
        out[key]["ops"] = len(seen)
    return out
