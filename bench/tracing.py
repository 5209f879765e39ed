"""Span tracing for the benchmark's traced run.

The tracer replaces each public entry point of the library by a wrapper,
in every ``split244`` module namespace that binds it, so calls are traced
under the name the caller looks up (``subfields`` calling ``quadext``
through its own import, ``cli`` calling ``oracle.polynomial_roots``
through the module attribute).  Spans are kept in memory as
``[name, start, end, parent, input_id, failed]`` and written out once, at
the end of the run.
"""

from __future__ import annotations

import functools
import json
import sys
import time

# (module, function): the public entry points of each layer.
ENTRY_POINTS = (
    ("curves", "make_genus3"),
    ("curves", "genus2_from_uv"),
    ("exact", "discriminant"),
    ("exact", "quadext"),
    ("exact", "squarefree_part"),
    ("invariants", "dihedral_invariants"),
    ("invariants", "absolute_invariants"),
    ("loci", "classify_aut"),
    ("loci", "locus_T"),
    ("subfields", "full_pipeline"),
    ("subfields", "j_E"),
    ("subfields", "uv_for_Z23"),
    ("subfields", "j12_roots"),
    ("oracle", "polynomial_roots"),
    ("oracle", "lift_point"),
    ("oracle", "best_involution_candidate"),
    ("oracle", "detect_involution"),
    ("oracle", "uv_numeric"),
    ("oracle", "uv_numeric_from_coeffs"),
    ("oracle", "subcover_js"),
    ("oracle", "subcover_js_from_coeffs"),
    ("oracle", "igusa_invariants"),
    ("cli", "main"),
)

NAMES = tuple(f"{mod}.{fn}" for mod, fn in ENTRY_POINTS)

NAME, START, END, PARENT, INPUT, FAILED = range(6)


class Tracer:
    """Records spans while ``active``; outside that, wrappers only forward."""

    def __init__(self):
        self.spans: list[list] = []
        self.active = False
        self.input_id = -1
        self._stack: list[int] = []
        self._patches: list[tuple] = []
        # best_involution_candidate results, as (accepted, attempts)
        self.accepted = 0
        self.attempts = 0

    def install(self, tol: float) -> None:
        modules = [m for n, m in sorted(sys.modules.items()) if n.startswith("split244")]
        for mod_name, fn_name in ENTRY_POINTS:
            original = getattr(sys.modules[f"split244.{mod_name}"], fn_name)
            wrapper = self._wrap(f"{mod_name}.{fn_name}", original, tol)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._patches.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def _wrap(self, name: str, fn, tol: float):
        spans, stack = self.spans, self._stack
        is_scan = name == "oracle.best_involution_candidate"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            index = len(spans)
            span = [name, time.perf_counter(), 0.0, stack[-1] if stack else -1, self.input_id, False]
            spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[FAILED] = True
                raise
            finally:
                span[END] = time.perf_counter()
                stack.pop()
            if is_scan:
                witness, residual = result
                self.attempts += 1
                self.accepted += witness is not None and residual <= tol
            return result

        return traced

    def layer_metrics(self) -> dict:
        """calls, busy_s, self_s and failed per entry point.

        busy_s sums the spans not nested inside a span of the same name;
        self_s is a span's duration minus the time its child spans cover.
        """
        out = {}
        for name in NAMES:
            out[name] = {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "failed": 0}
        spans = self.spans
        for span in spans:
            duration = span[END] - span[START]
            row = out[span[NAME]]
            row["calls"] += 1
            row["self_s"] += duration
            row["failed"] += span[FAILED]
            parent = span[PARENT]
            if parent >= 0:
                out[spans[parent][NAME]]["self_s"] -= duration
            while parent >= 0 and spans[parent][NAME] != span[NAME]:
                parent = spans[parent][PARENT]
            if parent < 0:
                row["busy_s"] += duration
        return out

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(("name", "start", "end", "parent", "input", "failed"), span))) + "\n")
