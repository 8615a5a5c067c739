"""Spans around calls into the package's public functions.

The benchmark records spans from its own files: install() replaces each
public function named in LAYER_FUNCTIONS, in every bch3 module namespace
that binds it, with a wrapper that notes its start, end and parent span.
Spans stay in memory; self_seconds() folds them into per-module self
time.  Nothing inside a function is timed (per-depth BFS spans would need
hooks inside oracle), so private helpers bill to their public caller.
"""

from __future__ import annotations

import functools
import time

from bch3 import cli, coset, curves, gf2m, oracle

MODULES = {"gf2m": gf2m, "curves": curves, "coset": coset, "oracle": oracle, "cli": cli}
LAYER_FUNCTIONS = {
    "gf2m": ("make_field", "inverse_table", "trace_mul_table"),
    "curves": ("n_counts_all", "n_count", "g_count", "curve_traces", "split_count"),
    "coset": ("distribution", "N_of", "N_of_general", "bounds", "gamma_report", "calibrate_boundary"),
    "oracle": ("weight4_histogram", "brute_N", "covering_radius"),
    "cli": ("main",),
}


class Tracer:
    """Span recorder; install() patches, uninstall() restores."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.calls: dict[str, int] = {}
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack, calls, clock = self.spans, self._stack, self.calls, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, clock(), 0.0, stack[-1] if stack else -1]
            spans.append(span)
            calls[name] = calls.get(name, 0) + 1
            stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = clock()

        return traced

    def install(self) -> None:
        for module_name, names in LAYER_FUNCTIONS.items():
            home = MODULES[module_name]
            for name in names:
                original = getattr(home, name)
                wrapper = self._wrap(f"{module_name}.{name}", original)
                for module in MODULES.values():
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._patched.append((module, attr, original))
                            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def self_seconds(self) -> dict[str, float]:
        """Seconds spent in each module, minus time in its traced callees."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {module: 0.0 for module in MODULES}
        for (name, start, end, _), inner in zip(self.spans, child):
            out[name.split(".")[0]] += end - start - inner
        return out
