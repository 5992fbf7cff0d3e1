"""Per-layer spans and counts, recorded around curvcert's public functions.

The layers are curvcert's modules.  `Tracer.installed()` replaces every public
function of each module with a timing wrapper in every curvcert namespace
that holds it (the defining module and each import site), and restores the
originals on exit.  Nothing under src/ changes.

A span's self time is its duration minus the durations of the spans it
encloses, so the self times of all layers sum to the duration of the root
spans (the cli.main calls).
"""

from __future__ import annotations

import contextlib
import importlib
import inspect
import time
from collections import Counter

LAYERS = ("catalog", "triple", "algebra", "flatness", "certify", "cli")
_SEARCH_FUNCS = ("certify.check_fatness", "certify.certify_part2", "certify.point_positivity")


class Tracer:
    """Spans kept in memory: self time per layer, inclusive time and calls per function."""

    def __init__(self):
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        self.incl_s: Counter = Counter()
        self.calls: Counter = Counter()
        self.root_s = 0.0
        self.search_reports = 0
        self.starts_run = 0
        self.inconclusive = 0
        self._stack: list[list[float]] = []  # [start, time covered by child spans]
        self._active: Counter = Counter()

    def _wrap(self, layer: str, name: str, fn):
        key = f"{layer}.{name}"
        stack, active, clock = self._stack, self._active, time.perf_counter
        search = key in _SEARCH_FUNCS

        def traced(*args, **kwargs):
            frame = [clock(), 0.0]
            stack.append(frame)
            active[key] += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - frame[0]
                stack.pop()
                active[key] -= 1
                self.self_s[layer] += dur - frame[1]
                self.calls[key] += 1
                if not active[key]:
                    self.incl_s[key] += dur
                if stack:
                    stack[-1][1] += dur
                else:
                    self.root_s += dur
            if search:
                self._observe(result)
            return result

        return traced

    def _observe(self, report) -> None:
        self.search_reports += 1
        if report.verdict.value == "INCONCLUSIVE":
            self.inconclusive += 1

    def _start_counters(self, certify):
        """Patches that count starts from which a descent actually began.

        Each drawn start is remembered by the identity of its z vector; a call
        of the descent with that vector as z0 counts it once.  If certify no
        longer has these private functions, nothing is patched and the count
        stays 0.
        """
        draw = vars(certify).get("_draw_starts")
        descend = vars(certify).get("_alternating_min")
        if not (inspect.isfunction(draw) and inspect.isfunction(descend)):
            return []
        drawn: dict[int, object] = {}  # id -> z, kept alive so that ids stay unique

        def draw_starts(*args, **kwargs):
            starts = draw(*args, **kwargs)
            drawn.clear()
            drawn.update((id(z), z) for z, _ in starts)
            return starts

        def alternating_min(tensors, weights, gmat, z0, *args, **kwargs):
            if drawn.pop(id(z0), None) is not None:
                self.starts_run += 1
            return descend(tensors, weights, gmat, z0, *args, **kwargs)

        return [(certify, "_draw_starts", draw, draw_starts),
                (certify, "_alternating_min", descend, alternating_min)]

    @contextlib.contextmanager
    def installed(self):
        """Wrap the public functions of every layer for the duration of the block."""
        modules = {layer: importlib.import_module(f"curvcert.{layer}") for layer in LAYERS}
        sites = [importlib.import_module("curvcert"), *modules.values()]
        patches = []
        for layer, mod in modules.items():
            for name, fn in list(vars(mod).items()):
                if name.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                wrapped = self._wrap(layer, name, fn)
                for site in sites:
                    if vars(site).get(name) is fn:
                        patches.append((site, name, fn))
                        setattr(site, name, wrapped)
        for site, name, fn, wrapped in self._start_counters(modules["certify"]):
            patches.append((site, name, fn))
            setattr(site, name, wrapped)
        try:
            yield self
        finally:
            for site, name, fn in patches:
                setattr(site, name, fn)
