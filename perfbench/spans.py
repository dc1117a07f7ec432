"""Spans around calls into the package's public functions, from outside.

`Tracer.installed()` replaces the traced functions in every loaded
`homodyne_feedback` module that binds them with wrappers that record a span: id, name, layer,
start, end, parent and thread.  Spans stay in memory; callers write them
out when the run ends.  A span opened on a worker thread with no open span
of its own takes the innermost open span of the thread that installed the
tracer as its parent, so the kernel's RNG calls made by the engine's pool
nest under `engine.run_ensemble`.

Self time is a span's duration minus the union of its children's
intervals, so children that overlap on parallel threads are not counted
twice.  It is wall-clock time.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field

LAYERS = ("streams", "measurement", "bloch", "engine", "fock", "cli")

# Public entry points per layer.  Per-step helpers (BlochState, normalize_angle)
# are left out: wrapping a call made once per step would cost more than it times.
TARGETS = {
    "streams": ("stream_key", "raw_words", "to_unit", "box_muller"),
    "measurement": ("sample_records",),
    "bloch": ("rotation_angle", "apply_rotation"),
    "engine": ("run_ensemble", "run_trajectory", "run_trajectory_arrays"),
    "fock": ("beamsplitter_output", "delta_n_pmf", "gaussian_distance", "skellam_pmf"),
    "cli": ("main", "cmd_simulate", "cmd_oracle"),
}


def fock_case(args, kwargs) -> str:
    """`<source kind>_a<alpha>` for beamsplitter_output / delta_n_pmf calls."""
    alpha = args[0] if args else kwargs["lo_alpha"]
    source = args[1] if len(args) > 1 else kwargs["source"]
    return f"{source.kind}_a{alpha:g}"


@dataclass
class Span:
    sid: int
    name: str
    layer: str
    start: int  # perf_counter_ns
    end: int
    parent: int  # 0 for a root span
    thread: int
    meta: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {"id": self.sid, "name": self.name, "layer": self.layer, "start_ns": self.start,
                "end_ns": self.end, "parent": self.parent, "thread": self.thread,
                **{k: v for k, v in self.meta.items() if k != "call"}}


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._owner = threading.get_ident()
        self._owner_stack: list[int] = []
        self._undo: list = []

    def _stack(self) -> list[int]:
        if threading.get_ident() == self._owner:
            return self._owner_stack
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def wrap(self, name: str, layer: str, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            try:
                parent = stack[-1] if stack else tracer._owner_stack[-1]
            except IndexError:
                parent = 0
            sid = next(tracer._ids)
            stack.append(sid)
            start = time.perf_counter_ns()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                meta = {}
                if layer == "fock" and name in ("fock.beamsplitter_output", "fock.delta_n_pmf"):
                    meta["case"] = fock_case(args, kwargs)
                    if name == "fock.beamsplitter_output" and result is not None:
                        meta["dim"] = int(result.amplitudes.shape[0])
                        meta["call"] = (args, kwargs)
                tracer.spans.append(Span(sid, name, layer, start, end, parent,
                                         threading.get_ident(), meta))

        traced.__wrapped_original__ = fn
        return traced

    @contextlib.contextmanager
    def installed(self):
        """Patch the traced functions for the duration of the block."""
        mods = {n: m for n, m in list(sys.modules.items())
                if n == "homodyne_feedback" or n.startswith("homodyne_feedback.")}
        try:
            for layer, names in TARGETS.items():
                home = mods[f"homodyne_feedback.{layer}"]
                for fname in names:
                    original = getattr(home, fname)
                    wrapper = self.wrap(f"{layer}.{fname}", layer, original)
                    for mod in mods.values():
                        if getattr(mod, fname, None) is original:
                            self._undo.append((mod, fname, original))
                            setattr(mod, fname, wrapper)
            yield self
        finally:
            while self._undo:
                mod, fname, original = self._undo.pop()
                setattr(mod, fname, original)


def self_times(spans: list[Span]) -> dict[int, int]:
    """Self time in ns of every span: duration minus the union of the
    children's intervals, clipped to the span."""
    children = defaultdict(list)
    for s in spans:
        children[s.parent].append(s)
    out = {}
    for s in spans:
        covered, cur_start, cur_end = 0, None, None
        for c in sorted(children.get(s.sid, ()), key=lambda c: c.start):
            a, b = max(c.start, s.start), min(c.end, s.end)
            if b <= a:
                continue
            if cur_end is None or a > cur_end:
                if cur_end is not None:
                    covered += cur_end - cur_start
                cur_start, cur_end = a, b
            else:
                cur_end = max(cur_end, b)
        if cur_end is not None:
            covered += cur_end - cur_start
        out[s.sid] = (s.end - s.start) - covered
    return out


def layer_self_seconds(spans: list[Span]) -> dict[str, float]:
    own = self_times(spans)
    totals = dict.fromkeys(LAYERS, 0)
    for s in spans:
        totals[s.layer] += own[s.sid]
    return {layer: ns / 1e9 for layer, ns in totals.items()}
