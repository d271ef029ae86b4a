"""Span tracing from outside the program.

The traced run patches public functions and methods of ``rampnet`` with thin
wrappers that record one span per call: name, start, end, parent span and
episode id. Spans live in flat arrays in memory (a closed-loop run makes
about a million of them) and are written out once, when the run ends.
Nothing under ``src/`` changes; untraced runs never install the wrappers.
"""

from __future__ import annotations

import functools
import importlib
import time
from array import array
from contextlib import contextmanager

import numpy as np

# (owner, attribute, span name). Owners are module names inside ``rampnet``
# or "module:Class" for methods. ``run_episode`` is bound in two modules, so
# both bindings are patched under one span name.
TRACED = (
    ("network", "load_config", "network.load_config"),
    ("plant", "run_episode", "plant.run_episode"),
    ("harness", "run_episode", "plant.run_episode"),
    ("plant:TrafficPlant", "step", "plant.step"),
    ("plant:TrafficPlant", "read_window", "plant.read_window"),
    ("feedback:MeterBank", "__call__", "feedback.controller"),
    ("mpc", "solve", "mpc.solve"),
    ("mpc", "rollout", "mpc.rollout"),
    ("mpc", "objective", "mpc.objective"),
    ("mpc", "bound_penalty", "mpc.bound_penalty"),
    ("sysid:SparseModel", "evaluate", "sysid.evaluate"),
    ("sysid:SparseModel", "jacobian", "sysid.jacobian"),
    ("sysid", "stls_regress", "sysid.stls_regress"),
    ("sysid", "build_library", "sysid.build_library"),
    ("sysid", "differentiate", "sysid.differentiate"),
    ("sysid", "discover_sindyc", "sysid.discover_sindyc"),
    ("sysid", "discover_dmdc", "sysid.discover_dmdc"),
    ("sysid", "fit_report", "sysid.fit_report"),
    ("harness", "report", "harness.report"),
    ("harness", "load_raw_results", "harness.load_raw_results"),
    ("harness", "load_logs", "harness.load_logs"),
    ("harness", "collect", "harness.collect"),
)

EPISODE_SPAN = "plant.run_episode"

# Layer of each span name, for self-time shares. Model reads are split from
# the fit because they run inside the planner, not in discovery.
MODEL_READS = frozenset({"sysid.evaluate", "sysid.jacobian"})


def layer_of(name: str) -> str:
    if name in MODEL_READS:
        return "sysid_read"
    head = name.split(".", 1)[0]
    return "sysid_fit" if head == "sysid" else head


class Tracer:
    """In-memory span store. Single-threaded: spans nest strictly."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("h")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.episode = array("l")
        self._stack = [-1]
        self._episode = -1
        self._episodes = 0

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.episode.append(self._episode)
        self.start.append(0.0)
        self.end.append(0.0)
        self._stack.append(idx)
        return idx

    def wrap(self, fn, name: str):
        """Return ``fn`` wrapped so that each call records a span."""
        nid = self._id(name)
        open_span, start, end, stack = self._open, self.start, self.end, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = open_span(nid)
            start[idx] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()

        if name != EPISODE_SPAN:
            return traced

        @functools.wraps(fn)
        def traced_episode(*args, **kwargs):
            outer = self._episode
            self._episode = self._episodes
            self._episodes += 1
            try:
                return traced(*args, **kwargs)
            finally:
                self._episode = outer

        return traced_episode

    @contextmanager
    def region(self, name: str):
        """Record a span around a block of the benchmark's own code."""
        idx = self._open(self._id(name))
        self.start[idx] = time.perf_counter()
        try:
            yield
        finally:
            self.end[idx] = time.perf_counter()
            self._stack.pop()

    def arrays(self) -> dict[str, np.ndarray]:
        return {"name_id": np.array(self.name_id), "start": np.array(self.start),
                "end": np.array(self.end), "parent": np.array(self.parent),
                "episode": np.array(self.episode)}

    def save(self, path) -> None:
        np.savez(path, names=np.array(self.names), **self.arrays())


def _resolve(owner: str):
    module_name, _, cls_name = owner.partition(":")
    obj = importlib.import_module(f"rampnet.{module_name}")
    return getattr(obj, cls_name) if cls_name else obj


@contextmanager
def installed(tracer: Tracer):
    """Patch every ``TRACED`` target with a recording wrapper, then restore."""
    saved = []
    try:
        for owner, attr, name in TRACED:
            target = _resolve(owner)
            original = target.__dict__[attr]
            saved.append((target, attr, original))
            setattr(target, attr, tracer.wrap(original, name))
        yield tracer
    finally:
        for target, attr, original in reversed(saved):
            setattr(target, attr, original)


def self_times(start: np.ndarray, end: np.ndarray,
               parent: np.ndarray) -> np.ndarray:
    """Each span's duration minus the time its child spans cover.

    Spans come from one thread, so the children of a span never overlap and
    the time they cover is the sum of their durations.
    """
    duration = end - start
    has_parent = parent >= 0
    covered = np.bincount(parent[has_parent], weights=duration[has_parent],
                          minlength=len(duration))
    return duration - covered


class SpanTable:
    """Query helper over a tracer's spans, restricted to a set of spans."""

    def __init__(self, tracer: Tracer):
        cols = tracer.arrays()
        self.names = list(tracer.names)
        self.name_id = cols["name_id"]
        self.start = cols["start"]
        self.end = cols["end"]
        self.parent = cols["parent"]
        self.duration = self.end - self.start
        self.self_time = self_times(self.start, self.end, self.parent)

    def mask(self, name: str, within: np.ndarray | None = None) -> np.ndarray:
        if name not in self.names:
            return np.zeros(len(self.start), dtype=bool)
        hit = self.name_id == self.names.index(name)
        return hit if within is None else hit & within

    def inside(self, root_name: str) -> np.ndarray:
        """Spans that are ``root_name`` spans or descend from one."""
        inside = self.mask(root_name).copy()
        has_parent = self.parent >= 0
        parent = np.where(has_parent, self.parent, 0)
        while True:  # one pass per nesting level
            grown = inside | (has_parent & inside[parent])
            if np.array_equal(grown, inside):
                return inside
            inside = grown

    def calls(self, name: str, within=None) -> int:
        return int(self.mask(name, within).sum())

    def total(self, name: str, within=None, self_only: bool = False) -> float:
        col = self.self_time if self_only else self.duration
        return float(col[self.mask(name, within)].sum())

    def mean(self, name: str, within=None, self_only: bool = False) -> float:
        hit = self.mask(name, within)
        if not hit.any():
            return 0.0
        col = self.self_time if self_only else self.duration
        return float(col[hit].mean())

    def layer_self(self, within) -> dict[str, float]:
        """Self time per layer over the spans in ``within``."""
        out: dict[str, float] = {}
        for nid, name in enumerate(self.names):
            hit = (self.name_id == nid) & within
            if hit.any():
                layer = layer_of(name)
                out[layer] = out.get(layer, 0.0) + float(self.self_time[hit].sum())
        return out
