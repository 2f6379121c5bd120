"""Span tracer that times calls into each layer's public functions.

The tracer wraps functions where their callers look them up (a class
attribute for methods, the calling module's global for imported
functions) and records one span per call: a layer name, its duration
and the time covered by its direct child spans. Self time is duration
minus child time. A layer's total and call count include only its
outermost spans, so a wrapper that calls a sibling of the same layer
(``knn_distance_sums`` calling ``knn_distance_prefix``) is not counted
twice. A function that no longer exists marks its layer absent instead
of failing, so the tracer keeps working as the program is simplified.

Nothing is patched until :meth:`Tracer.install`; :meth:`Tracer.remove`
restores every original, so a run can switch tracing on and off.
:meth:`Tracer.take` hands over the spans recorded so far, so set-up and
timed cycles are accounted apart.
"""

from __future__ import annotations

import functools
import importlib
import os
import time
from collections import defaultdict

#: layer -> ((module, attribute path), ...) of the functions it covers.
LAYERS: "dict[str, tuple[tuple[str, str], ...]]" = {
    "miner.fit.index": (("repro.core.miner", "make_backend"),),
    "miner.fit.calibrate": (("repro.core.miner", "calibrate_threshold"),),
    "miner.fit.learn": (("repro.core.miner", "learn_priors"),),
    "batch": (("repro.core.miner", "HOSMiner.query_batch"),),
    "search.single": (("repro.core.miner", "HOSMiner.query"),),
    "filtering.minimal": (("repro.core.miner", "minimal_masks"),),
    "od.delta_insert": (("repro.core.od", "SharedODCache.delta_insert"),),
    "od.delta_expire": (("repro.core.od", "SharedODCache.delta_expire"),),
    "linear.prefix": tuple(
        ("repro.index.linear", f"LinearScanIndex.{name}")
        for name in (
            "knn_distance_prefix",
            "knn_distance_sums",
            "knn_distance_prefix_batch",
            "knn_distance_sums_batch",
        )
    ),
    "linear.knn": (
        ("repro.index.linear", "LinearScanIndex.knn"),
        ("repro.index.linear", "LinearScanIndex.knn_batch"),
    ),
    "linear.components": (("repro.index.linear", "LinearScanIndex.distance_components"),),
    "linear.insert": (("repro.index.linear", "LinearScanIndex.insert"),),
    "linear.expire": (("repro.index.linear", "LinearScanIndex.expire"),),
    "topk": (("repro.index.linear", "topk_prefix"),),
    "shard.spawn": (("repro.core.shard", "ShardPool.__init__"),),
    "shard.scatter": (
        ("repro.core.shard", "ShardPool.scatter_prefixes"),
        ("repro.core.shard", "ShardPool.scatter_sums"),
    ),
    "shard.merge": (("repro.core.shard", "merge_prefixes"),),
    "stream.push": (("repro.core.stream", "StreamEngine.push"),),
}


class Spans:
    """Per-layer span totals: outermost time, self time, outermost call
    count, and time in direct child spans per (parent, child) pair."""

    def __init__(self) -> None:
        self.total: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.child_s: dict[tuple[str, str], float] = defaultdict(float)

    def merge(self, other: "Spans") -> None:
        for mine, theirs in (
            (self.total, other.total),
            (self.self_s, other.self_s),
            (self.calls, other.calls),
            (self.child_s, other.child_s),
        ):
            for key, value in theirs.items():
                mine[key] += value


class Tracer:
    """In-memory span accounting per layer."""

    def __init__(self) -> None:
        self._stack: list[list] = []  # [layer, child seconds]
        self._patches: list[tuple[object, str, object]] = []
        self.absent: set[str] = set()
        self.spans = Spans()

    def take(self) -> Spans:
        """Return the spans recorded so far and start afresh."""
        spans, self.spans = self.spans, Spans()
        return spans

    # ------------------------------------------------------------------
    @property
    def installed(self) -> bool:
        return bool(self._patches)

    def install(self) -> "Tracer":
        """Patch every layer function that exists; idempotent."""
        if self.installed:
            return self
        self.absent = set()
        for layer, targets in LAYERS.items():
            found = False
            for module_name, path in targets:
                found |= self._wrap(layer, module_name, path)
            if not found:
                self.absent.add(layer)
        return self

    def remove(self) -> None:
        """Restore every original function; idempotent."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _wrap(self, layer: str, module_name: str, path: str) -> bool:
        try:
            owner = importlib.import_module(module_name)
        except ImportError:
            return False
        *parents, attr = path.split(".")
        for name in parents:
            owner = getattr(owner, name, None)
            if owner is None:
                return False
        original = getattr(owner, attr, None)
        if original is None:
            return False
        tracer = self
        pid = os.getpid()

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if os.getpid() != pid:  # a forked worker: its spans are lost
                return original(*args, **kwargs)
            return tracer._span(layer, original, args, kwargs)

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))
        return True

    def _span(self, layer: str, fn, args, kwargs):
        stack = self._stack
        outermost = all(frame[0] != layer for frame in stack)
        frame = [layer, 0.0]
        stack.append(frame)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = time.perf_counter() - start
            stack.pop()
            spans = self.spans
            if stack:
                stack[-1][1] += elapsed
                spans.child_s[(stack[-1][0], layer)] += elapsed
            spans.self_s[layer] += elapsed - frame[1]
            if outermost:
                spans.total[layer] += elapsed
                spans.calls[layer] += 1
