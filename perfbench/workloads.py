"""Closed-loop runners for the four benchmark workloads.

One synchronous client drives the public API only (``HOSMiner``,
``StreamEngine``). A run is a series of sessions, each one the whole
life of a fitted miner: set-up (fit, plus engine construction or the
first shard-pool spawn), an untimed warm-up, then a fixed number of
timed cycles in which every call is timed on its own. Every session of
a workload does the same amount of work on fresh traffic, so the timed
phase is stationary: the per-fit OD cache, which grows with every new
target, never grows past one session's worth. Answers from a fixed
sample of the first session's cycles are kept for the brute-force
oracle, which runs after the last session.
"""

from __future__ import annotations

import gc
import multiprocessing
import resource
import statistics
import time
from dataclasses import dataclass, field

import numpy as np

import hostspeed
import oracle
import traffic
from repro import HOSMiner, StreamEngine
from tracer import Spans

#: Untimed cycles between set-up and the timed cycles of a session: the
#: first batches after a fit run on a cold OD cache.
WARMUP_CYCLES = 4
#: Timed cycles per session, a multiple of 2 * TRACE_BLOCK.
SESSION_CYCLES = 16
#: Every run has at least enough sessions for 100 timed batch calls, so
#: each per-call p90 rests on at least 100 samples, even if that overruns
#: --seconds. Counts and traced layer times cover exactly these first
#: sessions, so they measure the same work on every run.
MIN_SESSIONS = -(-100 // SESSION_CYCLES)
#: A traced session alternates blocks of this many traced and untraced
#: cycles; both kinds of block see the same traffic mix, so comparing
#: them states the tracing overhead.
TRACE_BLOCK = 8


@dataclass(frozen=True)
class Workload:
    name: str
    traffic: type
    workers: int = 1
    stream: bool = False
    #: Timed cycle indices of the first session whose answers the oracle
    #: checks, and how many batch targets of each kind and how many
    #: singles it takes per cycle.
    oracle_cycles: tuple = (3,)
    oracle_caps: dict = field(default_factory=dict)
    oracle_singles: int = 0


#: Why each workload exists is recorded in BENCHMARK.json and README.md.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "small-mixed",
            traffic.SmallMixed,
            oracle_cycles=(0, 4),
            oracle_caps={"displaced": 1, "planted": 1, "hot": 1, "row": 1, "near": 1},
            oracle_singles=4,
        ),
        Workload(
            "large-inproc",
            traffic.Large,
            oracle_caps={"displaced": 1, "row": 1},
        ),
        Workload(
            "large-sharded",
            traffic.Large,
            workers=2,
            oracle_caps={"displaced": 1, "row": 1},
        ),
        Workload(
            "stream-window",
            traffic.StreamWindow,
            stream=True,
            oracle_caps={"displaced": 1, "fresh": 2, "watch": 2},
        ),
    )
}


@dataclass
class Phase:
    """Per-call latencies of the cycles run in one tracing state."""

    batch_s: list = field(default_factory=list)
    single_s: list = field(default_factory=list)
    push_s: list = field(default_factory=list)
    targets: int = 0
    #: Median host slowdown over the session's cycles (:func:`hostspeed.probe`).
    slowdown: float = 1.0

    @property
    def busy_s(self) -> float:
        return sum(self.batch_s) + sum(self.single_s) + sum(self.push_s)

    @property
    def qps(self) -> float:
        busy = self.busy_s
        return self.targets / busy if busy else 0.0

    def extend(self, other: "Phase") -> None:
        self.batch_s += other.batch_s
        self.single_s += other.single_s
        self.push_s += other.push_s
        self.targets += other.targets


def pooled(phases: "list[Phase]") -> Phase:
    out = Phase()
    for phase in phases:
        out.extend(phase)
    return out


def _answer(result) -> "dict[int, float]":
    return {subspace.mask: value for subspace, value in result.od_values.items()}


def _add(counts: dict, key: str, value: int) -> None:
    counts[key] = counts.get(key, 0) + value


class Runner:
    """Runs one workload for one seed."""

    def __init__(self, workload: Workload, seed: int, tracer=None) -> None:
        self.w = workload
        self.tracer = tracer
        self.inputs = workload.traffic(seed)
        #: The dataset the queries run against: the fixed dataset, or the
        #: stream's current window.
        self.data = np.array(self.inputs.X)
        self.next_cycle = 0
        self.step = 0
        self.miner = None
        self.client = None
        self.setup_s: list[float] = []
        #: Host slowdown probed after each cycle of the current session.
        self.slowdowns: list[float] = []
        self.fit_layers: list[dict] = []
        #: Timed cycles of each session: untraced, and traced ones of the
        #: first MIN_SESSIONS sessions when tracing.
        self.plain: list[Phase] = []
        self.traced: list[Phase] = []
        self.attempted = 0
        self.errors: list[str] = []
        self.faults = 0
        #: Peak RSS (MiB) over the first MIN_SESSIONS sessions: the same
        #: work on every run, however fast.
        self.rss_mb = 0.0
        #: Counters summed over the timed cycles of the first
        #: MIN_SESSIONS sessions, and traced spans of the same cycles.
        self.counts: dict = {}
        self.spans = Spans()
        #: (data, query, exclude, answer, k, threshold, od_rtol) for the
        #: oracle.
        self.samples: list = []

    # ------------------------------------------------------------------
    def run(self, seconds: float) -> None:
        """Run whole sessions until *seconds* of wall time and
        MIN_SESSIONS sessions have both passed."""
        deadline = time.perf_counter() + seconds
        while len(self.plain) < MIN_SESSIONS or time.perf_counter() < deadline:
            self._release()
            self._session(len(self.plain))
        self._release()

    def _release(self) -> None:
        """Close the last session's miner and collect its garbage, so
        the next session does not pay for it."""
        self.close()
        self.miner = self.client = None
        gc.collect()

    def _session(self, index: int) -> None:
        counting = index < MIN_SESSIONS
        tracer = self.tracer
        self._setup()
        for _ in range(WARMUP_CYCLES):
            self._cycle(Phase(), counting=False, sample=False)
        cache = self.miner.od_cache_
        delta_before = (cache.delta_retained, cache.delta_evicted)
        plain, traced = Phase(), Phase()
        for j in range(SESSION_CYCLES):
            phase = plain
            if tracer is not None and counting:
                if j // TRACE_BLOCK % 2 == 0:
                    tracer.install()
                    phase = traced
                else:
                    tracer.remove()
            self._cycle(
                phase, counting=counting, sample=index == 0 and j in self.w.oracle_cycles
            )
        plain.slowdown = traced.slowdown = statistics.median(self.slowdowns)
        self.plain.append(plain)
        self.traced.append(traced)
        if counting:
            self.rss_mb = max(self.rss_mb, self.peak_rss_mb())
            if index == 0:
                self.counts["od.cache_entries"] = len(cache)
            _add(self.counts, "delta_retained", cache.delta_retained - delta_before[0])
            _add(self.counts, "delta_evicted", cache.delta_evicted - delta_before[1])
            if tracer is not None:
                tracer.remove()
                self.spans.merge(tracer.take())

    def _setup(self) -> None:
        """Fit a fresh miner on the fixed dataset, timing it (and its fit
        layers when tracing)."""
        self.data = np.array(self.inputs.X)
        self.step = 0
        self.slowdowns = []
        if self.tracer is not None:
            self.tracer.take()
            self.tracer.install()
        start = time.perf_counter()
        miner = HOSMiner(workers=self.w.workers).fit(self.data)
        client = miner
        if self.w.stream:
            client = StreamEngine(miner, window=traffic.WINDOW)
        if self.w.workers > 1:
            # The first batch spawns the persistent row-shard pool.
            miner.query_batch([0])
        self.setup_s.append(time.perf_counter() - start)
        if self.tracer is not None:
            self.tracer.remove()
            self.fit_layers.append(dict(self.tracer.take().total))
        self.miner, self.client = miner, client

    def _cycle(self, phase: Phase, counting: bool, sample: bool) -> None:
        cycle = self.inputs.cycle(self.next_cycle, self.step)
        self.next_cycle += 1
        self.step += 1
        if cycle.push is not None:
            self._call(phase.push_s, self.client.push, cycle.push)
            self.data = np.concatenate([self.data, cycle.push])[-traffic.WINDOW :]
        batch = self._call(
            phase.batch_s, self.client.query_batch, [value for _, value in cycle.batch]
        )
        singles = [
            self._call(phase.single_s, self.client.query, value) for _, value in cycle.singles
        ]
        phase.targets += len(cycle.batch) + len(cycle.singles)
        if batch is not None:
            stats = batch.stats
            self.faults += (
                stats.worker_respawns + stats.retries + stats.timeouts + stats.degraded_rounds
            )
        if counting:
            results = ([] if batch is None else batch.results) + singles
            for result in results:
                if result is not None:
                    stats = result.stats
                    _add(self.counts, "od_evaluations", stats.od_evaluations)
                    _add(self.counts, "pruned", stats.upward_pruned + stats.downward_pruned)
                    _add(self.counts, "reverified", stats.reverified)
            if batch is not None:
                _add(self.counts, "knn_evaluations", batch.knn_evaluations)
                _add(self.counts, "cache_hits", batch.shared_cache_hits)
                _add(self.counts, "shard.round_trips", batch.stats.shard_round_trips)
                _add(self.counts, "shard.bytes_shipped", batch.stats.bytes_shipped)
        if sample:
            self._sample(cycle, batch, singles)
        self.slowdowns.append(hostspeed.probe())

    def _call(self, latencies: list, fn, arg):
        self.attempted += 1
        start = time.perf_counter()
        try:
            result = fn(arg)
        except Exception as exc:  # a failed operation, not a crashed run
            self.errors.append(f"{fn.__name__}: {exc!r}")
            return None
        latencies.append(time.perf_counter() - start)
        return result

    def _sample(self, cycle, batch, singles) -> None:
        miner = self.miner
        check = (
            miner.config.k,
            miner.threshold_,
            oracle.value_rtol(miner.precision_, miner.d_),
        )
        taken: dict[str, int] = {}
        picks = []
        if batch is not None:
            for (kind, value), result in zip(cycle.batch, batch.results):
                if taken.get(kind, 0) < self.w.oracle_caps.get(kind, 0):
                    taken[kind] = taken.get(kind, 0) + 1
                    picks.append((value, result))
        picks += [
            (value, result)
            for (_, value), result in zip(cycle.singles, singles)
            if result is not None
        ][: self.w.oracle_singles]
        for value, result in picks:
            if isinstance(value, (int, np.integer)):
                query, exclude = self.data[int(value)], int(value)
            else:
                query, exclude = np.asarray(value), None
            self.samples.append((self.data, query, exclude, _answer(result), *check))

    # ------------------------------------------------------------------
    def check(self) -> "tuple[int, list]":
        """Run the oracle on the sampled answers. Returns how many of
        them are outliers and one message per failed check."""
        outliers = 0
        failures = []
        for data, query, exclude, answer, k, threshold, od_rtol in self.samples:
            ok, outlying, reason = oracle.check(
                data, query, exclude, k, threshold, answer, od_rtol
            )
            outliers += outlying
            if not ok:
                failures.append(f"oracle: {reason}")
        if outliers == 0:
            failures.append("oracle: the sample holds no outlier")
        return outliers, failures

    def peak_rss_mb(self) -> float:
        """Peak RSS of this process plus its live worker processes."""
        total_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        for child in multiprocessing.active_children():
            try:
                with open(f"/proc/{child.pid}/status") as status:
                    for line in status:
                        if line.startswith("VmHWM:"):
                            total_kib += int(line.split()[1])
            except OSError:
                pass
        return total_kib / 1024.0

    def close(self) -> None:
        """Release the worker pools; the miner stays usable."""
        if self.client is not None:
            self.client.close()
