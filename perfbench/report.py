"""One benchmark run: drive a workload, check it, compute its metrics."""

from __future__ import annotations

import json
import multiprocessing
import os
import statistics
from multiprocessing import resource_tracker

import numpy as np

from tracer import Spans, Tracer
from workloads import SESSION_CYCLES, Runner, pooled

#: Per-layer metric -> traced layer. Set-up layers report the median
#: per fit over the sessions; the others report totals over the traced
#: blocks (TOTAL_LAYERS) or their self time (SELF_LAYERS). Counts are
#: summed over the timed cycles of the first MIN_SESSIONS sessions, so
#: they repeat exactly for a seed.
FIT_LAYERS = {
    "miner.fit.index_s": "miner.fit.index",
    "miner.fit.calibrate_s": "miner.fit.calibrate",
    "miner.fit.learn_s": "miner.fit.learn",
    "shard.spawn_s": "shard.spawn",
}
TOTAL_LAYERS = {
    "od.delta_insert_s": "od.delta_insert",
    "od.delta_expire_s": "od.delta_expire",
    "filtering.minimal_s": "filtering.minimal",
    "linear.prefix_s": "linear.prefix",
    "linear.knn_s": "linear.knn",
    "linear.components_s": "linear.components",
    "linear.insert_s": "linear.insert",
    "linear.expire_s": "linear.expire",
    "topk.s": "topk",
    "shard.scatter_s": "shard.scatter",
    "shard.merge_s": "shard.merge",
}
SELF_LAYERS = {
    "batch.self_s": "batch",
    "search.single_self_s": "search.single",
    "stream.push_self_s": "stream.push",
}
#: Spans whose share of time the breakdown reports, by caller.
ROOTS = ("batch", "search.single", "stream.push")


def shm_segments() -> set:
    """Names of the POSIX shared-memory segments multiprocessing made."""
    try:
        return {name for name in os.listdir("/dev/shm") if name.startswith("psm_")}
    except OSError:
        return set()


def percentile(values: list, q: float) -> float:
    """The q-th percentile (0-100) by linear interpolation; 0 when no
    call of that kind completed."""
    return float(np.percentile(np.asarray(values), q)) if values else 0.0


def median(values: list) -> float:
    return float(statistics.median(values))


def _metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def end_to_end(runner: Runner, normalise: bool = True) -> dict:
    """The end-to-end metrics. With *normalise*, each session's times
    are divided by the host slowdown probed during it, so they read as
    seconds on the reference host (see hostspeed.py)."""
    # Medians over the sessions, which all do the same work, keep a slow
    # spell the probe misses from moving set-up time and throughput;
    # batch latencies pool every session's calls.
    sessions = runner.plain
    slowdowns = [s.slowdown if normalise else 1.0 for s in sessions]
    setup_s = [t / f for t, f in zip(runner.setup_s, slowdowns)]
    batch_s = [t / f for s, f in zip(sessions, slowdowns) for t in s.batch_s]
    ms = 1000.0
    return {
        "setup_s": _metric(median(setup_s), "s"),
        "query_qps": _metric(median([s.qps * f for s, f in zip(sessions, slowdowns)]), "1/s"),
        "batch_p50_ms": _metric(percentile(batch_s, 50) * ms, "ms"),
        "batch_p90_ms": _metric(percentile(batch_s, 90) * ms, "ms"),
        "peak_rss_mb": _metric(runner.rss_mb, "MiB"),
    }


def per_layer(runner: Runner, tracer: Tracer) -> dict:
    counts = runner.counts
    spans = runner.spans
    plain, traced = pooled(runner.plain), pooled(runner.traced)
    metrics = {}
    for name, layer in FIT_LAYERS.items():
        metrics[name] = _metric(median([fit.get(layer, 0.0) for fit in runner.fit_layers]), "s")
    for name, layer in TOTAL_LAYERS.items():
        metrics[name] = _metric(spans.total[layer], "s")
    for name, layer in SELF_LAYERS.items():
        metrics[name] = _metric(spans.self_s[layer], "s")
    evaluations = counts.get("od_evaluations", 0)
    pruned = counts.get("pruned", 0)
    hits = counts.get("cache_hits", 0)
    retained = counts.get("delta_retained", 0)
    # Single-query and push latency as users see them: from the untraced
    # cycles. Only small-mixed issues singles, only stream-window pushes.
    singles = plain.single_s
    pushes = plain.push_s
    metrics.update(
        {
            "search.od_evaluations": _metric(evaluations, "count"),
            "search.pruned_frac": _metric(_ratio(pruned, pruned + evaluations), "ratio"),
            "od.cache_hit_ratio": _metric(
                _ratio(hits, hits + counts.get("knn_evaluations", 0)), "ratio"
            ),
            "od.cache_entries": _metric(counts.get("od.cache_entries", 0), "count"),
            "od.delta_retained_frac": _metric(
                _ratio(retained, retained + counts.get("delta_evicted", 0)), "ratio"
            ),
            "linear.prefix_calls": _metric(spans.calls["linear.prefix"], "count"),
            "linear.reverified": _metric(counts.get("reverified", 0), "count"),
            "shard.round_trips": _metric(counts.get("shard.round_trips", 0), "count"),
            "shard.bytes_shipped": _metric(counts.get("shard.bytes_shipped", 0), "bytes"),
            "shard.faults": _metric(runner.faults, "count"),
            "search.single_p50_ms": _metric(percentile(singles, 50) * 1000.0, "ms"),
            "search.single_p90_ms": _metric(percentile(singles, 90) * 1000.0, "ms"),
            "stream.push_p50_ms": _metric(percentile(pushes, 50) * 1000.0, "ms"),
            "stream.push_p90_ms": _metric(percentile(pushes, 90) * 1000.0, "ms"),
            "trace.query_qps": _metric(traced.qps, "1/s"),
            "trace.overhead_frac": _metric(_ratio(plain.qps, traced.qps) - 1.0, "ratio"),
        }
    )
    for layer in tracer.absent:
        for name, source in {**FIT_LAYERS, **TOTAL_LAYERS, **SELF_LAYERS}.items():
            if source == layer:
                metrics[name]["absent"] = True
    return metrics


def breakdown(spans: Spans) -> dict:
    """Share of each root span's time spent in itself and in each
    direct child layer."""
    out = {}
    for root in ROOTS:
        total = spans.total[root]
        if not total:
            continue
        shares = {"self": spans.self_s[root] / total}
        for (parent, child), seconds in spans.child_s.items():
            if parent == root:
                shares[child] = seconds / total
        out[root] = {
            "total_s": total,
            "share": dict(sorted(shares.items(), key=lambda item: -item[1])),
        }
    return out


def _reap_children() -> int:
    """Join every worker process still alive; returns how many had to
    be killed."""
    stray = 0
    for child in multiprocessing.active_children():
        child.join(timeout=5.0)
        if child.is_alive():
            stray += 1
            child.kill()
            child.join()
    return stray


def run(workload, seed: int, seconds: float, trace: bool) -> dict:
    tracer = Tracer() if trace else None
    shm_before = shm_segments()
    runner = Runner(workload, seed, tracer)
    try:
        runner.run(seconds)
    finally:
        runner.close()
        if tracer is not None:
            tracer.remove()
    # One entry per failed operation: a raised call, a leaked segment, a
    # worker that outlived close() or an answer the oracle rejects.
    errors = list(runner.errors)
    errors += [f"leaked shared-memory segment {name}" for name in shm_segments() - shm_before]
    errors += ["a worker process outlived close()"] * _reap_children()
    stop = getattr(getattr(resource_tracker, "_resource_tracker", None), "_stop", None)
    if stop is not None:
        stop()  # the shared-memory tracker process, started on first use
    outliers, oracle_failures = runner.check()
    errors += oracle_failures
    phases = runner.plain + runner.traced
    detail = {
        "workload": workload.name,
        "seed": seed,
        "samples": {
            "sessions": len(runner.plain),
            "cycles_per_session": SESSION_CYCLES,
            "batch_calls": sum(len(p.batch_s) for p in phases),
            "single_calls": sum(len(p.single_s) for p in phases),
            "push_calls": sum(len(p.push_s) for p in phases),
            "targets": sum(p.targets for p in phases),
            "oracle_checked": len(runner.samples),
            "oracle_outliers": outliers,
        },
        "errors": errors[:10],
        # Per session: host slowdown, set-up seconds, then query_qps,
        # batch p50 and p90 (ms) of its untraced cycles, all as measured.
        "sessions": [
            [
                round(p.slowdown, 3),
                round(setup, 4),
                round(p.qps, 1),
                round(percentile(p.batch_s, 50) * 1e3, 2),
                round(percentile(p.batch_s, 90) * 1e3, 2),
            ]
            for setup, p in zip(runner.setup_s, runner.plain)
        ],
    }
    if tracer is None:
        metrics = end_to_end(runner)
        detail["as_measured"] = {
            name: metric["value"] for name, metric in end_to_end(runner, False).items()
        }
    else:
        detail["absent_layers"] = sorted(tracer.absent)
        detail["breakdown"] = breakdown(runner.spans)
        metrics = per_layer(runner, tracer)
    print(json.dumps({"detail": detail}))
    return {
        "correct": not errors,
        "attempted": runner.attempted,
        "failed": len(errors),
        "metrics": metrics,
    }
