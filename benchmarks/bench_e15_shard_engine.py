"""E15 — persistent sharded scatter-gather engine vs per-call spin-up.

``workers=N`` splits the fitted data row-wise across worker
processes that attach to ``multiprocessing.shared_memory`` segments, so
batches ship only subspace masks and query rows over the pipes — the
wire volume is independent of n. Because OD is additive over data
points, the coordinator's exact k-way merge of per-shard sorted
k-prefixes reproduces the sequential kernels bit for bit.

The persistent pool is the point: it is spawned once per fit and reused
across ``query_batch`` calls, so steady-state calls skip fork,
shared-memory attach and backend construction entirely (and keep the
worker-side component caches warm). This benchmark measures exactly
that gap — the gated ``persist_speedup`` is warm-pool vs
torn-down-before-every-call wall time — plus the deterministic wire
counters ``round_trips``/``bytes_shipped``. Raw multi-process
``scaling`` vs the in-process engine is recorded for the trajectory but
not gated: it measures the runner's core count, not the code.

The measurement lives in :data:`repro.bench.perf.E15_SPEC`; this script
is its classic entry point. ``python benchmarks/bench_e15_shard_engine.py``
prints the full table; ``--fast`` runs the CI smoke grid; ``--save
[PATH]`` writes the canonical ``BENCH_e15.json`` snapshot (the
committed baseline the CI regression gate compares against — see
docs/benchmarking.md). The pytest-benchmark twins time a warm pool
against per-call teardown on a small fixed batch.
"""

from __future__ import annotations

from repro.bench.perf import E15_SPEC
from repro.bench.script import run_script
from repro.bench.workloads import small_batch_setup


# ----------------------------------------------------------------------
# pytest-benchmark twins (small fixed batch, regression tracking)
# ----------------------------------------------------------------------
def test_benchmark_shard_pool_warm(benchmark):
    """Time 64 traffic-shaped queries through a persistent 2-shard pool.

    The pool is spun up before the first round; every round invalidates
    the per-fit cache so it measures a cold batch over a warm pool.
    """
    miner, targets = small_batch_setup()
    miner.query_batch(targets, workers=2)  # spin up, unmeasured

    def run():
        miner.od_cache_.invalidate()
        return miner.query_batch(targets, workers=2)

    result = benchmark(run)
    miner.close()
    assert len(result) == 64
    assert result.stats.shard_round_trips > 0


def test_benchmark_shard_pool_percall(benchmark):
    """Time the same batch with the pool torn down before every round,
    so each round pays fork + shared-memory attach + backend build."""
    miner, targets = small_batch_setup()

    def run():
        miner.close()
        miner.od_cache_.invalidate()
        return miner.query_batch(targets, workers=2)

    result = benchmark(run)
    miner.close()
    assert len(result) == 64


# ----------------------------------------------------------------------
def main() -> None:
    run_script(E15_SPEC, default_tier="full")


if __name__ == "__main__":
    main()
