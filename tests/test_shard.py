"""Persistent sharded scatter-gather engine: exactness, lifecycle, wire.

The multi-worker row-shard engine must be *indistinguishable* from the
sequential path in its answers — element-wise identical, including exact
OD floats — under every kernel/precision pair and any shard count. On
top of that contract sit the runtime guarantees: the pool persists
across batches, survives worker exceptions, tears down cleanly (no
leaked shared-memory segments, whether via ``close()``, garbage
collection or interpreter exit), and ships an ``n``-independent number
of bytes per round (masks + query rows + k-prefixes, never data rows).
"""

from __future__ import annotations

import gc
import pickle

import numpy as np
import pytest
from multiprocessing import shared_memory

from repro.core.exceptions import ConfigurationError
from repro.core.filtering import minimal_masks
from repro.core.miner import HOSMiner
from repro.core.od import SharedODCache
from repro.core.shard import ShardPool, merge_prefixes, shard_bounds
from repro.data.synthetic import make_planted_outliers
from repro.index.linear import LinearScanIndex
from repro.index.topk import topk_prefix


@pytest.fixture(scope="module")
def dataset():
    return make_planted_outliers(
        n=240, d=5, n_outliers=3, subspace_dims=2, displacement=9.0, seed=31
    )


def assert_results_identical(sequential, batched):
    """Element-wise identity, down to exact OD floats."""
    assert len(sequential) == len(batched)
    for a, b in zip(sequential, batched):
        assert a.minimal == b.minimal
        assert a.total_outlying == b.total_outlying
        assert a.threshold == b.threshold
        assert a.od_values == b.od_values  # exact float equality
        assert a.stats.od_evaluations == b.stats.od_evaluations
        assert a.stats.level_schedule == b.stats.level_schedule


def assert_no_segments(names):
    """Every named shared-memory segment must be gone."""
    for name in names:
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=name)


# ----------------------------------------------------------------------
# Building blocks: bounds and the exact k-way merge
# ----------------------------------------------------------------------
class TestShardBounds:
    def test_covers_every_row_once(self):
        for n, workers in [(10, 3), (7, 7), (100, 4), (5, 1), (3, 8)]:
            bounds = shard_bounds(n, workers)
            assert bounds[0][0] == 0 and bounds[-1][1] == n
            for (_, hi), (lo2, _) in zip(bounds, bounds[1:]):
                assert hi == lo2
            assert all(hi > lo for lo, hi in bounds)  # never empty

    def test_caps_at_n(self):
        assert len(shard_bounds(2, 8)) == 2
        assert len(shard_bounds(1, 8)) == 1


class TestMergePrefixes:
    def test_equals_global_topk(self, rng):
        k = 4
        # 3 shards with different candidate counts, inf-padded like the
        # workers pad short shards.
        widths = [6, 2, 5]
        parts = []
        pool = []
        for width in widths:
            values = np.sort(rng.normal(size=(3, 2, width)) ** 2, axis=-1)
            pool.append(values)
            padded = np.full((3, 2, k), np.inf)
            padded[..., : min(k, width)] = values[..., :k]
            parts.append(padded)
        merged = merge_prefixes(parts, k)
        everything = np.concatenate(pool, axis=-1)
        expected = topk_prefix(everything.reshape(6, -1), k, "partition").reshape(
            3, 2, k
        )
        np.testing.assert_array_equal(merged, expected)

    def test_single_part_passthrough(self, rng):
        part = np.sort(rng.normal(size=(2, 2, 3)) ** 2, axis=-1)
        np.testing.assert_array_equal(merge_prefixes([part], 3), part)


# ----------------------------------------------------------------------
# The headline contract: sharded answers are element-wise identical
# ----------------------------------------------------------------------
class TestShardedIdentity:
    @pytest.mark.parametrize(
        "kernel,precision",
        [("exact", "float64"), ("gemm", "float64"), ("gemm", "float32")],
    )
    def test_identity_across_shard_counts(self, dataset, kernel, precision, rng):
        """Property sweep: shard counts 1–4 × kernel × precision tier."""
        make = lambda: HOSMiner(  # noqa: E731
            k=4,
            sample_size=4,
            threshold_quantile=0.95,
            kernel=kernel,
            precision=precision,
        ).fit(dataset.X)
        reference = make()
        targets = list(range(10)) + [
            dataset.X[3] + 0.2,
            rng.normal(size=dataset.X.shape[1]),
        ]
        sequential = reference.query_batch(targets, workers=1)
        with make() as sharded:
            for workers in range(2, 5):  # workers=1 IS the sequential arm
                # Drop the previous count's primed ODs, else the next
                # batch is a pure cache replay and never scatters.
                sharded.od_cache_.invalidate()
                batched = sharded.query_batch(targets, workers=workers)
                assert batched.workers == workers
                assert batched.stats.shard_round_trips > 0
                assert batched.stats.bytes_shipped > 0
                assert_results_identical(sequential.results, batched.results)

    @pytest.mark.parametrize("index", ["vafile", "rstar"])
    def test_identity_other_backends(self, dataset, index):
        with HOSMiner(
            k=4, sample_size=4, threshold_quantile=0.95, index=index
        ).fit(dataset.X) as miner:
            rows = list(range(8))
            sequential = [miner.query_row(row) for row in rows]
            batched = miner.query_batch(rows, workers=3)
            assert_results_identical(sequential, batched.results)

    def test_single_query_rides_the_pool(self, dataset):
        """Satellite: a single-query batch is served by the persistent
        shard pool rather than silently dropping to in-process."""
        with HOSMiner(k=4, sample_size=4, threshold_quantile=0.95).fit(
            dataset.X
        ) as miner:
            # An external point: dataset rows have their full-space OD
            # pre-cached by calibration, which can settle the whole
            # lattice without any scatter.
            point = dataset.X[11] * 1.05
            single = miner.query_batch([point], workers=2)
            assert single.workers == 2
            assert single.stats.shard_round_trips >= 1
            assert_results_identical([miner.query_point(point)], single.results)

    def test_pool_persists_across_batches(self, dataset):
        with HOSMiner(k=4, sample_size=4, threshold_quantile=0.95).fit(
            dataset.X
        ) as miner:
            miner.query_batch(list(range(4)), workers=2)
            pool = miner._shard_pool
            assert pool is not None and not pool.closed
            miner.query_batch(list(range(4, 8)), workers=2)
            assert miner._shard_pool is pool  # reused, not respawned
            assert pool.round_trips > 0
            # A different worker count respawns.
            miner.query_batch(list(range(2)), workers=3)
            assert miner._shard_pool is not pool
            assert pool.closed


# ----------------------------------------------------------------------
# One re-verification step behind every path
# ----------------------------------------------------------------------
class TestReverificationAcrossPaths:
    @pytest.mark.parametrize("precision", ["float64", "float32"])
    def test_planted_threshold_settles_identically(self, dataset, precision):
        """A threshold planted exactly at a GEMM-computed OD must be
        re-verified the same way by the sequential search, the
        in-process batch engine and the shard pool — same answers as
        the exact kernel, same re-verification count, and the same
        exact kth bound recorded in the shared cache."""
        k = 4
        d = dataset.X.shape[1]
        # External point: no fit-time cache entry can settle its
        # full-space OD without a kernel call.
        point = dataset.X[7] + 0.35
        full = (1 << d) - 1
        _, distances = LinearScanIndex(dataset.X).knn(point, k, tuple(range(d)))
        # Under OD monotonicity no proper subspace reaches the full
        # space's OD, so the full space is always evaluated.
        threshold = float(distances.sum())
        exact_kth = float(distances[-1])
        key = SharedODCache.point_key(point, None)

        def make(**overrides):
            return HOSMiner(
                k=k, threshold=threshold, sample_size=4, precision=precision,
                **overrides,
            ).fit(dataset.X)

        reference = make(kernel="exact").query_point(point)
        inproc = make()
        outcome, _ = inproc.search_outcome(point)
        batched = inproc.query_batch([point], workers=1)
        with make() as miner:
            sharded = miner.query_batch([point], workers=2)
            sharded_kth = miner.od_cache_.kth_of(key, full)

        assert outcome.stats.reverified >= 1
        for result in (batched.results[0], sharded.results[0]):
            assert result.stats.reverified == outcome.stats.reverified
            assert [s.mask for s in result.minimal] == minimal_masks(
                outcome.outlying_masks
            )
            assert result.total_outlying == len(outcome.outlying_masks)
            assert result.minimal == reference.minimal
            assert result.total_outlying == reference.total_outlying
            assert result.od_values == reference.od_values  # exact floats
        assert_results_identical(batched.results, sharded.results)
        assert reference.od_values[reference.minimal[0]] == threshold
        # A re-verified kth is the exact kth, stored as is on every path.
        assert inproc.od_cache_.kth_of(key, full) == exact_kth
        assert sharded_kth == exact_kth


# ----------------------------------------------------------------------
# Lifecycle: close(), GC, worker crashes, staleness
# ----------------------------------------------------------------------
class TestLifecycle:
    def test_double_close_is_idempotent(self, dataset):
        pool = ShardPool(dataset.X, 2)
        names = pool.segment_names
        pool.close()
        pool.close()  # second close is a no-op, not an error
        assert pool.closed
        assert_no_segments(names)

    def test_use_after_close_raises_loudly(self, dataset):
        pool = ShardPool(dataset.X, 2)
        pool.close()
        with pytest.raises(ConfigurationError, match="closed"):
            pool.scatter_sums(
                dataset.X[:1],
                [np.array([0, 1], dtype=np.intp)],
                3,
                [None],
                "exact",
                "float64",
            )

    def test_pool_survives_worker_exception(self, dataset):
        with ShardPool(dataset.X, 3) as pool:
            with pytest.raises(Exception):
                pool.scatter_sums(
                    dataset.X[:1],
                    [np.array([dataset.X.shape[1] + 5], dtype=np.intp)],
                    3,
                    [None],
                    "exact",
                    "float64",
                )
            # Same pool, same workers: still serving.
            out = pool.scatter_sums(
                dataset.X[:2],
                [np.array([0, 1], dtype=np.intp)],
                3,
                [None, None],
                "exact",
                "float64",
            )
            assert out.shape == (2, 1) and np.all(np.isfinite(out))
            assert not pool.closed

    def test_gc_releases_segments(self, dataset):
        pool = ShardPool(dataset.X, 2)
        names = pool.segment_names
        del pool
        gc.collect()
        assert_no_segments(names)

    def test_miner_close_releases_and_respawns(self, dataset):
        miner = HOSMiner(k=4, sample_size=4, threshold_quantile=0.95).fit(dataset.X)
        first = miner.query_batch(list(range(4)), workers=2)
        names = miner._shard_pool.segment_names
        miner.close()
        miner.close()  # idempotent at the miner level too
        assert_no_segments(names)
        assert miner._shard_pool is None
        # The miner stays fully usable: the next batch spawns fresh.
        second = miner.query_batch(list(range(4)), workers=2)
        assert_results_identical(first.results, second.results)
        miner.close()

    def test_extend_closes_stale_pools(self, dataset):
        miner = HOSMiner(k=4, sample_size=4, threshold_quantile=0.95).fit(dataset.X)
        miner.query_batch(list(range(4)), workers=2)
        pool = miner._shard_pool
        miner.extend(dataset.X[:2] + 5.0)
        assert pool.closed and miner._shard_pool is None
        # Post-extend shard batches see the new rows (fresh shards).
        sequential = [miner.query_row(row) for row in range(4)]
        batched = miner.query_batch(list(range(4)), workers=2)
        assert_results_identical(sequential, batched.results)
        miner.close()

    def test_pickled_miner_drops_pools(self, dataset):
        miner = HOSMiner(k=4, sample_size=4, threshold_quantile=0.95).fit(dataset.X)
        miner.query_batch(list(range(2)), workers=2)
        clone = pickle.loads(pickle.dumps(miner))
        assert clone._shard_pool is None
        # The original's pool is untouched by pickling.
        assert not miner._shard_pool.closed
        miner.close()

    def test_invalid_workers_and_data(self, dataset):
        with pytest.raises(ConfigurationError, match="workers"):
            ShardPool(dataset.X, 0)
        with pytest.raises(ConfigurationError, match="non-empty"):
            ShardPool(np.empty((0, 3)), 2)


# ----------------------------------------------------------------------
# The wire: what crosses the pipe, and what never does
# ----------------------------------------------------------------------
class TestWire:
    def test_bytes_shipped_independent_of_n(self, rng):
        """The scatter ships masks + query rows + k-prefix replies; data
        rows live in shared memory. 10× the dataset, same bytes."""
        small = rng.normal(size=(120, 4))
        big = np.vstack([small, rng.normal(size=(1080, 4))])
        queries = rng.normal(size=(3, 4))
        dims_list = [np.array([0, 1], dtype=np.intp), np.array([2], dtype=np.intp)]
        shipped = []
        for X in (small, big):
            with ShardPool(X, 3) as pool:
                pool.scatter_sums(
                    queries, dims_list, 4, [None] * 3, "exact", "float64"
                )
                pool.scatter_sums(
                    queries, dims_list, 4, [None] * 3, "gemm", "float64"
                )
                shipped.append(pool.bytes_shipped)
                assert pool.round_trips == 2
        assert shipped[0] == shipped[1]

    def test_stats_surface_in_batch_result(self, dataset):
        with HOSMiner(k=4, sample_size=4, threshold_quantile=0.95).fit(
            dataset.X
        ) as miner:
            batched = miner.query_batch(list(range(6)), workers=2)
            assert batched.stats.shard_round_trips > 0
            assert batched.stats.bytes_shipped > 0
            assert "shard scatter" in batched.summary()
            as_dict = batched.stats.as_dict()
            assert as_dict["shard_round_trips"] == batched.stats.shard_round_trips
            assert as_dict["bytes_shipped"] == batched.stats.bytes_shipped
            # The in-process path reports zeros, not garbage.
            inproc = miner.query_batch(list(range(2)), workers=1)
            assert inproc.stats.shard_round_trips == 0
            assert inproc.stats.bytes_shipped == 0

    def test_scatter_prefixes_match_full_scan(self, rng):
        """Direct kernel check below the engine: merged prefixes equal
        a single-shard (full scan) pool's output for every kernel."""
        X = rng.normal(size=(90, 4))
        queries = rng.normal(size=(2, 4))
        dims_list = [np.array([0, 2], dtype=np.intp), np.array([1, 3], dtype=np.intp)]
        excludes = [5, None]
        with ShardPool(X, 1) as reference, ShardPool(X, 4) as sharded:
            for kernel, precision in [
                ("exact", "float64"),
                ("gemm", "float64"),
                ("gemm", "float32"),
            ]:
                ref = reference.scatter_prefixes(
                    queries, dims_list, 5, excludes, kernel, precision
                )
                got = sharded.scatter_prefixes(
                    queries, dims_list, 5, excludes, kernel, precision
                )
                np.testing.assert_array_equal(got, ref)
