"""Batched multi-query engine: many lattice searches, shared kNN work.

The paper's system answers one query point at a time; a traffic-serving
deployment receives *streams* of query points against one fitted model.
:class:`BatchQueryEngine` drives many
:class:`~repro.core.search.DynamicSubspaceSearch` runs concurrently in
lock-step rounds:

1. every still-active search announces (via its
   :meth:`~repro.core.search.DynamicSubspaceSearch.run_stepped`
   coroutine) the subspace masks it needs OD values for next;
2. requests already answered by the per-fit
   :class:`~repro.core.od.SharedODCache` are replayed for free —
   fit-time calibration and learning populate that cache, so querying a
   row the learning pass already searched costs zero new kNN work;
3. the remaining requests are scheduled **mask-major** when the fitted
   miner resolved the GEMM kernel: searches that request the *same*
   subspace list this round (the common case — concurrent searches
   walk the lattice in lock-step and expand the same levels) are fused
   into one stacked multi-query GEMM
   (:meth:`~repro.index.linear.LinearScanIndex.knn_distance_prefix_batch`
   with ``C_batch`` component stacking), after coalescing identical
   query points so duplicates pay once. Under the exact kernel (or a
   backend without the level kernel) the engine falls back to the
   original scheduling: per-query level-kernel calls when masks
   outnumber distinct masks, else one vectorised
   :meth:`~repro.index.base.KnnBackend.knn_batch` call per mask.

Every kernel result becomes OD values through one function,
:func:`~repro.core.od.record_level`, which re-verifies near-threshold
GEMM values with the exact kernel before any pruning decision is made
on them — the same step the sequential search runs.

Because ``run_stepped`` is the sequential search's own loop and every
supplied OD value is exactly what the backend would have returned, the
per-point results are **identical** to sequential
``query_point``/``query_row`` calls — element-wise, including tie
order — while the hot distance kernels run batch-wide and repeated work
is shared (property-tested in ``tests/test_batch.py``).

``workers=N`` (default from ``HOSMinerConfig.workers`` / the
``HOSMINER_WORKERS`` environment variable) runs the same round loop on
the persistent scatter-gather engine (:mod:`repro.core.shard`): the
fitted miner owns a worker pool spawned once and reused across every
``query_batch`` call, whose workers hold shared-memory row shards of the
dataset. Each mask-major work unit is *scattered*: every shard answers
with its local sorted k-nearest distance prefixes (under the fitted
kernel and precision) and the coordinator merges them exactly — OD
additivity over data points makes the merged prefix identical to a full
scan's. Near-threshold GEMM values re-verify through a sharded *exact*
round. Only masks and query rows cross the pipe, so per-call shipped
bytes are independent of ``n``; single-query batches ride the warm pool
too. ``SearchStats`` gains ``shard_round_trips`` and ``bytes_shipped``.
Answers are unaffected by the worker count.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Generator, Sequence

import numpy as np

from repro.core.exceptions import ConfigurationError
from repro.core.od import ODEvaluator, SharedODCache, mask_dims, record_level
from repro.core.result import BatchResult, OutlyingSubspaceResult
from repro.core.search import SearchOutcome, SearchStats
from repro.index.base import validate_query_matrix

if TYPE_CHECKING:
    from repro.core.miner import HOSMiner
    from repro.core.shard import ShardPool

__all__ = ["BatchQueryEngine"]


@dataclass(slots=True)
class _SearchState:
    """Bookkeeping of one in-flight search inside the round loop."""

    gen: Generator[list[int], "dict[int, float]", SearchOutcome]
    evaluator: ODEvaluator
    pending: list[int] = field(default_factory=list)
    values: dict[int, float] = field(default_factory=dict)
    outcome: SearchOutcome | None = None
    #: Whether the evaluator holds component matrices charged against
    #: :data:`COMPONENT_BUDGET_BYTES` (released when the search ends).
    budgeted: bool = False


#: Ceiling on the memory held in per-search component matrices at any
#: moment. Components are only profitable for searches that evaluate
#: many subspaces, and those are exactly the searches that survive the
#: first rounds — typically a small fraction of the batch — so this
#: budget is rarely binding; when it is, the engine simply recomputes
#: distances the sequential way.
COMPONENT_BUDGET_BYTES = 256 * 2**20


class BatchQueryEngine:
    """Drive many subspace searches against one fitted miner.

    Parameters
    ----------
    miner:
        A fitted :class:`~repro.core.miner.HOSMiner`.
    workers:
        Worker processes; ``None`` (default) reads the miner's
        ``config.workers``. 1 runs in-process; above 1 every work unit
        is scattered over the miner's persistent shared-memory row-shard
        pool.
    """

    def __init__(self, miner: "HOSMiner", workers: "int | None" = None) -> None:
        if workers is None:
            workers = miner.config.workers
        if workers < 1:
            raise ConfigurationError(f"workers must be >= 1, got {workers}")
        self.miner = miner
        self.workers = workers

    # ------------------------------------------------------------------
    def run(self, targets) -> BatchResult:
        """Answer every target; see :meth:`HOSMiner.query_batch`."""
        start = time.perf_counter()
        queries, excludes = self._normalize_targets(targets)
        pool: "ShardPool | None" = None
        trips_before = bytes_before = 0
        respawns_before = retries_before = timeouts_before = degraded_before = 0
        workers = 1
        if self.workers > 1 and queries.shape[0] > 0:
            # Single-query batches ride the warm pool too — the whole
            # point of a persistent engine is that small batches no
            # longer pay a spin-up, so there is nothing to dodge.
            pool = self.miner._ensure_shard_pool(self.workers)
            trips_before = pool.round_trips
            bytes_before = pool.bytes_shipped
            respawns_before = pool.respawns
            retries_before = pool.retries
            timeouts_before = pool.timeouts
            degraded_before = pool.degraded_rounds
            workers = pool.workers
        results, knn_evaluations, shared_hits = self._run_inprocess(
            queries, excludes, pool=pool
        )
        stats = self._aggregate_stats(results)
        if pool is not None:
            stats.shard_round_trips = pool.round_trips - trips_before
            stats.bytes_shipped = pool.bytes_shipped - bytes_before
            stats.worker_respawns = pool.respawns - respawns_before
            stats.retries = pool.retries - retries_before
            stats.timeouts = pool.timeouts - timeouts_before
            stats.degraded_rounds = pool.degraded_rounds - degraded_before
        wall_time = time.perf_counter() - start
        stats.wall_time_s = wall_time
        return BatchResult(
            results=results,
            stats=stats,
            knn_evaluations=knn_evaluations,
            shared_cache_hits=shared_hits,
            wall_time_s=wall_time,
            workers=workers,
        )

    # ------------------------------------------------------------------
    def _normalize_targets(self, targets) -> tuple[np.ndarray, "list[int | None]"]:
        """Resolve a heterogeneous target spec into ``(queries, excludes)``.

        Accepted forms: a 2-D ``(m, d)`` matrix of external points, a
        1-D integer array / sequence of dataset row ids, a single 1-D
        float vector (one external point), or a mixed sequence of row
        ids and vectors. Validation happens here, once, up front —
        malformed targets raise
        :class:`~repro.core.exceptions.DataShapeError` (shapes) or
        :class:`~repro.core.exceptions.ConfigurationError` (row range)
        before any search starts.
        """
        miner = self.miner
        X = miner.backend_.data
        d = miner.d_

        if isinstance(targets, np.ndarray):
            if targets.ndim == 1 and np.issubdtype(targets.dtype, np.integer):
                targets = [int(row) for row in targets]
            elif targets.ndim == 1:
                targets = [targets]
            else:
                matrix = validate_query_matrix(targets, d)
                return matrix, [None] * matrix.shape[0]

        rows: list[np.ndarray] = []
        excludes: list[int | None] = []
        for target in targets:
            if isinstance(target, (int, np.integer)):
                row = int(target)
                if not 0 <= row < X.shape[0]:
                    raise ConfigurationError(
                        f"row {row} out of range for n={X.shape[0]}"
                    )
                rows.append(X[row])
                excludes.append(row)
            else:
                rows.append(ODEvaluator._validate_query(target, d))
                excludes.append(None)
        if not rows:
            return np.empty((0, d), dtype=np.float64), []
        return np.ascontiguousarray(np.vstack(rows)), excludes

    # ------------------------------------------------------------------
    def _run_inprocess(
        self,
        queries: np.ndarray,
        excludes: "list[int | None]",
        pool: "ShardPool | None" = None,
    ) -> tuple[list[OutlyingSubspaceResult], int, int]:
        miner = self.miner
        backend = miner.backend_
        k = miner.config.k
        kernel = miner.kernel_
        threshold = miner.threshold_
        precision = miner.precision_

        states: list[_SearchState] = []
        for query, exclude in zip(queries, excludes):
            evaluator = ODEvaluator(
                backend,
                query,
                k,
                exclude=exclude,
                shared_cache=miner.od_cache_,
                kernel=kernel,
                precision=precision,
            )
            states.append(
                _SearchState(
                    gen=miner._make_search(evaluator).run_stepped(),
                    evaluator=evaluator,
                )
            )

        active: list[int] = []
        for i, state in enumerate(states):
            # d >= 1 guarantees the first step always requests something.
            state.pending = next(state.gen)
            active.append(i)

        supports_prefix = hasattr(backend, "knn_distance_prefix")
        # Mask-major group scheduling: always under the shard pool (the
        # scatter unit IS the group), else when the GEMM kernel can
        # stack the group into one multi-query product.
        use_groups = pool is not None or (
            kernel == "gemm" and hasattr(backend, "knn_distance_prefix_batch")
        )
        component_bytes = 0
        # Float64 components cost 8 bytes/element; the float32 tier
        # keeps a transposed float32 copy alongside (4 more).
        use_f32 = kernel == "gemm" and precision == "float32"
        per_state_bytes = queries.shape[1] * backend.size * (12 if use_f32 else 8)

        def allocate_components(state: _SearchState) -> None:
            """Budget-gated component allocation on the state's evaluator."""
            nonlocal component_bytes
            if state.budgeted or component_bytes + per_state_bytes > COMPONENT_BUDGET_BYTES:
                return
            if state.evaluator.ensure_components() is not None:
                state.budgeted = True
                component_bytes += per_state_bytes

        def serve_pool(members: "list[int]", masks: "list[int]") -> None:
            """Answer a mask-major group by scattering it over the
            persistent shard pool.

            Workers return per-shard sorted k-nearest distance prefixes
            under the fitted kernel/precision; the coordinator's exact
            k-way merge makes them bit-identical to the in-process
            kernels', so :func:`record_level` triggers the same exact
            re-verifications — served by a second scatter under
            ``kernel="exact"``. The coordinator backend's logical
            counters are bumped exactly as the in-process kernels would
            have charged them, so cost accounting is mode-independent.
            """
            dims = [mask_dims(mask) for mask in masks]
            prefixes = pool.scatter_prefixes(
                queries[members],
                dims,
                k,
                [excludes[i] for i in members],
                kernel,
                precision,
            )
            q_count, m_count = len(members), len(masks)
            stats = getattr(backend, "stats", None)
            if stats is not None:
                stats.knn_queries += q_count * m_count
                if kernel == "gemm":
                    stats.bump(
                        "gemm_flops",
                        2 * backend.size * backend.d * m_count * q_count,
                    )
                    stats.bump("gemm_masks", m_count * q_count)
            for row, i in enumerate(members):

                def exact(columns: "list[int]", i: int = i) -> np.ndarray:
                    if stats is not None:
                        stats.knn_queries += len(columns)
                    return pool.scatter_prefixes(
                        queries[[i]],
                        [dims[col] for col in columns],
                        k,
                        [excludes[i]],
                        "exact",
                        "float64",
                    )[0]

                states[i].values.update(
                    record_level(
                        states[i].evaluator, masks, prefixes[row], threshold, exact
                    )
                )

        def serve_one(state: _SearchState, i: int, masks: "list[int]") -> None:
            """Answer one state's masks through its evaluator (or the
            pool), with the engine's budget deciding on components."""
            if pool is not None:
                serve_pool([i], masks)
                return
            # Under the GEMM kernel the component matrix is consumed
            # every round (even single-mask rounds), so allocate it
            # regardless of the batch width.
            if len(masks) > 1 or kernel == "gemm":
                allocate_components(state)
            state.values.update(state.evaluator.evaluate(masks, threshold))

        def serve_stacked(members: "list[int]", masks: "list[int]") -> None:
            """Answer a mask-major group with one stacked multi-query
            GEMM; each member's prefixes settle through its evaluator's
            exact kernel."""
            for i in members:
                allocate_components(states[i])
            evaluators = [states[i].evaluator for i in members]
            dims = [mask_dims(mask) for mask in masks]
            grid = backend.knn_distance_prefix_batch(
                queries[members],
                k,
                dims,
                excludes=[excludes[i] for i in members],
                components_list=[ev.components for ev in evaluators],
                kernel="gemm",
                precision=precision,
                components32_list=[ev.components32 for ev in evaluators],
            )
            for row, (i, ev) in enumerate(zip(members, evaluators)):
                states[i].values.update(
                    record_level(
                        ev,
                        masks,
                        grid[row],
                        threshold,
                        lambda columns, ev=ev: ev.exact_prefixes(
                            [dims[col] for col in columns]
                        ),
                    )
                )

        def replay_duplicates(
            duplicates: "list[int]", needs_by_state: "dict[int, list[int]]"
        ) -> None:
            """Serve coalesced duplicate states from the shared cache."""
            for i in duplicates:
                state = states[i]
                leftovers = []
                for mask in needs_by_state[i]:
                    value = state.evaluator.cached_od(mask)
                    if value is None:
                        leftovers.append(mask)
                    else:
                        state.values[mask] = value
                if leftovers:
                    # Defensive: a duplicate whose trajectory diverged
                    # (should not happen) computes its own.
                    serve_one(state, i, leftovers)

        while active:
            # Split each search's requests into cache replays and misses.
            # Misses are indexed both ways: by mask (cross-query axis)
            # and by search (cross-subspace axis).
            need_map: dict[int, list[int]] = {}
            needs_by_state: dict[int, list[int]] = {}
            for i in active:
                state = states[i]
                state.values = {}
                for mask in state.pending:
                    value = state.evaluator.cached_od(mask)
                    if value is None:
                        need_map.setdefault(mask, []).append(i)
                        needs_by_state.setdefault(i, []).append(mask)
                    else:
                        state.values[mask] = value

            # Pick the vectorisation axis. Under the GEMM kernel the
            # scheduling is mask-major: searches requesting the same
            # subspace list this round (concurrent searches walk the
            # lattice in lock-step, so most rounds are one big group)
            # fuse into a single stacked multi-query GEMM. Under the
            # exact kernel, keep the original heuristic: group masks per
            # query when masks outnumber distinct masks (late rounds),
            # else one multi-query knn_batch per mask (early rounds).
            by_state = supports_prefix and 0 < len(needs_by_state) < len(need_map)

            if use_groups and needs_by_state:
                # Coalesce identical query points first: the first state
                # with a given point key computes, the rest replay
                # through the shared cache.
                seen_round_keys: set[tuple[str, object]] = set()
                duplicates: list[int] = []
                groups: dict[tuple[int, ...], list[int]] = {}
                for i, masks in needs_by_state.items():
                    state = states[i]
                    key = SharedODCache.point_key(state.evaluator.query, excludes[i])
                    if key in seen_round_keys:
                        duplicates.append(i)
                        continue
                    seen_round_keys.add(key)
                    groups.setdefault(tuple(masks), []).append(i)
                for signature, members in groups.items():
                    masks = list(signature)
                    if pool is not None:
                        serve_pool(members, masks)
                    elif len(members) == 1:
                        serve_one(states[members[0]], members[0], masks)
                    else:
                        serve_stacked(members, masks)
                replay_duplicates(duplicates, needs_by_state)
            elif by_state:
                # Identical query points run in lockstep, so coalesce
                # them here too: the first state with a given point key
                # computes, the rest replay through the shared cache.
                seen_round_keys = set()
                duplicates = []
                for i, masks in needs_by_state.items():
                    state = states[i]
                    key = SharedODCache.point_key(state.evaluator.query, excludes[i])
                    if key in seen_round_keys:
                        duplicates.append(i)
                        continue
                    seen_round_keys.add(key)
                    serve_one(state, i, masks)
                replay_duplicates(duplicates, needs_by_state)
            else:
                for mask, needers in need_map.items():
                    # Coalesce identical query points: one representative
                    # evaluation per distinct point, replayed to
                    # duplicates through the shared cache.
                    representatives: list[int] = []
                    seen_keys: set[tuple[str, object]] = set()
                    for i in needers:
                        key = SharedODCache.point_key(
                            states[i].evaluator.query, excludes[i]
                        )
                        if key not in seen_keys:
                            seen_keys.add(key)
                            representatives.append(i)
                    answers = backend.knn_batch(
                        queries[representatives],
                        k,
                        mask_dims(mask),
                        excludes=[excludes[i] for i in representatives],
                    )
                    for i, (_, distances) in zip(representatives, answers):
                        value = float(distances.sum())
                        # knn_batch is exact; its kth distance is a safe
                        # bound as-is (short prefixes carry no bound).
                        kth = float(distances[-1]) if distances.size == k else None
                        states[i].evaluator.prime(mask, value, kth=kth)
                        states[i].values[mask] = value
                    for i in needers:
                        if mask not in states[i].values:
                            states[i].values[mask] = states[i].evaluator.cached_od(mask)

            still_active: list[int] = []
            for i in active:
                state = states[i]
                try:
                    state.pending = state.gen.send(state.values)
                    still_active.append(i)
                except StopIteration as stop:
                    state.outcome = stop.value
                    state.evaluator.release_components()
                    if state.budgeted:
                        component_bytes -= per_state_bytes
                        state.budgeted = False
            active = still_active

        results = [
            miner._build_result(state.outcome, state.evaluator) for state in states
        ]
        knn_evaluations = sum(state.evaluator.evaluations for state in states)
        shared_hits = sum(state.evaluator.shared_hits for state in states)
        return results, knn_evaluations, shared_hits

    # ------------------------------------------------------------------
    @staticmethod
    def _aggregate_stats(results: Sequence[OutlyingSubspaceResult]) -> SearchStats:
        """Sum the numeric cost fields over all per-point searches."""
        total = SearchStats()
        for result in results:
            total.od_evaluations += result.stats.od_evaluations
            total.upward_pruned += result.stats.upward_pruned
            total.downward_pruned += result.stats.downward_pruned
            total.reverified += result.stats.reverified
            for level, count in result.stats.evaluations_by_level.items():
                total.evaluations_by_level[level] = (
                    total.evaluations_by_level.get(level, 0) + count
                )
        return total
