"""The Outlying Degree (OD) measure — Section 2 of the paper.

``OD(p, s)`` is the sum of the distances from ``p`` to its ``k`` nearest
neighbours inside subspace ``s``:

    OD(p, s) = Σ_{i=1..k} Dist_s(p, p_i),   p_i ∈ KNNSet(p, s)

The measure is deliberately distribution-free (feature (1) of the
paper) and monotone under subspace inclusion, which Section 3.1 turns
into the two pruning rules. The monotonicity argument, for any metric
with ``Dist_s1 >= Dist_s2`` when ``s1 ⊇ s2``:

    OD_s1(p) = Σ Dist_s1(p, kNN_s1)      (definition)
             ≥ Σ Dist_s2(p, kNN_s1)      (per-pair monotonicity)
             ≥ Σ Dist_s2(p, kNN_s2)      (kNN_s2 minimises the s2 sum)
             = OD_s2(p)

:class:`ODEvaluator` wraps a kNN backend with a per-``(query, subspace)``
cache, because the dynamic search and the learning pass revisit
subspaces for the same point (e.g. when ablation baselines replay a
search) and because evaluation counting must distinguish cached hits
from real work.

:class:`SharedODCache` extends that idea across queries: one per-fit
cache keyed by ``(point key, subspace mask)`` that every evaluator of
the same fitted miner can consult, so overlapping searches — the
fit-time learning pass, repeated queries of the same row, duplicate
points inside one batch — reuse OD values instead of redoing kNN work.
A cached OD is the exact value the backend would return (not an
approximation), so sharing never changes answers, only cost.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

from repro.core.exceptions import ConfigurationError, DataQualityError, DataShapeError
from repro.core.metrics import resolve_kernel
from repro.core.precision import resolve_precision, reverify_rtol
from repro.core.subspace import Subspace, dims_of_mask
from repro.index.base import KnnBackend, components32_from

__all__ = [
    "GEMM_REVERIFY_RTOL",
    "ODEvaluator",
    "SharedODCache",
    "kth_bound",
    "mask_dims",
    "near_threshold",
    "outlying_degree",
    "record_level",
]

#: Relative half-width of the band around the threshold inside which a
#: GEMM-computed OD is re-verified with the exact kernel. BLAS-vs-exact
#: accumulation differences are ~1e-13 relative at realistic d, so 1e-9
#: leaves four orders of magnitude of margin while re-verifying almost
#: nothing: outside the band the two kernels provably agree on the
#: ``OD >= T`` decision, inside it the exact kernel decides.
GEMM_REVERIFY_RTOL = 1e-9


def near_threshold(
    value: float, threshold: float, rtol: float = GEMM_REVERIFY_RTOL
) -> bool:
    """Whether a GEMM OD value is too close to ``T`` to decide alone.

    *rtol* widens with the kernel precision — the float32 tier passes
    its rigorous rounding band from
    :func:`repro.core.precision.reverify_rtol`. Non-finite values (a
    float32 or float64 accumulation that overflowed, or a NaN from
    pathological data) are always in-band: no bound certifies them, so
    the exact kernel decides.
    """
    if not np.isfinite(value):
        return True
    return abs(value - threshold) <= rtol * (abs(value) + abs(threshold) + 1.0)


def kth_bound(kth: float, rtol: float) -> float:
    """Safe upper bound on the true kth-neighbour distance.

    *kth* is the kth-smallest distance as computed by some kernel whose
    relative error band is *rtol* (0 for the exact float64 kernel, the
    rigorous rounding band for GEMM/float32 tiers). Inflating by the
    band makes the bound conservative in the only direction that
    matters for delta invalidation: a too-large bound can only cause
    extra eviction, never a wrong retention. Non-finite values get an
    infinite bound, i.e. the entry is always evicted.
    """
    if not np.isfinite(kth):
        return float("inf")
    return kth + rtol * (abs(kth) + 1.0)


@lru_cache(maxsize=1 << 16)
def mask_dims(mask: int) -> np.ndarray:
    """Read-only ``intp`` dimension array of *mask*, memoised: every
    search of a fit walks the same lattice, so the conversion is paid
    once per mask rather than once per search and level."""
    dims = np.asarray(dims_of_mask(mask), dtype=np.intp)
    dims.flags.writeable = False
    return dims


def record_level(
    evaluator: "ODEvaluator",
    masks: Sequence[int],
    prefixes: np.ndarray,
    threshold: float | None,
    exact_prefixes: Callable[[list[int]], np.ndarray],
) -> dict[int, float]:
    """Settle one query's level from its sorted k-nearest prefixes.

    The single point where kernel output becomes OD values, shared by
    the sequential search (:meth:`ODEvaluator.evaluate`), the batch
    engine's stacked GEMM and the shard pool. *prefixes* is the
    ``(len(masks), k)`` block of ascending neighbour distances computed
    under the evaluator's kernel; an OD is its row sum.

    Under the GEMM kernel with a *threshold*, every column whose sum is
    inside the :func:`near_threshold` band is recomputed by
    ``exact_prefixes(columns)``, which the caller supplies (the
    backend's exact prefix kernel in-process, an exact scatter round on
    the shard pool) and which returns the exact ``(len(columns), k)``
    rows. The caller's ``OD >= T`` decisions therefore match the exact
    kernel's.

    Each value is recorded on the evaluator (one evaluation each) with
    its kth-distance bound for delta cache invalidation: a GEMM kth is
    inflated by the band (:func:`kth_bound`), an exact kth — from the
    exact kernel or a re-verification — is stored as is.
    """
    sums = prefixes.sum(axis=1)
    gemm = evaluator.kernel == "gemm"
    band = evaluator.reverify_rtol if gemm else 0.0
    bounds = [kth_bound(float(kth), band) for kth in prefixes[:, -1]]
    if gemm and threshold is not None:
        near = [
            col
            for col in range(len(masks))
            if near_threshold(float(sums[col]), threshold, evaluator.reverify_rtol)
        ]
        if near:
            exact = exact_prefixes(near)
            sums[near] = exact.sum(axis=1)
            for row, col in enumerate(near):
                bounds[col] = float(exact[row, -1])
            evaluator.reverifications += len(near)
            stats = getattr(evaluator.backend, "stats", None)
            if stats is not None:
                stats.bump("reverified_masks", len(near))
    values: dict[int, float] = {}
    for col, mask in enumerate(masks):
        value = float(sums[col])
        evaluator.prime(mask, value, kth=bounds[col])
        values[mask] = value
    return values


def outlying_degree(
    backend: KnnBackend,
    query: np.ndarray,
    k: int,
    dims: Sequence[int],
    exclude: int | None = None,
) -> float:
    """One-shot OD computation against a backend (no caching)."""
    _, distances = backend.knn(query, k, dims, exclude=exclude)
    return float(distances.sum())


class SharedODCache:
    """Per-fit OD cache shared by every evaluator of one fitted miner.

    Keys are ``(point key, mask)`` pairs where the point key identifies
    a query point *together with its exclusion semantics*: dataset
    members queried with self-exclusion key by row id, external points
    by their coordinate bytes. Two queries with the same key are
    guaranteed to produce the same OD in every subspace of the current
    fit, so a stored value can be replayed verbatim.

    The cache is owned by the miner and must be kept consistent whenever
    the indexed dataset changes: ``extend``/refit drop everything via
    :meth:`invalidate`, while the streaming path uses the delta
    invalidation of :meth:`delta_insert` / :meth:`delta_expire` — an
    entry survives a window update only when its cached kth-distance
    bound *proves* the update cannot have changed its kNN k-prefix, so a
    retained value is still exactly what a fresh fit on the new window
    would compute (see docs/streaming.md for the argument).
    """

    __slots__ = ("_values", "_kth", "hits", "stores", "delta_evicted", "delta_retained")

    def __init__(self) -> None:
        self._values: dict[tuple[object, int], float] = {}
        #: Per-entry safe upper bound on the true kth-neighbour distance
        #: (:func:`kth_bound`); entries without one are conservatively
        #: evicted by every delta pass.
        self._kth: dict[tuple[object, int], float] = {}
        #: Number of lookups served from the cache.
        self.hits = 0
        #: Number of values recorded.
        self.stores = 0
        #: Entries evicted by delta invalidation (lifetime total).
        self.delta_evicted = 0
        #: Entries proven unaffected and kept across window updates.
        self.delta_retained = 0

    @staticmethod
    def point_key(query: np.ndarray, exclude: int | None) -> tuple[str, object]:
        """Canonical key of one ``(query, exclude)`` pair."""
        if exclude is not None:
            return ("row", exclude)
        return ("ext", query.tobytes())

    def get(self, point_key: tuple[str, object], mask: int) -> float | None:
        value = self._values.get((point_key, mask))
        if value is not None:
            self.hits += 1
        return value

    def put(
        self,
        point_key: tuple[str, object],
        mask: int,
        value: float,
        kth: float | None = None,
    ) -> None:
        """Record a value, optionally with its safe kth-distance bound.

        *kth* must come from :func:`kth_bound` (or be exact). A ``None``
        keeps any previously recorded bound (overwrites always store the
        same exact value, so an existing bound stays valid); when there
        is none, the OD value itself steps in: the sum of the k smallest
        distances is always ``>=`` the kth of them, so ``value`` is a
        safe — merely loose, by up to a factor of k — upper bound. That
        keeps entries recorded without a kth distance delta-retainable
        instead of unconditionally evicted.
        """
        if (point_key, mask) not in self._values:
            self.stores += 1
        self._values[(point_key, mask)] = value
        if kth is not None:
            self._kth[(point_key, mask)] = kth
        elif (point_key, mask) not in self._kth:
            self._kth[(point_key, mask)] = value

    def kth_of(self, point_key: tuple[str, object], mask: int) -> float | None:
        """The recorded kth-distance bound for an entry, if any."""
        return self._kth.get((point_key, mask))

    def invalidate(self) -> None:
        """Drop every cached value (dataset changed)."""
        self._values.clear()
        self._kth.clear()

    # -- delta invalidation ------------------------------------------------
    def _entry_query(self, point_key: tuple[str, object], data: np.ndarray, shift: int):
        """Current coordinates of a cached entry's query point.

        Row keys index the *current* window ``data`` after shifting down
        by *shift* (0 on insert, the expired count on expiry); external
        keys decode their coordinate bytes. ``None`` means the point
        cannot be resolved and the entry must be evicted.
        """
        kind, ident = point_key
        if kind == "row":
            row = ident - shift
            if not 0 <= row < data.shape[0]:
                return None
            return data[row]
        point = np.frombuffer(ident, dtype=np.float64)
        if point.shape[0] != data.shape[1]:
            return None
        return point

    def delta_insert(self, rows: np.ndarray, data: np.ndarray, metric) -> tuple[int, int]:
        """Evict only entries an inserted batch could have changed.

        An entry's OD is the sum of the k smallest subspace distances.
        Inserting rows can only change that sum if some new row lands
        strictly inside the cached kth-distance bound in the entry's
        subspace — a new distance ``>=`` the true kth leaves the
        k-smallest multiset (hence the sum, bit for bit) unchanged. The
        stored bound over-approximates the true kth, so comparing the
        inserted rows' subspace distances against it errs only toward
        eviction. Entries without a bound are evicted.

        *data* is the post-insert window matrix (row keys are unshifted
        by inserts). Returns ``(evicted, retained)``.
        """
        return self._delta_scan(rows, data, metric, shift=0, keep_ties=True)

    def delta_expire(
        self, expired_rows: np.ndarray, count: int, data: np.ndarray, metric
    ) -> tuple[int, int]:
        """Evict entries an expiry could have changed; re-key the rest.

        Entries *for* an expired query row are dropped. For every other
        entry, removing a row changes the k-smallest multiset only if
        that row's subspace distance was ``<=`` the true kth distance
        (it could have been one of the k neighbours, or tied with one);
        distances strictly above the cached bound prove it was not.
        Surviving row keys shift down by *count* to the new window
        coordinates — same point, same subspace, so the value and bound
        carry over verbatim.

        *data* is the post-expiry window matrix. Returns
        ``(evicted, retained)``.
        """
        return self._delta_scan(
            expired_rows, data, metric, shift=count, keep_ties=False
        )

    def _delta_scan(
        self,
        batch: np.ndarray,
        data: np.ndarray,
        metric,
        shift: int,
        keep_ties: bool,
    ) -> tuple[int, int]:
        """Shared delta pass: evict entries the batch's rows can reach.

        Entries are grouped by subspace mask so each group's survival
        test is one broadcasted ``pairwise_many`` call over all its
        query points and the whole batch at once (``len(batch)``
        ``pairwise`` calls for metrics without the batched view), not
        one call per entry — the scan has to be cheaper than the refit
        it replaces. ``keep_ties`` selects the
        insert rule (a new distance *equal* to the bound keeps the
        k-smallest multiset) versus the expire rule (a removed row tied
        with the kth could have been a neighbour, so ties evict).
        """
        if not self._values:
            return (0, 0)
        by_mask: dict[int, tuple[list, list, list]] = {}
        evicted = 0
        for (point_key, mask), value in self._values.items():
            kind, ident = point_key
            if shift and kind == "row" and ident < shift:
                evicted += 1
                continue
            kth = self._kth.get((point_key, mask))
            query = self._entry_query(point_key, data, shift) if kth is not None else None
            if query is None:
                evicted += 1
                continue
            keys, queries, bounds = by_mask.setdefault(mask, ([], [], []))
            keys.append((point_key, value))
            queries.append(query)
            bounds.append(kth)
        survivors: dict[tuple[object, int], float] = {}
        kths: dict[tuple[object, int], float] = {}
        batch_arr = np.asarray(batch, dtype=np.float64)
        many = getattr(metric, "pairwise_many", None)
        for mask, (keys, queries, bounds) in by_mask.items():
            dims = np.asarray(dims_of_mask(mask), dtype=np.intp)
            points = np.asarray(queries)
            if many is not None:
                mins = many(batch_arr, points, dims).min(axis=1)
            else:
                mins = np.full(len(keys), np.inf)
                for row in batch_arr:
                    np.minimum(mins, metric.pairwise(points, row, dims), out=mins)
            bounds_arr = np.asarray(bounds)
            kept = mins >= bounds_arr if keep_ties else mins > bounds_arr
            for j, (point_key, value) in enumerate(keys):
                if not kept[j]:
                    evicted += 1
                    continue
                kind, ident = point_key
                if shift and kind == "row":
                    point_key = ("row", ident - shift)
                survivors[(point_key, mask)] = value
                kths[(point_key, mask)] = bounds[j]
        self._values = survivors
        self._kth = kths
        self.delta_evicted += evicted
        self.delta_retained += len(survivors)
        return (evicted, len(survivors))

    def __len__(self) -> int:
        return len(self._values)

    def __repr__(self) -> str:
        return f"SharedODCache(entries={len(self)}, hits={self.hits})"


class ODEvaluator:
    """Cached outlying-degree oracle for one query point.

    Parameters
    ----------
    backend:
        Any :class:`~repro.index.base.KnnBackend` over the dataset.
    query:
        The point whose outlying subspaces are being searched.
    k:
        Neighbour count of the OD definition.
    exclude:
        Row index of ``query`` inside the backend's dataset, or ``None``
        when the query is external. Self-matches are excluded by row
        identity so duplicate points stay legal neighbours.
    shared_cache:
        Optional per-fit :class:`SharedODCache`; when given, OD values
        are looked up there after the local cache misses and every
        computed value is published for other evaluators to reuse.
    kernel:
        OD-kernel selector for :meth:`od_many` — ``"exact"`` (default),
        ``"gemm"`` or ``"auto"``; resolved once against the backend's
        metric (an explicit ``"gemm"`` with an incapable metric fails
        here, loudly). Single-mask :meth:`od` always runs exact.
    precision:
        GEMM precision tier, resolved once against the resolved kernel
        (:func:`~repro.core.precision.resolve_precision`; ``"auto"``
        default picks float32 under the GEMM kernel, float64 anywhere
        else). The tier moves only *where* time goes: the exact
        re-verification band (:attr:`reverify_rtol`) widens to the
        rigorous float32 rounding bound, so threshold decisions always
        match the float64 kernel.

    Notes
    -----
    ``evaluations`` counts *real* kNN searches; ``cache_hits`` counts
    repeats served from the evaluator's own memory and ``shared_hits``
    those served from the shared per-fit cache. The search-cost tables
    of experiments E1–E5 and E10 report ``evaluations``.
    ``reverifications`` counts near-threshold exact re-computations —
    the honesty counter of the precision tier.
    """

    def __init__(
        self,
        backend: KnnBackend,
        query: np.ndarray,
        k: int,
        exclude: int | None = None,
        shared_cache: SharedODCache | None = None,
        kernel: str = "exact",
        precision: str = "auto",
    ) -> None:
        query = self._validate_query(query, backend.d)
        available = backend.size - (1 if exclude is not None else 0)
        if k < 1 or k > available:
            raise ConfigurationError(
                f"k must be in [1, {available}] for this dataset, got {k}"
            )
        self.backend = backend
        self.query = query
        self.k = k
        self.exclude = exclude
        metric = getattr(backend, "metric", None)
        self.kernel = "exact" if metric is None else resolve_kernel(kernel, metric)
        self.precision = resolve_precision(precision, self.kernel)
        #: Half-width of the near-threshold exact re-verification band.
        self.reverify_rtol = reverify_rtol(self.precision, backend.d)
        self.evaluations = 0
        self.cache_hits = 0
        self.shared_hits = 0
        self.reverifications = 0
        self._cache: dict[int, float] = {}
        self._shared = shared_cache
        self._point_key = (
            SharedODCache.point_key(query, exclude) if shared_cache is not None else None
        )
        #: Per-query ``(n, d)`` distance components and the float32
        #: tier's transposed copy (:meth:`ensure_components`).
        self.components: np.ndarray | None = None
        self.components32: np.ndarray | None = None
        self._components_probed = False

    @staticmethod
    def _validate_query(query: np.ndarray, d: int) -> np.ndarray:
        """Coerce and shape-check the query vector once, up front.

        Every later ``od`` call trusts the stored vector, so a malformed
        query fails here with the expected/actual shapes spelled out
        instead of surfacing as an opaque error deep inside a backend.
        """
        try:
            query = np.ascontiguousarray(query, dtype=np.float64)
        except (TypeError, ValueError) as exc:
            raise DataShapeError(
                f"query could not be converted to a float vector: {exc}"
            ) from exc
        if query.ndim != 1 or query.shape[0] != d:
            raise DataShapeError(
                f"expected a query of shape ({d},), got shape {query.shape}"
            )
        if not np.isfinite(query).all():
            raise DataQualityError("query contains non-finite values (NaN or inf)")
        return query

    def od(self, mask: int) -> float:
        """OD of the query point in the subspace encoded by *mask*."""
        cached = self.cached_od(mask)
        if cached is not None:
            return cached
        return self._od_exact(mask)

    def _od_exact(self, mask: int) -> float:
        """One exact kNN for a mask known to miss the caches."""
        _, distances = self.backend.knn(
            self.query, self.k, dims_of_mask(mask), exclude=self.exclude
        )
        value = float(distances.sum())
        # Exact kernel: the kth distance itself is a safe bound.
        self._store(mask, value, kth=float(distances[-1]))
        self.evaluations += 1
        return value

    def od_many(self, masks: Sequence[int], threshold: float | None = None) -> dict[int, float]:
        """OD of the query point in every subspace of *masks* at once.

        The level-wide evaluation point of the sequential search: cache
        replays are split off mask by mask and the rest go to
        :meth:`evaluate` in one backend call. With a *threshold*,
        near-threshold GEMM values are re-verified exactly (see
        :func:`record_level`), so the caller's ``OD >= threshold``
        decisions match the exact kernel's.
        """
        values: dict[int, float] = {}
        new_masks: list[int] = []
        for mask in masks:
            cached = self.cached_od(mask)
            if cached is not None:
                values[mask] = cached
            else:
                new_masks.append(mask)
        if new_masks:
            # The component matrix pays off once a level has several
            # masks, and the GEMM kernel consumes it every round.
            if len(new_masks) > 1 or self.kernel == "gemm":
                self.ensure_components()
            values.update(self.evaluate(new_masks, threshold))
        return values

    def evaluate(
        self, masks: Sequence[int], threshold: float | None = None
    ) -> dict[int, float]:
        """Compute and record the OD of *masks*, which missed the caches.

        One backend ``knn_distance_prefix`` call under this evaluator's
        kernel serves the whole list — for ``kernel="gemm"`` the
        single-GEMM level kernel over the per-query component matrix,
        when :meth:`ensure_components` has built one — and
        :func:`record_level` settles the values. Backends without the
        level kernel (the trees) run one exact kNN per mask.
        """
        prefix_fn = getattr(self.backend, "knn_distance_prefix", None)
        if prefix_fn is None:
            # Tree backends: no level kernel, one branch-and-bound kNN
            # per subspace (their per-query descent is inherently serial).
            return {mask: self._od_exact(mask) for mask in masks}
        dims_list = [mask_dims(mask) for mask in masks]
        prefixes = prefix_fn(
            self.query,
            self.k,
            dims_list,
            exclude=self.exclude,
            components=self.components,
            kernel=self.kernel,
            precision=self.precision,
            components32=self.components32,
        )
        return record_level(
            self,
            masks,
            prefixes,
            threshold,
            lambda columns: self.exact_prefixes([dims_list[c] for c in columns]),
        )

    def exact_prefixes(self, dims_list: "Sequence[np.ndarray]") -> np.ndarray:
        """Exact-kernel sorted k-prefixes, ``(len(dims_list), k)`` — the
        in-process re-verification kernel of :func:`record_level`."""
        return self.backend.knn_distance_prefix(
            self.query,
            self.k,
            dims_list,
            exclude=self.exclude,
            components=self.components,
            kernel="exact",
        )

    def ensure_components(self) -> "np.ndarray | None":
        """Build the per-query distance-component matrix once.

        Kept until :meth:`release_components` — a search revisits the
        backend once per lattice level, and one ``(n, d)`` matrix serves
        them all. The float32 tier also keeps its pre-transposed float32
        copy (``None`` on overflow, which makes the backend fall back to
        float64). Returns ``None`` when the backend or metric has no
        component decomposition.
        """
        if not self._components_probed:
            self._components_probed = True
            components_fn = getattr(self.backend, "distance_components", None)
            if components_fn is not None:
                self.components = components_fn(self.query)
                if self.precision == "float32":
                    self.components32 = components32_from(self.components)
        return self.components

    def release_components(self) -> None:
        """Drop the component matrices (the search is finished)."""
        self.components = None
        self.components32 = None

    def cached_od(self, mask: int) -> float | None:
        """Cached OD for *mask* (local, then shared), or ``None``.

        Counts the hit on the matching counter; performs no kNN work.
        The batched engine uses this to split a search's requested masks
        into cache replays and genuinely new evaluations.
        """
        cached = self._cache.get(mask)
        if cached is not None:
            self.cache_hits += 1
            return cached
        if self._shared is not None:
            shared = self._shared.get(self._point_key, mask)
            if shared is not None:
                self.shared_hits += 1
                self._cache[mask] = shared
                return shared
        return None

    def prime(self, mask: int, value: float, kth: float | None = None) -> None:
        """Record an OD value computed externally on this point's behalf
        (the batched kNN path); counts as one real evaluation. *kth*, if
        given, must already be a safe bound (:func:`kth_bound`)."""
        self._store(mask, value, kth=kth)
        self.evaluations += 1

    def _store(self, mask: int, value: float, kth: float | None = None) -> None:
        self._cache[mask] = value
        if self._shared is not None:
            self._shared.put(self._point_key, mask, value, kth=kth)

    def od_subspace(self, subspace: Subspace) -> float:
        """OD in a :class:`~repro.core.subspace.Subspace` (wrapper API)."""
        if subspace.d != self.backend.d:
            raise DataShapeError(
                f"subspace lives in d={subspace.d} but the data has d={self.backend.d}"
            )
        return self.od(subspace.mask)

    def knn_set(self, mask: int) -> tuple[np.ndarray, np.ndarray]:
        """The KNNSet itself — ``(row indices, distances)`` in subspace
        *mask*; useful for explanation output and examples."""
        dims = dims_of_mask(mask)
        return self.backend.knn(self.query, self.k, dims, exclude=self.exclude)

    def reset_counters(self) -> None:
        """Zero the evaluation counters (the cache is kept)."""
        self.evaluations = 0
        self.cache_hits = 0
        self.shared_hits = 0
        self.reverifications = 0
