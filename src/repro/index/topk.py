"""Row-wise top-k selection kernels for the level-wide OD GEMM.

After the ``M @ C.T`` product, every row of the ``(m, n)`` component-sum
block must be reduced to its ``k`` smallest values in ascending order.
At realistic level widths this selection — not the BLAS product — is
where the kernel's time goes, so it has three interchangeable
implementations that all return the *same values*
(``np.sort(S, axis=1)[:, :k]``; ties are equal values, so any of them
feeds the same OD sum):

``"partition"``
    numpy introselect + sort of the k-prefix — the PR 2 reference
    reduction, and the reference the float64 GEMM kernel keeps.
``"filter"``
    A two-stage min-filter: the row is viewed as ``G`` interleaved
    chunks of ``B`` columns, one SIMD pass takes each chunk's minimum,
    and only the ``k`` chunks with the smallest minima (plus the
    ungrouped tail) are gathered and partitioned. Sound because a chunk
    whose minimum exceeds the k-th smallest chunk minimum ``tau``
    cannot hold a top-k element: the ``k`` chunks at or below ``tau``
    each already contain an element strictly smaller than anything in
    it. The first stage is bandwidth-bound, which is exactly where a
    float32 block is twice as cheap as float64 — this is the default
    selection of the float32 GEMM tier.
``"numba"``
    A compiled per-row selection (`@njit` insertion top-k), imported
    lazily. When numba is absent the selection silently falls back to
    the numpy kernels — every kernel is value-identical, so there is
    nothing to fail loudly about; :func:`resolve_topk_kernel` reports
    what actually runs.

The GEMM kernels select automatically (``"auto"``): ``"numba"`` when
importable, else the per-dtype defaults (``"filter"`` for float32
blocks, ``"partition"`` for float64 — keeping the reference kernel's
reduction byte-stable).
"""

from __future__ import annotations

import numpy as np

from repro.core.exceptions import ConfigurationError

__all__ = ["TOPK_KERNELS", "resolve_topk_kernel", "topk_prefix"]

#: Names :func:`resolve_topk_kernel` accepts.
TOPK_KERNELS = ("auto", "partition", "filter", "numba")

#: Chunk-count bounds for the min-filter first stage: enough chunks that
#: ``k`` of them stay a small candidate set, few enough that the
#: per-chunk bookkeeping (argpartition + gather) stays negligible.
_FILTER_MIN_CHUNKS = 64
_FILTER_MAX_CHUNKS = 256

# Lazily-resolved compiled kernel: None = not probed yet, False = numba
# unavailable, else the jitted function.
_NUMBA_TOPK: "object | None" = None


def _load_numba_topk():
    """Compile the numba selection on first use; ``False`` when absent."""
    global _NUMBA_TOPK
    if _NUMBA_TOPK is not None:
        return _NUMBA_TOPK
    try:
        from numba import njit
    except ImportError:
        _NUMBA_TOPK = False
        return _NUMBA_TOPK

    @njit(cache=True)
    def _topk_rows(S, out):  # pragma: no cover - compiled
        m, n = S.shape
        k = out.shape[1]
        for i in range(m):
            count = 0
            for j in range(n):
                value = S[i, j]
                if count < k:
                    # Insertion into the growing sorted prefix.
                    pos = count
                    while pos > 0 and out[i, pos - 1] > value:
                        out[i, pos] = out[i, pos - 1]
                        pos -= 1
                    out[i, pos] = value
                    count += 1
                elif value < out[i, k - 1]:
                    pos = k - 1
                    while pos > 0 and out[i, pos - 1] > value:
                        out[i, pos] = out[i, pos - 1]
                        pos -= 1
                    out[i, pos] = value
        return out

    _NUMBA_TOPK = _topk_rows
    return _NUMBA_TOPK


def numba_available() -> bool:
    """Whether the compiled selection kernel can actually run."""
    return _load_numba_topk() is not False


def resolve_topk_kernel(topk_kernel: str, dtype: "np.dtype | None" = None) -> str:
    """Resolve a kernel name to the kernel that will actually run.

    ``"auto"`` prefers the compiled kernel when numba is importable and
    otherwise picks the per-dtype numpy default; an explicit
    ``"numba"`` without numba falls back the same way (silently — the
    kernels are value-identical, see module docstring).
    """
    if topk_kernel not in TOPK_KERNELS:
        raise ConfigurationError(
            f"topk_kernel must be one of {TOPK_KERNELS}, got {topk_kernel!r}"
        )
    if topk_kernel in ("auto", "numba"):
        if numba_available():
            return "numba"
        return "filter" if dtype == np.float32 else "partition"
    return topk_kernel


def _partition_prefix(S: np.ndarray, k: int) -> np.ndarray:
    """In-place introselect + sorted k-prefix (the reference reduction)."""
    S.partition(k - 1, axis=1)
    prefix = S[:, :k]
    prefix.sort(axis=1)
    return prefix


def _filter_prefix(S: np.ndarray, k: int) -> np.ndarray:
    """Two-stage min-filter selection (see module docstring).

    Chunk ``g`` is the interleaved column set ``{g, g+G, g+2G, ...}``,
    so the chunk-min pass reduces over the *leading* axis of a strided
    ``(m, B, G)`` view and vectorises across the contiguous ``G``-wide
    inner axis. Correctness of the filter: if chunk ``X`` has
    ``min(X) > tau`` (the k-th smallest chunk min) and ``e ∈ X``, then
    the ``k`` chunks with minima ``<= tau`` each contain an element
    ``<= tau < e`` — that is ``k`` elements strictly smaller than
    ``e``, so ``e`` cannot be among the ``k`` smallest. The candidate
    set (the ``k`` best chunks plus the ungrouped tail) therefore
    contains the exact multiset of the ``k`` smallest row values.
    """
    m, n = S.shape
    G = max(_FILTER_MIN_CHUNKS, min(_FILTER_MAX_CHUNKS, n // 16))
    B = n // G
    if B < 4 or G <= 2 * k:
        # Too small for two stages to pay off (or to be valid): the
        # plain partition is optimal at these widths.
        return _partition_prefix(S, k)
    body = G * B
    view = np.lib.stride_tricks.as_strided(
        S,
        shape=(m, B, G),
        strides=(S.strides[0], G * S.strides[1], S.strides[1]),
    )
    mins = view.min(axis=1)
    chunk_ids = np.argpartition(mins, k - 1, axis=1)[:, :k]
    columns = (
        chunk_ids[:, None, :] + G * np.arange(B)[None, :, None]
    ).reshape(m, k * B)
    candidates = np.take_along_axis(S, columns, axis=1)
    if body < n:
        candidates = np.concatenate([candidates, S[:, body:]], axis=1)
    return _partition_prefix(candidates, k)


def topk_prefix(S: np.ndarray, k: int, topk_kernel: str = "partition") -> np.ndarray:
    """Sorted ascending k-prefix of every row of ``S``, shape ``(m, k)``.

    ``S`` is owned by the caller and may be mutated (the partition
    kernel selects in place). *topk_kernel* must already be resolved
    (:func:`resolve_topk_kernel`); every kernel returns the exact value
    sequence ``np.sort(S, axis=1)[:, :k]``.
    """
    if topk_kernel == "filter":
        return _filter_prefix(S, k)
    if topk_kernel == "numba":
        compiled = _load_numba_topk()
        if compiled is not False:
            out = np.empty((S.shape[0], k), dtype=S.dtype)
            return compiled(np.ascontiguousarray(S), out)
        return _partition_prefix(S, k)
    return _partition_prefix(S, k)
