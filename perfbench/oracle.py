"""Independent brute-force oracle for HOS-Miner answers.

Evaluates the outlying degree (sum of the k smallest Euclidean
distances) of one target in every one of the 2^d - 1 subspaces with
plain numpy, then derives the minimal outlying subspaces from the
definition: a subspace is outlying iff its OD reaches the threshold.
Nothing here imports the package under test, so a defect shared by all
of its evaluation paths still shows.
"""

from __future__ import annotations

import numpy as np

#: Relative tolerance on float64 OD values and on threshold ties.
RTOL = 1e-9


def value_rtol(precision: str, d: int) -> float:
    """Tolerance on reported OD values for a resolved precision tier.

    The float64 tiers must agree with brute force to :data:`RTOL`. The
    float32 tier sums ``d`` float32-rounded terms per distance, so its
    values carry up to ``d`` unit roundoffs (2**-24) of relative error;
    its answer *sets* are still judged exactly.
    """
    return d * 2.0**-24 if precision == "float32" else RTOL
#: Masks per GEMM block, bounding the (block, n) intermediate.
BLOCK = 256


def all_masks(d: int) -> np.ndarray:
    """Every non-empty subspace of ``d`` dimensions as an int mask."""
    return np.arange(1, 1 << d, dtype=np.int64)


def subspace_ods(data: np.ndarray, query: np.ndarray, k: int, exclude: "int | None") -> np.ndarray:
    """OD of *query* in every subspace, indexed by ``mask - 1``."""
    n, d = data.shape
    masks = all_masks(d)
    bits = ((masks[:, None] >> np.arange(d)) & 1).astype(np.float64)
    squares = (data - query) ** 2  # (n, d) per-dimension terms
    ods = np.empty(masks.shape[0])
    for start in range(0, masks.shape[0], BLOCK):
        sums = bits[start : start + BLOCK] @ squares.T  # (block, n)
        if exclude is not None:
            sums[:, exclude] = np.inf
        nearest = np.partition(sums, k - 1, axis=1)[:, :k]
        nearest.sort(axis=1)
        ods[start : start + BLOCK] = np.sqrt(nearest).sum(axis=1)
    return ods


def minimal_of(masks: np.ndarray) -> set[int]:
    """Minimal elements (under subset inclusion) of a set of masks."""
    chosen: list[int] = []
    for mask in sorted((int(m) for m in masks), key=lambda m: (bin(m).count("1"), m)):
        if not any(mask & kept == kept for kept in chosen):
            chosen.append(mask)
    return set(chosen)


def check(
    data: np.ndarray,
    query: np.ndarray,
    exclude: "int | None",
    k: int,
    threshold: float,
    minimal: "dict[int, float]",
    od_rtol: float = RTOL,
) -> "tuple[bool, bool, str]":
    """Compare one engine answer against brute force.

    *minimal* maps each minimal outlying subspace the engine returned to
    the OD it reported, which must match brute force within
    *od_rtol* relative. Returns ``(ok, outlying, reason)``: ``outlying``
    is the oracle's verdict for the target, ``reason`` describes the
    first disagreement. Subspaces whose OD lies within ``RTOL * T`` of
    the threshold may fall either way.
    """
    ods = subspace_ods(data, query, k, exclude)
    masks = all_masks(data.shape[1])
    tol = RTOL * threshold
    strict = masks[ods >= threshold + tol]
    loose = masks[ods >= threshold - tol]
    outlying = bool(loose.size)
    # The engine's upward closure must contain every clearly outlying
    # subspace and no clearly inlying one.
    returned = np.asarray(sorted(minimal), dtype=np.int64)
    if returned.size:
        covered = ((masks[:, None] & returned[None, :]) == returned[None, :]).any(axis=1)
    else:
        covered = np.zeros(masks.shape[0], dtype=bool)
    if not covered[strict - 1].all():
        missing = sorted(set(strict.tolist()) - set(masks[covered].tolist()))[:3]
        return False, outlying, f"missed outlying subspaces {missing}"
    extra = covered & ~np.isin(masks, loose)
    if extra.any():
        return False, outlying, f"reported inlying subspaces {masks[extra][:3].tolist()}"
    # With the closure pinned between the two, an antichain is exactly
    # the brute-force minimal set whenever no OD ties the threshold.
    if set(returned.tolist()) != minimal_of(returned):
        return False, outlying, "returned subspaces are not a minimal antichain"
    for mask, value in minimal.items():
        expected = ods[mask - 1]
        if abs(value - expected) > od_rtol * abs(expected):
            return False, outlying, f"OD of mask {mask}: {value!r} != {expected!r}"
    return True, outlying, ""
