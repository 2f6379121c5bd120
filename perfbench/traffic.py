"""Seeded datasets and client traffic for the four benchmark workloads.

Everything the benchmark feeds the program is generated here with numpy
alone, so a change to the package's own data generators cannot silently
change a workload. Each dataset is fixed (drawn from the constant
:data:`DATA_SEED`), so the calibrated threshold and the planted rows,
which set the cost of every outlier, are the same in every run; the
``--seed`` argument draws the traffic. Each cycle draws from its own
generator, keyed by ``(seed, stream, cycle)``, so the traffic of cycle
``i`` does not depend on how many cycles a run reaches, and every batch
mixes the same target kinds in shuffled order. ``cycle(i, step)`` also
takes the cycle's position in its session: each session refits on the
fixed dataset, so the stream restarts its drift from the fitted window
while drawing fresh rows.

A target is ``(kind, value)``: ``value`` is a dataset row id (queried
with self-exclusion) or a point vector. ``kind`` names the traffic
class; ``"displaced"`` and ``"planted"`` targets are built to be
outliers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

D = 12
#: Seed of the fixed datasets; ``--seed`` only varies the traffic.
DATA_SEED = 20041
#: Displacement, in standard deviations, of a planted or displaced
#: point along each of two random dimensions.
SHIFT = 8.0
#: Noise scale of a fresh point drawn near a dataset row.
NEAR_SCALE = 0.25

SMALL_N = 2000
LARGE_N = 20000
WINDOW = 3000
PUSH_ROWS = 32
WATCHLIST = 16
#: Period (rows) and radius of the stream's circular mean drift.
DRIFT_PERIOD = 24000
DRIFT_RADIUS = 1.0


def _rng(seed: int, *keys: int) -> np.random.Generator:
    return np.random.default_rng([seed, *keys])


def _displace(rng: np.random.Generator, point: np.ndarray) -> np.ndarray:
    point[rng.choice(D, size=2, replace=False)] += SHIFT
    return point


def _near(rng: np.random.Generator, X: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """A fresh point near one of *rows* of ``X``."""
    return X[rows[rng.integers(rows.size)]] + rng.normal(scale=NEAR_SCALE, size=D)


def _central(X: np.ndarray, exclude: np.ndarray) -> np.ndarray:
    """Rows of ``X`` in the central 80% by distance from the mean, less
    *exclude*. Inlier traffic draws only from these, so that whether a
    target is an outlier depends on its kind, not on the seed's tail."""
    norms = np.linalg.norm(X - X.mean(axis=0), axis=1)
    central = np.flatnonzero(norms <= np.quantile(norms, 0.8))
    return np.setdiff1d(central, exclude)


def _fresh_displaced(rng: np.random.Generator) -> np.ndarray:
    return _displace(rng, rng.standard_normal(D))


def _shuffled(rng: np.random.Generator, targets: list) -> list:
    return [targets[i] for i in rng.permutation(len(targets))]


@dataclass
class Cycle:
    """One client cycle: an optional push, one batch, any singles."""

    batch: list
    singles: list
    push: "np.ndarray | None" = None


class SmallMixed:
    """n=2000 with four planted outlier rows; lattice-bound traffic.

    Each batch of 32 holds 8 re-polls of a fixed hot set (2 of the
    planted rows and 6 of eight fixed central rows), 11 central rows not
    queried before, 11 fresh points near central rows and 1 fresh
    displaced point. The four singles per cycle are an inlier hot re-poll, an
    unqueried row and two near points; every fourth cycle the last one
    is an outlier instead, alternately a planted re-poll and a fresh
    displaced point. Outliers are thus 1/16 of singles, which keeps the
    single-query p90 inside the inlier mode rather than on the edge
    between two modes.
    """

    n = SMALL_N

    def __init__(self, seed: int) -> None:
        self.seed = seed
        data = _rng(DATA_SEED, 0)
        self.X = data.standard_normal((self.n, D))
        self.planted = data.choice(self.n, size=4, replace=False)
        for row in self.planted:
            _displace(data, self.X[row])
        central = _central(self.X, self.planted)
        rng = _rng(seed, 3)
        self.hot = rng.choice(central, size=8, replace=False)
        self.central = np.setdiff1d(central, self.hot)
        self.rows = rng.permutation(self.central)

    def _row(self, index: int) -> "tuple[str, int]":
        return ("row", int(self.rows[index % self.rows.size]))

    def cycle(self, i: int, step: int) -> Cycle:
        rng = _rng(self.seed, 1, i)
        base = 12 * i
        batch = [("planted", int(r)) for r in rng.choice(self.planted, size=2, replace=False)]
        batch += [("hot", int(r)) for r in rng.choice(self.hot, size=6, replace=False)]
        batch += [self._row(base + j) for j in range(11)]
        batch += [("near", _near(rng, self.X, self.central)) for _ in range(11)]
        batch.append(("displaced", _fresh_displaced(rng)))
        if i % 8 == 0:
            last = ("planted", int(self.planted[rng.integers(self.planted.size)]))
        elif i % 8 == 4:
            last = ("displaced", _fresh_displaced(rng))
        else:
            last = ("near", _near(rng, self.X, self.central))
        singles = [
            ("hot", int(self.hot[rng.integers(self.hot.size)])),
            self._row(base + 11),
            ("near", _near(rng, self.X, self.central)),
            last,
        ]
        return Cycle(_shuffled(rng, batch), singles)


class Large:
    """n=20000, kernel-bound traffic of inliers with rare outliers.

    Each batch holds 16 targets: 8 central rows not queried before and
    8 fresh points near central rows, except that every fourth batch swaps one near
    point for a fresh displaced point. There are no single queries.
    """

    n = LARGE_N

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.X = _rng(DATA_SEED, 0).standard_normal((self.n, D))
        self.central = _central(self.X, np.empty(0, dtype=np.intp))
        self.rows = _rng(seed, 3).permutation(self.central)

    def _row(self, index: int) -> "tuple[str, int]":
        return ("row", int(self.rows[index % self.rows.size]))

    def cycle(self, i: int, step: int) -> Cycle:
        rng = _rng(self.seed, 1, i)
        batch = [self._row(8 * i + j) for j in range(8)]
        batch += [("near", _near(rng, self.X, self.central)) for _ in range(7)]
        batch.append(
            ("displaced", _fresh_displaced(rng))
            if i % 4 == 3
            else ("near", _near(rng, self.X, self.central))
        )
        return Cycle(_shuffled(rng, batch), [])


class StreamWindow:
    """A 3000-row sliding window over a drifting stream.

    Stream row ``t`` (counted from the start of the fitted window, which
    every session refits) is standard normal around a mean that circles
    with radius 1 in the first two dimensions once every 24000 rows. Every
    fourth push of 32 rows carries one displaced row. After each push
    the client queries the 32 fresh rows (by window row id) plus a fixed
    watchlist of 16 near-data points in one batch.
    """

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.X = self._rows(_rng(DATA_SEED, 0), 0, WINDOW)
        rng = _rng(seed, 2)
        central = _central(self.X, np.empty(0, dtype=np.intp))
        self.watchlist = [("watch", _near(rng, self.X, central)) for _ in range(WATCHLIST)]

    @staticmethod
    def _rows(rng: np.random.Generator, start: int, count: int) -> np.ndarray:
        phase = 2 * np.pi * np.arange(start, start + count) / DRIFT_PERIOD
        rows = rng.standard_normal((count, D))
        rows[:, 0] += DRIFT_RADIUS * np.cos(phase)
        rows[:, 1] += DRIFT_RADIUS * np.sin(phase)
        return rows

    def cycle(self, i: int, step: int) -> Cycle:
        rng = _rng(self.seed, 1, i)
        rows = self._rows(rng, WINDOW + PUSH_ROWS * step, PUSH_ROWS)
        displaced = int(rng.integers(PUSH_ROWS)) if i % 4 == 3 else -1
        if displaced >= 0:
            _displace(rng, rows[displaced])
        # After the push the fresh rows are the window's last PUSH_ROWS.
        fresh = [
            ("displaced" if j == displaced else "fresh", WINDOW - PUSH_ROWS + j)
            for j in range(PUSH_ROWS)
        ]
        return Cycle(_shuffled(rng, fresh + self.watchlist), [], push=rows)
