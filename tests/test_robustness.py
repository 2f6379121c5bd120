"""Cross-cutting robustness: degenerate data, metric variations, bounds.

These tests poke the corners a production deployment hits first:
duplicated rows, constant columns, tiny datasets, non-default metrics,
and every combination of the search's optional machinery.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.naive_search import exhaustive_search
from repro.core.exceptions import DataQualityError, DataShapeError
from repro.core.miner import HOSMiner
from repro.core.od import ODEvaluator
from repro.core.priors import PruningPriors
from repro.core.search import DynamicSubspaceSearch
from repro.core.stream import StreamEngine
from repro.index.base import validate_query_matrix
from repro.index.linear import LinearScanIndex
from repro.index.vafile import VAFile


class TestDegenerateData:
    def test_heavily_duplicated_rows(self):
        X = np.zeros((50, 4))
        X[40:] = 1.0
        miner = HOSMiner(k=3, threshold=0.5, sample_size=2).fit(X)
        result = miner.query_row(0)
        assert not result.is_outlier  # duplicates are never outliers

    def test_constant_dataset(self):
        X = np.full((30, 3), 7.0)
        miner = HOSMiner(k=3, threshold=0.1, sample_size=2).fit(X)
        assert not miner.query_row(5).is_outlier
        assert miner.detect_outliers() == []

    def test_single_constant_column(self):
        generator = np.random.default_rng(0)
        X = generator.normal(size=(100, 4))
        X[:, 2] = 3.14
        X[0, 0] += 9.0
        miner = HOSMiner(k=4, sample_size=3, threshold_quantile=0.98).fit(X)
        result = miner.query_row(0)
        assert result.is_outlier
        # The constant column can never be the distinguishing dimension.
        assert all(2 not in s.dims or len(s.dims) > 1 for s in result.minimal)

    def test_minimum_viable_dataset(self):
        X = np.array([[0.0, 0.0], [1.0, 1.0]])
        miner = HOSMiner(k=1, threshold=10.0, sample_size=0).fit(X)
        assert not miner.query_row(0).is_outlier

    def test_d_equals_one(self):
        generator = np.random.default_rng(1)
        X = generator.normal(size=(80, 1))
        X[0] += 10.0
        miner = HOSMiner(k=3, sample_size=2, threshold_quantile=0.97).fit(X)
        result = miner.query_row(0)
        assert result.is_outlier
        assert [s.dims for s in result.minimal] == [(0,)]


class TestNonFiniteInput:
    """NaN/inf cells fail loudly with a typed error on every entry
    point, instead of calibrating a NaN/inf threshold or answering []."""

    BAD = [np.nan, np.inf, -np.inf]

    @pytest.fixture
    def X(self):
        return np.random.default_rng(4).normal(size=(60, 4))

    def test_is_a_data_shape_error(self):
        assert issubclass(DataQualityError, DataShapeError)

    @pytest.mark.parametrize("bad", BAD)
    def test_fit_rejects_non_finite_cell(self, X, bad):
        X = X.copy()
        X[10, 2] = bad
        with pytest.raises(DataQualityError, match="non-finite"):
            HOSMiner(k=3, sample_size=2).fit(X)

    @pytest.mark.parametrize("bad", BAD)
    def test_insert_and_extend_reject_non_finite_rows(self, X, bad):
        miner = HOSMiner(k=3, threshold=1.0, sample_size=0).fit(X)
        row = np.array([[0.0, bad, 1.0, 2.0]])
        with pytest.raises(DataQualityError):
            miner.insert(row)
        with pytest.raises(DataQualityError):
            miner.extend(row)
        with pytest.raises(DataQualityError):
            StreamEngine(miner, window=40).push(row)
        assert miner.backend_.size == X.shape[0]  # nothing was admitted

    @pytest.mark.parametrize("bad", BAD)
    def test_every_query_path_rejects_non_finite_points(self, X, bad):
        miner = HOSMiner(k=3, sample_size=2).fit(X)
        point = np.array([bad, 0.0, 0.0, 0.0])
        with pytest.raises(DataQualityError):
            miner.query_point(point)
        with pytest.raises(DataQualityError):
            miner.query(point)
        with pytest.raises(DataQualityError):
            miner.query_batch(np.vstack([X[:2], point]), workers=1)
        with pytest.raises(DataQualityError):
            miner.query_batch([0, point], workers=1)
        with pytest.raises(DataQualityError):
            miner.query_batch(point, workers=1)
        with pytest.raises(DataQualityError):
            ODEvaluator(miner.backend_, point, 3)
        with pytest.raises(DataQualityError):
            validate_query_matrix(point[None, :], 4)


class TestMetricVariations:
    @pytest.mark.parametrize("metric", ["manhattan", "chebyshev", "minkowski:3"])
    def test_pipeline_matches_oracle_under_any_metric(self, metric):
        generator = np.random.default_rng(5)
        X = generator.normal(size=(150, 5))
        X[0, :2] += 8.0
        miner = HOSMiner(
            k=4, sample_size=3, threshold_quantile=0.98, metric=metric
        ).fit(X)
        result = miner.query_row(0)
        evaluator = ODEvaluator(miner.backend_, X[0], 4, exclude=0)
        oracle = exhaustive_search(evaluator, miner.threshold_)
        assert result.total_outlying == len(oracle.outlying_masks)

    @pytest.mark.parametrize("metric", ["manhattan", "chebyshev"])
    def test_tree_backends_honour_metric(self, metric):
        generator = np.random.default_rng(6)
        X = generator.normal(size=(200, 4))
        from repro.index import RStarTree

        tree = RStarTree(X, metric=metric, max_entries=8)
        scan = LinearScanIndex(X, metric=metric)
        ti, td = tree.knn(X[3], 6, (0, 2), exclude=3)
        si, sd = scan.knn(X[3], 6, (0, 2), exclude=3)
        assert list(ti) == list(si)
        np.testing.assert_allclose(td, sd)


class TestVAFileBounds:
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**16), bits=st.integers(2, 8))
    def test_bound_sandwich(self, seed, bits):
        """For every point: lower bound <= exact distance <= upper bound."""
        generator = np.random.default_rng(seed)
        X = generator.normal(size=(80, 4))
        va = VAFile(X, bits=bits)
        q = generator.normal(size=4)
        dims = np.array([0, 2, 3])
        lower, upper = va._bounds(q, dims)
        exact = va.metric.pairwise(X, q, dims)
        assert np.all(lower <= exact + 1e-9)
        assert np.all(exact <= upper + 1e-9)


class TestSearchMachineryCombinations:
    @settings(max_examples=15, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        adaptive=st.booleans(),
        reselect=st.sampled_from(["level", "evaluation"]),
        weight=st.floats(0.5, 50.0),
    )
    def test_every_combination_is_exact(self, seed, adaptive, reselect, weight):
        generator = np.random.default_rng(seed)
        X = generator.normal(size=(60, 5))
        X[0, :2] += generator.uniform(0, 6)
        evaluator = ODEvaluator(LinearScanIndex(X), X[0], 3, exclude=0)
        threshold = 0.8 * evaluator.od((1 << 5) - 1)
        oracle = frozenset(exhaustive_search(evaluator, threshold).outlying_masks)
        outcome = DynamicSubspaceSearch(
            evaluator,
            threshold,
            PruningPriors.uniform(5),
            reselect=reselect,
            adaptive=adaptive,
            adaptive_prior_weight=weight,
        ).run()
        assert frozenset(outcome.outlying_masks) == oracle

    def test_external_query_point_never_excluded(self):
        """query_point must not exclude any dataset row, even one that is
        byte-identical to the query."""
        X = np.zeros((20, 3))
        X[10:] = 2.0
        miner = HOSMiner(k=2, threshold=0.5, sample_size=0).fit(X)
        result = miner.query_point(np.zeros(3))
        assert not result.is_outlier  # zero-distance duplicates exist

    def test_repeated_queries_are_stable(self, fitted_miner):
        first = fitted_miner.query_row(0)
        second = fitted_miner.query_row(0)
        assert [s.mask for s in first.minimal] == [s.mask for s in second.minimal]
        assert first.total_outlying == second.total_outlying
