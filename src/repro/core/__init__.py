"""The paper's primary contribution: outlying-subspace detection.

Modules map one-to-one onto the paper's sections:

======================  =========================================
``od``                  Outlying Degree measure (Section 2)
``savings``             DSF / USF / TSF (Definitions 1–3)
``lattice``             subspace state + pruning (Section 3.1)
``learning``            sample-based learning (Section 3.2)
``search``              dynamic subspace search (Section 3.3)
``filtering``           result refinement (Section 3.4)
``miner``               the four-module system (Figure 2)
======================  =========================================
"""

from repro.core.batch import BatchQueryEngine
from repro.core.config import HOSMinerConfig
from repro.core.exceptions import (
    ConfigurationError,
    DataQualityError,
    DataShapeError,
    DimensionalityError,
    HOSMinerError,
    NotFittedError,
    SearchBudgetExceeded,
)
from repro.core.filtering import minimal_masks, minimal_subspaces
from repro.core.io import load_miner, result_from_dict, result_to_dict, save_miner
from repro.core.learning import LearningReport, learn_priors
from repro.core.metrics import (
    ChebyshevMetric,
    EuclideanMetric,
    ManhattanMetric,
    Metric,
    MinkowskiMetric,
    get_metric,
)
from repro.core.miner import HOSMiner, calibrate_threshold
from repro.core.od import ODEvaluator, SharedODCache, outlying_degree
from repro.core.priors import PruningPriors
from repro.core.profile import LevelProfile, ODProfile, compute_od_profile
from repro.core.ranking import RankedSubspace, top_n_outlying_subspaces
from repro.core.result import BatchResult, OutlyingSubspaceResult
from repro.core.savings import (
    downward_saving_factor,
    total_saving_factor,
    TSFInputs,
    upward_saving_factor,
)
from repro.core.search import DynamicSubspaceSearch, SearchOutcome, SearchStats
from repro.core.stream import StreamEngine
from repro.core.subspace import Subspace

__all__ = [
    "BatchQueryEngine",
    "BatchResult",
    "ChebyshevMetric",
    "ConfigurationError",
    "DataQualityError",
    "DataShapeError",
    "DimensionalityError",
    "DynamicSubspaceSearch",
    "EuclideanMetric",
    "HOSMiner",
    "HOSMinerConfig",
    "HOSMinerError",
    "LearningReport",
    "LevelProfile",
    "ManhattanMetric",
    "Metric",
    "MinkowskiMetric",
    "NotFittedError",
    "ODEvaluator",
    "ODProfile",
    "OutlyingSubspaceResult",
    "PruningPriors",
    "RankedSubspace",
    "SearchBudgetExceeded",
    "SearchOutcome",
    "SearchStats",
    "SharedODCache",
    "StreamEngine",
    "Subspace",
    "TSFInputs",
    "calibrate_threshold",
    "compute_od_profile",
    "downward_saving_factor",
    "get_metric",
    "learn_priors",
    "load_miner",
    "minimal_masks",
    "minimal_subspaces",
    "outlying_degree",
    "result_from_dict",
    "result_to_dict",
    "save_miner",
    "top_n_outlying_subspaces",
    "total_saving_factor",
    "upward_saving_factor",
]
