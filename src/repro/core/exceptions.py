"""Exception hierarchy for the HOS-Miner library.

Every error raised intentionally by :mod:`repro` derives from
:class:`HOSMinerError`, so callers can guard an entire pipeline with a
single ``except HOSMinerError`` clause while still being able to react
to specific failure classes.
"""

from __future__ import annotations


class HOSMinerError(Exception):
    """Base class for every error raised by the repro library."""


class ConfigurationError(HOSMinerError, ValueError):
    """An invalid parameter combination was supplied by the caller.

    Raised eagerly at construction / fit time so that long searches never
    fail halfway through because of a bad ``k`` or threshold.
    """


class DimensionalityError(ConfigurationError):
    """The requested dimensionality is unusable.

    Examples: a subspace referencing dimension 12 of a 10-dimensional
    dataset, a zero-dimensional (empty) subspace where a non-empty one is
    required, or a full-lattice search beyond the supported width.
    """


class NotFittedError(HOSMinerError, RuntimeError):
    """A query was issued before the miner (or index) was fitted."""


class DataShapeError(HOSMinerError, ValueError):
    """Input data does not have the expected shape or dtype."""


class DataQualityError(DataShapeError):
    """Input data has the right shape but unusable values (NaN or inf).

    A non-finite cell makes every OD through it NaN or inf, and a
    threshold calibrated on such data answers nothing, so fit, insert
    and every query path reject it up front.
    """


class IndexError_(HOSMinerError, RuntimeError):
    """An internal index invariant was violated.

    The trailing underscore avoids shadowing the built-in ``IndexError``
    while keeping the name greppable next to the :mod:`repro.index`
    subpackage.
    """


class SearchBudgetExceeded(HOSMinerError, RuntimeError):
    """A bounded search exceeded its configured evaluation budget."""
