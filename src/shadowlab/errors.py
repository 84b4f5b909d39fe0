"""Exception hierarchy.

Every operational failure carries a stable ``code`` string that the CLI
surfaces in reports, plus an optional witness payload (the offending index,
point, or orbit) so negative results stay inspectable.
"""

from __future__ import annotations

from typing import Any


class ShadowlabError(Exception):
    """Base class for all library errors."""

    code = "ShadowlabError"

    def __init__(self, message: str, witness: Any = None):
        super().__init__(message)
        self.witness = witness


class IndexOutOfScheduleError(ShadowlabError):
    code = "IndexOutOfSchedule"


class PointOutsideSpaceError(ShadowlabError):
    code = "PointOutsideSpace"


class NotExpandingError(ShadowlabError):
    code = "NotExpanding"


class PointOutsideBranchDomainError(ShadowlabError):
    code = "PointOutsideBranchDomain"


class InvalidBranchIdError(ShadowlabError):
    code = "InvalidBranchId"


class NoiseExceedsSpaceError(ShadowlabError):
    code = "NoiseExceedsSpace"


class ZeroHorizonError(ShadowlabError):
    code = "ZeroHorizon"


class NotCesaroNullError(ShadowlabError):
    code = "NotCesaroNull"


class BoundViolatedError(ShadowlabError):
    code = "BoundViolated"


class MenuExhaustedError(ShadowlabError):
    code = "MenuExhausted"


class EpsilonTooLargeError(ShadowlabError):
    code = "EpsilonTooLarge"


class DeltaBudgetViolatedError(ShadowlabError):
    code = "DeltaBudgetViolated"


class BranchDomainViolatedError(ShadowlabError):
    code = "BranchDomainViolated"


class EmptyCellError(ShadowlabError):
    code = "EmptyCell"


class NonPeriodicInputError(ShadowlabError):
    code = "NonPeriodicInput"


class SupRateNotBoundedError(ShadowlabError):
    code = "SupRateNotBounded"


class NotEquicontinuousAtHorizonError(ShadowlabError):
    code = "NotEquicontinuousAtHorizon"


class PreimageSearchFailedError(ShadowlabError):
    code = "PreimageSearchFailed"


class NoConvergenceError(ShadowlabError):
    code = "NoConvergence"


class EmptyAError(ShadowlabError):
    code = "EmptyA"


class OracleUnavailableError(ShadowlabError):
    code = "OracleUnavailable"


class ScheduleMismatchError(ShadowlabError):
    code = "ScheduleMismatch"


class BudgetExceededError(ShadowlabError):
    code = "BudgetExceeded"


class HypothesisFailedError(ShadowlabError):
    code = "HypothesisFailed"


class ConfigInvalidError(ShadowlabError):
    code = "ConfigInvalid"
