"""Exception types raised across the pipeline.

Every domain error derives from CaselineError so callers (and the CLI)
can distinguish input/domain problems (exit 1) from usage mistakes.
"""


class CaselineError(Exception):
    """Base class for all domain errors."""


# -- corpus --

class MalformedRecordError(CaselineError):
    """A corpus line is not a valid record (bad JSON, missing keys, bad types)."""


class BadDateError(MalformedRecordError):
    """Decision date is not a valid ISO-8601 calendar date."""


class UnknownLabelError(CaselineError):
    """An article name is not in the label catalog."""


class DuplicateIdError(CaselineError):
    """Two corpus records share a case_id."""


class InsufficientDataError(CaselineError):
    """Corpus too small for the requested chronological split."""


class IoFailureError(CaselineError):
    """Reading or writing an artifact failed."""


# -- encoder / features --

class EmptyTextError(CaselineError):
    """Text input was empty where non-empty text is required."""


class DimensionMismatchError(CaselineError):
    """Array shapes inconsistent with the declared dimensions."""


class NonPositiveTemperatureError(CaselineError):
    """Contrastive temperature must be > 0."""


# -- training --

class NonFiniteError(CaselineError):
    """A non-finite loss, activation, embedding or metric score."""


# -- retrieval --

class NegativeGapError(CaselineError):
    """Rank gap < 0: a future case leaked past the mask."""


class RankOutOfRangeError(CaselineError):
    """Query rank outside the embedding store."""


class StoreMisalignedError(CaselineError):
    """Embedding store and label sequence disagree in length or order."""


# -- model --

class LabelLengthMismatchError(CaselineError):
    """Evidence label vectors disagree in length."""


class DegenerateRangeError(CaselineError):
    """Training rank range has max == min; time coordinate undefined."""


# -- metrics --

class LengthMismatchError(CaselineError):
    """Decision and truth sequences differ in length or width."""


class SingleClassError(CaselineError):
    """ROC-AUC undefined: pooled truth bits are all one class."""


class NoPositivesError(CaselineError):
    """PR-AUC undefined: pooled truth bits contain no positives."""


# -- cli / config --

class ConfigError(CaselineError):
    """Bad key, value, or type in a run configuration."""
