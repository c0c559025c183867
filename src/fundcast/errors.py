"""Exception hierarchy shared across the pipeline."""


class FundcastError(Exception):
    """Base class for all engine errors."""


class SchemaError(FundcastError):
    """Schema CSV is malformed (bad header, bad row, duplicate names)."""


class PanelError(FundcastError):
    """Panel CSV or RawPanel contents violate the panel contract."""


class MissingDenominatorError(FundcastError):
    """A percent format is requested but the denominator column is absent."""


class WindowTooSmallError(FundcastError):
    """The training window cannot accommodate the requested validation size."""


class InsufficientHistoryError(FundcastError):
    """Not enough consecutive quarters to build the requested subsets."""


class DegenerateInputError(FundcastError):
    """Numeric input on which the decomposition cannot proceed."""


class DimensionMismatchError(FundcastError):
    """Matrix width does not match the fitted model."""


class InvalidParamsError(FundcastError):
    """Hyperparameter fields outside their declared ranges."""


class InvalidSpecError(FundcastError):
    """Synthetic generator spec violates its invariants."""


class SearchError(FundcastError):
    """Hyperparameter search could not produce any successful trial."""


class ConfigError(FundcastError):
    """Experiment config file is malformed or references missing inputs."""


class ReportError(FundcastError):
    """Stored result records are missing or corrupted."""


class SubsetError(FundcastError):
    """A pipeline stage failed inside one rolling subset."""

    def __init__(self, subset_index: int, stage: str, cause: Exception):
        super().__init__(f"subset {subset_index}, stage {stage}: {cause}")
        self.subset_index = subset_index
        self.stage = stage
        self.cause = cause
