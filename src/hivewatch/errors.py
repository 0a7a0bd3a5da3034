"""Exception types shared across the package."""


class HivewatchError(Exception):
    """Base class for every error raised by this package."""


# Data and file errors. The CLI maps these to exit code 3.

class FileUnreadable(HivewatchError):
    """Input file is missing, cannot be opened, or cannot be read as text."""


class MalformedHeader(HivewatchError):
    """Input file header does not match the expected layout."""


class NonMonotonicTimestamps(HivewatchError):
    """More than 1% of rows are out of timestamp order."""


class UnsupportedSampling(HivewatchError):
    """Trace's sampling period is not one the operation supports."""


class UnknownSensor(HivewatchError):
    """Requested sensor name is not a column of the trace."""


class NoNormalDays(HivewatchError):
    """Split construction needs two normal-labeled days: one to train on,
    one to validate on."""


class DegenerateStd(HivewatchError):
    """Series is (numerically) constant, or its mean or std is not finite
    in float64: z-score undefined."""


class EmptyDataset(HivewatchError):
    """Training requires non-empty window sets."""


class EmptyValidation(HivewatchError):
    """Threshold calibration requires validation windows."""


class InvalidSchedule(HivewatchError):
    """Synthetic anomaly schedule is inconsistent."""


class ExhaustedGrid(HivewatchError):
    """Hyperparameter grid is empty."""


class CheckpointError(HivewatchError):
    """Model checkpoint file is unreadable or inconsistent."""


class SplitMismatch(HivewatchError):
    """Split file is not the one the checkpoint was trained on."""


# Model / contract errors.

class InvalidHyperparameter(HivewatchError):
    """Hyperparameter outside the supported range."""


class LengthMismatch(HivewatchError):
    """Sequence length does not match the model's window size."""


class ShapeMismatch(HivewatchError):
    """Array shapes of parameters, gradients, or state disagree."""


class TrainingDiverged(HivewatchError):
    """Training reached a non-finite loss: the learning rate is too large
    for the data. The CLI maps it to exit code 2, as a bad flag."""


# CLI-local validation failures (exit code 2).

class UsageError(HivewatchError):
    """Command invoked with inconsistent or missing arguments."""


#: Errors that indicate bad input data rather than bad usage.
DATA_ERRORS = (
    FileUnreadable,
    MalformedHeader,
    NonMonotonicTimestamps,
    UnsupportedSampling,
    UnknownSensor,
    NoNormalDays,
    DegenerateStd,
    EmptyDataset,
    EmptyValidation,
    InvalidSchedule,
    ExhaustedGrid,
    CheckpointError,
    SplitMismatch,
)
