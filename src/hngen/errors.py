"""Exception types shared across the package."""


class HngenError(Exception):
    """Base class for all package errors."""


class ConfigurationError(HngenError):
    """A config value is missing, unknown, or out of range."""


class DataFormatError(HngenError):
    """A feature file could not be parsed."""


class SamplingError(HngenError):
    """A balanced batch cannot be drawn from the dataset."""


class ShapeError(HngenError):
    """Tensor shapes do not match the declared contract."""


class NumericError(HngenError):
    """A loss or gradient became non-finite; training must abort."""


class CheckpointError(HngenError):
    """A checkpoint is missing, corrupt, or incompatible."""
