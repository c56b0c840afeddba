"""Exception types shared across the toolkit.

The CLI maps these onto its exit codes, so keep the taxonomy stable.
"""


class ToolkitError(Exception):
    """Base class for all toolkit errors."""


class ShapeError(ToolkitError):
    """Mismatched, non-square, or otherwise incompatible dimensions."""


class SizeLimitError(ToolkitError):
    """A requested object exceeds the configured maximum global dimension."""


class ContractError(ToolkitError):
    """An input violates a stated contract (Hermiticity, unitarity, unit norm)."""


class DegenerateInputError(ToolkitError):
    """An input is degenerate for the requested operation (e.g. zero vector)."""


class NumericalError(ToolkitError):
    """A numerical routine failed or produced values outside its guarantees."""


class SpectrumError(ToolkitError):
    """A joint spectrum does not separate into the requested eigenvalue grid."""


class BijectionError(ToolkitError):
    """An index map is not a bijection of the required index grid."""


class GridSpecError(ToolkitError):
    """A sampling grid or profile parameter violates its constraints."""


class StateFileError(ToolkitError):
    """A state, bijection, or matrix file cannot be parsed."""


class UnknownObservableError(ToolkitError):
    """An observable name is not recognized by the CLI."""
