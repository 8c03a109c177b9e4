"""Exception types shared across the package."""


class CbfError(Exception):
    """Base class for all package errors."""


class InvalidFieldError(CbfError):
    """Field samples or coefficients are not finite / malformed."""


class SymmetryError(CbfError):
    """Spectral coefficients violate Hermitian symmetry."""


class GridMismatchError(CbfError):
    """Operands live on incompatible grids."""


class InvalidExponentError(CbfError):
    """Lebesgue or absorption exponent outside its admissible range."""


class ContractViolationError(CbfError):
    """An operator precondition (e.g. divergence-free input) failed."""


class RegimeError(CbfError):
    """The requested check or constant does not apply in this regime."""


class InvalidArgumentsError(CbfError):
    """Arguments violate a documented precondition."""


class BlowUpError(CbfError):
    """The time integration produced a non-finite or runaway state."""

    def __init__(self, message, last_valid_time, diagnostics=None):
        super().__init__(message)
        self.last_valid_time = last_valid_time
        self.diagnostics = diagnostics if diagnostics is not None else []


class ConfigError(CbfError):
    """Configuration file is unreadable, malformed, or out of domain."""


class SnapshotFormatError(CbfError):
    """Snapshot file has a bad magic string, version, or layout."""
