"""Exception types shared across the package."""

from __future__ import annotations


class CorrQecError(Exception):
    """Base class for all package-specific errors."""


class DimensionMismatch(CorrQecError):
    """Operands have incompatible shapes or a non power-of-two dimension."""


class BadQubitIndex(CorrQecError):
    """Qubit index is out of range or control equals target."""


class BadQubitCount(CorrQecError):
    """Requested qubit count is outside the supported range."""


class AncillaSizeError(CorrQecError):
    """Ancilla state has the wrong dimension for the scheme."""


class NotTracePreserving(CorrQecError):
    """Kraus coefficients fail the completeness relation."""


class NotHermitian(CorrQecError):
    """A trial state is not Hermitian within tolerances.HERMITIAN_TOL."""
