"""Exception types shared across the package, and the rule for wrong types.

An input of a type its argument does not take is rejected where it enters
the API with a CorrQecError (BadQubitIndex for a qubit, BadQubitCount for a
qubit count, WrongType by check_type for any other), never an
AttributeError, IndexError, KeyError or TypeError from deeper in; one out
of range, with a ValueError or a CorrQecError.  channels.check_repeats
keeps its documented TypeError for a non-integer.
"""

from __future__ import annotations


class CorrQecError(Exception):
    """Base class for all package-specific errors."""


class DimensionMismatch(CorrQecError):
    """Operands have incompatible shapes or a non power-of-two dimension, or
    a packed (real) state is given as a complex matrix."""


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


class NotNormalized(CorrQecError):
    """A trial state's trace is not 1 within tolerances.TRACE_TOL."""


class WrongType(CorrQecError):
    """An argument is not of a type the function takes."""


def check_type(value, kind, what: str):
    """value, if it is an instance of kind (a type or a tuple of types);
    WrongType naming `what` and the type it got else."""
    if not isinstance(value, kind):
        raise WrongType(f"{what} has the wrong type, {type(value).__name__}")
    return value
