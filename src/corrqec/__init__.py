"""Recursive encoders and error-correction simulation for fully correlated
n-qubit Pauli channels, with machine checks of every structural claim."""

from .channels import (
    PauliChannel,
    SpanChannel,
    completeness_deviation,
)
from .encoder import (
    EncoderSpec,
    build_p2,
    build_p3,
    build_pn,
    conjugation_report,
    d_matrix,
)
from .errors import (
    AncillaSizeError,
    BadQubitCount,
    BadQubitIndex,
    CorrQecError,
    DimensionMismatch,
    NotHermitian,
    NotNormalized,
    NotTracePreserving,
    WrongType,
)
from .gates import (
    BitMatrix,
    Circuit,
    GateOp,
    circuit_conjugate,
    circuit_table,
    cnot_op,
    conjugate_pauli,
    h_op,
    identity_table,
    invert,
    pauli,
)
from .optimality import (
    cnot_pairs,
    counting_lower_bound,
    exhaustive_search,
    mismatch_count,
)
from .qasm import export_qasm
from .scheme import (
    SchemeOutcome,
    classical_state,
    hybrid_sweep,
    predicted_ancilla,
    run_trial,
)
from .tensor import (
    frobenius_distance,
    partial_trace_leading,
    partial_trace_trailing,
    random_density,
)

__version__ = "0.1.0"
