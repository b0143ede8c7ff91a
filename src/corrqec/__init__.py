"""Recursive encoders and error-correction simulation for fully correlated
n-qubit Pauli channels, with machine checks of every structural claim."""

from .channels import (
    PauliChannel,
    SpanChannel,
    apply_sequence,
    completeness_deviation,
)
from .encoder import (
    EncoderSpec,
    build_p2,
    build_p3,
    build_pn,
    conjugation_report,
    d_matrix,
    expected_conjugation,
)
from .errors import (
    AncillaSizeError,
    BadQubitCount,
    BadQubitIndex,
    CorrQecError,
    DimensionMismatch,
    NotTracePreserving,
)
from .gates import (
    Circuit,
    GateOp,
    circuit_conjugate,
    cnot_op,
    cnot_perm,
    correlated_error,
    h_op,
    invert,
    pauli,
    realize,
)
from .optimality import (
    BitMatrix,
    circuit_table,
    cnot_pairs,
    counting_lower_bound,
    exhaustive_search,
    identity_table,
    mismatch_count,
)
from .qasm import export_qasm
from .scheme import (
    SchemeOutcome,
    classical_state,
    decode,
    encode,
    hybrid_sweep,
    predicted_ancilla,
    run_trial,
)
from .tensor import (
    frobenius_distance,
    kron,
    kron_distance,
    partial_trace_leading,
    partial_trace_trailing,
    random_density,
)

__version__ = "0.1.0"
