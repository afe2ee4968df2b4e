"""Communication-efficient quantum threshold secret sharing, simulated exactly.

The package implements ((k, 2k-1, d)) threshold schemes over a prime field:
a dealer encodes an m = d-k+1 qudit secret into n = 2k-1 shares of m qudits
each, any k shares recover it by communicating all m*k of their qudits, and
any d >= k shares recover it by communicating just one qudit per share.
Secrecy of k-1 or fewer shares and optimality of the communication cost are
checked numerically against exact sparse state simulation.
"""

from .gf import FieldMatrix, PrimeField, SingularMatrixError, vandermonde
from .staircase import (
    EnumerationCapError,
    ParameterError,
    SchemeParams,
    build_message_matrix,
    codeword_rows,
    encode_classical,
    make_params,
)
from .qsim import (
    DensityMatrix,
    DimensionCapError,
    EmptyStateError,
    SparseState,
    factor_check,
    fidelity,
    random_state,
    superpose,
    trace_distance,
)
from .protocol import (
    CombinerLocalityError,
    CostRow,
    DealtState,
    OpRecord,
    RecoveryResult,
    RecoveryTranscript,
    SecrecyReport,
    basis_secret,
    convert_to_mixed,
    cost_table,
    deal,
    default_secret_pairs,
    lower_bound,
    recover_from_d,
    recover_from_k,
    recovery_session,
    run_session,
    secrecy_check,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # gf
    "PrimeField",
    "FieldMatrix",
    "SingularMatrixError",
    "vandermonde",
    # staircase
    "SchemeParams",
    "ParameterError",
    "EnumerationCapError",
    "make_params",
    "build_message_matrix",
    "codeword_rows",
    "encode_classical",
    # qsim
    "SparseState",
    "DensityMatrix",
    "EmptyStateError",
    "DimensionCapError",
    "superpose",
    "fidelity",
    "trace_distance",
    "factor_check",
    "random_state",
    # protocol
    "DealtState",
    "OpRecord",
    "RecoveryTranscript",
    "RecoveryResult",
    "SecrecyReport",
    "CostRow",
    "CombinerLocalityError",
    "deal",
    "basis_secret",
    "recover_from_d",
    "recover_from_k",
    "recovery_session",
    "run_session",
    "secrecy_check",
    "convert_to_mixed",
    "lower_bound",
    "cost_table",
    "default_secret_pairs",
]
