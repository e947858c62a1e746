"""Entanglement checks for three- and four-qubit density matrices.

The core idea: reduce the multiqubit state to a small set of two-qubit
density matrices (6 reductions for three qubits, 25 for four), then
apply the exact two-qubit PPT separability test to each.  Any reduction
that fails PPT certifies entanglement of the full state; if all pass,
the result is inconclusive for mixed states but exact for pure ones.
"""

from .linalg import (
    DEFAULT_TOL,
    RANK_TOL,
    BadSubsetError,
    BadToleranceError,
    DensityMatrix,
    NonFiniteError,
    NotHermitianError,
    NotNormalizedError,
    NotPSDError,
    TraceNotOneError,
    ValidationError,
    hermitian_eigenvalues,
    hermitian_eigenvalues_stack,
    kron,
    partial_trace,
    pure_density,
    validate_density,
)
from .reductions import (
    BadLabelError,
    PARTY_NAMES,
    ReductionKind,
    ReductionLabel,
    WrongArityError,
    apply_reduction,
    labels_for,
    parse_label,
    quadripartite_labels,
    reduce_all_quadripartite,
    reduce_all_tripartite,
    reduce_split,
    reduce_split_channel,
    reduce_trace_then_split,
    tripartite_labels,
)
from .separability import (
    ENTANGLED,
    INCONCLUSIVE,
    PURE_SPLITS,
    PptVerdict,
    SplitVerdict,
    WitnessReport,
    WrongDimError,
    min_pt_eigenvalues,
    necessary_condition_holds,
    partial_transpose,
    ppt_separable,
    pure_fully_separable,
    pure_split_separable,
    split_coefficient_matrix,
    witness,
    witness_quadripartite,
    witness_tripartite,
)
from .states import (
    BadGammaError,
    BadParamsError,
    BadWayError,
    OutOfRangeError,
    bell_pair,
    coherence_factor,
    embed_bipartite,
    ghz,
    maximally_mixed,
    molecule_pair_reduction,
    molecule_state,
    omega_matrix,
    product_pure,
    upb_state,
    werner_embedded,
)

__version__ = "0.1.0"
