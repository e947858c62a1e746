"""Argument guards of the public functions: each bad argument raises its
own error type and message, and every tolerance a caller can set is checked."""

import inspect
import math

import numpy as np
import pytest

import entcheck
from entcheck import (
    BadLabelError,
    DensityMatrix,
    BadToleranceError,
    NonFiniteError,
    coherence_factor,
    embed_bipartite,
    ghz,
    hermitian_eigenvalues,
    hermitian_eigenvalues_stack,
    kron,
    labels_for,
    min_pt_eigenvalues,
    molecule_pair_reduction,
    molecule_state,
    necessary_condition_holds,
    omega_matrix,
    parse_label,
    partial_trace,
    partial_transpose,
    ppt_separable,
    product_pure,
    pure_density,
    pure_fully_separable,
    pure_split_separable,
    reduce_split,
    reduce_split_channel,
    reduce_trace_then_split,
    split_coefficient_matrix,
    witness,
    witness_quadripartite,
    witness_tripartite,
)
from entcheck.fileio import ParseError, density_diagnostics, loads_matrix
from entcheck.linalg import NotNormalizedError, check_unit_norm
from entcheck.reductions import WrongArityError, apply_reduction, make_label
from entcheck.separability import WrongDimError
from entcheck.states import BadGammaError, BadWayError, maximally_mixed

BASIS0 = np.eye(8)[0]

GUARDS = {
    "apply_reduction on 2 qubits": (
        lambda: apply_reduction(maximally_mixed(2), parse_label("A,B", 3)),
        WrongArityError, "reductions are defined for 3 or 4 qubits, not 2"),
    "apply_reduction on 5 qubits": (
        lambda: apply_reduction(maximally_mixed(5), parse_label("A,B", 3)),
        WrongArityError, "reductions are defined for 3 or 4 qubits, not 5"),
    "reduce_split of a pair trace": (
        lambda: reduce_split(ghz(3), parse_label("A,B", 3)),
        BadLabelError, "label A,B has kind pair-trace, expected one-vs-two"),
    "reduce_split_channel naming D": (
        lambda: reduce_split_channel(ghz(3), make_label((0,), (1, 3))),
        BadLabelError, "label A,BD does not cover parties A,B,C"),
    "reduce_trace_then_split tracing a labelled party": (
        lambda: reduce_trace_then_split(ghz(4), 0, make_label((0,), (1, 2))),
        BadLabelError, "traced party A appears in label A,BC"),
    "reduce_trace_then_split tracing party 5": (
        lambda: reduce_trace_then_split(ghz(4), 5, make_label((0,), (1, 2))),
        BadLabelError, "label A,BC plus traced party must cover all four parties"),
    "make_label with a repeated party": (
        lambda: make_label((0, 0), (1,)),
        BadLabelError, "repeated parties in label ((0, 0), (1,))"),
    "make_label with an empty group": (
        lambda: make_label((), (1,)),
        BadLabelError, "label groups must be nonempty"),
    "make_label with party 4": (
        lambda: make_label((0,), (4,)),
        BadLabelError, "party index out of range in ((0,), (4,))"),
    # a party index or a qubit count is an integer, named when it is not, never truncated
    "make_label with party 0.7": (
        lambda: make_label((0.7,), (2,)),
        TypeError, "each party in first must be an integer, got 0.7"),
    "make_label with party True": (
        lambda: make_label((True,), (2,)),
        TypeError, "each party in first must be an integer, got True"),
    "make_label with party 2.0 in the second group": (
        lambda: make_label((0,), (2.0,)),
        TypeError, "each party in second must be an integer, got 2.0"),
    "partial_trace keeping party 1.5": (
        lambda: partial_trace(ghz(3), (1.5,)),
        TypeError, "each party in keep must be an integer, got 1.5"),
    "partial_trace keeping party True": (
        lambda: partial_trace(ghz(3), (True,)),
        TypeError, "each party in keep must be an integer, got True"),
    "labels_for(3.0)": (
        lambda: labels_for(3.0),
        TypeError, "n_qubits must be an integer, got 3.0"),
    "labels_for(True)": (
        lambda: labels_for(True),
        TypeError, "n_qubits must be an integer, got True"),
    "reduce_trace_then_split tracing party 1.0": (
        lambda: reduce_trace_then_split(ghz(4), 1.0, make_label((0,), (2, 3))),
        TypeError, "traced_party must be an integer, got 1.0"),
    "reduce_trace_then_split tracing party True": (
        lambda: reduce_trace_then_split(ghz(4), True, make_label((0,), (2, 3))),
        TypeError, "traced_party must be an integer, got True"),
    "molecule_pair_reduction of three parties": (
        lambda: molecule_pair_reduction(1, 0, 0, (0, 1, 2)),
        BadLabelError, "pair must name exactly two parties, got (0, 1, 2)"),
    "molecule_pair_reduction of one party": (
        lambda: molecule_pair_reduction(1, 0, 0, (0,)),
        BadLabelError, "pair must name exactly two parties, got (0,)"),
    "split_coefficient_matrix of 4 coefficients": (
        lambda: split_coefficient_matrix([1, 0, 0, 0], "A-BC"),
        WrongDimError, "expected 8 coefficients for three qubits, got 4"),
    "split_coefficient_matrix of an unknown split": (
        lambda: split_coefficient_matrix(BASIS0, "A-B"),
        ValueError, "split must be one of ('A-BC', 'B-CA', 'C-AB'), got 'A-B'"),
    "pure_density of 3 coefficients": (
        lambda: pure_density([1, 0, 0]),
        ValueError, "coefficient length 3 is not a power of 2"),
    "check_unit_norm with a NaN": (
        lambda: check_unit_norm([np.nan, 0]),
        NonFiniteError, "state vector contains NaN or infinite entries"),
    "product_pure with a 3-entry factor": (
        lambda: product_pure([1, 0, 0], [1, 0], [1, 0]),
        ValueError, "each factor must be a single-qubit (length-2) vector"),
    "omega_matrix of a 3-entry vector": (
        lambda: omega_matrix([1, 0, 0], 0.5),
        ValueError, "expected a single-qubit vector, got length 3"),
    "omega_matrix with gamma NaN": (
        lambda: omega_matrix([1, 0], math.nan),
        BadGammaError, "|gamma| must be <= 1, got nan"),
    "coherence_factor of an unnormalized vector": (
        lambda: coherence_factor([3, 4]),
        NotNormalizedError, "state vector is not normalized: |sum|c|^2 - 1| = 2.400e+01"),
    "coherence_factor of 3 entries": (
        lambda: coherence_factor([1, 1, 5]),
        NotNormalizedError, "state vector is not normalized: |sum|c|^2 - 1| = 2.600e+01"),
    "coherence_factor of 1 entry": (
        lambda: coherence_factor([1]),
        ValueError, "expected a single-qubit vector, got length 1"),
    "embed_bipartite of a 3-qubit state": (
        lambda: embed_bipartite(ghz(3), 1),
        ValueError, "embedding needs a two-qubit state, got dim 8"),
    "embed_bipartite with way True": (
        lambda: embed_bipartite(maximally_mixed(2), True),
        BadWayError, "way must be 1..6, got True"),
    "embed_bipartite with way 2.0": (
        lambda: embed_bipartite(maximally_mixed(2), 2.0),
        BadWayError, "way must be 1..6, got 2.0"),
    # n_qubits out of range is named before 2^n or its decimal is formed
    "loads_matrix with n_qubits 20000": (
        lambda: loads_matrix('{"schema": 1, "n_qubits": 20000, "re": [[1.0]]}'),
        ParseError, "'n_qubits' must be at most 29, got 20000: numpy indexes no larger 2^n x 2^n matrix"),
    "loads_matrix with n_qubits 10**8": (
        lambda: loads_matrix('{"schema": 1, "n_qubits": 100000000, "re": [[1.0]]}'),
        ParseError, "'n_qubits' must be at most 29, got 100000000: numpy indexes no larger 2^n x 2^n matrix"),
    # json's own limit on an integer literal's digits is a ParseError too
    "loads_matrix with a 5001-digit n_qubits": (
        lambda: loads_matrix('{"schema": 1, "n_qubits": ' + "1" * 5001 + ', "re": [[1.0]]}'),
        ParseError, "a number literal is too long: an integer has more than 4300 digits"),
    "loads_matrix with a 5001-digit entry": (
        lambda: loads_matrix('{"schema": 1, "n_qubits": 1, "re": [[' + "1" * 5001 + ', 0], [0, 0]]}'),
        ParseError, "a number literal is too long: an integer has more than 4300 digits"),
    **{f"{name}({n})": (lambda f=f, n=n: f(n), ValueError, message)
       for name, f in (("ghz", ghz), ("maximally_mixed", maximally_mixed))
       for n, message in ((-1, "n_qubits must be >= 0, got -1"),
                          (40, "n_qubits must be at most 29, got 40: numpy indexes no larger 2^n x 2^n matrix"),
                          (20000, "n_qubits must be at most 29, got 20000: numpy indexes no larger 2^n x 2^n matrix"))},
    # a qubit count is an integer, named when it is not, before numpy sees it
    **{f"{name}({n!r})": (lambda f=f, n=n: f(n), TypeError, f"n_qubits must be an integer, got {n!r}")
       for name, f in (("ghz", ghz), ("maximally_mixed", maximally_mixed))
       for n in (2.5, 3.0, True)},
    # one magnitude bound, max_float64 / (4 d^2), at every door a raw matrix comes in by
    "DensityMatrix with a part past the bound": (
        lambda: DensityMatrix(np.diag([1.0, 1e308]), 1),
        NonFiniteError, "matrix has a part of magnitude 1e+308, past the bound max_float64 / (4 d^2) = 1.1235582092889473e+307"),
    "hermitian_eigenvalues_stack with a part past the bound": (
        lambda: hermitian_eigenvalues_stack(np.full((1, 2, 2), 1e308)),
        NonFiniteError, "matrix has a part of magnitude 1e+308, past the bound max_float64 / (4 d^2) = 1.1235582092889473e+307"),
    "density_diagnostics with an imaginary part past the bound": (
        lambda: density_diagnostics(np.eye(2) - 1e308j * np.eye(2, k=1)),
        NonFiniteError, "matrix has a part of magnitude 1e+308, past the bound max_float64 / (4 d^2) = 1.1235582092889473e+307"),
    # before the Hermiticity test, which used to raise NotHermitianError here
    "hermitian_eigenvalues with a part past the bound": (
        lambda: hermitian_eigenvalues(np.array([[0.0, 1e308], [0.0, 0.0]])),
        NonFiniteError, "matrix has a part of magnitude 1e+308, past the bound max_float64 / (4 d^2) = 1.1235582092889473e+307"),
    "kron of factors whose product overflows": (
        lambda: kron(np.full((2, 2), 1e200), np.full((2, 2), 1e200)),
        NonFiniteError, "kron overflows float64: a product of the factors' entries is not finite"),
    "kron of complex factors whose product overflows": (
        lambda: kron(np.full((1, 1), 1e200 + 1e200j), np.full((1, 1), 1e200 + 1e200j)),
        NonFiniteError, "kron overflows float64: a product of the factors' entries is not finite"),
    "DensityMatrix of 20000 qubits": (
        lambda: DensityMatrix(np.eye(1), 20000),
        ValueError, "n_qubits must be at most 29, got 20000: numpy indexes no larger 2^n x 2^n matrix"),
    "DensityMatrix of -1 qubits": (
        lambda: DensityMatrix(np.eye(1), -1),
        ValueError, "n_qubits must be >= 0, got -1"),
    "ghz(1)": (
        lambda: ghz(1),
        ValueError, "a GHZ state needs at least 2 qubits"),
    "partial_transpose on side Z": (
        lambda: partial_transpose(np.eye(4) / 4, "Z"),
        ValueError, "side must be 'X' or 'Y', got 'Z'"),
    "hermitian_eigenvalues_stack of a 2-D array": (
        lambda: hermitian_eigenvalues_stack(np.eye(4)),
        ValueError, "expected a (k, n, n) stack, got shape (4, 4)"),
    "hermitian_eigenvalues of a 2x3 matrix": (
        lambda: hermitian_eigenvalues(np.zeros((2, 3))),
        ValueError, "expected a square matrix, got shape (2, 3)"),
    # labels_for owns the arity rule; it is checked before the tolerance
    "witness on 2 qubits": (
        lambda: witness(ghz(2)),
        WrongArityError, "reductions are defined for 3 or 4 qubits, not 2"),
    "witness on 2 qubits at a bad tol": (
        lambda: witness(ghz(2), tol=-1.0),
        WrongArityError, "reductions are defined for 3 or 4 qubits, not 2"),
    "witness_tripartite of 4 qubits": (
        lambda: witness_tripartite(ghz(4)),
        WrongArityError, "witness_tripartite needs 3 qubits, got 4"),
    "witness_quadripartite of 3 qubits": (
        lambda: witness_quadripartite(ghz(3)),
        WrongArityError, "witness_quadripartite needs 4 qubits, got 3"),
}


@pytest.mark.parametrize("case", list(GUARDS))
def test_guard(case):
    call, error, message = GUARDS[case]
    with pytest.raises(error) as exc:
        call()
    assert type(exc.value) is error
    assert str(exc.value) == message


def test_numpy_integers_pass_the_integer_rule():
    """The integer rule rejects bools and floats only: NumPy integers give
    what the same Python ints give."""
    assert make_label((np.int64(0),), (np.uint8(2),)) == make_label((0,), (2,))
    assert partial_trace(ghz(3), (np.int32(1),)).mat.tobytes() == partial_trace(ghz(3), (1,)).mat.tobytes()
    assert labels_for(np.int64(4)) == labels_for(4)
    label = make_label((0,), (2, 3))
    assert (reduce_trace_then_split(ghz(4), np.int64(1), label).mat.tobytes()
            == reduce_trace_then_split(ghz(4), 1, label).mat.tobytes())


# valid arguments, apart from ``tol``, of every exported name that takes a tol
TOL_TAKERS = {
    "DensityMatrix": lambda: (np.eye(8) / 8, 3),
    "validate_density": lambda: (np.eye(8) / 8, 3),
    "witness": lambda: (maximally_mixed(3),),
    "ppt_separable": lambda: (maximally_mixed(2),),
}


def _names_taking_tol() -> list[str]:
    names = []
    for name in dir(entcheck):
        obj = getattr(entcheck, name)
        if name.startswith("_") or not callable(obj):
            continue
        try:
            parameters = inspect.signature(obj).parameters
        except (TypeError, ValueError):  # builtin exception classes have no signature
            continue
        if "tol" in parameters:
            names.append(name)
    return names


def test_every_tolerance_taker_is_listed():
    """A new tol parameter must come with a check, and with a row above."""
    assert _names_taking_tol() == sorted(TOL_TAKERS)


@pytest.mark.parametrize("tol", [-1.0, 0.0, math.nan, math.inf])
@pytest.mark.parametrize("name", _names_taking_tol())
def test_every_tolerance_is_checked(name, tol):
    """A tolerance <= 0 turns roundoff into violations; NaN or infinity
    makes every check pass."""
    with pytest.raises(BadToleranceError, match=r" must be finite and > 0, got "):
        getattr(entcheck, name)(*TOL_TAKERS[name](), tol=tol)


REMOVED = [
    (ppt_separable, (maximally_mixed(2),), "label", None),
    (witness_tripartite, (maximally_mixed(3),), "tol", 1e-9),
    (witness_tripartite, (maximally_mixed(3),), "validate_reductions", True),
    (witness_quadripartite, (maximally_mixed(4),), "tol", 1e-9),
    (witness_quadripartite, (maximally_mixed(4),), "validate_reductions", True),
    (min_pt_eigenvalues, ([ghz(3)],), "validate_reductions", True),
    (necessary_condition_holds, (maximally_mixed(3),), "tol", 1e-9),
    (split_coefficient_matrix, (BASIS0, "A-BC"), "tol", 1e-9),
    (check_unit_norm, ([1, 0],), "tol", 1e-9),
    (pure_density, ([1, 0],), "tol", 1e-9),
    (product_pure, ([1, 0], [1, 0], [1, 0]), "tol", 1e-9),
    (omega_matrix, ([1, 0], 0.5), "tol", 1e-9),
    (pure_split_separable, (BASIS0, "A-BC"), "tol", 1e-10),
    (pure_fully_separable, (BASIS0,), "tol", 1e-10),
    (hermitian_eigenvalues, (np.eye(2),), "tol", 1e-9),
    (molecule_state, (0.5, 0.25, 0.25), "tol", 1e-9),
]


@pytest.mark.parametrize("fn, args, keyword, value", REMOVED,
                         ids=[f"{fn.__name__}-{keyword}" for fn, _, keyword, _ in REMOVED])
def test_fixed_values_take_no_argument(fn, args, keyword, value):
    """These functions use a fixed tolerance (DEFAULT_TOL or RANK_TOL), and
    ppt_separable's verdict has no label: the parameters that no caller set
    are gone, so passing one, even at its old default, is a TypeError."""
    with pytest.raises(TypeError, match=f"unexpected keyword argument '{keyword}'"):
        fn(*args, **{keyword: value})
