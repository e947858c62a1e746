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
    bell_pair,
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
    reduce_all_quadripartite,
    reduce_all_tripartite,
    reduce_split,
    reduce_split_channel,
    reduce_trace_then_split,
    split_coefficient_matrix,
    validate_density,
    witness,
    witness_quadripartite,
    witness_tripartite,
)
from entcheck.fileio import ParseError, density_diagnostics, loads_matrix
from entcheck.linalg import NotNormalizedError, check_unit_norm
from entcheck.reductions import WrongArityError, apply_reduction, make_label
from entcheck.separability import WrongDimError
from entcheck.states import BadGammaError, BadWayError, maximally_mixed, werner_embedded

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
    "molecule_pair_reduction of a one-vs-two label": (
        lambda: molecule_pair_reduction(1, 0, 0, parse_label("A,BC", 3)),
        BadLabelError, "label A,BC has kind one-vs-two, expected pair-trace"),
    "split_coefficient_matrix of 4 coefficients": (
        lambda: split_coefficient_matrix([1, 0, 0, 0], "A-BC"),
        WrongDimError, "expected 8 coefficients for three qubits, got 4"),
    # a split is read by the label rule, which owns the error
    "split_coefficient_matrix of a pair-trace split": (
        lambda: split_coefficient_matrix(BASIS0, "A-B"),
        BadLabelError, "label A,B has kind pair-trace, expected one-vs-two"),
    # quoted as the caller wrote it, not in the comma form the label rule reads
    "split_coefficient_matrix of a split naming D": (
        lambda: split_coefficient_matrix(BASIS0, "A-BCD"),
        BadLabelError, "unknown party 'D' in label 'A-BCD'; parties are ABC"),
    "split_coefficient_matrix of a two-vs-two split": (
        lambda: split_coefficient_matrix(BASIS0, "AB-CD"),
        BadLabelError, "unknown party 'D' in label 'AB-CD'; parties are ABC"),
    "split_coefficient_matrix of a three-group split": (
        lambda: split_coefficient_matrix(BASIS0, "A-B-C"),
        BadLabelError, "label 'A-B-C' must contain exactly one '-' or ','"),
    # a label or a split is a str, named when it is not, before a str method is called
    **{f"{name}({bad!r})": (lambda f=f, bad=bad: f(bad), TypeError, f"{param} must be a str, got {bad!r}")
       for name, f, param in (("parse_label", lambda bad: parse_label(bad, 3), "text"),
                              ("split_coefficient_matrix", lambda bad: split_coefficient_matrix(BASIS0, bad), "split"))
       for bad in (None, True, 1.5)},
    # min_pt_eigenvalues reads each state's private fields, so it takes DensityMatrix objects only
    "min_pt_eigenvalues of a 0-d array": (
        lambda: min_pt_eigenvalues(np.array(1.0)),
        TypeError, "states must be a sequence of DensityMatrix, got ndarray"),
    "min_pt_eigenvalues of a str": (
        lambda: min_pt_eigenvalues("x"),
        TypeError, "each state in states must be a DensityMatrix, got str"),
    "min_pt_eigenvalues of a state and a matrix": (
        lambda: min_pt_eigenvalues([ghz(3), ghz(3).mat]),
        TypeError, "each state in states must be a DensityMatrix, got ndarray"),
    "min_pt_eigenvalues of an empty array": (
        lambda: min_pt_eigenvalues(np.array([])),
        ValueError, "need at least one state to reduce"),
    "pure_density of 3 coefficients": (
        lambda: pure_density([1, 0, 0]),
        ValueError, "coefficient length 3 is not a power of 2"),
    "check_unit_norm with a NaN": (
        lambda: check_unit_norm([np.nan, 0]),
        NonFiniteError, "state vector contains NaN or infinite entries"),
    "product_pure with a 3-entry factor": (
        lambda: product_pure([1, 0, 0], [1, 0], [1, 0]),
        ValueError, "expected a single-qubit vector, got length 3"),
    "omega_matrix of a 3-entry vector": (
        lambda: omega_matrix([1, 0, 0], 0.5),
        ValueError, "expected a single-qubit vector, got length 3"),
    "omega_matrix with gamma NaN": (
        lambda: omega_matrix([1, 0], math.nan),
        BadGammaError, "|gamma| must be <= 1, got nan"),
    # a state parameter is a real number, named when it is not, never parsed from a str
    **{f"{f.__name__}{args!r}": (lambda f=f, args=args: f(*args),
                                 TypeError, f"{param} must be a real number, got {bad!r}")
       for f, args, param, bad in ((werner_embedded, (True,), "x", True),
                                   (werner_embedded, ("0.5",), "x", "0.5"),
                                   (molecule_state, (True, False, False), "p_ab", True),
                                   (molecule_state, ("0.5", "0.25", "0.25"), "p_ab", "0.5"),
                                   (molecule_state, (0.5, 0.5, True), "p_bc", True),
                                   (omega_matrix, ([1, 0], True), "gamma", True),
                                   (omega_matrix, ([1, 0], "0.5"), "gamma", "0.5"))},
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
        WrongArityError, "r must be a 2-qubit state, got 3 qubits"),
    # way follows the integer rule; only its range is BadWayError's
    "embed_bipartite with way True": (
        lambda: embed_bipartite(maximally_mixed(2), True),
        TypeError, "way must be an integer, got True"),
    "embed_bipartite with way 2.0": (
        lambda: embed_bipartite(maximally_mixed(2), 2.0),
        TypeError, "way must be an integer, got 2.0"),
    "embed_bipartite with way 7": (
        lambda: embed_bipartite(maximally_mixed(2), 7),
        BadWayError, "way must be 1..6, got 7"),
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
    "kron of a 2x3 factor": (
        lambda: kron(np.ones((2, 3)), np.eye(2)),
        ValueError, "expected a square matrix, got shape (2, 3)"),
    "kron of a NaN factor": (
        lambda: kron([[np.nan]], np.eye(2)),
        NonFiniteError, "matrix contains NaN or infinite entries"),
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
        WrongArityError, "rho must be a 3-qubit state, got 4 qubits"),
    "witness_quadripartite of 3 qubits": (
        lambda: witness_quadripartite(ghz(3)),
        WrongArityError, "rho must be a 4-qubit state, got 3 qubits"),
    # one state rule, linalg._state: a non-state is named by its parameter, a wrong arity by the count it needs
    **{f"{f.__name__} of a matrix": (lambda f=f, args=args: f(*args),
                                     TypeError, f"{param} must be a DensityMatrix, got ndarray")
       for f, args, param in ((witness, (np.eye(8) / 8,), "rho"),
                              (witness_tripartite, (np.eye(8) / 8,), "rho"),
                              (witness_quadripartite, (np.eye(16) / 16,), "rho"),
                              (necessary_condition_holds, (np.eye(8) / 8,), "rho"),
                              (ppt_separable, (np.eye(4) / 4,), "sigma"),
                              (min_pt_eigenvalues, ([np.eye(8) / 8],), "each state in states"),
                              (apply_reduction, (np.eye(8) / 8, make_label((0,), (1,))), "rho"),
                              (reduce_split, (np.eye(8) / 8, make_label((0,), (1, 2))), "rho"),
                              (reduce_split_channel, (np.eye(8) / 8, make_label((0,), (1, 2))), "rho"),
                              (reduce_trace_then_split, (np.eye(16) / 16, 3, make_label((0,), (1, 2))), "rho"),
                              (reduce_all_tripartite, (np.eye(8) / 8,), "rho"),
                              (reduce_all_quadripartite, (np.eye(16) / 16,), "rho"),
                              (partial_trace, (np.eye(8) / 8, (0,)), "rho"),
                              (embed_bipartite, (np.eye(4) / 4, 1), "r"))},
    **{f"{f.__name__} of {n} qubits": (lambda f=f, n=n, args=args: f(maximally_mixed(n), *args),
                                       WrongArityError, f"rho must be a {7 - n}-qubit state, got {n} qubits")
       for f, n, args in ((reduce_split, 4, (make_label((0,), (1, 2)),)),
                          (reduce_split_channel, 4, (make_label((0,), (1, 2)),)),
                          (reduce_trace_then_split, 3, (3, make_label((0,), (1, 2)))),
                          (reduce_all_tripartite, 4, ()),
                          (reduce_all_quadripartite, 3, ()))},
    # a label argument is a ReductionLabel, a side a str and keep a sequence, each named when it is not
    **{f"{f.__name__} of the str 'A,BC'": (lambda f=f, args=args: f(*args),
                                            TypeError, "label must be a ReductionLabel, got str")
       for f, args in ((apply_reduction, (ghz(3), "A,BC")),
                       (reduce_split, (ghz(3), "A,BC")),
                       (reduce_split_channel, (ghz(3), "A,BC")),
                       (reduce_trace_then_split, (ghz(4), 3, "A,BC")))},
    "partial_transpose on side 1": (
        lambda: partial_transpose(np.eye(4) / 4, 1),
        TypeError, "side must be a str, got 1"),
    "partial_trace keeping 0": (
        lambda: partial_trace(ghz(3), 0),
        TypeError, "keep must be a sequence of integers, got 0"),
    # a tolerance that is not a real number is a BadToleranceError naming where it came from
    "witness at tol 'x'": (
        lambda: witness(ghz(3), tol="x"),
        BadToleranceError, "witness tol must be finite and > 0, got 'x'"),
    "ppt_separable at tol [1e-9]": (
        lambda: ppt_separable(bell_pair(), [1e-9]),
        BadToleranceError, "ppt_separable tol must be finite and > 0, got [1e-09]"),
    "DensityMatrix at tol 'x'": (
        lambda: DensityMatrix(np.eye(8) / 8, 3, "x"),
        BadToleranceError, "DensityMatrix tol must be finite and > 0, got 'x'"),
    # an integer past float64 would overflow where the tolerance is added to
    "witness at tol 10**400": (
        lambda: witness(ghz(3), tol=10 ** 400),
        BadToleranceError, f"witness tol must be finite and > 0, got {10 ** 400}"),
    "loads_matrix with a tol of 401 digits": (
        lambda: loads_matrix('{"schema": 1, "n_qubits": 1, "re": [[1, 0], [0, 0]], "tol": 1' + "0" * 400 + "}"),
        ParseError, f"'tol' must be finite and > 0, got {10 ** 400}"),
    "validate_density at tol None": (
        lambda: validate_density(np.eye(8) / 8, 3, None),
        BadToleranceError, "validate_density tol must be finite and > 0, got None"),
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


def test_numpy_numbers_pass_the_real_rule():
    """The real-number rule rejects bools and strs only: NumPy floats and
    integers give what the same Python floats give."""
    assert werner_embedded(np.float32(0.5)).mat.tobytes() == werner_embedded(0.5).mat.tobytes()
    assert werner_embedded(np.int64(1)).mat.tobytes() == werner_embedded(1.0).mat.tobytes()
    assert (molecule_state(np.float32(0.5), np.int64(0), np.float64(0.5)).mat.tobytes()
            == molecule_state(0.5, 0.0, 0.5).mat.tobytes())
    assert omega_matrix([1, 0], np.float32(0.5)).tobytes() == omega_matrix([1, 0], 0.5).tobytes()
    assert omega_matrix([1, 0], np.int64(1)).tobytes() == omega_matrix([1, 0], 1.0).tobytes()


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
