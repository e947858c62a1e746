"""Dense linear algebra for few-qubit density matrices.

Everything operates on plain numpy arrays in the computational basis.
The composite index convention is big-endian: qubit 0 is the most
significant bit, so the three-qubit basis state |i j k> sits at
row 4*i + 2*j + k.  Every entrywise formula in this package is written
against that single convention.

Matrices here are at most 16x16; eigenvalues come from LAPACK's
two-sided Hermitian solver, or its real symmetric one for a matrix with
no imaginary part (the test suite cross-checks them against an
independent cyclic-Jacobi implementation and against hand-computed
spectra).
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from . import DEFAULT_TOL

__all__ = [
    "DEFAULT_TOL",
    "RANK_TOL",
    "BadToleranceError",
    "NonFiniteError",
    "BadSubsetError",
    "NotNormalizedError",
    "ValidationError",
    "NotHermitianError",
    "TraceNotOneError",
    "NotPSDError",
    "DensityMatrix",
    "check_tolerance",
    "hermitian_eigenvalues",
    "hermitian_eigenvalues_stack",
    "kron",
    "partial_trace",
    "validate_density",
    "check_unit_norm",
    "pure_density",
]

RANK_TOL = 1e-10     # cutoff for the largest 2x2 minor of a pure state's coefficient matrix
_FLOAT_MAX = float(np.finfo(float).max)
_MAX_QUBITS = 29  # 2^n x 2^n complex128 entries take 2^(2n+4) bytes, and numpy indexes fewer than 2^63


class BadToleranceError(ValueError):
    """A tolerance is not a finite number greater than 0."""


def check_tolerance(tol, source: str) -> None:
    """Raise BadToleranceError, naming ``source``, unless ``tol`` is a
    finite real number > 0 (:func:`_is_real`).

    A tolerance <= 0 turns roundoff into violations and PPT passes into
    ENTANGLED verdicts; NaN or infinity makes every check pass.
    """
    if not (_is_real(tol) and 0.0 < tol <= _FLOAT_MAX):  # an int past float64 is no tolerance either
        raise BadToleranceError(f"{source} must be finite and > 0, got {tol!r}")


class NonFiniteError(ValueError):
    """Matrix or vector holds a NaN, an infinity or an integer past float64, or
    a d x d matrix has a real or imaginary part past max_float64 / (4 d^2)."""


class BadSubsetError(ValueError):
    """Partial-trace subset breaks the party-set rule, or is not a strict subset."""


class NotNormalizedError(ValueError):
    """State-vector norm differs from 1 by more than the tolerance; the text names the vector."""

    def __init__(self, name: str, deviation: float):
        super().__init__(f"{name} is not normalized: |sum|c|^2 - 1| = {deviation:.3e}")
        self.deviation = deviation


class ValidationError(ValueError):
    """A density-matrix invariant failed; subclasses carry the measured violation."""


class NotHermitianError(ValidationError):
    def __init__(self, deviation: float):
        super().__init__(f"not Hermitian: max |M - M^dag| = {deviation:.3e}")
        self.deviation = deviation


class TraceNotOneError(ValidationError):
    def __init__(self, deviation: float):
        super().__init__(f"trace differs from 1 by {deviation:.3e}")
        self.deviation = deviation


class NotPSDError(ValidationError):
    def __init__(self, min_eigenvalue: float):
        super().__init__(f"not positive semidefinite: min eigenvalue = {min_eigenvalue:.3e}")
        self.min_eigenvalue = min_eigenvalue


class _Frozen:
    """A value whose ``__init__`` sets its fields through ``__dict__``, and
    which no later assignment or deletion changes."""

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class DensityMatrix(_Frozen):
    """A validated n-qubit state.

    The constructor is the one place where a matrix becomes a state: it
    checks that ``tol`` is finite and > 0, that ``n_qubits`` is an integer
    from 0 to 29 (:func:`_dimension`; a NumPy integer is stored as ``int``),
    that the matrix is 2^n x 2^n numbers (:func:`_numbers`) and that no real
    or imaginary part is NaN, infinite or past max_float64 / (4 d^2), raising
    :class:`NonFiniteError` (:func:`_check_magnitude`).  It does not check the
    invariants; construct through :func:`validate_density` (or a state
    constructor) for that.  The stored array is an immutable copy: float64
    when no entry has a nonzero imaginary part, complex128 otherwise.

    A plain immutable class: its fields cannot be assigned or deleted,
    states compare and hash by identity, and pickle and copy restore a
    state, measurement included, through its ``__dict__``, with ``mat``
    and the measured H read-only again.

    Once measured, by :func:`validate_density` or the first witness or
    stack that needs it, a state keeps its measurement (:func:`_measure`):
    its four deviations and its Hermitian part H, read-only like ``mat``,
    which every later check reads and every PPT kernel reduces.
    """

    def __init__(self, mat, n_qubits: int, tol: float = DEFAULT_TOL):
        check_tolerance(tol, "DensityMatrix tol")
        m = _qubit_matrix(mat, n_qubits)
        _check_magnitude(m, "mat")
        m = np.array(m.real if m.dtype.kind == "c" and not m.imag.any() else m)
        m.setflags(write=False)
        self.__dict__.update(mat=m, n_qubits=int(n_qubits), tol=tol, _measured=None)

    def __setstate__(self, state: dict) -> None:
        # unpickling and deepcopy rebuild the arrays writeable: a copy whose
        # entries could change would keep a measurement it no longer matches
        self.__dict__.update(state)
        self.mat.setflags(write=False)
        if self._measured is not None:
            self._measured[1].setflags(write=False)

    def __repr__(self) -> str:
        return f"DensityMatrix(mat={self.mat!r}, n_qubits={self.n_qubits!r}, tol={self.tol!r})"

    @property
    def dim(self) -> int:
        return self.mat.shape[0]


def _integer(value, name: str) -> int:
    """``value`` as an ``int``, never truncated: a bool or a non-integer raises
    TypeError naming ``name``, and a NumPy integer passes."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise TypeError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _parties(value, name: str, n: int, error: type[ValueError]) -> tuple[int, ...]:
    """The party-set rule: ``value``, a nonempty collection of distinct integer
    parties from 0 to n-1 (:func:`_integer`, which an int passes unchanged), as
    a tuple in its order.  A value that is no collection raises TypeError, and
    an empty one, a repeat or a party out of range ``error``, each naming ``name``."""
    try:
        parties = tuple(value)
    except TypeError:  # an int, None or a 0-d array
        raise TypeError(f"{name} must be a collection of parties, got {value!r}") from None
    parties = tuple([q if type(q) is int else _integer(q, f"each party in {name}") for q in parties])
    if not parties:
        raise error(f"{name} holds no party")
    if len(set(parties)) < len(parties):
        raise error(f"{name} repeats a party: {parties}")
    if not 0 <= min(parties) <= max(parties) < n:
        raise error(f"{name} holds a party outside 0..{n - 1}: {parties}")
    return parties


def _is_real(value) -> bool:
    """Whether ``value`` is a real number: an int or a float, NumPy's too, and not a bool."""
    return not isinstance(value, bool) and isinstance(value, (int, float, np.integer, np.floating))


def _real(value, name: str) -> float:
    """``value`` as a ``float``: a bool, a str or any other non-number raises
    TypeError naming ``name``, and a NumPy integer or float passes."""
    if not _is_real(value):
        raise TypeError(f"{name} must be a real number, got {value!r}")
    return float(value)


def _text(value, name: str) -> str:
    """``value``, a str: any other value raises TypeError naming ``name``."""
    if not isinstance(value, str):
        raise TypeError(f"{name} must be a str, got {value!r}")
    return value


def _flag(value, name: str) -> bool:
    """``value``, a bool or a NumPy bool, as a ``bool``: any other value, however
    truthy, raises TypeError naming ``name``."""
    if not isinstance(value, (bool, np.bool_)):
        raise TypeError(f"{name} must be a bool, got {value!r}")
    return bool(value)


class WrongArityError(ValueError):
    """State has the wrong number of qubits for the requested operation."""


def _state(value, name: str, n_qubits: int | None = None) -> DensityMatrix:
    """``value``, a :class:`DensityMatrix` of ``n_qubits`` qubits if given: any other
    value raises TypeError naming ``name``, and a state of another arity WrongArityError."""
    if not isinstance(value, DensityMatrix):
        raise TypeError(f"{name} must be a DensityMatrix, got {type(value).__name__}")
    if n_qubits is not None and value.n_qubits != n_qubits:
        raise WrongArityError(f"{name} must be a {n_qubits}-qubit state, got {value.n_qubits} qubits")
    return value


def _dimension(n_qubits: int, name: str) -> int:
    """2^n_qubits, for an integer 0 <= n_qubits <= 29 (:func:`_integer`):
    an integer out of range raises ValueError naming ``name``, before
    2^n_qubits or its decimal is formed."""
    n_qubits = _integer(n_qubits, name)
    if n_qubits < 0:
        raise ValueError(f"{name} must be >= 0, got {n_qubits}")
    if n_qubits > _MAX_QUBITS:
        raise ValueError(f"{name} must be at most {_MAX_QUBITS}, got {n_qubits}: "
                         "numpy indexes no larger 2^n x 2^n matrix")
    return 2 ** n_qubits


def _qubit_matrix(mat, n_qubits: int) -> np.ndarray:
    """``mat`` as :func:`_numbers` reads it, 2^n x 2^n for an integer
    0 <= n_qubits <= 29 (:func:`_dimension`): the shape check of :class:`DensityMatrix`."""
    dim = _dimension(n_qubits, "n_qubits")
    m = _numbers(mat, "mat")
    if len(m) != dim:
        raise ValueError(f"mat must be a ({dim}, {dim}) matrix for {n_qubits} qubits, got shape {m.shape}")
    return m


def _check_magnitude(stack: np.ndarray, name: str) -> None:
    """Raise NonFiniteError, naming ``name``, unless every real and imaginary
    part of a (..., d, d) stack is finite and at most max_float64 / (4 d^2).

    No density matrix comes near the bound, since |rho_ab| <= 1.  Under it
    nothing later overflows: M - M^dag, M + M^dag, the trace sum, the
    negative mass and every eigensolve stay under 4 d^2 times the largest
    part, and each entry of a reduction or of its partial transpose, a sum
    of 2^(n-2) entries, stays under max_float64 / (16 * 2^n).
    """
    bound = _FLOAT_MAX / (4 * max(stack.shape[-1], 1) ** 2)  # a 0 x 0 matrix has no part to bound
    if stack.dtype.kind == "c":
        stack = np.ascontiguousarray(stack).view(float)  # each entry as its two parts
    largest = float(np.abs(stack).max(initial=0.0))  # NaN if any part is NaN; 0.0 for an empty stack
    if not largest <= bound:
        if not math.isfinite(largest):
            raise NonFiniteError(f"{name} contains NaN or infinite entries")
        raise NonFiniteError(f"{name} has a part of magnitude {largest}, "
                             f"past the bound max_float64 / (4 d^2) = {bound}")


def _hermitian_part(stack: np.ndarray, adjoint: np.ndarray | None = None) -> np.ndarray:
    """H = (M + M^dag) / 2 of every matrix of a (..., d, d) stack, given
    ``adjoint`` = M^dag when the caller has it.  H is exactly Hermitian,
    and it is M bit for bit when M is."""
    if adjoint is None:
        adjoint = stack.conj().swapaxes(-1, -2)
    return (stack + adjoint) / 2.0


_SHAPES = {1: "a flat sequence of numbers", 2: "a square matrix", 3: "a (k, n, n) stack of square matrices"}


def _numbers(value, name: str, ndim: int | None = 2) -> np.ndarray:
    """``value`` as float64, or complex128 when it is complex, of the shape
    ``_SHAPES[ndim]`` names (any if None).  Each error names ``name``: a bool,
    str or bytes dtype, or an object array of other than real (:func:`_is_real`)
    or complex numbers, raises TypeError; a ragged sequence or another shape
    ValueError; an integer or a longdouble past float64 NonFiniteError.  A
    numeric dtype passes on its dtype alone, float64 and complex128 uncast."""
    try:
        a = np.asarray(value)
    except ValueError:  # numpy's "inhomogeneous shape"
        raise ValueError(f"{name} must be {_SHAPES.get(ndim, 'an array')}, got a ragged sequence") from None
    kind = a.dtype.kind
    if kind == "O":  # numpy's dtype for a Python int past int64, and for an entry that is no number
        bad = [x for x in a.flat if not (_is_real(x) or isinstance(x, (complex, np.complexfloating)))]
        if bad:
            raise TypeError(f"{name} must hold numbers, got {type(bad[0]).__name__}")
        kind = "c" if any(isinstance(x, (complex, np.complexfloating)) for x in a.flat) else "f"
    elif kind not in "fciu":
        raise TypeError(f"{name} must hold numbers, got dtype {a.dtype}")
    target = complex if kind == "c" else float
    if a.dtype != target:
        try:
            with np.errstate(over="raise"):  # numpy warns, and makes inf, where a longdouble passes float64
                a = a.astype(target)
        except OverflowError:  # an object array's Python int past float64
            raise NonFiniteError(f"{name} holds an integer past float64") from None
        except FloatingPointError:
            raise NonFiniteError(f"{name} holds an entry past float64") from None
    if ndim is not None and (a.ndim != ndim or (ndim > 1 and a.shape[-1] != a.shape[-2])):
        raise ValueError(f"{name} must be {_SHAPES[ndim]}, got shape {a.shape}")
    return a


def _eigvalsh(stack: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of every matrix of a (..., d, d) stack of exactly
    Hermitian matrices.  A matrix with no nonzero imaginary entry goes to the
    real symmetric solver, in a complex stack too, so its eigenvalues do not
    depend on the dtype or the rest of the stack it comes in."""
    if stack.dtype.kind != "c":
        return np.linalg.eigvalsh(stack)
    if stack.ndim == 2:
        return np.linalg.eigvalsh(stack if stack.imag.any() else stack.real)
    nonreal = stack.imag.any(axis=(-2, -1))
    flags = nonreal.ravel().tolist()  # all() and any() of a list beat ndarray's on a few entries
    if all(flags):
        return np.linalg.eigvalsh(stack)
    if not any(flags):
        return np.linalg.eigvalsh(stack.real)
    out = np.empty(stack.shape[:-1])
    out[~nonreal] = np.linalg.eigvalsh(stack.real[~nonreal])
    out[nonreal] = np.linalg.eigvalsh(stack[nonreal])
    return out


def hermitian_eigenvalues_stack(stack: np.ndarray) -> np.ndarray:
    """Eigenvalues of a stack of Hermitian matrices, shape (k, n, n) -> (k, n).

    No Hermiticity check; each matrix is symmetrized first so callers may
    pass arrays with roundoff-level asymmetry.  Ascending per matrix.  A
    real stack stays real, and a matrix with no imaginary part is solved
    as real symmetric.  ``stack`` holds numbers (:func:`_numbers`) under
    the bound of :class:`DensityMatrix` (:func:`_check_magnitude`).
    """
    a = _numbers(stack, "stack", 3)
    _check_magnitude(a, "stack")
    return _eigvalsh(_hermitian_part(a))


def hermitian_eigenvalues(mat) -> np.ndarray:
    """All eigenvalues of a Hermitian matrix, sorted ascending: checked and
    solved as :func:`hermitian_eigenvalues_stack` checks and solves a stack
    of one, and then a deviation max |M - M^dag| beyond ``DEFAULT_TOL``
    raises NotHermitianError."""
    m = _numbers(mat, "mat")
    _check_magnitude(m, "mat")
    values = _eigvalsh(_hermitian_part(m[None]))[0]
    dev = float(np.abs(m - m.conj().T).max(initial=0.0))  # under the bound, M - M^dag stays finite
    if dev > DEFAULT_TOL:
        raise NotHermitianError(dev)
    return values


def kron(a, b) -> np.ndarray:
    """Kronecker product: entry [(i*dB+j), (r*dB+s)] = A[i,r] * B[j,s];
    float64 for real factors, complex128 if either factor is complex.
    Each factor is a square matrix of numbers (:func:`_numbers`); a NaN or
    infinity in one, or a product entry past float64, raises NonFiniteError."""
    a, b = _numbers(a, "a"), _numbers(b, "b")
    for m, name in ((a, "a"), (b, "b")):
        if not np.isfinite(m).all():
            raise NonFiniteError(f"{name} contains NaN or infinite entries")
    with np.errstate(over="ignore"):
        out = np.kron(a, b)
    if not np.isfinite(out).all():
        raise NonFiniteError("kron overflows float64: a product of the factors' entries is not finite")
    return out


def partial_trace(rho: DensityMatrix, keep: Sequence[int]) -> DensityMatrix:
    """Trace out every party not listed in ``keep``.

    ``keep`` is an ordered strict subset of ``range(rho.n_qubits)``
    (:func:`_parties`); the result carries the kept parties in the order given.
    """
    n = _state(rho, "rho").n_qubits
    kept = _parties(keep, "keep", n, BadSubsetError)
    if len(kept) >= n:
        raise BadSubsetError("keep must be a strict subset of the parties")

    t = rho.mat.reshape((2,) * (2 * n))
    # einsum integer subscripts: traced parties share one index on ket and bra
    in_sub = list(range(n)) + [q + n if q in kept else q for q in range(n)]
    out_sub = [q for q in kept] + [q + n for q in kept]
    reduced = np.einsum(t, in_sub, out_sub)
    d = 2 ** len(kept)
    return DensityMatrix(reduced.reshape(d, d), len(kept), rho.tol)


def _invariant_deviations(stack: np.ndarray) -> tuple[tuple[np.ndarray, ...], np.ndarray]:
    """Hermiticity deviation max |M - M^dag|, trace deviation |tr M - 1|,
    minimum eigenvalue and negative mass (the summed magnitude of the
    negative eigenvalues) of every matrix in an (N, d, d) stack, and the
    Hermitian parts H = (M + M^dag) / 2 :func:`_eigvalsh` solved for them,
    which a caller reduces without forming H again.  A real stack stays real.
    """
    adjoint = stack.conj().swapaxes(-1, -2)
    herm = np.abs(stack - adjoint).max(axis=(-2, -1))
    # the real and imaginary parts of the trace are summed apart, so a real
    # matrix's trace rounds alike in either dtype; hypot rounds as Python's
    # abs(complex), and np.abs may not
    diagonal = np.diagonal(stack, axis1=-2, axis2=-1)
    trace = np.hypot(diagonal.real.sum(axis=-1) - 1.0, diagonal.imag.sum(axis=-1))
    h = _hermitian_part(stack, adjoint)
    spectra = _eigvalsh(h)
    return (herm, trace, spectra[..., 0], np.maximum(-spectra, 0.0).sum(axis=-1)), h


def _matrix_deviations(mat: np.ndarray) -> tuple[tuple[float, float, float, float], np.ndarray]:
    """The four :func:`_invariant_deviations` of one (d, d) matrix as Python
    floats, and its H, from the stacked pass's numpy operations on the matrix
    itself, so each equals its row of any stack bit for bit."""
    adjoint = mat.conj().T
    herm = float(np.abs(mat - adjoint).max())
    diagonal = mat.diagonal()
    if mat.dtype.kind == "c":  # abs(complex) and np.hypot both round as the C library's hypot
        trace = abs(complex(float(diagonal.real.sum()) - 1.0, float(diagonal.imag.sum())))
    else:
        trace = abs(float(diagonal.sum()) - 1.0)
    h = _hermitian_part(mat, adjoint)
    spectrum = _eigvalsh(h)
    min_eig = float(spectrum[0])
    # with no negative eigenvalue every term of the stacked sum is +0.0
    mass = 0.0 if min_eig >= 0.0 else float(np.maximum(-spectrum, 0.0).sum())
    return (herm, trace, min_eig, mass), h


def _violation(asym: float, trace: float, min_eig: float, tol: float) -> ValidationError | None:
    """The error for the first invariant that deviations beyond ``tol`` break,
    in the order Hermiticity, trace, positivity; None when none is broken.
    A NaN deviation breaks its invariant."""
    if not asym <= tol:
        return NotHermitianError(asym)
    if not trace <= tol:
        return TraceNotOneError(trace)
    if not -min_eig <= tol:
        return NotPSDError(min_eig)
    return None


def _checked_stack(mats: np.ndarray, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """The negative masses, shape (N,), and Hermitian parts of an (N, d, d)
    stack from one :func:`_invariant_deviations` pass, each matrix checked at
    ``tol``: the first :func:`_violation` in the stack is raised.  The sweep's check."""
    (asym, trace, min_eig, masses), herm = _invariant_deviations(mats)
    failed = ~(np.maximum(np.maximum(asym, trace), -min_eig) <= tol)  # NaN fails
    if failed.any():
        i = int(np.argmax(failed))
        raise _violation(float(asym[i]), float(trace[i]), float(min_eig[i]), tol)
    return masses, herm


def _measure(*states: DensityMatrix) -> tuple[tuple[float, float, float, float], np.ndarray]:
    """Measure each state not measured before, one alone or more in one stacked
    pass (equal bit for bit), and keep its deviations and a copy of its H on it,
    read-only and in its own dtype; return the first state's measurement."""
    todo = [s for s in states if s._measured is None]
    if len(todo) > 1:
        deviations, herm = _invariant_deviations(np.array([s.mat for s in todo]))
        measured = zip(zip(*(dev.tolist() for dev in deviations)), herm)
    else:
        measured = [_matrix_deviations(s.mat) for s in todo]
    for s, (deviations, h) in zip(todo, measured):
        h = np.array(h if h.dtype == s.mat.dtype else h.real)  # its own buffer, not a row of the stack
        h.setflags(write=False)
        s.__dict__["_measured"] = (deviations, h)
    return states[0]._measured


def _checked_mass(rho: DensityMatrix) -> float:
    """rho's negative mass, after checking its measurement at its own ``tol``:
    a state that breaks an invariant raises its :func:`_violation` on every call."""
    (asym, trace, min_eig, mass), _ = _measure(rho)
    exc = _violation(asym, trace, min_eig, rho.tol)
    if exc is not None:
        raise exc
    return mass


def validate_density(mat, n_qubits: int | None = None, tol: float = DEFAULT_TOL) -> DensityMatrix:
    """Check Hermiticity, unit trace and positive semidefiniteness.

    Returns the validated :class:`DensityMatrix` or raises the specific
    :class:`ValidationError` subclass carrying the measured violation.
    ``n_qubits``, when omitted, is inferred from the row count of the matrix
    as :func:`_numbers` reads it, and the matrix goes through the
    :class:`DensityMatrix` constructor.  The state keeps the measurement
    this check read, and a witness reduces its H.
    """
    check_tolerance(tol, "validate_density tol")
    if n_qubits is None:  # from the row count of what the rule reads
        mat = _numbers(mat, "mat")
        n_qubits = max(len(mat), 1).bit_length() - 1
    dm = DensityMatrix(mat, n_qubits, tol)
    _checked_mass(dm)
    return dm


def check_unit_norm(vec, name: str = "vec", length: int | None = None) -> np.ndarray:
    """``vec`` as a complex array: a flat sequence of numbers (:func:`_numbers`),
    finite, of ``length`` entries, or a power of 2 of them when ``length``
    is None, with unit norm to ``DEFAULT_TOL``.  Every error names ``name``.
    The norm does not overflow: an entry past about 1.3e154 gives a
    deviation of inf."""
    v = _numbers(vec, name, 1).astype(complex, copy=False)
    if not (v.size > 0 and not v.size & (v.size - 1) if length is None else v.size == length):  # a power of 2
        raise ValueError(f"{name} must have {length or 'a power of 2'} entries, got {v.size}")
    if not np.isfinite(v).all():
        raise NonFiniteError(f"{name} contains NaN or infinite entries")
    with np.errstate(over="ignore"):
        dev = abs(float(np.sum(np.abs(v) ** 2)) - 1.0)
    if dev > DEFAULT_TOL:
        raise NotNormalizedError(name, dev)
    return v


def pure_density(coeffs) -> DensityMatrix:
    """Rank-1 density matrix |psi><psi| of a normalized coefficient vector."""
    v = check_unit_norm(coeffs, "coeffs")
    return DensityMatrix(np.outer(v, v.conj()), v.size.bit_length() - 1)
