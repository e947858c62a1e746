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
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

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
    "hermiticity_deviation",
    "hermitian_eigenvalues",
    "hermitian_eigenvalues_stack",
    "kron",
    "partial_trace",
    "validate_density",
    "matrix_rank",
    "check_unit_norm",
    "pure_density",
]

DEFAULT_TOL = 1e-9   # validation tolerance; inputs are exact constructions or ~1e-15 file noise
RANK_TOL = 1e-10     # relative singular-value cutoff for numerical rank


class BadToleranceError(ValueError):
    """A tolerance is not a finite number greater than 0."""


def check_tolerance(tol, source: str) -> None:
    """Raise BadToleranceError, naming ``source``, unless ``tol`` is a
    finite number > 0.

    A tolerance <= 0 turns roundoff into violations and PPT passes into
    ENTANGLED verdicts; NaN or infinity makes every check pass.
    """
    if isinstance(tol, bool) or not 0.0 < tol < math.inf:
        raise BadToleranceError(f"{source} must be finite and > 0, got {tol!r}")


class NonFiniteError(ValueError):
    """Matrix or vector contains NaN or infinite entries."""


class BadSubsetError(ValueError):
    """Partial-trace subset is empty, repeats parties, or is not a strict subset."""


class NotNormalizedError(ValueError):
    """State-vector norm differs from 1 by more than the tolerance."""

    def __init__(self, deviation: float):
        super().__init__(f"state vector is not normalized: |sum|c|^2 - 1| = {deviation:.3e}")
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


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """A validated n-qubit state.

    Construct through :func:`validate_density` (or a state constructor);
    the dataclass itself checks only that ``tol`` is finite and > 0 and
    that the matrix is 2^n x 2^n, not the invariants.  The stored array
    is an immutable copy: float64 when no entry has a nonzero imaginary
    part, complex128 otherwise.

    Once checked, by :func:`validate_density` or by the first witness
    that needs it, a state also carries its negative mass, which
    witnesses add to their PPT tolerance; it is not a constructor
    argument.
    """

    mat: np.ndarray
    n_qubits: int
    tol: float = DEFAULT_TOL
    _negative_mass: float | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        check_tolerance(self.tol, "DensityMatrix tol")
        m = np.array(self.mat, dtype=complex if np.iscomplexobj(self.mat) else float)
        dim = 2 ** self.n_qubits
        if m.shape != (dim, dim):
            raise ValueError(f"{self.n_qubits} qubits need a matrix of shape ({dim}, {dim}), got {m.shape}")
        if m.dtype.kind == "c" and not m.imag.any():
            m = m.real.copy()
        m.setflags(write=False)
        object.__setattr__(self, "mat", m)

    @property
    def dim(self) -> int:
        return self.mat.shape[0]


def _as_matrix(mat) -> np.ndarray:
    m = np.asarray(mat, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise NonFiniteError("matrix contains NaN or infinite entries")
    return m


def hermiticity_deviation(mat: np.ndarray) -> float:
    """max |M[a,b] - conj(M[b,a])| over all entries."""
    return float(np.max(np.abs(mat - mat.conj().T)))


def _hermitian_part(stack: np.ndarray, adjoint: np.ndarray | None = None) -> np.ndarray:
    """H = (M + M^dag) / 2 of every matrix of a (..., d, d) stack, given
    ``adjoint`` = M^dag when the caller has it.  H is exactly Hermitian,
    and it is M bit for bit when M is."""
    if adjoint is None:
        adjoint = stack.conj().swapaxes(-1, -2)
    return (stack + adjoint) / 2.0


def _numeric(a) -> np.ndarray:
    """``a`` as a complex128 array if its dtype is complex, else as float64."""
    a = np.asarray(a)
    return a.astype(complex if np.iscomplexobj(a) else float, copy=False)


def _eigvalsh(stack: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of every matrix of a (..., d, d) stack of exactly
    Hermitian matrices.  A matrix with no nonzero imaginary entry goes to the
    real symmetric solver, in a complex stack too, so its eigenvalues do not
    depend on the dtype or the rest of the stack it comes in."""
    if stack.dtype.kind != "c":
        return np.linalg.eigvalsh(stack)
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
    as real symmetric.
    """
    a = _numeric(stack)
    if a.ndim != 3 or a.shape[1] != a.shape[2]:
        raise ValueError(f"expected a (k, n, n) stack, got shape {a.shape}")
    return _eigvalsh(_hermitian_part(a))


def hermitian_eigenvalues(mat, tol: float = DEFAULT_TOL) -> np.ndarray:
    """All eigenvalues of a Hermitian matrix, sorted ascending.

    Raises NotHermitianError if the matrix deviates from Hermiticity by
    more than ``tol``, NonFiniteError on NaN/Inf entries.
    """
    m = _as_matrix(mat)
    dev = hermiticity_deviation(m)
    if dev > tol:
        raise NotHermitianError(dev)
    return hermitian_eigenvalues_stack(m[None, :, :])[0]


def kron(a, b) -> np.ndarray:
    """Kronecker product: entry [(i*dB+j), (r*dB+s)] = A[i,r] * B[j,s]."""
    return np.kron(_as_matrix(a), _as_matrix(b))


def partial_trace(rho: DensityMatrix, keep: Sequence[int]) -> DensityMatrix:
    """Trace out every party not listed in ``keep``.

    ``keep`` is an ordered subset of ``range(rho.n_qubits)``; the result
    carries the kept parties in the order given.
    """
    kept = tuple(int(q) for q in keep)
    n = rho.n_qubits
    if not kept:
        raise BadSubsetError("keep must be nonempty")
    if len(set(kept)) != len(kept):
        raise BadSubsetError(f"keep repeats parties: {kept}")
    if any(q < 0 or q >= n for q in kept):
        raise BadSubsetError(f"keep {kept} outside parties 0..{n - 1}")
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
    negative eigenvalues) of every matrix in an (N, d, d) stack; and the
    Hermitian parts H = (M + M^dag) / 2 whose eigenvalues those are, so
    that a caller reads the reductions of H without forming it again.  A
    real stack stays real, and :func:`_eigvalsh` solves each H.
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


def _checked_stack_masses(mats: np.ndarray, tols, deviations=None) -> np.ndarray:
    """The negative mass of every matrix of an (N, d, d) stack, shape (N,),
    after checking each at ``tols`` (one, or one per matrix) from one stacked
    :func:`_invariant_deviations` pass (``deviations``, when the caller has
    it): Hermiticity, then trace, then positivity.  The first violation is
    raised with its index in the stack as ``position``.
    """
    herm, trace, min_eig, masses = _invariant_deviations(mats)[0] if deviations is None else deviations
    failed = np.maximum(np.maximum(herm, trace), -min_eig) > tols
    if failed.any():
        i = int(np.argmax(failed))
        tol = np.broadcast_to(tols, failed.shape)[i]
        if herm[i] > tol:
            exc = NotHermitianError(float(herm[i]))
        elif trace[i] > tol:
            exc = TraceNotOneError(float(trace[i]))
        else:
            exc = NotPSDError(float(min_eig[i]))
        exc.position = i
        raise exc
    return masses


def _stack_of(states: Sequence[DensityMatrix]) -> np.ndarray:
    """The (N, d, d) stack of the states' matrices; a view for one state."""
    return states[0].mat[None] if len(states) == 1 else np.array([s.mat for s in states])


def _checked_masses(states: Sequence[DensityMatrix], deviations=None) -> np.ndarray:
    """The negative mass of every state, shape (N,), after checking each
    state that has not been checked before.

    Those states go through :func:`_checked_stack_masses` together, each
    at its own ``tol`` (``deviations``, when the caller has that pass for
    them).  The first violation is raised, prefixed with ``state i: ``
    when N > 1; otherwise each of them keeps the negative mass measured.
    """
    todo = [s for s in states if s._negative_mass is None]
    if todo:
        try:
            masses = _checked_stack_masses(_stack_of(todo), np.array([s.tol for s in todo]), deviations)
        except ValidationError as exc:
            if len(states) > 1:
                exc.args = (f"state {states.index(todo[exc.position])}: {exc}",)
            raise
        for s, mass in zip(todo, masses.tolist()):
            object.__setattr__(s, "_negative_mass", mass)
    return np.array([s._negative_mass for s in states])


def validate_density(mat, n_qubits: int | None = None, tol: float = DEFAULT_TOL) -> DensityMatrix:
    """Check Hermiticity, unit trace and positive semidefiniteness.

    Returns the validated :class:`DensityMatrix` or raises the specific
    :class:`ValidationError` subclass carrying the measured violation.
    ``n_qubits`` is inferred from the dimension when omitted.  The state
    carries the negative mass this check measured, so a witness on it
    checks nothing again.
    """
    check_tolerance(tol, "validate_density tol")
    m = _as_matrix(mat)
    dim = m.shape[0]
    inferred = dim.bit_length() - 1
    if dim <= 0 or 2 ** inferred != dim:
        raise ValueError(f"dimension {dim} is not a power of 2")
    if n_qubits is None:
        n_qubits = inferred
    elif 2 ** n_qubits != dim:
        raise ValueError(f"dimension {dim} does not match n_qubits={n_qubits}")
    dm = DensityMatrix(m, n_qubits, tol)
    _checked_masses([dm])
    return dm


def matrix_rank(mat, tol: float = RANK_TOL) -> int:
    """Numerical rank: singular values above ``tol`` times the largest.

    Accepts rectangular matrices (the pure-state coefficient matrices
    are 2x4).
    """
    m = np.asarray(mat, dtype=complex)
    if m.ndim != 2:
        raise ValueError(f"expected a 2-d array, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise NonFiniteError("matrix contains NaN or infinite entries")
    s = np.linalg.svd(m, compute_uv=False)
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.count_nonzero(s > tol * s[0]))


def check_unit_norm(vec, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Return the coefficient vector as a flat complex array, checking unit norm."""
    v = np.asarray(vec, dtype=complex).reshape(-1)
    if not np.isfinite(v).all():
        raise NonFiniteError("state vector contains NaN or infinite entries")
    dev = abs(float(np.sum(np.abs(v) ** 2)) - 1.0)
    if dev > tol:
        raise NotNormalizedError(dev)
    return v


def pure_density(coeffs, tol: float = DEFAULT_TOL) -> DensityMatrix:
    """Rank-1 density matrix |psi><psi| of a normalized coefficient vector."""
    v = check_unit_norm(coeffs, tol)
    n = v.size.bit_length() - 1
    if 2 ** n != v.size:
        raise ValueError(f"coefficient length {v.size} is not a power of 2")
    return DensityMatrix(np.outer(v, v.conj()), n, tol)
