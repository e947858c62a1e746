"""Partial transposition, the exact 2x2 PPT decision, reduction-set
entanglement witnesses, and exact separability for three-qubit pure states.

For a pair of qubits, positivity of the partial transpose is necessary
and sufficient for separability, so each 4x4 reduction gets an exact
verdict.  The witness over a reduction set is one-sided for mixed
states: a failed reduction certifies entanglement of the full state,
while an all-clear is INCONCLUSIVE, never a separability certificate.
For pure three-qubit states the decision is exact and is implemented
directly on the coefficient vector through 2x4 rank tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Sequence

import numpy as np

from .linalg import (
    DEFAULT_TOL,
    RANK_TOL,
    DensityMatrix,
    _checked_masses,
    _eigvalsh,
    _hermitian_part,
    _numeric,
    check_tolerance,
    check_unit_norm,
    hermitian_eigenvalues_stack,
)
from .reductions import _PT_TABLES, ReductionLabel, WrongArityError, _gather, _state_stack, labels_for

__all__ = [
    "ENTANGLED",
    "INCONCLUSIVE",
    "WrongDimError",
    "PptVerdict",
    "WitnessReport",
    "SplitVerdict",
    "PURE_SPLITS",
    "partial_transpose",
    "ppt_separable",
    "min_pt_eigenvalues",
    "witness_tripartite",
    "witness_quadripartite",
    "witness",
    "split_coefficient_matrix",
    "pure_split_separable",
    "pure_fully_separable",
    "necessary_condition_holds",
]

ENTANGLED = "ENTANGLED"
INCONCLUSIVE = "INCONCLUSIVE"

PURE_SPLITS = ("A-BC", "B-CA", "C-AB")


class WrongDimError(ValueError):
    """Matrix dimension does not match the operation (4x4 expected)."""


@dataclass(frozen=True)
class PptVerdict:
    """PPT decision for one 4x4 reduction; exact for a qubit pair."""

    label: ReductionLabel | None
    min_pt_eigenvalue: float
    separable: bool
    tolerance_used: float


@dataclass(frozen=True)
class WitnessReport:
    """Verdicts for every reduction plus the overall conclusion.

    ``conclusion`` is ENTANGLED iff at least one reduction fails PPT;
    ``culprit`` is then the label with the most negative PT eigenvalue.
    INCONCLUSIVE never means separable.
    """

    verdicts: tuple[PptVerdict, ...]
    conclusion: str
    culprit: ReductionLabel | None

    @property
    def entangled(self) -> bool:
        return self.conclusion == ENTANGLED

    @property
    def min_pt_eigenvalue(self) -> float:
        return min(v.min_pt_eigenvalue for v in self.verdicts)


@dataclass(frozen=True)
class SplitVerdict:
    """Exact pure-state separability across one one-vs-two split."""

    split: str
    separable: bool
    max_minor_modulus: float


def partial_transpose(sigma, side: str = "Y") -> np.ndarray:
    """Partial transpose of a 4x4 two-qubit matrix, or of a (..., 4, 4) stack.

    side="Y" transposes the second qubit: out[mn,rs] = in[ms,rn];
    side="X" the first: out[mn,rs] = in[rn,ms].  Involutive and
    trace/Hermiticity preserving; both sides have identical spectra.
    A real input gives a real result.
    """
    m = _numeric(sigma)
    if m.shape[-2:] != (4, 4):
        raise WrongDimError(f"partial transpose is defined on 4x4 matrices, got {m.shape}")
    t = m.reshape(m.shape[:-2] + (2, 2, 2, 2))
    side = side.upper()
    if side == "Y":
        return t.swapaxes(-3, -1).reshape(m.shape)
    if side == "X":
        return t.swapaxes(-4, -2).reshape(m.shape)
    raise ValueError(f"side must be 'X' or 'Y', got {side!r}")


def ppt_separable(sigma: DensityMatrix, tol: float | None = None,
                  label: ReductionLabel | None = None) -> PptVerdict:
    """Exact separability of a validated two-qubit state via PPT.

    Only the Y-side transpose is diagonalized; the X-side spectrum is
    identical, and a real state's is solved in real arithmetic, as the
    witness solves it.  Eigenvalues down to -tol count as nonnegative, so
    boundary states classify as separable.
    """
    if sigma.dim != 4:
        raise WrongDimError(f"PPT decision is defined on 4x4 states, got dim {sigma.dim}")
    if tol is None:
        tol = sigma.tol
    check_tolerance(tol, "ppt_separable tol")
    pt = partial_transpose(sigma.mat, "Y")
    min_eig = float(hermitian_eigenvalues_stack(pt[None, :, :])[0, 0])
    return PptVerdict(label, min_eig, min_eig >= -tol, tol)


def _stack_pt_minima(herm: np.ndarray, n: int) -> np.ndarray:
    """(N, L) minimum PT eigenvalues of an (N, 2^n, 2^n) stack of Hermitian
    parts of n-qubit matrices, columns in ``labels_for(n)`` order: one
    gather through the partially transposed table and one eigensolve of
    (N, L, 4, 4).  Checks nothing.

    The table sums the transposed entries of a block's entry (a, b) into
    its entry (b, a), in the same order, and real diagonal entries into
    its diagonal, so every block gathered from an exactly Hermitian
    ``herm`` (as :func:`~entcheck.linalg._hermitian_part` makes it) is
    exactly Hermitian and goes to the eigensolver as it is.  A real
    ``herm`` gives real blocks, and :func:`~entcheck.linalg._eigvalsh`
    solves every block without an imaginary part as real symmetric, so a
    block's minimum depends neither on the dtype nor on the rest of the
    stack.
    """
    return _eigvalsh(_gather(herm, _PT_TABLES[n]))[..., 0]


def _pt_minima(states: Sequence[DensityMatrix], validate: bool) -> tuple[np.ndarray, np.ndarray]:
    """:func:`_stack_pt_minima` of the Hermitian parts of states of one arity,
    and their (N,) negative masses after the input check; the masses are
    zero without ``validate``."""
    mats, n = _state_stack(states)
    masses = _checked_masses(states) if validate else np.zeros(len(states))
    return _stack_pt_minima(_hermitian_part(mats), n), masses


def min_pt_eigenvalues(states: Sequence[DensityMatrix], validate_reductions: bool = True) -> np.ndarray:
    """Minimum partial-transpose eigenvalue of every reduction of every state.

    ``states`` is a nonempty sequence of 3-qubit or of 4-qubit states
    (one arity per call); the result has shape (N, L) with columns in
    ``labels_for(n)`` order.  The values are the PT spectra of the
    reductions of each Hermitian part H = (M + M^dag) / 2, which is M
    itself for an exactly Hermitian M.  The whole stack is one gather
    of the partially transposed reductions of H and one eigensolve, and
    each row equals the result for that state alone.  A state with a real
    matrix (every named family, and pure states with real amplitudes) is
    reduced and solved in real arithmetic, in a stack with complex states
    too.

    With ``validate_reductions`` each state not yet checked (by
    :func:`~entcheck.linalg.validate_density` or an earlier call) is
    first checked at its own ``tol``, all in one stacked pass; the
    reductions get no check of their own (see :func:`witness`).  The PPT
    threshold is left to the caller.
    """
    return _pt_minima(states, validate_reductions)[0]


def witness(rho: DensityMatrix, tol: float | None = None,
            validate_reductions: bool = True) -> WitnessReport:
    """Entanglement witness over every reduction of a 3- or 4-qubit state.

    It forms the Hermitian part H = (M + M^dag) / 2 of the state's
    matrix M once and reads the PT spectra of the reductions of H.  A
    reduction fails PPT below -(tol + nu), where nu, the negative mass
    of rho (the summed magnitude of its negative eigenvalues), moves no
    reduction's PT spectrum by more than nu (README, "Numerical notes");
    ``tolerance_used`` is tol + nu.  A state checked before, by
    :func:`~entcheck.linalg.validate_density` or an earlier witness,
    carries its nu; any other is first checked at its own ``tol``, which
    measures it.  With ``validate_reductions=False`` nothing is checked
    and nu is 0.
    """
    if rho.n_qubits not in (3, 4):
        raise WrongArityError(f"witness is defined for 3 or 4 qubits, not {rho.n_qubits}")
    if tol is None:
        tol = rho.tol
    check_tolerance(tol, "witness tol")
    labels = labels_for(rho.n_qubits)
    min_eigs, masses = _pt_minima([rho], validate_reductions)
    values, tol_used = min_eigs[0].tolist(), tol + float(masses[0])
    verdicts = tuple(
        PptVerdict(label, e, e >= -tol_used, tol_used)
        for label, e in zip(labels, values)
    )
    worst = int(np.argmin(min_eigs[0]))
    if values[worst] < -tol_used:
        return WitnessReport(verdicts, ENTANGLED, labels[worst])
    return WitnessReport(verdicts, INCONCLUSIVE, None)


def witness_tripartite(rho: DensityMatrix, tol: float | None = None,
                       validate_reductions: bool = True) -> WitnessReport:
    """Entanglement witness over the 6 reductions of a three-qubit state;
    tolerance and checks as in :func:`witness`."""
    if rho.n_qubits != 3:
        raise WrongArityError(f"witness_tripartite needs 3 qubits, got {rho.n_qubits}")
    return witness(rho, tol, validate_reductions)


def witness_quadripartite(rho: DensityMatrix, tol: float | None = None,
                          validate_reductions: bool = True) -> WitnessReport:
    """Entanglement witness over the 25 reductions of a four-qubit state;
    tolerance and checks as in :func:`witness`."""
    if rho.n_qubits != 4:
        raise WrongArityError(f"witness_quadripartite needs 4 qubits, got {rho.n_qubits}")
    return witness(rho, tol, validate_reductions)


def split_coefficient_matrix(psi, split: str, tol: float = DEFAULT_TOL) -> np.ndarray:
    """2x4 coefficient matrix of a three-qubit pure state for one split.

    Rows are indexed by the kept qubit: A-BC rows are (c_0jk ; c_1jk),
    B-CA rows (c_i0k ; c_i1k) with columns ordered (i,k), C-AB rows
    (c_ij0 ; c_ij1) with columns ordered (i,j).
    """
    v = check_unit_norm(psi, tol)
    if v.size != 8:
        raise WrongDimError(f"expected 8 coefficients for three qubits, got {v.size}")
    t = v.reshape(2, 2, 2)
    if split == "A-BC":
        return t.reshape(2, 4)
    if split == "B-CA":
        return t.transpose(1, 0, 2).reshape(2, 4)
    if split == "C-AB":
        return t.transpose(2, 0, 1).reshape(2, 4)
    raise ValueError(f"split must be one of {PURE_SPLITS}, got {split!r}")


def pure_split_separable(psi, split: str, tol: float = RANK_TOL) -> SplitVerdict:
    """Exact split separability of a pure state via 2x2 minors.

    The state factors across the split iff the 2x4 coefficient matrix
    has rank < 2, i.e. every one of its six 2x2 minors vanishes.
    """
    m = split_coefficient_matrix(psi, split)
    max_minor = max(
        abs(m[0, i] * m[1, j] - m[0, j] * m[1, i])
        for i, j in combinations(range(4), 2)
    )
    return SplitVerdict(split, bool(max_minor <= tol), float(max_minor))


def pure_fully_separable(psi, tol: float = RANK_TOL) -> bool:
    """True iff a three-qubit pure state factors across all three splits,
    i.e. is a product of three single-qubit states."""
    return all(pure_split_separable(psi, split, tol).separable for split in PURE_SPLITS)


def necessary_condition_holds(rho: DensityMatrix, tol: float | None = None) -> bool:
    """True iff every reduction passes PPT.

    Required for separability, but not sufficient: a True result does not
    certify that a mixed state is separable (bound entangled states pass).
    """
    return not witness(rho, tol).entangled
