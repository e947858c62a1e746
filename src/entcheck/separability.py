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

from itertools import combinations
from typing import NamedTuple, Sequence

import numpy as np

from . import linalg
from .linalg import (RANK_TOL, DensityMatrix, ValidationError, _checked_mass, _eigvalsh, _flag, _measure, _numbers,
                     _state, _text, check_tolerance, check_unit_norm)
from .reductions import _LABELS, _PT_TABLES, ReductionKind, ReductionLabel, _arity, _gather, _label, _read_label

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


class PptVerdict(NamedTuple):
    """PPT decision for one 4x4 reduction; exact for a qubit pair.  A named
    tuple, so a witness builds each verdict without setting its fields one
    by one."""

    label: ReductionLabel | None
    min_pt_eigenvalue: float
    separable: bool
    tolerance_used: float


class WitnessReport(NamedTuple):
    """Verdicts for every reduction plus the overall conclusion.

    ``conclusion`` is ENTANGLED iff at least one reduction fails PPT;
    ``culprit`` is then the label with the most negative PT eigenvalue.
    INCONCLUSIVE never means separable.  A named tuple, like
    :class:`PptVerdict`: immutable, compared and hashed by its fields.
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


class SplitVerdict(NamedTuple):
    """Exact pure-state separability across one one-vs-two split; a named
    tuple, like :class:`PptVerdict`."""

    split: str
    separable: bool
    max_minor_modulus: float


def partial_transpose(sigma, side: str = "Y") -> np.ndarray:
    """Partial transpose of a 4x4 two-qubit matrix, or of a (..., 4, 4) stack.

    side="Y" transposes the second qubit: out[mn,rs] = in[ms,rn];
    side="X" the first: out[mn,rs] = in[rn,ms].  Involutive and
    trace/Hermiticity preserving; both sides have identical spectra.
    A real input gives a real result.  ``sigma`` holds numbers (:func:`~entcheck.linalg._numbers`).
    """
    m = _numbers(sigma, "sigma", None)
    if m.shape[-2:] != (4, 4):
        raise WrongDimError(f"sigma must be a 4x4 matrix or a (..., 4, 4) stack, got shape {m.shape}")
    t = m.reshape(m.shape[:-2] + (2, 2, 2, 2))
    side = _text(side, "side").upper()
    if side == "Y":
        return t.swapaxes(-3, -1).reshape(m.shape)
    if side == "X":
        return t.swapaxes(-4, -2).reshape(m.shape)
    raise ValueError(f"side must be 'X' or 'Y', got {side!r}")


def ppt_separable(sigma: DensityMatrix, tol: float | None = None) -> PptVerdict:
    """Exact separability of a validated two-qubit state via PPT.

    Only the Y-side transpose of the state's measured Hermitian part is
    diagonalized (the X side has the same spectrum), in real arithmetic for
    a real state, as the witness does.  As in :func:`witness`, the state is
    checked at its own ``tol``, eigenvalues down to -(tol + nu) count as
    nonnegative, nu its negative mass, and ``tolerance_used`` is tol + nu.
    The verdict's ``label`` is None.
    """
    if _state(sigma, "sigma").dim != 4:
        raise WrongDimError(f"sigma must be a 4x4 state for the PPT decision, got dim {sigma.dim}")
    tol = sigma.tol if tol is None else tol
    check_tolerance(tol, "ppt_separable tol")
    tol_used = tol + _checked_mass(sigma)
    min_eig = float(_eigvalsh(partial_transpose(sigma._measured[1], "Y"))[0])
    return PptVerdict(None, min_eig, min_eig >= -tol_used, tol_used)


def _pt_minima(herm: np.ndarray, n: int) -> np.ndarray:
    """(..., L) minimum PT eigenvalues of the reductions of a Hermitian part
    H of an n-qubit matrix, or of a (..., 2^n, 2^n) stack of them, in
    ``labels_for(n)`` order: one gather through the partially transposed
    table, which keeps an exactly Hermitian H's blocks exactly Hermitian, and
    one :func:`~entcheck.linalg._eigvalsh` of (..., L, 4, 4), whose rows
    depend neither on the dtype nor on the rest of the stack.

    No part of H passes max_float64 / (4 * 4^n), the bound of
    :class:`~entcheck.linalg.DensityMatrix` (a sweep's states, built from
    parameters in [0, 1], stay far under it), so no block entry passes
    max_float64 / (16 * 2^n) and nothing overflows.
    """
    return _eigvalsh(_gather(herm, _PT_TABLES[n]))[..., 0]


def min_pt_eigenvalues(states: Sequence[DensityMatrix]) -> np.ndarray:
    """Minimum partial-transpose eigenvalue of every reduction of every state.

    ``states`` is a nonempty sequence of 3-qubit or of 4-qubit states
    (the arity of the first); the result has shape (N, L) with columns in
    ``labels_for(n)`` order.  The values are the PT spectra of the
    reductions of each Hermitian part H = (M + M^dag) / 2, which is M
    itself for an exactly Hermitian M: one gather and one eigensolve for
    the whole stack, each row equal to the result for that state alone,
    and a real state reduced and solved in real arithmetic in any stack.

    The states not measured before are measured in one stacked pass, each
    with the deviations it has alone; then each state is checked at its own
    ``tol``, in order, the first violation raised with the prefix ``state i: ``
    when N > 1, and the measured H's are reduced.  The reductions get no
    check of their own; the PPT threshold is the caller's.  A non-sequence,
    or an element that is not a :class:`DensityMatrix`, raises TypeError.
    """
    try:
        count = len(states)
    except TypeError:
        raise TypeError(f"states must be a sequence of DensityMatrix, got {type(states).__name__}") from None
    if not count:
        raise ValueError("states must hold at least one state, got none")
    name = "each state in states"
    n = _arity(_state(next(iter(states)), name).n_qubits, name, state=True)  # every state has the first one's
    states = [_state(s, name, n) for s in states]
    _measure(*states)
    for i, s in enumerate(states):
        try:
            _checked_mass(s)
        except ValidationError as exc:
            if len(states) > 1:
                exc.args = (f"state {i}: {exc}",)
            raise
    return _pt_minima(np.array([s._measured[1] for s in states]), n)


def witness(rho: DensityMatrix, tol: float | None = None,
            validate_reductions: bool = True) -> WitnessReport:
    """Entanglement witness over every reduction of a 3- or 4-qubit state.

    It reads the PT spectra of the reductions of the measured Hermitian
    part H = (M + M^dag) / 2 of the state (measured here if it was not
    before), the values :func:`min_pt_eigenvalues` gives it in any stack.
    The state is checked at its own ``tol``, and a reduction fails PPT
    below -(tol + nu), where nu, the negative mass of rho, moves no
    reduction's PT spectrum by more than nu (README, "Numerical notes");
    ``tolerance_used`` is tol + nu.  With ``validate_reductions=False``
    nothing is checked or measured and nu is 0.  No reduction overflows,
    checked or not: :class:`~entcheck.linalg.DensityMatrix` bounds the
    state's entries.
    """
    labels = _LABELS[_arity(_state(rho, "rho").n_qubits, "rho", state=True)]
    tol = rho.tol if tol is None else tol
    check_tolerance(tol, "witness tol")
    tol_used = tol + _checked_mass(rho) if _flag(validate_reductions, "validate_reductions") else tol
    herm = linalg._hermitian_part(rho.mat) if rho._measured is None else rho._measured[1]
    values = _pt_minima(herm, rho.n_qubits).tolist()
    verdicts = tuple(PptVerdict(label, e, e >= -tol_used, tol_used) for label, e in zip(labels, values))
    worst = min(values)
    if worst < -tol_used:
        return WitnessReport(verdicts, ENTANGLED, labels[values.index(worst)])
    return WitnessReport(verdicts, INCONCLUSIVE, None)


def witness_tripartite(rho: DensityMatrix) -> WitnessReport:
    """:func:`witness` of a three-qubit state at its own ``tol``, over its 6
    reductions."""
    return witness(_state(rho, "rho", 3))


def witness_quadripartite(rho: DensityMatrix) -> WitnessReport:
    """:func:`witness` of a four-qubit state at its own ``tol``, over its 25
    reductions."""
    return witness(_state(rho, "rho", 4))


def split_coefficient_matrix(psi, split: str) -> np.ndarray:
    """2x4 coefficient matrix of a three-qubit pure state for one split.

    ``split`` is a one-vs-two label as :func:`parse_label` reads it, "-" or
    "," between the groups ("B-CA", "ca-b" and "B,AC" are one split); any
    other label raises BadLabelError.  Rows are indexed by the kept qubit:
    A-BC rows are (c_0jk ; c_1jk), B-CA rows (c_i0k ; c_i1k) with columns
    ordered (i,k), C-AB rows (c_ij0 ; c_ij1) with columns ordered (i,j).
    """
    v = check_unit_norm(psi, "psi", 8)
    label = _label(_read_label(split, 3, "split", dash=True), ReductionKind.ONE_VS_TWO, "split")
    return v.reshape(2, 2, 2).transpose(label.first + tuple(sorted(label.second))).reshape(2, 4)


def pure_split_separable(psi, split: str) -> SplitVerdict:
    """Exact split separability of a pure state via 2x2 minors.

    The state factors across the split iff the 2x4 coefficient matrix
    has rank < 2, i.e. every one of its six 2x2 minors vanishes: the
    largest modulus is compared with ``RANK_TOL``.
    """
    m = split_coefficient_matrix(psi, split)
    max_minor = max(
        abs(m[0, i] * m[1, j] - m[0, j] * m[1, i])
        for i, j in combinations(range(4), 2)
    )
    return SplitVerdict(split, bool(max_minor <= RANK_TOL), float(max_minor))


def pure_fully_separable(psi) -> bool:
    """True iff a three-qubit pure state factors across all three splits,
    i.e. is a product of three single-qubit states."""
    return all(pure_split_separable(psi, split).separable for split in PURE_SPLITS)


def necessary_condition_holds(rho: DensityMatrix) -> bool:
    """True iff every reduction passes PPT at the state's own ``tol``.

    Required for separability, but not sufficient: a True result does not
    certify that a mixed state is separable (bound entangled states pass).
    """
    return not witness(rho).entangled
