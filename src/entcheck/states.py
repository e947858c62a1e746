"""Constructors for the named few-qubit state families.

All constructors emit exact dyadic-rational entries (no floating noise
beyond 1/sqrt(2) factors that cancel in the density matrix), so their
outputs validate at very tight tolerances.  The GHZ, maximally mixed,
Werner, molecule and UPB states are real and built in float64; an
embedding keeps the dtype of the state it embeds.
"""

from __future__ import annotations

import numpy as np

from .linalg import (
    DEFAULT_TOL,
    DensityMatrix,
    check_tolerance,
    check_unit_norm,
    pure_density,
)
from .reductions import _TABLES, BadLabelError, ReductionKind, ReductionLabel, make_label, reduce_pair

__all__ = [
    "OutOfRangeError",
    "BadWayError",
    "BadParamsError",
    "BadGammaError",
    "ghz",
    "bell_pair",
    "maximally_mixed",
    "werner_embedded",
    "embed_bipartite",
    "molecule_state",
    "molecule_pair_reduction",
    "upb_state",
    "product_pure",
    "omega_matrix",
    "coherence_factor",
]


class OutOfRangeError(ValueError):
    """Mixing parameter outside [0, 1]."""


class BadWayError(ValueError):
    """Embedding way must be an integer 1..6."""


class BadParamsError(ValueError):
    """Molecule weights must be nonnegative and sum to 1."""


class BadGammaError(ValueError):
    """Coherence factor must satisfy |gamma| <= 1."""


def ghz(n_qubits: int = 3) -> DensityMatrix:
    """(|00...0> + |11...1>)/sqrt(2) as a density matrix; entries 1/2 at
    the four corners of the |0...0>,|1...1> block."""
    if n_qubits < 2:
        raise ValueError("a GHZ state needs at least 2 qubits")
    dim = 2 ** n_qubits
    mat = np.zeros((dim, dim))
    for a in (0, dim - 1):
        for b in (0, dim - 1):
            mat[a, b] = 0.5
    return DensityMatrix(mat, n_qubits)


def bell_pair() -> DensityMatrix:
    """(|00> + |11>)/sqrt(2) on two qubits."""
    return ghz(2)


def maximally_mixed(n_qubits: int) -> DensityMatrix:
    dim = 2 ** n_qubits
    return DensityMatrix(np.eye(dim) / dim, n_qubits)


def _werner_core() -> np.ndarray:
    """Rank-2 three-qubit state (|010>-|101>)/sqrt(2), (|011>-|100>)/sqrt(2)
    mixed evenly: diagonal 1/4 on {010,011,100,101}, coherences -1/4
    between 010<->101 and 011<->100."""
    r = np.zeros((8, 8))
    for idx in (0b010, 0b011, 0b100, 0b101):
        r[idx, idx] = 0.25
    for a, b in ((0b010, 0b101), (0b011, 0b100)):
        r[a, b] = r[b, a] = -0.25
    return r


_WERNER_CORE = _werner_core()
_WERNER_CORE.setflags(write=False)
_EYE8 = np.eye(8)
_EYE8.setflags(write=False)


def _werner(x):
    """x * R + (1-x)/8 * I for a float x, or for an (N, 1, 1) array of them."""
    return x * _WERNER_CORE + (1.0 - x) / 8.0 * _EYE8


def werner_embedded(x: float) -> DensityMatrix:
    """x * R + (1-x)/8 * I on three qubits, 0 <= x <= 1.

    The (A,BC) split of this family is the two-qubit Werner mixture
    x * S + (1-x)/4 * I with S the singlet-like coherence matrix; its
    partial transpose has eigenvalues (1+x)/4 (three-fold) and (1-3x)/4,
    so the family crosses into entanglement exactly at x = 1/3.  The sweep
    broadcasts the same formula, so its grid states equal these bit for bit.
    """
    x = float(x)
    if not 0.0 <= x <= 1.0:
        raise OutOfRangeError(f"mixing parameter must lie in [0, 1], got {x}")
    return DensityMatrix(_werner(x), 3)


def _werner_stack(xs) -> np.ndarray:
    """The matrices of ``werner_embedded(x)`` for every x in ``xs``, shape
    (N, 8, 8) in float64, from one broadcast; unchecked, like a
    constructor's state."""
    x = np.asarray(xs, dtype=float)
    bad = ~((0.0 <= x) & (x <= 1.0))
    if bad.any():
        werner_embedded(x[bad][0])  # raises the constructor's own error for it
    return _werner(x[:, None, None])


# way -> row of the three-qubit reduction table: ways 1-3 are the splits
# (A,BC), (B,CA), (C,AB), ways 4-6 the pair traces (A,B), (A,C), (B,C)
_EMBED_ROWS = {1: 3, 2: 4, 3: 5, 4: 0, 5: 1, 6: 2}


def embed_bipartite(r: DensityMatrix, way: int) -> DensityMatrix:
    """Embed a two-qubit state R into three qubits one of six ways.

    Each way spreads R over two orthogonal pattern sectors with weight
    1/2, chosen so that exactly one of the six reductions returns R
    itself: ways 1-3 are inverted one-vs-two splits recovered by the
    (A,BC), (B,CA), (C,AB) splits; ways 4-6 put R on a qubit pair with
    the remaining qubit maximally mixed, recovered by the pair traces
    (A,B), (A,C), (B,C).  If R is entangled, the embedded state is
    therefore certified entangled by the witness.

    The embedding is 1/2 times the adjoint of that reduction: every
    summand index of its table row receives R[a, b] / 2.
    """
    if r.dim != 4:
        raise ValueError(f"embedding needs a two-qubit state, got dim {r.dim}")
    if way not in (1, 2, 3, 4, 5, 6):
        raise BadWayError(f"way must be 1..6, got {way!r}")
    rho = np.zeros(64, dtype=r.mat.dtype)
    # a row hits each entry at most once, so += stores 0.0 + R/2: a -0.0 in R lands as +0.0
    rho[_TABLES[3][_EMBED_ROWS[way]]] += r.mat[..., None] / 2.0
    return DensityMatrix(rho.reshape(8, 8), 3, r.tol)


def _molecule_projectors() -> tuple[np.ndarray, ...]:
    """|Psi_rs><Psi_rs| for the pairs (A,B), (A,C), (B,C), where
    |Psi_rs> = (|0_r 1_s> + |1_r 0_s>)/sqrt(2) x |0> on the remaining qubit."""
    projectors = []
    for r, s in ((0, 1), (0, 2), (1, 2)):
        v = np.zeros(8)
        hi, lo = 2 ** (2 - r), 2 ** (2 - s)
        v[lo] = v[hi] = 2 ** -0.5  # |0_r 1_s 0> and |1_r 0_s 0>
        p = np.outer(v, v)
        p.setflags(write=False)
        projectors.append(p)
    return tuple(projectors)


_MOLECULE_PROJECTORS = _molecule_projectors()


def _molecule(weights) -> np.ndarray:
    """sum_k w_k |Psi_k><Psi_k| for three floats, or for three (N, 1, 1) arrays."""
    return sum(w * projector for w, projector in zip(weights, _MOLECULE_PROJECTORS))


def molecule_state(p_ab: float, p_ac: float, p_bc: float,
                   tol: float = DEFAULT_TOL) -> DensityMatrix:
    """Mixture of the three two-party exchange states

        |Psi_rs> = (|0_r 1_s> + |1_r 0_s>)/sqrt(2) x |0_rest>

    with weights (p_ab, p_ac, p_bc), nonnegative and summing to 1.  The sweep
    broadcasts the same sum over (t, 0, 1-t), bit for bit.
    """
    check_tolerance(tol, "molecule_state tol")
    weights = (float(p_ab), float(p_ac), float(p_bc))
    if any(w < -tol or w > 1 + tol for w in weights):
        raise BadParamsError(f"weights must lie in [0, 1], got {weights}")
    total = sum(weights)
    if abs(total - 1.0) > tol:
        raise BadParamsError(f"weights must sum to 1, got {total}")
    return DensityMatrix(_molecule(weights), 3, tol)


def _molecule_path_stack(ts) -> np.ndarray:
    """The matrices of ``molecule_state(t, 0.0, 1.0 - t)`` for every t in ``ts``,
    shape (N, 8, 8) in float64, from one broadcast; unchecked, like a
    constructor's state."""
    t = np.asarray(ts, dtype=float)
    weights = np.stack([t, np.zeros_like(t), 1.0 - t])
    bad = (((weights < -DEFAULT_TOL) | (weights > 1 + DEFAULT_TOL)).any(axis=0)
           | (abs(weights.sum(axis=0) - 1.0) > DEFAULT_TOL))
    if bad.any():
        molecule_state(t[bad][0], 0.0, 1.0 - t[bad][0])  # raises the constructor's own error for it
    return _molecule(weights[:, :, None, None])


def molecule_pair_reduction(p_ab: float, p_ac: float, p_bc: float,
                            pair: ReductionLabel | tuple[int, int]) -> DensityMatrix:
    """Pair-trace reduction of the molecule mixture.

    The reduction onto pair (r,s) keeps the exchange coherence of its own
    term only: the off-diagonal entry between |01> and |10> equals
    p_rs / 2, while the other two terms contribute diagonal weight.
    """
    if not isinstance(pair, ReductionLabel):
        pair = make_label((pair[0],), (pair[1],))
    if pair.kind is not ReductionKind.PAIR_TRACE:
        raise BadLabelError(f"expected a pair-trace label, got {pair.text}")
    return reduce_pair(molecule_state(p_ab, p_ac, p_bc), pair)


def upb_state() -> DensityMatrix:
    """Normalized projector onto the complement of the four-state
    unextendible product basis

        |0,1,+>,  |1,+,0>,  |+,0,1>,  |-,-,->

    i.e. (I - sum_i |psi_i><psi_i|)/4.  The four members are mutually
    orthogonal product states (checked at construction), no fifth
    product state is orthogonal to all of them, and every one of the six
    reductions of the complement state passes PPT even though the state
    itself is entangled.
    """
    zero = np.array([1.0, 0.0])
    one = np.array([0.0, 1.0])
    plus = np.array([1.0, 1.0]) / np.sqrt(2.0)
    minus = np.array([1.0, -1.0]) / np.sqrt(2.0)
    members = [
        np.kron(np.kron(zero, one), plus),
        np.kron(np.kron(one, plus), zero),
        np.kron(np.kron(plus, zero), one),
        np.kron(np.kron(minus, minus), minus),
    ]
    for i, u in enumerate(members):
        for v in members[i + 1:]:
            overlap = abs(np.vdot(u, v))
            if overlap > 1e-12:
                raise AssertionError(f"basis members not orthogonal: overlap {overlap}")
    projector = sum(np.outer(v, v) for v in members)
    return DensityMatrix((np.eye(8) - projector) / 4.0, 3)


def product_pure(a, b, c, tol: float = DEFAULT_TOL) -> DensityMatrix:
    """|a> x |b> x |c> as a rank-1 three-qubit density matrix."""
    factors = [check_unit_norm(f, tol) for f in (a, b, c)]
    if any(f.size != 2 for f in factors):
        raise ValueError("each factor must be a single-qubit (length-2) vector")
    coeffs = np.kron(np.kron(factors[0], factors[1]), factors[2])
    return pure_density(coeffs, tol)


def omega_matrix(u, gamma: float, tol: float = DEFAULT_TOL) -> np.ndarray:
    """The 2x2 matrix [[|u0|^2, g*u0*conj(u1)], [g*conj(u0)*u1, |u1|^2]].

    For a product pure state |a>|b>|c>, the (A,BC) split reduction
    factors as rho_A (x) omega with u = b and gamma = 2*Re(c0*conj(c1));
    cyclically for the other splits.  Hermitian, trace 1, and PSD since
    det = |u0*u1|^2 * (1 - gamma^2) >= 0.
    """
    v = check_unit_norm(u, tol)
    if v.size != 2:
        raise ValueError(f"expected a single-qubit vector, got length {v.size}")
    g = float(gamma)
    if abs(g) > 1.0 + 1e-12:
        raise BadGammaError(f"|gamma| must be <= 1, got {g}")
    return np.array([
        [abs(v[0]) ** 2, g * v[0] * np.conj(v[1])],
        [g * np.conj(v[0]) * v[1], abs(v[1]) ** 2],
    ])


def coherence_factor(w) -> float:
    """2*Re(w0*conj(w1)) for a single-qubit vector; the gamma entering
    :func:`omega_matrix`."""
    v = np.asarray(w, dtype=complex).reshape(-1)
    return float(2.0 * np.real(v[0] * np.conj(v[1])))
