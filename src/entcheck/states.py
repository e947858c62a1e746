"""Constructors for the named few-qubit state families.

All constructors emit exact dyadic-rational entries (no floating noise
beyond 1/sqrt(2) factors that cancel in the density matrix), so their
outputs validate at very tight tolerances.  The GHZ, maximally mixed,
Werner, molecule and UPB states are real and built in float64; an
embedding keeps the dtype of the state it embeds.
"""

from __future__ import annotations

import numpy as np

from .linalg import (DEFAULT_TOL, DensityMatrix, _dimension, _integer, _parties, _real, _state, check_unit_norm,
                     pure_density)
from .reductions import _ROWS, _TABLES, BadLabelError, ReductionLabel, apply_reduction, make_label, parse_label

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
    dim = _dimension(n_qubits, "n_qubits")
    if n_qubits < 2:
        raise ValueError(f"n_qubits must be >= 2 for a GHZ state, got {n_qubits}")
    mat = np.zeros((dim, dim))
    mat[::dim - 1, ::dim - 1] = 0.5  # rows and columns 0 and dim - 1
    return DensityMatrix(mat, n_qubits)


def bell_pair() -> DensityMatrix:
    """(|00> + |11>)/sqrt(2) on two qubits."""
    return ghz(2)


def maximally_mixed(n_qubits: int) -> DensityMatrix:
    dim = _dimension(n_qubits, "n_qubits")
    return DensityMatrix(np.eye(dim) / dim, n_qubits)


def _werner_core() -> np.ndarray:
    """Rank-2 three-qubit state (|010>-|101>)/sqrt(2), (|011>-|100>)/sqrt(2)
    mixed evenly: diagonal 1/4 on {010,011,100,101}, coherences -1/4
    between 010<->101 and 011<->100."""
    r = np.zeros((8, 8))
    middle = [0b010, 0b011, 0b100, 0b101]
    r[middle, middle] = 0.25
    r[middle, middle[::-1]] = -0.25  # 010<->101 and 011<->100
    return r


_WERNER_CORE = _werner_core()
_WERNER_CORE.setflags(write=False)
_EYE8 = np.eye(8)
_EYE8.setflags(write=False)


def werner_embedded(x: float) -> DensityMatrix:
    """x * R + (1-x)/8 * I on three qubits, 0 <= x <= 1.

    The (A,BC) split of this family is the two-qubit Werner mixture
    x * S + (1-x)/4 * I with S the singlet-like coherence matrix; its
    partial transpose has eigenvalues (1+x)/4 (three-fold) and (1-3x)/4,
    so the family crosses into entanglement exactly at x = 1/3.  The sweep
    broadcasts the same formula, so its grid states equal these bit for bit.
    """
    return DensityMatrix(_werner_stack(_real(x, "x")), 3)


def _werner_stack(xs) -> np.ndarray:
    """The matrices x * R + (1-x)/8 * I for every x in ``xs``, shape
    ``xs.shape + (8, 8)`` in float64, from one broadcast; unchecked, like a
    constructor's state.  The first x outside [0, 1] raises OutOfRangeError."""
    x = np.asarray(xs, dtype=float)
    bad = ~((0.0 <= x) & (x <= 1.0))
    if bad.any():
        raise OutOfRangeError(f"x must lie in [0, 1], got {x[bad][0].item()}")
    x = x[..., None, None]
    return x * _WERNER_CORE + (1.0 - x) / 8.0 * _EYE8


# way -> row of the three-qubit reduction table that recovers R
_EMBED_ROWS = {way: _ROWS[3][parse_label(text, 3)]
               for way, text in enumerate(("A,BC", "B,CA", "C,AB", "A,B", "A,C", "B,C"), start=1)}


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
    _state(r, "r", 2)
    if _integer(way, "way") not in _EMBED_ROWS:
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


def molecule_state(p_ab: float, p_ac: float, p_bc: float) -> DensityMatrix:
    """Mixture of the three two-party exchange states

        |Psi_rs> = (|0_r 1_s> + |1_r 0_s>)/sqrt(2) x |0_rest>

    with weights (p_ab, p_ac, p_bc), nonnegative and summing to 1.  The sweep
    broadcasts the same sum over (t, 0, 1-t), bit for bit.
    """
    return DensityMatrix(_molecule_stack((_real(p_ab, "p_ab"), _real(p_ac, "p_ac"), _real(p_bc, "p_bc"))), 3)


def _molecule_stack(weights) -> np.ndarray:
    """sum_k w_k |Psi_k><Psi_k| for the weight triples along the first axis
    of ``weights``, shape ``weights.shape[1:] + (8, 8)`` in float64, from
    one broadcast; unchecked, like a constructor's state.  The first triple
    with a weight outside [0, 1] (or NaN), or with a sum further than
    ``DEFAULT_TOL`` from 1, raises BadParamsError naming the first such
    weight, or all three."""
    w = np.asarray(weights, dtype=float)
    with np.errstate(invalid="ignore"):  # inf - inf, in a triple already outside [0, 1]
        total = sum(w)  # left to right, as Python sums three floats
    inside = (-DEFAULT_TOL <= w) & (w <= 1 + DEFAULT_TOL)
    outside = ~inside.all(axis=0)
    bad = outside | (abs(total - 1.0) > DEFAULT_TOL)
    if bad.any():
        first = np.argmax(bad)
        if outside.flat[first]:
            k = int(np.argmin(inside.reshape(3, -1)[:, first]))  # its first weight outside
            weight = w.reshape(3, -1)[k, first].item()
            raise BadParamsError(f"{('p_ab', 'p_ac', 'p_bc')[k]} must lie in [0, 1], got {weight}")
        raise BadParamsError(f"p_ab, p_ac and p_bc must sum to 1, got {total.flat[first].item()}")
    return sum(wk * projector for wk, projector in zip(w[..., None, None], _MOLECULE_PROJECTORS))


def _molecule_path_stack(ts) -> np.ndarray:
    """The matrices of ``molecule_state(t, 0.0, 1.0 - t)`` for every t in ``ts``,
    shape (N, 8, 8) in float64, from one broadcast; unchecked, like a
    constructor's state."""
    t = np.asarray(ts, dtype=float)
    return _molecule_stack([t, np.zeros_like(t), 1.0 - t])


def molecule_pair_reduction(p_ab: float, p_ac: float, p_bc: float,
                            pair: ReductionLabel | tuple[int, int]) -> DensityMatrix:
    """Pair-trace reduction of the molecule mixture.

    The reduction onto pair (r,s) keeps the exchange coherence of its own
    term only: the off-diagonal entry between |01> and |10> equals
    p_rs / 2, while the other two terms contribute diagonal weight.
    ``pair`` is a label, or a collection of parties from 0 to 2
    (:func:`~entcheck.linalg._parties`), of two parties, in either order.
    """
    parties = _parties(pair.parties if isinstance(pair, ReductionLabel) else pair, "pair", 3, BadLabelError)
    if len(parties) != 2:
        raise BadLabelError(f"pair must hold two parties, got {pair!r}")
    return apply_reduction(molecule_state(p_ab, p_ac, p_bc), make_label(parties[:1], parties[1:]))


def upb_state() -> DensityMatrix:
    """Normalized projector onto the complement of the four-state
    unextendible product basis

        |0,1,+>,  |1,+,0>,  |+,0,1>,  |-,-,->

    i.e. (I - sum_i |psi_i><psi_i|)/4.  The four members are mutually
    orthogonal product states, no fifth product state is orthogonal to
    all of them, and every one of the six reductions of the complement
    state passes PPT even though the state itself is entangled.
    """
    zero, one = np.eye(2)
    plus, minus = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
    members = [np.kron(np.kron(a, b), c) for a, b, c in
               ((zero, one, plus), (one, plus, zero), (plus, zero, one), (minus, minus, minus))]
    projector = sum(np.outer(v, v) for v in members)
    return DensityMatrix((np.eye(8) - projector) / 4.0, 3)


def product_pure(a, b, c) -> DensityMatrix:
    """|a> x |b> x |c> as a rank-1 three-qubit density matrix."""
    factors = [check_unit_norm(f, name, 2) for f, name in zip((a, b, c), "abc")]
    coeffs = np.kron(np.kron(factors[0], factors[1]), factors[2])
    return pure_density(coeffs)


def omega_matrix(u, gamma: float) -> np.ndarray:
    """The 2x2 matrix [[|u0|^2, g*u0*conj(u1)], [g*conj(u0)*u1, |u1|^2]].

    For a product pure state |a>|b>|c>, the (A,BC) split reduction
    factors as rho_A (x) omega with u = b and gamma = 2*Re(c0*conj(c1));
    cyclically for the other splits.  Hermitian, trace 1, and PSD since
    det = |u0*u1|^2 * (1 - gamma^2) >= 0.
    """
    v = check_unit_norm(u, "u", 2)
    g = _real(gamma, "gamma")
    if not abs(g) <= 1.0 + 1e-12:  # NaN fails
        raise BadGammaError(f"|gamma| must be <= 1, got {g}")
    return np.array([
        [abs(v[0]) ** 2, g * v[0] * np.conj(v[1])],
        [g * np.conj(v[0]) * v[1], abs(v[1]) ** 2],
    ])


def coherence_factor(w) -> float:
    """2*Re(w0*conj(w1)) for a single-qubit vector, checked, as in
    :func:`omega_matrix`, to have length 2 and unit norm; the gamma entering
    :func:`omega_matrix`, so |gamma| <= 1."""
    v = check_unit_norm(w, "w", 2)
    return float(2.0 * np.real(v[0] * np.conj(v[1])))
