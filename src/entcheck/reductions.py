"""Bipartite reductions of three- and four-qubit density matrices.

One rule defines all of them.  A label keeps two groups of parties,
(``first``, ``second``), and traces out the rest.  In each group the
first party carries the output bit, every other party carries that bit
XOR a pattern bit of its own, and every traced party carries a free bit
that is the same on ket and bra.  Each output entry out[2i+j, 2r+s] is
therefore the sum of exactly 2^(n-2) input entries, one per setting of
the pattern and free bits.  Summing a group's patterns is the channel
sum_p K_p (.) K_p^dag with K_p the isometry |y, y^p1, ...> -> |y>, so
every reduction is completely positive and trace preserving.

Each reduction is also a sum of local branches.  Project every non-head
member m of a group onto an X-basis state |s_m>_X, trace the parties the
label omits, and call the two-head operator left sigma_s.  Then the
reduction is sum_s Z^s sigma_s Z^s, where Z acts on each head raised to
the parity of its group's bits, because K_p = <p|_m CNOT_(h->m) and
<s|_X,m CNOT_(h->m) = Z_h^s (x) <s|_X,m.  Every Kraus operator is thus a
product of operators on single parties, so a reduction is an LOCC map
on any cut that puts its two heads on opposite sides: a state separable
across such a cut has a separable, hence PPT, reduction, and a reduction
that fails PPT certifies entanglement across every cut splitting its heads.

One rule also gives the labels of an n-qubit state: every canonical
label on two or more of the parties 0..n-1, in :class:`ReductionKind`
order and then by text.  A label is canonical when the smaller group,
or of two equal groups the one holding the lower party, comes first and
a one-party group is followed by the others in cyclic order after it,
e.g. (B,CA); parsing canonicalizes any order, e.g. (BD,AC) to (AC,BD).
So a three-qubit state has 6 reductions: the pair traces (A,B), (A,C),
(B,C) and the one-vs-two splits (A,BC), (B,CA), (C,AB).  A four-qubit
state has 25: 6 pair traces, 12 trace-then-splits, 4 one-vs-three and
3 two-vs-two splits (AB,CD), (AC,BD), (AD,BC).

At import the rule becomes one integer table per arity holding the flat
input index of every summand, formed from the parties' bits in Python
ints; each reduction is a gather and a sum over its rows.  The bits
(i, j, free) map to party bits invertibly, so each label's diagonal
summands cover every diagonal input entry exactly once: trace
preservation is visible in the table.  A second table per
arity holds the same summands at partially transposed positions,
out[mn, rs] = in[ms, rn], so one gather through it yields the partial
transposes of all reductions with no copy.
"""

from __future__ import annotations

import enum
from itertools import combinations

import numpy as np

from .linalg import (DensityMatrix, WrongArityError, _checked_mass, _flag, _Frozen, _integer, _parties, _state,
                     _text, partial_trace)

__all__ = [
    "ReductionKind",
    "ReductionLabel",
    "WrongArityError",
    "BadLabelError",
    "PARTY_NAMES",
    "make_label",
    "parse_label",
    "quadripartite_labels",
    "labels_for",
    "reduce_split",
    "reduce_split_channel",
    "reduce_trace_then_split",
    "apply_reduction",
    "reduce_all_tripartite",
    "reduce_all_quadripartite",
]

PARTY_NAMES = "ABCD"


class BadLabelError(ValueError):
    """Reduction label is malformed or not valid for the state's arity."""


class ReductionKind(enum.Enum):
    PAIR_TRACE = "pair-trace"
    ONE_VS_TWO = "one-vs-two"
    ONE_VS_THREE = "one-vs-three"
    TWO_VS_TWO = "two-vs-two"


class ReductionLabel(_Frozen):
    """Identifies one bipartite reduction.

    ``first`` holds the kept (X-side) parties, ``second`` the parties
    combined into the synthetic qubit, in pairing order.  Construct via
    :func:`make_label` or :func:`parse_label`, which canonicalize.

    A plain immutable value: ``text`` is formed once at construction, the
    fields cannot be assigned or deleted, and labels compare and hash by
    (``kind``, ``first``, ``second``).
    """

    def __init__(self, kind: ReductionKind, first: tuple[int, ...], second: tuple[int, ...]):
        text = "".join(PARTY_NAMES[q] for q in first) + "," + "".join(PARTY_NAMES[q] for q in second)
        self.__dict__.update(kind=kind, first=first, second=second, text=text)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.kind, self.first, self.second) == (other.kind, other.first, other.second)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.kind, self.first, self.second))

    @property
    def parties(self) -> tuple[int, ...]:
        return self.first + self.second

    def __str__(self) -> str:
        return self.text

    def __repr__(self) -> str:
        return f"ReductionLabel({self.text!r})"


def make_label(first, second) -> ReductionLabel:
    """Build a canonical reduction label from two groups of party indices.

    Group sizes select the kind: (1,1) pair trace, (1,2) one-vs-two,
    (1,3) one-vs-three, (2,2) two-vs-two.  Party order inside the groups
    and the order of the two groups do not matter.  Each group is a set of
    parties from 0 to 3 (:func:`~entcheck.linalg._parties`), disjoint from the other.
    """
    f, s = (tuple(sorted(_parties(group, name, len(PARTY_NAMES), BadLabelError)))
            for group, name in ((first, "first"), (second, "second")))
    if set(f) & set(s):
        raise BadLabelError(f"first {f} and second {s} share a party")
    if (len(s), s) < (len(f), f):
        f, s = s, f
    if len(f) == 2:
        return ReductionLabel(ReductionKind.TWO_VS_TWO, f, s)
    kind = list(ReductionKind)[len(s) - 1]  # one party against one, two or three
    members = sorted(f + s)  # the others in ascending rotation starting after the one party
    i = members.index(f[0])
    return ReductionLabel(kind, f, tuple(members[i + 1:] + members[:i]))


def parse_label(label: str, n_qubits: int) -> ReductionLabel:
    """Parse a label such as "A,BC" (case-insensitive) for an n-qubit state."""
    return _read_label(label, n_qubits, "label")


def _read_label(text: str, n_qubits: int, name: str, dash: bool = False) -> ReductionLabel:
    """:func:`parse_label` of the argument ``name``, with a "-" between the
    groups read as a comma if ``dash``: a non-str raises TypeError, and every
    other error quotes ``text`` as the caller wrote it, each naming ``name``."""
    _text(text, name)
    parties = PARTY_NAMES[:_arity(n_qubits, "n_qubits")]  # by the label rule, every label on n parties is listed
    parts = (text.replace("-", ",") if dash else text).strip().upper().split(",")
    if len(parts) != 2:
        separator = "'-' or ','" if dash else "comma"
        raise BadLabelError(f"{name} {text!r} must contain exactly one {separator}")
    unknown = [ch for part in parts for ch in part.strip() if ch not in parties]
    if unknown:
        raise BadLabelError(f"unknown party {unknown[0]!r} in {name} {text!r}; parties are {parties}")
    try:
        return make_label(*([parties.index(ch) for ch in part.strip()] for part in parts))
    except BadLabelError as exc:
        raise BadLabelError(f"{name} {text!r}: {exc}") from None


def quadripartite_labels() -> list[ReductionLabel]:
    """The 25 reduction labels of a four-qubit state, in report order.

    Order: 6 pair traces, 12 trace-then-splits, 4 one-vs-three splits,
    3 two-vs-two splits; lexicographic within each group.
    """
    return labels_for(4)


def labels_for(n_qubits: int) -> list[ReductionLabel]:
    """The reduction labels of an n-qubit state, in report order; ``n_qubits``
    is 3 or 4 (:func:`_arity`)."""
    return list(_LABELS[_arity(n_qubits, "n_qubits")])


def _arity(n_qubits: int, name: str, state: bool = False) -> int:
    """``n_qubits``, an integer that is a key of ``_LABELS``, the arities with
    reductions: any other raises WrongArityError naming ``name``, in the
    wording of :func:`~entcheck.linalg._state` for a state if ``state``."""
    n = _integer(n_qubits, name)
    if n not in _LABELS:
        counts = [str(k) for k in _LABELS]
        raise WrongArityError(f"{name} must be a {'- or '.join(counts)}-qubit state, got {n} qubits" if state
                              else f"{name} must be {' or '.join(counts)}, got {n}")
    return n


def _label(value, kind: ReductionKind | None = None, name: str = "label") -> ReductionLabel:
    """``value``, a :class:`ReductionLabel` of ``kind`` if given: any other
    value raises TypeError, and a label of another kind BadLabelError, naming ``name``."""
    if not isinstance(value, ReductionLabel):
        raise TypeError(f"{name} must be a ReductionLabel, got {type(value).__name__}")
    if kind is not None and value.kind is not kind:
        raise BadLabelError(f"{name} {value.text} has kind {value.kind.value}, expected {kind.value}")
    return value


def _rule_labels(n: int) -> list[ReductionLabel]:
    """The label rule: every canonical label on two or more of the parties
    0..n-1, in :class:`ReductionKind` order and then by text."""
    labels = {
        make_label(first, set(group) - set(first))
        for size in range(2, n + 1)
        for group in combinations(range(n), size)
        for k in range(1, size)
        for first in combinations(group, k)
    }
    kinds = list(ReductionKind)
    return sorted(labels, key=lambda l: (kinds.index(l.kind), l.text))


def _summand_table(labels: list[ReductionLabel], n: int, transposed: bool = False) -> np.ndarray:
    """Flat input indices of every summand, shape (L, 4, 4, 2^(n-2)).

    ``table[l, 2i+j, 2r+s, k]`` indexes ``rho.mat.ravel()`` at
    (ket(i, j, k), bra(r, s, k)).  A ket index XORs the bits of the first
    group's parties if i, of the second group's if j, and the free bits k
    spread over the parties that head no group; the bra shares the free
    bits.  ``transposed`` gives the Y-side partial transpose, out[mn, rs]
    = in[ms, rn], which only swaps which output bits feed ket and bra.

    The table is built from Python ints and stored summand by summand, so
    that each ``table[..., k]`` that :func:`_gather` indexes one matrix with
    is one contiguous block: numpy's fast path for a bare index array is
    slower on a strided one (6 against 9 µs per 3-qubit gather).
    """
    bit = [1 << (n - 1 - q) for q in range(n)]  # big-endian: party 0 is the top bit
    count = 2 ** (n - 2)
    outputs = [(a & 2 | b & 1, b & 2 | a & 1) if transposed else (a, b) for a in range(4) for b in range(4)]
    rows = []
    for label in labels:
        x, y = (sum(bit[q] for q in group) for group in (label.first, label.second))
        ket = (0, y, x, x | y)  # output 2i+j's bits before the free ones
        heads = (label.first[0], label.second[0])
        free = [bit[q] for q in reversed(range(n)) if q not in heads]  # free[m] is set by k >> m & 1
        spread = [sum(b for m, b in enumerate(free) if k >> m & 1) for k in range(count)]
        rows.append([[(ket[a] ^ f) << n | (ket[b] ^ f) for a, b in outputs] for f in spread])
    flat = [entry for k in range(count) for row in rows for entry in row[k]]
    return np.moveaxis(np.array(flat, dtype=np.int64).reshape(count, len(labels), 4, 4), 0, -1)


_LABELS = {n: _rule_labels(n) for n in (3, 4)}
_ROWS = {n: {label: row for row, label in enumerate(labels)} for n, labels in _LABELS.items()}
_TABLES = {n: _summand_table(labels, n) for n, labels in _LABELS.items()}
# the Y-side partial transpose of every row: out[mn, rs] reads the summands of [ms, rn]
_PT_TABLES = {n: _summand_table(labels, n, transposed=True) for n, labels in _LABELS.items()}


def _gather(mats: np.ndarray, table: np.ndarray) -> np.ndarray:
    """The entries a table, or some of its rows, sums for a (..., 2^n, 2^n)
    stack of n-qubit matrices: (..., 4, 4) for one row, (..., L, 4, 4)
    for all.

    The summands are added as a pairwise tree, (t0 + t1) + (t2 + t3),
    written out rather than left to ``sum``, whose order depends on the
    array's shape: a state's reductions must not depend on its stack.
    """
    flat = mats.reshape(mats.shape[:-2] + (-1,))
    lead = (...,) if flat.ndim > 1 else ()  # one matrix: numpy's fast path takes a bare index array
    terms = [flat[lead + (table[..., k],)] for k in range(table.shape[-1])]
    while len(terms) > 1:
        terms = [a + b for a, b in zip(terms[::2], terms[1::2])]
    return terms[0]


def apply_reduction(rho: DensityMatrix, label: ReductionLabel) -> DensityMatrix:
    """The reduction a label names, for 3- or 4-qubit states; a label with
    no row for the state's arity raises BadLabelError listing the valid ones."""
    n = _arity(_state(rho, "rho").n_qubits, "rho", state=True)
    row = _ROWS[n].get(_label(label))
    if row is None:
        raise BadLabelError(f"label {label.text} is not a reduction of a {n}-qubit state; "
                            f"valid labels: {', '.join(l.text for l in _LABELS[n])}")
    return DensityMatrix(_gather(rho.mat, _TABLES[n][row]), 2, rho.tol)


def reduce_split(rho: DensityMatrix, label: ReductionLabel) -> DensityMatrix:
    """One-vs-two split of a three-qubit state; for (A,BC),
    out[ij,rs] = rho[ijj,rss] + rho[ij(1-j),rs(1-s)]."""
    _label(label, ReductionKind.ONE_VS_TWO)
    return apply_reduction(_state(rho, "rho", 3), label)


def reduce_split_channel(rho: DensityMatrix, label: ReductionLabel) -> DensityMatrix:
    """Operator-sum form of :func:`reduce_split`; same output, computed
    as sum_p (I (x) K_p) rho (I (x) K_p)^dag with K_p the two pattern
    isometries, K_p|y, y^p> = |y>.  Serves as an independent cross-check of
    the entrywise formula; sum_p K_p^dag K_p = I makes trace preservation manifest.
    """
    _label(label, ReductionKind.ONE_VS_TWO)
    _state(rho, "rho", 3)
    x, y, z = _parties(label.parties, "label", 3, BadLabelError)
    m = rho.mat.reshape((2,) * 6).transpose(x, y, z, x + 3, y + 3, z + 3).reshape(8, 8)  # parties in (x, y, z) order
    out = np.zeros((4, 4), dtype=complex)
    for p in (0, 1):
        k = np.zeros((2, 4), dtype=complex)
        k[(0, 1), (p, 3 - p)] = 1.0
        op = np.kron(np.eye(2, dtype=complex), k)
        out += op @ m @ op.conj().T
    return DensityMatrix(out, 2, rho.tol)


def reduce_trace_then_split(rho: DensityMatrix, traced_party: int, label: ReductionLabel) -> DensityMatrix:
    """Trace one party of a four-qubit state, then split the remaining trio.

    Computed literally as :func:`~entcheck.linalg.partial_trace` followed
    by the three-qubit :func:`reduce_split`, so it cross-checks the
    four-qubit table rows that :func:`apply_reduction` reads.
    ``traced_party`` is an integer, and with the label's parties a set of
    four (:func:`~entcheck.linalg._parties`): outside the label, so the two
    cover all four parties.
    """
    _state(rho, "rho", 4)
    _label(label, ReductionKind.ONE_VS_TWO)
    parties = label.parties + (_integer(traced_party, "traced_party"),)
    _parties(parties, f"label {label.text} with traced_party", 4, BadLabelError)
    # keeping the label's parties in pairing order traces traced_party, and the label becomes A,BC
    return reduce_split(partial_trace(rho, label.parties), make_label((0,), (1, 2)))


def _reduce_all(rho: DensityMatrix, validate: bool) -> dict[ReductionLabel, DensityMatrix]:
    if _flag(validate, "validate"):
        _checked_mass(rho)
    stack = _gather(rho.mat, _TABLES[rho.n_qubits])
    return {label: DensityMatrix(mat, 2, rho.tol) for label, mat in zip(_LABELS[rho.n_qubits], stack)}


def reduce_all_tripartite(rho: DensityMatrix, validate: bool = True) -> dict[ReductionLabel, DensityMatrix]:
    """All 6 reductions of a three-qubit state, keyed by label in report order.

    With ``validate``, a state not yet checked (as by
    :func:`~entcheck.linalg.validate_density`) is first checked at its own
    ``tol``; the reductions get no check of their own, since each is a
    CPTP map.
    """
    return _reduce_all(_state(rho, "rho", 3), validate)


def reduce_all_quadripartite(rho: DensityMatrix, validate: bool = True) -> dict[ReductionLabel, DensityMatrix]:
    """All 25 reductions of a four-qubit state, keyed by label in report order;
    ``validate`` as in :func:`reduce_all_tripartite`."""
    return _reduce_all(_state(rho, "rho", 4), validate)
