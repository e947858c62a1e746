"""Seeded benchmark inputs, built with numpy alone.

Nothing here calls entcheck: the program under test must not be able to
change its own inputs.  Each pool records its composition and a sha256 of
its inputs, so two commits measured with one seed provably see the same
data.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np

TOL = 1e-9


def file_text(mat: np.ndarray, n_qubits: int) -> bytes:
    """A matrix file in entcheck's re/im JSON format, written by json alone."""
    doc = {
        "schema": 1,
        "n_qubits": n_qubits,
        "re": mat.real.tolist(),
        "im": mat.imag.tolist(),
        "tol": TOL,
    }
    return json.dumps(doc, indent=1).encode("utf-8")


def _hermitize(m: np.ndarray) -> np.ndarray:
    m = (m + m.conj().T) / 2.0
    return m / np.trace(m).real


def random_pure(rng, n_qubits: int) -> np.ndarray:
    d = 2 ** n_qubits
    v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return v / np.linalg.norm(v)


def mixture(rng, n_qubits: int, rank: int) -> np.ndarray:
    weights = rng.dirichlet(np.ones(rank))
    vs = [random_pure(rng, n_qubits) for _ in range(rank)]
    return _hermitize(sum(w * np.outer(v, v.conj()) for w, v in zip(weights, vs)))


def ginibre(rng, n_qubits: int) -> np.ndarray:
    d = 2 ** n_qubits
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return _hermitize(g @ g.conj().T)


def permute_parties(mat: np.ndarray, perm) -> np.ndarray:
    """Reorder parties so that new position i holds old party perm[i]."""
    n = len(perm)
    t = mat.reshape((2,) * (2 * n))
    axes = list(perm) + [q + n for q in perm]
    return t.transpose(axes).reshape(2 ** n, 2 ** n)


# Named three-qubit families, from their published definitions.

def ghz(n_qubits: int = 3) -> np.ndarray:
    d = 2 ** n_qubits
    m = np.zeros((d, d), dtype=complex)
    m[np.ix_([0, d - 1], [0, d - 1])] = 0.5
    return m


def werner(x: float) -> np.ndarray:
    """x*R + (1-x)/8*I, R the even mixture of (|010>-|101>)/sqrt2 and (|011>-|100>)/sqrt2."""
    r = np.zeros((8, 8), dtype=complex)
    for a, b in ((0b010, 0b101), (0b011, 0b100)):
        r[a, a] = r[b, b] = 0.25
        r[a, b] = r[b, a] = -0.25
    return x * r + (1.0 - x) / 8.0 * np.eye(8)


def molecule(p_ab: float, p_ac: float, p_bc: float) -> np.ndarray:
    """Mixture of (|0_r 1_s> + |1_r 0_s>)/sqrt2 x |0_rest> over the pairs (r, s)."""
    m = np.zeros((8, 8), dtype=complex)
    for (r, s), w in (((0, 1), p_ab), ((0, 2), p_ac), ((1, 2), p_bc)):
        v = np.zeros(8)
        v[2 ** (2 - r)] = v[2 ** (2 - s)] = 2 ** -0.5
        m += w * np.outer(v, v)
    return m


def upb() -> np.ndarray:
    """(I - projector onto the Shifts UPB)/4: bound entangled, passes every check."""
    zero, one = np.array([1.0, 0.0]), np.array([0.0, 1.0])
    plus, minus = np.array([1.0, 1.0]) / np.sqrt(2), np.array([1.0, -1.0]) / np.sqrt(2)
    members = [(zero, one, plus), (one, plus, zero), (plus, zero, one), (minus, minus, minus)]
    proj = sum(np.outer(v, v) for v in (np.kron(np.kron(a, b), c) for a, b, c in members))
    return (np.eye(8) - proj).astype(complex) / 4.0


def embed(r: np.ndarray, way: int) -> np.ndarray:
    """A two-qubit state spread over three qubits so that one reduction returns it.

    Ways 1-3 pair the second qubit with a copy-or-flip partner, read back by
    the (A,BC), (B,CA), (C,AB) splits; ways 4-6 tensor a maximally mixed
    qubit onto the pair read back by (A,B), (A,C), (B,C).
    """
    if way <= 3:
        iso = [np.zeros((4, 2)) for _ in (0, 1)]
        for p in (0, 1):
            for y in (0, 1):
                iso[p][2 * y + (y ^ p), y] = 1.0
        m = sum(np.kron(np.eye(2), k) @ r @ np.kron(np.eye(2), k).T for k in iso) / 2.0
        # m has parties (kept, partner-1, partner-2); move kept to its slot
        perm = {1: (0, 1, 2), 2: (2, 0, 1), 3: (1, 2, 0)}[way]
    else:
        m = np.kron(r, np.eye(2) / 2.0)
        perm = {4: (0, 1, 2), 5: (0, 2, 1), 6: (2, 0, 1)}[way]
    return permute_parties(m.astype(complex), perm)


def _named_3q(rng, k: int) -> tuple[str, np.ndarray]:
    """The k-th named-family state; families rotate so every prefix is mixed."""
    kind = ("werner", "molecule", "embed", "ghz", "upb")[k % 5]
    if kind == "ghz" and k >= 5:
        kind = "werner"  # ghz and upb are single states; keep the pool distinct
    if kind == "upb" and k >= 5:
        kind = "molecule"
    if kind == "werner":
        return kind, werner(float(rng.uniform(0.0, 1.0)))
    if kind == "molecule":
        w = rng.dirichlet(np.ones(3))
        return kind, molecule(*map(float, w))
    if kind == "embed":
        return kind, embed(ginibre(rng, 2), int(rng.integers(1, 7)))
    return kind, ghz(3) if kind == "ghz" else upb()


def _named_4q(rng, k: int) -> tuple[str, np.ndarray]:
    """GHZ once, then a named 3-qubit state times a random qubit, parties shuffled."""
    if k == 0:
        return "ghz", ghz(4)
    _, three = _named_3q(rng, k)
    one = ginibre(rng, 1)
    return "named x qubit", permute_parties(np.kron(three, one), tuple(rng.permutation(4)))


def _state(rng, kind: str, n: int, k: int) -> tuple[str, np.ndarray]:
    if kind == "pure":
        v = random_pure(rng, n)
        return kind, np.outer(v, v.conj())
    if kind == "rank-2":
        return kind, mixture(rng, n, 2)
    if kind == "rank-4":
        return kind, mixture(rng, n, 4)
    if kind == "ginibre":
        return kind, ginibre(rng, n)
    return _named_3q(rng, k) if n == 3 else _named_4q(rng, k)


# One slot per kind in each round; named states take two slots so the
# families appear often enough to matter.
ANALYZE_ROUND = ("pure", "rank-2", "named", "rank-4", "ginibre", "named")


class Pool:
    """Inputs of one workload with their provenance."""

    def __init__(self, items, composition: dict, digest_parts):
        self.items = items
        self.composition = composition
        h = hashlib.sha256()
        for part in digest_parts:
            h.update(part)
        self.sha256 = h.hexdigest()


def analyze_pool(seed: int, n_qubits: int, size: int) -> Pool:
    """Distinct n-qubit states as (kind, matrix, file bytes, format).

    Whole rounds of kinds alternate machine, machine, human, so that both
    renderers run on every kind of state.
    """
    rng = np.random.default_rng([seed, n_qubits])
    items, composition = [], {}
    named = 0
    for i in range(size):
        slot = ANALYZE_ROUND[i % len(ANALYZE_ROUND)]
        kind, mat = _state(rng, slot, n_qubits, named)
        if slot == "named":
            named += 1
        fmt = "human" if (i // len(ANALYZE_ROUND)) % 3 == 2 else "machine"
        items.append((kind, mat, file_text(mat, n_qubits), fmt))
        composition[kind] = composition.get(kind, 0) + 1
    return Pool(items, composition, (it[2] + it[3].encode() for it in items))


def sweep_pool(seed: int, size: int) -> Pool:
    """Sweep requests as (family, start, stop, steps), werner and molecule alternating.

    Werner ranges always contain the threshold 1/3; the molecule path
    (t, 0, 1-t) is entangled everywhere, so it runs the grid without
    bisection.  Step counts stay near the CLI default of 101 so that ops
    cost about the same and latency quantiles are not a mix of sizes.
    """
    rng = np.random.default_rng([seed, 7])
    items = []
    for i in range(size):
        steps = int(rng.integers(81, 102))
        if i % 2 == 0:
            start, stop = rng.uniform(0.0, 0.3), rng.uniform(0.37, 1.0)
            items.append(("werner", float(start), float(stop), steps))
        else:
            start, stop = rng.uniform(0.0, 0.4), rng.uniform(0.6, 1.0)
            items.append(("molecule", float(start), float(stop), steps))
    composition = {"werner": (size + 1) // 2, "molecule": size // 2}
    return Pool(items, composition, (repr(it).encode() for it in items))


# CLI requests rotate through these kinds.
CLI_ROUND = (
    ("analyze", 3, "human"),
    ("analyze", 4, "machine"),
    ("reduce", 3, None),
    ("analyze", 3, "machine"),
    ("analyze", 4, "human"),
    ("reduce", 4, None),
)


def cli_pool(seed: int, size: int, labels: dict[int, list[str]]) -> Pool:
    """CLI requests as (command, n_qubits, format-or-label, matrix, file bytes).

    ``labels`` maps arity to the valid reduction labels, from which each
    reduce request picks one.
    """
    rng = np.random.default_rng([seed, 11])
    items, composition = [], {}
    named = {3: 0, 4: 0}
    for i in range(size):
        command, n, fmt = CLI_ROUND[i % len(CLI_ROUND)]
        slot = ANALYZE_ROUND[(i // len(CLI_ROUND)) % len(ANALYZE_ROUND)]
        kind, mat = _state(rng, slot, n, named[n])
        if slot == "named":
            named[n] += 1
        arg = fmt if command == "analyze" else labels[n][int(rng.integers(len(labels[n])))]
        items.append((command, n, arg, mat, file_text(mat, n)))
        key = f"{command}-{n}q"
        composition[key] = composition.get(key, 0) + 1
    return Pool(items, composition, (it[4] + f"{it[0]} {it[2]}".encode() for it in items))
