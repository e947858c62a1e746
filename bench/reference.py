"""Independent reference verdicts, computed outside the timed region.

Every reduction is written as dense Kraus operators on the full state
space: a party permutation followed by the pattern isometries (the same
definitions as the channel oracles in ``tests/util.py``) and a partial
trace.  The partial transpose here acts on the first qubit and the
eigenvalues come from a separate ``eigvalsh`` call, so none of the
library's reduction, transpose or witness code is involved.

A label names its map literally: the parties before the comma are kept,
the parties after it form the synthetic qubit in the order written, and
any party not named is traced out.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np

PARTIES = "ABCD"
VALUE_TOL = 1e-9    # library and reference PT eigenvalues agree this closely
CULPRIT_TOL = 1e-12  # labels this close to the minimum are equally valid culprits


def _cyclic_after(x: int, members) -> list[int]:
    ordered = sorted(members)
    i = ordered.index(x)
    return ordered[i + 1:] + ordered[:i]


def _text(first, second) -> str:
    return "".join(PARTIES[q] for q in first) + "," + "".join(PARTIES[q] for q in second)


def labels(n_qubits: int) -> list[str]:
    """The paper's reduction set: 6 labels for three qubits, 25 for four."""
    n = n_qubits
    out = [_text((a,), (b,)) for a, b in combinations(range(n), 2)]
    if n == 3:
        out += [_text((x,), _cyclic_after(x, range(3))) for x in range(3)]
        return out
    trio_splits = [
        _text((x,), _cyclic_after(x, set(range(4)) - {t}))
        for t in range(4) for x in sorted(set(range(4)) - {t})
    ]
    out += sorted(trio_splits)
    out += [_text((x,), _cyclic_after(x, range(4))) for x in range(4)]
    out += [_text((0, p), sorted({1, 2, 3} - {p})) for p in (1, 2, 3)]
    return out


def _pair_isometry(p: int) -> np.ndarray:
    k = np.zeros((2, 4))
    for y in (0, 1):
        k[y, 2 * y + (y ^ p)] = 1.0
    return k


def _triple_isometry(p: int, q: int) -> np.ndarray:
    k = np.zeros((2, 8))
    for y in (0, 1):
        k[y, 4 * y + 2 * (y ^ p) + (y ^ q)] = 1.0
    return k


def _permutation(perm, n: int) -> np.ndarray:
    """P with P|b_0..b_{n-1}> = |b_perm[0]..b_perm[n-1]>."""
    d = 2 ** n
    p = np.zeros((d, d))
    for b in range(d):
        bits = [(b >> (n - 1 - i)) & 1 for i in range(n)]
        new = sum(bits[perm[i]] << (n - 1 - i) for i in range(n))
        p[new, b] = 1.0
    return p


def kraus_operators(label: str, n_qubits: int) -> np.ndarray:
    """Kraus operators (m, 4, 2^n) of the reduction the label names."""
    first_txt, second_txt = label.split(",")
    first = [PARTIES.index(c) for c in first_txt]
    second = [PARTIES.index(c) for c in second_txt]
    traced = [q for q in range(n_qubits) if q not in first + second]
    perm = _permutation(first + second + traced, n_qubits)
    bras = np.eye(2 ** len(traced))  # row e is <e| on the traced parties
    if len(first) == 1 and len(second) == 1:
        cores = [np.eye(4)]
    elif len(first) == 1 and len(second) == 2:
        cores = [np.kron(np.eye(2), _pair_isometry(p)) for p in (0, 1)]
    elif len(first) == 1 and len(second) == 3:
        cores = [np.kron(np.eye(2), _triple_isometry(p, q)) for p in (0, 1) for q in (0, 1)]
    else:
        cores = [np.kron(_pair_isometry(p), _pair_isometry(q)) for p in (0, 1) for q in (0, 1)]
    return np.array([np.kron(core, bra[None, :]) @ perm for core in cores for bra in bras])


class Reference:
    """Reduction superoperators for one arity, applied to whole batches."""

    def __init__(self, n_qubits: int):
        self.n_qubits = n_qubits
        self.labels = labels(n_qubits)
        # vec(sigma)[ab] = sum_k sum_de K[a,d] rho[d,e] conj(K[b,e]), all labels stacked
        self._maps = np.concatenate([
            np.einsum("kad,kbe->abde", k, k.conj()).reshape(16, 4 ** n_qubits)
            for k in (kraus_operators(label, n_qubits) for label in self.labels)
        ])

    def reductions(self, mats: np.ndarray) -> np.ndarray:
        """(N, 2^n, 2^n) states -> (N, L, 4, 4) reductions."""
        flat = np.asarray(mats, dtype=complex).reshape(len(mats), -1)
        return (flat @ self._maps.T).reshape(len(mats), len(self.labels), 4, 4)

    def min_pt_eigenvalues(self, mats: np.ndarray) -> np.ndarray:
        """(N, L) smallest eigenvalue of each reduction's first-qubit transpose."""
        t = self.reductions(mats).reshape(len(mats), len(self.labels), 2, 2, 2, 2)
        pt = t.transpose(0, 1, 4, 3, 2, 5).reshape(len(mats), len(self.labels), 4, 4)
        pt = (pt + pt.conj().swapaxes(-1, -2)) / 2.0
        return np.linalg.eigvalsh(pt)[..., 0]


class Expected:
    """Reference verdict for one state."""

    def __init__(self, labels: list[str], min_eigs: np.ndarray, tol: float):
        self.values = dict(zip(labels, map(float, min_eigs)))
        self.tol = tol
        worst = float(np.min(min_eigs))
        self.entangled = worst < -tol
        self.culprits = {l for l, v in self.values.items() if v <= worst + CULPRIT_TOL}

    @property
    def conclusion(self) -> str:
        return "ENTANGLED" if self.entangled else "INCONCLUSIVE"

    @property
    def exit_code(self) -> int:
        return 2 if self.entangled else 0

    def margin(self) -> float:
        """Distance of the closest PT eigenvalue to the verdict threshold -tol."""
        return min(abs(v + self.tol) for v in self.values.values())


def expected(ref: Reference, mats, tol: float) -> list[Expected]:
    return [Expected(ref.labels, row, tol) for row in ref.min_pt_eigenvalues(np.asarray(mats))]


def check_report(exp: Expected, rows: list[tuple[str, float, bool]], conclusion: str,
                 culprit: str | None, exit_code: int) -> list[str]:
    """Mismatches between a program report and the reference; empty when it agrees."""
    problems = []
    seen = [label for label, _, _ in rows]
    if seen != list(exp.values):
        return [f"labels {seen} != reference {list(exp.values)}"]
    for label, value, separable in rows:
        ref = exp.values[label]
        if separable != (ref >= -exp.tol):
            problems.append(f"{label}: separable={separable}, reference min PT eigenvalue {ref:.3e}")
        if abs(value - ref) > VALUE_TOL:
            problems.append(f"{label}: min PT eigenvalue {value:.12e} != reference {ref:.12e}")
    if conclusion != exp.conclusion:
        problems.append(f"conclusion {conclusion} != reference {exp.conclusion}")
    if exp.entangled and culprit not in exp.culprits:
        problems.append(f"culprit {culprit} not in reference minimum {sorted(exp.culprits)}")
    if not exp.entangled and culprit is not None:
        problems.append(f"culprit {culprit} on an inconclusive state")
    if exit_code != exp.exit_code:
        problems.append(f"exit code {exit_code} != reference {exp.exit_code}")
    return problems
