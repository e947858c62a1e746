"""Shared test helpers: random-state generators and independent oracles.

The oracles here deliberately avoid the library's code paths: partial
traces and partial transposes are explicit index-sum loops, eigenvalues
come from a scalar cyclic-Jacobi iteration, the split-reduction
channels are built as dense Kraus matrices, the X-basis branches of
a reduction come from one einsum per outcome, and the summand tables
from an einsum over GF(2).
"""

from itertools import permutations, product

import numpy as np

from entcheck import DensityMatrix, partial_transpose, validate_density
from entcheck.reductions import _TABLES, _gather


def random_pure(rng, n_qubits):
    v = rng.standard_normal(2 ** n_qubits) + 1j * rng.standard_normal(2 ** n_qubits)
    return v / np.linalg.norm(v)


def random_qubit(rng):
    return random_pure(rng, 1)


def random_product_coeffs(rng):
    a, b, c = random_qubit(rng), random_qubit(rng), random_qubit(rng)
    return a, b, c, np.kron(np.kron(a, b), c)


def random_mixture(rng, n_qubits, k=None):
    """Random convex mixture of pure states; returns (dm, weights, pures)."""
    if k is None:
        k = int(rng.integers(1, 5))
    weights = rng.dirichlet(np.ones(k))
    pures = [random_pure(rng, n_qubits) for _ in range(k)]
    mat = sum(w * np.outer(v, v.conj()) for w, v in zip(weights, pures))
    return validate_density(mat, n_qubits), weights, pures


def random_density(rng, n_qubits):
    return random_mixture(rng, n_qubits)[0]


def ginibre_density(rng, n_qubits, rank=None):
    """G G^dag / Tr, with G a complex Gaussian 2^n x rank matrix (rank 2^n by default)."""
    d = 2 ** n_qubits
    k = d if rank is None else rank
    g = rng.standard_normal((d, k)) + 1j * rng.standard_normal((d, k))
    m = g @ g.conj().T
    return validate_density(m / np.trace(m).real, n_qubits)


def borderline_matrix(n_qubits):
    """Diagonal, -9e-10 on the 2^(n-2) basis states that the (A,B)
    reduction sums into its |00><00| entry, the rest uniform: it passes
    validation at tol 1e-9 with negative mass 2^(n-2) * 9e-10, and that
    entry's PT eigenvalue is minus the whole negative mass."""
    d, k = 2 ** n_qubits, 2 ** (n_qubits - 2)
    diag = np.full(d, (1 + k * 9e-10) / (d - k))
    diag[:k] = -9e-10
    return np.diag(diag)


def nonhermitian_stack(rng, n_qubits, size, scale):
    """(size, 2^n, 2^n) complex matrices with independent Gaussian entries
    times ``scale``: no symmetry of any kind."""
    shape = (size, 2 ** n_qubits, 2 ** n_qubits)
    return scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


def hermitized(m):
    """(M + M^dag) / 2 of one matrix, written out here: exactly Hermitian."""
    return (m + m.conj().T) / 2.0


def random_single_qubit_density(rng):
    g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    m = g @ g.conj().T
    return m / np.trace(m).real


# ---------------------------------------------------------------- oracles

def jacobi_eigenvalues_oracle(mat, off_tol=1e-12, sweep_limit=100):
    """Scalar cyclic Jacobi for Hermitian matrices; independent of LAPACK."""
    a = np.array(mat, dtype=complex)
    n = a.shape[0]
    scale = max(1.0, float(np.linalg.norm(a)))
    for _ in range(sweep_limit):
        off = np.sqrt(sum(abs(a[i, j]) ** 2 for i in range(n) for j in range(n) if i != j))
        if off <= off_tol * scale:
            return np.sort(np.diag(a).real)
        for p in range(n - 1):
            for q in range(p + 1, n):
                m = abs(a[p, q])
                if m <= off_tol * scale / (2 * n):
                    continue
                phase = a[p, q] / m
                tau = (a[q, q] - a[p, p]).real / (2 * m)
                t = (1.0 if tau >= 0 else -1.0) / (abs(tau) + np.hypot(1.0, tau))
                c = 1.0 / np.sqrt(1.0 + t * t)
                s = t * c
                col_p = a[:, p].copy()
                col_q = a[:, q].copy()
                a[:, p] = c * col_p - s * np.conj(phase) * col_q
                a[:, q] = s * col_p + c * np.conj(phase) * col_q
                row_p = a[p, :].copy()
                row_q = a[q, :].copy()
                a[p, :] = c * row_p - s * phase * row_q
                a[q, :] = s * row_p + c * phase * row_q
                a[p, q] = 0.0
                a[q, p] = 0.0
    raise AssertionError("Jacobi oracle did not converge")


def ptrace_loops(mat, keep, n):
    """Partial trace by explicit index sums; keep order respected."""
    traced = [q for q in range(n) if q not in keep]
    dk = 2 ** len(keep)
    out = np.zeros((dk, dk), dtype=complex)
    for a in range(2 ** n):
        bits_a = [(a >> (n - 1 - i)) & 1 for i in range(n)]
        for b in range(2 ** n):
            bits_b = [(b >> (n - 1 - i)) & 1 for i in range(n)]
            if any(bits_a[q] != bits_b[q] for q in traced):
                continue
            ia = sum(bits_a[q] << (len(keep) - 1 - pos) for pos, q in enumerate(keep))
            ib = sum(bits_b[q] << (len(keep) - 1 - pos) for pos, q in enumerate(keep))
            out[ia, ib] += mat[a, b]
    return out


def pt_loops(sig, side="Y"):
    """4x4 partial transpose by explicit entry definition."""
    out = np.zeros((4, 4), dtype=complex)
    for m in range(2):
        for nn in range(2):
            for r in range(2):
                for s in range(2):
                    if side == "Y":
                        out[2 * m + nn, 2 * r + s] = sig[2 * m + s, 2 * r + nn]
                    else:
                        out[2 * m + nn, 2 * r + s] = sig[2 * r + nn, 2 * m + s]
    return out


def partial_transpose_cut(mat, side, n):
    """Partial transpose of an n-qubit matrix on the parties in ``side``, by
    explicit index swaps and not from the reduction tables: entry (a, b)
    moves to the row that holds b's bits on ``side`` and a's elsewhere, and
    to the column that holds the reverse."""
    d = 2 ** n
    mask = sum(1 << (n - 1 - q) for q in side)
    out = np.zeros((d, d), dtype=complex)
    for a in range(d):
        for b in range(d):
            out[(a & ~mask) | (b & mask), (b & ~mask) | (a & mask)] = mat[a, b]
    return out


def negativity(h):
    """The summed magnitude of the negative eigenvalues of a Hermitian matrix."""
    ev = np.linalg.eigvalsh(h)
    return float(-ev[ev < 0.0].sum())


def permute_parties_loops(mat, perm):
    """Reorder parties so new position i holds old party perm[i]; loop-based."""
    n = len(perm)
    d = 2 ** n
    out = np.zeros((d, d), dtype=complex)
    for a in range(d):
        bits_a = [(a >> (n - 1 - i)) & 1 for i in range(n)]
        na = sum(bits_a[perm[i]] << (n - 1 - i) for i in range(n))
        for b in range(d):
            bits_b = [(b >> (n - 1 - i)) & 1 for i in range(n)]
            nb = sum(bits_b[perm[i]] << (n - 1 - i) for i in range(n))
            out[na, nb] = mat[a, b]
    return out


def _group_isometry(pattern):
    """2 x 2^(1+len(pattern)) operator mapping |y, y^p1, y^p2, ...> to |y>."""
    g = 1 + len(pattern)
    k = np.zeros((2, 2 ** g), dtype=complex)
    for y in (0, 1):
        bits = [y] + [y ^ p for p in pattern]
        k[y, sum(b << (g - 1 - pos) for pos, b in enumerate(bits))] = 1.0
    return k


def one_vs_three_channel_oracle(dm: DensityMatrix, x, y, z, w):
    """sum_{p,q} (I (x) K_pq) rho (I (x) K_pq)^dag with parties permuted to (x,y,z,w)."""
    m = permute_parties_loops(dm.mat, (x, y, z, w))
    out = np.zeros((4, 4), dtype=complex)
    eye2 = np.eye(2, dtype=complex)
    for p in (0, 1):
        for q in (0, 1):
            op = np.kron(eye2, _group_isometry((p, q)))
            out += op @ m @ op.conj().T
    return out


def two_vs_two_channel_oracle(dm: DensityMatrix, x1, x2, y1, y2):
    """sum_{p,q} (K_p (x) K_q) rho (K_p (x) K_q)^dag with parties permuted to (x1,x2,y1,y2)."""
    m = permute_parties_loops(dm.mat, (x1, x2, y1, y2))
    out = np.zeros((4, 4), dtype=complex)
    for p in (0, 1):
        for q in (0, 1):
            op = np.kron(_group_isometry((p,)), _group_isometry((q,)))
            out += op @ m @ op.conj().T
    return out


def reduction_oracle(mat, label, n):
    """Any of the 6 + 25 reductions from loops and dense Kraus operators.

    Traces out the parties the label omits and orders the rest as
    (first group, second group) with ``ptrace_loops``, then sums
    (K_x (x) K_y) sigma (K_x (x) K_y)^dag over every pattern of each
    group's isometry; a one-party group's isometry is the identity.
    """
    sigma = ptrace_loops(np.asarray(mat, dtype=complex), label.first + label.second, n)
    out = np.zeros((4, 4), dtype=complex)
    for px in product((0, 1), repeat=len(label.first) - 1):
        for py in product((0, 1), repeat=len(label.second) - 1):
            op = np.kron(_group_isometry(px), _group_isometry(py))
            out += op @ sigma @ op.conj().T
    return out


def index_table_oracle(labels, n):
    """The summand tables of the labels as (table, pt), each of shape
    (L, 4, 4, 2^(n-2)), by the rule in linear algebra over GF(2) rather
    than in integer bits.

    ``table[l, 2i+j, 2r+s, k]`` is the flat input index of
    (ket(i, j, k), bra(r, s, k)).  Party q's ket bit is sel[q] . (i, j, k)
    mod 2: its group's output bit, plus, unless q heads its group, the
    free bit of its rank among the parties that head no group.  ``pt``
    swaps j and s, out[mn, rs] = in[ms, rn].  Both are C-ordered.
    """
    sel = np.zeros((len(labels), n, n), dtype=np.int64)
    for row, label in enumerate(labels):
        heads = (label.first[0], label.second[0])
        sel[row, list(label.first), 0] = 1
        sel[row, list(label.second), 1] = 1
        for m, q in enumerate(q for q in range(n) if q not in heads):
            sel[row, q, 2 + m] = 1
    shifts = np.arange(n - 1, -1, -1)  # big-endian: qubit 0 is the top bit
    codes = np.arange(2 ** n).reshape(4, -1)  # [2i+j, k] -> bits (i, j, k)
    bits = (codes[..., None] >> shifts) & 1
    index = (np.einsum("lqc,akc->lakq", sel, bits) % 2) @ (1 << shifts)  # (L, 4, 2^(n-2))
    table = index[:, :, None, :] * 2 ** n + index[:, None, :, :]
    pt = table.reshape(table.shape[:1] + (2, 2, 2, 2) + table.shape[-1:]).swapaxes(2, 4).reshape(table.shape)
    return table, pt


def x_branches(mat, label, n):
    """The X-basis branches of a reduction, by the rule and not from its
    index tables: [(s, sigma_s)] over every outcome s, a dict of one bit per
    non-head member of the label's groups.

    sigma_s projects each such member m onto |s_m>_X = (|0> + (-1)^s_m |1>) / sqrt(2)
    on ket and bra, traces the parties the label omits and keeps the two
    heads as (first head, second head): one einsum over the state's tensor
    with axes (ket 0..n-1, bra 0..n-1).  The X vectors enter as (1, +-1),
    and each branch is halved once per member, so no rounded sqrt(2) enters.
    """
    heads = (label.first[0], label.second[0])
    members = [q for q in range(n) if q in label.parties and q not in heads]
    letters = iter("abcdefghijklmnopqrstuvwxyz")
    ket, bra = [None] * n, [None] * n
    for q in range(n):
        ket[q] = next(letters)
        bra[q] = ket[q] if q not in label.parties else next(letters)  # a traced party: ket = bra
    spec = ",".join(["".join(ket + bra)] + [v for m in members for v in (ket[m], bra[m])])
    spec += "->" + ket[heads[0]] + ket[heads[1]] + bra[heads[0]] + bra[heads[1]]
    t = np.asarray(mat, dtype=complex).reshape((2,) * (2 * n))
    branches = []
    for s in product((0, 1), repeat=len(members)):
        x = [np.array([1.0, -1.0 if bit else 1.0]) for bit in s]
        sigma = np.einsum(spec, t, *[v for v in x for _ in (0, 1)]).reshape(4, 4)
        branches.append((dict(zip(members, s)), sigma / 2 ** len(members)))
    return branches


def x_branch_sum(mat, label, n):
    """sum_s Z^s sigma_s Z^s over the branches of ``x_branches``: Z acts on
    each head raised to the parity of its group's members' bits."""
    out = np.zeros((4, 4), dtype=complex)
    for s, sigma in x_branches(mat, label, n):
        za = sum(s.get(q, 0) for q in label.first) % 2
        zb = sum(s.get(q, 0) for q in label.second) % 2
        z = np.array([(-1) ** (za * i + zb * j) for i in (0, 1) for j in (0, 1)], dtype=float)
        out += z[:, None] * sigma * z[None, :]
    return out


def symmetrized_pt_minima(mats, n):
    """(N, L) minimum PT eigenvalues by the kernel's earlier formula: gather
    the reductions of M itself, partially transpose each, symmetrize each
    4x4 block and solve, one state at a time; a state with no imaginary
    part goes through all of it in float64.  Equal to the kernel bit for
    bit on exactly Hermitian M; on other M it rounds differently."""
    rows = []
    for m in np.asarray(mats):
        if not m.imag.any():
            m = m.real
        pts = partial_transpose(_gather(m, _TABLES[n]))
        rows.append(np.linalg.eigvalsh((pts + pts.conj().swapaxes(-1, -2)) / 2.0)[..., 0])
    return np.array(rows)


def record_eigensolves(monkeypatch, dtypes=False):
    """The shape of the stack of every ``numpy.linalg.eigvalsh`` call from
    now on, in call order, or with ``dtypes`` its (shape, dtype) pair; the
    list fills as the calls happen."""
    calls = []
    solve = np.linalg.eigvalsh

    def record(a, *args):
        calls.append((np.shape(a), np.asarray(a).dtype) if dtypes else np.shape(a))
        return solve(a, *args)

    monkeypatch.setattr(np.linalg, "eigvalsh", record)
    return calls


def record_hermitian_parts(monkeypatch):
    """The shape of every matrix or stack whose Hermitian part the library
    forms from now on, in call order; the list fills as the calls happen."""
    import entcheck.linalg as linalg

    calls = []
    part = linalg._hermitian_part

    def record(m, *args):
        calls.append(np.shape(m))
        return part(m, *args)

    monkeypatch.setattr(linalg, "_hermitian_part", record)
    return calls


def bell_matrix():
    m = np.zeros((4, 4), dtype=complex)
    for a in (0, 3):
        for b in (0, 3):
            m[a, b] = 0.5
    return m


def det_oracle(mat):
    """Determinant by the Leibniz sum over permutations; independent of LAPACK."""
    m = [[complex(x) for x in row] for row in np.asarray(mat)]
    total = 0j
    for perm in permutations(range(len(m))):
        inversions = sum(perm[i] > perm[j] for i in range(len(perm)) for j in range(i + 1, len(perm)))
        term = complex(-1 if inversions % 2 else 1)
        for row, col in enumerate(perm):
            term *= m[row][col]
        total += term
    return total


def qubit_unitary(theta, phi, lam):
    """The single-qubit unitary U3(theta, phi, lambda)."""
    c, s = np.cos(theta / 2), np.sin(theta / 2)
    return np.array([[c, -np.exp(1j * lam) * s],
                     [np.exp(1j * phi) * s, np.exp(1j * (phi + lam)) * c]])


def local_unitary(factors):
    """Kronecker product of single-qubit unitaries, party A first."""
    u = np.eye(1, dtype=complex)
    for f in factors:
        u = np.kron(u, f)
    return u
