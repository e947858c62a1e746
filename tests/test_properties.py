"""Property tests: the negative-mass bound behind the PPT threshold, a
LAPACK-free verdict oracle, local-unitary invariance of pair traces, the
PPT of products at every label whose heads a cut splits, each reduction
as the Z-corrected sum of its X-basis branches, the negativity chain
from a reduction through its branches to every cut splitting its heads, the
white-noise thresholds of GHZ and W states by labels and by cuts, the labels under
cyclic shifts of three parties, the independence of a real state's row from the stack it comes in, the
one-matrix input check against the stacked one, and the magnitude bound
of DensityMatrix over every finite matrix."""

import warnings
from itertools import combinations

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from entcheck import (
    DEFAULT_TOL,
    DensityMatrix,
    NonFiniteError,
    ReductionKind,
    embed_bipartite,
    ghz,
    hermitian_eigenvalues,
    hermitian_eigenvalues_stack,
    labels_for,
    min_pt_eigenvalues,
    molecule_state,
    partial_transpose,
    ppt_separable,
    reduce_all_quadripartite,
    reduce_all_tripartite,
    validate_density,
    werner_embedded,
    witness,
)
from entcheck.linalg import (
    NotHermitianError,
    ValidationError,
    _checked_mass,
    _checked_stack,
    _invariant_deviations,
    _matrix_deviations,
)
from entcheck.reductions import make_label
from entcheck.states import maximally_mixed

from util import (bell_matrix, det_oracle, ginibre_density, hermitized, local_unitary, negativity,
                  partial_transpose_cut, permute_parties_loops, pt_loops, qubit_unitary, x_branch_sum, x_branches)

TOL = 1e-9
ROUNDOFF = 1e-14  # eigensolver error on matrices of norm <= 1, far below TOL
REDUCE_ALL = {3: reduce_all_tripartite, 4: reduce_all_quadripartite}
EMBEDDED_LABEL = {1: "A,BC", 2: "B,CA", 3: "C,AB", 4: "A,B", 5: "A,C", 6: "B,C"}

SETTINGS = settings(max_examples=80, deadline=None, derandomize=True, database=None)

angles = st.one_of(st.just(0.0), st.floats(0.0, 2 * np.pi))
qubit_unitaries = st.builds(qubit_unitary, angles, angles, angles)


@st.composite
def perturbed_product_mixtures(draw):
    """(n, rho, nu): a mixture of product basis states of a random local
    basis, minus a perturbation of trace nu on the rest of that basis.

    Each eigenvalue of the perturbation lies in [-0.99 TOL, 0], so rho
    passes validation with up to (d - 1) * TOL of negative mass; its
    positive part is the mixture, which is separable.  With the identity as local
    basis the perturbation can land on a single reduction entry, where
    the bound is tight.
    """
    n = draw(st.sampled_from([3, 4]))
    d = 2 ** n
    u = local_unitary(draw(st.lists(qubit_unitaries, min_size=n, max_size=n)))
    order = draw(st.permutations(range(d)))
    k = draw(st.integers(1, d - 1))
    weights = np.array(draw(st.lists(st.floats(0.01, 1.0), min_size=k, max_size=k)))
    dents = TOL * np.array(draw(st.lists(st.floats(0.0, 0.99), min_size=d - k, max_size=d - k)))
    nu = float(dents.sum())
    diag = np.zeros(d)
    diag[list(order[:k])] = weights / weights.sum() * (1.0 + nu)
    diag[list(order[k:])] = -dents
    return n, (u * diag) @ u.conj().T, nu


@SETTINGS
@given(perturbed_product_mixtures())
def test_negative_mass_bounds_every_reduction_and_pt_spectrum(case):
    n, rho, nu = case
    dm = validate_density(rho, n, TOL)
    for reduced in REDUCE_ALL[n](dm, validate=False).values():
        assert np.linalg.eigvalsh(reduced.mat)[0] >= -nu - ROUNDOFF
    assert min_pt_eigenvalues([dm]).min() >= -nu - ROUNDOFF
    # the positive part is separable, so neither source of nu may report ENTANGLED
    for state in (dm, DensityMatrix(rho, n, TOL)):
        report = witness(state)
        assert not report.entangled
        for verdict in report.verdicts:
            assert verdict.tolerance_used == pytest.approx(TOL + nu, rel=0, abs=ROUNDOFF)


@st.composite
def two_qubit_states(draw):
    """A random two-qubit state of rank 1 to 4, mixed with white noise."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    g = rng.standard_normal((4, draw(st.integers(1, 4)))) * (1 + 0j)
    g += 1j * rng.standard_normal(g.shape)
    m = g @ g.conj().T
    p = draw(st.floats(0.0, 1.0))
    return p * m / np.trace(m).real + (1 - p) * np.eye(4) / 4


@SETTINGS
@given(two_qubit_states(), st.sampled_from(sorted(EMBEDDED_LABEL)))
def test_det_of_partial_transpose_decides_the_verdict(sigma, way):
    """A two-qubit state is entangled iff det(sigma^T_B) < 0 (Augusiak,
    Demianowicz & Horodecki, PRA 77, 030301(R) (2008)); the determinant
    here comes from index loops and the Leibniz sum, not LAPACK."""
    det = det_oracle(pt_loops(sigma)).real
    assume(abs(det) > 1e-9)  # then the negative PT eigenvalue, if any, is far below -TOL
    r = validate_density(sigma, 2, TOL)
    assert ppt_separable(r).separable == (det > 0)
    report = witness(embed_bipartite(r, way))
    (verdict,) = [v for v in report.verdicts if v.label.text == EMBEDDED_LABEL[way]]
    assert verdict.separable == (det > 0)
    if way >= 4:  # R on a pair, the third qubit maximally mixed: separable iff R is
        assert report.entangled == (det < 0)


@SETTINGS
@given(st.sampled_from([3, 4]), st.integers(0, 2 ** 32 - 1), st.data())
def test_pair_trace_pt_spectra_invariant_under_local_unitaries(n, seed, data):
    rho = ginibre_density(np.random.default_rng(seed), n)
    u = local_unitary(data.draw(st.lists(qubit_unitaries, min_size=n, max_size=n)))
    rotated = validate_density(u @ rho.mat @ u.conj().T, n, TOL)
    pairs = [i for i, label in enumerate(labels_for(n)) if label.kind is ReductionKind.PAIR_TRACE]

    def pair_spectra(state):
        mats = [m.mat for m in REDUCE_ALL[n](state).values()]
        return hermitian_eigenvalues_stack(partial_transpose(np.array(mats)[pairs]))

    assert np.allclose(pair_spectra(rotated), pair_spectra(rho), rtol=0, atol=1e-12)
    assert np.allclose(min_pt_eigenvalues([rotated])[0, pairs], min_pt_eigenvalues([rho])[0, pairs],
                       rtol=0, atol=1e-12)


# one side of every cut S|T of n parties: the side that holds party A
CUTS = {n: [set(side) for k in range(1, n) for side in combinations(range(n), k) if 0 in side] for n in (3, 4)}


def _random_mixed(rng, k):
    """A k-qubit Ginibre state of random rank."""
    d = 2 ** k
    g = rng.standard_normal((d, rng.integers(1, d + 1)))
    g = g + 1j * rng.standard_normal(g.shape)
    m = g @ g.conj().T
    return m / np.trace(m).real


def _product_across(side, sigma, tau):
    """sigma on the parties of ``side`` times tau on the others, both in
    ascending party order, as a matrix on parties 0..n-1."""
    n = int(np.log2(len(sigma) * len(tau)))
    order = sorted(side) + [q for q in range(n) if q not in side]
    return permute_parties_loops(np.kron(sigma, tau), [order.index(q) for q in range(n)])


@SETTINGS
@given(st.sampled_from([3, 4]), st.integers(0, 2 ** 32 - 1))
def test_a_product_passes_every_label_whose_heads_its_cut_splits(n, seed):
    """Each group's channel is a CNOT from its head (its first party) onto
    the other members, then a trace of them, so across a cut S|T that puts
    the two heads of a label on opposite sides a product sigma_S (x) tau_T
    stays separable under that label, and its PT spectrum is nonnegative."""
    rng = np.random.default_rng(seed)
    for side in CUTS[n]:
        sigma, tau = _random_mixed(rng, len(side)), _random_mixed(rng, n - len(side))
        row = min_pt_eigenvalues([validate_density(_product_across(side, sigma, tau), n, TOL)])[0]
        for label, value in zip(labels_for(n), row):
            if (label.first[0] in side) != (label.second[0] in side):
                assert value >= -1e-12, (side, label)


@SETTINGS
@given(st.sampled_from([3, 4]), st.integers(0, 2 ** 32 - 1))
def test_each_reduction_is_the_sum_of_its_x_basis_branches(n, seed):
    """The identity behind the LOCC reading of the reductions (see the
    ``reductions`` docstring): projecting each non-head member onto the X
    basis, tracing the rest and undoing Z on the heads by the parity of each
    group's bits gives, summed over outcomes, every one of the 6 or 25
    reductions."""
    rho = ginibre_density(np.random.default_rng(seed), n)
    for label, reduced in REDUCE_ALL[n](rho).items():
        assert np.abs(x_branch_sum(rho.mat, label, n) - reduced.mat).max() <= 1e-15, label


@settings(SETTINGS, max_examples=20)
@given(st.sampled_from([3, 4]), st.integers(1, 4), st.integers(0, 2 ** 32 - 1))
def test_negativity_does_not_grow_from_a_cut_to_a_reduction(n, rank, seed):
    """Each X-basis branch is a local operation on every party, negativity
    does not grow on average under local operations (Vidal & Werner, PRA
    65, 032314 (2002)), and it is convex and unchanged by the heads' Z's.
    So N(reduction) <= sum_s N(sigma_s) <= N_cut(rho) for every cut that
    splits the label's heads, with N the summed magnitude of the negative
    PT eigenvalues and N_cut's transpose taken on the full space.  Ranks
    up to 4, where most states have negative reductions and branches; at
    full rank nearly every reduction is PPT."""
    rho = ginibre_density(np.random.default_rng(seed), n, rank)
    cuts = [(side, negativity(partial_transpose_cut(rho.mat, side, n))) for side in CUTS[n]]
    for label, reduced in REDUCE_ALL[n](rho).items():
        branches = sum(negativity(pt_loops(sigma)) for _, sigma in x_branches(rho.mat, label, n))
        assert negativity(pt_loops(reduced.mat)) <= branches + 1e-12, label
        for side, across in cuts:
            if (label.first[0] in side) != (label.second[0] in side):
                assert branches <= across + 1e-12, (label, side)


def _white_noise_threshold(psi, n, negative):
    """The mixing p of p|psi><psi| + (1 - p) I/d above which ``negative``
    holds, bisected on [0, 1] to a bracket 1e-6 wide; its midpoint."""
    d = 2 ** n
    lo, hi = 0.0, 1.0
    while hi - lo > 1e-6:
        mid = (lo + hi) / 2
        mat = mid * np.outer(psi, psi.conj()) + (1 - mid) * np.eye(d) / d
        lo, hi = (lo, mid) if negative(mat) else (mid, hi)
    return (lo + hi) / 2


def _basis_sum(n, indices):
    v = np.zeros(2 ** n)
    v[indices] = len(indices) ** -0.5
    return v


@pytest.mark.parametrize("psi, n, by_labels, by_cuts", [
    (_basis_sum(3, [0b000, 0b111]), 3, 1 / 3, 1 / 5),
    (_basis_sum(4, [0b0000, 0b1111]), 4, 1 / 3, 1 / 9),
    (_basis_sum(3, [0b001, 0b010, 0b100]), 3, 0.548232, 0.209589),
], ids=["GHZ3", "GHZ4", "W"])
def test_white_noise_thresholds_of_the_labels_and_the_cuts(psi, n, by_labels, by_cuts):
    """The detection ceiling: a failing label implies a failing cut that
    splits its heads (the negativity chain above), so the labels never
    detect below the plain partial transpose of the full state on its
    cuts.  For GHZ and W states in white noise they detect strictly less:
    these are the mixings above which the least PT eigenvalue of the 6 or
    25 labels, and of the 3 or 7 cuts, turns negative."""
    labels = _white_noise_threshold(psi, n, lambda m: min_pt_eigenvalues([DensityMatrix(m, n)]).min() < 0.0)
    cuts = _white_noise_threshold(psi, n, lambda m: min(np.linalg.eigvalsh(partial_transpose_cut(m, side, n))[0]
                                                        for side in CUTS[n]) < 0.0)
    assert labels == pytest.approx(by_labels, rel=0, abs=1e-6)
    assert cuts == pytest.approx(by_cuts, rel=0, abs=1e-6)


def test_cut_partial_transpose_of_bell_on_a_c():
    """Bell(A,C) (x) I/2 on B has negativity 1/2 across each cut that splits
    A from C and none across AC|B; on two qubits the transpose of the
    second party is ``pt_loops``'s."""
    rho = _product_across({0, 2}, bell_matrix(), np.eye(2) / 2)
    for side, expected in (({0}, 0.5), ({0, 1}, 0.5), ({0, 2}, 0.0)):
        assert negativity(partial_transpose_cut(rho, side, 3)) == pytest.approx(expected, rel=0, abs=ROUNDOFF), side
    sigma = np.random.default_rng(5).standard_normal((4, 4))
    assert np.array_equal(partial_transpose_cut(sigma, {1}, 2), pt_loops(sigma))


def test_bell_on_a_c_fails_only_labels_whose_heads_share_a_side():
    """Bell(A,C) (x) I/2 on B: the cut AC|B splits the heads of (A,B),
    (B,C), (A,BC) and (B,CA), which pass; (A,C) reads -1/2."""
    rho = validate_density(_product_across({0, 2}, bell_matrix(), np.eye(2) / 2), 3, TOL)
    values = dict(zip((label.text for label in labels_for(3)), min_pt_eigenvalues([rho])[0].tolist()))
    assert values["A,C"] == pytest.approx(-0.5, rel=0, abs=ROUNDOFF)
    assert all(values[text] >= 0.0 for text in ("A,B", "B,C", "A,BC", "B,CA"))


@SETTINGS
@given(st.integers(0, 2 ** 32 - 1), st.sampled_from([(1, 2, 0), (2, 0, 1)]))
def test_cyclic_party_shifts_permute_the_three_qubit_labels(seed, perm):
    """A cyclic shift of the parties maps each canonical label, heads
    included, onto a canonical label, so the min PT eigenvalues of P rho P^dag
    are those of rho with the labels permuted."""
    rho = ginibre_density(np.random.default_rng(seed), 3)
    shifted = validate_density(permute_parties_loops(rho.mat, perm), 3, TOL)
    labels = labels_for(3)
    moved = []
    for label in labels:
        first, second = (tuple(perm.index(q) for q in group) for group in (label.first, label.second))
        image = make_label(first, second)
        assert {image.first, image.second} == {first, second}  # the same map, not one with other heads
        moved.append(labels.index(image))
    assert np.allclose(min_pt_eigenvalues([shifted])[0, moved], min_pt_eigenvalues([rho])[0], rtol=0, atol=1e-12)


@st.composite
def real_states(draw, n):
    """A named real n-qubit state, or a random real symmetric one."""
    named = [ghz(n), maximally_mixed(n)]
    if n == 3:
        x, t = draw(st.floats(0.0, 1.0)), draw(st.floats(0.0, 1.0))
        named += [werner_embedded(x), molecule_state(t, 0.0, 1.0 - t)]
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    g = rng.standard_normal((2 ** n, draw(st.integers(1, 2 ** n))))
    m = hermitized(g @ g.T)
    named.append(validate_density(m / np.trace(m), n, TOL))
    return draw(st.sampled_from(named))


@SETTINGS
@given(st.sampled_from([3, 4]), st.data())
def test_real_row_is_independent_of_a_complex_stack(n, data):
    """A real state's row in a stack with complex Ginibre states equals its
    lone row bit for bit, and the row of its matrix given as complex."""
    rho = data.draw(real_states(n))
    assert rho.mat.dtype == np.float64
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    others = [ginibre_density(rng, n) for _ in range(data.draw(st.integers(1, 4)))]
    at = data.draw(st.integers(0, len(others)))
    stack = others[:at] + [rho] + others[at:]
    row = min_pt_eigenvalues(stack)[at]
    assert row.tobytes() == min_pt_eigenvalues([rho])[0].tobytes()
    assert row.tobytes() == min_pt_eigenvalues([DensityMatrix(rho.mat.astype(complex), n)])[0].tobytes()


@st.composite
def checked_matrices(draw):
    """(n, M, tol): a 2-, 3- or 4-qubit density matrix, real or complex, of
    any rank, either exactly or only nearly Hermitian, then perhaps moved
    further from Hermitian, off unit trace or below zero, given -0.0
    entries, or typed complex with a zero imaginary part."""
    n = draw(st.sampled_from([2, 3, 4]))
    d = 2 ** n
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    real = draw(st.booleans())
    if draw(st.booleans()):
        k = draw(st.integers(1, d))
        g = rng.standard_normal((d, k)) + (0.0 if real else 1j * rng.standard_normal((d, k)))
        m = g @ g.conj().T  # Hermitian up to roundoff
        m = m / np.trace(m).real
    else:  # diagonal, as the named families are in much of their matrix
        m = np.diag(rng.dirichlet(np.ones(d)))
    if draw(st.booleans()):
        m = hermitized(m)
    noise = rng.standard_normal((d, d)) + (0.0 if real else 1j * rng.standard_normal((d, d)))
    if draw(st.booleans()):
        noise = hermitized(noise)
    m = m + draw(st.sampled_from([0.0, 1e-12, 1e-9, 1e-6, 1e-2])) * noise
    m = m * (1.0 + draw(st.sampled_from([0.0, 0.0, 1e-10, 1e-8, 0.5])))
    v = rng.standard_normal(d) + (0.0 if real else 1j * rng.standard_normal(d))
    v = v / np.linalg.norm(v)
    m = m - draw(st.sampled_from([0.0, 1e-10, 1e-8, 0.1])) * np.outer(v, v.conj())
    if draw(st.booleans()):  # -0.0 at mirrored off-diagonal places
        mask = np.triu(rng.random((d, d)) < 0.5, 1)
        m = np.where(mask | mask.T, -0.0, m)
    if real and draw(st.booleans()):
        m = m.astype(complex)
        m.imag = np.where(rng.random((d, d)) < 0.5, -0.0, 0.0)
    return n, m, draw(st.sampled_from([1e-9, 1e-7]))


def _outcome(check):
    """The negative masses a check returns, or the type and message it raises."""
    try:
        return np.asarray(check()).tolist()
    except ValidationError as exc:
        return type(exc), str(exc)


@SETTINGS
@given(checked_matrices(), st.integers(0, 2))
def test_one_matrix_pass_equals_its_stacked_row(case, at):
    """The one-matrix pass that checks a single state gives the four
    deviations and H of the matrix's row of any stack bit for bit, and its
    check raises the same error, or keeps the same negative mass, as the
    stacked check."""
    n, m, tol = case
    deviations, h = _matrix_deviations(m)
    assert all(type(x) is float for x in deviations)
    others = [hermitized(ginibre_density(np.random.default_rng(i), n).mat).astype(m.dtype, copy=False)
              if m.dtype.kind == "c" else np.eye(2 ** n) / 2 ** n for i in range(2)]
    for stack, row in ((m[None], 0), (np.array(others[:at] + [m] + others[at:]), at)):
        stacked, stacked_h = _invariant_deviations(stack)
        assert np.array(deviations).tobytes() == np.array([x[row] for x in stacked]).tobytes()
        assert h.dtype == stacked_h.dtype and h.tobytes() == stacked_h[row].tobytes()
    rho = DensityMatrix(m, n, tol)
    stacked = _outcome(lambda: _checked_stack(rho.mat[None], tol)[0])
    assert _outcome(lambda: [_checked_mass(validate_density(m, n, tol))]) == stacked
    if n >= 3:
        fresh = DensityMatrix(m, n, tol)
        assert _outcome(lambda: (min_pt_eigenvalues([fresh]), [_checked_mass(fresh)])[1]) == stacked


@st.composite
def wide_range_matrices(draw):
    """(n, M): a 1- to 4-qubit matrix, real or complex, perhaps Hermitian,
    whose parts are any finite float64s, subnormals and the largest float64
    included, or, half the time, any up to the bound max_float64 / (4 d^2)
    of DensityMatrix, the bound itself included."""
    n = draw(st.integers(1, 4))
    d = 2 ** n
    bound = np.finfo(float).max / (4 * d * d)
    parts = st.floats(-bound, bound) if draw(st.booleans()) else st.floats(allow_nan=False, allow_infinity=False)
    entries = st.lists(parts, min_size=d * d, max_size=d * d)
    m = np.array(draw(entries)).reshape(d, d)
    if draw(st.booleans()):
        m = m + 1j * np.array(draw(entries)).reshape(d, d)
    if draw(st.booleans()):  # mirror the upper triangle; the diagonal keeps its real part
        m = np.triu(m, 1) + np.triu(m, 1).conj().T + np.diag(m.diagonal().real)
    return n, m


@SETTINGS
@given(wide_range_matrices())
def test_every_finite_matrix_passes_the_door_or_is_rejected_there(case):
    """Every finite matrix raises NonFiniteError at DensityMatrix and at
    hermitian_eigenvalues_stack alike, or passes both.  One that passes is
    measured, checked, solved and, at 3 or 4 qubits, witnessed unchecked with
    no RuntimeWarning and no NaN or inf; its one-matrix pass equals its
    stacked row bit for bit, and hermitian_eigenvalues gives the stack's
    values or raises NotHermitianError."""
    n, m = case
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            rho = DensityMatrix(m, n)
        except NonFiniteError:
            with pytest.raises(NonFiniteError, match="past the bound"):
                hermitian_eigenvalues_stack(m[None])
            return
        deviations, _ = _matrix_deviations(m)
        stacked, _ = _invariant_deviations(m[None])
        try:
            validate_density(m, n)
        except ValidationError:
            pass
        values = hermitian_eigenvalues_stack(m[None])[0]
        try:
            assert hermitian_eigenvalues(m).tobytes() == values.tobytes()
        except NotHermitianError as exc:
            assert exc.deviation > DEFAULT_TOL
        minima = [v.min_pt_eigenvalue for v in witness(rho, validate_reductions=False).verdicts] if n >= 3 else []
    assert np.isfinite(deviations).all() and np.isfinite(values).all() and np.isfinite(minima).all()
    assert np.array(deviations).tobytes() == np.array([x[0] for x in stacked]).tobytes()
    assert (values[:-1] <= values[1:]).all()
