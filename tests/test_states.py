"""Tests for the state-family constructors."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entcheck import (
    BadGammaError,
    BadParamsError,
    BadWayError,
    DensityMatrix,
    ENTANGLED,
    INCONCLUSIVE,
    OutOfRangeError,
    apply_reduction,
    bell_pair,
    coherence_factor,
    embed_bipartite,
    ghz,
    kron,
    maximally_mixed,
    molecule_pair_reduction,
    molecule_state,
    omega_matrix,
    parse_label,
    partial_transpose,
    ppt_separable,
    product_pure,
    pure_fully_separable,
    reduce_split,
    upb_state,
    validate_density,
    werner_embedded,
    witness_tripartite,
)
from entcheck.linalg import hermitian_eigenvalues
from entcheck.reductions import make_label
from entcheck.states import _molecule_path_stack, _werner_stack

from util import bell_matrix, random_qubit, reduction_oracle


def test_all_constructors_validate_tightly():
    rng = np.random.default_rng(50)
    states = [
        ghz(),
        ghz(4),
        bell_pair(),
        maximally_mixed(3),
        werner_embedded(0.7),
        upb_state(),
        molecule_state(0.2, 0.3, 0.5),
        product_pure(random_qubit(rng), random_qubit(rng), random_qubit(rng)),
        embed_bipartite(bell_pair(), 2),
    ]
    for dm in states:
        validate_density(dm.mat, dm.n_qubits, tol=1e-12)


class TestGhz:
    def test_entries(self):
        mat = ghz().mat
        assert mat[0, 0] == 0.5
        assert mat[0, 7] == 0.5
        assert mat[7, 0] == 0.5
        assert mat[1, 1] == 0.0

    def test_four_qubit_corners(self):
        mat = ghz(4).mat
        assert mat[0, 15] == 0.5
        assert mat[15, 15] == 0.5


class TestWerner:
    def test_x_zero_is_maximally_mixed(self):
        assert np.allclose(werner_embedded(0.0).mat, np.eye(8) / 8, atol=1e-15)

    def test_core_entry(self):
        # at x=1 the |010><010| population is 1/4
        assert werner_embedded(1.0).mat[0b010, 0b010] == pytest.approx(0.25)

    def test_split_reduction_is_werner_mixture(self):
        # the (A,BC) split equals x*S + (1-x)/4 * I with S the
        # singlet-like coherence matrix
        s = np.zeros((4, 4))
        s[1, 1] = s[2, 2] = 0.5
        s[1, 2] = s[2, 1] = -0.5
        for x in (0.0, 0.3, 0.8, 1.0):
            out = reduce_split(werner_embedded(x), parse_label("A,BC", 3))
            assert np.allclose(out.mat, x * s + (1 - x) * np.eye(4) / 4, atol=1e-14)

    def test_pt_spectrum_formula(self):
        for x in (0.0, 0.25, 1 / 3, 0.5, 1.0):
            out = reduce_split(werner_embedded(x), parse_label("A,BC", 3))
            eigs = hermitian_eigenvalues(partial_transpose(out.mat, "Y"))
            expected = np.sort([(1 + x) / 4] * 3 + [(1 - 3 * x) / 4])
            assert np.allclose(eigs, expected, atol=1e-12)

    def test_x_one_split_pt_minimum(self):
        out = reduce_split(werner_embedded(1.0), parse_label("A,BC", 3))
        assert ppt_separable(out).min_pt_eigenvalue == pytest.approx(-0.5, abs=1e-12)

    def test_out_of_range(self):
        with pytest.raises(OutOfRangeError):
            werner_embedded(1.5)
        with pytest.raises(OutOfRangeError):
            werner_embedded(-0.1)


class TestEmbedBipartite:
    def test_way_four_of_mixed_is_maximally_mixed(self):
        out = embed_bipartite(maximally_mixed(2), 4)
        assert np.allclose(out.mat, np.eye(8) / 8, atol=1e-15)

    def test_split_ways_recover_input(self):
        for way, text in ((1, "A,BC"), (2, "B,CA"), (3, "C,AB")):
            out = embed_bipartite(bell_pair(), way)
            rec = reduce_split(out, parse_label(text, 3))
            assert np.allclose(rec.mat, bell_matrix(), atol=1e-14)

    def test_pair_ways_recover_input(self):
        for way, text in ((4, "A,B"), (5, "A,C"), (6, "B,C")):
            out = embed_bipartite(bell_pair(), way)
            rec = apply_reduction(out, parse_label(text, 3))
            assert np.allclose(rec.mat, bell_matrix(), atol=1e-14)

    def test_entangled_input_certified(self):
        for way in range(1, 7):
            rep = witness_tripartite(embed_bipartite(bell_pair(), way))
            assert rep.conclusion == ENTANGLED

    @pytest.mark.parametrize("way, text", [(1, "A,BC"), (2, "B,CA"), (3, "C,AB"),
                                           (4, "A,B"), (5, "A,C"), (6, "B,C")])
    def test_half_adjoint_of_its_reduction(self, way, text):
        """<embed(R), X> = <R, reduction(X)> / 2 for any R and X, with the
        reduction from the loop-and-Kraus oracle rather than the table."""
        rng = np.random.default_rng(way)
        label = parse_label(text, 3)
        for _ in range(5):
            r = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            x = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
            lhs = np.vdot(embed_bipartite(DensityMatrix(r, 2), way).mat, x)
            assert abs(lhs - 0.5 * np.vdot(r, reduction_oracle(x, label, 3))) <= 1e-12

    def test_bad_way(self):
        with pytest.raises(BadWayError):
            embed_bipartite(bell_pair(), 0)
        with pytest.raises(BadWayError):
            embed_bipartite(bell_pair(), 7)


class TestMolecule:
    def test_matches_outer_products(self):
        weights = (0.2, 0.3, 0.5)
        expected = np.zeros((8, 8), dtype=complex)
        for w, (hi, lo) in zip(weights, ((4, 2), (4, 1), (2, 1))):  # |0_r 1_s 0>, |1_r 0_s 0>
            ket = np.zeros(8)
            ket[hi] = ket[lo] = 2 ** -0.5
            expected += w * np.outer(ket, ket)
        first = molecule_state(*weights)
        molecule_state(1.0, 0.0, 0.0)
        assert np.array_equal(first.mat, expected)
        assert np.array_equal(molecule_state(*weights).mat, expected)

    def test_single_term_entries(self):
        mat = molecule_state(1.0, 0.0, 0.0).mat
        # (|010> + |100>)/sqrt(2) exchange term
        assert mat[2, 2] == pytest.approx(0.5)
        assert mat[4, 4] == pytest.approx(0.5)
        assert mat[2, 4] == pytest.approx(0.5)

    def test_coherence_entry_equals_half_weight(self):
        rng = np.random.default_rng(51)
        pair_index = {(0, 1): 0, (0, 2): 1, (1, 2): 2}
        for _ in range(20):
            w = rng.dirichlet(np.ones(3))
            for pair, pos in pair_index.items():
                red = molecule_pair_reduction(w[0], w[1], w[2], pair)
                assert red.mat[1, 2] == pytest.approx(w[pos] / 2, abs=1e-12)

    def test_traced_coherence_vanishes(self):
        red = molecule_pair_reduction(0.0, 1.0, 0.0, (0, 1))
        assert abs(red.mat[1, 2]) < 1e-15

    def test_pair_pt_spectrum_matches_direct_formula(self):
        # the PT eigenvalues of the (r,s) reduction close over the block
        # [[alpha, p/2], [p/2, 0]]: (alpha +- sqrt(alpha^2 + p^2))/2
        rng = np.random.default_rng(52)
        for _ in range(20):
            p_ab, p_ac, p_bc = rng.dirichlet(np.ones(3))
            red = molecule_pair_reduction(p_ab, p_ac, p_bc, (0, 1))
            alpha = red.mat[0, 0].real
            eigs = hermitian_eigenvalues(partial_transpose(red.mat, "Y"))
            lam_minus = (alpha - np.hypot(alpha, p_ab)) / 2
            lam_plus = (alpha + np.hypot(alpha, p_ab)) / 2
            assert eigs[0] == pytest.approx(lam_minus, abs=1e-12)
            assert np.min(np.abs(eigs - lam_plus)) < 1e-12
            # qualitative claim: some PT eigenvalue is negative whenever the
            # exchange weight is nonzero
            if p_ab > 1e-12:
                assert eigs[0] < 0

    def test_witness_fires_for_uniform_weights(self):
        rep = witness_tripartite(molecule_state(1 / 3, 1 / 3, 1 / 3))
        assert rep.conclusion == ENTANGLED

    def test_one_sided_weights(self):
        rep = witness_tripartite(molecule_state(0.0, 0.0, 1.0))
        by_text = {v.label.text: v for v in rep.verdicts}
        assert not by_text["B,C"].separable
        assert by_text["A,B"].separable
        assert by_text["A,C"].separable

    def test_bad_params(self):
        with pytest.raises(BadParamsError):
            molecule_state(0.5, 0.5, 0.5)
        with pytest.raises(BadParamsError):
            molecule_state(-0.2, 0.6, 0.6)

    def test_infinite_weights_raise_without_a_warning(self):
        """inf - inf in a weight sum warns in numpy; the range check reports the triple instead."""
        with pytest.raises(BadParamsError, match=r"^weights must lie in \[0, 1\], got \(inf, -inf, 0\.0\)$"):
            molecule_state(float("inf"), float("-inf"), 0.0)
        with pytest.raises(BadParamsError, match=r"^weights must lie in \[0, 1\], got \(inf, 0\.0, -inf\)$"):
            _molecule_path_stack([0.5, float("inf")])

    def test_nan_weight_is_named(self):
        # used to pass the weight check and end in NonFiniteError "matrix contains NaN..."
        with pytest.raises(BadParamsError, match=r"^weights must lie in \[0, 1\], got \(nan, 0\.0, 1\.0\)$"):
            molecule_state(float("nan"), 0.0, 1.0)
        with pytest.raises(BadParamsError, match=r"^weights must lie in \[0, 1\], got \(nan, 0\.0, nan\)$"):
            _molecule_path_stack([0.5, float("nan")])


class TestUpb:
    def test_trace_one(self):
        assert np.trace(upb_state().mat).real == pytest.approx(1.0, abs=1e-14)

    def test_annihilates_basis_members(self):
        """The four members are orthonormal, so 4 rho = I - sum |psi><psi|
        is a rank-4 projector that annihilates each of them."""
        zero = np.array([1.0, 0.0])
        one = np.array([0.0, 1.0])
        plus = np.array([1.0, 1.0]) / np.sqrt(2)
        minus = np.array([1.0, -1.0]) / np.sqrt(2)
        members = [np.kron(np.kron(a, b), c)
                   for a, b, c in ((zero, one, plus), (one, plus, zero), (plus, zero, one), (minus, minus, minus))]
        rho = upb_state().mat
        for psi in members:
            assert np.abs(rho @ psi).max() < 1e-15
        projector = 4 * rho
        assert np.allclose(projector @ projector, projector, rtol=0, atol=1e-14)
        assert np.linalg.matrix_rank(projector) == 4

    def test_witness_inconclusive(self):
        rep = witness_tripartite(upb_state())
        assert rep.conclusion == INCONCLUSIVE
        assert all(v.min_pt_eigenvalue >= -1e-9 for v in rep.verdicts)


class TestProductAndOmega:
    def test_product_pure_basis(self):
        dm = product_pure([1, 0], [1, 0], [1, 0])
        assert dm.mat[0, 0] == 1.0
        assert np.count_nonzero(dm.mat) == 1

    def test_product_pure_fully_separable(self):
        rng = np.random.default_rng(53)
        for _ in range(10):
            a, b, c = random_qubit(rng), random_qubit(rng), random_qubit(rng)
            coeffs = np.kron(np.kron(a, b), c)
            product_pure(a, b, c)  # validates
            assert pure_fully_separable(coeffs)

    def test_omega_trivial_cases(self):
        assert np.allclose(omega_matrix([1, 0], 0.7), np.diag([1.0, 0.0]))
        h = np.array([1, 1]) / np.sqrt(2)
        assert np.allclose(omega_matrix(h, 0.0), np.eye(2) / 2)
        assert np.allclose(omega_matrix(h, 1.0), np.full((2, 2), 0.5))

    def test_omega_is_density(self):
        rng = np.random.default_rng(54)
        for _ in range(20):
            u = random_qubit(rng)
            gamma = coherence_factor(random_qubit(rng))
            w = omega_matrix(u, gamma)
            assert abs(np.trace(w) - 1) < 1e-12
            assert np.min(hermitian_eigenvalues(w)) >= -1e-12
            det = np.linalg.det(w).real
            assert det >= -1e-12  # |u0*u1|^2 (1 - gamma^2)

    def test_uniform_superposition_split(self):
        h = np.array([1, 1]) / np.sqrt(2)
        dm = product_pure(h, h, h)
        out = reduce_split(dm, parse_label("A,BC", 3))
        expected = kron(np.outer(h, h), omega_matrix(h, 1.0))
        assert np.allclose(out.mat, expected, atol=1e-14)

    def test_bad_gamma(self):
        with pytest.raises(BadGammaError):
            omega_matrix([1, 0], 1.5)


def test_molecule_label_type_check():
    with pytest.raises(Exception):
        molecule_pair_reduction(1 / 3, 1 / 3, 1 / 3, make_label((0,), (1, 2)))


def molecule_path(t):
    return molecule_state(t, 0.0, 1.0 - t)


class TestSweepStacks:
    """The sweep's stacked constructors against the scalar ones they replace."""

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=12))
    def test_rows_equal_the_constructors(self, drawn):
        ts = [0.0, *drawn, 1.0]
        for build, make in ((_werner_stack, werner_embedded), (_molecule_path_stack, molecule_path)):
            stack = build(ts)
            assert stack.shape == (len(ts), 8, 8) and stack.dtype == np.float64
            for t, row in zip(ts, stack):
                assert row.tobytes() == make(t).mat.tobytes()  # bit for bit, signed zeros too

    @pytest.mark.parametrize("build, make, bad", [
        (_werner_stack, werner_embedded, -1e-12),
        (_werner_stack, werner_embedded, 1.0 + 1e-12),
        (_werner_stack, werner_embedded, float("nan")),
        (_molecule_path_stack, molecule_path, -2e-9),
        (_molecule_path_stack, molecule_path, 1.0 + 2e-9),
        (_molecule_path_stack, molecule_path, -0.5),
    ])
    def test_out_of_range_raises_the_constructors_error(self, build, make, bad):
        with pytest.raises(ValueError) as scalar:
            make(bad)
        with pytest.raises(type(scalar.value), match=f"^{re.escape(str(scalar.value))}$"):
            build([0.5, bad, 7.0])  # the first bad parameter is the one reported
