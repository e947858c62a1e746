"""Tests for partial transposition, PPT verdicts, witnesses and pure-state decisions."""

import numpy as np
import pytest

from entcheck import (
    ENTANGLED,
    INCONCLUSIVE,
    BadToleranceError,
    DensityMatrix,
    NonFiniteError,
    PptVerdict,
    bell_pair,
    embed_bipartite,
    ghz,
    kron,
    labels_for,
    min_pt_eigenvalues,
    molecule_state,
    necessary_condition_holds,
    partial_transpose,
    ppt_separable,
    product_pure,
    pure_density,
    pure_fully_separable,
    pure_split_separable,
    reduce_all_tripartite,
    reduce_split,
    parse_label,
    split_coefficient_matrix,
    upb_state,
    validate_density,
    werner_embedded,
    witness,
    witness_quadripartite,
    witness_tripartite,
)
from entcheck.linalg import (NotHermitianError, NotNormalizedError, NotPSDError, TraceNotOneError, _checked_mass,
                             _matrix_deviations, _measure, hermitian_eigenvalues, hermitian_eigenvalues_stack)
from entcheck.reductions import ReductionKind, WrongArityError, _PT_TABLES, _gather, apply_reduction
from entcheck.separability import PURE_SPLITS, WrongDimError, _pt_minima
from entcheck.states import maximally_mixed

from util import (
    bell_matrix,
    borderline_matrix,
    ginibre_density,
    hermitized,
    pt_loops,
    random_mixture,
    random_product_coeffs,
    random_pure,
    random_qubit,
    random_single_qubit_density,
    record_eigensolves,
    record_hermitian_parts,
    symmetrized_pt_minima,
)


class TestPartialTranspose:
    def test_identity_fixed_point(self):
        for side in ("X", "Y"):
            assert np.allclose(partial_transpose(np.eye(4) / 4, side), np.eye(4) / 4)

    def test_bell_spectrum(self):
        eigs = hermitian_eigenvalues(partial_transpose(bell_matrix(), "Y"))
        assert np.allclose(eigs, [-0.5, 0.5, 0.5, 0.5], atol=1e-12)

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(40)
        for _ in range(20):
            sig = ginibre_density(rng, 2).mat
            for side in ("X", "Y"):
                assert np.array_equal(partial_transpose(sig, side), pt_loops(sig, side))

    def test_involution_and_invariants(self):
        rng = np.random.default_rng(41)
        for _ in range(20):
            sig = ginibre_density(rng, 2).mat
            for side in ("X", "Y"):
                pt = partial_transpose(sig, side)
                assert np.array_equal(partial_transpose(pt, side), sig)
                assert abs(np.trace(pt) - np.trace(sig)) == 0.0
                assert np.max(np.abs(pt - pt.conj().T)) < 1e-15

    def test_both_sides_share_spectrum(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            sig = ginibre_density(rng, 2).mat
            ex = hermitian_eigenvalues(partial_transpose(sig, "X"))
            ey = hermitian_eigenvalues(partial_transpose(sig, "Y"))
            assert np.allclose(ex, ey, atol=1e-10)

    def test_stack_matches_loop_oracle(self):
        rng = np.random.default_rng(43)
        stack = np.array([[ginibre_density(rng, 2).mat for _ in range(3)] for _ in range(2)])
        for side in ("X", "Y"):
            pts = partial_transpose(stack, side)
            assert pts.shape == (2, 3, 4, 4)
            for a in range(2):
                for b in range(3):
                    assert np.array_equal(pts[a, b], pt_loops(stack[a, b], side))

    def test_wrong_dim(self):
        with pytest.raises(WrongDimError):
            partial_transpose(np.eye(8) / 8)
        with pytest.raises(WrongDimError):
            partial_transpose(np.zeros((3, 4, 8)))


class TestPptSeparable:
    def test_bell_detected(self):
        v = ppt_separable(bell_pair())
        assert not v.separable
        assert v.min_pt_eigenvalue == pytest.approx(-0.5, abs=1e-12)

    def test_maximally_mixed(self):
        v = ppt_separable(maximally_mixed(2))
        assert v.separable
        assert v.min_pt_eigenvalue == pytest.approx(0.25, abs=1e-12)

    def test_werner_half(self):
        sigma = reduce_split(werner_embedded(0.5), parse_label("A,BC", 3))
        v = ppt_separable(sigma)
        assert not v.separable
        assert v.min_pt_eigenvalue == pytest.approx(-0.125, abs=1e-12)

    def test_boundary_counts_as_separable(self):
        sigma = reduce_split(werner_embedded(1 / 3), parse_label("A,BC", 3))
        assert ppt_separable(sigma).separable

    def test_wrong_dim(self):
        with pytest.raises(WrongDimError):
            ppt_separable(maximally_mixed(3))

    def test_threshold_adds_the_negative_mass(self):
        # used to compare -9e-10 with the bare -1e-10 and call the state entangled
        sigma = validate_density(borderline_matrix(2), 2, 1e-9)
        v = ppt_separable(sigma, tol=1e-10)
        assert v.min_pt_eigenvalue == pytest.approx(-9e-10, rel=0, abs=1e-20)
        assert v.separable
        assert v.tolerance_used == pytest.approx(1e-9, rel=0, abs=1e-20)

    def test_unchecked_state_is_checked_first(self):
        v = ppt_separable(DensityMatrix(borderline_matrix(2), 2, 1e-9), tol=1e-10)
        assert v.separable and v.tolerance_used == pytest.approx(1e-9, rel=0, abs=1e-20)
        with pytest.raises(NotPSDError):
            ppt_separable(DensityMatrix(np.diag([1.5, -0.5, 0.0, 0.0]), 2))

    def test_verdict_keeps_its_field_order_and_is_immutable(self):
        assert PptVerdict._fields == ("label", "min_pt_eigenvalue", "separable", "tolerance_used")
        v = witness(ghz()).verdicts[0]
        assert tuple(v) == (v.label, v.min_pt_eigenvalue, v.separable, v.tolerance_used)
        assert repr(v) == (f"PptVerdict(label={v.label!r}, min_pt_eigenvalue={v.min_pt_eigenvalue!r}, "
                           f"separable={v.separable!r}, tolerance_used={v.tolerance_used!r})")
        for name in PptVerdict._fields:
            with pytest.raises(AttributeError):
                setattr(v, name, None)

    @pytest.mark.parametrize("tol", [-1.0, 0.0, np.nan, np.inf])
    def test_tolerance_must_be_finite_and_positive(self, tol):
        with pytest.raises(BadToleranceError, match="ppt_separable tol"):
            ppt_separable(maximally_mixed(2), tol)
        # a state's own tolerance is checked when the state is built
        with pytest.raises(BadToleranceError, match="DensityMatrix tol"):
            ppt_separable(DensityMatrix(maximally_mixed(2).mat, 2, tol))


class TestWitnessTolerance:
    """A tolerance <= 0 called the maximally mixed state ENTANGLED;
    NaN or inf made every verdict pass."""

    @pytest.mark.parametrize("tol", [-1.0, 0.0, np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("fn, n", [(witness, 3), (witness, 4),
                                       (witness_tripartite, 3), (witness_quadripartite, 4)])
    def test_rejected(self, fn, n, tol):
        # the fixed-arity witnesses take no tolerance: they use the state's own
        if fn is witness:
            expected, message = BadToleranceError, "witness tol"
        else:
            expected, message = TypeError, "takes 1 positional argument but 2 were given"
        with pytest.raises(expected, match=message):
            fn(maximally_mixed(n), tol)

    @pytest.mark.parametrize("tol", [-1.0, np.nan])
    def test_state_tolerance_rejected(self, tol):
        # a state's own tolerance is checked when the state is built
        with pytest.raises(BadToleranceError, match="DensityMatrix tol"):
            witness(DensityMatrix(maximally_mixed(3).mat, 3, tol))


class TestNegativeMass:
    """The PPT threshold is -(tol + nu), nu the input's negative mass."""

    @pytest.mark.parametrize("n_qubits", [3, 4])
    def test_borderline_input_is_inconclusive(self, n_qubits):
        # used to raise "reduction A,B: not positive semidefinite" on input that passed validation
        m, nu = borderline_matrix(n_qubits), 2 ** (n_qubits - 2) * 9e-10
        for rho in (validate_density(m, n_qubits, 1e-9), DensityMatrix(m, n_qubits, 1e-9)):
            report = witness(rho)
            assert report.conclusion == INCONCLUSIVE
            assert report.min_pt_eigenvalue == pytest.approx(-nu, rel=0, abs=1e-20)
            assert report.min_pt_eigenvalue < -1e-9  # ENTANGLED at the bare -tol
            for verdict in report.verdicts:
                assert verdict.tolerance_used == pytest.approx(1e-9 + nu, rel=0, abs=1e-20)

    def test_unchecked_witness_keeps_tol(self):
        report = witness(DensityMatrix(borderline_matrix(3), 3, 1e-9), validate_reductions=False)
        assert report.conclusion == ENTANGLED
        assert {v.tolerance_used for v in report.verdicts} == {1e-9}

    def test_one_input_eigensolve_per_stack(self, monkeypatch):
        """A checked state costs no input eigensolve and no H, the others
        one stacked eigensolve and one H each between them; reductions are
        never checked, so the only 4x4 eigensolve is the stack's PT spectra."""
        calls, parts = record_eigensolves(monkeypatch), record_hermitian_parts(monkeypatch)
        validated = validate_density(werner_embedded(0.5).mat, 3)
        calls.clear()
        parts.clear()
        witness(validated)
        assert (calls, parts) == ([(6, 4, 4)], [])
        calls.clear()
        states = [validated, werner_embedded(0.2), validated, ghz(3)]
        first = min_pt_eigenvalues(states)
        assert (calls, parts) == ([(2, 8, 8), (4, 6, 4, 4)], [(2, 8, 8)])
        calls.clear()
        parts.clear()
        assert min_pt_eigenvalues(states).tobytes() == first.tobytes()  # each state keeps its measurement
        assert (calls, parts) == ([(4, 6, 4, 4)], [])
        calls.clear()
        witness(ghz(4), validate_reductions=False)
        assert calls == [(25, 4, 4)]

    def test_unchecked_witness_forms_h_once(self, monkeypatch):
        """A witness that checks its state itself reads the PT spectra of the
        Hermitian part its check formed: one input eigensolve, one H."""
        rng = np.random.default_rng(41)
        states = [werner_embedded(0.5), ghz(4), DensityMatrix(ginibre_density(rng, 3).mat, 3),
                  DensityMatrix(ginibre_density(rng, 4).mat, 4)]
        solves, parts = record_eigensolves(monkeypatch), record_hermitian_parts(monkeypatch)
        for rho in states:
            d, labels = rho.dim, len(labels_for(rho.n_qubits))
            solves.clear()
            parts.clear()
            report = witness(rho)
            assert solves == [(d, d), (labels, 4, 4)]
            assert parts == [(d, d)]
            assert rho._measured is not None
            assert [v.min_pt_eigenvalue for v in report.verdicts] == min_pt_eigenvalues([rho])[0].tolist()


class TestMeasurement:
    """A state keeps its one measurement, its four deviations and its
    Hermitian part H: every check reads it and every kernel reduces that H."""

    def test_measurement_is_kept_read_only_in_the_state_dtype(self):
        real, cplx = werner_embedded(0.3), DensityMatrix(ginibre_density(np.random.default_rng(8), 3).mat, 3)
        min_pt_eigenvalues([cplx, real])  # measured together, in complex arithmetic
        for rho in (real, cplx):
            deviations, h = rho._measured
            lone_deviations, lone_h = _matrix_deviations(rho.mat)
            assert np.array(deviations).tobytes() == np.array(lone_deviations).tobytes()
            assert h.dtype == rho.mat.dtype and h.tobytes() == lone_h.tobytes()
            with pytest.raises(ValueError, match="read-only"):
                h[0, 0] = 1.0
            assert h.base is None  # its own buffer, not a row of the stack
            assert _measure(rho) is rho._measured

    def test_a_failed_check_raises_on_every_use(self):
        bad = DensityMatrix(np.diag([1.5, -0.5, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0]), 3)
        uses = (lambda: witness(bad), lambda: min_pt_eigenvalues([bad]), lambda: reduce_all_tripartite(bad),
                lambda: validate_density(bad.mat, 3), lambda: _checked_mass(bad))
        for use in uses:
            with pytest.raises(NotPSDError, match=r"^not positive semidefinite: min eigenvalue = -5\.000e-01$"):
                use()
        assert bad._measured is not None
        with pytest.raises(NotPSDError, match=r"^state 2: not positive semidefinite"):
            min_pt_eigenvalues([ghz(3), werner_embedded(0.2), bad])
        assert witness(bad, validate_reductions=False).conclusion == ENTANGLED

    @pytest.mark.parametrize("n_qubits", [3, 4])
    def test_unchecked_witness_reduces_the_measured_h(self, monkeypatch, n_qubits):
        rho = DensityMatrix(ginibre_density(np.random.default_rng(9), n_qubits).mat, n_qubits)
        labels = len(labels_for(n_qubits))
        solves, parts = record_eigensolves(monkeypatch), record_hermitian_parts(monkeypatch)
        unmeasured = witness(rho, validate_reductions=False)
        assert (solves, parts) == ([(labels, 4, 4)], [(2 ** n_qubits,) * 2])
        assert rho._measured is None
        _measure(rho)
        solves.clear()
        parts.clear()
        assert witness(rho, validate_reductions=False) == unmeasured
        assert (solves, parts) == ([(labels, 4, 4)], [])

    def test_ppt_separable_equals_the_symmetrized_transpose_of_the_matrix(self):
        """ppt_separable diagonalizes the transpose of the measured H; its
        values are those of the symmetrized transpose of the matrix, bit for
        bit, as hermitian_eigenvalues_stack solves it."""
        rng = np.random.default_rng(10)
        asymmetric = ginibre_density(rng, 2).mat + 1e-12 * rng.standard_normal((4, 4))
        states = [bell_pair(), maximally_mixed(2), DensityMatrix(borderline_matrix(2), 2, 1e-9),
                  DensityMatrix(asymmetric, 2), DensityMatrix(bell_matrix() * (1 + 1e-13), 2, 1e-9)]
        states += [reduce_split(werner_embedded(x), parse_label("A,BC", 3)) for x in (0.0, 1 / 3, 0.5, 1.0)]
        states += [ginibre_density(rng, 2) for _ in range(5)]
        for sigma in states:
            value = ppt_separable(sigma).min_pt_eigenvalue
            expected = float(hermitian_eigenvalues_stack(partial_transpose(sigma.mat, "Y")[None])[0, 0])
            assert value.hex() == expected.hex()


# the door's message for a finite part past max_float64 / (4 d^2)
PAST_THE_BOUND = r"^matrix has a part of magnitude \S+, past the bound max_float64 / \(4 d\^2\) = \S+$"


class TestOverflowingReductions:
    """Inputs whose reductions, H or PT spectra would overflow float64 are
    stopped by DensityMatrix, checked or not, before any eigensolve; the
    state at the bound passes, and nothing it feeds overflows (warnings are
    errors in this suite)."""

    @staticmethod
    def huge_diagonal(n, indices, dtype=float):
        m = np.zeros((2 ** n, 2 ** n), dtype=dtype)
        m[indices, indices] = 1e308
        return m

    @staticmethod
    def huge_pt_spectrum():
        """-8e307 on every off-diagonal pair among |000>, |010>, |100>, |110>:
        each reduction sums to at most 1.6e308, but the A,B block is
        -8e307 (J - I), whose PT has the eigenvalue -2.4e308."""
        m = np.zeros((8, 8))
        m[np.ix_([0, 2, 4, 6], [0, 2, 4, 6])] = -8e307
        m[np.diag_indices(8)] = 0.0
        return m

    @staticmethod
    def huge_pair():
        """M + M^dag of this input overflows, its H does not."""
        m = np.zeros((8, 8))
        m[0, 1] = m[1, 0] = 1e308
        return m

    @pytest.mark.parametrize("dtype", [float, complex])
    @pytest.mark.parametrize("n, indices", [(3, [0b000, 0b001]), (3, [0b000, 0b010]),
                                            (4, [0b0000, 0b0011]), (4, [0b0000, 0b1000])])
    def test_a_reduction_sum_past_float64_is_stopped_at_the_door(self, monkeypatch, dtype, n, indices):
        solves = record_eigensolves(monkeypatch)
        m = self.huge_diagonal(n, indices, dtype)
        for build in (lambda: DensityMatrix(m, n), lambda: validate_density(m, n),
                      lambda: hermitian_eigenvalues_stack(m[None])):
            with pytest.raises(NonFiniteError, match=PAST_THE_BOUND):
                build()
        assert solves == []

    @pytest.mark.parametrize("matrix", ["huge_pt_spectrum", "huge_pair"])
    def test_a_pt_spectrum_or_h_past_float64_is_stopped_at_the_door(self, monkeypatch, matrix):
        solves = record_eigensolves(monkeypatch)
        m = getattr(self, matrix)()
        with pytest.raises(NonFiniteError, match=PAST_THE_BOUND):
            DensityMatrix(m, 3)
        with pytest.raises(NonFiniteError, match=PAST_THE_BOUND):
            DensityMatrix(m.astype(complex), 3)
        assert solves == []

    def test_a_state_validated_at_a_huge_tol_is_stopped_at_the_door(self, monkeypatch):
        """The tol no longer matters: the state never reaches its check."""
        solves = record_eigensolves(monkeypatch)
        with pytest.raises(NonFiniteError, match=PAST_THE_BOUND):
            validate_density(np.diag([1e308, 1e308, -1e308, -1e308, 0, 0, 0, 0]), 3, 1.5e308)
        assert solves == []

    @pytest.mark.parametrize("unit", [1.0, 1 + 1j])
    @pytest.mark.parametrize("n", [3, 4])
    def test_the_door_admits_parts_up_to_the_bound(self, n, unit):
        """Every part at exactly max_float64 / (4 * 4^n): the state passes and
        its PT minima are finite; the next float up is rejected."""
        bound = np.finfo(float).max / (4 * 4 ** n)
        rho = DensityMatrix(np.full((2 ** n, 2 ** n), bound * unit), n)
        assert np.isfinite(witness(rho, validate_reductions=False).min_pt_eigenvalue)  # forms H, unmeasured
        assert np.isfinite(_pt_minima(_measure(rho)[1], n)).all()
        assert np.isfinite(_matrix_deviations(rho.mat)[0]).all()
        above = np.full((2 ** n, 2 ** n), np.nextafter(bound, np.inf) * unit)
        message = f"matrix has a part of magnitude {np.nextafter(bound, np.inf)}, " \
                  f"past the bound max_float64 / (4 d^2) = {bound}"
        with pytest.raises(NonFiniteError) as exc:
            DensityMatrix(above, n)
        assert str(exc.value) == message


class TestWitnessTripartite:
    def test_ghz_report(self):
        rep = witness_tripartite(ghz())
        assert rep.conclusion == ENTANGLED
        assert rep.entangled
        by_text = {v.label.text: v for v in rep.verdicts}
        for text in ("A,B", "A,C", "B,C"):
            assert by_text[text].separable
            assert by_text[text].min_pt_eigenvalue >= -1e-9
        for text in ("A,BC", "B,CA", "C,AB"):
            assert not by_text[text].separable
            assert by_text[text].min_pt_eigenvalue == pytest.approx(-0.5, abs=1e-9)
        assert rep.culprit.text in ("A,BC", "B,CA", "C,AB")

    def test_werner_culprit_and_value(self):
        rep = witness_tripartite(werner_embedded(0.4))
        assert rep.conclusion == ENTANGLED
        assert rep.culprit.text == "A,BC"
        assert rep.min_pt_eigenvalue == pytest.approx((1 - 1.2) / 4, abs=1e-12)

    def test_upb_inconclusive(self):
        rep = witness_tripartite(upb_state())
        assert rep.conclusion == INCONCLUSIVE
        assert rep.culprit is None
        assert all(v.separable for v in rep.verdicts)

    def test_product_mixed_states_inconclusive(self):
        rng = np.random.default_rng(43)
        for _ in range(10):
            parts = [random_single_qubit_density(rng) for _ in range(3)]
            rho = validate_density(kron(kron(parts[0], parts[1]), parts[2]), 3)
            assert witness_tripartite(rho).conclusion == INCONCLUSIVE

    def test_mixtures_of_products_inconclusive(self):
        rng = np.random.default_rng(44)
        for _ in range(10):
            k = int(rng.integers(2, 5))
            weights = rng.dirichlet(np.ones(k))
            mat = np.zeros((8, 8), dtype=complex)
            for w in weights:
                _, _, _, coeffs = random_product_coeffs(rng)
                mat += w * np.outer(coeffs, coeffs.conj())
            rho = validate_density(mat, 3)
            assert witness_tripartite(rho).conclusion == INCONCLUSIVE

    def test_molecule_fires_on_pair(self):
        rep = witness_tripartite(molecule_state(1 / 3, 1 / 3, 1 / 3))
        assert rep.conclusion == ENTANGLED
        pair_failures = [
            v for v in rep.verdicts
            if not v.separable and v.label.kind.value == "pair-trace"
        ]
        assert pair_failures

    def test_embeddings_of_bell_fire(self):
        for way in range(1, 7):
            rep = witness_tripartite(embed_bipartite(bell_pair(), way))
            assert rep.conclusion == ENTANGLED

    def test_matrix_of_the_wrong_size_is_refused(self):
        # used to give ENTANGLED, -0.25 on A,B: the 3-qubit table read over a 16x16 matrix
        with pytest.raises(ValueError, match=r"3 qubits need a matrix of shape \(8, 8\)"):
            witness(DensityMatrix(ghz(4).mat, 3))
        # used to raise a bare IndexError
        with pytest.raises(ValueError, match=r"3 qubits need a matrix of shape \(8, 8\)"):
            witness(DensityMatrix(np.eye(4) / 4, 3))


class TestWitnessQuadripartite:
    def test_ghz4(self):
        rep = witness_quadripartite(ghz(4))
        assert rep.conclusion == ENTANGLED
        assert len(rep.verdicts) == 25

    def test_maximally_mixed(self):
        rep = witness_quadripartite(maximally_mixed(4))
        assert rep.conclusion == INCONCLUSIVE
        for v in rep.verdicts:
            assert v.min_pt_eigenvalue == pytest.approx(0.25, abs=1e-12)

    def test_product_fourfold_inconclusive(self):
        rng = np.random.default_rng(45)
        qubits = [random_qubit(rng) for _ in range(4)]
        coeffs = qubits[0]
        for q in qubits[1:]:
            coeffs = np.kron(coeffs, q)
        rep = witness_quadripartite(pure_density(coeffs))
        assert rep.conclusion == INCONCLUSIVE

    def test_dispatch(self):
        assert witness(ghz(3)).conclusion == ENTANGLED
        assert witness(ghz(4)).conclusion == ENTANGLED
        with pytest.raises(Exception):
            witness(maximally_mixed(2))


class TestMinPtEigenvalues:
    """The stacked kernel behind every witness call."""

    @pytest.mark.parametrize("n_qubits", [3, 4])
    def test_stack_equals_per_state(self, n_qubits):
        rng = np.random.default_rng(60 + n_qubits)
        states = [ginibre_density(rng, n_qubits) for _ in range(20)]
        states += [random_mixture(rng, n_qubits, 2)[0] for _ in range(20)]
        stacked = min_pt_eigenvalues(states)
        assert stacked.shape == (40, len(labels_for(n_qubits)))
        per_state = [[v.min_pt_eigenvalue for v in witness(rho).verdicts] for rho in states]
        assert (stacked == np.array(per_state)).all()

    def test_columns_follow_label_order(self):
        row = min_pt_eigenvalues([werner_embedded(1.0)])[0]
        labels = [label.text for label in labels_for(3)]
        assert row[labels.index("A,BC")] == pytest.approx(-0.5)
        assert row[labels.index("A,B")] == pytest.approx(0.0, abs=1e-15)

    def test_mixed_arity(self):
        with pytest.raises(WrongArityError, match=r"^states in one stack must share an arity, got \[3, 4\] qubits$"):
            min_pt_eigenvalues([ghz(3), ghz(4)])
        with pytest.raises(WrongArityError, match=r"^reductions are defined for 3 or 4 qubits, not 2$"):
            min_pt_eigenvalues([ghz(2), ghz(2)])

    def test_empty_stack(self):
        with pytest.raises(ValueError, match=r"^need at least one state to reduce$"):
            min_pt_eigenvalues([])

    def test_non_psd_reduction(self):
        diag = np.full(8, 1.4 / 6)
        diag[:2] = -0.2  # the A,B reduction gets -0.4 on |00>
        bad = DensityMatrix(np.diag(diag), 3)
        with pytest.raises(NotPSDError, match=r"^not positive semidefinite"):
            min_pt_eigenvalues([bad])
        with pytest.raises(NotPSDError, match=r"^state 2: not positive") as info:
            min_pt_eigenvalues([ghz(3), maximally_mixed(3), bad, ghz(3)])
        assert info.value.min_eigenvalue == pytest.approx(-0.2)  # checked on the input
        assert len(witness(bad, validate_reductions=False).verdicts) == 6

    def test_unchecked_states_keep_their_lone_masses(self):
        """Only the unchecked states are checked, the real one in complex
        arithmetic since the stack holds complex states; each keeps the
        negative mass validate_density measures on it alone, bit for bit."""
        rng = np.random.default_rng(17)

        def nearly_psd(real):
            g = rng.standard_normal((8, 8)) + (0.0 if real else 1j * rng.standard_normal((8, 8)))
            p = hermitized(g @ g.conj().T)
            return hermitized(ghz(3).mat - 1e-10 * p / np.trace(p).real)  # eigenvalues down to ~-1e-11

        checked = validate_density(hermitized(ginibre_density(rng, 3).mat), 3)
        mass = _checked_mass(checked)
        real, cplx = DensityMatrix(nearly_psd(True), 3), DensityMatrix(nearly_psd(False), 3)
        assert real.mat.dtype == np.float64 and cplx.mat.dtype == np.complex128
        min_pt_eigenvalues([checked, real, cplx])
        assert _checked_mass(checked) == mass
        for rho in (real, cplx):
            lone = _checked_mass(validate_density(rho.mat, 3))
            assert _checked_mass(rho) > 0.0 and _checked_mass(rho).hex() == lone.hex()
        bad, real = cplx.mat + np.diag([1e-6, -1e-6, 0, 0, 0, 0, 0, 0]), DensityMatrix(nearly_psd(True), 3)
        with pytest.raises(NotPSDError, match=r"^state 2: not positive semidefinite"):
            min_pt_eigenvalues([checked, real, DensityMatrix(bad, 3)])
        # measured in the failed stack, it passes its own check with its lone mass
        assert _checked_mass(real).hex() == _checked_mass(validate_density(real.mat, 3)).hex()

    def test_each_state_validated_at_its_own_tol(self):
        scaled = maximally_mixed(3).mat * (1 + 1e-12)  # the trace is off by 1e-12
        loose, tight = DensityMatrix(scaled, 3, 1e-9), DensityMatrix(scaled, 3, 1e-15)
        assert min_pt_eigenvalues([loose, loose]).shape == (2, 6)
        with pytest.raises(TraceNotOneError, match=r"^state 1: trace"):
            min_pt_eigenvalues([loose, tight])

    def test_hermiticity_reported_before_trace(self):
        bad = 2 * maximally_mixed(3).mat  # trace 2
        bad[0, 4] = 0.1  # |000><100|: not Hermitian either
        with pytest.raises(NotHermitianError, match=r"^state 1: not Hermitian"):
            min_pt_eigenvalues([maximally_mixed(3), DensityMatrix(bad, 3)])

    def test_trace_reported_before_positivity(self):
        bad = np.diag([-1.0, 0, 0, 0, 0, 0, 0, 3.0])  # trace 2 and eigenvalue -1
        with pytest.raises(TraceNotOneError, match=r"^state 1: trace"):
            min_pt_eigenvalues([maximally_mixed(3), DensityMatrix(bad, 3)])


class TestPtKernel:
    """The kernel reads the partially transposed reductions of H = (M + M^dag) / 2."""

    @staticmethod
    def _exact_states(n_qubits):
        rng = np.random.default_rng(70 + n_qubits)
        states = [ghz(n_qubits), maximally_mixed(n_qubits)]
        states += [validate_density(hermitized(ginibre_density(rng, n_qubits).mat), n_qubits)
                   for _ in range(10)]
        if n_qubits == 3:
            states += [werner_embedded(x) for x in (0.0, 0.2, 1 / 3, 0.7, 1.0)]
            states += [molecule_state(0.5, 0.25, 0.25), upb_state()]
            states += [embed_bipartite(DensityMatrix(bell_matrix(), 2), way) for way in range(1, 7)]
        return states

    @pytest.mark.parametrize("n_qubits", [3, 4])
    def test_exact_input_matches_the_symmetrizing_formula_bit_for_bit(self, n_qubits):
        states = self._exact_states(n_qubits)
        mats = np.array([s.mat for s in states])
        assert np.array_equal(mats, mats.conj().swapaxes(-1, -2))  # exactly Hermitian
        assert np.array_equal(min_pt_eigenvalues(states), symmetrized_pt_minima(mats, n_qubits))

    @pytest.mark.parametrize("n_qubits", [3, 4])
    def test_pure_outer_products_agree_to_roundoff_with_the_same_verdicts(self, n_qubits):
        rng = np.random.default_rng(80 + n_qubits)
        states = [pure_density(random_pure(rng, n_qubits)) for _ in range(20)]
        mats = np.array([s.mat for s in states])
        assert not np.array_equal(mats, mats.conj().swapaxes(-1, -2))  # roundoff asymmetry
        new, old = min_pt_eigenvalues(states), symmetrized_pt_minima(mats, n_qubits)
        assert np.abs(new - old).max() <= 1e-15
        halves = [DensityMatrix(hermitized(m), n_qubits) for m in mats]
        assert np.array_equal(min_pt_eigenvalues(halves), new)
        for rho, row in zip(states, old):
            report = witness(rho)
            assert [v.separable for v in report.verdicts] == (row >= -report.verdicts[0].tolerance_used).tolist()

    def test_no_copy_and_no_symmetrization_of_the_blocks(self, monkeypatch, capsys):
        """The witness and the sweep partially transpose by the table and
        form the Hermitian part of whole states only."""
        import entcheck.linalg as linalg
        import entcheck.separability as separability
        from entcheck.cli import main

        forbidden, parts = [], record_hermitian_parts(monkeypatch)
        for module, name in ((separability, "partial_transpose"), (linalg, "hermitian_eigenvalues_stack")):
            monkeypatch.setattr(module, name, lambda a, *args, name=name: forbidden.append(name))
        witness(ghz(3))
        witness(DensityMatrix(ghz(4).mat, 4), validate_reductions=False)
        min_pt_eigenvalues([ghz(3), werner_embedded(0.5)])
        assert main(["sweep", "werner", "--steps", "11"]) == 0
        assert "threshold" in capsys.readouterr().out
        assert forbidden == []
        assert {shape[-2:] for shape in parts} == {(8, 8), (16, 16)}


class TestRealArithmetic:
    """A state with no imaginary part is reduced and solved in float64."""

    @staticmethod
    def _real_constructors():
        states = [ghz(3), ghz(4), maximally_mixed(3), maximally_mixed(4), upb_state(),
                  product_pure([0.6, 0.8], [1.0, 0.0], [2 ** -0.5, -2 ** -0.5])]
        states += [werner_embedded(x) for x in (0.0, 0.2, 1 / 3, 0.7, 1.0)]
        states += [molecule_state(*p) for p in ((0.5, 0.25, 0.25), (1.0, 0.0, 0.0), (0.3, 0.0, 0.7))]
        states += [embed_bipartite(bell_pair(), way) for way in range(1, 7)]
        return states

    @staticmethod
    def _complex_constructors():
        rng = np.random.default_rng(90)
        r = DensityMatrix(hermitized(ginibre_density(rng, 2).mat), 2)
        states = [embed_bipartite(r, way) for way in range(1, 7)]
        states += [validate_density(hermitized(ginibre_density(rng, n).mat), n) for n in (3, 4)]
        return states

    def test_every_named_state_is_float64(self):
        for rho in self._real_constructors():
            assert rho.mat.dtype == np.float64
        for rho in self._complex_constructors():
            assert rho.mat.dtype == np.complex128

    def test_real_and_complex_solves_agree(self):
        """The real symmetric solve of each reduction against the complex
        Hermitian one of the same matrix: last bits only, same verdicts."""
        for rho in self._real_constructors():
            n = rho.n_qubits
            complex_row = np.linalg.eigvalsh(_gather(rho.mat.astype(complex), _PT_TABLES[n]))[..., 0]
            assert np.abs(min_pt_eigenvalues([rho])[0] - complex_row).max() <= 1e-15
            report = witness(rho)
            assert [v.separable for v in report.verdicts] == (
                complex_row >= -report.verdicts[0].tolerance_used).tolist()

    def test_ppt_separable_equals_the_witness_value(self):
        for rho in self._real_constructors() + self._complex_constructors():
            for verdict in witness(rho).verdicts:
                reduced = apply_reduction(rho, verdict.label)
                assert ppt_separable(reduced).min_pt_eigenvalue == verdict.min_pt_eigenvalue

    def test_partial_transpose_and_stack_eigenvalues_keep_real_input_real(self, monkeypatch):
        calls = record_eigensolves(monkeypatch, dtypes=True)
        pt = partial_transpose(bell_matrix().real)
        assert pt.dtype == np.float64
        assert partial_transpose(bell_matrix()).dtype == np.complex128
        assert partial_transpose(np.eye(4, dtype=int)).dtype == np.float64
        assert hermitian_eigenvalues_stack(pt[None]).tolist() == [[-0.5, 0.5, 0.5, 0.5]]
        ppt_separable(bell_pair())  # the state's input check, then its PT
        assert [dtype for _, dtype in calls] == [np.dtype(np.float64)] * 3

    def test_mixed_stack_solves_real_blocks_apart(self, monkeypatch):
        """In a complex stack the real states' blocks go to the real solver."""
        calls = record_eigensolves(monkeypatch, dtypes=True)
        complex_state = ginibre_density(np.random.default_rng(91), 3)
        rows = min_pt_eigenvalues([werner_embedded(0.5), complex_state, ghz(3)])
        assert calls[-2:] == [((12, 4, 4), np.dtype(np.float64)), ((6, 4, 4), np.dtype(np.complex128))]
        assert rows[0].tobytes() == min_pt_eigenvalues([werner_embedded(0.5)])[0].tobytes()
        assert rows[1].tobytes() == min_pt_eigenvalues([complex_state])[0].tobytes()


class TestStateTolerance:
    """A state's own tolerance drives its input check, so a bad one is
    rejected when the state is built, before any reduction."""

    @pytest.mark.parametrize("tol", [-1.0, 0.0, np.nan, np.inf, True])
    def test_rejected_at_construction(self, tol):
        with pytest.raises(BadToleranceError, match="DensityMatrix tol"):
            DensityMatrix(maximally_mixed(3).mat, 3, tol)

    def test_negative_tol(self):
        # used to fail the check with "not Hermitian: max |M - M^dag| = 0.000e+00"
        with pytest.raises(BadToleranceError, match="DensityMatrix tol"):
            min_pt_eigenvalues([DensityMatrix(maximally_mixed(3).mat, 3, -1.0)])

    def test_nan_tol(self):
        # used to pass a trace-5 state and return min PT eigenvalues of 1.25
        with pytest.raises(BadToleranceError, match="DensityMatrix tol"):
            min_pt_eigenvalues([DensityMatrix(5 * maximally_mixed(3).mat, 3, np.nan)])


class TestPureSplits:
    def test_ghz_split_minor(self):
        v = np.zeros(8)
        v[0] = v[7] = 2 ** -0.5
        verdict = pure_split_separable(v, "A-BC")
        assert not verdict.separable
        assert verdict.max_minor_modulus == pytest.approx(0.5, abs=1e-12)

    def test_biseparable_state(self):
        # |0_A> (x) Bell_BC factors across A-BC but across nothing else
        bell = np.zeros(4)
        bell[0] = bell[3] = 2 ** -0.5
        coeffs = np.kron([1.0, 0.0], bell)
        assert pure_split_separable(coeffs, "A-BC").separable
        assert not pure_split_separable(coeffs, "B-CA").separable
        assert not pure_split_separable(coeffs, "C-AB").separable
        assert not pure_fully_separable(coeffs)

    def test_product_states_all_separable(self):
        rng = np.random.default_rng(46)
        for _ in range(25):
            _, _, _, coeffs = random_product_coeffs(rng)
            for split in ("A-BC", "B-CA", "C-AB"):
                assert pure_split_separable(coeffs, split).separable
            assert pure_fully_separable(coeffs)

    def test_w_state(self):
        w = np.zeros(8)
        w[1] = w[2] = w[4] = 3 ** -0.5
        verdict = pure_split_separable(w, "A-BC")
        assert not verdict.separable
        assert verdict.max_minor_modulus == pytest.approx(1 / 3, abs=1e-12)
        assert not pure_fully_separable(w)

    def test_norm_check(self):
        with pytest.raises(NotNormalizedError):
            pure_split_separable(np.ones(8), "A-BC")

    # each split as the label rule spells it: canonical, lower case, groups
    # swapped, second group reversed, and with a comma
    SPELLINGS = {split: (split, split.lower(), split[2:] + "-" + split[0], split[:2] + split[:1:-1],
                         split.replace("-", ","))
                 for split in PURE_SPLITS}
    # the kept qubit's axis first, then the other two in ascending order
    AXES = {"A-BC": (0, 1, 2), "B-CA": (1, 0, 2), "C-AB": (2, 0, 1)}

    @staticmethod
    def _vectors():
        ghz_vec = np.zeros(8)
        ghz_vec[0] = ghz_vec[7] = 2 ** -0.5
        w_vec = np.zeros(8)
        w_vec[1] = w_vec[2] = w_vec[4] = 3 ** -0.5
        return [random_pure(np.random.default_rng(48), 3), ghz_vec, w_vec]

    def test_pure_splits_are_the_one_vs_two_labels(self):
        assert PURE_SPLITS == ("A-BC", "B-CA", "C-AB")
        one_vs_two = [label for label in labels_for(3) if label.kind is ReductionKind.ONE_VS_TWO]
        assert PURE_SPLITS == tuple(label.text.replace(",", "-") for label in one_vs_two)

    @pytest.mark.parametrize("split", PURE_SPLITS)
    def test_every_spelling_gives_the_same_matrix_and_verdict(self, split):
        assert len(set(self.SPELLINGS[split])) == 5
        for v in self._vectors():
            expected = v.astype(complex).reshape(2, 2, 2).transpose(self.AXES[split]).reshape(2, 4)
            verdict = pure_split_separable(v, split)
            for spelling in self.SPELLINGS[split]:
                m = split_coefficient_matrix(v, spelling)
                assert m.dtype == expected.dtype and m.tobytes() == expected.tobytes()
                assert pure_split_separable(v, spelling) == verdict._replace(split=spelling)

    def test_agreement_with_witness_on_pure_states(self):
        # exact for pure states: every split separable <=> all reductions PPT
        rng = np.random.default_rng(47)
        agree = 0
        for trial in range(300):
            kind = trial % 3
            if kind == 0:
                coeffs = random_pure(rng, 3)
            elif kind == 1:
                _, _, _, coeffs = random_product_coeffs(rng)
            else:
                coeffs = np.kron(random_qubit(rng), random_pure(rng, 2))
            sep = pure_fully_separable(coeffs)
            rep = witness_tripartite(pure_density(coeffs))
            agree += sep == (rep.conclusion == INCONCLUSIVE)
        assert agree == 300


class TestNecessaryCondition:
    def test_upb_passes_but_is_entangled(self):
        assert necessary_condition_holds(upb_state())

    def test_ghz_fails(self):
        assert not necessary_condition_holds(ghz())

    def test_maximally_mixed_passes(self):
        assert necessary_condition_holds(maximally_mixed(3))
        assert necessary_condition_holds(maximally_mixed(4))
