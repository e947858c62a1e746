"""Tests for the linear-algebra substrate."""

import re

import numpy as np
import pytest

from entcheck import (
    BadSubsetError,
    BadToleranceError,
    DensityMatrix,
    NonFiniteError,
    NotHermitianError,
    NotNormalizedError,
    NotPSDError,
    TraceNotOneError,
    ghz,
    hermitian_eigenvalues,
    hermitian_eigenvalues_stack,
    kron,
    maximally_mixed,
    molecule_state,
    partial_trace,
    product_pure,
    pure_density,
    upb_state,
    validate_density,
    werner_embedded,
    witness,
)
from entcheck import linalg
from entcheck.linalg import (
    _checked_mass,
    _checked_stack,
    _hermitian_part,
    _invariant_deviations,
    _violation,
    check_unit_norm,
)
from entcheck.separability import partial_transpose

from util import (
    bell_matrix,
    ginibre_density,
    hermitized,
    jacobi_eigenvalues_oracle,
    nonhermitian_stack,
    ptrace_loops,
    random_density,
    random_single_qubit_density,
)


class TestHermitianEigenvalues:
    def test_identity(self):
        assert np.allclose(hermitian_eigenvalues(np.eye(2)), [1.0, 1.0])

    def test_pauli_x(self):
        assert np.allclose(hermitian_eigenvalues([[0, 1], [1, 0]]), [-1.0, 1.0])

    def test_bell_partial_transpose_spectrum(self):
        # brute-force characteristic polynomial of PT(Bell) gives a single
        # -1/2 root and a triple +1/2 root
        eigs = hermitian_eigenvalues(partial_transpose(bell_matrix(), "Y"))
        assert np.allclose(eigs, [-0.5, 0.5, 0.5, 0.5], atol=1e-12)

    @pytest.mark.parametrize("n", [2, 3, 4, 8, 16])
    def test_matches_jacobi_oracle(self, n):
        rng = np.random.default_rng(100 + n)
        for _ in range(5):
            g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            h = (g + g.conj().T) / 2
            assert np.allclose(
                hermitian_eigenvalues(h),
                jacobi_eigenvalues_oracle(h),
                atol=1e-10,
            )

    def test_eigenvalue_sum_equals_trace(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            g = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
            h = (g + g.conj().T) / 2
            eigs = hermitian_eigenvalues(h)
            assert abs(np.sum(eigs) - np.trace(h).real) < 1e-9

    def test_shift_moves_spectrum(self):
        rng = np.random.default_rng(8)
        g = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        h = (g + g.conj().T) / 2
        shift = 3.75
        base = hermitian_eigenvalues(h)
        shifted = hermitian_eigenvalues(h + shift * np.eye(6))
        assert np.allclose(shifted, base + shift, atol=1e-9)

    def test_rejects_non_hermitian(self):
        with pytest.raises(NotHermitianError) as exc:
            hermitian_eigenvalues([[0, 1], [0, 0]])
        assert exc.value.deviation == pytest.approx(1.0)

    def test_rejects_non_finite(self):
        with pytest.raises(NonFiniteError):
            hermitian_eigenvalues([[np.nan, 0], [0, 1]])
        with pytest.raises(NonFiniteError, match="NaN or infinite"):  # used to return [0, -0]
            hermitian_eigenvalues_stack(np.array([[[np.nan, 0], [0, 1]]]))

    def test_stack_of_empty_matrices(self):  # used to divide by zero in the magnitude bound
        assert hermitian_eigenvalues_stack(np.zeros((2, 0, 0))).shape == (2, 0)
        assert hermitian_eigenvalues(np.zeros((0, 0))).shape == (0,)  # used to raise numpy's "zero-size array"


class TestHermitianPart:
    @pytest.mark.parametrize("n_qubits", [3, 4])
    @pytest.mark.parametrize("scale", [1e-20, 1e-8, 1.0, 1e2])
    def test_exactly_hermitian(self, n_qubits, scale):
        mats = nonhermitian_stack(np.random.default_rng(n_qubits), n_qubits, 5, scale)
        h = _hermitian_part(mats)
        assert np.array_equal(h, h.conj().swapaxes(-1, -2))
        assert not np.any(np.diagonal(h, axis1=-2, axis2=-1).imag)

    def test_is_the_matrix_when_it_is_exactly_hermitian(self):
        rng = np.random.default_rng(11)
        mats = [ghz(3).mat, ghz(4).mat, werner_embedded(0.3).mat, molecule_state(0.5, 0.25, 0.25).mat,
                upb_state().mat, maximally_mixed(4).mat, hermitized(ginibre_density(rng, 3).mat),
                hermitized(ginibre_density(rng, 4).mat)]
        for m in mats:
            assert np.array_equal(m, m.conj().T)
            assert np.array_equal(_hermitian_part(m), m)

    def test_input_pass_returns_it(self):
        mats = nonhermitian_stack(np.random.default_rng(12), 3, 4, 1.0)
        (herm, _, _, _), h = _invariant_deviations(mats)
        assert np.array_equal(h, _hermitian_part(mats))
        assert herm.tolist() == [float(np.max(np.abs(m - m.conj().T))) for m in mats]
        assert np.array_equal(hermitian_eigenvalues_stack(mats), np.linalg.eigvalsh(h))

    @pytest.mark.parametrize("n_qubits", [3, 4])
    def test_input_pass_is_the_same_in_either_dtype(self, n_qubits):
        """A real stack and the same stack as complex give the same
        deviations bit for bit, and the same H up to a zero imaginary part."""
        rng = np.random.default_rng(15)
        mats = np.concatenate([nonhermitian_stack(rng, n_qubits, 4, 1.0).real,
                               [hermitized(ginibre_density(rng, n_qubits).mat).real,
                                werner_embedded(0.3).mat if n_qubits == 3 else ghz(4).mat]])
        real_devs, real_h = _invariant_deviations(mats)
        complex_devs, complex_h = _invariant_deviations(mats.astype(complex))
        assert real_h.dtype == np.float64 and not complex_h.imag.any()
        assert real_h.tobytes() == complex_h.real.copy().tobytes()
        for a, b in zip(real_devs, complex_devs):
            assert a.tobytes() == b.tobytes()


class TestDensityMatrix:
    def test_matrix_must_fit_the_arity(self):
        with pytest.raises(ValueError, match=r"^3 qubits need a matrix of shape \(8, 8\), got \(16, 16\)$"):
            DensityMatrix(ghz(4).mat, 3)
        with pytest.raises(ValueError, match=r"^3 qubits need a matrix of shape \(8, 8\), got \(4, 4\)$"):
            DensityMatrix(np.eye(4) / 4, 3)
        for bad in (np.eye(8)[:4], np.eye(8)[None], np.ones(8)):
            with pytest.raises(ValueError, match="need a matrix of shape"):
                DensityMatrix(bad, 3)
        assert DensityMatrix(np.eye(8) / 8, 3).dim == 8

    def test_float64_exactly_when_no_imaginary_part(self):
        real = werner_embedded(0.3).mat
        negzero = real.astype(complex).conj()  # every imaginary part is -0.0
        assert np.signbit(negzero.imag).all()
        for m in (real, real.astype(complex), negzero, real.tolist(), np.eye(8, dtype=int)):
            dm = DensityMatrix(m, 3)
            assert dm.mat.dtype == np.float64
            assert dm.mat.tobytes() == np.real(np.asarray(m, dtype=complex)).astype(float).tobytes()
        complex_mats = [hermitized(ginibre_density(np.random.default_rng(13), 3).mat), real.astype(complex)]
        complex_mats[1][2, 5] += 1e-300j
        for m in complex_mats:
            dm = DensityMatrix(m, 3)
            assert dm.mat.dtype == np.complex128
            assert np.array_equal(dm.mat, m)

    @pytest.mark.parametrize("entries", [{(0, 0): np.inf}, {(0, 1): np.nan, (1, 0): np.nan},
                                         {(2, 3): complex(0.0, -np.inf)}])
    def test_non_finite_entry_rejected_by_every_path(self, entries):
        # used to pass the input check: inf gave a nan INCONCLUSIVE with a RuntimeWarning,
        # the NaN pair numpy's LinAlgError
        m = np.eye(8, dtype=complex if any(isinstance(v, complex) for v in entries.values()) else float) / 8
        for index, value in entries.items():
            m[index] = value
        for build in (lambda: DensityMatrix(m, 3), lambda: validate_density(m),
                      lambda: validate_density(m, 3), lambda: witness(DensityMatrix(m, 3))):
            with pytest.raises(NonFiniteError, match="NaN or infinite"):
                build()

    @pytest.mark.parametrize("mat", [np.eye(8) / 8, np.eye(8, dtype=complex) / 8, np.eye(8) / 8 + 1e-3j * np.eye(8, k=1)])
    def test_matrix_is_a_read_only_copy(self, mat):
        source = mat.copy()
        dm = DensityMatrix(source, 3)
        assert not dm.mat.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            dm.mat[0, 0] = 1.0
        source[0, 0] = 7.0
        assert dm.mat[0, 0] == mat[0, 0]

    @pytest.mark.parametrize("n_qubits", [True, np.bool_(True), 3.0, np.float64(3.0), "3", None])
    def test_n_qubits_must_be_an_integer(self, n_qubits):
        # True and 3.0 used to be stored as given: 2 ** n matched the shape
        mat = np.eye(2) / 2 if isinstance(n_qubits, (bool, np.bool_)) else np.eye(8) / 8
        with pytest.raises(TypeError, match=rf"^n_qubits must be an integer, got {re.escape(repr(n_qubits))}$"):
            DensityMatrix(mat, n_qubits)

    @pytest.mark.parametrize("n_qubits", [np.int64(3), np.int32(3), np.uint8(3), np.intp(3)])
    def test_numpy_integer_n_qubits_is_stored_as_int(self, n_qubits):
        dm = DensityMatrix(werner_embedded(0.5).mat, n_qubits)
        assert type(dm.n_qubits) is int and dm.n_qubits == 3
        assert witness(dm).culprit.text == witness(werner_embedded(0.5)).culprit.text


class TestKron:
    def test_identity(self):
        assert np.array_equal(kron(np.eye(2), np.eye(2)), np.eye(4))

    def test_projectors(self):
        assert np.array_equal(
            kron(np.diag([1.0, 0.0]), np.diag([1.0, 0.0])), np.diag([1.0, 0, 0, 0])
        )

    def test_bell_block_sits_in_upper_left(self):
        # |0><0| (x) Bell occupies the A=0 sector of the 8x8 matrix
        out = kron(np.diag([1.0, 0.0]), bell_matrix())
        expected = np.zeros((8, 8), dtype=complex)
        expected[:4, :4] = bell_matrix()
        assert np.array_equal(out, expected)

    def test_entry_formula(self):
        rng = np.random.default_rng(9)
        a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        b = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        out = kron(a, b)
        for i in range(2):
            for r in range(2):
                for j in range(4):
                    for s in range(4):
                        # vectorized complex multiply may differ by one ulp
                        assert abs(out[4 * i + j, 4 * r + s] - a[i, r] * b[j, s]) < 1e-14

    def test_real_factors_stay_real(self):
        assert kron(np.eye(2), np.eye(2)).dtype == np.float64
        assert kron([[1, 0], [0, 0]], np.eye(2, dtype=np.float32)).dtype == np.float64
        for a, b in ((np.eye(2), 1j * np.eye(2)), (np.eye(2, dtype=complex), np.eye(2))):
            assert kron(a, b).dtype == kron(b, a).dtype == np.complex128

    def test_state_of_real_factors_is_unchanged(self):
        # kron used to cast every factor to complex128; the state built from it is the same
        rng = np.random.default_rng(21)

        def real_density(d):
            g = rng.standard_normal((d, d))
            return g @ g.T / np.trace(g @ g.T)

        pairs = [(np.diag([1.0, 0.0]), bell_matrix().real), (werner_embedded(0.4).mat, np.diag([0.25, 0.75]))]
        pairs += [(real_density(da), real_density(db)) for da, db in ((2, 2), (2, 4), (4, 2), (4, 4), (2, 8))]
        for a, b in pairs:
            new = validate_density(kron(a, b))
            old = validate_density(np.kron(a.astype(complex), b.astype(complex)))
            assert new.mat.dtype == old.mat.dtype == np.float64
            assert new.mat.tobytes() == old.mat.tobytes()
            assert (new.n_qubits, _checked_mass(new)) == (old.n_qubits, _checked_mass(old))

    def test_trace_multiplicative(self):
        rng = np.random.default_rng(10)
        for _ in range(10):
            a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
            b = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            assert abs(np.trace(kron(a, b)) - np.trace(a) * np.trace(b)) < 1e-12


class TestPartialTrace:
    def test_ghz_pair(self):
        out = partial_trace(ghz(), (0, 1))
        assert np.allclose(out.mat, np.diag([0.5, 0, 0, 0.5]), atol=1e-15)

    def test_product_factorization(self):
        rng = np.random.default_rng(11)
        parts = [random_single_qubit_density(rng) for _ in range(3)]
        rho = validate_density(kron(kron(parts[0], parts[1]), parts[2]), 3)
        out = partial_trace(rho, (0, 2))
        assert np.allclose(out.mat, kron(parts[0], parts[2]), atol=1e-13)

    def test_keep_order_is_respected(self):
        rng = np.random.default_rng(12)
        parts = [random_single_qubit_density(rng) for _ in range(3)]
        rho = validate_density(kron(kron(parts[0], parts[1]), parts[2]), 3)
        out = partial_trace(rho, (2, 0))
        assert np.allclose(out.mat, kron(parts[2], parts[0]), atol=1e-13)

    def test_maximally_mixed(self):
        out = partial_trace(maximally_mixed(3), (1,))
        assert np.allclose(out.mat, np.eye(2) / 2, atol=1e-15)

    @pytest.mark.parametrize("keep", [(0,), (1,), (2,), (0, 1), (0, 2), (1, 2)])
    def test_matches_loop_oracle(self, keep):
        rng = np.random.default_rng(sum(keep) + 13)
        rho = random_density(rng, 3)
        out = partial_trace(rho, keep)
        assert np.allclose(out.mat, ptrace_loops(rho.mat, keep, 3), atol=1e-13)

    def test_composition(self):
        rng = np.random.default_rng(14)
        rho = random_density(rng, 3)
        via_two_steps = partial_trace(partial_trace(rho, (0, 1)), (0,))
        direct = partial_trace(rho, (0,))
        assert np.allclose(via_two_steps.mat, direct.mat, atol=1e-12)

    def test_output_is_valid_density(self):
        rng = np.random.default_rng(15)
        for _ in range(20):
            rho = ginibre_density(rng, 3)
            out = partial_trace(rho, (0, 2))
            validate_density(out.mat, 2)  # raises on violation
            assert abs(np.trace(out.mat) - 1) < 1e-12

    def test_bad_subsets(self):
        rho = maximally_mixed(3)
        with pytest.raises(BadSubsetError):
            partial_trace(rho, ())
        with pytest.raises(BadSubsetError):
            partial_trace(rho, (0, 0))
        with pytest.raises(BadSubsetError):
            partial_trace(rho, (0, 1, 2))
        with pytest.raises(BadSubsetError):
            partial_trace(rho, (3,))


class TestValidateDensity:
    def test_accepts_maximally_mixed(self):
        dm = validate_density(np.eye(4) / 4)
        assert dm.n_qubits == 2

    def test_trace_violation_magnitude(self):
        with pytest.raises(TraceNotOneError) as exc:
            validate_density(np.diag([1.0, 0.0, 0.0, 0.1]))
        assert exc.value.deviation == pytest.approx(0.1)

    def test_psd_violation_magnitude(self):
        with pytest.raises(NotPSDError) as exc:
            validate_density(np.diag([1.5, -0.5]))
        assert exc.value.min_eigenvalue == pytest.approx(-0.5)

    def test_hermiticity_violation(self):
        m = np.eye(4) / 4
        m[0, 1] = 0.2
        with pytest.raises(NotHermitianError) as exc:
            validate_density(m)
        assert exc.value.deviation == pytest.approx(0.2)

    def test_hermiticity_reported_before_trace(self):
        m = np.eye(4) / 2  # trace 2
        m[0, 1] = 0.2
        with pytest.raises(NotHermitianError, match=r"^not Hermitian") as exc:
            validate_density(m)
        assert exc.value.deviation == pytest.approx(0.2)

    def test_trace_reported_before_positivity(self):
        with pytest.raises(TraceNotOneError, match=r"^trace differs") as exc:
            validate_density(np.diag([-1.0, 0.0, 0.0, 3.0]))
        assert exc.value.deviation == pytest.approx(1.0)

    def test_wrong_n_qubits(self):
        with pytest.raises(ValueError):
            validate_density(np.eye(4) / 4, n_qubits=3)

    @pytest.mark.parametrize("mat", [np.eye(6) / 6, np.eye(8)[:4], np.ones(8) / 8, np.eye(4)[None] / 4,
                                     np.zeros((0, 0)), 1.0, [[1.0, 0.0]]])
    def test_every_shape_error_is_a_value_error(self, mat):
        with pytest.raises(ValueError, match="need a matrix of shape"):
            validate_density(mat)

    def test_matrix_is_immutable(self):
        dm = validate_density(np.eye(4) / 4)
        with pytest.raises(ValueError):
            dm.mat[0, 0] = 5.0

    def test_stack_check_raises_first_violation(self):
        """The error type tells which matrix failed first: the trace one and
        the PSD one each break only their own invariant."""
        ok, trace, psd = np.eye(4) / 4, np.eye(4) / 2, np.diag([0.5, 0.5, 0.5, -0.5])
        with pytest.raises(TraceNotOneError, match=r"^trace differs from 1 by 1\.000e\+00$"):
            _checked_stack(np.array([ok, trace, psd, ok]), 1e-9)
        with pytest.raises(NotPSDError, match=r"^not positive semidefinite: min eigenvalue = -5\.000e-01$"):
            _checked_stack(np.array([ok, ok, psd, trace]), 1e-9)
        slightly_negative = np.diag([0.5, 0.5, 1e-10, -1e-10])
        masses = _checked_stack(np.array([ok, slightly_negative, ok, ok]), 1e-9)[0]
        assert masses.tolist() == [0.0, 1e-10, 0.0, 0.0]

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_overflowing_entries_are_stopped_at_the_door(self, dtype):
        """M + M^dag, the trace or M - M^dag of these matrices would pass
        float64; the constructor rejects each, naming its largest part, before
        any invariant is measured, and so does a check at any tol."""
        pair = np.eye(8) / 8
        pair[0, 1] = pair[1, 0] = 1e308
        diagonal = np.diag([1.0, 1e308, 0, 0, 0, 0, 0, 0])
        antisymmetric = np.eye(8) / 8
        antisymmetric[0, 1], antisymmetric[1, 0] = 1e308, -1e308
        message = re.escape("matrix has a part of magnitude 1e+308, past the bound max_float64 / (4 d^2) = ")
        for mat in (pair, diagonal, antisymmetric):
            for tol in (1e-9, 1.5e308):
                with pytest.raises(NonFiniteError, match=message):
                    validate_density(mat.astype(dtype), tol=tol)

    def test_nan_deviation_is_a_violation(self, monkeypatch):
        nan = float("nan")
        assert isinstance(_violation(nan, 0.0, 0.0, 1e-9), NotHermitianError)
        assert isinstance(_violation(0.0, nan, 0.0, 1e-9), TraceNotOneError)
        assert isinstance(_violation(0.0, 0.0, nan, 1e-9), NotPSDError)
        measured = _invariant_deviations(np.array([np.eye(4) / 4] * 3))
        measured[0][1][1] = nan  # the second matrix's trace deviation
        monkeypatch.setattr(linalg, "_invariant_deviations", lambda stack: measured)
        with pytest.raises(TraceNotOneError, match="by nan"):
            _checked_stack(np.array([np.eye(4) / 4] * 3), 1e-9)

    @pytest.mark.parametrize("tol", [-1.0, 0.0, np.nan, np.inf, True])
    def test_tolerance_must_be_finite_and_positive(self, tol):
        # a negative tol fails Hermiticity at deviation 0; NaN or inf passes eigenvalue -0.5
        for mat in (np.eye(4) / 4, np.diag([1.5, -0.5])):
            with pytest.raises(BadToleranceError, match="validate_density tol"):
                validate_density(mat, tol=tol)


class TestStateVectors:
    def test_norm_check(self):
        with pytest.raises(NotNormalizedError) as exc:
            check_unit_norm([1.0, 1.0])
        assert exc.value.deviation == pytest.approx(1.0)

    def test_pure_density_is_projector(self):
        v = np.zeros(8)
        v[0] = v[7] = 2 ** -0.5
        dm = pure_density(v)
        assert np.allclose(dm.mat @ dm.mat, dm.mat, atol=1e-14)
        assert dm.n_qubits == 3

    def test_product_pure_matches_kron(self):
        dm = product_pure([1, 0], [1, 0], [1, 0])
        expected = np.zeros((8, 8))
        expected[0, 0] = 1.0
        assert np.allclose(dm.mat, expected, atol=1e-15)
