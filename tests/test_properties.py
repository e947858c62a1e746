"""Property tests: the negative-mass bound behind the PPT threshold, a
LAPACK-free verdict oracle, local-unitary invariance of pair traces, and
the independence of a real state's row from the stack it comes in."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from entcheck import (
    DensityMatrix,
    ReductionKind,
    embed_bipartite,
    ghz,
    hermitian_eigenvalues_stack,
    labels_for,
    maximally_mixed,
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

from util import det_oracle, ginibre_density, hermitized, local_unitary, pt_loops, qubit_unitary

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
