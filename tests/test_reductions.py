"""Tests for the reduction label algebra and the reduction maps."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entcheck import (
    BadLabelError,
    DensityMatrix,
    apply_reduction,
    ghz,
    kron,
    labels_for,
    omega_matrix,
    coherence_factor,
    parse_label,
    product_pure,
    pure_density,
    quadripartite_labels,
    reduce_all_quadripartite,
    reduce_all_tripartite,
    reduce_split,
    reduce_split_channel,
    reduce_trace_then_split,
    validate_density,
)
from entcheck.linalg import NotHermitianError, NotPSDError, TraceNotOneError, _hermitian_part
from entcheck.reductions import (_PT_TABLES, _TABLES, _gather, PARTY_NAMES, ReductionKind, ReductionLabel,
                                 WrongArityError, make_label)
from entcheck.separability import partial_transpose
from entcheck.states import maximally_mixed

from util import (
    bell_matrix,
    index_table_oracle,
    nonhermitian_stack,
    one_vs_three_channel_oracle,
    random_density,
    random_mixture,
    random_product_coeffs,
    random_pure,
    random_single_qubit_density,
    reduction_oracle,
    two_vs_two_channel_oracle,
)

TRIPARTITE_TEXTS = ["A,B", "A,C", "B,C", "A,BC", "B,CA", "C,AB"]
QUADRIPARTITE_TEXTS = [
    "A,B", "A,C", "A,D", "B,C", "B,D", "C,D",
    "A,BC", "A,BD", "A,CD", "B,CA", "B,CD", "B,DA",
    "C,AB", "C,DA", "C,DB", "D,AB", "D,AC", "D,BC",
    "A,BCD", "B,CDA", "C,DAB", "D,ABC",
    "AB,CD", "AC,BD", "AD,BC",
]


class TestLabels:
    def test_tripartite_enumeration(self):
        assert [l.text for l in labels_for(3)] == TRIPARTITE_TEXTS

    def test_quadripartite_enumeration(self):
        labels = quadripartite_labels()
        assert len(labels) == 25
        assert [l.text for l in labels] == QUADRIPARTITE_TEXTS
        assert len(set(labels)) == 25

    def test_parse_canonicalizes_party_order(self):
        assert parse_label("b,ac", 3).text == "B,CA"
        assert parse_label("CA,B", 3).text == "B,CA"
        assert parse_label("bd,AC", 4).text == "AC,BD"
        assert parse_label("d,cab", 4).text == "D,ABC"

    def test_two_vs_two_deduplication(self):
        assert make_label((1, 3), (0, 2)) == make_label((0, 2), (1, 3))

    def test_parse_rejects_unknown_party(self):
        with pytest.raises(BadLabelError):
            parse_label("A,E", 4)
        with pytest.raises(BadLabelError):
            parse_label("A,D", 3)

    def test_parse_rejects_malformed(self):
        with pytest.raises(BadLabelError):
            parse_label("ABC", 3)
        with pytest.raises(BadLabelError):
            parse_label("A,A", 3)
        with pytest.raises(BadLabelError):
            parse_label("AB,CD", 3)  # two-vs-two needs four parties

    def test_group_order_does_not_matter(self):
        assert parse_label("AB,C", 3).text == "C,AB"
        assert parse_label("BCD,A", 4).text == "A,BCD"

    def test_make_label_rejects_overlap(self):
        with pytest.raises(BadLabelError):
            make_label((0,), (0, 1))

    def test_text_built_once(self):
        label = parse_label("B,AC", 3)
        assert label.text is label.text
        twin = make_label((1,), (0, 2))  # text not built yet
        assert label == twin and hash(label) == hash(twin)
        assert (str(label), repr(label)) == ("B,CA", "ReductionLabel('B,CA')")

    @pytest.mark.parametrize("n_qubits", [3, 4])
    def test_every_spelling_parses_to_a_listed_label(self, n_qubits):
        """Every spelling of every pair of disjoint groups of A..D either
        names a party beyond the state, or parses to the label make_label
        gives those groups, which labels_for(n) lists: the label rule."""
        valid = labels_for(n_qubits)
        seen = set()
        for sides in itertools.product((None, 0, 1), repeat=len(PARTY_NAMES)):
            groups = [[q for q, side in enumerate(sides) if side == g] for g in (0, 1)]
            if not all(groups):
                continue
            for first, second in itertools.product(*(itertools.permutations(g) for g in groups)):
                for text in (",".join("".join(PARTY_NAMES[q] for q in g) for g in pair)
                             for pair in ((first, second), (second, first))):
                    for spelling in (text, text.lower(), f" {text} "):
                        if max(first + second) >= n_qubits:
                            with pytest.raises(BadLabelError, match=r"^unknown party '[A-D]' in label "):
                                parse_label(spelling, n_qubits)
                            continue
                        label = parse_label(spelling, n_qubits)
                        assert label == make_label(groups[0], groups[1])
                        assert label in valid
                        seen.add(label)
        assert seen == set(valid)

    @pytest.mark.parametrize("text, n_qubits", [("A,B", 5), ("A,E", 5), ("A,B", 2), ("A,C", 2), ("A,B", 1)])
    def test_parse_unsupported_arity(self, text, n_qubits):
        """The arity is checked before the parties, so whether the state has
        the label's parties does not change the error."""
        with pytest.raises(WrongArityError, match=rf"^reductions are defined for 3 or 4 qubits, not {n_qubits}$"):
            parse_label(text, n_qubits)


class TestPairReductions:
    def test_ghz_pair_is_classical_mixture(self):
        out = apply_reduction(ghz(), make_label((0,), (1,)))
        assert np.allclose(out.mat, np.diag([0.5, 0, 0, 0.5]), atol=1e-15)

    def test_product_state_factorizes(self):
        rng = np.random.default_rng(20)
        parts = [random_single_qubit_density(rng) for _ in range(3)]
        rho = validate_density(kron(kron(parts[0], parts[1]), parts[2]), 3)
        out = apply_reduction(rho, make_label((1,), (2,)))
        assert np.allclose(out.mat, kron(parts[1], parts[2]), atol=1e-13)

    def test_maximally_mixed(self):
        for label in labels_for(3)[:3]:
            out = apply_reduction(maximally_mixed(3), label)
            assert np.allclose(out.mat, np.eye(4) / 4, atol=1e-15)


class TestSplitReductions:
    def test_ghz_split_is_bell(self):
        for label in labels_for(3)[3:]:
            out = reduce_split(ghz(), label)
            assert np.allclose(out.mat, bell_matrix(), atol=1e-15)

    def test_product_state_closed_form(self):
        # product pure state: the (X,YZ) split factors as rho_X (x) omega,
        # with omega built from the Y factor and the Z factor's coherence
        rng = np.random.default_rng(21)
        for _ in range(50):
            a, b, c, coeffs = random_product_coeffs(rng)
            rho = pure_density(coeffs)
            cases = {
                "A,BC": (a, b, c),
                "B,CA": (b, c, a),
                "C,AB": (c, a, b),
            }
            for text, (x, y, z) in cases.items():
                out = reduce_split(rho, parse_label(text, 3))
                expected = kron(np.outer(x, x.conj()), omega_matrix(y, coherence_factor(z)))
                assert np.allclose(out.mat, expected, atol=1e-12)

    def test_channel_equals_entrywise_on_random_mixed(self):
        rng = np.random.default_rng(22)
        for _ in range(100):
            rho = random_density(rng, 3)
            for label in labels_for(3)[3:]:
                direct = reduce_split(rho, label).mat
                channel = reduce_split_channel(rho, label).mat
                assert np.max(np.abs(direct - channel)) < 1e-12

    def test_channel_on_maximally_mixed(self):
        for label in labels_for(3)[3:]:
            out = reduce_split_channel(maximally_mixed(3), label)
            assert np.allclose(out.mat, np.eye(4) / 4, atol=1e-15)

    def test_pure_state_two_pattern_structure(self):
        # for pure input the (B,CA) split equals the weighted sum of the two
        # normalized pattern states, built here directly from the coefficients
        rng = np.random.default_rng(23)
        for _ in range(20):
            psi = random_pure(rng, 3)
            t = psi.reshape(2, 2, 2)
            out = reduce_split(pure_density(psi), parse_label("B,CA", 3)).mat
            expected = np.zeros((4, 4), dtype=complex)
            for p in (0, 1):
                phi = np.zeros(4, dtype=complex)
                for m in range(2):
                    for n in range(2):
                        phi[2 * m + n] = t[n ^ p, m, n]  # A=(n^p), B=m, C=n
                eta_sq = np.sum(np.abs(phi) ** 2)
                if eta_sq > 0:
                    expected += np.outer(phi, phi.conj())  # eta^2 * |phi/eta><phi/eta|
            assert np.allclose(out, expected, atol=1e-12)

    def test_pure_state_split_rank_at_most_two(self):
        rng = np.random.default_rng(24)
        for _ in range(20):
            rho = pure_density(random_pure(rng, 3))
            for label in labels_for(3)[3:]:
                singular = np.linalg.svd(reduce_split(rho, label).mat, compute_uv=False)
                assert np.count_nonzero(singular > 1e-10 * singular[0]) <= 2

    def test_wrong_arity(self):
        with pytest.raises(WrongArityError):
            reduce_split(maximally_mixed(2), make_label((0,), (1, 2)))


class TestLinearity:
    @pytest.mark.parametrize("n_qubits", [3, 4])
    def test_reductions_are_linear(self, n_qubits):
        rng = np.random.default_rng(25 + n_qubits)
        labels = labels_for(n_qubits)
        for _ in range(5):
            mixture, weights, pures = random_mixture(rng, n_qubits, k=3)
            for label in labels:
                whole = apply_reduction(mixture, label).mat
                parts = sum(
                    w * apply_reduction(pure_density(v), label).mat
                    for w, v in zip(weights, pures)
                )
                assert np.max(np.abs(whole - parts)) < 1e-12


class TestQuadripartiteReductions:
    def test_ghz4_one_vs_three_is_bell(self):
        out = apply_reduction(ghz(4), parse_label("A,BCD", 4))
        assert np.allclose(out.mat, bell_matrix(), atol=1e-15)

    def test_ghz4_two_vs_two_is_bell(self):
        out = apply_reduction(ghz(4), parse_label("AB,CD", 4))
        assert np.allclose(out.mat, bell_matrix(), atol=1e-15)

    def test_bell_bell_two_vs_two(self):
        # pairing each Bell pair collapses to the pure product |++><++|
        rho = validate_density(kron(bell_matrix(), bell_matrix()), 4)
        out = apply_reduction(rho, parse_label("AB,CD", 4))
        assert np.allclose(out.mat, np.full((4, 4), 0.25), atol=1e-15)

    def test_ghz4_trace_then_split(self):
        out = reduce_trace_then_split(ghz(4), 3, parse_label("A,BC", 4))
        assert np.allclose(out.mat, np.diag([0.5, 0, 0, 0.5]), atol=1e-15)

    def test_trace_then_split_equals_composition(self):
        rng = np.random.default_rng(26)
        from entcheck import partial_trace

        rho = random_density(rng, 4)
        out = reduce_trace_then_split(rho, 3, parse_label("B,CA", 4))
        sub = partial_trace(rho, (0, 1, 2))
        expected = reduce_split(sub, parse_label("B,CA", 3))
        assert np.allclose(out.mat, expected.mat, atol=1e-14)

    def test_one_vs_three_matches_channel_oracle(self):
        rng = np.random.default_rng(27)
        for _ in range(10):
            rho = random_density(rng, 4)
            for label in quadripartite_labels()[18:22]:
                x = label.first[0]
                y, z, w = label.second
                direct = apply_reduction(rho, label).mat
                oracle = one_vs_three_channel_oracle(rho, x, y, z, w)
                assert np.max(np.abs(direct - oracle)) < 1e-12

    def test_two_vs_two_matches_channel_oracle(self):
        rng = np.random.default_rng(28)
        for _ in range(10):
            rho = random_density(rng, 4)
            for label in quadripartite_labels()[22:]:
                x1, x2 = label.first
                y1, y2 = label.second
                direct = apply_reduction(rho, label).mat
                oracle = two_vs_two_channel_oracle(rho, x1, x2, y1, y2)
                assert np.max(np.abs(direct - oracle)) < 1e-12

    def test_product_state_one_vs_three_factorizes(self):
        # |a b b b| pattern: X factor survives, synthetic qubit from the rest
        rng = np.random.default_rng(29)
        qubits = [random_pure(rng, 1) for _ in range(4)]
        coeffs = qubits[0]
        for q in qubits[1:]:
            coeffs = np.kron(coeffs, q)
        rho = pure_density(coeffs)
        out = apply_reduction(rho, parse_label("A,BCD", 4))
        rho_a = np.outer(qubits[0], qubits[0].conj())
        # the synthetic factor is y (x) built from B with both pattern bits
        # weighted by the C and D coherences
        b, c, d = qubits[1], qubits[2], qubits[3]
        gamma = coherence_factor(c) * coherence_factor(d)
        expected = kron(rho_a, omega_matrix(b, gamma))
        assert np.allclose(out.mat, expected, atol=1e-12)

    def test_maximally_mixed_all_reductions(self):
        entries = reduce_all_quadripartite(maximally_mixed(4))
        assert len(entries) == 25
        for dm in entries.values():
            assert np.allclose(dm.mat, np.eye(4) / 4, atol=1e-15)

    def test_wrong_arity(self):
        with pytest.raises(WrongArityError):
            apply_reduction(ghz(3), parse_label("A,BCD", 4))
        with pytest.raises(WrongArityError):
            reduce_all_quadripartite(ghz(3))


class TestReduceAll:
    def test_tripartite_set_shape(self):
        entries = reduce_all_tripartite(ghz())
        assert [l.text for l in entries] == TRIPARTITE_TEXTS
        for label, dm in entries.items():
            assert isinstance(dm, DensityMatrix)
            assert dm.dim == 4
            validate_density(dm.mat, 2)

    def test_every_entry_is_valid_on_random_input(self):
        rng = np.random.default_rng(30)
        for _ in range(25):
            rho = random_density(rng, 3)
            for dm in reduce_all_tripartite(rho).values():
                validate_density(dm.mat, 2, tol=1e-9)

    def test_kind_dispatch(self):
        rho = ghz(4)
        for label in quadripartite_labels():
            out = apply_reduction(rho, label)
            assert out.dim == 4
            assert label.kind in set(ReductionKind)


class TestOracle:
    @pytest.mark.parametrize("n_qubits", [3, 4])
    def test_every_label_matches_loop_oracle(self, n_qubits):
        rng = np.random.default_rng(32 + n_qubits)
        reduce_all = reduce_all_tripartite if n_qubits == 3 else reduce_all_quadripartite
        for _ in range(4 if n_qubits == 3 else 2):
            rho = random_mixture(rng, n_qubits, k=3)[0]
            entries = reduce_all(rho)
            for label in labels_for(n_qubits):
                want = reduction_oracle(rho.mat, label, n_qubits)
                assert np.max(np.abs(apply_reduction(rho, label).mat - want)) < 1e-12
                assert np.max(np.abs(entries[label].mat - want)) < 1e-12


class TestIndexTable:
    @pytest.mark.parametrize("n_qubits", [3, 4])
    def test_tables_are_the_oracles_stored_summand_by_summand(self, n_qubits):
        """Byte for byte the GF(2) oracle's tables, each ``table[..., k]`` one
        C-contiguous block, as the one-matrix gather's fast path needs."""
        for got, want in zip((_TABLES[n_qubits], _PT_TABLES[n_qubits]),
                             index_table_oracle(labels_for(n_qubits), n_qubits)):
            assert (got.dtype, got.shape) == (want.dtype, want.shape)
            assert got.tobytes() == want.tobytes()
            stored = np.moveaxis(np.ascontiguousarray(np.moveaxis(want, -1, 0)), 0, -1)
            assert got.strides == stored.strides
            assert all(got[..., k].flags.c_contiguous for k in range(got.shape[-1]))

    @pytest.mark.parametrize("n_qubits", [3, 4])
    def test_diagonal_summands_cover_the_input_diagonal_once(self, n_qubits):
        d = 2 ** n_qubits
        table = _TABLES[n_qubits]
        assert table.shape == (len(labels_for(n_qubits)), 4, 4, 2 ** (n_qubits - 2))
        for rows in table:
            diagonal = np.sort(np.concatenate([rows[a, a] for a in range(4)]))
            assert np.array_equal(diagonal, np.arange(d) * (d + 1))

    @pytest.mark.parametrize("n_qubits", [3, 4])
    def test_pt_table_holds_transposed_indices_at_transposed_positions(self, n_qubits):
        # entry (a, b, k) reads (x, y) exactly where entry (b, a, k) reads (y, x)
        d, table = 2 ** n_qubits, _PT_TABLES[n_qubits]
        assert table.shape == _TABLES[n_qubits].shape
        assert np.array_equal(table.swapaxes(1, 2), (table % d) * d + table // d)
        assert np.array_equal(np.sort(table, axis=None), np.sort(_TABLES[n_qubits], axis=None))

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(st.sampled_from([3, 4]), st.integers(0, 2 ** 32 - 1), st.integers(-20, 2))
    def test_pt_gather_is_partial_transpose_of_gather(self, n, seed, exponent):
        mats = nonhermitian_stack(np.random.default_rng(seed), n, 3, 10.0 ** exponent)
        pts = _gather(mats, _PT_TABLES[n])
        assert np.array_equal(pts, partial_transpose(_gather(mats, _TABLES[n])))
        pts = _gather(_hermitian_part(mats), _PT_TABLES[n])
        assert np.array_equal(pts, pts.conj().swapaxes(-1, -2))  # exactly Hermitian blocks

    def test_non_canonical_label_rejected(self):
        reversed_split = ReductionLabel(ReductionKind.ONE_VS_TWO, (0,), (2, 1))
        with pytest.raises(BadLabelError, match="A,CB"):
            apply_reduction(ghz(3), reversed_split)


def test_state_of_the_wrong_size_is_not_reduced():
    # a 16x16 matrix read through the 3-qubit table gave a wrong "A,B" reduction
    with pytest.raises(ValueError, match=r"3 qubits need a matrix of shape \(8, 8\), got \(16, 16\)"):
        apply_reduction(DensityMatrix(ghz(4).mat, 3), parse_label("A,B", 3))
    with pytest.raises(ValueError, match=r"4 qubits need a matrix of shape \(16, 16\), got \(8, 8\)"):
        apply_reduction(DensityMatrix(ghz(3).mat, 4), parse_label("A,B", 4))


def _diagonal_with_negative_pair(n_qubits):
    """Unit-trace diagonal with -0.2 on |0..00> and |0..01>: not a state."""
    d = 2 ** n_qubits
    diag = np.full(d, 1.4 / (d - 2))
    diag[:2] = -0.2
    return DensityMatrix(np.diag(diag), n_qubits)


class TestRevalidation:
    """Unvalidated input is checked once, before it is reduced; the
    reductions get no check of their own."""

    REDUCE_ALL = {3: reduce_all_tripartite, 4: reduce_all_quadripartite}

    @pytest.mark.parametrize("n_qubits", [3, 4])
    def test_non_hermitian(self, n_qubits):
        d = 2 ** n_qubits
        m = np.eye(d, dtype=complex) / d
        m[0, 1] = 0.1
        with pytest.raises(NotHermitianError) as info:
            self.REDUCE_ALL[n_qubits](DensityMatrix(m, n_qubits))
        assert info.value.deviation == pytest.approx(0.1)

    @pytest.mark.parametrize("n_qubits", [3, 4])
    def test_trace_not_one(self, n_qubits):
        rho = DensityMatrix(np.eye(2 ** n_qubits) / 2 ** (n_qubits - 1), n_qubits)
        with pytest.raises(TraceNotOneError) as info:
            self.REDUCE_ALL[n_qubits](rho)
        assert info.value.deviation == pytest.approx(1.0)

    @pytest.mark.parametrize("n_qubits, min_eig", [(3, -0.4), (4, -0.2)])
    def test_not_psd_after_reduction(self, n_qubits, min_eig):
        rho = _diagonal_with_negative_pair(n_qubits)
        reduced = self.REDUCE_ALL[n_qubits](rho, validate=False)
        assert np.linalg.eigvalsh(reduced[labels_for(n_qubits)[0]].mat)[0] == pytest.approx(min_eig)
        with pytest.raises(NotPSDError) as info:
            self.REDUCE_ALL[n_qubits](rho)
        assert info.value.min_eigenvalue == pytest.approx(-0.2)  # the input's, not the reduction's

    def test_errors_come_from_the_input(self):
        with pytest.raises(NotPSDError, match=r"^not positive semidefinite"):
            reduce_all_tripartite(_diagonal_with_negative_pair(3))
        m = np.eye(8, dtype=complex) / 8
        m[0, 1] = 0.1  # |000><001| survives only where C is kept
        with pytest.raises(NotHermitianError, match=r"^not Hermitian"):
            reduce_all_tripartite(DensityMatrix(m, 3))
        with pytest.raises(TraceNotOneError, match=r"^trace"):
            reduce_all_tripartite(DensityMatrix(np.eye(8) / 4, 3))


class TestLabelArity:
    @pytest.mark.parametrize("text", ["A,BCD", "AB,CD"])
    def test_four_party_label_on_three_qubits(self, text):
        with pytest.raises(WrongArityError):
            apply_reduction(ghz(3), parse_label(text, 4))

    def test_missing_party_on_three_qubits(self):
        with pytest.raises(BadLabelError):
            apply_reduction(ghz(3), make_label((0,), (3,)))
        with pytest.raises(BadLabelError):
            apply_reduction(ghz(3), make_label((0,), (1, 3)))
