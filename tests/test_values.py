"""The contract of the value types: pickle and copy round-trip each one,
equality, hash, repr and str are as documented, construction works by
position and by keyword, and no field can be assigned or deleted."""

import copy
import pickle

import numpy as np
import pytest

from entcheck import (DensityMatrix, PptVerdict, ReductionKind, WitnessReport, ghz, parse_label, ppt_separable,
                      pure_split_separable, validate_density, werner_embedded, witness)
from entcheck.reductions import ReductionLabel, make_label
from entcheck.separability import SplitVerdict
from entcheck.states import maximally_mixed

ROUND_TRIPS = {
    "pickle": lambda v: pickle.loads(pickle.dumps(v)),
    "pickle protocol 0": lambda v: pickle.loads(pickle.dumps(v, protocol=0)),
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
}

VERDICT = ("label", "min_pt_eigenvalue", "separable", "tolerance_used")
REPORT = ("verdicts", "conclusion", "culprit")
# the types compared by their fields, each with a value and its field names
BY_FIELDS = {
    "ReductionLabel": (lambda: parse_label("B,CA", 3), ("kind", "first", "second", "text")),
    "PptVerdict": (lambda: witness(ghz(3)).verdicts[3], VERDICT),
    "PptVerdict without a label": (lambda: ppt_separable(maximally_mixed(2)), VERDICT),
    "WitnessReport entangled": (lambda: witness(ghz(3)), REPORT),
    "WitnessReport inconclusive": (lambda: witness(werner_embedded(0.2)), REPORT),
    "SplitVerdict": (lambda: pure_split_separable(np.eye(8)[0], "A-BC"), ("split", "separable", "max_minor_modulus")),
}


@pytest.mark.parametrize("how", list(ROUND_TRIPS))
@pytest.mark.parametrize("case", list(BY_FIELDS))
def test_field_values_round_trip(case, how):
    value = BY_FIELDS[case][0]()
    back = ROUND_TRIPS[how](value)
    assert type(back) is type(value)
    assert back == value
    assert hash(back) == hash(value)
    assert repr(back) == repr(value)


@pytest.mark.parametrize("how", list(ROUND_TRIPS))
def test_density_matrix_round_trips_with_its_measurement(how):
    rho = validate_density(werner_embedded(0.5).mat, 3, 1e-7)
    back = ROUND_TRIPS[how](rho)
    assert type(back) is DensityMatrix
    assert back is not rho and back != rho  # compared by identity
    assert (back.n_qubits, back.tol, back.mat.dtype) == (3, 1e-7, rho.mat.dtype)
    assert np.array_equal(back.mat, rho.mat)
    (deviations, h), (back_deviations, back_h) = rho._measured, back._measured
    assert back_deviations == deviations
    assert np.array_equal(back_h, h)
    assert witness(back) == witness(rho)


def test_unmeasured_density_matrix_round_trips_unmeasured():
    back = pickle.loads(pickle.dumps(ghz(4)))
    assert back._measured is None
    assert witness(back) == witness(ghz(4))


@pytest.mark.parametrize("measured", [True, False], ids=["measured", "unmeasured"])
@pytest.mark.parametrize("how", list(ROUND_TRIPS))
def test_density_matrix_copy_is_read_only(how, measured):
    """pickle and deepcopy rebuild the arrays; a writeable copy would keep
    a measurement it no longer matches, and witness it with changed entries."""
    rho = validate_density(ghz(3).mat, 3) if measured else ghz(3)
    back = ROUND_TRIPS[how](rho)
    assert (back._measured is not None) is measured
    for array in [back.mat] + ([back._measured[1]] if measured else []):
        assert not array.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            array[0, 0] = 5.0
    assert np.array_equal(back.mat, rho.mat)


class TestEquality:
    def test_density_matrices_compare_by_identity(self):
        rho = ghz(3)
        twin = DensityMatrix(rho.mat, 3)
        assert rho == rho and hash(rho) == object.__hash__(rho)
        assert rho != twin
        assert len({rho, twin, rho}) == 2

    def test_labels_compare_by_kind_and_groups(self):
        label = parse_label("B,CA", 3)
        assert label == parse_label("b,ac", 3) == make_label((2, 0), (1,))
        assert hash(label) == hash(make_label((1,), (0, 2))) == hash((ReductionKind.ONE_VS_TWO, (1,), (2, 0)))
        assert label != parse_label("A,BC", 3)
        assert label != ReductionLabel(ReductionKind.ONE_VS_TWO, (1,), (0, 2))  # pairing order counts
        assert label != ReductionLabel(ReductionKind.PAIR_TRACE, (1,), (2, 0))
        assert label != "B,CA" and label != (ReductionKind.ONE_VS_TWO, (1,), (2, 0))
        assert {label: 1}[parse_label("B,CA", 4)] == 1

    @pytest.mark.parametrize("case", [c for c in BY_FIELDS if c != "ReductionLabel"])
    def test_verdicts_compare_by_fields(self, case):
        make, fields = BY_FIELDS[case]
        value = make()
        assert value == make() and hash(value) == hash(make())
        other = type(value)(**{**{name: getattr(value, name) for name in fields}, fields[1]: "changed"})
        assert other != value


class TestRepr:
    def test_label(self):
        label = parse_label("B,CA", 3)
        assert repr(label) == "ReductionLabel('B,CA')"
        assert str(label) == label.text == "B,CA"
        assert label.parties == (1, 2, 0)

    def test_density_matrix(self):
        assert repr(maximally_mixed(1)) == ("DensityMatrix(mat=array([[0.5, 0. ],\n"
                                            "       [0. , 0.5]]), n_qubits=1, tol=1e-09)")
        rho = validate_density(ghz(3).mat, 3)
        assert repr(rho) == f"DensityMatrix(mat={rho.mat!r}, n_qubits=3, tol=1e-09)"  # no measurement shown

    def test_verdicts(self):
        assert repr(pure_split_separable(np.eye(8)[0], "A-BC")) == (
            "SplitVerdict(split='A-BC', separable=True, max_minor_modulus=0.0)")
        assert repr(ppt_separable(maximally_mixed(2))) == (
            "PptVerdict(label=None, min_pt_eigenvalue=0.25, separable=True, tolerance_used=1e-09)")
        report = witness(ghz(3))
        assert repr(report) == (
            "WitnessReport(verdicts=("
            + ", ".join(f"PptVerdict(label=ReductionLabel('{text}'), min_pt_eigenvalue={value}, "
                        f"separable={value == 0.0}, tolerance_used=1e-09)"
                        for text, value in (("A,B", 0.0), ("A,C", 0.0), ("B,C", 0.0),
                                            ("A,BC", -0.5), ("B,CA", -0.5), ("C,AB", -0.5)))
            + "), conclusion='ENTANGLED', culprit=ReductionLabel('A,BC'))")


IMMUTABLE = {
    **{case: (make, fields + ("new_attribute",)) for case, (make, fields) in BY_FIELDS.items()},
    "DensityMatrix": (ghz, ("mat", "n_qubits", "tol", "_measured", "new_attribute")),
    "validated DensityMatrix": (lambda: validate_density(ghz(3).mat, 3),
                                ("mat", "n_qubits", "tol", "_measured", "new_attribute")),
}


@pytest.mark.parametrize("case", list(IMMUTABLE))
def test_fields_cannot_be_assigned_or_deleted(case):
    make, names = IMMUTABLE[case]
    value = make()
    before = repr(value)
    for name in names:
        with pytest.raises(AttributeError):
            setattr(value, name, None)
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert repr(value) == before


class TestConstruction:
    def test_density_matrix(self):
        m = ghz(3).mat
        by_position, by_keyword = DensityMatrix(m, 3, 1e-6), DensityMatrix(mat=m, n_qubits=3, tol=1e-6)
        for rho in (by_position, by_keyword):
            assert (rho.n_qubits, rho.tol, rho.dim) == (3, 1e-6, 8)
            assert np.array_equal(rho.mat, m) and not rho.mat.flags.writeable
        assert DensityMatrix(m, np.int64(3)).n_qubits.__class__ is int
        assert DensityMatrix(m, 3).tol == 1e-9

    def test_label(self):
        kind = ReductionKind.ONE_VS_TWO
        assert (ReductionLabel(kind, (1,), (2, 0)) == ReductionLabel(kind=kind, first=(1,), second=(2, 0))
                == parse_label("B,CA", 3))
        assert ReductionLabel(kind=kind, first=(1,), second=(2, 0)).text == "B,CA"

    def test_verdicts(self):
        report = witness(ghz(3))
        assert WitnessReport(report.verdicts, report.conclusion, report.culprit) == report
        assert WitnessReport(verdicts=report.verdicts, conclusion=report.conclusion, culprit=report.culprit) == report
        assert report.entangled and report.min_pt_eigenvalue == -0.5
        v = report.verdicts[0]
        assert PptVerdict(label=v.label, min_pt_eigenvalue=v.min_pt_eigenvalue, separable=v.separable,
                          tolerance_used=v.tolerance_used) == v
        split = pure_split_separable(np.eye(8)[0], "A-BC")
        assert SplitVerdict("A-BC", True, 0.0) == SplitVerdict(split="A-BC", separable=True,
                                                              max_minor_modulus=0.0) == split
