"""Tests for the command-line interface and the matrix file format."""

import contextlib
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import entcheck
from entcheck import DensityMatrix, cli, ghz, maximally_mixed, molecule_state, separability, upb_state, werner_embedded, witness
from entcheck.cli import build_parser, main
from entcheck.fileio import ParseError, _dumps_document, density_diagnostics, dumps_matrix, loads_matrix
from entcheck.states import _werner_stack

from util import (bell_matrix, borderline_matrix, ginibre_density, hermitized, jacobi_eigenvalues_oracle,
                  record_eigensolves, record_hermitian_parts)


# the load-time error for a 3-qubit file with a 1e308 entry
PAST_THE_BOUND_3Q = "matrix has a part of magnitude 1e+308, past the bound max_float64 / (4 d^2) = 7.022238808055921e+305"


def write_state(tmp_path, name, dm, tol=None):
    path = tmp_path / name
    path.write_text(dumps_matrix(dm.mat, dm.n_qubits, tol))
    return str(path)


class TestMatrixFormat:
    def test_round_trip_is_exact(self):
        rng = np.random.default_rng(60)
        g = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        m = g @ g.conj().T
        m = m / np.trace(m).real
        text = dumps_matrix(m, 3, 1e-9)
        back, n, tol = loads_matrix(text)
        assert n == 3
        assert tol == 1e-9
        assert np.array_equal(back, m)  # bit-for-bit

    def test_im_optional(self):
        mat, n, tol = loads_matrix(json.dumps({
            "n_qubits": 1, "re": [[1.0, 0.0], [0.0, 0.0]],
        }))
        assert n == 1
        assert tol is None
        assert np.array_equal(mat, np.diag([1.0 + 0j, 0.0]))

    def test_real_file_is_float64(self):
        # re + 0.0 * im is the real part of re + 1j * im, -0.0 entries included
        re = werner_embedded(0.3).mat * np.where(np.eye(8, k=3) > 0, -1.0, 1.0)
        re[re == 0.0] *= -1.0  # every zero of re is -0.0
        zero_im = np.zeros((8, 8))
        negzero_im = np.where(np.eye(8, k=1) > 0, -0.0, 0.0)
        for im in (None, zero_im, negzero_im):
            doc = {"n_qubits": 3, "re": re.tolist()}
            if im is not None:
                doc["im"] = im.tolist()
            mat, _, _ = loads_matrix(json.dumps(doc))
            assert mat.dtype == np.float64
            expected = (re + 1j * (zero_im if im is None else im)).real
            assert mat.tobytes() == expected.tobytes()
            assert np.array_equal(np.signbit(mat), np.signbit(expected))
        # a -0.0 of re survives only where im is -0.0 too
        assert np.array_equal(np.signbit(mat) & (mat == 0.0), np.signbit(negzero_im) & (re == 0.0))
        im = zero_im.copy()
        im[2, 5], im[5, 2] = 1e-3, -1e-3
        mat, _, _ = loads_matrix(json.dumps({"n_qubits": 3, "re": re.tolist(), "im": im.tolist()}))
        assert mat.dtype == np.complex128
        assert mat.tobytes() == (re + 1j * im).tobytes()

    def test_parse_errors_carry_location(self):
        with pytest.raises(ParseError, match="n_qubits"):
            loads_matrix(json.dumps({"re": [[1.0]]}))
        with pytest.raises(ParseError, match="shape"):
            loads_matrix(json.dumps({"n_qubits": 2, "re": [[1.0, 0.0], [0.0, 0.0]]}))
        with pytest.raises(ParseError, match="line"):
            loads_matrix("{not json")
        with pytest.raises(ParseError, match="row 0"):
            loads_matrix(json.dumps({
                "n_qubits": 1, "re": [[None, 0.0], [0.0, 0.0]],
            }).replace("null", "NaN"))
        for field in ("re", "im"):  # ragged rows; the rest of the message is numpy's own
            doc = {"n_qubits": 1, "re": [[1, 0], [0, 0]], "im": [[0, 0], [0, 0]]}
            doc[field][1] = [0]
            with pytest.raises(ParseError, match=f"^field {field!r} is not a numeric array: "):
                loads_matrix(json.dumps(doc))

    @pytest.mark.parametrize("field, entry, shown", [
        ("re", "0.125", '"0.125"'),
        ("re", True, "true"),
        ("re", None, "null"),
        ("im", False, "false"),
        ("im", {"re": 0.0}, '{"re": 0.0}'),
    ])
    def test_entries_must_be_numbers(self, field, entry, shown):
        """numpy would read "0.125" as 0.125 and true as 1.0."""
        doc = {"n_qubits": 3, "re": (np.eye(8) / 8).tolist(), "im": np.zeros((8, 8)).tolist()}
        doc[field][2][5] = entry
        with pytest.raises(ParseError) as exc:
            loads_matrix(json.dumps(doc))
        assert str(exc.value) == f"field {field!r} is not a numeric array: row 2, column 5 holds {shown}"

    def test_literals_elsewhere_leave_numbers_alone(self):
        doc = {"n_qubits": 1, "re": [[1, 0.0], [0.0, 0]], "note": "true or false"}
        mat, _, _ = loads_matrix(json.dumps(doc))
        assert mat.dtype == np.float64 and mat.tolist() == [[1.0, 0.0], [0.0, 0.0]]

    def test_integer_beyond_float64(self):
        # used to escape as numpy's OverflowError
        with pytest.raises(ParseError, match=r"^field 're' is not a numeric array: int too large"):
            loads_matrix('{"n_qubits": 1, "re": [[1%s, 0], [0, 0]]}' % ("0" * 400))

    @pytest.mark.parametrize("tol", ["NaN", "Infinity", "-Infinity", "true", "-1", "0", "-1e-9"])
    def test_tol_must_be_finite_and_positive(self, tol):
        text = '{"n_qubits": 1, "re": [[1.0, 0.0], [0.0, 0.0]], "tol": %s}' % tol
        with pytest.raises(ParseError, match="'tol'"):
            loads_matrix(text)

    def test_tol_must_be_a_number(self):
        with pytest.raises(ParseError, match="'tol' must be a number"):
            loads_matrix('{"n_qubits": 1, "re": [[1.0, 0.0], [0.0, 0.0]], "tol": "1e-9"}')


_ODD_TEXT = st.sampled_from(["", "%s", "%", "{0}", "{", '"', "\\", "a\nb", "\r\t", "\x00",
                             "é", "€", "😀", "\ud800", "\udfff"])
_TEXT = st.text(max_size=6) | _ODD_TEXT
_SCALARS = (st.none() | st.booleans() | st.integers() | st.integers(-10**40, 10**40)
            | st.floats() | st.sampled_from([-0.0, 5e-324, 1e16, 1e-7, math.nan, math.inf, -math.inf])
            | _TEXT)


@st.composite
def _row_tables(draw):
    """A list of flat dicts over one key set, in one key order or in several."""
    keys = draw(st.lists(_TEXT, min_size=1, max_size=4, unique=True))
    rows = draw(st.lists(st.lists(_SCALARS, min_size=len(keys), max_size=len(keys)),
                         min_size=1, max_size=5))
    reorder = draw(st.booleans())
    return [dict(zip(draw(st.permutations(keys)) if reorder else keys, row)) for row in rows]


_DOCUMENTS = st.recursive(
    _SCALARS | st.lists(_SCALARS, max_size=6) | _row_tables(),
    lambda children: (st.lists(children, max_size=4) | st.lists(children, max_size=4).map(tuple)
                      | st.dictionaries(_TEXT, children, max_size=4)),
    max_leaves=24,
)


class TestDocumentWriter:
    """Matrix files and machine reports are ``json.dumps(doc, indent=1)``, byte for byte."""

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(_DOCUMENTS)
    def test_same_bytes_as_stdlib(self, doc):
        assert _dumps_document(doc) == json.dumps(doc, indent=1)

    @pytest.mark.parametrize("doc", [
        {"a": [1, 2], "b": {"c": []}, "d": {}, "e": ()},
        [{"k%s": 1, "{v}": "x\ny"}, {"k%s": 2.5, "{v}": None}],  # one key order: a table
        [{"a": 1, "b": 2}, {"b": 3, "a": 4}],                      # two orders: not a table
        [{"a": 1}, {"a": [2]}],                                    # a nested value: not a table
        [{}, {}], [[], [1]], [1, "a", [2]], [[1, {"a": np.float64(0.5)}], True],
    ])
    def test_edge_documents(self, doc):
        assert _dumps_document(doc) == json.dumps(doc, indent=1)

    @pytest.mark.parametrize("doc", [
        object(), {1, 2}, 1j, b"x", np.float32(1.0), [1, 2, object()],
        {"rows": [{"a": 1j}]}, {(1, 2): 3},
    ])
    def test_non_json_value_raises_type_error(self, doc):
        with pytest.raises(TypeError):
            json.dumps(doc, indent=1)
        with pytest.raises(TypeError):
            _dumps_document(doc)

    @pytest.mark.parametrize("doc", [{1: "a"}, {None: 1}, [{1: "a"}, {True: "b"}]])
    def test_non_str_key_raises_type_error(self, doc):
        """json would write these keys as strings; the writer takes str keys only."""
        with pytest.raises(TypeError):
            _dumps_document(doc)

    def _argvs(self, tmp_path):
        states = {"ghz3": ghz(), "upb": upb_state(), "ghz4": ghz(4), "mixed4": maximally_mixed(4)}
        paths = {name: write_state(tmp_path, f"{name}.json", dm, tol=1e-9) for name, dm in states.items()}
        for name in states:
            yield ["analyze", paths[name], "--format", "machine"]
        for family in ("werner", "molecule"):
            yield ["sweep", family, "--steps", "33", "--format", "machine"]
        yield ["reduce", paths["ghz3"], "--label", "A,BC"]
        yield ["reduce", paths["ghz4"], "--label", "AB,CD"]
        bell = tmp_path / "bell.json"
        bell.write_text(dumps_matrix(bell_matrix(), 2))
        for argv in (["ghz"], ["ghz", "--n-qubits", "4"], ["werner", "--x", "0.4"], ["upb"],
                     ["embed", "--way", "2", "--input", str(bell)],
                     ["molecule", "--p-ab", "0.5", "--p-ac", "0.25", "--p-bc", "0.25"],
                     ["product", "--a", "1,0", "--b", "0.6,0.8", "--c", "1,0"]):
            yield ["make-state", *argv]

    def test_cli_documents_are_stdlib_indent(self, tmp_path, capsys):
        codes = []
        for argv in self._argvs(tmp_path):
            codes.append(main(argv))
            out = capsys.readouterr().out
            assert out == json.dumps(json.loads(out), indent=1) + "\n", argv
        assert codes[:4] == [2, 0, 2, 0]  # analyze writes both verdicts at 3 and 4 qubits
        assert codes[4:] == [0] * (len(codes) - 4)


class TestDensityDiagnostics:
    """The three deviations an analyze report prints, against loops and
    the Jacobi oracle."""

    @pytest.mark.parametrize("n", [3, 4])
    @pytest.mark.parametrize("case", ["valid", "non-hermitian", "bad-trace", "non-psd"])
    def test_matches_loops_and_jacobi(self, case, n):
        m = ginibre_density(np.random.default_rng([n, 7]), n).mat.copy()
        if case == "non-hermitian":
            m[0, 1] += 0.01
            m[1, 1] += 1e-4j  # the trace's imaginary part must count too
        elif case == "bad-trace":
            m *= 1.25
        elif case == "non-psd":
            m[0, 0] -= 0.5
            m[1, 1] += 0.5
        d = 2 ** n
        herm = max(abs(m[a, b] - np.conj(m[b, a])) for a in range(d) for b in range(d))
        trace = abs(sum(m[a, a] for a in range(d)) - 1.0)
        min_eig = jacobi_eigenvalues_oracle((m + m.conj().T) / 2)[0]
        diag = density_diagnostics(m)
        assert list(diag) == ["hermiticity_deviation", "trace_deviation", "min_eigenvalue"]
        assert diag["hermiticity_deviation"] == pytest.approx(herm, rel=1e-12, abs=1e-17)
        assert diag["trace_deviation"] == pytest.approx(trace, abs=1e-14)
        assert diag["min_eigenvalue"] == pytest.approx(min_eig, abs=1e-10)
        violated = [diag["hermiticity_deviation"] > 1e-3, diag["trace_deviation"] > 1e-3,
                    diag["min_eigenvalue"] < -1e-3]
        assert violated == [case == "non-hermitian", case == "bad-trace", case == "non-psd"]

    @pytest.mark.parametrize("n", [3, 4])
    def test_real_matrix_same_as_its_complex_copy(self, n):
        rng = np.random.default_rng([n, 8])
        m = hermitized(ginibre_density(rng, n).mat).real
        bent = m.copy()
        bent[0, 1] += 0.01
        for mat in (m, bent, 1.25 * m, m - 0.5 * np.eye(2 ** n) / 2 ** n, ghz(n).mat):
            assert mat.dtype == np.float64
            assert density_diagnostics(mat) == density_diagnostics(mat.astype(complex))


class TestAnalyze:
    def test_ghz_exits_entangled(self, tmp_path, capsys):
        path = write_state(tmp_path, "ghz.json", ghz())
        assert main(["analyze", path]) == 2
        out = capsys.readouterr().out
        assert "ENTANGLED" in out
        assert "A,BC" in out

    def test_upb_exits_inconclusive(self, tmp_path, capsys):
        path = write_state(tmp_path, "upb.json", upb_state())
        assert main(["analyze", path]) == 0
        assert "INCONCLUSIVE" in capsys.readouterr().out

    def test_bad_trace_exits_error(self, tmp_path, capsys):
        bad = np.diag([0.5, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.4])
        path = tmp_path / "bad.json"
        path.write_text(dumps_matrix(bad, 3))
        assert main(["analyze", str(path)]) == 1
        err = capsys.readouterr().err
        assert "trace" in err
        assert "1.000e-01" in err  # measured magnitude

    def test_machine_format_round_trips(self, tmp_path, capsys):
        path = write_state(tmp_path, "ghz.json", ghz(), tol=1e-9)
        assert main(["analyze", path, "--format", "machine"]) == 2
        doc = json.loads(capsys.readouterr().out)
        assert doc["schema"] == 1
        assert doc["conclusion"] == "ENTANGLED"
        assert doc["culprit"] == "A,BC"
        assert doc["n_qubits"] == 3
        assert len(doc["reductions"]) == 6
        by_label = {r["label"]: r for r in doc["reductions"]}
        assert by_label["A,BC"]["min_pt_eigenvalue"] == pytest.approx(-0.5, abs=1e-12)
        assert by_label["A,B"]["separable"] is True
        # round trip: serializing the parsed doc reproduces the numbers
        again = json.loads(json.dumps(doc))
        assert again == doc

    def test_four_qubit_analyze(self, tmp_path, capsys):
        path = write_state(tmp_path, "ghz4.json", ghz(4))
        assert main(["analyze", path]) == 2
        out = capsys.readouterr().out
        assert "reductions: 25" in out

    def test_no_validate_warns_but_runs(self, tmp_path, capsys):
        bad = np.diag([0.5, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.4])
        path = tmp_path / "bad.json"
        path.write_text(dumps_matrix(bad, 3))
        code = main(["analyze", str(path), "--no-validate"])
        out = capsys.readouterr().out
        assert code in (0, 2)
        assert "WARNING" in out

    @pytest.mark.parametrize("n_qubits", [3, 4])
    def test_borderline_input_is_inconclusive(self, tmp_path, capsys, n_qubits):
        # used to exit 1: "reduction A,B: not positive semidefinite: min eigenvalue = -1.800e-09"
        path = tmp_path / "borderline.json"
        path.write_text(dumps_matrix(borderline_matrix(n_qubits), n_qubits, 1e-9))
        assert main(["analyze", str(path), "--format", "machine"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["conclusion"] == "INCONCLUSIVE"
        assert doc["validation"]["min_eigenvalue"] == pytest.approx(-9e-10)
        assert main(["analyze", str(path), "--no-validate"]) == 2  # threshold -tol
        assert "WARNING" in capsys.readouterr().out

    def test_one_input_eigensolve(self, tmp_path, capsys, monkeypatch):
        """The validation block and the input check share one eigensolve
        and one Hermitian part, and the witness needs none of its own: its
        only eigensolve is the PT spectra of the 25 reductions."""
        calls, parts = record_eigensolves(monkeypatch), record_hermitian_parts(monkeypatch)
        path = write_state(tmp_path, "ghz4.json", ghz(4))
        for extra in ([], ["--no-validate"]):
            calls.clear()
            parts.clear()
            assert main(["analyze", path, "--format", "machine", *extra]) == 2
            assert calls == [(16, 16), (25, 4, 4)]
            assert parts == [(16, 16)]  # the witness reads the H of the input pass
            assert json.loads(capsys.readouterr().out)["validation"] == density_diagnostics(ghz(4).mat)

    def test_stdin(self, tmp_path, capsys, monkeypatch):
        text = dumps_matrix(ghz().mat, 3)
        monkeypatch.setattr(
            "sys.stdin", io.TextIOWrapper(io.BytesIO(text.encode()), encoding="utf-8")
        )
        assert main(["analyze", "-"]) == 2


class TestErrorBranches:
    """Error branches a user reaches: exit 1, nothing on stdout, and the
    start of the message on stderr."""

    EMBED_USAGE = ("error: embed family needs --way 1..6 and --input RFILE, "
                   "e.g. entcheck make-state embed --way 1 --input bell.json\n")
    MOLECULE_USAGE = ("error: molecule family needs --p-ab, --p-ac and --p-bc summing to 1, "
                      "e.g. entcheck make-state molecule --p-ab 0.5 --p-ac 0.25 --p-bc 0.25\n")
    PRODUCT_USAGE = ('error: product family needs --a, --b and --c, each "c0,c1", '
                     'e.g. entcheck make-state product --a 1,0 --b 0.6,0.8 --c 1,0\n')

    def _fails(self, capsys, argv, start):
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(start), captured.err

    @pytest.mark.parametrize("no_validate", [False, True])
    @pytest.mark.parametrize("command", [["analyze"], ["reduce", "--label", "A,B"]])
    @pytest.mark.parametrize("name, state, checked", [
        ("mm2", maximally_mixed(2).mat, None),
        ("bad2", np.diag([1.5, 0.0, 0.0, -0.5]), "not positive semidefinite: min eigenvalue = -5.000e-01"),
        ("mm5", maximally_mixed(5).mat, None),
    ])
    def test_a_file_not_of_3_or_4_qubits(self, tmp_path, capsys, name, state, checked, command, no_validate):
        """The input is checked first, unless --no-validate; a state that
        passes, or is not checked, is then refused for its arity."""
        n = int(np.log2(len(state)))
        path = tmp_path / f"{name}.json"
        path.write_text(dumps_matrix(state, n))
        argv = [command[0], str(path), *command[1:]] + (["--no-validate"] if no_validate else [])
        message = checked if checked and not no_validate else \
            f"{command[0]} needs a 3- or 4-qubit state, got n_qubits={n}"
        assert main(argv) == 1
        assert capsys.readouterr() == ("", f"error: {message}\n")

    @pytest.mark.parametrize("given", [[], ["--way", "1"], ["--input", "IN"]])
    def test_embed_needs_way_and_input(self, tmp_path, capsys, given):
        path = write_state(tmp_path, "bell.json", DensityMatrix(bell_matrix(), 2))
        argv = ["make-state", "embed"] + [path if arg == "IN" else arg for arg in given]
        self._fails(capsys, argv, self.EMBED_USAGE)

    def test_embed_input_must_be_two_qubits(self, tmp_path, capsys):
        path = write_state(tmp_path, "mm3.json", maximally_mixed(3))
        self._fails(capsys, ["make-state", "embed", "--way", "1", "--input", path],
                    "error: --input must hold a 2-qubit matrix, got n_qubits=3\n")

    @pytest.mark.parametrize("missing", ["--p-ab", "--p-ac", "--p-bc"])
    def test_molecule_weight_missing(self, capsys, missing):
        weights = {"--p-ab": "0.5", "--p-ac": "0.25", "--p-bc": "0.25"}
        argv = ["make-state", "molecule"] + [x for k, v in weights.items() if k != missing for x in (k, v)]
        self._fails(capsys, argv, self.MOLECULE_USAGE)

    def test_molecule_nan_weight(self, capsys):
        # used to end in "error: matrix contains NaN or infinite entries", naming no weight
        self._fails(capsys, ["make-state", "molecule", "--p-ab", "nan", "--p-ac", "0", "--p-bc", "1"],
                    "error: weights must lie in [0, 1], got (nan, 0.0, 1.0)\n")

    @pytest.mark.parametrize("factors, start", [
        (["--a", "1,0", "--b", "1,0"], PRODUCT_USAGE),
        (["--a", "1", "--b", "1,0", "--c", "1,0"], "error: --a must be two comma-separated amplitudes, got '1'\n"),
        # the rest is complex()'s own message, which differs between Python versions
        (["--a", "x,y", "--b", "1,0", "--c", "1,0"], "error: --a: cannot parse amplitude: "),
    ])
    def test_product_factors(self, capsys, factors, start):
        self._fails(capsys, ["make-state", "product"] + factors, start)

    @pytest.mark.parametrize("doc, start", [
        ([1, 2], "error: matrix document must be a JSON object, got list\n"),
        ({"n_qubits": True, "re": [[1.0]]}, "error: 'n_qubits' must be a positive integer, got True\n"),
        ({"n_qubits": 0, "re": [[1.0]]}, "error: 'n_qubits' must be a positive integer, got 0\n"),
        # used to end in "Exceeds the limit (4300 digits) for integer string conversion", naming no field
        ({"n_qubits": 20000, "re": [[1.0]]},
         "error: 'n_qubits' must be at most 29, got 20000: numpy indexes no larger 2^n x 2^n matrix\n"),
        ({"n_qubits": 3}, "error: missing required field 're'\n"),
        ({"n_qubits": 1, "re": [["a", "b"], [0, 1]]}, "error: field 're' is not a numeric array: "),
        # I/8 with string diagonal entries used to be read as numbers: INCONCLUSIVE, exit 0
        ({"n_qubits": 3, "re": [[("0.125" if i == j else 0.0) for j in range(8)] for i in range(8)]},
         "error: field 're' is not a numeric array: row 0, column 0 holds \"0.125\"\n"),
        # ragged rows: the rest of the message is numpy's own, which differs between versions
        ({"n_qubits": 1, "re": [[1, 0], [0]]}, "error: field 're' is not a numeric array: "),
        ({"n_qubits": 1, "re": [[1, 0], [0, 0]], "im": [[0], [0, 0]]}, "error: field 'im' is not a numeric array: "),
    ])
    def test_analyze_bad_document(self, tmp_path, capsys, doc, start):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        self._fails(capsys, ["analyze", str(path)], start)

    @pytest.mark.parametrize("command", [["analyze", "IN"], ["reduce", "IN", "--label", "A,B"],
                                         ["make-state", "embed", "--way", "1", "--input", "IN"]])
    def test_json_nested_too_deeply(self, tmp_path, capsys, command):
        """Used to end in a RecursionError traceback from the JSON decoder."""
        path = tmp_path / "deep.json"
        path.write_text("[" * 100000 + "]" * 100000)
        assert main([str(path) if arg == "IN" else arg for arg in command]) == 1
        assert capsys.readouterr() == ("", "error: invalid JSON: arrays or objects nest too deeply to decode\n")

    def test_sweep_without_a_crossing(self, capsys):
        assert main(["sweep", "werner", "--stop", "0.3", "--steps", "5"]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert captured.out.endswith("\nthreshold: none found in the sweep range\n")


class TestTolerance:
    """--tol and a file's "tol" must be finite and > 0, on every subcommand."""

    NOT_PSD = np.diag([0.5, 0.5, 0.5, 0.0, 0.0, 0.0, 0.0, -0.5])

    def _usage_error(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        return captured.err

    @pytest.mark.parametrize("tol", ["-1", "0", "nan", "inf", "-inf"])
    def test_sweep_rejects(self, capsys, tol):
        # --tol -1 used to label the maximally mixed x = 0 row ENTANGLED and exit 0
        err = self._usage_error(capsys, ["sweep", "werner", f"--tol={tol}", "--steps", "5"])
        assert "argument --tol" in err
        assert "finite and > 0" in err

    @pytest.mark.parametrize("extra", [[], ["--no-validate"]])
    @pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
    def test_analyze_rejects(self, tmp_path, capsys, tol, extra):
        # nan passed the non-PSD file and printed an ENTANGLED row under INCONCLUSIVE;
        # inf accepted its eigenvalue -0.5; -1 reported "not Hermitian: 0.000e+00"
        path = tmp_path / "bad.json"
        path.write_text(dumps_matrix(self.NOT_PSD, 3))
        err = self._usage_error(capsys, ["analyze", str(path), "--tol", tol, *extra])
        assert "argument --tol" in err
        assert "Hermitian" not in err

    @pytest.mark.parametrize("argv", [["reduce", "-", "--label", "A,B"], ["make-state", "ghz"]])
    def test_other_subcommands_reject(self, capsys, argv):
        assert "argument --tol" in self._usage_error(capsys, argv + ["--tol", "-1"])

    @pytest.mark.parametrize("extra", [[], ["--no-validate"]])
    def test_file_tol_rejected(self, tmp_path, capsys, extra):
        path = tmp_path / "g.json"
        path.write_text(dumps_matrix(ghz().mat, 3).replace('"n_qubits"', '"tol": NaN, "n_qubits"'))
        assert main(["analyze", str(path), *extra]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "'tol' must be finite and > 0" in captured.err


class TestUsageErrors:
    """Exit 2 means ENTANGLED, so argparse's usage errors exit 1."""

    @pytest.mark.parametrize("argv", [
        [],
        ["analyze"],
        ["analyze", "x.json", "--tol", "abc"],
        ["frobnicate"],
        ["sweep", "werner", "--steps", "many"],
        ["reduce", "x.json"],
        ["analyze", "x.json", "--format", "xml"],
    ])
    def test_exit_1_with_usage_on_stderr(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage: entcheck")
        assert "error:" in captured.err

    @pytest.mark.parametrize("argv, message", [
        (["reduce", "x.json", "--label", "A,B", "--format", "human"], "unrecognized arguments: --format human"),
        (["make-state", "ghz", "--format", "machine"], "unrecognized arguments: --format machine"),
        (["make-state", "ghz", "--no-validate"], "unrecognized arguments: --no-validate"),
        (["sweep", "werner", "--no-validate"], "unrecognized arguments: --no-validate"),
        (["make-state", "ghz", "--x", "0.5", "--way", "3", "--p-ab", "2"],
         "make-state ghz does not read --x, --way, --p-ab"),
        (["make-state", "upb", "--n-qubits", "4", "--a", "1,0"], "make-state upb does not read --n-qubits, --a"),
        (["make-state", "werner", "--x", "0.5", "--n-qubits", "3"], "make-state werner does not read --n-qubits"),
        (["make-state", "product", "--a", "1,0", "--b", "1,0", "--c", "1,0", "--input", "r.json"],
         "make-state product does not read --input"),
    ])
    def test_flags_a_command_does_not_read_are_rejected(self, capsys, argv, message):
        """reduce and make-state write a matrix file whatever --format says;
        make-state always checks an embed input, and sweep every state.
        Each make-state family reads only its own flags, and another
        family's flag is refused even at that family's default."""
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage: entcheck")
        assert captured.err.endswith(f"entcheck: error: {message}\n")

    @pytest.mark.parametrize("argv", [["--help"], ["--version"], ["sweep", "--help"]])
    def test_help_and_version_exit_0(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        assert capsys.readouterr().out

    @pytest.mark.parametrize("command, note", [("analyze", " (reports carry a warning block)"), ("reduce", "")])
    def test_no_validate_help(self, capsys, monkeypatch, command, note):
        """reduce writes a plain matrix file, so its --no-validate help
        promises no warning block; analyze's report carries one."""
        monkeypatch.setenv("COLUMNS", "200")
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        rows = [line.split(None, 1) for line in capsys.readouterr().out.splitlines()]
        assert [row[1] for row in rows if row[:1] == ["--no-validate"]] == [
            "skip density-matrix validation of the input" + note]

    @pytest.mark.parametrize("command, text", [
        ("analyze", "tolerance for validation and PPT verdicts (default: file tol or 1e-09)"),
        ("reduce", "tolerance for validating the input, also written as the output's tol; "
                   "reduce makes no PPT verdict (default: file tol or 1e-09)"),
        ("make-state", 'only written into the output file\'s "tol" field; the state is built without it '
                       "(default: the state's own tol, 1e-09 unless embed's --input file sets one)"),
        ("sweep", "tolerance of each row's PPT verdict, ENTANGLED below -(tol + the state's negative mass); "
                  "every state is checked at 1e-09 and the threshold search reads signs only (default: 1e-09)"),
    ])
    def test_tol_help(self, capsys, monkeypatch, command, text):
        """Each subcommand says what it does with --tol: reduce makes no
        verdict, make-state only writes the value, and sweep checks every
        state at 1e-9 whatever the value."""
        monkeypatch.setenv("COLUMNS", "300")
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        rows = [line.split(None, 2) for line in capsys.readouterr().out.splitlines()]
        assert [row[2] for row in rows if row[:2] == ["--tol", "REAL"]] == [text]

    def test_parser_built_once_leaves_nothing_between_calls(self, tmp_path, capsys):
        argv = ["sweep", "werner", "--steps", "5", "--format", "machine"]
        assert main(argv + ["--tol", "1e-3"]) == 0
        assert json.loads(capsys.readouterr().out)["tolerance"] == 1e-3
        assert main(argv) == 0
        assert json.loads(capsys.readouterr().out)["tolerance"] == 1e-9
        path = write_state(tmp_path, "ghz.json", ghz())
        assert main(["analyze", path, "--no-validate", "--format", "machine"]) == 2
        assert json.loads(capsys.readouterr().out)["validated"] is False
        assert main(["analyze", path, "--format", "machine"]) == 2
        assert json.loads(capsys.readouterr().out)["validated"] is True

    def test_build_parser_returns_a_fresh_parser(self):
        assert build_parser() is not build_parser()


def test_python_m_runs_the_cli(tmp_path):
    """`python -m entcheck.cli` runs the CLI instead of only importing it."""
    path = write_state(tmp_path, "ghz.json", ghz())
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-m", "entcheck.cli", "analyze", path],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 2, proc.stderr
    assert "conclusion: ENTANGLED" in proc.stdout
    proc = subprocess.run([sys.executable, "-m", "entcheck.cli", "analyze"],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 1
    assert "usage:" in proc.stderr
    # the report written to a pipe is flushed whole before the process exits
    path = write_state(tmp_path, "werner.json", werner_embedded(0.2))
    proc = subprocess.run([sys.executable, "-m", "entcheck.cli", "analyze", path],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.endswith("\nconclusion: INCONCLUSIVE (all reductions PPT; "
                                "this does not certify separability)\n")


class TestReduce:
    def test_ghz_pair(self, tmp_path, capsys):
        path = write_state(tmp_path, "ghz.json", ghz())
        assert main(["reduce", path, "--label", "A,B"]) == 0
        mat, n, _ = loads_matrix(capsys.readouterr().out)
        assert n == 2
        assert np.allclose(mat, np.diag([0.5, 0, 0, 0.5]), atol=1e-15)

    def test_ghz_split_is_bell(self, tmp_path, capsys):
        path = write_state(tmp_path, "ghz.json", ghz())
        assert main(["reduce", path, "--label", "a,bc"]) == 0
        mat, _, _ = loads_matrix(capsys.readouterr().out)
        assert np.allclose(mat, bell_matrix(), atol=1e-15)

    def test_output_file(self, tmp_path):
        path = write_state(tmp_path, "mm.json", maximally_mixed(4))
        out = tmp_path / "red.json"
        assert main(["reduce", path, "--label", "AC,BD", "-o", str(out)]) == 0
        mat, n, _ = loads_matrix(out.read_text())
        assert n == 2
        assert np.allclose(mat, np.eye(4) / 4, atol=1e-15)

    def test_bad_label_lists_valid(self, tmp_path, capsys):
        path = write_state(tmp_path, "ghz.json", ghz())
        assert main(["reduce", path, "--label", "A,Q"]) == 1
        err = capsys.readouterr().err
        assert "valid labels" in err
        assert "C,AB" in err

    def test_input_eigensolve_only_when_validating(self, tmp_path, capsys, monkeypatch):
        calls = record_eigensolves(monkeypatch)
        path = write_state(tmp_path, "ghz.json", ghz())
        assert main(["reduce", path, "--label", "A,BC", "--no-validate"]) == 0
        assert calls == []
        unchecked = capsys.readouterr().out
        assert main(["reduce", path, "--label", "A,BC"]) == 0
        assert calls == [(8, 8)]
        assert capsys.readouterr().out == unchecked

    @pytest.mark.parametrize("command", [["analyze"], ["analyze", "--format", "machine"],
                                         ["reduce", "--label", "A,B"], ["reduce", "--label", "A,C"]])
    def test_overflowing_reduction_fails_closed_without_validation(self, tmp_path, capsys, command):
        """Unchecked, the A,B reduction of this file would sum 1e308 + 1e308:
        checked or not, the file is rejected at load, before any report."""
        mat = np.zeros((8, 8))
        mat[0, 0] = mat[1, 1] = 1e308
        path = tmp_path / "huge.json"
        path.write_text(dumps_matrix(mat, 3))
        for flags in ([], ["--no-validate"]):
            assert main([command[0], str(path), *command[1:], *flags]) == 1
            assert capsys.readouterr() == ("", f"error: {PAST_THE_BOUND_3Q}\n")

    @pytest.mark.parametrize("fmt", ["human", "machine"])
    def test_pt_spectrum_past_float64_fails_closed_without_validation(self, tmp_path, capsys, fmt):
        """Every reduction of this file would sum to a finite matrix, but the PT
        of its A,B block has the eigenvalue -2.4e308: the file is rejected at load."""
        mat = np.zeros((8, 8))
        mat[np.ix_([0, 2, 4, 6], [0, 2, 4, 6])] = -8e307
        mat[np.diag_indices(8)] = 0.0
        path = tmp_path / "huge.json"
        path.write_text(dumps_matrix(mat, 3))
        assert main(["analyze", str(path), "--format", fmt, "--no-validate"]) == 1
        message = PAST_THE_BOUND_3Q.replace("1e+308", "8e+307")
        assert capsys.readouterr() == ("", f"error: {message}\n")

    def test_no_validate_reduces_a_non_psd_file(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(dumps_matrix(TestTolerance.NOT_PSD, 3))
        assert main(["reduce", str(path), "--label", "A,B"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: not positive semidefinite: min eigenvalue = -5.000e-01\n"
        assert main(["reduce", str(path), "--label", "A,B", "--no-validate"]) == 0
        mat, n, _ = loads_matrix(capsys.readouterr().out)
        assert n == 2
        assert np.array_equal(mat, np.diag([1.0, 0.5, 0.0, -0.5]))


class TestMakeState:
    def test_ghz_round_trip(self, capsys):
        assert main(["make-state", "ghz"]) == 0
        mat, n, _ = loads_matrix(capsys.readouterr().out)
        assert n == 3
        assert np.array_equal(mat, ghz().mat)

    def test_werner_requires_x(self, capsys):
        assert main(["make-state", "werner"]) == 1
        assert "--x" in capsys.readouterr().err

    def test_werner_pipeline(self, tmp_path, capsys):
        assert main(["make-state", "werner", "--x", "0.5", "-o", str(tmp_path / "w.json")]) == 0
        assert main(["analyze", str(tmp_path / "w.json")]) == 2

    def test_werner_below_threshold(self, tmp_path, capsys):
        assert main(["make-state", "werner", "--x", "0.2", "-o", str(tmp_path / "w.json")]) == 0
        assert main(["analyze", str(tmp_path / "w.json")]) == 0

    def test_upb_pipeline(self, tmp_path, capsys):
        assert main(["make-state", "upb", "-o", str(tmp_path / "u.json")]) == 0
        assert main(["analyze", str(tmp_path / "u.json")]) == 0

    def test_molecule(self, tmp_path, capsys):
        args = ["make-state", "molecule", "--p-ab", "0.5", "--p-ac", "0.25", "--p-bc", "0.25"]
        assert main(args + ["-o", str(tmp_path / "m.json")]) == 0
        assert main(["analyze", str(tmp_path / "m.json")]) == 2

    def test_molecule_bad_params(self, capsys):
        args = ["make-state", "molecule", "--p-ab", "0.9", "--p-ac", "0.9", "--p-bc", "0.9"]
        assert main(args) == 1
        assert "sum to 1" in capsys.readouterr().err

    def test_product(self, capsys):
        args = ["make-state", "product", "--a", "1,0", "--b", "0.6,0.8", "--c", "1,0"]
        assert main(args) == 0
        mat, n, _ = loads_matrix(capsys.readouterr().out)
        assert n == 3
        assert np.trace(mat).real == pytest.approx(1.0)

    def test_embed(self, tmp_path, capsys):
        bell_path = tmp_path / "bell.json"
        bell_path.write_text(dumps_matrix(bell_matrix(), 2))
        args = ["make-state", "embed", "--way", "1", "--input", str(bell_path),
                "-o", str(tmp_path / "e.json")]
        assert main(args) == 0
        assert main(["analyze", str(tmp_path / "e.json")]) == 2

    def test_ghz4(self, capsys):
        assert main(["make-state", "ghz", "--n-qubits", "4"]) == 0
        mat, n, _ = loads_matrix(capsys.readouterr().out)
        assert n == 4
        assert np.array_equal(mat, ghz(4).mat)


class TestSweep:
    def test_werner_threshold(self, capsys):
        assert main(["sweep", "werner", "--steps", "101", "--format", "machine"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["kind"] == "sweep-report"
        assert len(doc["rows"]) == 101
        assert doc["threshold"] == pytest.approx(1 / 3, abs=1e-6)
        a, b = doc["bracket"]
        assert b - a <= 1e-6 + 1e-12

    def test_werner_no_threshold_below_onset(self, capsys):
        assert main(["sweep", "werner", "--stop", "0.3", "--steps", "31",
                     "--format", "machine"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["threshold"] is None
        assert all(r["conclusion"] == "INCONCLUSIVE" for r in doc["rows"])

    def test_molecule_path_always_entangled(self, capsys):
        assert main(["sweep", "molecule", "--start", "0.05", "--stop", "0.95",
                     "--steps", "10", "--format", "machine"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["threshold"] is None
        assert all(r["conclusion"] == "ENTANGLED" for r in doc["rows"])

    def test_bad_range(self, capsys):
        assert main(["sweep", "werner", "--start", "0.8", "--stop", "0.2"]) == 1
        assert main(["sweep", "werner", "--steps", "1"]) == 1

    def test_human_table(self, capsys):
        assert main(["sweep", "werner", "--steps", "5"]) == 0
        out = capsys.readouterr().out
        assert "threshold: 0.333333" in out

    MAKE = {"werner": werner_embedded, "molecule": lambda t: molecule_state(t, 0.0, 1.0 - t)}

    def _rows(self, capsys, argv):
        assert main(["sweep", *argv, "--format", "machine"]) == 0
        doc = json.loads(capsys.readouterr().out)
        return doc, [(r["parameter"], r["min_pt_eigenvalue"], r["conclusion"]) for r in doc["rows"]]

    @pytest.mark.parametrize("family", ["werner", "molecule"])
    def test_rows_independent_of_ppt_tol(self, capsys, family):
        """--tol sets the PPT threshold only; each grid state is checked at
        its own tolerance, so a --tol below roundoff (1e-17) must not turn
        a 1e-16 trace error into a failure.  Every row is its state's
        lone witness result, conclusion included."""
        make = self.MAKE[family]
        _, base = self._rows(capsys, [family])
        for tol in (1e-17, 1e-9, 1e-3):
            doc, rows = self._rows(capsys, [family, "--tol", repr(tol)])
            assert doc["tolerance"] == tol
            assert [r[:2] for r in rows] == [r[:2] for r in base]
            for t, v, conclusion in rows:
                report = witness(make(t), tol)
                assert v == report.min_pt_eigenvalue
                assert conclusion == report.conclusion

    @staticmethod
    def _search(min_pt, lo, hi, steps):
        """Threshold, bracket and the midpoints visited by a plain sequential
        search: one ``min_pt`` call per grid point, at the bracket's upper
        end and at every midpoint."""
        params = [float(t) for t in np.linspace(lo, hi, steps)]
        values = [min_pt(t) for t in params]
        for i in range(steps - 1):
            if (values[i] < 0.0) != (values[i + 1] < 0.0):
                break
        else:
            return None, None, []
        a, b = params[i], params[i + 1]
        neg_b = min_pt(b) < 0.0
        visited = []
        while b - a > 1e-6:
            mid = (a + b) / 2.0
            visited.append(mid)
            if (min_pt(mid) < 0.0) == neg_b:
                b = mid
            else:
                a = mid
        return (a + b) / 2.0, [a, b], visited

    @classmethod
    def _reference(cls, family, lo, hi, steps, tol=1e-9):
        """Threshold and bracket of the sequential search on lone witness calls."""
        make = cls.MAKE[family]
        threshold, bracket, _ = cls._search(
            lambda t: witness(make(t), tol).min_pt_eigenvalue, lo, hi, steps)
        return threshold, bracket

    @pytest.mark.parametrize("family, lo, hi, steps", [
        ("werner", 0.0, 1.0, 101),
        ("werner", 0.0, 1.0, 2),
        ("werner", 0.3, 0.34, 3),
        ("werner", 0.2, 0.9, 17),
        ("werner", 0.0, 1 / 3, 4),
        ("werner", 0.05, 0.6, 88),
        ("werner", 0.3333, 0.33345, 101),  # grid spacing 1.5e-6: a single bisection step
        ("werner", 0.3333, 0.33335, 101),  # grid spacing 5e-7 is below 1e-6: no step at all
        ("molecule", 0.0, 1.0, 101),
        ("molecule", 0.1, 0.7, 9),
    ])
    def test_bisection_matches_sequential_reference(self, capsys, family, lo, hi, steps):
        doc, _ = self._rows(capsys, [family, "--start", repr(lo), "--stop", repr(hi),
                                     "--steps", str(steps)])
        threshold, bracket = self._reference(family, lo, hi, steps)
        assert doc["threshold"] == threshold
        assert doc["bracket"] == bracket
        if family == "werner":
            assert threshold == pytest.approx(1 / 3, abs=1e-6)

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(st.sampled_from(["werner", "molecule"]),
           st.floats(0.0, 1.0), st.floats(0.0, 1.0), st.integers(2, 120))
    def test_bisection_matches_sequential_reference_anywhere(self, family, x, y, steps):
        assume(x != y)
        lo, hi = min(x, y), max(x, y)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(["sweep", family, "--start", repr(lo), "--stop", repr(hi),
                         "--steps", str(steps), "--format", "machine"]) == 0
        doc = json.loads(out.getvalue())
        threshold, bracket = self._reference(family, lo, hi, steps)
        assert doc["threshold"] == threshold
        assert doc["bracket"] == bracket

    @pytest.mark.parametrize("steps, broken", [
        (101, lambda t: t == 1.0),       # the last grid state
        (2, lambda t: 0.0 < t < 1.0),    # every bisection state, none on the grid
    ])
    def test_every_state_is_checked(self, capsys, monkeypatch, steps, broken):
        """A family state that is not PSD (trace and Hermiticity intact)
        fails the sweep with the input check's message, on the grid and in
        the bisection alike."""
        shift = np.zeros((8, 8))
        shift[0, 0], shift[7, 7] = -0.5, 0.5
        monkeypatch.setattr(cli, "_sweep_family", lambda family: lambda ts: (
            _werner_stack(ts) + np.array([broken(t) for t in ts])[:, None, None] * shift))
        assert main(["sweep", "werner", "--steps", str(steps)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: not positive semidefinite: min eigenvalue = -")

    @staticmethod
    def _count_kernel_calls(monkeypatch) -> list[int]:
        """The stack size of every ``separability._pt_minima`` call from now
        on, where the sweep looks its kernel up.  ``witness`` calls it too, so
        a test computes its reference values first."""
        calls = []
        kernel = separability._pt_minima
        monkeypatch.setattr(separability, "_pt_minima", lambda mats, n: calls.append(len(mats)) or kernel(mats, n))
        return calls

    def test_werner_sweep_makes_two_kernel_calls(self, capsys, monkeypatch):
        """The werner min PT eigenvalue is linear across the crossing cell, so
        the secant predicts the whole halving path: one grid call, then one
        call holding exactly the sequential search's midpoints."""
        _, bracket, visited = self._search(
            lambda t: witness(werner_embedded(t), 1e-9).min_pt_eigenvalue, 0.0, 1.0, 101)
        calls = self._count_kernel_calls(monkeypatch)
        doc, _ = self._rows(capsys, ["werner", "--steps", "101"])
        assert doc["bracket"] == bracket
        assert calls == [101, len(visited)]

    def test_werner_sweep_solves_in_real_arithmetic(self, capsys, monkeypatch):
        """The grid and bisection stacks are float64 from the constructor on:
        every eigensolve, of the input check and of the kernel, is real."""
        calls = record_eigensolves(monkeypatch, dtypes=True)
        self._rows(capsys, ["werner", "--steps", "101"])
        assert [shape[1:] for shape, _ in calls] == [(8, 8), (6, 4, 4)] * 2
        assert {dtype for _, dtype in calls} == {np.dtype(np.float64)}

    # werner reparametrised by non-linear maps of [0, 1] onto itself: the
    # secant prediction misses, the bracket must not move
    REPARAM = {
        "square": lambda t: t * t,
        "sqrt": math.sqrt,
        "cos": lambda t: 0.5 - 0.5 * math.cos(math.pi * t),
    }

    def _reparam_family(self, g):
        def min_pt(t):
            return witness(werner_embedded(g(t)), 1e-9).min_pt_eigenvalue
        return (lambda ts: _werner_stack(np.array([g(float(t)) for t in ts]))), min_pt

    @pytest.mark.parametrize("steps", [2, 5, 101])
    @pytest.mark.parametrize("name", list(REPARAM))
    def test_nonlinear_family_matches_sequential_reference(self, capsys, monkeypatch, name, steps):
        build, min_pt = self._reparam_family(self.REPARAM[name])
        monkeypatch.setattr(cli, "_sweep_family", lambda family: build)
        threshold, bracket, visited = self._search(min_pt, 0.0, 1.0, steps)
        calls = self._count_kernel_calls(monkeypatch)
        doc, _ = self._rows(capsys, ["werner", "--steps", str(steps)])
        assert doc["threshold"] == threshold
        assert doc["bracket"] == bracket
        assert 1 <= len(calls) - 1 < len(visited)  # bisection calls, after the one grid call

    def test_states_off_the_final_path_are_checked(self, capsys, monkeypatch):
        """A predicted state that the final bracket never uses is still built
        and checked: if it is not PSD, the sweep fails."""
        build, min_pt = self._reparam_family(self.REPARAM["square"])
        _, _, visited = self._search(min_pt, 0.0, 1.0, 5)
        used = set(np.linspace(0.0, 1.0, 5).tolist()) | set(visited)
        shift = np.zeros((8, 8))
        shift[0, 0], shift[7, 7] = -0.5, 0.5
        monkeypatch.setattr(cli, "_sweep_family", lambda family: lambda ts: (
            build(ts) + np.array([float(t) not in used for t in ts])[:, None, None] * shift))
        assert main(["sweep", "werner", "--steps", "5"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: not positive semidefinite: min eigenvalue = -")

    def test_grid_longer_than_one_chunk(self, capsys):
        _, rows = self._rows(capsys, ["werner", "--steps", "600"])
        assert len(rows) == 600
        assert [v for _, v, _ in rows] == [
            witness(werner_embedded(t), 1e-9).min_pt_eigenvalue for t, _, _ in rows
        ]

    def test_every_kernel_call_is_chunked(self, capsys, monkeypatch):
        """The bisection path is chunked like the grid, and chunking moves no
        value: the document is the one a single chunk gives."""
        argv = ["sweep", "werner", "--steps", "101", "--format", "machine"]
        assert main(argv) == 0
        whole = capsys.readouterr().out
        _, _, visited = self._search(lambda t: witness(werner_embedded(t), 1e-9).min_pt_eigenvalue, 0.0, 1.0, 101)
        monkeypatch.setattr(cli, "_SWEEP_CHUNK", 8)
        calls = self._count_kernel_calls(monkeypatch)
        assert main(argv) == 0
        assert capsys.readouterr().out == whole
        assert calls == [min(8, n - start) for n in (101, len(visited)) for start in range(0, n, 8)]


@pytest.mark.parametrize("name", ["witness_tripartite", "werner_embedded", "molecule_state"])
def test_cli_keeps_the_names_the_benchmark_wraps(name):
    """bench/inproc.py traces a sweep by replacing these names on the cli
    module, which imports no package module at its top: its module
    ``__getattr__`` serves them."""
    assert getattr(cli, name) is getattr(entcheck, name)
