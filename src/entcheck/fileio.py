"""Matrix file format and analysis report documents.

A matrix file is a single JSON object with real and imaginary parts
stored separately, which keeps the format free of complex-literal
parsing ambiguity:

    {"schema": 1, "n_qubits": 3, "re": [[...]], "im": [[...]], "tol": 1e-9}

"im" may be omitted for real matrices; "tol" is optional and records the
validation tolerance the producer used, a finite number > 0.  Floats
are serialized as shortest round-trip decimals, so parsing an emitted
document reproduces every numeric field exactly.

Matrix files and ``--format machine`` reports are exactly
``json.dumps(doc, indent=1)``, written by ``_dumps_document`` without the
stdlib's pure-Python indent encoder.
"""

from __future__ import annotations

import json
import sys
from json.encoder import encode_basestring_ascii as _quote
from typing import TYPE_CHECKING

import numpy as np

from .linalg import (BadToleranceError, NonFiniteError, _check_magnitude, _dimension, _matrix_deviations, _numbers,
                     _qubit_matrix, check_tolerance)

if TYPE_CHECKING:  # an annotation only: `reduce` writes files and loads no PPT code
    from .separability import WitnessReport

__all__ = [
    "SCHEMA_VERSION",
    "ParseError",
    "dumps_matrix",
    "loads_matrix",
    "density_diagnostics",
    "witness_document",
    "render_witness_human",
    "sweep_document",
    "render_sweep_human",
]

SCHEMA_VERSION = 1


class ParseError(ValueError):
    """Matrix file is malformed; the message states where."""


def dumps_matrix(mat, n_qubits: int, tol: float | None = None) -> str:
    """A matrix as a document in the re/im file format that :func:`loads_matrix`
    reads back: 2^n x 2^n finite numbers (:func:`~entcheck.linalg._qubit_matrix`),
    n >= 1, and a ``tol`` that :func:`~entcheck.linalg.check_tolerance` passes."""
    m = _qubit_matrix(mat, n_qubits)
    if len(m) < 2:
        raise ValueError(f"n_qubits must be >= 1, got {n_qubits}")
    if not np.isfinite(m).all():
        raise NonFiniteError("mat contains NaN or infinite entries")
    if tol is not None:
        check_tolerance(tol, "dumps_matrix tol")
    doc = {
        "schema": SCHEMA_VERSION,
        "n_qubits": int(n_qubits),
        "re": m.real.tolist(),
        "im": m.imag.tolist(),
    }
    if tol is not None:
        doc["tol"] = float(tol)
    return _dumps_document(doc)


_LEAF_TYPES = frozenset({str, int, float, bool, type(None)})
# the stdlib's C encoder, one item per line; splitting on "\n" is safe, as it escapes "\n" in strings
_encode_lines = json.JSONEncoder(separators=("\n", ": ")).encode


def _table(items, nl: str, leaves: list) -> list[str] | None:
    """The item layouts of a list of scalars, or of flat dicts with one key
    order, whose scalars go to ``leaves``; None for any other list."""
    first = items[0]
    row_leaves = items
    if isinstance(first, dict):
        keys = tuple(first)
        row_leaves = [v for row in items if isinstance(row, dict) and tuple(row) == keys for v in row.values()]
        if not keys or len(row_leaves) != len(items) * len(keys):
            return None
    if not _LEAF_TYPES.issuperset(map(type, row_leaves)):
        return None
    leaves += row_leaves
    return [_layout(first, nl, [])] * len(items)


def _layout(value, nl: str, leaves: list) -> str:
    """``value`` as ``json.dumps(value, indent=1)`` writes it on a line that
    starts with ``nl`` (a newline and the indent), as a %-format with "%s"
    for each scalar; the scalars go to ``leaves`` in order."""
    if not isinstance(value, (dict, list, tuple)):
        leaves.append(value)
        return "%s"
    if not value:
        return "{}" if isinstance(value, dict) else "[]"
    inner = nl + " "
    if isinstance(value, dict):
        items = [_quote(k).replace("%", "%%") + ": " + _layout(v, inner, leaves) for k, v in value.items()]
        return "{" + inner + ("," + inner).join(items) + nl + "}"
    items = _table(value, inner, leaves) or [_layout(v, inner, leaves) for v in value]
    return "[" + inner + ("," + inner).join(items) + nl + "]"


def _dumps_document(doc) -> str:
    """``json.dumps(doc, indent=1)``, byte for byte, for dicts with str keys,
    lists, tuples and scalars; any other key or value raises TypeError.
    All scalars go through the C encoder in one call."""
    leaves = []
    layout = _layout(doc, "\n", leaves)
    return layout % tuple(_encode_lines(leaves)[1:-1].split("\n") if leaves else ())


def _as_real_array(rows, name: str, dim: int, literals: bool) -> np.ndarray:
    """``rows`` as a (dim, dim) float64 array of finite numbers.  numpy gives
    rows holding a string or null a dtype of no number; only then, or when
    the text may hold a true or false (``literals``), are the entries read
    one by one."""
    try:
        arr = np.asarray(rows)
    except (TypeError, ValueError) as exc:
        raise ParseError(f"field {name!r} is not a numeric array: {exc}") from exc
    if arr.shape != (dim, dim):
        raise ParseError(f"field {name!r} has shape {arr.shape}, expected ({dim}, {dim})")
    if literals or arr.dtype.kind not in "fiu":
        for r, row in enumerate(rows):
            for c, x in enumerate(row):
                if isinstance(x, bool) or not isinstance(x, (int, float)):
                    raise ParseError(f"field {name!r} is not a numeric array: "
                                     f"row {r}, column {c} holds {json.dumps(x)}")
    try:
        arr = arr.astype(float, copy=False)
    except OverflowError as exc:  # an integer beyond float64
        raise ParseError(f"field {name!r} is not a numeric array: {exc}") from exc
    if not np.isfinite(arr).all():
        bad = np.argwhere(~np.isfinite(arr))[0]
        raise ParseError(f"field {name!r} has a non-finite entry at row {bad[0]}, column {bad[1]}")
    return arr


def loads_matrix(text: str) -> tuple[np.ndarray, int, float | None]:
    """Parse and check a matrix file; returns (matrix, n_qubits, tol-or-None),
    the matrix in float64 when ``im`` is absent or all zero."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    except ValueError:  # json's own limit on the digits of an integer literal
        raise ParseError("a number literal is too long: an integer has more than "
                         f"{sys.get_int_max_str_digits()} digits") from None
    except RecursionError:  # the decoder recurses once per level of nesting
        raise ParseError("invalid JSON: arrays or objects nest too deeply to decode") from None
    if not isinstance(doc, dict):
        raise ParseError(f"matrix document must be a JSON object, got {type(doc).__name__}")
    if "n_qubits" not in doc:
        raise ParseError("missing required field 'n_qubits'")
    n = doc["n_qubits"]
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise ParseError(f"'n_qubits' must be a positive integer, got {n!r}")
    try:
        dim = _dimension(n, "'n_qubits'")
    except ValueError as exc:
        raise ParseError(str(exc)) from None
    if "re" not in doc:
        raise ParseError("missing required field 're'")
    # numpy reads true and false as numbers, so the entries are read one by one when the
    # text may hold either: when it has an "f", or a "u" besides the one of "n_qubits"
    # (two memchr scans, under 1 µs; searching for the words takes 6 µs on a 3q file)
    literals = "f" in text or text.find("u", text.find("u") + 1) >= 0
    re = _as_real_array(doc["re"], "re", dim, literals)
    im = _as_real_array(doc["im"], "im", dim, literals) if "im" in doc else np.zeros((dim, dim))
    tol = doc.get("tol")
    if tol is not None:
        if not isinstance(tol, (int, float)):
            raise ParseError(f"'tol' must be a number, got {tol!r}")
        try:
            check_tolerance(tol, "'tol'")
        except BadToleranceError as exc:
            raise ParseError(str(exc)) from None
    # with no nonzero im, the real part of re + 1j * im: a -0.0 in re stays only where im is -0.0
    mat = re + 1j * im if im.any() else re + 0.0 * im
    return mat, n, None if tol is None else float(tol)


def density_diagnostics(mat) -> dict:
    """Measured deviations from the density-matrix invariants of a nonempty
    square matrix of numbers (:func:`~entcheck.linalg._numbers`); a real one
    is measured in float64, with the same values as in complex128, and one
    past the magnitude bound of :class:`~entcheck.linalg.DensityMatrix`
    raises its NonFiniteError."""
    m = _numbers(mat, "mat")
    if not m.size:
        raise ValueError("mat must have at least one entry, got shape (0, 0)")
    _check_magnitude(m, "mat")
    return _diagnostics(_matrix_deviations(m)[0])


def _diagnostics(deviations) -> dict:
    """The diagnostics of one matrix from its ``_matrix_deviations``."""
    herm, trace, min_eig, _ = deviations
    return {"hermiticity_deviation": herm, "trace_deviation": trace, "min_eigenvalue": min_eig}


def witness_document(report: WitnessReport, *, n_qubits: int, tolerance: float,
                     source: str, digest: str, validated: bool,
                     diagnostics: dict, version: str) -> dict:
    """Machine-readable witness report; all numeric fields round-trip."""
    return {
        "schema": SCHEMA_VERSION,
        "tool": "entcheck",
        "version": version,
        "kind": "witness-report",
        "source": source,
        "sha256": digest,
        "n_qubits": n_qubits,
        "tolerance": tolerance,
        "validated": validated,
        "validation": diagnostics,
        "reductions": [
            {
                "label": v.label.text,
                "kind": v.label.kind.value,
                "min_pt_eigenvalue": v.min_pt_eigenvalue,
                "separable": v.separable,
            }
            for v in report.verdicts
        ],
        "conclusion": report.conclusion,
        "culprit": None if report.culprit is None else report.culprit.text,
    }


def render_witness_human(doc: dict) -> str:
    lines = [
        f"entcheck {doc['version']} - reduction witness report",
        f"input: {doc['source']} (sha256 {doc['sha256'][:16]}...)",
        f"qubits: {doc['n_qubits']}   tolerance: {doc['tolerance']:g}   reductions: {len(doc['reductions'])}",
        "validation: hermiticity dev {hermiticity_deviation:.2e}, trace dev {trace_deviation:.2e}, "
        "min eigenvalue {min_eigenvalue:+.2e}".format(**doc["validation"]),
    ]
    if not doc["validated"]:
        lines += [
            "",
            "*** WARNING: input validation was skipped (--no-validate). ***",
            "*** Verdicts below are meaningless if the input is not a   ***",
            "*** genuine density matrix.                                ***",
        ]
    lines += [
        "",
        f"{'label':<8} {'kind':<14} {'min PT eigenvalue':>20}   verdict",
    ]
    for row in doc["reductions"]:
        verdict = "separable" if row["separable"] else "ENTANGLED"
        lines.append(
            f"{row['label']:<8} {row['kind']:<14} {row['min_pt_eigenvalue']:>+20.12e}   {verdict}"
        )
    lines.append("")
    if doc["conclusion"] == "ENTANGLED":
        lines.append(f"conclusion: ENTANGLED (worst reduction: {doc['culprit']})")
    else:
        lines.append("conclusion: INCONCLUSIVE (all reductions PPT; this does not certify separability)")
    return "\n".join(lines)


def sweep_document(family: str, rows: list[tuple[float, float, str]],
                   threshold: float | None, bracket: tuple[float, float] | None,
                   tolerance: float, version: str) -> dict:
    return {
        "schema": SCHEMA_VERSION,
        "tool": "entcheck",
        "version": version,
        "kind": "sweep-report",
        "family": family,
        "tolerance": tolerance,
        "rows": [
            {"parameter": p, "min_pt_eigenvalue": e, "conclusion": c}
            for p, e, c in rows
        ],
        "threshold": threshold,
        "bracket": None if bracket is None else list(bracket),
    }


def render_sweep_human(doc: dict) -> str:
    lines = [
        f"entcheck {doc['version']} - parameter sweep ({doc['family']} family)",
        f"tolerance: {doc['tolerance']:g}",
        "",
        f"{'parameter':>12} {'min PT eigenvalue':>20}   conclusion",
    ]
    for row in doc["rows"]:
        lines.append(
            f"{row['parameter']:>12.6f} {row['min_pt_eigenvalue']:>+20.12e}   {row['conclusion']}"
        )
    lines.append("")
    if doc["threshold"] is None:
        lines.append("threshold: none found in the sweep range")
    else:
        a, b = doc["bracket"]
        lines.append(f"threshold: {doc['threshold']:.6f} (bisection bracket [{a:.7f}, {b:.7f}])")
    return "\n".join(lines)
