"""Read the program's outputs back and compare them with the reference.

Each check returns a list of mismatches, empty when the output agrees.
Parsing failures count as mismatches too.
"""

from __future__ import annotations

import json
import re

import numpy as np

import reference

ROW = re.compile(r"^(\S+)\s+\S+\s+([+-]\d\.\d+e[+-]\d+)\s+(separable|ENTANGLED)$")
_CULPRIT = re.compile(r"^conclusion: ENTANGLED \(worst reduction: ([^)]+)\)$")

BISECT_TOL = 1e-6   # the sweep bisects the threshold to this width
REDUCE_TOL = 1e-12  # `entcheck reduce` output against the reference map


def parse_report(text: str, fmt: str):
    """(rows, conclusion, culprit) from an analyze report in either format."""
    if fmt == "machine":
        doc = json.loads(text)
        rows = [(r["label"], float(r["min_pt_eigenvalue"]), bool(r["separable"]))
                for r in doc["reductions"]]
        return rows, doc["conclusion"], doc["culprit"]
    rows, conclusion, culprit = [], None, None
    for line in text.splitlines():
        m = ROW.match(line)
        if m:
            rows.append((m[1], float(m[2]), m[3] == "separable"))
        elif line.startswith("conclusion: INCONCLUSIVE"):
            conclusion = "INCONCLUSIVE"
        elif (m := _CULPRIT.match(line)) is not None:
            conclusion, culprit = "ENTANGLED", m[1]
    return rows, conclusion, culprit


def check_analyze(exp: reference.Expected, text: str, fmt: str, code: int) -> list[str]:
    try:
        rows, conclusion, culprit = parse_report(text, fmt)
    except (ValueError, KeyError, TypeError) as exc:
        return [f"unreadable {fmt} report: {exc!r}"]
    return reference.check_report(exp, rows, conclusion, culprit, code)


class SweepExpected:
    """Reference rows and threshold rule for one sweep request."""

    def __init__(self, family: str, params: np.ndarray, min_eigs: np.ndarray, tol: float):
        self.family = family
        self.params = params
        self.values = min_eigs
        self.tol = tol
        signs = min_eigs < 0.0
        self.has_threshold = bool(signs.any() and not signs.all())


def check_sweep(exp: SweepExpected, text: str, code: int) -> list[str]:
    try:
        doc = json.loads(text)
        rows = doc["rows"]
        threshold = doc["threshold"]
    except (ValueError, KeyError, TypeError) as exc:
        return [f"unreadable sweep report: {exc!r}"]
    problems = []
    if code != 0:
        problems.append(f"exit code {code} != 0")
    if len(rows) != len(exp.params):
        return problems + [f"{len(rows)} rows != {len(exp.params)} steps"]
    for row, t, ref in zip(rows, exp.params, exp.values):
        want = "ENTANGLED" if ref < -exp.tol else "INCONCLUSIVE"
        if row["parameter"] != float(t):
            problems.append(f"parameter {row['parameter']!r} != grid {float(t)!r}")
        elif row["conclusion"] != want:
            problems.append(f"t={t:.6f}: {row['conclusion']} != reference {want} ({ref:.3e})")
        elif abs(row["min_pt_eigenvalue"] - ref) > reference.VALUE_TOL:
            problems.append(f"t={t:.6f}: min PT eigenvalue {row['min_pt_eigenvalue']:.12e} != {ref:.12e}")
    if exp.family == "werner":
        if threshold is None or abs(threshold - 1.0 / 3.0) > BISECT_TOL:
            problems.append(f"werner threshold {threshold!r} not within {BISECT_TOL} of 1/3")
    elif not exp.has_threshold and threshold is not None:
        problems.append(f"threshold {threshold!r} where the reference grid never changes sign")
    elif exp.has_threshold and threshold is None:
        problems.append("no threshold where the reference grid changes sign")
    return problems


def check_reduce(want: np.ndarray, text: str, code: int) -> list[str]:
    try:
        doc = json.loads(text)
        got = np.asarray(doc["re"], dtype=float) + 1j * np.asarray(doc["im"], dtype=float)
        n_qubits = doc["n_qubits"]
    except (ValueError, KeyError, TypeError) as exc:
        return [f"unreadable reduce output: {exc!r}"]
    problems = []
    if code != 0:
        problems.append(f"exit code {code} != 0")
    if n_qubits != 2 or got.shape != (4, 4):
        return problems + [f"reduce output has n_qubits={n_qubits}, shape {got.shape}"]
    err = float(np.max(np.abs(got - want)))
    if err > REDUCE_TOL:
        problems.append(f"reduction differs from the reference by {err:.3e}")
    return problems
