"""In-process ops: the analyze pipeline and the sweep command.

Importing this module imports the program under test, so the set-up
probe pays that cost the way a user's first call does.  The traced
variants make the same calls with a span around each one, then time the
witness's parts from outside by calling the layer functions again on the
same state.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
from time import perf_counter

import numpy as np

from entcheck import __version__, cli, reductions
from entcheck.fileio import (
    density_diagnostics,
    dumps_matrix,
    loads_matrix,
    render_witness_human,
    witness_document,
)
from entcheck.linalg import DEFAULT_TOL, hermitian_eigenvalues_stack, validate_density
from entcheck.reductions import apply_reduction, parse_label
from entcheck.separability import partial_transpose, witness

SOURCE = "<bench>"


def analyze(raw: bytes, fmt: str) -> tuple[str, int]:
    """What `entcheck analyze FILE --format FMT` does once FILE is read."""
    digest = hashlib.sha256(raw).hexdigest()
    mat, n, file_tol = loads_matrix(raw.decode("utf-8"))
    tol = DEFAULT_TOL if file_tol is None else file_tol
    diagnostics = density_diagnostics(mat)
    dm = validate_density(mat, n, tol)
    report = witness(dm, tol, validate_reductions=True)
    doc = witness_document(report, n_qubits=n, tolerance=tol, source=SOURCE, digest=digest,
                           validated=True, diagnostics=diagnostics, version=__version__)
    text = json.dumps(doc, indent=1) if fmt == "machine" else render_witness_human(doc)
    return text, 2 if report.entangled else 0


def analyze_traced(raw: bytes, fmt: str, rec, op: int, root_name: str = "op") -> tuple[str, int]:
    root = rec.open(root_name, None, op)
    digest = hashlib.sha256(raw).hexdigest()
    s = rec.open("fileio.parse", root, op)
    mat, n, file_tol = loads_matrix(raw.decode("utf-8"))
    rec.close(s)
    tol = DEFAULT_TOL if file_tol is None else file_tol
    s = rec.open("fileio.diagnostics", root, op)
    diagnostics = density_diagnostics(mat)
    rec.close(s)
    s = rec.open("linalg.validate", root, op)
    dm = validate_density(mat, n, tol)
    rec.close(s)
    s = rec.open("separability.witness", root, op)
    report = witness(dm, tol, validate_reductions=True)
    rec.close(s)
    s = rec.open("fileio.report", root, op)
    doc = witness_document(report, n_qubits=n, tolerance=tol, source=SOURCE, digest=digest,
                           validated=True, diagnostics=diagnostics, version=__version__)
    text = json.dumps(doc, indent=1) if fmt == "machine" else render_witness_human(doc)
    rec.close(s)
    rec.close(root)
    decompose_witness(dm, rec, op)
    return text, 2 if report.entangled else 0


def _reduce_all(dm, validate: bool):
    fn = reductions.reduce_all_tripartite if dm.n_qubits == 3 else reductions.reduce_all_quadripartite
    return fn(dm, validate=validate)


def decompose_witness(dm, rec, op: int) -> None:
    """Time the witness's layers from outside, on the state it was given.

    reductions.reduce is the full set without re-validation; the
    validated set minus it is the re-validation; pt_eig is the partial
    transposes plus the stacked eigensolve.
    """
    root = rec.open("decompose", None, op)
    s = rec.open("reductions.reduce", root, op)
    entries = _reduce_all(dm, validate=False)
    rec.close(s)
    rec.count(op, "reductions.matrices", len(entries))
    s = rec.open("reductions.reduce_validated", root, op)
    _reduce_all(dm, validate=True)
    rec.close(s)
    s = rec.open("separability.pt_eig", root, op)
    hermitian_eigenvalues_stack(np.stack([partial_transpose(e.mat, "Y") for e in entries.values()]))
    rec.close(s)
    rec.close(root)


def command(argv: list[str], stdin: bytes | None = None) -> tuple[str, int]:
    """cli.main in this process, with stdout captured and stdin optionally replaced."""
    saved = sys.stdin
    if stdin is not None:
        sys.stdin = io.TextIOWrapper(io.BytesIO(stdin), encoding="utf-8")
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
    finally:
        sys.stdin = saved
    return buf.getvalue(), code


def sweep_argv(spec) -> list[str]:
    family, start, stop, steps = spec
    return ["sweep", family, "--start", repr(start), "--stop", repr(stop),
            "--steps", str(steps), "--format", "machine"]


def sweep(spec) -> tuple[str, int]:
    return command(sweep_argv(spec))


# cli module names the sweep resolves at call time, and the layer each belongs to
SWEEP_CALLS = {
    "witness_tripartite": "separability.witness",
    "werner_embedded": "states.construct",
    "molecule_state": "states.construct",
}


def _spanned(fn, name: str, rec, parent: int, op: int, seen: list | None):
    def wrapper(*args, **kwargs):
        start = perf_counter()
        result = fn(*args, **kwargs)
        rec.add(name, start, perf_counter(), parent, op)
        if seen is not None:
            seen.append(args[0])
        return result
    return wrapper


def sweep_traced(spec, rec, op: int) -> tuple[str, int]:
    """The sweep with a span around each state construction and witness call.

    The spans come from wrappers put in place of the cli module's names
    for the duration of the op; each witnessed state is then decomposed.
    """
    root = rec.open("op", None, op)
    evaluated: list = []
    saved = {name: getattr(cli, name) for name in SWEEP_CALLS}
    for name, layer in SWEEP_CALLS.items():
        seen = evaluated if layer == "separability.witness" else None
        setattr(cli, name, _spanned(saved[name], layer, rec, root, op, seen))
    try:
        text, code = sweep(spec)
    finally:
        for name, fn in saved.items():
            setattr(cli, name, fn)
    rec.close(root)
    for dm in evaluated:
        decompose_witness(dm, rec, op)
    return text, code


def reduce_traced(raw: bytes, label: str, rec, op: int) -> None:
    """The layers of `entcheck reduce FILE --label L` once FILE is read."""
    root = rec.open("inprocess", None, op)
    s = rec.open("fileio.parse", root, op)
    mat, n, file_tol = loads_matrix(raw.decode("utf-8"))
    rec.close(s)
    tol = DEFAULT_TOL if file_tol is None else file_tol
    s = rec.open("fileio.diagnostics", root, op)
    density_diagnostics(mat)
    rec.close(s)
    s = rec.open("linalg.validate", root, op)
    dm = validate_density(mat, n, tol)
    rec.close(s)
    s = rec.open("reductions.reduce", root, op)
    reduced = apply_reduction(dm, parse_label(label, n))
    rec.close(s)
    rec.count(op, "reductions.matrices", 1)
    s = rec.open("fileio.report", root, op)
    dumps_matrix(reduced.mat, 2, tol)
    rec.close(s)
    rec.close(root)
