"""Command-line front end.

Subcommands: analyze, reduce, make-state, sweep.  Matrix files use the
JSON re/im format of :mod:`entcheck.fileio`; "-" reads from stdin, so
commands compose:

    entcheck make-state werner --x 0.5 | entcheck analyze -

Exit codes: 0 inconclusive/success, 1 error (usage errors included),
2 entangled (analyze), so scripts can tell findings from failures.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import sys

import numpy as np

from . import __version__
from .fileio import (
    ParseError,
    _diagnostics,
    _dumps_document,
    dumps_matrix,
    loads_matrix,
    render_sweep_human,
    render_witness_human,
    sweep_document,
    witness_document,
)
from .linalg import (
    DEFAULT_TOL,
    BadToleranceError,
    DensityMatrix,
    _checked_masses,
    _checked_stack_masses,
    _invariant_deviations,
    check_tolerance,
    validate_density,
)
from .reductions import BadLabelError, apply_reduction, labels_for, parse_label
# sweep calls no witness_tripartite, but the benchmark's traced sweep wraps that name here
from .separability import _stack_pt_minima, witness, witness_tripartite
from .states import (
    _molecule_path_stack,
    _werner_stack,
    embed_bipartite,
    ghz,
    molecule_state,
    product_pure,
    upb_state,
    werner_embedded,
)

__all__ = ["main", "run", "build_parser"]

_BISECT_WIDTH = 1e-6
_SWEEP_CHUNK = 256  # grid states per kernel call; bounds the stack's memory for any --steps


class BadRangeError(ValueError):
    """Sweep range is empty, reversed, or outside the family's domain."""


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 1, like every other error: exit 2 means ENTANGLED."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _tolerance(text: str) -> float:
    """argparse type of --tol: a finite number > 0."""
    try:
        tol = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"tolerance must be a number, got {text!r}") from None
    try:
        check_tolerance(tol, "tolerance")
    except BadToleranceError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return tol


def build_parser() -> argparse.ArgumentParser:
    common = _Parser(add_help=False)
    common.add_argument("--tol", type=_tolerance, default=None, metavar="REAL",
                        help="tolerance for validation and PPT verdicts "
                             f"(default: file tol or {DEFAULT_TOL:g})")
    common.add_argument("--format", choices=("human", "machine"), default="human",
                        help="report format (default: human)")
    common.add_argument("--no-validate", action="store_true",
                        help="skip density-matrix validation of the input "
                             "(reports carry a warning block)")

    parser = _Parser(
        prog="entcheck",
        description="Entanglement witnesses for 3- and 4-qubit density matrices "
                    "via bipartite reductions and the exact 2-qubit PPT test.",
    )
    parser.add_argument("--version", action="version", version=f"entcheck {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", parents=[common],
                       help="run the reduction witness on a matrix file")
    p.add_argument("path", help="matrix file (JSON re/im format), or - for stdin")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("reduce", parents=[common],
                       help="emit one labelled reduction as a 2-qubit matrix file")
    p.add_argument("path", help="matrix file, or - for stdin")
    p.add_argument("--label", required=True, metavar="LABEL",
                   help='reduction label, e.g. "A,B", "A,BC", "AB,CD" (case-insensitive)')
    p.add_argument("--output", "-o", metavar="FILE", help="write here instead of stdout")
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("make-state", parents=[common],
                       help="emit a named state family member as a matrix file")
    p.add_argument("family", choices=("ghz", "werner", "embed", "molecule", "upb", "product"))
    p.add_argument("--n-qubits", type=int, default=3, choices=(2, 3, 4),
                   help="ghz only: number of qubits (default 3)")
    p.add_argument("--x", type=float, help="werner only: mixing parameter in [0,1]")
    p.add_argument("--way", type=int, help="embed only: embedding way 1..6")
    p.add_argument("--input", metavar="FILE",
                   help="embed only: 2-qubit matrix file to embed")
    p.add_argument("--p-ab", type=float, help="molecule only: weight of the A-B exchange term")
    p.add_argument("--p-ac", type=float, help="molecule only: weight of the A-C exchange term")
    p.add_argument("--p-bc", type=float, help="molecule only: weight of the B-C exchange term")
    p.add_argument("--a", metavar="C0,C1", help='product only: qubit A amplitudes, e.g. "0.6,0.8" or "1,0"')
    p.add_argument("--b", metavar="C0,C1", help="product only: qubit B amplitudes")
    p.add_argument("--c", metavar="C0,C1", help="product only: qubit C amplitudes")
    p.add_argument("--output", "-o", metavar="FILE", help="write here instead of stdout")
    p.set_defaults(func=cmd_make_state)

    p = sub.add_parser("sweep", parents=[common],
                       help="sweep a one-parameter family and locate the entanglement threshold")
    p.add_argument("family", choices=("werner", "molecule"),
                   help="werner: x*R + (1-x)*I/8; molecule: weights (t, 0, 1-t)")
    p.add_argument("--start", type=float, default=0.0)
    p.add_argument("--stop", type=float, default=1.0)
    p.add_argument("--steps", type=int, default=101)
    p.set_defaults(func=cmd_sweep)

    return parser


def _read_input(path: str) -> bytes:
    if path == "-":
        return sys.stdin.buffer.read()
    with open(path, "rb") as fh:
        return fh.read()


def _load_state(args) -> tuple[DensityMatrix, dict]:
    raw = _read_input(args.path)
    digest = hashlib.sha256(raw).hexdigest()
    mat, n, file_tol = loads_matrix(raw.decode("utf-8"))
    tol = args.tol if args.tol is not None else (file_tol if file_tol is not None else DEFAULT_TOL)
    dm = DensityMatrix(mat, n, tol)
    deviations = _invariant_deviations(dm.mat[None])[0]  # one eigensolve for the report and the check
    if not args.no_validate:
        _checked_masses([dm], deviations)
    meta = {
        "source": "<stdin>" if args.path == "-" else args.path,
        "digest": digest,
        "tolerance": tol,
        "validated": not args.no_validate,
        "diagnostics": _diagnostics(deviations),
    }
    return dm, meta


def _write_output(text: str, output: str | None):
    if output:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def cmd_analyze(args) -> int:
    dm, meta = _load_state(args)
    if dm.n_qubits not in (3, 4):
        raise ParseError(f"analyze needs a 3- or 4-qubit state, got n_qubits={dm.n_qubits}")
    report = witness(dm, meta["tolerance"], validate_reductions=meta["validated"])
    doc = witness_document(
        report,
        n_qubits=dm.n_qubits,
        tolerance=meta["tolerance"],
        source=meta["source"],
        digest=meta["digest"],
        validated=meta["validated"],
        diagnostics=meta["diagnostics"],
        version=__version__,
    )
    if args.format == "machine":
        print(_dumps_document(doc))
    else:
        print(render_witness_human(doc))
    return 2 if report.entangled else 0


def cmd_reduce(args) -> int:
    dm, meta = _load_state(args)
    if dm.n_qubits not in (3, 4):
        raise ParseError(f"reduce needs a 3- or 4-qubit state, got n_qubits={dm.n_qubits}")
    try:
        label = parse_label(args.label, dm.n_qubits)
    except BadLabelError as exc:
        valid = ", ".join(l.text for l in labels_for(dm.n_qubits))
        raise BadLabelError(f"{exc}\nvalid labels for {dm.n_qubits} qubits: {valid}") from exc
    reduced = apply_reduction(dm, label)
    _write_output(dumps_matrix(reduced.mat, 2, meta["tolerance"]), args.output)
    return 0


def _parse_amplitudes(text: str, name: str) -> np.ndarray:
    parts = text.split(",")
    if len(parts) != 2:
        raise ParseError(f"--{name} must be two comma-separated amplitudes, got {text!r}")
    try:
        return np.array([complex(piece.strip()) for piece in parts])
    except ValueError as exc:
        raise ParseError(f"--{name}: cannot parse amplitude: {exc}") from exc


def cmd_make_state(args) -> int:
    family = args.family
    if family == "ghz":
        dm = ghz(args.n_qubits)
    elif family == "werner":
        if args.x is None:
            raise ParseError("werner family needs --x REAL in [0,1], "
                             "e.g. entcheck make-state werner --x 0.5")
        dm = werner_embedded(args.x)
    elif family == "embed":
        if args.way is None or args.input is None:
            raise ParseError("embed family needs --way 1..6 and --input RFILE, "
                             "e.g. entcheck make-state embed --way 1 --input bell.json")
        mat, n, file_tol = loads_matrix(_read_input(args.input).decode("utf-8"))
        if n != 2:
            raise ParseError(f"--input must hold a 2-qubit matrix, got n_qubits={n}")
        r = validate_density(mat, 2, file_tol if file_tol is not None else DEFAULT_TOL)
        dm = embed_bipartite(r, args.way)
    elif family == "molecule":
        if args.p_ab is None or args.p_ac is None or args.p_bc is None:
            raise ParseError("molecule family needs --p-ab, --p-ac and --p-bc summing to 1, "
                             "e.g. entcheck make-state molecule --p-ab 0.5 --p-ac 0.25 --p-bc 0.25")
        dm = molecule_state(args.p_ab, args.p_ac, args.p_bc)
    elif family == "upb":
        dm = upb_state()
    else:  # product
        if args.a is None or args.b is None or args.c is None:
            raise ParseError('product family needs --a, --b and --c, each "c0,c1", '
                             'e.g. entcheck make-state product --a 1,0 --b 0.6,0.8 --c 1,0')
        dm = product_pure(
            _parse_amplitudes(args.a, "a"),
            _parse_amplitudes(args.b, "b"),
            _parse_amplitudes(args.c, "c"),
        )
    tol = args.tol if args.tol is not None else dm.tol
    _write_output(dumps_matrix(dm.mat, dm.n_qubits, tol), args.output)
    return 0


_SWEEP_DOMAIN = (0.0, 1.0)  # the parameter range of both families


def _sweep_family(family: str):
    """The family's stacked constructor: parameters (N,) -> matrices (N, 8, 8)."""
    return _werner_stack if family == "werner" else _molecule_path_stack  # molecule: weights (t, 0, 1-t)


def cmd_sweep(args) -> int:
    lo, hi, steps = args.start, args.stop, args.steps
    tol = args.tol if args.tol is not None else DEFAULT_TOL
    build = _sweep_family(args.family)
    if not (_SWEEP_DOMAIN[0] <= lo < hi <= _SWEEP_DOMAIN[1]):
        raise BadRangeError(
            f"sweep range [{lo}, {hi}] must be increasing and inside "
            f"[{_SWEEP_DOMAIN[0]:g}, {_SWEEP_DOMAIN[1]:g}] for the {args.family} family"
        )
    if steps < 2:
        raise BadRangeError(f"--steps must be at least 2, got {steps}")

    def min_pts(ts) -> tuple[np.ndarray, np.ndarray]:
        # each state is checked at DEFAULT_TOL, the tol its constructor gives it,
        # and the check's Hermitian parts are the ones the kernel reduces
        mats = build(ts)
        deviations, herm = _invariant_deviations(mats)
        masses = _checked_stack_masses(mats, DEFAULT_TOL, deviations)
        return _stack_pt_minima(herm, 3).min(axis=1), masses

    params = np.linspace(lo, hi, steps)
    values, masses = [], []
    for start in range(0, steps, _SWEEP_CHUNK):
        chunk_values, chunk_masses = min_pts(params[start:start + _SWEEP_CHUNK])
        values += chunk_values.tolist()
        masses += chunk_masses.tolist()
    # the threshold of each state's witness: -(tol + its negative mass)
    rows = [
        (float(t), float(v), "ENTANGLED" if v < -(tol + nu) else "INCONCLUSIVE")
        for t, v, nu in zip(params, values, masses)
    ]

    crossing = next((i for i in range(steps - 1) if (values[i] < 0.0) != (values[i + 1] < 0.0)), None)
    threshold = bracket = None
    if crossing is not None:
        a, b = float(params[crossing]), float(params[crossing + 1])
        # min PT eigenvalue by parameter; a stacked row equals the state's lone row
        known = {a: values[crossing], b: values[crossing + 1]}
        neg_b = known[b] < 0.0
        while b - a > _BISECT_WIDTH:
            mid = (a + b) / 2.0
            if mid not in known:
                # predict the root as the secant root of [a, b], then evaluate in one
                # call every midpoint the halving visits from (a, b) toward it; exact
                # where the min PT eigenvalue is linear across [a, b], as for werner
                root = a + (b - a) * known[a] / (known[a] - known[b])
                path, pa, pb = [], a, b
                while pb - pa > _BISECT_WIDTH:
                    m = (pa + pb) / 2.0
                    path.append(m)
                    pa, pb = (pa, m) if root < m else (m, pb)
                known.update(zip(path, min_pts(path)[0].tolist()))
            # every step reads the true value at its own midpoint, so a wrong
            # prediction costs one more call and never moves the bracket
            a, b = (a, mid) if (known[mid] < 0.0) == neg_b else (mid, b)
        bracket = (a, b)
        threshold = (a + b) / 2.0

    doc = sweep_document(args.family, rows, threshold, bracket, tol, __version__)
    if args.format == "machine":
        print(_dumps_document(doc))
    else:
        print(render_sweep_human(doc))
    return 0


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser ``main`` uses, built once per process; parsing leaves it unchanged."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def run():
    sys.exit(main())


if __name__ == "__main__":
    run()
