"""Command-line front end.

Subcommands: analyze, reduce, make-state, sweep.  Matrix files use the
JSON re/im format of :mod:`entcheck.fileio`; "-" reads from stdin, so
commands compose:

    entcheck make-state werner --x 0.5 | entcheck analyze -

Exit codes: 0 inconclusive/success, 1 error (usage errors included),
2 entangled (analyze), so scripts can tell findings from failures.

This module imports only the standard library.  Each command imports the
package modules it calls, so `reduce` loads no PPT code, only
`make-state` and `sweep` load the state families, and `--help` and
`--version` load no numpy.
"""

from __future__ import annotations

import argparse
import functools
import gc
import importlib
import sys

from . import DEFAULT_TOL, __version__

__all__ = ["main", "run", "build_parser"]

_BISECT_WIDTH = 1e-6
_SWEEP_CHUNK = 256  # states per kernel call; bounds the stack's memory for any --steps or bisection path

# library names the benchmark's traced sweep (bench/inproc.py) wraps on this
# module, by home module; the sweep itself calls none of them
_WRAPPED = {"witness_tripartite": "separability", "werner_embedded": "states", "molecule_state": "states"}


def __getattr__(name):
    """``cli.<name>`` for a name of ``_WRAPPED``, loaded on first use."""
    if name not in _WRAPPED:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__package__}.{_WRAPPED[name]}"), name)


class BadRangeError(ValueError):
    """Sweep range is empty, reversed, or outside the family's domain."""


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 1, like every other error: exit 2 means ENTANGLED."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


# the flags each make-state family reads, besides --tol and --output
_FAMILY_FLAGS = {"ghz": ("n_qubits",), "werner": ("x",), "embed": ("way", "input"),
                 "molecule": ("p_ab", "p_ac", "p_bc"), "upb": (), "product": ("a", "b", "c")}


def _tolerance(text: str) -> float:
    """argparse type of --tol: a finite number > 0."""
    from . import linalg

    try:
        tol = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"tolerance must be a number, got {text!r}") from None
    try:
        linalg.check_tolerance(tol, "tolerance")
    except linalg.BadToleranceError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return tol


def build_parser() -> argparse.ArgumentParser:
    """Each subcommand takes only the flags its command reads, and says
    what it does with --tol."""

    def command(name: str, tol: str, fmt: bool = False, **kwargs) -> argparse.ArgumentParser:
        """A subcommand's parser, with its --tol help and, if it writes a report, --format."""
        p = sub.add_parser(name, **kwargs)
        p.add_argument("--tol", type=_tolerance, default=None, metavar="REAL", help=tol)
        if fmt:
            p.add_argument("--format", choices=("human", "machine"), default="human",
                           help="report format (default: human)")
        return p

    skip = "skip density-matrix validation of the input"

    parser = _Parser(
        prog="entcheck",
        description="Entanglement witnesses for 3- and 4-qubit density matrices "
                    "via bipartite reductions and the exact 2-qubit PPT test.",
    )
    parser.add_argument("--version", action="version", version=f"entcheck {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = command("analyze", "tolerance for validation and PPT verdicts "
                           f"(default: file tol or {DEFAULT_TOL:g})", fmt=True,
                help="run the reduction witness on a matrix file")
    p.add_argument("--no-validate", action="store_true", help=f"{skip} (reports carry a warning block)")
    p.add_argument("path", help="matrix file (JSON re/im format), or - for stdin")
    p.set_defaults(func=cmd_analyze)

    p = command("reduce", "tolerance for validating the input, also written as the "
                          "output's tol; reduce makes no PPT verdict "
                          f"(default: file tol or {DEFAULT_TOL:g})",
                help="emit one labelled reduction as a 2-qubit matrix file")
    p.add_argument("--no-validate", action="store_true", help=skip)
    p.add_argument("path", help="matrix file, or - for stdin")
    p.add_argument("--label", required=True, metavar="LABEL",
                   help='reduction label, e.g. "A,B", "A,BC", "AB,CD" (case-insensitive)')
    p.add_argument("--output", "-o", metavar="FILE", help="write here instead of stdout")
    p.set_defaults(func=cmd_reduce)

    p = command("make-state", "only written into the output file's \"tol\" field; "
                              "the state is built without it (default: "
                              f"the state's own tol, {DEFAULT_TOL:g} unless embed's "
                              "--input file sets one)",
                help="emit a named state family member as a matrix file")
    p.add_argument("family", choices=tuple(_FAMILY_FLAGS))
    p.add_argument("--n-qubits", type=int, choices=(2, 3, 4),
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

    p = command("sweep", "tolerance of each row's PPT verdict, ENTANGLED below "
                         "-(tol + the state's negative mass); every state is checked "
                         f"at {DEFAULT_TOL:g} and the threshold search reads signs "
                         f"only (default: {DEFAULT_TOL:g})", fmt=True,
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


def _load_state(args) -> tuple[DensityMatrix, bytes]:
    """The 3- or 4-qubit state a command reads, at ``--tol`` or else the
    file's tol, checked unless ``--no-validate``, and the bytes it was read from."""
    from . import fileio, linalg

    raw = _read_input(args.path)
    mat, n, file_tol = fileio.loads_matrix(raw.decode("utf-8"))
    tol = args.tol if args.tol is not None else (file_tol if file_tol is not None else DEFAULT_TOL)
    dm = linalg.DensityMatrix(mat, n, tol)
    if not args.no_validate:
        linalg._checked_mass(dm)
    if n not in (3, 4):
        raise fileio.ParseError(f"{args.command} needs a 3- or 4-qubit state, got n_qubits={n}")
    return dm, raw


def _write_output(text: str, output: str | None):
    if output:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _sha256_hex(data: bytes) -> str:
    """The sha256 of ``data`` in hex, from the interpreter's built-in
    SHA-256: ``_sha2`` from Python 3.12, ``_sha256`` before it.

    ``hashlib`` would load ``_hashlib`` and with it OpenSSL's libcrypto,
    about 3 ms and 3.6 MB of an analyze process, to hash one file of a few
    KB.  The built-in hash is slower per byte, about 80 us against
    OpenSSL's 12 us on a 13 KB 4-qubit file, so a command that hashes many
    files in one process should measure this choice again.  The digest fingerprints
    the input and is no security control, so its code need not be
    FIPS-validated.  A build configured without built-in hashes has only
    hashlib, so that is the fallback."""
    try:
        if sys.version_info >= (3, 12):
            from _sha2 import sha256
        else:
            from _sha256 import sha256
    except ImportError:
        from hashlib import sha256
    return sha256(data).hexdigest()


def _print_report(doc: dict, fmt: str, render_human) -> None:
    """Print a report document as ``--format`` asks: machine JSON or ``render_human``'s text."""
    from . import fileio

    print(fileio._dumps_document(doc) if fmt == "machine" else render_human(doc))


def cmd_analyze(args) -> int:
    from . import fileio, linalg, separability

    dm, raw = _load_state(args)
    validated = not args.no_validate
    deviations, _ = linalg._measure(dm)  # one eigensolve for the report, the check and the witness
    report = separability.witness(dm, validate_reductions=validated)
    doc = fileio.witness_document(
        report,
        n_qubits=dm.n_qubits,
        tolerance=dm.tol,
        source="<stdin>" if args.path == "-" else args.path,
        digest=_sha256_hex(raw),
        validated=validated,
        diagnostics=fileio._diagnostics(deviations),
        version=__version__,
    )
    _print_report(doc, args.format, fileio.render_witness_human)
    return 2 if report.entangled else 0


def cmd_reduce(args) -> int:
    from . import fileio, reductions

    dm, _ = _load_state(args)
    try:
        label = reductions.parse_label(args.label, dm.n_qubits)
    except reductions.BadLabelError as exc:
        valid = ", ".join(l.text for l in reductions.labels_for(dm.n_qubits))
        raise reductions.BadLabelError(f"{exc}\nvalid labels for {dm.n_qubits} qubits: {valid}") from exc
    reduced = reductions.apply_reduction(dm, label)
    _write_output(fileio.dumps_matrix(reduced.mat, 2, dm.tol), args.output)
    return 0


def _parse_amplitudes(text: str, name: str) -> np.ndarray:
    import numpy as np

    from . import fileio

    parts = text.split(",")
    if len(parts) != 2:
        raise fileio.ParseError(f"--{name} must be two comma-separated amplitudes, got {text!r}")
    try:
        return np.array([complex(piece.strip()) for piece in parts])
    except ValueError as exc:
        raise fileio.ParseError(f"--{name}: cannot parse amplitude: {exc}") from exc


def cmd_make_state(args) -> int:
    from . import fileio, linalg, states

    family = args.family
    unread = [f"--{flag.replace('_', '-')}" for other, flags in _FAMILY_FLAGS.items() if other != family
              for flag in flags if getattr(args, flag) is not None]
    if unread:
        _parser().error(f"make-state {family} does not read {', '.join(unread)}")
    if family == "ghz":
        dm = states.ghz(3 if args.n_qubits is None else args.n_qubits)
    elif family == "werner":
        if args.x is None:
            raise fileio.ParseError("werner family needs --x REAL in [0,1], "
                                    "e.g. entcheck make-state werner --x 0.5")
        dm = states.werner_embedded(args.x)
    elif family == "embed":
        if args.way is None or args.input is None:
            raise fileio.ParseError("embed family needs --way 1..6 and --input RFILE, "
                                    "e.g. entcheck make-state embed --way 1 --input bell.json")
        mat, n, file_tol = fileio.loads_matrix(_read_input(args.input).decode("utf-8"))
        if n != 2:
            raise fileio.ParseError(f"--input must hold a 2-qubit matrix, got n_qubits={n}")
        r = linalg.validate_density(mat, 2, file_tol if file_tol is not None else DEFAULT_TOL)
        dm = states.embed_bipartite(r, args.way)
    elif family == "molecule":
        if args.p_ab is None or args.p_ac is None or args.p_bc is None:
            raise fileio.ParseError("molecule family needs --p-ab, --p-ac and --p-bc summing to 1, "
                                    "e.g. entcheck make-state molecule --p-ab 0.5 --p-ac 0.25 --p-bc 0.25")
        dm = states.molecule_state(args.p_ab, args.p_ac, args.p_bc)
    elif family == "upb":
        dm = states.upb_state()
    else:  # product
        if args.a is None or args.b is None or args.c is None:
            raise fileio.ParseError('product family needs --a, --b and --c, each "c0,c1", '
                                    'e.g. entcheck make-state product --a 1,0 --b 0.6,0.8 --c 1,0')
        dm = states.product_pure(
            _parse_amplitudes(args.a, "a"),
            _parse_amplitudes(args.b, "b"),
            _parse_amplitudes(args.c, "c"),
        )
    tol = args.tol if args.tol is not None else dm.tol
    _write_output(fileio.dumps_matrix(dm.mat, dm.n_qubits, tol), args.output)
    return 0


_SWEEP_DOMAIN = (0.0, 1.0)  # the parameter range of both families


def _sweep_family(family: str):
    """The family's stacked constructor: parameters (N,) -> matrices (N, 8, 8)."""
    from . import states

    return states._werner_stack if family == "werner" else states._molecule_path_stack  # molecule: weights (t, 0, 1-t)


def _min_pts(build, ts) -> tuple[list[float], list[float]]:
    """The min PT eigenvalue and negative mass of each state ``build`` makes
    at the parameters ``ts``, one stack per chunk of up to _SWEEP_CHUNK states."""
    from . import linalg, separability

    values, masses = [], []
    for start in range(0, len(ts), _SWEEP_CHUNK):
        # each state is checked at DEFAULT_TOL, the tol its constructor gives it,
        # and the check's Hermitian parts are the ones the kernel reduces
        chunk_masses, herm = linalg._checked_stack(build(ts[start:start + _SWEEP_CHUNK]), DEFAULT_TOL)
        values += separability._pt_minima(herm, 3).min(axis=1).tolist()
        masses += chunk_masses.tolist()
    return values, masses


def cmd_sweep(args) -> int:
    import numpy as np

    from . import fileio, separability

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

    params = np.linspace(lo, hi, steps)
    values, masses = _min_pts(build, params)
    # the threshold of each state's witness: -(tol + its negative mass)
    rows = [
        (float(t), float(v), separability.ENTANGLED if v < -(tol + nu) else separability.INCONCLUSIVE)
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
                known.update(zip(path, _min_pts(build, path)[0]))
            # every step reads the true value at its own midpoint, so a wrong
            # prediction costs one more call and never moves the bracket
            a, b = (a, mid) if (known[mid] < 0.0) == neg_b else (mid, b)
        bracket = (a, b)
        threshold = (a + b) / 2.0

    doc = fileio.sweep_document(args.family, rows, threshold, bracket, tol, __version__)
    _print_report(doc, args.format, fileio.render_sweep_human)
    return 0


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser ``main`` uses, built once per process; parsing leaves it unchanged."""
    return build_parser()


def main(argv=None) -> int:
    """Run one command and return its exit code; usage errors, ``--help``
    and ``--version`` raise SystemExit.  The garbage collector is left as
    it is, so an in-process caller keeps a working one."""
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def run():
    """The process entry (the ``entcheck`` script and ``python -m
    entcheck.cli``): exit with :func:`main`'s code.

    The process is short and owns its collector, so the collector is off
    throughout: the numpy and package imports inside the command would
    otherwise set off passes that free nothing.  Shutdown collects even
    with the collector off, so however ``main`` ends the collector is
    frozen first, and shutdown skips the objects the imports left
    tracked; stdio flushes and ``atexit`` hooks still run."""
    gc.disable()
    try:
        code = main()
    finally:
        gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()
