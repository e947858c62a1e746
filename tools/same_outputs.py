"""Check that a commit's `entcheck` commands print what this tree's print.

    python3 tools/same_outputs.py --parent REV

Puts a `git archive` of REV in a temporary directory and runs the case set
below through each tree's `cli.main`, each tree in its own child
interpreter, in the same working directory over the same input files.  For
every case it hashes stdout, stderr, the exit code and any file the command
writes, and prints only the cases whose hashes differ.  Exits 0 when none
differ and 1 when some do.  The other side is the tree this script is in.

The case set:
- `analyze` in both formats and `reduce` with four labels, each with and
  without --no-validate, from a path and from stdin, over the analyze pools
  of `bench/pools.py` for seeds 1-2 (64 3-qubit and 64 4-qubit files each);
- the `sweep_pool` requests of seeds 1-3, in both formats;
- `make-state` of every family, at valid and invalid parameters;
- malformed matrix files under each command that reads one, bad --tol
  values, usage errors, and every --help and --version.

The pools are built from `bench/pools.py`, loaded by path; nothing under
`bench/` is changed.  Every subcommand and option of `cli.build_parser()`
must appear in the case set (tests/test_same_outputs.py).
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

REPO = Path(__file__).resolve().parents[1]
OUT = "{out}"  # an argv placeholder for the file a command writes; each child substitutes its own

# four reduction labels per arity, two of them spelled out of canonical order
LABELS = {3: ("A,B", "A,BC", "b,ac", "C,AB"), 4: ("A,B", "B,CD", "a,dcb", "AC,BD")}

# the file a child runs: argv[1] is the tree's src, argv[2] the case file, argv[3] the output path
CHILD = r"""
import contextlib, hashlib, io, json, os, sys, traceback
sys.path.insert(0, sys.argv[1])
from entcheck import cli
out_path = sys.argv[3]
digests = []
for case in json.load(open(sys.argv[2])):
    argv = [out_path if arg == "{out}" else arg for arg in case["argv"]]
    data = b""
    if case["stdin"] is not None:
        with open(case["stdin"], "rb") as fh:
            data = fh.read()
    sys.stdin = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8")
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:
            code = "uncaught " + "".join(traceback.format_exception_only(type(exc), exc))
    written = b""
    if os.path.exists(out_path):
        with open(out_path, "rb") as fh:
            written = fh.read()
        os.remove(out_path)
    streams = (stdout.getvalue().encode(), stderr.getvalue().encode(), repr(code).encode(), written)
    digests.append([hashlib.sha256(s).hexdigest() for s in streams])
json.dump(digests, sys.stdout)
"""
STREAMS = ("stdout", "stderr", "exit code", "written file")


def _pools():
    """bench/pools.py, loaded by path."""
    spec = importlib.util.spec_from_file_location("_bench_pools", REPO / "bench" / "pools.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _matrix_text(n_qubits: int, re, im=None, tol=None) -> str:
    doc = {"schema": 1, "n_qubits": n_qubits, "re": re}
    if im is not None:
        doc["im"] = im
    if tol is not None:
        doc["tol"] = tol
    return json.dumps(doc)


def _malformed() -> dict[str, bytes]:
    """Matrix files that every reading command must reject, by file name."""
    diag = [[0.125 if i == j else 0.0 for j in range(8)] for i in range(8)]
    texts = {
        "not-json": "{",
        "array": "[]",
        "no-n-qubits": json.dumps({"schema": 1, "re": diag}),
        "n-qubits-0": _matrix_text(0, [[1.0]]),
        "n-qubits-str": _matrix_text("3", diag),
        "n-qubits-20000": _matrix_text(20000, [[1.0]]),
        "no-re": json.dumps({"schema": 1, "n_qubits": 3}),
        "short-re": _matrix_text(3, diag[:3]),
        "str-entry": _matrix_text(3, [["0.125" if i == j else 0.0 for j in range(8)] for i in range(8)]),
        "bool-entry": _matrix_text(3, [[i == j for j in range(8)] for i in range(8)]),
        "ragged-im": _matrix_text(3, diag, [[0.0] * 8] * 7 + [[0.0]]),
        "tol-negative": _matrix_text(3, diag, tol=-1.0),
        "tol-str": _matrix_text(3, diag, tol="x"),
        "nan-entry": _matrix_text(3, [[float("nan")] + row[1:] for row in diag[:1]] + diag[1:]),
        "not-hermitian": _matrix_text(3, [[0.125 if i == j else (0.1 if (i, j) == (0, 1) else 0.0)
                                           for j in range(8)] for i in range(8)]),
        "trace-2": _matrix_text(3, [[0.25 if i == j else 0.0 for j in range(8)] for i in range(8)]),
        "not-psd": _matrix_text(3, [[(0.5 if i < 4 else -0.25) if i == j else 0.0 for j in range(8)]
                                    for i in range(8)]),
        "two-qubits": _matrix_text(2, [[0.25 if i == j else 0.0 for j in range(4)] for i in range(4)]),
        "deep": "[" * 100000 + "]" * 100000,
        "long-literal": '{"schema": 1, "n_qubits": ' + "1" * 5001 + ', "re": [[1.0]]}',
        "huge-entries": _matrix_text(3, [[1e308 if i == j < 2 else 0.0 for j in range(8)] for i in range(8)]),
    }
    files = {f"bad-{name}.json": text.encode() for name, text in texts.items()}
    files["bad-not-utf8.json"] = b"\xff\xfe{"
    return files


def build_cases(directory: Path) -> list[dict]:
    """Write the input files into ``directory`` and return the cases, each
    {"argv": [...], "stdin": a file name or None}, run from ``directory``."""
    pools = _pools()
    files: dict[str, bytes] = {}
    cases: list[dict] = []

    def case(*argv: str, stdin: str | None = None) -> None:
        cases.append({"argv": list(argv), "stdin": stdin})

    for seed in (1, 2):
        for n in (3, 4):
            for i, (_, _, text, _) in enumerate(pools.analyze_pool(seed, n, 64).items):
                name = f"pool-s{seed}-{n}q-{i:02d}.json"
                files[name] = text
                for validate in ((), ("--no-validate",)):
                    for fmt in ("human", "machine"):
                        case("analyze", name, "--format", fmt, *validate)
                        case("analyze", "-", "--format", fmt, *validate, stdin=name)
                    for k, label in enumerate(LABELS[n]):
                        if k % 2:
                            case("reduce", "-", "--label", label, *validate, stdin=name)
                        else:
                            case("reduce", name, "--label", label, *validate)
                if i % 16 == 0:
                    case("analyze", name, "--tol", "1e-6")
                    case("reduce", name, "--label", LABELS[n][1], "--tol", "1e-12", "--output", OUT)
                    case("reduce", "-", "--label", LABELS[n][0], "-o", OUT, stdin=name)
                    case("reduce", name, "--label", "A,A")
                    case("reduce", name, "--label", "A,E")
                    case("reduce", name, "--label", "ABC")

    for seed in (1, 2, 3):
        for family, start, stop, steps in pools.sweep_pool(seed, 64).items:
            for fmt in ("human", "machine"):
                case("sweep", family, "--start", repr(start), "--stop", repr(stop), "--steps", str(steps),
                     "--format", fmt)
    case("sweep", "werner")
    case("sweep", "molecule", "--tol", "1e-3", "--steps", "11")
    for bad in (("--steps", "1"), ("--start", "0.5", "--stop", "0.2"), ("--stop", "2"), ("--no-validate",)):
        case("sweep", "werner", *bad)
    case("sweep", "ghz")

    rng = np.random.default_rng(2024)
    files["bell.json"] = pools.file_text(pools.ghz(2), 2)
    files["mixed2.json"] = pools.file_text(pools.ginibre(rng, 2), 2)
    files["ghz3.json"] = pools.file_text(pools.ghz(3), 3)
    for args in ((), ("--n-qubits", "2"), ("--n-qubits", "3"), ("--n-qubits", "4"), ("--n-qubits", "5"),
                 ("--tol", "1e-6"), ("--output", OUT), ("-o", OUT), ("--x", "0.5")):
        case("make-state", "ghz", *args)
    for x in ("0", "0.2", repr(1 / 3), "0.5", "1", "-0.1", "1.5", "nan", "abc"):
        case("make-state", "werner", "--x", x)
    case("make-state", "werner")
    case("make-state", "werner", "--x", "0.5", "--way", "1")
    for way in ("1", "2", "3", "4", "5", "6", "0", "7", "2.5"):
        for source in ("bell.json", "mixed2.json"):
            case("make-state", "embed", "--way", way, "--input", source)
    for args in (("--way", "1"), ("--input", "bell.json"), ("--way", "1", "--input", "ghz3.json"),
                 ("--way", "1", "--input", "missing.json"), ("--way", "1", "--input", "bell.json", "--tol", "1e-3")):
        case("make-state", "embed", *args)
    for weights in (("0.5", "0.25", "0.25"), ("1", "0", "0"), ("0", "0", "1"), ("0.5", "0.5", "0.5"),
                    ("-0.5", "1", "0.5"), ("nan", "0", "1")):
        case("make-state", "molecule", "--p-ab", weights[0], "--p-ac", weights[1], "--p-bc", weights[2])
    case("make-state", "molecule", "--p-ab", "1")
    case("make-state", "upb")
    case("make-state", "upb", "--tol", "1e-12")
    case("make-state", "upb", "--a", "1,0")
    for a, b, c in (("1,0", "0.6,0.8", "1,0"), ("0.6j,0.8", "1,0", "0,1"), ("1,0,0", "1,0", "1,0"),
                    ("x,y", "1,0", "1,0"), ("1,1", "1,0", "1,0")):
        case("make-state", "product", "--a", a, "--b", b, "--c", c)
    case("make-state", "product", "--a", "1,0")

    for name, data in _malformed().items():
        files[name] = data
        case("analyze", name)
        case("analyze", "-", "--format", "machine", stdin=name)
        case("analyze", name, "--no-validate")
        case("reduce", name, "--label", "A,B")
        case("make-state", "embed", "--way", "1", "--input", name)
    for tol in ("0", "-1", "nan", "inf", "x", "1e-300"):
        case("analyze", "ghz3.json", "--tol", tol)
        case("reduce", "ghz3.json", "--label", "A,B", "--tol", tol)
        case("make-state", "upb", "--tol", tol)
        case("sweep", "werner", "--steps", "5", "--tol", tol)
    case("analyze", "missing.json")
    case("analyze", "ghz3.json", "--format", "xml")
    case("reduce", "ghz3.json")
    case("analyze")
    case("bogus")
    case()

    case("--version")
    for flag in ("--help", "-h"):
        case(flag)
        for command in ("analyze", "reduce", "make-state", "sweep"):
            case(command, flag)

    directory.mkdir(parents=True, exist_ok=True)
    for name, data in files.items():
        (directory / name).write_bytes(data)
    return cases


def _run_tree(src: Path, case_file: Path, inputs: Path, out_path: Path) -> list[list[str]]:
    """The stream digests of every case, from a child interpreter that imports ``src``."""
    proc = subprocess.run([sys.executable, "-I", "-B", "-c", CHILD, str(src), str(case_file), str(out_path)],
                          cwd=inputs, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit(f"the child for {src} failed:\n{proc.stderr}")
    return json.loads(proc.stdout)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, metavar="REV", help="the commit to compare this tree with")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="same_outputs_") as tmp:
        tmp = Path(tmp)
        parent = tmp / "parent"
        parent.mkdir()
        archive = subprocess.run(["git", "-C", str(REPO), "archive", args.parent], capture_output=True)
        if archive.returncode != 0:
            sys.exit(f"git archive {args.parent} failed:\n{archive.stderr.decode()}")
        subprocess.run(["tar", "-x", "-C", str(parent)], input=archive.stdout, check=True)
        cases = build_cases(tmp / "inputs")
        case_file = tmp / "cases.json"
        case_file.write_text(json.dumps(cases))
        before = _run_tree(parent / "src", case_file, tmp / "inputs", tmp / "out-parent")
        after = _run_tree(REPO / "src", case_file, tmp / "inputs", tmp / "out-tree")
    differ = 0
    for case, old, new in zip(cases, before, after):
        streams = [name for name, a, b in zip(STREAMS, old, new) if a != b]
        if streams:
            differ += 1
            stdin = f" < {case['stdin']}" if case["stdin"] is not None else ""
            print(f"differs in {', '.join(streams)}: entcheck {' '.join(case['argv'])}{stdin}")
    print(f"{len(cases)} cases, {differ} differ from {args.parent}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
