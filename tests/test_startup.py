"""What a command loads and builds at start-up: `import entcheck` and
`import entcheck.cli` load no numpy and no other package module, each
command loads only the modules it calls, `--help` and `--version` load no
numpy, no command loads hashlib and with it OpenSSL (analyze takes its
digest from the interpreter's built-in SHA-256), analyze and reduce
make no numpy.einsum call, the package's names resolve on first use and
cover every name the README, the demos and CI import from it, each
subcommand's options come in a fixed order, and the process entry runs
with the collector off and frozen before exit."""

import argparse
import ast
import gc
import hashlib
import importlib
import json
import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import entcheck
from entcheck import cli, ghz
from entcheck.cli import build_parser, main
from entcheck.fileio import dumps_matrix

REPO = Path(__file__).resolve().parents[1]
SRC = str(REPO / "src")

# prints the modules a statement loads beyond those the setup loads; with
# numpy as the setup, the check holds whatever numpy itself imports
PROBE = """
import json, sys
{setup}
base = set(sys.modules)
{statement}
print(json.dumps(sorted(set(sys.modules) - base)))
"""


def in_fresh_interpreter(code: str):
    """The JSON value a program prints last, run in a new interpreter."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def modules_added_by(statement: str, setup: str = "import numpy") -> set[str]:
    return set(in_fresh_interpreter(PROBE.format(setup=setup, statement=statement)))


def package_and_numpy(modules: set[str]) -> set[str]:
    return {m for m in modules if m.split(".")[0] in ("entcheck", "numpy")}


def test_import_loads_neither_dataclasses_nor_hashlib():
    added = modules_added_by("import entcheck.cli")
    assert "entcheck.cli" in added
    assert not {"dataclasses", "hashlib", "_hashlib"} & added


@pytest.mark.parametrize("statement, loaded", [
    ("import entcheck", {"entcheck"}),
    ("import entcheck.cli", {"entcheck", "entcheck.cli"}),
    ("from entcheck.cli import run", {"entcheck", "entcheck.cli"}),
    ("from entcheck import __version__", {"entcheck"}),
])
def test_import_loads_no_numpy_and_no_other_package_module(statement, loaded):
    assert package_and_numpy(modules_added_by(statement, setup="")) == loaded


@pytest.fixture
def state_file(tmp_path):
    path = tmp_path / "ghz.json"
    path.write_text(dumps_matrix(ghz().mat, 3))
    return path


COMMANDS = {
    "reduce": (["reduce", "{path}", "--label", "A,BC", "-o", "{out}"], 0),
    "make-state": (["make-state", "werner", "--x", "0.5", "-o", "{out}"], 0),
    "sweep": (["sweep", "werner", "--steps", "3"], 0),
    "analyze": (["analyze", "{path}"], 2),
}


def modules_added_by_command(name: str, state_file, setup: str = "import numpy") -> set[str]:
    argv, code = COMMANDS[name]
    argv = [a.format(path=state_file, out=state_file.with_name("out.json")) for a in argv]
    statement = ("import contextlib, io\nfrom entcheck.cli import main\n"
                 f"with contextlib.redirect_stdout(io.StringIO()):\n    assert main({argv!r}) == {code}")
    return modules_added_by(statement, setup)


# the interpreter's own SHA-256 module, which analyze takes its digest from
BUILT_IN_SHA256 = "_sha2" if sys.version_info >= (3, 12) else "_sha256"


@pytest.mark.parametrize("name", list(COMMANDS))
def test_no_command_loads_hashlib(state_file, name):
    """hashlib would load _hashlib and with it OpenSSL's libcrypto; counted
    from a bare interpreter, so numpy's own imports count too."""
    added = modules_added_by_command(name, state_file, setup="")
    assert not {"hashlib", "_hashlib"} & added
    if name == "analyze":
        assert BUILT_IN_SHA256 in added


@pytest.mark.skipif(not os.path.exists("/proc/self/maps"), reason="reads the process's memory map")
def test_analyze_maps_no_libcrypto(state_file):
    statement = ("import contextlib, io\nfrom entcheck.cli import main\n"
                 "with contextlib.redirect_stdout(io.StringIO()):\n"
                 f"    assert main(['analyze', {str(state_file)!r}]) == 2\n"
                 "print(json.dumps('libcrypto' in open('/proc/self/maps').read()))")
    assert in_fresh_interpreter(f"import json\n{statement}") is False


@pytest.mark.parametrize("argv", [["--version"], ["--help"], *([name, "--help"] for name in COMMANDS)],
                         ids=lambda argv: " ".join(argv))
def test_help_and_version_load_no_numpy(argv):
    statement = ("import contextlib, io\nfrom entcheck.cli import main\n"
                 "with contextlib.redirect_stdout(io.StringIO()):\n"
                 "    try:\n"
                 f"        main({argv!r})\n"
                 "    except SystemExit as exc:\n"
                 "        assert exc.code == 0\n"
                 "    else:\n"
                 "        raise AssertionError('no exit')")
    assert package_and_numpy(modules_added_by(statement, setup="")) == {"entcheck", "entcheck.cli"}


# the package modules each command loads: analyze never loads the state
# families, and reduce no PPT code either
PACKAGE_MODULES = {
    "reduce": {"cli", "fileio", "linalg", "reductions"},
    "analyze": {"cli", "fileio", "linalg", "reductions", "separability"},
    "make-state": {"cli", "fileio", "linalg", "reductions", "states"},
    "sweep": {"cli", "fileio", "linalg", "reductions", "separability", "states"},
}


@pytest.mark.parametrize("name", list(PACKAGE_MODULES))
def test_each_command_loads_only_the_modules_it_calls(state_file, name):
    added = package_and_numpy(modules_added_by_command(name, state_file, setup=""))
    assert {m for m in added if m.startswith("entcheck.")} == {f"entcheck.{m}" for m in PACKAGE_MODULES[name]}
    assert "entcheck" in added and "numpy" in added


# the summand tables are built from Python ints, so numpy's einsum, whose
# kernels no command runs, is never paged in
@pytest.mark.parametrize("argv, code", [(["analyze", "{path}"], 2), (["reduce", "{path}", "--label", "A,B"], 0)],
                         ids=["analyze", "reduce"])
def test_analyze_and_reduce_make_no_einsum_call(state_file, argv, code):
    argv = [a.format(path=state_file) for a in argv]
    program = ("import contextlib, io, json, numpy\n"
               "calls, einsum = [], numpy.einsum\n"
               "numpy.einsum = lambda *args, **kwargs: calls.append(args[0]) or einsum(*args, **kwargs)\n"
               "from entcheck.cli import main\n"
               "with contextlib.redirect_stdout(io.StringIO()):\n"
               f"    assert main({argv!r}) == {code}\n"
               "print(json.dumps(calls))")
    assert in_fresh_interpreter(program) == []


def test_report_digest_is_the_sha256_of_the_file_bytes(state_file, capsys):
    digest = hashlib.sha256(state_file.read_bytes()).hexdigest()
    assert main(["analyze", str(state_file), "--format", "machine"]) == 2
    assert json.loads(capsys.readouterr().out)["sha256"] == digest
    assert main(["analyze", str(state_file)]) == 2
    assert f"(sha256 {digest[:16]}...)" in capsys.readouterr().out


def test_digest_falls_back_to_hashlib_without_a_built_in_sha256(state_file, capsys, monkeypatch):
    """A build configured without built-in hashes has only hashlib: the
    reports are the same bytes, and their digest is hashlib's."""
    argvs = [["analyze", str(state_file), "--format", fmt] for fmt in ("machine", "human")]
    reports = []
    for argv in argvs:
        assert main(argv) == 2
        reports.append(capsys.readouterr())
    sha256, hashed = hashlib.sha256, []
    monkeypatch.setattr(hashlib, "sha256", lambda data: hashed.append(data) or sha256(data))
    for name in ("_sha256", "_sha2"):
        monkeypatch.setitem(sys.modules, name, None)  # import raises ImportError
    for argv, report in zip(argvs, reports):
        assert main(argv) == 2
        assert capsys.readouterr() == report
    raw = state_file.read_bytes()
    assert hashed == [raw, raw]
    assert json.loads(reports[0].out)["sha256"] == sha256(raw).hexdigest()


# the names the package defines itself, with no submodule loaded
DEFINED = ["DEFAULT_TOL"]
# the other names the package exposes, by home module: those users call
EXPOSED = {
    "linalg": [
        "RANK_TOL", "BadToleranceError", "DensityMatrix", "NonFiniteError", "ValidationError",
        "hermitian_eigenvalues", "hermitian_eigenvalues_stack", "kron", "partial_trace", "pure_density",
        "validate_density",
    ],
    "reductions": [
        "BadLabelError", "ReductionKind", "apply_reduction", "labels_for", "parse_label", "quadripartite_labels",
        "reduce_all_quadripartite", "reduce_all_tripartite", "reduce_split", "reduce_split_channel",
        "reduce_trace_then_split",
    ],
    "separability": [
        "ENTANGLED", "INCONCLUSIVE", "PptVerdict", "WitnessReport", "min_pt_eigenvalues", "necessary_condition_holds",
        "partial_transpose", "ppt_separable", "pure_fully_separable", "pure_split_separable",
        "split_coefficient_matrix", "witness", "witness_quadripartite", "witness_tripartite",
    ],
    "states": [
        "bell_pair", "coherence_factor", "embed_bipartite", "ghz", "molecule_pair_reduction", "molecule_state",
        "omega_matrix", "product_pure", "upb_state", "werner_embedded",
    ],
}
# public names of a home module that the package does not expose: imported from that module
MODULE_ONLY = {
    "linalg": ["BadSubsetError", "NotHermitianError", "NotNormalizedError", "NotPSDError", "TraceNotOneError"],
    "reductions": ["PARTY_NAMES", "ReductionLabel", "WrongArityError"],
    "separability": ["PURE_SPLITS", "SplitVerdict", "WrongDimError"],
    "states": ["BadGammaError", "BadParamsError", "BadWayError", "OutOfRangeError", "maximally_mixed"],
}
# the Python sources of each file that shows the library in use: the README's
# python blocks, each demo, and the CI workflow's `python -c` snippets
DOCUMENTED = {
    Path("README.md"): lambda p: re.findall(r"^```python\n(.*?)^```", p.read_text(), re.M | re.S),
    **{p.relative_to(REPO): lambda p: [p.read_text()] for p in sorted((REPO / "demos").glob("*.py"))},
    Path(".github/workflows/ci.yml"): lambda p: [textwrap.dedent(code) for code in
                                                 re.findall(r"python -c '(.*?)'", p.read_text(), re.S)],
}
NAMES = [(None, name) for name in DEFINED] + [(home, name) for home, names in EXPOSED.items() for name in names]


class TestLazyNames:
    def test_the_47_names(self):
        assert len(NAMES) == len({name for _, name in NAMES}) == 47
        assert len(entcheck.__all__) == 51  # and the 4 submodules

    @pytest.mark.parametrize("home, name", [(home, name) for home, names in MODULE_ONLY.items() for name in names])
    def test_module_only_name_stays_in_its_home_module(self, home, name):
        module = importlib.import_module(f"entcheck.{home}")
        assert name in module.__all__ and hasattr(module, name)
        assert name not in entcheck.__all__
        with pytest.raises(AttributeError):
            getattr(entcheck, name)

    def test_tripartite_labels_is_gone(self):
        from entcheck import reductions

        assert not hasattr(reductions, "tripartite_labels")

    @pytest.mark.parametrize("home, name", NAMES)
    def test_name_is_its_home_modules_object(self, home, name):
        value = getattr(entcheck if home is None else importlib.import_module(f"entcheck.{home}"), name)
        assert getattr(entcheck, name) is value
        assert vars(entcheck)[name] is value  # kept after the first lookup
        namespace = {}
        exec(f"from entcheck import {name}", namespace)
        assert namespace[name] is value

    def test_linalg_shares_the_package_default_tol(self):
        from entcheck import linalg

        assert linalg.DEFAULT_TOL is entcheck.DEFAULT_TOL == 1e-9
        assert "DEFAULT_TOL" in linalg.__all__

    @pytest.mark.parametrize("home", list(EXPOSED))
    def test_submodule(self, home):
        assert getattr(entcheck, home) is sys.modules[f"entcheck.{home}"]

    def test_dir_and_star_import(self):
        # dir before any name is used, in a new interpreter, and here, where names are loaded
        fresh = in_fresh_interpreter("import entcheck, json; print(json.dumps(dir(entcheck)))")
        for listed in (fresh, dir(entcheck)):
            assert set(listed) >= {name for _, name in NAMES} | set(EXPOSED) | {"__version__"}
            assert listed == sorted(listed)
        namespace = {}
        exec("from entcheck import *", namespace)
        assert {k for k in namespace if k != "__builtins__"} == {name for _, name in NAMES} | set(EXPOSED)

    def test_each_name_is_in_its_home_modules_all(self):
        for name, home in entcheck._HOMES.items():
            if name != home:
                assert name in importlib.import_module(f"entcheck.{home}").__all__, (home, name)

    @pytest.mark.parametrize("path", DOCUMENTED, ids=str)
    def test_documented_imports_are_package_names(self, path):
        """A name the README, a demo or a CI snippet imports from the package
        is one the package exposes."""
        sources = DOCUMENTED[path](REPO / path)
        names = {alias.name for source in sources for node in ast.walk(ast.parse(source))
                 if isinstance(node, ast.ImportFrom) and node.module == "entcheck" and not node.level
                 for alias in node.names}
        assert names, f"{path} imports nothing from entcheck"
        assert names <= set(entcheck.__all__), sorted(names - set(entcheck.__all__))

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="module 'entcheck' has no attribute 'no_such_name'"):
            entcheck.no_such_name
        with pytest.raises(AttributeError, match="module 'entcheck.cli' has no attribute 'no_such_name'"):
            cli.no_such_name

    @pytest.mark.parametrize("statement, loaded", [
        ("assert entcheck.reduce_split is sys.modules['entcheck.reductions'].reduce_split", {"linalg", "reductions"}),
        ("assert entcheck.states is sys.modules['entcheck.states']", {"linalg", "reductions", "states"}),
    ])
    def test_first_use_loads_only_the_home_module_and_its_imports(self, statement, loaded):
        added = package_and_numpy(modules_added_by(statement, setup="import entcheck"))
        assert {m for m in added if m.startswith("entcheck")} == {f"entcheck.{m}" for m in loaded}


# each parser's actions in order, an option by its strings and a positional by its dest
OPTIONS = {
    None: [["-h", "--help"], ["--version"], "command"],
    "analyze": [["-h", "--help"], ["--tol"], ["--format"], ["--no-validate"], "path"],
    "reduce": [["-h", "--help"], ["--tol"], ["--no-validate"], "path", ["--label"], ["--output", "-o"]],
    "make-state": [["-h", "--help"], ["--tol"], "family", ["--n-qubits"], ["--x"], ["--way"], ["--input"],
                   ["--p-ab"], ["--p-ac"], ["--p-bc"], ["--a"], ["--b"], ["--c"], ["--output", "-o"]],
    "sweep": [["-h", "--help"], ["--tol"], ["--format"], "family", ["--start"], ["--stop"], ["--steps"]],
}


def test_each_parser_lists_its_options_in_order():
    parser = build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices
    parsers = {None: parser, **commands}
    assert list(parsers) == list(OPTIONS)
    for name, p in parsers.items():
        assert [a.option_strings or a.dest for a in p._actions] == OPTIONS[name], name


class TestExitPath:
    """``run()``, the process entry, turns the collector off before
    ``main()`` and freezes it once however ``main()`` ends; ``main()`` does
    neither.  ``gc.disable`` and ``gc.freeze`` are replaced by recorders,
    so the pytest process keeps a working collector."""

    @pytest.fixture
    def events(self, monkeypatch):
        calls = []
        monkeypatch.setattr(gc, "disable", lambda: calls.append("disable"))
        monkeypatch.setattr(gc, "freeze", lambda: calls.append("freeze"))
        return calls

    @staticmethod
    def cases(state_file):
        return [(["analyze", str(state_file)], 2),  # ENTANGLED
                (["analyze", str(state_file.with_name("missing.json"))], 1),  # a library error
                (["analyze"], 1)]  # a usage error

    def test_run_disables_then_runs_main_then_freezes(self, state_file, monkeypatch, capsys, events):
        entry = cli.main
        monkeypatch.setattr(cli, "main", lambda: events.append("main") or entry())
        for argv, code in self.cases(state_file):
            events.clear()
            monkeypatch.setattr(sys, "argv", ["entcheck", *argv])
            with pytest.raises(SystemExit) as exc:
                cli.run()
            assert exc.value.code == code, argv
            assert events == ["disable", "main", "freeze"], argv
        assert gc.isenabled()

    def test_main_neither_disables_nor_freezes(self, state_file, capsys, events):
        for argv, code in self.cases(state_file):
            try:
                assert main(argv) == code
            except SystemExit as exc:
                assert exc.code == code
        assert events == []
        assert gc.isenabled()
