"""What a command loads and builds at start-up: no module that no command
needs, OpenSSL's hashlib only for the one command that takes a digest, and
each subcommand's options in a fixed order."""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from entcheck import ghz
from entcheck.cli import build_parser, main
from entcheck.fileio import dumps_matrix

SRC = str(Path(__file__).resolve().parents[1] / "src")

# prints the modules a statement loads beyond those numpy loads, so the
# check holds whatever numpy itself imports
PROBE = """
import json, sys
import numpy
base = set(sys.modules)
{statement}
print(json.dumps(sorted(set(sys.modules) - base)))
"""


def modules_added_by(statement: str) -> set[str]:
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", PROBE.format(statement=statement)],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout.splitlines()[-1]))


def test_import_loads_neither_dataclasses_nor_hashlib():
    added = modules_added_by("import entcheck.cli")
    assert "entcheck.cli" in added
    assert not {"dataclasses", "hashlib", "_hashlib"} & added


@pytest.fixture
def state_file(tmp_path):
    path = tmp_path / "ghz.json"
    path.write_text(dumps_matrix(ghz().mat, 3))
    return path


@pytest.mark.parametrize("argv, code, digests", [
    (["reduce", "{path}", "--label", "A,BC", "-o", "{out}"], 0, False),
    (["make-state", "werner", "--x", "0.5", "-o", "{out}"], 0, False),
    (["sweep", "werner", "--steps", "3"], 0, False),
    (["analyze", "{path}"], 2, True),
], ids=["reduce", "make-state", "sweep", "analyze"])
def test_only_analyze_loads_hashlib(state_file, argv, code, digests):
    argv = [a.format(path=state_file, out=state_file.with_name("out.json")) for a in argv]
    statement = ("import contextlib, io\nfrom entcheck.cli import main\n"
                 f"with contextlib.redirect_stdout(io.StringIO()):\n    assert main({argv!r}) == {code}")
    assert ("hashlib" in modules_added_by(statement)) is digests


def test_report_digest_is_the_sha256_of_the_file_bytes(state_file, capsys):
    digest = hashlib.sha256(state_file.read_bytes()).hexdigest()
    assert main(["analyze", str(state_file), "--format", "machine"]) == 2
    assert json.loads(capsys.readouterr().out)["sha256"] == digest
    assert main(["analyze", str(state_file)]) == 2
    assert f"(sha256 {digest[:16]}...)" in capsys.readouterr().out


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
