"""The case set of tools/same_outputs.py reaches every subcommand, option
and choice of the parser, so a new flag cannot escape the output-identity check."""

import argparse
import importlib.util
from pathlib import Path

from entcheck.cli import build_parser

TOOL = Path(__file__).resolve().parents[1] / "tools" / "same_outputs.py"


def _tool():
    spec = importlib.util.spec_from_file_location("same_outputs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_case_set_reaches_every_subcommand_option_and_choice(tmp_path):
    cases = _tool().build_cases(tmp_path)
    argvs = [case["argv"] for case in cases]
    parser = build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices
    missing = [flag for a in parser._actions for flag in a.option_strings if [flag] not in argvs]
    for name, p in commands.items():
        used = [argv for argv in argvs if argv[:1] == [name]]
        missing += [f"{name} {flag}" for a in p._actions for flag in a.option_strings
                    if not any(flag in argv for argv in used)]
        missing += [f"{name} {a.dest}={choice}" for a in p._actions for choice in a.choices or ()
                    if not any(str(choice) in argv for argv in used)]
    assert not missing
    # every case reads only the files the set writes, or names a missing one on purpose
    written = {p.name for p in tmp_path.iterdir()}
    assert {case["stdin"] for case in cases} - {None} <= written
