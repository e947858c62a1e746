"""Real `entcheck` processes, and the child interpreters that split their cost.

This module imports neither numpy nor entcheck, so a set-up probe for the
cli workload starts no faster or slower than a shell would.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# The console script `entcheck` runs exactly this.
ENTRY = "from entcheck.cli import run; run()"

# Cumulative child programs: each one's time minus the previous one's is
# the cost of the step it adds.
IMPORT_PROBES = (
    ("cli.interpreter", ""),
    ("cli.import_numpy", "import numpy"),
    ("cli.import_entcheck", "import entcheck.cli"),
)


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def python(code: str, argv: list[str], env: dict[str, str]) -> subprocess.CompletedProcess:
    """Run one child interpreter to completion and collect its output."""
    return subprocess.run([sys.executable, "-c", code, *argv], capture_output=True,
                          env=env, timeout=120, check=False)


def entcheck(argv: list[str], env: dict[str, str]) -> tuple[str, int]:
    proc = python(ENTRY, argv, env)
    return proc.stdout.decode("utf-8", errors="replace"), proc.returncode
