"""The demo scripts run to completion and print what they claim."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

# Lines a demo must print, compared after stripping indentation.
EXPECTED_LINES = {
    "equality_case_s3.py": [
        "kernel eigenvalue mu = -8 (degree 2, multiplicity 3): equality",
        "kernel eigenvalue mu = -12 (degree 2, multiplicity 8): strict",
    ],
}


@pytest.mark.parametrize(
    "name",
    ["bochner_and_lemmas.py", "equality_case_s3.py", "geodesics_two_ways.py", "spectrum_fragments.py"],
)
def test_demo_exits_cleanly(name, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / name)],
        capture_output=True, text=True, env=env, timeout=300, cwd=tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
    printed = [line.strip() for line in proc.stdout.splitlines()]
    for line in EXPECTED_LINES.get(name, ()):
        assert line in printed, proc.stdout
