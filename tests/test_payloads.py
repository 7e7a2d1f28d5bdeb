"""The payload matrix recomputed here equals PAYLOADS.json exactly."""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _load_matrix():
    spec = importlib.util.spec_from_file_location("_payloads_matrix", ROOT / "payloads" / "matrix.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_payload_matrix_matches_the_recorded_file():
    # a change that moves canonical bytes, a status or an id re-records
    # the file with payloads/record.py in the same commit
    matrix = _load_matrix()
    recorded = json.loads(matrix.PAYLOADS.read_text())
    assert len(recorded["configs"]) == 58
    got = matrix.compute()
    assert [e["name"] for e in got["configs"]] == [e["name"] for e in recorded["configs"]]
    moved = [
        want["name"] for have, want in zip(got["configs"], recorded["configs"]) if have != want
    ]
    assert not moved, (
        "payloads moved (recorded with Python %s and numpy %s, running Python %s and numpy %s): %s"
        % (recorded["python"], recorded["numpy"], got["python"], got["numpy"], moved))
