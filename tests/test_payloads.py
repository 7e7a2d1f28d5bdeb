"""The payload matrix recomputed here equals PAYLOADS.json exactly."""

import importlib.util
import json
from pathlib import Path

from crsphere import geodesics as G

ROOT = Path(__file__).resolve().parent.parent


def _load_matrix():
    spec = importlib.util.spec_from_file_location("_payloads_matrix", ROOT / "payloads" / "matrix.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_payload_matrix_matches_the_recorded_file(monkeypatch):
    # a change that moves canonical bytes, a status or an id re-records
    # the file with payloads/record.py in the same commit
    matrix = _load_matrix()
    recorded = json.loads(matrix.PAYLOADS.read_text())
    assert len(recorded["configs"]) == 58
    handoffs = []
    hand_off = G._hand_off

    def counted(*args):
        handoffs.append(args[0])
        return hand_off(*args)

    # the HJ kernel looks _hand_off up in the module's globals when it runs
    monkeypatch.setattr(G, "_hand_off", counted)
    got = matrix.compute()
    # the matrix must keep recording a chart handoff (one today, in
    # geodesic_shooting seed=2 call=0), so no edit drops the only config with one
    assert len(handoffs) >= 1
    assert [e["name"] for e in got["configs"]] == [e["name"] for e in recorded["configs"]]
    moved = [
        want["name"] for have, want in zip(got["configs"], recorded["configs"]) if have != want
    ]
    assert not moved, "payloads moved (recorded with numpy %s, running %s): %s" % (
        recorded["numpy"], got["numpy"], moved)
