"""The standing payload matrix: 52 `run_suite` configs and their payloads.

The configs are

* bochner, lemmas and bound defaults at n = 1, 2, 3;
* geodesics with hj_pairs = 3, cc_pairs = 2 at n = 1, 2, 3;
* s3 at (a, b) = (0, 1), (0.7, -0.3), (0.5, 1.5) and (-1, 1e-6);
* every call of the three perfbench workloads at seeds 0, 1, 2, read
  from perfbench/workloads.py, which this module does not edit.

`compute()` runs them all in this process and returns, for each config,
the sha256 of its canonical payload bytes and each check's id, status
and the repr of its residual.  `record.py` writes that to PAYLOADS.json
next to this file, and a tier-1 test recomputes it and compares
exactly.  The matrix may grow; it never shrinks.
"""

import hashlib
import importlib.util
import platform
from pathlib import Path

import numpy as np

from crsphere.suites import Config, build_payload, canonical_payload_bytes, run_suite

HERE = Path(__file__).resolve().parent
PAYLOADS = HERE / "PAYLOADS.json"
WORKLOAD_SEEDS = (0, 1, 2)
S3_PARAMETERS = ((0.0, 1.0), (0.7, -0.3), (0.5, 1.5), (-1.0, 1e-6))


def _workloads():
    path = HERE.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("_payloads_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def configs():
    """(name, config dict) for every config of the matrix, in a fixed order."""
    out = []
    for suite in ("bochner", "lemmas", "bound"):
        for n in (1, 2, 3):
            out.append(("%s n=%d" % (suite, n), {"suite": suite, "n": n}))
    for n in (1, 2, 3):
        out.append((
            "geodesics n=%d hj_pairs=3 cc_pairs=2" % n,
            {"suite": "geodesics", "n": n, "hj_pairs": 3, "cc_pairs": 2},
        ))
    for a, b in S3_PARAMETERS:
        out.append(("s3 a=%r b=%r" % (a, b), {"suite": "s3", "a": a, "b": b}))
    workloads = _workloads()
    for name in workloads.WORKLOADS:
        for seed in WORKLOAD_SEEDS:
            for i, cfg in enumerate(workloads.calls(name, seed)):
                out.append(("%s seed=%d call=%d" % (name, seed, i), cfg))
    return out


def _residual(value):
    """repr of a residual as a Python float, so numpy and Python floats read alike."""
    return repr(value if value is None else float(value))


def run(cfg):
    """The matrix entry of one config dict."""
    config = Config(**cfg)
    report = run_suite(config)
    digest = hashlib.sha256(canonical_payload_bytes(build_payload([report], config, 0.0)))
    return {
        "sha256": digest.hexdigest(),
        "checks": [[c.id, "pass" if c.status else "fail", _residual(c.residual)] for c in report.checks],
    }


def compute():
    """The whole matrix, stamped with the Python and numpy versions."""
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "configs": [dict(name=name, config=cfg, **run(cfg)) for name, cfg in configs()],
    }
