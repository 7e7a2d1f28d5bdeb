"""The benchmark's span tracer names only code that exists, its workloads
still give the recorded verdicts, the saved benchmark results are whole,
and the library runs without importing scipy."""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
import types
from collections import Counter
from fractions import Fraction
from pathlib import Path

from crsphere.polynomials import Polynomial
from crsphere.suites import Config, run_suite

ROOT = Path(__file__).resolve().parent.parent


def _load_perfbench(name):
    path = ROOT / "perfbench" / (name + ".py")
    spec = importlib.util.spec_from_file_location("_perfbench_" + name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _load_tracing():
    return _load_perfbench("tracing")


def test_every_traced_span_name_resolves():
    # A span name that names nothing records no spans, so its per-layer
    # metric silently reads zero; a rename or deletion must show up here.
    tracing = _load_tracing()
    names = {s for group in tracing.GROUPS.values() for s in group} | set(tracing.COUNTERS)
    names |= {"polynomials.Polynomial." + m for m in tracing.POLYNOMIAL_METHODS}
    for name in sorted(names):
        module, *path = name.split(".")
        obj = importlib.import_module("crsphere." + module)
        for attr in path:
            assert hasattr(obj, attr), name
            obj = getattr(obj, attr)
        if len(path) == 1:
            # the tracer wraps public functions defined in their own module
            assert isinstance(obj, types.FunctionType), name
            assert obj.__module__ == "crsphere." + module, name
    for module in tracing.MODULES:
        importlib.import_module("crsphere." + module)


def test_trace_counters_read_the_polynomial_class():
    # The tracer patches Polynomial methods by name and counts terms
    # with len(p.terms); both must hold for the packed storage, or the
    # term-pair metric would change meaning or the install would fail.
    tracing = _load_tracing()
    for name in tracing.POLYNOMIAL_METHODS:
        assert name in Polynomial.__dict__, name
    p = Polynomial(4, {(1, 0, 0, 0): 1, (0, 1, 0, 0): Fraction(-2, 3), (0, 0, 1, 1): 5})
    q = Polynomial(4, {(2, 0, 0, 0): Fraction(1, 7), (0, 0, 0, 0): -1})
    counts = Counter()
    tracing._count_mul(counts, (p, q), {}, p * q)
    assert counts["polynomials.mul.term_pairs"] == 3 * 2
    tracing._count_mul(counts, (p, 4), {}, p * 4)  # a scalar counts as one term
    assert counts["polynomials.mul.term_pairs"] == 3 * 2 + 3
    tracing._count_evaluate(counts, (p, [0.1, 0.2, 0.3, 0.4]), {}, None)
    assert counts["polynomials.evaluate.terms"] == 3


def test_workload_verdict_tables_match_expected():
    # The benchmark's output gate compares each call's (check id, status)
    # table with perfbench/expected.json; a renamed check or a moved
    # verdict fails here, in tier-1, before it fails the benchmark gate.
    # The calls are those of seed 0, as record_expected.py makes them.
    workloads = _load_perfbench("workloads")
    worker = _load_perfbench("worker")
    expected = json.loads((ROOT / "perfbench" / "expected.json").read_text())
    assert sorted(expected) == sorted(workloads.WORKLOADS)
    for name in workloads.WORKLOADS:
        got = [worker.verdict_table(run_suite(Config(**kw))) for kw in workloads.calls(name, 0)]
        assert got == expected[name], name


def test_bench_results_are_complete_and_correct():
    # Every BENCH_*.json holds the last JSON line of perfbench/run.py runs;
    # a speed claim stands on runs that finished and passed the output gate.
    paths = sorted(ROOT.glob("BENCH_*.json"))
    assert paths
    for path in paths:
        record = json.loads(path.read_text())
        for key in ("description", "machine", "runs"):
            assert key in record, (path.name, key)
        assert record["runs"], path.name
        for run in record["runs"]:
            assert run["returncode"] == 0, (path.name, run)
            assert run["result"]["correct"] is True, (path.name, run)
            assert run["result"]["failed"] == 0, (path.name, run)


def test_library_does_not_import_scipy():
    # scipy is a test dependency only; importing scipy.optimize costs about
    # 0.5 s of every start-up, so a module-level import must not come back.
    code = (
        "import sys\n"
        "import crsphere, crsphere.cli\n"
        "from crsphere.suites import Config, run_suite\n"
        "assert run_suite(Config(suite='s3', a=0.5, b=1.5)).passed\n"
        "assert 'scipy' not in sys.modules, sorted(m for m in sys.modules if 'scipy' in m)\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
