"""The benchmark's span tracer names only code that exists and sees the
exact kernel, its workloads still give the recorded verdicts, the saved
benchmark results are whole, the library runs without importing scipy,
the suites call only public calculus functions, each pointwise one
once per field, and the float kernel a number of times that does not
grow with the points, the connection step loop is float arithmetic, and
the float modules call no builtin sum()."""

import ast
import importlib
import importlib.util
import inspect
import json
import os
import subprocess
import sys
import types
from collections import Counter
from fractions import Fraction
from pathlib import Path

from crsphere import bounds as B
from crsphere import calculus as C
from crsphere import geodesics, polynomials, spectrum
from crsphere.polynomials import Polynomial, SubspaceBasis
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


def test_tracer_sees_the_exact_kernel():
    # Every exact elimination runs through the public rref and null_space,
    # so their per-layer metrics measure the exact layer; a private kernel
    # that came back would leave them reading zero.
    tracing = _load_tracing()
    x1, x2, y1 = (Polynomial.variable(4, i) for i in range(3))
    collided = (x1 + x2, x1 + 2 * x2)  # both lead with x1
    basis = SubspaceBasis(1, 1, collided)
    calls = {
        "spectrum_fragment": lambda: spectrum.spectrum_fragment(1, 3),
        "harmonic_basis": lambda: polynomials.harmonic_basis(1, 3),
        "SubspaceBasis": lambda: SubspaceBasis(1, 1, collided),
        "contains": lambda: basis.contains(y1),
    }
    for label, call in calls.items():
        tracer = tracing.Tracer()
        tracer.install()
        try:
            call()
        finally:
            tracer.uninstall()
        spans = Counter(tracer.span_names[i] for i in tracer.name)
        assert spans["polynomials.rref"] >= 1, label
        assert spans["polynomials.null_space"] == spans["polynomials.rref"], label
        assert tracer.counts["polynomials.null_space.cells"] > 0, label


def _null_space_spans(call):
    tracer = _load_tracing().Tracer()
    tracer.install()
    try:
        call()
    finally:
        tracer.uninstall()
    return Counter(tracer.span_names[i] for i in tracer.name)["polynomials.null_space"]


def test_fragment_eliminates_once_per_kernel_group():
    # Fragment bases are certified by their kernel's echelon pattern; a
    # second elimination that proves them independent again would add spans.
    # At degree 4: two kernel groups for q = 2 (p = q) and one each for q = 1, 0.
    assert _null_space_spans(lambda: spectrum.spectrum_fragment(3, 4)) == 4
    x1, x2 = Polynomial.variable(4, 0), Polynomial.variable(4, 1)
    collided = (x1 + x2, x1 + 2 * x2)  # both lead with x1
    assert _null_space_spans(lambda: SubspaceBasis(1, 1, collided)) == 1


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


def test_suites_call_only_public_calculus_names():
    # The tracer wraps public functions only: a suite that reached into a
    # private library helper would run work that no per-layer metric sees.
    tree = ast.parse((ROOT / "src" / "crsphere" / "suites.py").read_text())
    aliases = {
        alias.asname or alias.name
        for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
        for alias in node.names if alias.name in ("bounds", "calculus", "geodesics")
    }
    assert aliases == {"B", "C", "G"}
    private = sorted(
        "%s.%s (line %d)" % (node.value.id, node.attr, node.lineno)
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
        and node.value.id in aliases and node.attr.startswith("_")
    )
    assert private == []


def test_suites_call_each_pointwise_evaluator_once_per_field(monkeypatch):
    # The pointwise checks run over stacks of points: a per-point loop
    # that came back would multiply these counts by the points per field.
    tracing = _load_tracing()
    spans = tracing.GROUPS["calculus.pointwise"] + tracing.GROUPS["calculus.connection"]
    names = [s.split(".", 1)[1] for s in spans] + ["point_jet", "bochner_lhs"]
    counts = Counter()
    for name in names:
        def counted(*args, _name=name, _func=getattr(C, name)):
            counts[_name] += 1
            return _func(*args)
        monkeypatch.setattr(C, name, counted)
    # a pool of 4 fields in both suites
    assert run_suite(Config(suite="lemmas", n=1, trials=40)).passed
    assert counts == {
        "point_jet": 4, "lemma1_residual": 4, "third_commutation_residual": 4, "tw_hessian": 4,
        "connection_axiom_residuals": 1,
    }
    counts.clear()
    assert run_suite(Config(suite="bochner", n=2, trials=20)).passed
    assert counts == {
        "point_jet": 4, "tw_hessian": 4, "sublaplacian_greenleaf": 4, "bochner_residual": 4,
        "bochner_lhs": 4, "operator_l_parts": 4, "curvature_sphere": 4, "sublaplacian_frame": 4,
    }
    # the S^3 suite checks its 20 Hessian points with one stacked block
    counts.clear()
    assert run_suite(Config(suite="s3", trials=100)).passed
    assert counts == {"point_jet": 1, "tw_hessian": 1}
    # the bound draws its samples once, builds all their frames in one
    # call and traces the curvature once (bounds holds its own name for ricci)
    frames = []

    def counted_frame(p, _build=C.horizontal_frame):
        frames.append(len(p))
        return _build(p)

    monkeypatch.setattr(C, "horizontal_frame", counted_frame)
    counts.clear()
    assert B.check_bound(2, 2, num_samples=100).all_kernel_entries_satisfy
    assert counts == {"curvature_sphere": 1} and frames == [100]


def test_float_kernel_calls_do_not_scale_with_points(monkeypatch):
    # Every float evaluation of a polynomial goes through evaluate_many,
    # once per field and stack: doubling or quadrupling the points leaves
    # the number of calls as it was.  A per-point loop would scale it.
    kernel = polynomials.evaluate_many
    calls = []

    def counted(polys, points):
        calls.append(1)
        return kernel(polys, points)

    holders = [
        m for m in list(sys.modules.values())
        if m and m.__name__.startswith("crsphere") and getattr(m, "evaluate_many", None) is kernel
    ]
    assert {m.__name__ for m in holders} >= {"crsphere.polynomials", "crsphere.calculus"}
    for module in holders:
        monkeypatch.setattr(module, "evaluate_many", counted)

    def kernel_calls(**kw):
        calls.clear()
        assert run_suite(Config(**kw)).passed
        return len(calls)

    # the same pool of 4 fields at 8 and 16 trials
    for suite in ("lemmas", "bochner"):
        few, many = (kernel_calls(suite=suite, n=1, trials=t) for t in (8, 16))
        assert few == many > 0, suite
    few, many = (kernel_calls(suite="s3", reach_samples=r) for r in (8, 32))
    assert few == many > 0


def test_directions_have_one_reader():
    # A direction argument is checked at ARG_TOL by sphere._vec_at, or as
    # a stack at one point by geodesics._great_circle_direction; a second
    # reader could disagree with them on the same input.
    guarded, readers = [], []
    for path in sorted((ROOT / "src" / "crsphere").glob("*.py")):
        tree = ast.parse(path.read_text())
        for func in ast.walk(tree):
            if not isinstance(func, ast.FunctionDef):
                continue
            if func.name == "_directions":
                readers.append("%s.%s" % (path.stem, func.name))
            for node in ast.walk(func):
                if not isinstance(node, ast.Call):
                    continue
                name = getattr(node.func, "id", getattr(node.func, "attr", None))
                args = [*node.args, *(k.value for k in node.keywords)]
                if name == "_check_tangent" and any(getattr(a, "id", None) == "ARG_TOL" for a in args):
                    guarded.append("%s.%s" % (path.stem, func.name))
    assert readers == []
    assert sorted(guarded) == ["geodesics._great_circle_direction", "sphere._vec_at"]


def _owned_nodes(tree):
    """(name of the innermost enclosing function, or None, node) for every node."""
    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            name = child.name if isinstance(child, ast.FunctionDef) else owner
            yield name, child
            yield from visit(child, name)
    return visit(tree, None)


def test_dual_numbers_have_one_maker_and_one_reader():
    # First derivatives are taken in dual arithmetic: calculus._along makes
    # a dual value and calculus._d reads its derivative part.  No other code
    # reads EPS, writes a complex literal or reads .imag; geodesics is exempt
    # from the last two, because its complex numbers are points of C^(n+1).
    found = []
    for path in sorted((ROOT / "src" / "crsphere").glob("*.py")):
        for owner, node in _owned_nodes(ast.parse(path.read_text())):
            eps = isinstance(node, ast.Name) and node.id == "EPS" and isinstance(node.ctx, ast.Load)
            literal = isinstance(node, ast.Constant) and isinstance(node.value, complex)
            imag = isinstance(node, ast.Attribute) and node.attr == "imag"
            if eps or ((literal or imag) and path.stem != "geodesics"):
                found.append("%s.%s" % (path.stem, owner))
    assert sorted(set(found)) == ["calculus._along", "calculus._d"]
    # the two helpers that receive dual values pair vectors with the
    # non-conjugating _dot: np.vecdot conjugates its first argument and
    # would drop derivative terms
    tree = ast.parse((ROOT / "src" / "crsphere" / "calculus.py").read_text())
    helpers = {f.name: f for f in tree.body if isinstance(f, ast.FunctionDef)}
    for name in ("_pi_h_vec", "_hessian_form_at"):
        calls = {ast.unparse(n.func) for n in ast.walk(helpers[name]) if isinstance(n, ast.Call)}
        assert "_dot" in calls
        assert "np.vecdot" not in calls


def test_connection_step_loop_is_float_arithmetic():
    # The connection route steps on the eight floats of its plane
    # coefficients over an orthonormal basis.  A .conjugate(), .real or .imag
    # access, a complex constant or a numpy call in its step loop would bring
    # complex arithmetic, or a numpy call's overhead, back into every step.
    tree = ast.parse(inspect.getsource(geodesics.integrate_connection_geodesic))
    (loop,) = [node for node in ast.walk(tree) if isinstance(node, (ast.For, ast.While))]
    found = sorted(
        ast.unparse(node) for node in ast.walk(loop)
        if (isinstance(node, ast.Attribute) and node.attr in ("conjugate", "real", "imag"))
        or (isinstance(node, ast.Constant) and isinstance(node.value, complex))
        or (isinstance(node, ast.Name) and node.id in ("np", "numpy", "cmath"))
    )
    assert found == []


def test_float_modules_call_no_builtin_sum():
    # builtin sum() adds floats left to right only up to CPython 3.11; from
    # 3.12 it compensates, so a float sum would round differently there and
    # move payload bytes.  geodesics and calculus reduce floats in a written
    # order or through numpy, never through sum().
    for name in ("geodesics", "calculus"):
        tree = ast.parse((ROOT / "src" / "crsphere" / (name + ".py")).read_text())
        calls = [
            "%s:%d" % (name, node.lineno) for node in ast.walk(tree)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "sum"
        ]
        assert calls == []
