import dataclasses
import functools
import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from crsphere import bounds
from crsphere import calculus as C
from crsphere import cli
from crsphere.bounds import (
    BoundEntry,
    BoundReport,
    check_bound,
    estimate_k,
    estimate_k_samples,
    lichnerowicz_bound,
)
from crsphere.polynomials import Polynomial
from crsphere.sphere import random_horizontal, random_point
from crsphere.suites import (
    CheckResult,
    Config,
    ConfigError,
    canonical_payload_bytes,
    config_from_file,
    _SUITE_FUNCS,
    run_and_report,
    run_suite,
)


# ---------------------------------------------------------------------------
# Curvature floor and the bound.
# ---------------------------------------------------------------------------


def test_estimate_k_values():
    assert abs(estimate_k(1, num_samples=50, seed=3) - 4.0) < 1e-12
    assert abs(estimate_k(2, num_samples=50, seed=3) - 6.0) < 1e-12


def test_estimate_k_is_constant_on_spheres():
    samples = estimate_k_samples(1, num_samples=100, seed=9)
    assert float(np.var(samples)) < 1e-12


def test_estimate_k_rejects_empty_sampling():
    with pytest.raises(ValueError):
        estimate_k(1, num_samples=0)


def estimate_k_samples_reference(n, num_samples, seed):
    """The one-point sampling loop: random_point, random_horizontal and ricci per sample."""
    rng = np.random.default_rng(seed)
    vals = np.empty(num_samples)
    for i in range(num_samples):
        p = random_point(rng, n)
        vals[i] = C.ricci(p, random_horizontal(rng, p))
    return vals


@pytest.mark.parametrize("n", [1, 2, 3])
def test_stacked_samples_match_the_per_point_loop(n):
    for seed, num_samples in ((0, 1), (9, 100), (901, 200)):
        reference = estimate_k_samples_reference(n, num_samples, seed)
        samples = estimate_k_samples(n, num_samples, seed)
        assert samples.shape == (num_samples,)
        assert np.max(np.abs(samples - reference)) <= 1e-14
        report = check_bound(n, 2, num_samples=num_samples, seed=seed)
        assert abs(report.k_hat - float(np.min(reference))) <= 1e-14


def test_lichnerowicz_bound_values():
    assert lichnerowicz_bound(1, 4) == Fraction(8)
    assert lichnerowicz_bound(2, 6) == Fraction(8)
    assert lichnerowicz_bound(1, Fraction(1, 2)) == Fraction(1)
    assert abs(lichnerowicz_bound(1, 4.0) - 8.0) < 1e-15


def test_lichnerowicz_bound_rejects_bad_k():
    with pytest.raises(ValueError):
        lichnerowicz_bound(1, 0)
    with pytest.raises(ValueError):
        lichnerowicz_bound(1, -2.0)
    with pytest.raises(ValueError):
        lichnerowicz_bound(0, 4)


def test_check_bound_s3():
    report = check_bound(1, 3, num_samples=50, seed=0)
    assert abs(report.k_hat - 4.0) < 1e-12
    assert abs(report.bound - 8.0) < 1e-12
    kernel = report.kernel_entries()
    assert [e.sublaplacian_eigenvalue for e in kernel] == [-8]
    assert kernel[0].satisfies
    assert kernel[0].equality
    # non-kernel eigenvalues are reported but never asserted against
    non_kernel = [e for e in report.entries if not e.reeb_kernel]
    assert {-2, -4, -14, -6} == {e.sublaplacian_eigenvalue for e in non_kernel}
    assert all(e.satisfies is None for e in non_kernel)
    assert all(not e.equality for e in non_kernel)


def test_check_bound_s5_strict():
    report = check_bound(2, 2, num_samples=50, seed=0)
    assert abs(report.k_hat - 6.0) < 1e-12
    assert abs(report.bound - 8.0) < 1e-12
    kernel = report.kernel_entries()
    assert [e.sublaplacian_eigenvalue for e in kernel] == [-12]
    assert kernel[0].satisfies and not kernel[0].equality


def test_kernel_bound_in_every_degree():
    # Reeb-kernel harmonics are the pieces H_{p,p} of degree 2p, with
    # -mu = 4p(p + n) (Folland 1972).  With k = 2(n + 1) the bound
    # 2nk/(2n - 1) is 4n(n + 1)/(2n - 1), and 4p(p + n) >= 4(n + 1)
    # >= 4n(n + 1)/(2n - 1), with equality only at n = 1, p = 1.
    for n in range(1, 9):
        bound = lichnerowicz_bound(n, 2 * (n + 1))
        assert bound == Fraction(4 * n * (n + 1), 2 * n - 1)
        for p in range(1, 60):
            minus_mu = 4 * p * (p + n)
            assert minus_mu >= bound
            assert (minus_mu == bound) == (n == 1 and p == 1)
    # The closed form agrees with the computed fragments.
    for n in (1, 2, 3):
        report = check_bound(n, 6, num_samples=50, seed=0)
        assert abs(report.bound - 4 * n * (n + 1) / (2 * n - 1)) < 1e-12
        kernel = report.kernel_entries()
        assert [e.degree for e in kernel] == [2, 4, 6]
        for e in kernel:
            p = e.degree // 2
            assert -e.sublaplacian_eigenvalue == 4 * p * (p + n)
            assert e.satisfies
            assert e.equality == (n == 1 and p == 1)


def test_check_bound_keeps_its_samples():
    report = check_bound(2, 2, num_samples=60, seed=3)
    assert np.array_equal(report.samples, estimate_k_samples(2, 60, 3))
    assert report.k_hat == float(np.min(report.samples))


def test_bound_suite_draws_the_samples_once(monkeypatch):
    draws = []
    original = bounds.estimate_k_samples

    def counting(*args, **kwargs):
        draws.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(bounds, "estimate_k_samples", counting)
    report = run_suite(Config(suite="bound", n=1, degree_max=2, trials=60, seed=4))
    assert len(draws) == 1
    assert report.passed


def test_check_bound_degree_cap():
    with pytest.raises(ValueError):
        check_bound(1, 7)


def test_bound_report_invariant():
    bad = BoundEntry(
        degree=2, t0sq_eigenvalue=0, sublaplacian_eigenvalue=-8,
        multiplicity=3, reeb_kernel=True, satisfies=False, equality=True,
    )
    with pytest.raises(ValueError):
        BoundReport(n=1, k_hat=4.0, bound=8.0, entries=[bad])


# ---------------------------------------------------------------------------
# Configuration.
# ---------------------------------------------------------------------------


def test_config_defaults_validate():
    for suite in ("spectrum", "bochner", "lemmas", "geodesics", "bound", "s3"):
        Config(suite=suite).validate()


def test_config_rejects_bad_values():
    with pytest.raises(ConfigError):
        Config(suite="nope").validate()
    with pytest.raises(ConfigError):
        Config(n=0).validate()
    with pytest.raises(ConfigError):
        Config(n=7).validate()
    with pytest.raises(ConfigError):
        Config(step_size=0.5).validate()
    with pytest.raises(ConfigError):
        Config(suite="s3", b=0.0).validate()
    with pytest.raises(ConfigError):
        Config(suite="s3", n=2).validate()
    with pytest.raises(ConfigError):
        Config(seed=-1).validate()
    for key in ("tol_match", "step_size", "a", "b"):
        for value in (math.nan, math.inf):
            with pytest.raises(ConfigError):
                Config(suite="s3", **{key: value}).validate()


# Small configs under which every suite body reaches all of its checks.
_SMALL_CONFIGS = {
    "spectrum": {"degree": 2},
    "bochner": {"trials": 2},
    "lemmas": {"trials": 2},
    "geodesics": {"steps": 10, "step_size": 1e-2, "hj_pairs": 1, "cc_pairs": 1},
    "bound": {"degree_max": 2, "trials": 1},
    "s3": {"trials": 1, "reach_samples": 4},
}


def test_every_config_key_is_read_by_a_suite():
    # a key that no suite body reads does nothing; `suite` is read by run_suite
    names = {f.name for f in dataclasses.fields(Config)}
    log = set()

    class RecordingConfig(Config):
        def __getattribute__(self, name):
            if name in names:
                log.add(name)
            return super().__getattribute__(name)

    read = set()
    for suite, overrides in _SMALL_CONFIGS.items():
        cfg = RecordingConfig(suite=suite, **overrides)
        cfg.validate()
        log.clear()
        _SUITE_FUNCS[suite](cfg)
        read |= log
    assert names - read == {"suite"}


def test_config_file_parsing(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(
        "# sample configuration\n"
        "n = 2\n"
        "trials = 7\n"
        "tol = 1e-7  # inline comment\n"
        "\n"
    )
    cfg = config_from_file(path)
    assert cfg.n == 2 and cfg.trials == 7 and cfg.tol == 1e-7
    cfg2 = config_from_file(path, overrides={"trials": "9"})
    assert cfg2.trials == 9


def test_config_file_rejects_unknown_key(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("frobnicate = 1\n")
    with pytest.raises(ConfigError):
        config_from_file(path)
    path.write_text("just a line without equals\n")
    with pytest.raises(ConfigError):
        config_from_file(path)


def test_unknown_override_rejected(tmp_path):
    path = tmp_path / "ok.cfg"
    path.write_text("n = 1\n")
    with pytest.raises(ConfigError):
        config_from_file(path, overrides={"nope": "1"})


# ---------------------------------------------------------------------------
# Suites and payloads.
# ---------------------------------------------------------------------------


def test_run_suite_spectrum_passes():
    report = run_suite(Config(suite="spectrum", n=1, degree=2, seed=5))
    assert report.passed
    assert report.max_residual < 1e-9
    payload_keys = set(report.as_dict())
    assert payload_keys == {"name", "checks", "max_residual", "passed"}
    check = report.as_dict()["checks"][0]
    assert set(check) == {"id", "description", "paper_ref", "status", "residual", "inputs"}


def test_run_suite_bound_passes():
    for n in (1, 2):
        report = run_suite(Config(suite="bound", n=n, degree_max=2, trials=30))
        assert report.passed


@pytest.mark.parametrize(
    "cfg, poisoned",
    [
        (
            Config(suite="spectrum", n=1, degree=2, seed=5),
            {"spectrum.pointwise.l1", "spectrum.pointwise.l2"},
        ),
        (
            Config(suite="bochner", n=1, trials=4, seed=5),
            {"bochner.route_agreement", "bochner.hessian_trace", "bochner.cauchy_schwarz"},
        ),
    ],
)
def test_nan_residual_fails_its_check(monkeypatch, cfg, poisoned):
    # max(0.0, nan) == 0.0, so a plain max would let these checks pass
    monkeypatch.setattr(C, "sublaplacian_greenleaf", lambda f, p: float("nan"))
    checks = {c.id: c for c in run_suite(cfg).checks}
    for check_id in poisoned:
        assert checks[check_id].status is False
        assert math.isnan(checks[check_id].residual)
    assert all(c.status for i, c in checks.items() if i not in poisoned)


def _count_point_reads(monkeypatch):
    """Count, over one suite run, the per-point reads a point jet shares.

    frame: frame rows built by horizontal_frame, one per point (one
    call builds the frames of a whole stack); jet: flat
    gradient-and-Hessian evaluations; t0, third, lhs:
    Polynomial.evaluate calls on a field's T0 f, its third partials and
    its Bochner left side; block: HessianBlock constructions.
    """
    counts = dict.fromkeys(("frame", "jet", "t0", "third", "lhs", "block"), 0)
    tagged = {}

    def tag(name, kind):
        func = getattr(C.ScalarField, name).func

        def build(self):
            out = func(self)
            polys = [out] if kind != "third" else [d for plane in out for row in plane for d in row]
            tagged.update((id(poly), kind) for poly in polys)
            return out

        prop = functools.cached_property(build)
        prop.__set_name__(C.ScalarField, name)
        monkeypatch.setattr(C.ScalarField, name, prop)

    for name, kind in (("t0_poly", "t0"), ("third_polys", "third"), ("bochner_lhs_poly", "lhs")):
        tag(name, kind)
    evaluate = Polynomial.evaluate

    def counted_evaluate(self, point):
        kind = tagged.get(id(self))
        if kind:
            counts[kind] += 1
        return evaluate(self, point)

    def counter(name, func):
        def counted(*args):
            counts[name] += 1
            return func(*args)
        return counted

    class CountedBlock(C.HessianBlock):
        def __init__(self, *args):
            counts["block"] += 1
            super().__init__(*args)

    monkeypatch.setattr(Polynomial, "evaluate", counted_evaluate)
    build_frame = C.horizontal_frame

    def counted_frame(p):
        counts["frame"] += 1 if isinstance(p, C.SpherePoint) else len(p)
        return build_frame(p)

    monkeypatch.setattr(C, "horizontal_frame", counted_frame)
    monkeypatch.setattr(C, "_grad_hess", counter("jet", C._grad_hess))
    monkeypatch.setattr(C, "HessianBlock", CountedBlock)
    return counts


def test_bochner_suite_reads_one_jet_and_one_block_per_point(monkeypatch):
    def forbidden(*args):
        raise AssertionError("the bochner suite builds no symbolic horizontal gradient")

    counts = _count_point_reads(monkeypatch)
    monkeypatch.setattr(C.ScalarField, "grad_h_field", property(forbidden))
    assert run_suite(Config(suite="bochner", n=1, trials=5)).passed
    # 5 points over a pool of 4 fields: one left-side evaluation and one
    # stacked Hessian block per field
    assert counts == {"frame": 5, "jet": 5, "t0": 5, "third": 0, "lhs": 4, "block": 4}


@pytest.mark.parametrize("n, third", [(1, 20), (2, 56)])
def test_lemmas_suite_reads_one_jet_per_point(monkeypatch, n, third):
    def forbidden(*args):
        raise AssertionError("lemma 1 evaluates no symbolic vector field")

    counts = _count_point_reads(monkeypatch)
    monkeypatch.setattr(C.VectorFieldPoly, "at", forbidden)
    monkeypatch.setattr(C.VectorFieldPoly, "jacobian_at", forbidden)
    assert run_suite(Config(suite="lemmas", n=n, trials=3)).passed
    # C(m + 2, 3) distinct third partials per point, m = 2n + 2
    assert counts == {"frame": 3, "jet": 3, "t0": 3, "third": 3 * third, "lhs": 0, "block": 3}


def _reject_constant(token):
    raise ValueError("non-standard JSON constant %s" % token)


def _poison_last_row(evaluate, bad):
    def poisoned(*args):
        out = np.array(evaluate(*args), dtype=float)
        out[-1] = bad
        return out
    return poisoned


@pytest.mark.parametrize("bad, text", [(math.nan, "nan"), (math.inf, "inf"), (-math.inf, "inf")])
def test_a_poisoned_row_of_a_stacked_residual_fails_its_check(monkeypatch, bad, text):
    # Each field's residuals arrive as one array.  A +inf row of
    # |pi_H Hess f|^2 makes a -inf deficit in the Cauchy-Schwarz check,
    # which np.max over the rows would let pass; the suites' reduction
    # must not.
    for name in ("third_commutation_residual", "bochner_residual"):
        monkeypatch.setattr(C, name, _poison_last_row(getattr(C, name), bad))
    norm_sq = _poison_last_row(C.HessianBlock.horizontal_norm_sq, bad)
    monkeypatch.setattr(C.HessianBlock, "horizontal_norm_sq", norm_sq)
    poisoned = {
        "lemmas": {"lemmas.third_order"},
        "bochner": {"bochner.residual", "bochner.cauchy_schwarz"},
    }
    for suite, ids in poisoned.items():
        _, payload = run_and_report(Config(suite=suite, n=1, trials=8, seed=5))
        decoded = json.loads(canonical_payload_bytes(payload), parse_constant=_reject_constant)
        checks = {c["id"]: c for c in decoded["suites"][0]["checks"]}
        for check_id, check in checks.items():
            if check_id in ids:
                assert (check["status"], check["residual"]) == ("fail", text), check_id
            else:
                assert check["status"] == "pass", check_id


@pytest.mark.parametrize("value, text", [(math.nan, "nan"), (math.inf, "inf")])
def test_non_finite_residual_is_strict_json(monkeypatch, value, text):
    monkeypatch.setattr(C, "sublaplacian_greenleaf", lambda f, p: value)
    _, payload = run_and_report(Config(suite="spectrum", n=1, degree=2, seed=5))
    raw = canonical_payload_bytes(payload)
    suite = json.loads(raw, parse_constant=_reject_constant)["suites"][0]
    checks = {c["id"]: c for c in suite["checks"]}
    assert checks["spectrum.pointwise.l1"]["residual"] == text
    assert checks["spectrum.pointwise.l1"]["status"] == "fail"
    assert checks["spectrum.values.l1"]["residual"] is None
    assert suite["max_residual"] == text
    assert suite["passed"] is False


def test_non_finite_input_values_are_strict_json():
    # s3.reach_set records its worst residuals among its inputs as well
    inputs = {"value_residual": math.nan, "fits": [{"residual": -math.inf}], "samples": 4}
    check = CheckResult("s3.reach_set", "reach set", "reach set", False, math.nan, inputs)
    decoded = json.loads(json.dumps(check.as_dict(), allow_nan=False))
    assert decoded["residual"] == "nan"
    assert decoded["inputs"] == {"value_residual": "nan", "fits": [{"residual": "-inf"}], "samples": 4}


def test_cli_report_is_strict_json_under_nan(monkeypatch, tmp_path):
    monkeypatch.setattr(C, "sublaplacian_greenleaf", lambda f, p: math.nan)
    path = tmp_path / "out.json"
    status = cli.main(["spectrum", "--n", "1", "--degree", "2", "--report", str(path)])
    assert status == 1
    payload = json.loads(path.read_text(), parse_constant=_reject_constant)
    assert payload["suites"][0]["max_residual"] == "nan"


def test_run_suite_validates_before_compute():
    with pytest.raises(ConfigError):
        run_suite(Config(suite="s3", b=0.0))


def test_payload_schema_and_determinism():
    cfg = Config(suite="spectrum", n=1, degree=2, seed=123)
    report_a, payload_a = run_and_report(cfg)
    report_b, payload_b = run_and_report(Config(suite="spectrum", n=1, degree=2, seed=123))
    assert set(payload_a) == {"tool_version", "config", "suites", "elapsed_seconds"}
    assert canonical_payload_bytes(payload_a) == canonical_payload_bytes(payload_b)
    # the canonical form drops only the timing field
    decoded = json.loads(canonical_payload_bytes(payload_a))
    assert "elapsed_seconds" not in decoded
    assert decoded["suites"][0]["name"] == "spectrum"


def test_payload_differs_across_configs():
    _, payload_a = run_and_report(Config(suite="spectrum", n=1, degree=2, seed=1))
    _, payload_b = run_and_report(Config(suite="spectrum", n=1, degree=2, seed=2))
    assert canonical_payload_bytes(payload_a) != canonical_payload_bytes(payload_b)


# ---------------------------------------------------------------------------
# Command line.
# ---------------------------------------------------------------------------


SRC = str(Path(__file__).resolve().parent.parent / "src")


def _run_cli(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, "-m", "crsphere.cli", *args],
        capture_output=True,
        text=True,
        env=env,
    )


def test_cli_spectrum_report(tmp_path):
    report_path = tmp_path / "out.json"
    proc = _run_cli("spectrum", "--n", "1", "--degree", "2", "--report", str(report_path))
    assert proc.returncode == 0, proc.stderr
    assert "[PASS]" in proc.stdout
    payload = json.loads(report_path.read_text())
    assert payload["config"]["n"] == 1
    assert payload["suites"][0]["passed"] is True
    for check in payload["suites"][0]["checks"]:
        assert {"id", "description", "paper_ref", "status", "residual", "inputs"} <= set(check)


def test_cli_rejects_invalid_arguments():
    proc = _run_cli("spectrum", "--n", "9")
    assert proc.returncode != 0
    proc = _run_cli("unknown-suite")
    assert proc.returncode != 0
    proc = _run_cli("spectrum", "--seed", "-1")
    assert proc.returncode == 2
    assert "seed must be >= 0" in proc.stderr


def test_cli_config_file_and_csv(tmp_path):
    cfg = tmp_path / "fast.cfg"
    cfg.write_text(
        "hj_pairs = 1\ncc_pairs = 1\nsteps = 100\nstep_size = 0.005\ntrials = 5\n"
    )
    csv_dir = tmp_path / "traces"
    proc = _run_cli(
        "geodesics", "--n", "1", "--config", str(cfg), "--csv-dir", str(csv_dir)
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert (csv_dir / "connection_geodesic.csv").exists()
    assert (csv_dir / "hamilton_jacobi_geodesic.csv").exists()
    header = (csv_dir / "connection_geodesic.csv").read_text().splitlines()[0]
    assert header.startswith("s,x1,")


def test_cli_unknown_config_key(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("bogus = 3\n")
    proc = _run_cli("spectrum", "--config", str(cfg))
    assert proc.returncode != 0
    assert "bogus" in proc.stderr


def test_cli_cross_process_determinism(tmp_path):
    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    for path in paths:
        proc = _run_cli(
            "spectrum", "--n", "1", "--degree", "2", "--seed", "42",
            "--report", str(path),
        )
        assert proc.returncode == 0
    payloads = [json.loads(p.read_text()) for p in paths]
    assert canonical_payload_bytes(payloads[0]) == canonical_payload_bytes(payloads[1])
