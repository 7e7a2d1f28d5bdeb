import argparse
import dataclasses
import functools
import json
import math
import os
import re
import subprocess
import sys
import typing
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose
from hypothesis import given, settings
from hypothesis import strategies as st

from crsphere import bounds
from crsphere import calculus as C
from crsphere import cli, polynomials
from crsphere import geodesics as G
from crsphere.bounds import (
    check_bound,
    estimate_k,
    estimate_k_samples,
    lichnerowicz_bound,
)
from crsphere.polynomials import Polynomial
from crsphere.spectrum import spectrum_fragment
from crsphere.sphere import random_horizontal, random_point
from crsphere.suites import (
    CheckResult,
    Config,
    ConfigError,
    build_payload,
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
    # True gave 8 as n and 2.0 as k; n = 1.5 raised a TypeError from Fraction
    for n, k in ((True, 4), (1, True), (1.5, 4), (1.5, 4.0)):
        with pytest.raises(ValueError):
            lichnerowicz_bound(n, k)


def test_check_bound_takes_numpy_integers():
    # np.int64(1) as n crashed in the packed T0 apply of the fragments
    want = check_bound(1, 2, num_samples=20, seed=0)
    got = check_bound(np.int64(1), np.int64(2), num_samples=20, seed=0)
    assert type(got.n) is int and got.bound == want.bound and got.entries == want.entries
    for n in (True, 1.0):
        with pytest.raises(ValueError):
            check_bound(n, 2, num_samples=20)


def test_check_bound_s3():
    report = check_bound(1, 3, num_samples=50, seed=0)
    assert abs(report.k_hat - 4.0) < 1e-12
    assert abs(report.bound - 8.0) < 1e-12
    kernel = report.kernel_entries()
    assert [e.sublaplacian_eigenvalue for e in kernel] == [-8]
    assert report.satisfies(kernel[0])
    assert report.equality(kernel[0])
    # non-kernel eigenvalues are reported but never asserted against
    non_kernel = [e for e in report.entries if not e.reeb_kernel]
    assert {-2, -4, -14, -6} == {e.sublaplacian_eigenvalue for e in non_kernel}
    assert all(report.satisfies(e) is None for e in non_kernel)
    assert all(not report.equality(e) for e in non_kernel)


def test_check_bound_s5_strict():
    report = check_bound(2, 2, num_samples=50, seed=0)
    assert abs(report.k_hat - 6.0) < 1e-12
    assert abs(report.bound - 8.0) < 1e-12
    kernel = report.kernel_entries()
    assert [e.sublaplacian_eigenvalue for e in kernel] == [-12]
    assert report.satisfies(kernel[0]) and not report.equality(kernel[0])


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
            assert report.satisfies(e)
            assert report.equality(e) == (n == 1 and p == 1)


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


def test_check_bound_needs_a_degree():
    # no degree used to give an empty report whose kernel entries all held;
    # True ran as degree 1
    for degree_max in (0, -3, True, 2.0):
        with pytest.raises(ValueError, match="1 <= degree_max <= 6"):
            check_bound(1, degree_max)


def test_check_bound_entries_are_the_fragments_own(monkeypatch):
    fragments = []

    def recording(n, ell):
        fragments.append(spectrum_fragment(n, ell))
        return fragments[-1]

    monkeypatch.setattr(bounds, "spectrum_fragment", recording)
    report = check_bound(2, 3, num_samples=50, seed=1)
    assert [f.degree for f in fragments] == [1, 2, 3]
    own = [e for f in fragments for e in f.entries]
    assert len(report.entries) == len(own)
    assert all(mine is theirs for mine, theirs in zip(report.entries, own))
    [kernel] = report.kernel_entries()
    assert kernel is fragments[1].kernel_entry()


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


_WRONG_TYPES = {
    int: st.one_of(st.booleans(), st.floats(), st.text(max_size=3), st.none()),
    float: st.one_of(st.booleans(), st.text(max_size=3), st.none(), st.complex_numbers()),
    str: st.one_of(st.booleans(), st.integers(), st.floats(), st.none()),
}


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(sorted(typing.get_type_hints(Config).items())).flatmap(
    lambda item: st.tuples(st.just(item[0]), _WRONG_TYPES[item[1]])))
def test_config_rejects_a_value_of_the_wrong_type(case):
    # int keys take int but not bool, float keys int or float but not bool,
    # and suite a str; anything else is a ConfigError, not a later TypeError
    name, value = case
    with pytest.raises(ConfigError, match="^%s must be of type" % name):
        Config(**{name: value}).validate()


def test_float_keys_serialise_their_value_not_its_spelling():
    # a float key given as an int is stored as the float, so 1 and 1.0
    # run the same suite and give the same canonical payload
    float_keys = [key for key, kind in typing.get_type_hints(Config).items() if kind is float]
    assert "a" in float_keys and "step_size" in float_keys
    for key in float_keys:
        spellings = [Config(suite="s3", **{key: k}) for k in (2, 2.0)]
        if key == "step_size":  # no int lies in (0, MAX_STEP]
            for config in spellings:
                with pytest.raises(ConfigError, match="step_size must lie in"):
                    config.validate()
            continue
        payloads = [canonical_payload_bytes(build_payload([], c.validate(), 0.0)) for c in spellings]
        assert payloads[0] == payloads[1], key
        assert type(spellings[0].validate().as_dict()[key]) is float, key
    configs = [Config(suite="s3", trials=1, reach_samples=4, a=a) for a in (1, 1.0)]
    payloads = [canonical_payload_bytes(build_payload([run_suite(c)], c, 0.0)) for c in configs]
    assert payloads[0] == payloads[1]


@pytest.mark.parametrize("line, key", [("n = 2.0", "n"), ("tol = small", "tol"), ("seed = 4x", "seed")])
def test_config_file_names_the_line_of_a_bad_value(tmp_path, line, key):
    path = tmp_path / "bad.cfg"
    path.write_text("# header\n\ntrials = 3\n%s\n" % line)
    with pytest.raises(ConfigError, match=re.escape("%s:4: %s" % (path, key))):
        config_from_file(path)


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
    """Count, over one suite run, the reads a point jet shares, per field.

    frame: horizontal_frame calls (one builds the frames of a whole
    stack); jet: flat gradient-and-Hessian evaluations; t0, third:
    float-kernel calls that evaluate a field's T0 f and its third
    partials; block: HessianBlock constructions.
    counts["sizes"] lists how many third partials each third call took.
    """
    counts = dict.fromkeys(("frame", "jet", "t0", "third", "block"), 0)
    sizes = []
    tagged = {}

    def tag(name, kind):
        func = getattr(C.ScalarField, name).func

        def build(self):
            out = func(self)
            polys = [out] if kind != "third" else out
            tagged.update((id(poly), kind) for poly in polys)
            return out

        prop = functools.cached_property(build)
        prop.__set_name__(C.ScalarField, name)
        monkeypatch.setattr(C.ScalarField, name, prop)

    for name, kind in (("t0_poly", "t0"), ("third_polys", "third")):
        tag(name, kind)

    def counted_kernel(polys, points, _kernel=polynomials.evaluate_many):
        polys = list(polys)
        for kind in {tagged.get(id(p)) for p in polys} - {None}:
            counts[kind] += 1
        if any(tagged.get(id(p)) == "third" for p in polys):
            sizes.append(len(polys))
        return _kernel(polys, points)

    def counter(name, func):
        def counted(*args):
            counts[name] += 1
            return func(*args)
        return counted

    class CountedBlock(C.HessianBlock):
        def __init__(self, *args):
            counts["block"] += 1
            super().__init__(*args)

    for module in (polynomials, C):
        monkeypatch.setattr(module, "evaluate_many", counted_kernel)
    monkeypatch.setattr(C, "horizontal_frame", counter("frame", C.horizontal_frame))
    monkeypatch.setattr(C, "_grad_hess", counter("jet", C._grad_hess))
    monkeypatch.setattr(C, "HessianBlock", CountedBlock)
    return counts, sizes


def _forbid_vector_fields(monkeypatch):
    def forbidden(*args):
        raise AssertionError("a suite path built a VectorFieldPoly")

    monkeypatch.setattr(C.VectorFieldPoly, "__init__", forbidden)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_lemmas_and_bochner_suites_build_no_vector_field(monkeypatch, n):
    # L f is built from scalar pieces and grad_H f is read from the flat
    # jet, so the symbolic vector fields serve only the connection route
    _forbid_vector_fields(monkeypatch)
    for suite in ("lemmas", "bochner"):
        assert run_suite(Config(suite=suite, n=n)).passed


def test_bochner_suite_reads_one_jet_and_one_block_per_point(monkeypatch):
    counts, sizes = _count_point_reads(monkeypatch)
    _forbid_vector_fields(monkeypatch)
    assert run_suite(Config(suite="bochner", n=1, trials=8)).passed
    # 8 points over a pool of 4 fields, two each: one stacked frame, jet,
    # Hessian block and read of the 20 distinct third partials per field,
    # which the left side takes in place of an exact polynomial
    assert counts == {"frame": 4, "jet": 4, "t0": 4, "third": 4, "block": 4}
    assert sizes == [20] * 4


def _bochner_residual_check():
    checks = {c.id: c for c in run_suite(Config(suite="bochner", n=1, trials=4)).checks}
    return checks["bochner.residual"]


def test_bochner_residual_catches_a_wrong_third_partial(monkeypatch):
    # only the left side reads the third partials: one wrong off-diagonal
    # entry must show in the residual
    assert _bochner_residual_check().status
    third = C.PointJet.third.func

    def corrupted(jet):
        out = np.array(third(jet))
        out[..., 0, 1, 2] += 1.0
        return out

    prop = functools.cached_property(corrupted)
    prop.__set_name__(C.PointJet, "third")
    monkeypatch.setattr(C.PointJet, "third", prop)
    assert not _bochner_residual_check().status


def test_bochner_residual_catches_a_wrong_hessian_mirror(monkeypatch):
    # the flat Hessian's lower triangle is a mirror of the evaluated upper
    # one; a wrong mirror fails the Bochner residual and the lemmas
    # suite's exchange check, each as a failed row
    grad_hess = C._grad_hess

    def broken_mirror(f, q):
        grad, hess = grad_hess(f, q)
        hess = hess.copy()
        lower = np.tril_indices(q.shape[-1], -1)
        hess[..., lower[0], lower[1]] += 1.0
        return grad, hess

    monkeypatch.setattr(C, "_grad_hess", broken_mirror)
    assert not _bochner_residual_check().status
    checks = {c.id: c for c in run_suite(Config(suite="lemmas", n=1, trials=4)).checks}
    assert not checks["lemmas.hessian_exchange"].status


def test_a_violated_exchange_identity_is_a_failed_row(monkeypatch):
    # 1e-6 planted in entry [1, 2] of every Hessian block breaks the
    # exchange identity by 1e-6, above the default tol of 1e-8: the suite
    # reports a failed lemmas.hessian_exchange row instead of raising
    init = C.HessianBlock.__init__

    def planted(self, base, frame, values, reeb_value):
        values = np.array(values, dtype=float)
        values[..., 1, 2] += 1e-6
        init(self, base, frame, values, reeb_value)

    monkeypatch.setattr(C.HessianBlock, "__init__", planted)
    report = run_suite(Config(suite="lemmas", trials=4))
    failed = [c.id for c in report.checks if not c.status]
    assert failed == ["lemmas.hessian_exchange"]
    (check,) = [c for c in report.checks if c.id == "lemmas.hessian_exchange"]
    assert 0.9e-6 < check.residual < 1.1e-6


@pytest.mark.parametrize("n, third", [(1, 20), (2, 56)])
def test_lemmas_suite_reads_one_jet_per_point(monkeypatch, n, third):
    def forbidden(*args):
        raise AssertionError("lemma 1 evaluates no symbolic vector field")

    counts, sizes = _count_point_reads(monkeypatch)
    monkeypatch.setattr(C.VectorFieldPoly, "at", forbidden)
    monkeypatch.setattr(C.VectorFieldPoly, "jacobian_at", forbidden)
    assert run_suite(Config(suite="lemmas", n=n, trials=8)).passed
    # 8 points over a pool of 4 fields, two each: everything once per
    # field, the C(m + 2, 3) distinct third partials (m = 2n + 2) in one call
    assert counts == {"frame": 4, "jet": 4, "t0": 4, "third": 4, "block": 4}
    assert sizes == [third] * 4


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


_COMMON_FLAGS = {
    "-h": ("help", None), "--help": ("help", None), "--config": ("config", None),
    "--report": ("report", None), "--csv-dir": ("csv_dir", None), "--seed": ("seed", int),
}
_SUBCOMMAND_FLAGS = {
    "spectrum": ("sublaplacian spectrum fragments", {"--n": ("n", int), "--degree": ("degree", int)}),
    "bochner": ("pointwise Bochner-type identity sweep",
                {"--n": ("n", int), "--trials": ("trials", int), "--tol": ("tol", float)}),
    "lemmas": ("divergence, integrated and commutation lemmas",
               {"--n": ("n", int), "--trials": ("trials", int), "--tol": ("tol", float)}),
    "geodesics": ("geodesic integrators and distance checks",
                  {"--n": ("n", int), "--steps": ("steps", int), "--step-size": ("step_size", float)}),
    "bound": ("curvature floor and eigenvalue bound",
              {"--n": ("n", int), "--degree-max": ("degree_max", int)}),
    "s3": ("equality-case phenomenology on S^3", {"--a": ("a", float), "--b": ("b", float)}),
}


def test_cli_subcommands_keep_their_flags():
    parser = cli.build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert list(sub.choices) == list(_SUBCOMMAND_FLAGS)
    helps = {a.dest: a.help for a in sub._choices_actions}
    for suite, (help_text, flags) in _SUBCOMMAND_FLAGS.items():
        got = {opt: (a.dest, a.type) for a in sub.choices[suite]._actions for opt in a.option_strings}
        assert got == {**flags, **_COMMON_FLAGS}, suite
        assert helps[suite] == help_text
    args = parser.parse_args(["geodesics", "--step-size", "0.002", "--steps", "7", "--seed", "5"])
    assert cli._config_from_args(args) == Config(suite="geodesics", step_size=0.002, steps=7, seed=5)


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


@pytest.mark.parametrize("suite, flags, b", [
    ("geodesics", ("--n", "2", "--steps", "20", "--step-size", "0.005", "--seed", "3"), 1.0),
    ("s3", ("--a", "0.5", "--b", "1.5"), 0.0),
])
def test_cli_exports_both_geodesic_traces(tmp_path, capsys, suite, flags, b):
    # the in-process export: one row per step from the start point, the
    # connection trace carrying its multiplier and the HJ trace its Reeb
    # component iq.p, a first integral that equals that multiplier
    cfg = tmp_path / "fast.cfg"
    cfg.write_text("hj_pairs = 1\ncc_pairs = 1\ntrials = 1\nreach_samples = 4\nsteps = 20\n")
    csv_dir = tmp_path / "traces"
    cli.main([suite, *flags, "--config", str(cfg), "--csv-dir", str(csv_dir)])
    assert "wrote traces" in capsys.readouterr().out
    config = cli._config_from_args(cli.build_parser().parse_args([suite, *flags, "--config", str(cfg)]))
    if suite == "s3":
        start = G.s3_max_point(config.a, config.b)
    else:
        start = random_point(np.random.default_rng(config.seed), config.n)
    m = start.dim
    header = ["s", *("x%d" % (k + 1) for k in range(m)), *("v%d" % (k + 1) for k in range(m)),
              "b", "theta_vdot", "speed"]
    for name in ("connection_geodesic.csv", "hamilton_jacobi_geodesic.csv"):
        lines = (csv_dir / name).read_text().splitlines()
        assert lines[0].split(",") == header, name
        rows = np.array([[float(x) for x in line.split(",")] for line in lines[1:]])
        assert rows.shape == (config.steps + 1, len(header)), name
        assert_allclose(rows[0, 1:m + 1], start.coords, rtol=0, atol=1e-12, err_msg=name)
        assert_allclose(rows[:, 2 * m + 1], b, rtol=0, atol=1e-12, err_msg=name)


def test_cli_spectrum_writes_no_traces(tmp_path):
    csv_dir = tmp_path / "traces"
    assert cli.main(["spectrum", "--degree", "2", "--csv-dir", str(csv_dir)]) == 0
    assert not csv_dir.exists()


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
