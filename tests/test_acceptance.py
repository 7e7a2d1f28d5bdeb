"""Acceptance criteria for the verification lab.

One test per criterion, each printing a single pass/fail line (run with
`pytest -s` to see them).  Tolerances are pinned here and nowhere else.

Criterion 4 carries one pinned target value that disagrees with the
exact computation; the substantive identity checks live in
test_criterion_04 and the pinned value is isolated, as stated, in
test_criterion_04_pinned_integral_value (see its docstring).
"""

import time
from fractions import Fraction

import numpy as np

from crsphere import calculus as C
from crsphere import geodesics as G
from crsphere.bounds import check_bound
from crsphere.polynomials import Polynomial
from crsphere.spectrum import (
    kernel_t0sq_shift,
    reeb_kernel_eigenfunctions,
    spectrum_fragment,
    structured_t0sq_kernel,
)
from crsphere.sphere import horizontal_frame, random_horizontal, random_point
from crsphere.suites import Config, canonical_payload_bytes, run_and_report


def _report(num, label, ok, detail=""):
    line = "criterion %02d (%s): %s" % (num, label, "PASS" if ok else "FAIL")
    if detail:
        line += "  [%s]" % detail
    print(line)
    assert ok, line


def test_criterion_01_spectrum_fragments():
    start = time.perf_counter()
    expected = {
        (1, 1): {-2}, (1, 2): {-4, -8}, (1, 3): {-6, -14},
        (2, 1): {-4}, (2, 2): {-8, -12}, (2, 3): {-20, -12},
    }
    ok = True
    for (n, ell), values in expected.items():
        frag = spectrum_fragment(n, ell)
        ok = ok and set(frag.eigenvalues()) == values
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 10.0
    _report(1, "spectrum fragments", ok, "%.2fs" % elapsed)


def test_criterion_02_kernel_dimensions():
    ok = len(kernel_t0sq_shift(1, 2, 4)) == 6
    ok = ok and len(reeb_kernel_eigenfunctions(1)) == 3
    for lam in (1, 2, 3, 5):
        ok = ok and len(kernel_t0sq_shift(1, 2, lam)) == 0
    # two independent routes: structured blocks against brute-force kernels
    for lam in (0, 4):
        brute = kernel_t0sq_shift(1, 2, lam)
        structured = structured_t0sq_kernel(1, 2, lam)
        ok = ok and len(structured) == len(brute)
        ok = ok and all(brute.contains(p) for p in structured)
    _report(2, "kernel dimensions, two routes", ok)


def test_criterion_03_bochner_identity(rng, s3_fields, s5_fields):
    start = time.perf_counter()
    worst = 0.0
    cases = 0
    for n, pool, points in ((1, s3_fields, 7), (2, s5_fields, 11)):
        for f in pool:
            for _ in range(points):
                p = random_point(rng, n)
                worst = max(worst, abs(C.bochner_residual(f, p)))
                cases += 1
    elapsed = time.perf_counter() - start
    ok = cases >= 100 and worst < 1e-8 and elapsed < 60.0
    _report(
        3, "pointwise Bochner identity", ok,
        "%d cases, max %.2e, %.1fs" % (cases, worst, elapsed),
    )


def test_criterion_04_lemmas(rng, s3_fields, s5_fields):
    worst = 0.0
    for i in range(100):
        n, pool = ((1, s3_fields) if i % 2 else (2, s5_fields))
        f = pool[i % len(pool)]
        p = random_point(rng, n)
        worst = max(worst, abs(C.lemma1_residual(f, p)))
    f_x1 = C.ScalarField(Polynomial.variable(4, 0), 1)
    lhs, rhs = C.lemma2_check(f_x1)
    ok = worst < 1e-9 and lhs == rhs
    _report(
        4, "divergence lemma and exact integrated identity", ok,
        "max %.2e, both sides %s" % (worst, lhs),
    )


def test_criterion_04_pinned_integral_value():
    """Pinned common value for the integrated identity at f = x1.

    The stated target is -1/2.  The exact computation gives -1 on both
    sides: the normalized average of (T f)^2 = y1^2 over the 3-sphere is
    1/4, and the identity carries the factor -4n with n = 1.  The same
    -1 is forced independently by integrating the Bochner identity for
    f = x1 (a -1/2 here would drive the integrated squared Hessian
    norm to zero, contradicting its trace lower bound of 1/2).  The
    assertion is kept as stated and is expected to fail.
    """
    f_x1 = C.ScalarField(Polynomial.variable(4, 0), 1)
    lhs, rhs = C.lemma2_check(f_x1)
    ok = lhs == rhs == Fraction(-1, 2)
    _report(4, "pinned value of the integrated identity", ok, "computed %s" % lhs)


def test_criterion_05_commutation_identities(rng, s3_fields):
    worst_h = 0.0
    worst_3 = 0.0
    for i in range(100):
        f = s3_fields[i % len(s3_fields)]
        p = random_point(rng, 1)
        worst_h = max(worst_h, C.tw_hessian(f, p).antisymmetry_residual())
        x = random_horizontal(rng, p)
        y = random_horizontal(rng, p)
        worst_3 = max(worst_3, abs(C.third_commutation_residual(f, p, x.vec, y.vec)))
    ok = worst_h < 1e-8 and worst_3 < 1e-8
    _report(
        5, "Hessian and third-order commutation", ok,
        "hessian %.2e, third %.2e" % (worst_h, worst_3),
    )


def test_criterion_06_connection_axioms(rng):
    worst = [0.0, 0.0, 0.0, 0.0]
    for i in range(100):
        n = 1 if i % 2 else 2
        p = random_point(rng, n)
        vals = C.connection_axiom_residuals(
            p,
            random_horizontal(rng, p),
            random_horizontal(rng, p),
            random_horizontal(rng, p),
        )
        worst = [max(w, v) for w, v in zip(worst, vals)]
    ok = all(w < 1e-9 for w in worst)
    _report(6, "connection axioms", ok, "max %.2e" % max(worst))


def test_criterion_07_route_agreement(rng, s3_fields, s5_fields):
    worst = 0.0
    for i in range(100):
        n, pool = ((1, s3_fields) if i % 2 else (2, s5_fields))
        f = pool[i % len(pool)]
        p = random_point(rng, n)
        worst = max(worst, abs(C.sublaplacian_frame(f, p) - C.sublaplacian_greenleaf(f, p)))
    ok = worst < 1e-8
    _report(7, "frame vs difference-formula sublaplacian", ok, "max %.2e" % worst)


def test_criterion_08_bound_pipeline():
    rep1 = check_bound(1, 3, num_samples=100, seed=0)
    kernel1 = rep1.kernel_entries()
    ok = abs(rep1.k_hat - 4.0) < 1e-12 and abs(rep1.bound - 8.0) < 1e-12
    ok = ok and [e.sublaplacian_eigenvalue for e in kernel1] == [-8]
    ok = ok and rep1.equality(kernel1[0]) and rep1.satisfies(kernel1[0])
    ok = ok and abs(-kernel1[0].sublaplacian_eigenvalue - rep1.bound) <= 1e-12
    rep2 = check_bound(2, 2, num_samples=100, seed=0)
    kernel2 = rep2.kernel_entries()
    ok = ok and abs(rep2.k_hat - 6.0) < 1e-12 and abs(rep2.bound - 8.0) < 1e-12
    ok = ok and [e.sublaplacian_eigenvalue for e in kernel2] == [-12]
    ok = ok and rep2.satisfies(kernel2[0]) and not rep2.equality(kernel2[0])
    _report(8, "curvature floor and eigenvalue bound", ok)


def test_criterion_09_s3_equality_case(rng):
    f = C.ScalarField(2 * (Polynomial.variable(4, 0) * Polynomial.variable(4, 1)
                           + Polynomial.variable(4, 2) * Polynomial.variable(4, 3)), 1)
    x0 = G.s3_max_point(0.0, 1.0)
    frame = horizontal_frame(x0)
    svals = np.linspace(0.0, 2 * np.pi, 721)
    pts = np.array([G.great_circle(x0, frame.vectors[0], s).coords for s in svals])
    trace = G.GeodesicTrace(svals, pts, np.zeros_like(pts), np.zeros(svals.size))
    amp, freq, resid = G.eigen_along_geodesic(f, trace)
    ok = abs(amp - 1.0) < 1e-9 and abs(freq - 2.0) < 1e-9 and resid < 1e-9

    worst33 = 0.0
    for _ in range(25):
        p = random_point(rng, 1)
        block = C.tw_hessian(f, p)
        worst33 = max(
            worst33,
            float(np.max(np.abs(block.horizontal_block() + 4.0 * f.value(p) * np.eye(2)))),
        )
    ok = ok and worst33 < 1e-8

    samples = G.reach_set_half_pi(0.0, 1.0, num_samples=48)
    ok = ok and all(s.set_residual < 1e-8 for s in samples)
    ok = ok and all(s.grad_norm < 1e-9 for s in samples)
    ok = ok and all(abs(s.f_value + 1.0) < 1e-9 for s in samples)
    ok = ok and all(abs(s.hess_tt) < 1e-9 for s in samples)
    _report(
        9, "equality case on the 3-sphere", ok,
        "fit %.1e, hessian %.1e" % (resid, worst33),
    )


def test_criterion_10_geodesic_equivalence(rng):
    worst_match = 0.0
    worst_ham = 0.0
    b_cycle = (0.0, 1.0, -0.7, 0.4, 1.5)
    for i in range(20):
        p = random_point(rng, 1)
        v = random_horizontal(rng, p)
        b = b_cycle[i % len(b_cycle)]
        conn = G.integrate_connection_geodesic(G.GeodesicState(p, v, b), 1.0, 1e-3)
        hj = G.integrate_hj_geodesic(G.cotangent_lift(p, v, b), 1.0, 1e-3)
        worst_match = max(
            worst_match, float(np.max(np.linalg.norm(conn.points - hj.points, axis=1)))
        )
        sp = hj.speed
        worst_ham = max(worst_ham, float(np.max(np.abs(0.5 * sp**2 - 0.5 * sp[0] ** 2))))
    ok = worst_match < 1e-5 and worst_ham < 1e-7
    _report(
        10, "cotangent and connection geodesics agree", ok,
        "match %.2e, drift %.2e" % (worst_match, worst_ham),
    )


def test_criterion_11_contraction_inequality(rng):
    converged = 0
    ok = True
    worst = -np.inf
    for _ in range(100):
        x = random_point(rng, 1)
        y = random_point(rng, 1)
        res = G.cc_distance(x, y)
        if res.converged:
            converged += 1
            gap = G.riemannian_distance(x, y) - res.estimate
            worst = max(worst, gap)
            ok = ok and gap <= 1e-6
    ok = ok and converged >= 95
    _report(
        11, "metric contraction inequality", ok,
        "%d/100 converged, worst d-rho %.2e" % (converged, worst),
    )


def test_criterion_12_determinism():
    ok = True
    for suite, extra in (("spectrum", {"degree": 3}), ("bound", {"degree_max": 3})):
        _, payload_a = run_and_report(Config(suite=suite, n=1, seed=42, **extra))
        _, payload_b = run_and_report(Config(suite=suite, n=1, seed=42, **extra))
        ok = ok and canonical_payload_bytes(payload_a) == canonical_payload_bytes(payload_b)
    _report(12, "deterministic payloads", ok)
