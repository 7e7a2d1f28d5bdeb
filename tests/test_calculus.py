from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from crsphere import calculus as C
from crsphere import sphere
from crsphere.geodesics import Chart
from crsphere.polynomials import Polynomial, sphere_integral
from crsphere.sphere import (
    SpherePoint,
    horizontal_frame,
    random_horizontal,
    random_point,
    random_tangent,
    times_i,
)
from crsphere.spectrum import reeb_kernel_eigenfunctions
from crsphere.suites import Config, field_pool, run_suite


def var(i, m=4):
    return Polynomial.variable(m, i)


def x1_field(n=1):
    return C.ScalarField(Polynomial.variable(2 * n + 2, 0), n)


def kernel_quadratic():
    # 2(x1 x2 + y1 y2): degree-2 harmonic killed by the Reeb field
    return C.ScalarField(2 * (var(0) * var(1) + var(2) * var(3)), 1)


def test_reeb_derivative_values():
    f = x1_field()
    p = SpherePoint(np.array([0.0, 0.0, 1.0, 0.0]), 1)
    assert C.reeb_derivative(f, p) == -1.0
    const = C.ScalarField(Polynomial.constant(4, 7), 1)
    assert C.reeb_derivative(const, p) == 0.0
    assert C.horizontal_gradient(const, p).norm == 0.0


def test_horizontal_gradient_duality(rng):
    f = kernel_quadratic()
    for _ in range(20):
        p = random_point(rng, 1)
        grad = C.horizontal_gradient(f, p)
        assert grad.horizontal
        x = random_horizontal(rng, p)
        xf = sum(g.evaluate(p.coords) * x.vec[k] for k, g in enumerate(f.grad_polys))
        assert abs(float(grad.vec @ x.vec) - xf) < 1e-12
        # no Reeb component in the gradient pairing
        assert abs(float(grad.vec @ times_i(p.coords))) < 1e-12


@pytest.mark.parametrize(
    "terms,factor",
    [
        ({(1, 0, 0, 0): 1}, -2),                      # x1
        ({(1, 1, 0, 0): 1, (0, 0, 1, 1): 1}, -8),      # x1 x2 + y1 y2
        ({(2, 0, 0, 0): 1, (0, 0, 2, 0): -1}, -4),     # x1^2 - y1^2
    ],
)
def test_sublaplacian_eigenfunction_values(rng, terms, factor):
    f = C.ScalarField(Polynomial(4, terms), 1)
    for _ in range(10):
        p = random_point(rng, 1)
        assert abs(C.sublaplacian_greenleaf(f, p) - factor * f.value(p)) < 1e-12


def test_sublaplacian_routes_agree(rng, s3_fields, s5_fields):
    for n, pool in ((1, s3_fields), (2, s5_fields)):
        for i in range(30):
            f = pool[i % len(pool)]
            p = random_point(rng, n)
            assert abs(C.sublaplacian_frame(f, p) - C.sublaplacian_greenleaf(f, p)) < 1e-8


def test_sublaplacian_of_constant(rng):
    const = C.ScalarField(Polynomial.constant(4, 3), 1)
    p = random_point(rng, 1)
    assert C.sublaplacian_greenleaf(const, p) == 0.0
    assert abs(C.sublaplacian_frame(const, p)) < 1e-15


def test_sublaplacian_leibniz(rng):
    # Delta_b(fg) - f Delta_b g - g Delta_b f = 2 G(grad_H f, grad_H g)
    f = x1_field()
    g = kernel_quadratic()
    fg = C.ScalarField(f.poly * g.poly, 1)
    for _ in range(20):
        p = random_point(rng, 1)
        lhs = (
            C.sublaplacian_greenleaf(fg, p)
            - f.value(p) * C.sublaplacian_greenleaf(g, p)
            - g.value(p) * C.sublaplacian_greenleaf(f, p)
        )
        rhs = 2.0 * float(f.grad_h_field.at(p.coords) @ g.grad_h_field.at(p.coords))
        assert abs(lhs - rhs) < 1e-8


# ---------------------------------------------------------------------------
# The adapted connection.
# ---------------------------------------------------------------------------


def test_reeb_field_is_parallel(rng):
    reeb = C.VectorFieldPoly.reeb(1)
    for _ in range(50):
        p = random_point(rng, 1)
        x = random_horizontal(rng, p)
        out = C.tanaka_webster_derivative(p, x, reeb)
        assert np.max(np.abs(out.vec)) < 1e-12


def test_connection_rejects_non_tangent_field():
    field = C.VectorFieldPoly.constant([1, 0, 0, 0], 1)
    p = SpherePoint(np.array([1.0, 0.0, 0.0, 0.0]), 1)
    with pytest.raises(ValueError):
        C.tanaka_webster_derivative(p, np.array([0.0, 1.0, 0.0, 0.0]), field)


def test_connection_axioms(rng):
    for n in (1, 2):
        for _ in range(50):
            p = random_point(rng, n)
            metric, jpar, purity, reeb_par = C.connection_axiom_residuals(
                p,
                random_horizontal(rng, p),
                random_horizontal(rng, p),
                random_horizontal(rng, p),
            )
            assert metric < 1e-9
            assert jpar < 1e-9
            assert purity < 1e-9
            assert reeb_par < 1e-9


def test_metric_compatibility_fd_oracle(rng):
    # central differences along renormalized chords reproduce X(g(Y,Z))
    h = 1e-5
    for _ in range(10):
        p = random_point(rng, 1)
        x = random_horizontal(rng, p)
        y = random_horizontal(rng, p)
        z = random_horizontal(rng, p)
        yf = C.VectorFieldPoly.horizontal_extension(y.vec, 1)
        zf = C.VectorFieldPoly.horizontal_extension(z.vec, 1)

        def g_of(q):
            return float(yf.at(q) @ zf.at(q))

        qp = p.coords + h * x.vec
        qm = p.coords - h * x.vec
        fd = (g_of(qp / np.linalg.norm(qp)) - g_of(qm / np.linalg.norm(qm))) / (2 * h)
        rhs = float(C.tanaka_webster_derivative(p, x, yf).vec @ zf.at(p.coords))
        rhs += float(yf.at(p.coords) @ C.tanaka_webster_derivative(p, x, zf).vec)
        assert abs(fd - rhs) < 1e-6


def test_covariant_derivative_field_matches_pointwise(rng):
    p = random_point(rng, 1)
    x = random_horizontal(rng, p)
    y = random_horizontal(rng, p)
    xf = C.VectorFieldPoly.horizontal_extension(x.vec, 1)
    yf = C.VectorFieldPoly.horizontal_extension(y.vec, 1)
    symbolic = C.covariant_derivative_field(xf, yf).at(p.coords)
    pointwise = C.tanaka_webster_derivative(p, x, yf).vec
    assert_allclose(symbolic, pointwise, atol=1e-12)


# ---------------------------------------------------------------------------
# Hessian.
# ---------------------------------------------------------------------------


def test_hessian_trace_is_sublaplacian(rng, s3_fields):
    for i in range(30):
        f = s3_fields[i % len(s3_fields)]
        p = random_point(rng, 1)
        block = C.tw_hessian(f, p)
        assert abs(block.horizontal_trace() - C.sublaplacian_greenleaf(f, p)) < 1e-8


def test_hessian_antisymmetry_and_reeb_reeb_entry(rng, s3_fields):
    for i in range(20):
        f = s3_fields[i % len(s3_fields)]
        p = random_point(rng, 1)
        block = C.tw_hessian(f, p)  # constructor checks the exchange identity
        assert block.antisymmetry_residual() < 1e-9
        assert abs(block.values[0, 0] - f.t0t0_poly.evaluate(p.coords)) < 1e-10


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_hessian_block_rejects_a_non_finite_entry(rng, s3_fields, bad):
    p = random_point(rng, 1)
    block = C.tw_hessian(s3_fields[0], p)
    values = block.values.copy()
    values[1, 2] = bad
    with pytest.raises(ValueError):
        C.HessianBlock(p, block.frame, values, block.reeb_value)
    # a stacked block is checked point by point: one bad point is enough
    points = [p, random_point(rng, 1), random_point(rng, 1)]
    stacked = C.tw_hessian(s3_fields[0], points)
    values = stacked.values.copy()
    values[1, 1, 2] = bad
    with pytest.raises(ValueError):
        C.HessianBlock(stacked.base, stacked.frame, values, stacked.reeb_value)
    with pytest.raises(ValueError, match="wrong shape"):
        C.HessianBlock(stacked.base, stacked.frame, stacked.values[:2], stacked.reeb_value[:2])


def test_hessian_form_extension_independent(rng):
    # same value from a tangent (not horizontal) extension of the slot
    f = kernel_quadratic()
    for _ in range(10):
        p = random_point(rng, 1)
        u = random_horizontal(rng, p)
        v = random_horizontal(rng, p)
        form_val = C.hessian_form(f, p)(u.vec, v.vec)
        # v - <v,q> q: tangent on the whole sphere, equal to v at p
        seed = [Fraction(float(c)) for c in v.vec]
        v_dot_q = sum((c * var(k) for k, c in enumerate(seed)), Polynomial(4))
        ext = C.VectorFieldPoly(
            [Polynomial.constant(4, c) - v_dot_q * var(k) for k, c in enumerate(seed)], 1
        )
        vf_poly = ext.apply_to(f.poly)
        lead = sum(
            vf_poly.partial(k).evaluate(p.coords) * u.vec[k] for k in range(4)
        )
        drift = C.tanaka_webster_derivative(p, u, ext).vec
        grad = np.array([g.evaluate(p.coords) for g in f.grad_polys])
        assert abs(form_val - (lead - float(drift @ grad))) < 1e-12


def test_hessian_norm_matches_covariant_gradient_norms(rng, s3_fields):
    # |pi_H Hess f|^2 = sum_j |nabla_{X_j} grad_H f|^2
    for i in range(10):
        f = s3_fields[i % len(s3_fields)]
        p = random_point(rng, 1)
        block = C.tw_hessian(f, p)
        total = 0.0
        for e in block.frame.vectors:
            total += float(
                np.sum(C.tanaka_webster_derivative(p, e, f.grad_h_field).vec ** 2)
            )
        assert abs(block.horizontal_norm_sq() - total) < 1e-8


def test_equality_case_hessian_identity(rng):
    # kernel eigenfunctions at the bound: pi_H Hess f = -4 f G
    for poly in reeb_kernel_eigenfunctions(1).polys:
        f = C.ScalarField(poly, 1)
        for _ in range(10):
            p = random_point(rng, 1)
            block = C.tw_hessian(f, p)
            resid = np.max(
                np.abs(block.horizontal_block() + 4.0 * f.value(p) * np.eye(2))
            )
            assert resid < 1e-8


def test_cauchy_schwarz_trace_inequality(rng, s3_fields, s5_fields):
    for n, pool in ((1, s3_fields), (2, s5_fields)):
        for i in range(20):
            f = pool[i % len(pool)]
            p = random_point(rng, n)
            block = C.tw_hessian(f, p)
            delta = C.sublaplacian_greenleaf(f, p)
            assert block.horizontal_norm_sq() >= delta**2 / (2 * n) - 1e-10


# ---------------------------------------------------------------------------
# Curvature.
# ---------------------------------------------------------------------------


def test_ricci_values(rng):
    for n, expected in ((1, 4.0), (2, 6.0)):
        for _ in range(20):
            p = random_point(rng, n)
            x = random_horizontal(rng, p)
            assert abs(C.ricci(p, x) - expected) < 1e-9


def test_ricci_quadratic_scaling(rng):
    p = random_point(rng, 1)
    x = random_horizontal(rng, p)
    assert abs(C.ricci(p, 2.0 * x.vec) - 4.0 * C.ricci(p, x)) < 1e-9


def test_ricci_rejects_non_horizontal(rng):
    p = random_point(rng, 1)
    with pytest.raises(ValueError):
        C.ricci(p, p.reeb_coords())


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_ricci_rejects_non_finite(bad):
    q = SpherePoint(np.array([1.0, 0.0, 0.0, 0.0]), 1)
    p = SpherePoint(np.array([0.6, 0.0, 0.8, 0.0]), 1)
    for base in (q, p):
        for k in range(4):
            x = np.zeros(4)
            x[k] = bad
            with pytest.raises(ValueError):
                C.ricci(base, x)


def test_stacked_ricci_matches_the_one_point_values(rng):
    for n in (1, 2, 3):
        points, (xs,) = random_point(rng, n, 30, slots=1)
        got = C.ricci(points, 2.0 * xs)
        assert got.shape == (30,)
        for p, x, value in zip(points, xs, got):
            assert value == C.ricci(p, 2.0 * x)
            _assert_close(value, ricci_reference(p, 2.0 * x))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, "radial", "reeb", "point"])
def test_stacked_ricci_rejects_a_poisoned_row(rng, bad):
    for row in range(3):
        points, (xs,) = random_point(rng, 2, 3, slots=1)
        points, xs = list(points), xs.copy()
        if bad == "radial":
            xs[row] += 1e-6 * points[row].coords
        elif bad == "reeb":
            xs[row] += 1e-6 * points[row].reeb_coords()
        elif bad == "point":  # a point off the sphere, its vector still at the old point
            points[row] = SpherePoint(points[row].coords.copy(), 2)
            points[row].coords[:] *= 1.0 + 1e-9
        else:
            xs[row, 4] = bad
        with pytest.raises(ValueError):
            C.ricci(points, xs)
    with pytest.raises(ValueError):
        C.ricci(points, xs[:2])


def rational_point(rng, n):
    """A rational point of the sphere and its exact coordinates.

    Chart.from_coords maps u to q = (2u/d, (d - 2)/d) with d = |u|^2 + 1,
    so a small-integer u gives a point with small denominators.
    """
    u = [int(v) for v in rng.integers(-3, 4, size=2 * n + 1)]
    d = sum(v * v for v in u) + 1
    exact = [Fraction(2 * v, d) for v in u] + [Fraction(d - 2, d)]
    p = SpherePoint(Chart(n, 1).from_coords(np.array(u, dtype=float)), n)
    assert list(p.coords) == [float(v) for v in exact]
    return p, exact


def rational_horizontal(rng, exact):
    """P v for a small-integer v, with P = I - q q^T - (iq)(iq)^T: exact and horizontal."""
    half = len(exact) // 2
    iq = [-v for v in exact[half:]] + exact[:half]
    v = [int(c) for c in rng.integers(-3, 4, size=len(exact))]
    along_q = sum(a * b for a, b in zip(v, exact))
    along_iq = sum(a * b for a, b in zip(v, iq))
    return [a - along_q * b - along_iq * c for a, b, c in zip(v, exact, iq)]


def test_curvature_formula_matches_connection(rng):
    # Rational inputs keep the symbolic connection's fields small.
    for n in (1, 2):
        for _ in range(5):
            p, exact = rational_point(rng, n)
            x, y, z = (rational_horizontal(rng, exact) for _ in range(3))
            zf = C.VectorFieldPoly.horizontal_extension(z, n)
            via_conn = C.curvature_via_connection(p, x, y, zf)
            floats = [np.array([float(c) for c in v]) for v in (x, y, z)]
            via_formula = C.curvature_sphere(p, *floats)
            assert_allclose(via_conn, via_formula, atol=1e-12)
    # One float-seeded case: the extensions come from binary fractions.
    p = random_point(rng, 1)
    x, y, z = (random_horizontal(rng, p).vec for _ in range(3))
    zf = C.VectorFieldPoly.horizontal_extension(z, 1)
    via_conn = C.curvature_via_connection(p, x, y, zf)
    assert_allclose(via_conn, C.curvature_sphere(p, x, y, z), atol=1e-12)


# ---------------------------------------------------------------------------
# The operator L and the integral identities.
# ---------------------------------------------------------------------------


def test_operator_l_first_term_vanishes_in_reeb_kernel(rng):
    f = kernel_quadratic()
    for _ in range(10):
        p = random_point(rng, 1)
        term1, _ = C.operator_l_parts(f, p)
        assert abs(term1) < 1e-14


def test_operator_l_constant_field(rng):
    const = C.ScalarField(Polynomial.constant(4, 2), 1)
    p = random_point(rng, 1)
    assert C.operator_l(const, p) == 0.0


def test_operator_l_average_x1():
    f = x1_field()
    avg = sphere_integral(f.l_operator_poly)
    assert avg == -4 * 1 * sphere_integral(f.t0_poly * f.t0_poly)
    assert avg == Fraction(-1)


def test_lemma1_divergence_value(rng):
    # div(J grad_H x1) = -2 y1 on S^3
    f = x1_field()
    for _ in range(20):
        p = random_point(rng, 1)
        div = C.divergence(p, f.grad_h_field.times_i())
        assert abs(div + 2.0 * p.coords[2]) < 1e-12
        assert abs(C.lemma1_residual(f, p)) < 1e-9


def test_lemma1_random_fields(rng, s3_fields, s5_fields):
    for n, pool in ((1, s3_fields), (2, s5_fields)):
        for i in range(20):
            f = pool[i % len(pool)]
            p = random_point(rng, n)
            assert abs(C.lemma1_residual(f, p)) < 1e-9


def test_lemma2_exact_equality(s3_fields):
    for f in (x1_field(), s3_fields[0], kernel_quadratic()):
        lhs, rhs = C.lemma2_check(f)
        assert lhs == rhs


def test_lemma2_reeb_kernel_field():
    f = kernel_quadratic()
    lhs, rhs = C.lemma2_check(f)
    assert rhs == 0
    assert lhs == 0


# ---------------------------------------------------------------------------
# Bochner identity and the third-order exchange.
# ---------------------------------------------------------------------------


def test_bochner_constant_field(rng):
    const = C.ScalarField(Polynomial.constant(4, 5), 1)
    p = random_point(rng, 1)
    assert abs(C.bochner_residual(const, p)) < 1e-15


def test_bochner_x1(rng):
    f = x1_field()
    for _ in range(20):
        p = random_point(rng, 1)
        assert abs(C.bochner_residual(f, p)) < 1e-8


def test_bochner_random_fields(rng, s3_fields, s5_fields):
    for n, pool in ((1, s3_fields), (2, s5_fields)):
        for i in range(10):
            f = pool[i % len(pool)]
            p = random_point(rng, n)
            assert abs(C.bochner_residual(f, p)) < 1e-8


# ---------------------------------------------------------------------------
# The Bochner left side from |grad f|^2, the Euler field and T0 f, and the
# horizontal gradient by the product rule.
# ---------------------------------------------------------------------------


def _reference_grad_h_sq(f):
    g = f.grad_h_field
    return g.dot(g)


def _assert_grad_h_sq_restricts_to_reference(f):
    # q . grad f and iq . grad f straight from the partials, without the
    # Euler sum or t0_apply the property under test uses
    m = 2 * f.n + 2
    q = C.VectorFieldPoly.coordinate_field(f.n)
    grad = C.VectorFieldPoly(f.grad_polys, f.n)
    radial, reebward = q.dot(grad), q.times_i().dot(grad)
    q_sq_minus_one = Polynomial.constant(m, -1)
    for k in range(m):
        q_sq_minus_one = q_sq_minus_one + var(k, m) * var(k, m)
    expected = (radial * radial + reebward * reebward) * q_sq_minus_one
    assert _reference_grad_h_sq(f) - f.grad_h_sq_poly == expected


def _integer_polys(n):
    m = 2 * n + 2
    exps = st.tuples(*[st.integers(0, 2)] * m).filter(lambda e: sum(e) <= 4)
    terms = st.dictionaries(exps, st.integers(-3, 3), min_size=1, max_size=6)
    return terms.map(lambda t: C.ScalarField(Polynomial(m, t), n))


def _rational_sphere_point(u):
    # inverse stereographic projection: q = (2u/d, (d-2)/d), d = |u|^2 + 1
    d = sum(x * x for x in u) + 1
    return [2 * x / d for x in u] + [(d - 2) / d]


def _rational_points(rng, n, count):
    def coord():
        return Fraction(int(rng.integers(-5, 6)), int(rng.integers(1, 6)))

    return [_rational_sphere_point([coord() for _ in range(2 * n + 1)]) for _ in range(count)]


def test_grad_h_sq_poly_restricts_to_reference(s3_fields, s5_fields):
    for f in (*s3_fields[:3], *s5_fields[:2]):
        _assert_grad_h_sq_restricts_to_reference(f)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 2).flatmap(_integer_polys))
def test_grad_h_sq_poly_restricts_to_reference_non_homogeneous(f):
    _assert_grad_h_sq_restricts_to_reference(f)


def test_bochner_lhs_poly_exact_at_rational_points(rng, s3_fields, s5_fields):
    for f in (*s3_fields[:2], s5_fields[0]):
        reference = C.sublaplacian_polynomial(_reference_grad_h_sq(f), f.n)
        for q in _rational_points(rng, f.n, 3):
            assert sum(x * x for x in q) == 1
            assert f.bochner_lhs_poly.evaluate_exact(q) == reference.evaluate_exact(q)


@settings(max_examples=25, deadline=None)
@given(_integer_polys(1), st.integers(0, 2**32 - 1))
def test_bochner_lhs_poly_exact_non_homogeneous(f, seed):
    reference = C.sublaplacian_polynomial(_reference_grad_h_sq(f), 1)
    for q in _rational_points(np.random.default_rng(seed), 1, 2):
        assert f.bochner_lhs_poly.evaluate_exact(q) == reference.evaluate_exact(q)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_pi_h_deriv_matches_symbolic_horizontal_gradient(n, rng):
    for f in field_pool(np.random.default_rng(30 + n), n, 2):
        g = f.grad_h_field
        for _ in range(2):
            p = random_point(rng, n)
            q = p.coords
            grad, hess = C._grad_hess(f, q)
            for u in (times_i(q), random_tangent(rng, p).vec):
                val, dval = C._pi_h_deriv(q, u, grad, hess @ u)
                assert_allclose(val, g.at(q), rtol=0, atol=1e-12)
                assert_allclose(dval, g.jacobian_at(q) @ u, rtol=0, atol=1e-12)
            # a stack of directions gives one derivative per row
            rows = np.concatenate(([times_i(q)], random_tangent(rng, p).vec[None]))
            _, drows = C._pi_h_deriv(q, rows, grad, rows @ hess)
            assert_allclose(drows, rows @ g.jacobian_at(q).T, rtol=0, atol=1e-12)


def test_symbolic_and_pointwise_routes_stay_apart(monkeypatch, rng, s3_fields):
    def forbidden(*args):
        raise AssertionError("route crossed")

    f, g = s3_fields[0], C.ScalarField(s3_fields[1].poly, 1)
    p = random_point(rng, 1)
    x, y = random_horizontal(rng, p).vec, random_horizontal(rng, p).vec
    # the pointwise routes read neither exact Bochner polynomial
    monkeypatch.setattr(C.ScalarField, "grad_h_sq_poly", property(forbidden))
    monkeypatch.setattr(C.ScalarField, "bochner_lhs_poly", property(forbidden))
    C.tw_hessian(f, p)
    C.sublaplacian_frame(f, p)
    C.operator_l_parts(f, p)
    C.third_commutation_residual(f, p, x, y)
    monkeypatch.undo()
    # and the exact left side reads no pointwise helper (g has no caches yet)
    for name in ("_grad_hess", "_pi_h_vec", "_pi_h_deriv", "_hessian_form_at"):
        monkeypatch.setattr(C, name, forbidden)
    assert not g.bochner_lhs_poly.is_zero()


def test_third_commutation_antisymmetric_slot(rng, s3_fields):
    f = s3_fields[0]
    p = random_point(rng, 1)
    x = random_horizontal(rng, p)
    # identical slots: everything cancels up to rounding in Omega(x, x)
    assert abs(C.third_commutation_residual(f, p, x.vec, x.vec)) < 1e-12


def test_third_commutation_random(rng, s3_fields, s5_fields):
    for n, pool in ((1, s3_fields), (2, s5_fields)):
        for i in range(20):
            f = pool[i % len(pool)]
            p = random_point(rng, n)
            x = random_horizontal(rng, p)
            y = random_horizontal(rng, p)
            assert abs(C.third_commutation_residual(f, p, x.vec, y.vec)) < 1e-8


def test_third_commutation_reeb_kernel_field(rng):
    # T f = 0 forces T^2 f = 0: the identity collapses to pure antisymmetry
    f = kernel_quadratic()
    assert f.t0_poly.is_zero()
    assert f.t0t0_poly.is_zero()
    for _ in range(10):
        p = random_point(rng, 1)
        x = random_horizontal(rng, p)
        y = random_horizontal(rng, p)
        assert abs(C.third_commutation_residual(f, p, x.vec, y.vec)) < 1e-8


def _hessian_biform_poly(f, A, B):
    """Reference: (nabla^2 f)(A, B) as one polynomial, for polynomial fields."""
    n = f.n
    q = C.VectorFieldPoly.coordinate_field(n)
    iq = q.times_i()
    grad = C.VectorFieldPoly(f.grad_polys, n)
    hess_term = Polynomial(2 * n + 2)
    for i, row in enumerate(f.hess_polys):
        for j, h in enumerate(row):
            hess_term = hess_term + A.comps[i] * h * B.comps[j]
    ja = A.pi_h().times_i()
    jb = B.pi_h().times_i()
    omega = A.pi_h().dot(jb)
    return (
        hess_term
        - A.dot(B) * q.dot(grad)
        + omega * iq.dot(grad)
        + A.dot(iq) * jb.dot(grad)
        + B.dot(iq) * ja.dot(grad)
    )


@pytest.mark.parametrize("n, points", [(1, 3), (2, 1)])
def test_hessian_form_derivative_matches_symbolic_biform(n, points, rng, s3_fields, s5_fields):
    # The product-rule leading term of the third-order check against u . grad
    # of the symbolic biform.  (T, E_v) is the pair the check uses; the offset
    # pair has Reeb and radial parts, so no term of the expansion vanishes.
    pool = s3_fields if n == 1 else s5_fields
    ext, const = C.VectorFieldPoly.horizontal_extension, C.VectorFieldPoly.constant
    for i in range(points):
        f = pool[i % len(pool)]
        p = random_point(rng, n)
        q = p.coords
        u, v, w = (random_horizontal(rng, p).vec for _ in range(3))
        ca, cb = (rng.integers(-4, 5, size=2 * n + 2) / 4 for _ in range(2))
        grad, hess = C._grad_hess(f, q)
        third = np.array([[[d.evaluate(q) for d in row] for row in plane] for plane in f.third_polys])
        e_v = (ext(v, n), C._pi_h_vec(q, v), C._ext_deriv(q, u, v))
        pairs = (
            ((C.VectorFieldPoly.reeb(n), times_i(q), times_i(u)), e_v),
            ((ext(w, n) + const(ca, n), C._pi_h_vec(q, w) + ca, C._ext_deriv(q, u, w)),
             (e_v[0] + const(cb, n), e_v[1] + cb, e_v[2])),
        )
        for (A, a, da), (B, b, db) in pairs:
            biform = _hessian_biform_poly(f, A, B)
            expected = sum(g.evaluate(q) * u[k] for k, g in enumerate(biform.gradient()))
            got = C._hessian_form_derivative(q, u, a, da, b, db, grad, hess, third @ u)
            assert abs(got - expected) < 1e-10


# ---------------------------------------------------------------------------
# Integral consequences for eigenfunctions.
# ---------------------------------------------------------------------------


def test_rayleigh_identity_exact():
    # ||grad_H f||^2 = -mu ||f||^2, both sides exact rationals
    from crsphere.spectrum import spectrum_fragment

    for ell in (1, 2):
        for entry in spectrum_fragment(1, ell).entries:
            f = C.ScalarField(entry.eigenbasis.polys[0], 1)
            mu = entry.sublaplacian_eigenvalue
            lhs = sphere_integral(f.grad_h_sq_poly)
            rhs = -mu * sphere_integral(f.poly * f.poly)
            assert lhs == rhs


# ---------------------------------------------------------------------------
# The linear-algebra lemma behind the equality case.
# ---------------------------------------------------------------------------


@settings(max_examples=30, deadline=None)
@given(st.floats(-5, 5), st.integers(2, 6))
def test_trace_gap_vanishes_only_on_multiples_of_identity(c, m):
    mat = c * np.eye(m)
    assert abs(C.trace_equality_gap(mat)) < 1e-9
    assert_allclose(C.reconstruct_from_trace(mat), mat, atol=1e-12)


@settings(max_examples=30, deadline=None)
@given(st.floats(-3, 3), st.integers(2, 5), st.integers(0, 10_000))
def test_trace_gap_positive_off_identity(c, m, seed):
    rng = np.random.default_rng(seed)
    perturb = rng.standard_normal((m, m))
    perturb -= (np.trace(perturb) / m) * np.eye(m)  # trace-free part
    if np.max(np.abs(perturb)) < 1e-3:
        perturb = np.eye(m) * 0.0
        perturb[0, 1] = 1.0
    mat = c * np.eye(m) + perturb
    assert C.trace_equality_gap(mat) > 0.0


# ---------------------------------------------------------------------------
# The per-vector frame traces, kept as oracles for the matrix path: each
# makes one call per frame entry, as the library did before its traces
# became one expression over the rows [T; X_1..X_2n].
# ---------------------------------------------------------------------------


def _pi_h_reference(q, v):
    t = times_i(q)
    return v - (q @ v) * q - (t @ v) * t


def _big_j_reference(q, v):
    return times_i(_pi_h_reference(q, v))


def _omega_reference(q, u, v):
    return float(_pi_h_reference(q, u) @ times_i(_pi_h_reference(q, v)))


def _cov_deriv_reference(q, u, y, dy):
    t = times_i(q)
    return (
        dy
        + float(u @ y) * q
        - _omega_reference(q, u, y) * t
        - float(t @ u) * _big_j_reference(q, y)
        - float(t @ y) * _big_j_reference(q, u)
    )


def _ext_deriv_reference(q, u, v):
    t = times_i(q)
    iu = times_i(u)
    return -float(v @ u) * q - float(v @ q) * u - float(v @ iu) * t - float(v @ t) * iu


def hessian_form_reference(q, grad, hess):
    t = times_i(q)
    radial = float(q @ grad)
    reebward = float(t @ grad)

    def form(u, v):
        val = float(u @ hess @ v) - float(u @ v) * radial
        val += _omega_reference(q, u, v) * reebward
        val += float(t @ u) * float(_big_j_reference(q, v) @ grad)
        val += float(t @ v) * float(_big_j_reference(q, u) @ grad)
        return val

    return form


def _frame_rows_reference(p):
    return [p.reeb_coords(), *(x.vec for x in horizontal_frame(p).vectors)]


def tw_hessian_reference(f, p):
    form = hessian_form_reference(p.coords, *C._grad_hess(f, p.coords))
    rows = _frame_rows_reference(p)
    return np.array([[form(u, v) for v in rows] for u in rows])


def curvature_reference(x, y, z):
    jx, jy, jz = times_i(x), times_i(y), times_i(z)
    return (
        float(y @ z) * x
        - float(x @ z) * y
        + float(jy @ z) * jx
        - float(jx @ z) * jy
        - 2.0 * float(jx @ y) * jz
    )


def ricci_reference(p, x):
    return sum(float(curvature_reference(e, x, x) @ e) for e in _frame_rows_reference(p)[1:])


def divergence_reference(p, V):
    q = p.coords
    y_at, jac = V.at(q), V.jacobian_at(q)
    return sum(
        float(_cov_deriv_reference(q, e, y_at, jac @ e) @ e) for e in _frame_rows_reference(p)
    )


def sublaplacian_frame_reference(f, p):
    q = p.coords
    grad, hess = C._grad_hess(f, q)
    total = 0.0
    for x in _frame_rows_reference(p)[1:]:
        dx = _ext_deriv_reference(q, x, x)
        second = float(x @ hess @ x) + float(dx @ grad)
        drift = _cov_deriv_reference(q, x, _pi_h_reference(q, x), dx)
        total += second - float(drift @ grad)
    return total


@lru_cache(maxsize=None)
def _trace_fields(n):
    return tuple(field_pool(np.random.default_rng(70 + n), n, 3))


def _trace_point(n, kind, k, sign, seed):
    """A random point, a coordinate axis (E1 when k = 0) or a point near one.

    At and near the axes horizontal_frame skips seeds whose projection
    is short.
    """
    rng = np.random.default_rng(seed)
    if kind == "random":
        return random_point(rng, n)
    v = np.zeros(2 * n + 2)
    v[k % (2 * n + 2)] = sign
    if kind == "near_axis":
        v = v + 1e-3 * rng.standard_normal(v.size)
    return SpherePoint(v / np.linalg.norm(v), n)


def _assert_close(got, ref, tol=1e-13):
    # within tol, relative to the size of the reference once it exceeds 1
    scale = max(1.0, float(np.max(np.abs(ref))))
    assert np.max(np.abs(np.asarray(got) - ref)) <= tol * scale


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 3),
    st.sampled_from(["random", "axis", "near_axis"]),
    st.integers(0, 7),
    st.sampled_from([1.0, -1.0]),
    st.integers(0, 2),
    st.integers(0, 2**32 - 1),
)
def test_frame_traces_match_per_vector_references(n, kind, k, sign, which, seed):
    f = _trace_fields(n)[which]
    p = _trace_point(n, kind, k, sign, seed)
    rng = np.random.default_rng(seed + 1)
    block = C.tw_hessian(f, p)
    _assert_close(block.values, tw_hessian_reference(f, p))
    u, v = random_horizontal(rng, p).vec, random_tangent(rng, p).vec
    reference_form = hessian_form_reference(p.coords, *C._grad_hess(f, p.coords))
    _assert_close(C.hessian_form(f, p)(u, v), reference_form(u, v))
    x = 3.0 * random_horizontal(rng, p).vec
    _assert_close(C.ricci(p, x), ricci_reference(p, x))
    V = f.j_grad_h_field
    _assert_close(C.divergence(p, V), divergence_reference(p, V))
    _assert_close(C.sublaplacian_frame(f, p), sublaplacian_frame_reference(f, p))
    gh = C.horizontal_gradient(f, p).vec
    _assert_close(C._ricci_trace(p, block.frame.matrix(), gh), ricci_reference(p, gh))


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 3), st.integers(0, 2**32 - 1))
def test_curvature_rows_match_per_vector_reference(n, seed):
    rng = np.random.default_rng(seed)
    p = random_point(rng, n)
    rows = horizontal_frame(p).matrix()
    y, z = random_horizontal(rng, p).vec, random_horizontal(rng, p).vec
    stacked = C.curvature_sphere(p, rows, y, z)
    for row, out in zip(rows, stacked):
        _assert_close(out, curvature_reference(row, y, z))
    _assert_close(C.curvature_sphere(p, rows[0], y, z), curvature_reference(rows[0], y, z))


def test_frame_traces_call_times_i_a_bounded_number_of_times(monkeypatch):
    # each trace is one expression over the frame rows: the number of
    # sphere.times_i calls must not grow with the (2n+1)^2 frame entries
    # (the per-entry traces made 362 calls for tw_hessian and 35 for
    # ricci at n = 3)
    calls = []

    def counting(v):
        calls.append(1)
        return times_i(v)

    n = 3
    f = _trace_fields(n)[0]
    rng = np.random.default_rng(5)
    p = random_point(rng, n)
    x = random_horizontal(rng, p)
    C.tw_hessian(f, p)  # build f's cached polynomials first
    monkeypatch.setattr(C, "times_i", counting)
    monkeypatch.setattr(sphere, "times_i", counting)
    for run in (lambda: C.tw_hessian(f, p), lambda: C.ricci(p, x)):
        calls.clear()
        run()
        assert 0 < len(calls) < 20


# ---------------------------------------------------------------------------
# One point jet per point: the evaluators read frame, flat jet and T0 f once.
# ---------------------------------------------------------------------------


def lemma1_residual_reference(f, p):
    """The route lemma1_residual replaced, kept as its oracle: the symbolic
    J grad_H f and its Jacobian evaluated at p, traced by `divergence`."""
    return C.divergence(p, f.j_grad_h_field) - 2.0 * f.n * f.t0_poly.evaluate(p)


def third_partials_reference(f, q):
    """The m^3 evaluations the symmetric fill replaced, kept as its oracle."""
    return np.array([[[d.evaluate(q) for d in row] for row in plane] for plane in f.third_polys])


@settings(max_examples=40, deadline=None)
@given(
    st.integers(1, 3),
    st.sampled_from(["random", "axis", "near_axis"]),
    st.integers(0, 7),
    st.sampled_from([1.0, -1.0]),
    st.integers(0, 2),
    st.integers(0, 2**32 - 1),
)
def test_lemma1_on_the_jet_matches_the_divergence_route(n, kind, k, sign, which, seed):
    f = _trace_fields(n)[which]
    p = _trace_point(n, kind, k, sign, seed)
    assert abs(C.lemma1_residual(f, p) - lemma1_residual_reference(f, p)) <= 1e-12


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 3).flatmap(_integer_polys), st.integers(0, 2**32 - 1))
def test_symmetric_third_partials_match_every_entry(f, seed):
    m = 2 * f.n + 2
    polys = f.third_polys
    for i in range(m):
        for j in range(m):
            for k in range(m):
                a, b, c = sorted((i, j, k))
                assert polys[i][j][k] == polys[a][b][c]
    p = random_point(np.random.default_rng(seed), f.n)
    third = C.point_jet(f, p).third
    assert third.tobytes() == third_partials_reference(f, p.coords).tobytes()


@pytest.mark.parametrize("n", [1, 2, 3])
def test_jet_route_is_bitwise_the_point_route(n, rng):
    # the one-point jet, the SpherePoint and a stack of one give the same bits
    f = _trace_fields(n)[0]
    points = [random_point(rng, n) for _ in range(3)]
    lhs = C.bochner_lhs(f, points)
    per_point = [0.5 * f.bochner_lhs_poly.evaluate(p) for p in points]
    assert lhs.tobytes() == np.array(per_point).tobytes()
    for p, left in zip(points, lhs):
        jet, one = C.point_jet(f, p), C.point_jet(f, [p])
        x, y, z = (random_horizontal(rng, p).vec for _ in range(3))
        u, v = random_tangent(rng, p).vec, random_tangent(rng, p).vec
        assert C.tw_hessian(f, jet) is C.tw_hessian(f, jet)
        values = C.tw_hessian(f, jet).values.tobytes()
        assert values == C.tw_hessian(f, p).values.tobytes() == C.tw_hessian(f, one).values[0].tobytes()
        for method in ("horizontal_trace", "horizontal_norm_sq", "antisymmetry_residual"):
            got = getattr(C.tw_hessian(f, one), method)()
            assert got.shape == (1,) and got[0] == getattr(C.tw_hessian(f, jet), method)()
        assert C.hessian_form(f, jet)(u, v) == C.hessian_form(f, p)(u, v)
        assert C.hessian_form(f, one)(u[None], v[None])[0] == C.hessian_form(f, p)(u, v)
        assert left == C.bochner_lhs(f, p) == C.bochner_lhs(f, jet)
        for evaluator in (C.sublaplacian_frame, C.sublaplacian_greenleaf, C.bochner_residual,
                          C.lemma1_residual, C.bochner_lhs):
            stacked = evaluator(f, one)
            assert stacked.shape == (1,)
            assert evaluator(f, jet) == evaluator(f, p) == stacked[0]
        assert C.operator_l_parts(f, jet) == C.operator_l_parts(f, p)
        assert C.operator_l_parts(f, p) == tuple(part[0] for part in C.operator_l_parts(f, one))
        third = C.third_commutation_residual
        assert third(f, jet, x, y) == third(f, p, x, y) == third(f, one, x[None], y[None])[0]
        axioms = C.connection_axiom_residuals([p], x[None], y[None], z[None])
        assert C.connection_axiom_residuals(p, x, y, z) == tuple(r[0] for r in axioms)
    for empty in (C.point_jet, C.bochner_lhs):
        with pytest.raises(ValueError):
            empty(f, [])


def test_stacked_directions_must_match_the_points(rng):
    f, g = _trace_fields(1)[:2]
    points = [random_point(rng, 1) for _ in range(3)]
    jet = C.point_jet(f, points)
    xs, ys = (np.array([random_horizontal(rng, p).vec for p in points]) for _ in range(2))
    for bad in (xs[:2], xs[:, :3], xs[0], np.concatenate((xs, xs[:1]))):
        with pytest.raises(ValueError, match="directions of shape"):
            C.third_commutation_residual(f, jet, bad, ys)
        with pytest.raises(ValueError, match="directions of shape"):
            C.connection_axiom_residuals(points, ys, bad, ys)
    with pytest.raises(ValueError, match="directions of shape"):
        C.third_commutation_residual(f, points[0], xs, ys)
    with pytest.raises(ValueError, match="another field"):
        C.lemma1_residual(g, jet)
    with pytest.raises(ValueError, match="another field"):
        C.third_commutation_residual(g, jet, xs, ys)


# ---------------------------------------------------------------------------
# Stacked point jets: each evaluator runs once over all of a field's points.
# The one-point bodies it replaced are kept here as its oracles, written
# with the per-vector references above.
# ---------------------------------------------------------------------------


def _pi_h_deriv_reference(q, u, w, dw):
    t, dt = times_i(q), times_i(u)
    dval = (
        dw - float(u @ w + dw @ q) * q - float(q @ w) * u
        - float(dt @ w + dw @ t) * t - float(t @ w) * dt
    )
    return _pi_h_reference(q, w), dval


def _hessian_form_derivative_reference(q, u, a, da, b, db, grad, hess, dhess):
    t, dt = times_i(q), times_i(u)
    dgrad = hess @ u
    pa, dpa = _pi_h_deriv_reference(q, u, a, da)
    pb, dpb = _pi_h_deriv_reference(q, u, b, db)
    ja, dja = times_i(pa), times_i(dpa)
    jb, djb = times_i(pb), times_i(dpb)
    return float(
        da @ hess @ b + a @ dhess @ b + a @ hess @ db
        - (da @ b + a @ db) * (q @ grad) - (a @ b) * (u @ grad + q @ dgrad)
        + (dpa @ jb + pa @ djb) * (t @ grad) + (pa @ jb) * (dt @ grad + t @ dgrad)
        + (dt @ a + t @ da) * (jb @ grad) + (t @ a) * (djb @ grad + jb @ dgrad)
        + (dt @ b + t @ db) * (ja @ grad) + (t @ b) * (dja @ grad + ja @ dgrad)
    )


def third_commutation_residual_reference(f, p, x, y):
    q = p.coords
    grad, hess = C._grad_hess(f, q)
    third = third_partials_reference(f, q)
    form = hessian_form_reference(q, grad, hess)
    t = times_i(q)

    def third_order(u, v):
        v_at, dv = _pi_h_reference(q, v), _ext_deriv_reference(q, u, v)
        leading = _hessian_form_derivative_reference(
            q, u, t, times_i(u), v_at, dv, grad, hess, third @ u
        )
        nabla_u_t = _cov_deriv_reference(q, u, t, times_i(u))
        nabla_u_v = _cov_deriv_reference(q, u, v_at, dv)
        return leading - form(nabla_u_t, v_at) - form(t, nabla_u_v)

    f00 = f.t0t0_poly.evaluate(q)
    return third_order(x, y) - third_order(y, x) - 2.0 * _omega_reference(q, x, y) * f00


def connection_axiom_residuals_reference(p, x, y, z):
    q = p.coords
    t = times_i(q)
    y_at, z_at = _pi_h_reference(q, y), _pi_h_reference(q, z)
    dy, dz = _ext_deriv_reference(q, x, y), _ext_deriv_reference(q, x, z)
    nabla_x_y = _cov_deriv_reference(q, x, y_at, dy)
    nabla_x_z = _cov_deriv_reference(q, x, z_at, dz)
    lhs = float(dy @ z_at) + float(y_at @ dz)
    rhs = float(nabla_x_y @ z_at) + float(y_at @ nabla_x_z)
    metric = abs(lhs - rhs)

    iy = times_i(y)
    nabla_x_jy = _cov_deriv_reference(q, x, _pi_h_reference(q, iy), _ext_deriv_reference(q, x, iy))
    j_parallel = float(np.max(np.abs(nabla_x_jy - _big_j_reference(q, nabla_x_y))))

    nabla_y_x = _cov_deriv_reference(q, y, _pi_h_reference(q, x), _ext_deriv_reference(q, y, x))
    bracket = _ext_deriv_reference(q, x, y) - _ext_deriv_reference(q, y, x)
    torsion = nabla_x_y - nabla_y_x - bracket
    purity = float(np.max(np.abs(torsion + 2.0 * _omega_reference(q, x, y) * t)))

    reeb_parallel = float(np.max(np.abs(_cov_deriv_reference(q, x, t, times_i(x)))))
    return metric, j_parallel, purity, reeb_parallel


def operator_l_parts_reference(f, p):
    q = p.coords
    grad, hess = C._grad_hess(f, q)
    t = times_i(q)
    g_at, dg = _pi_h_deriv_reference(q, t, grad, hess @ t)
    t0_grad = np.array([gp.evaluate(q) for gp in f.t0_grad_polys])
    nabla_t_g = _cov_deriv_reference(q, t, g_at, dg)
    return float(times_i(g_at) @ t0_grad), float(_big_j_reference(q, nabla_t_g) @ grad)


def bochner_residual_reference(f, p):
    q = p.coords
    grad, _ = C._grad_hess(f, q)
    hsq = float(np.sum(tw_hessian_reference(f, p)[1:, 1:] ** 2))
    gh = _pi_h_reference(q, grad)
    grad_term = sum(gp.evaluate(q) * gh[k] for k, gp in enumerate(f.sublaplacian_grad_polys))
    term1, term2 = operator_l_parts_reference(f, p)
    lhs = 0.5 * f.bochner_lhs_poly.evaluate(q)
    return lhs - (hsq + grad_term + ricci_reference(p, gh) + 2.0 * (term1 - term2))


def antisymmetry_reference(f, p):
    h = tw_hessian_reference(f, p)[1:, 1:]
    mat = horizontal_frame(p).matrix()
    omega = mat @ times_i(mat).T
    return float(np.max(np.abs(h - h.T - 2.0 * omega * f.t0_poly.evaluate(p.coords))))


_KINDS = st.tuples(
    st.sampled_from(["random", "axis", "near_axis"]),
    st.integers(0, 7),
    st.sampled_from([1.0, -1.0]),
)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 3), st.lists(_KINDS, min_size=1, max_size=8), st.integers(0, 2),
       st.integers(0, 2**32 - 1))
def test_stacked_evaluators_match_their_one_point_oracles(n, kinds, which, seed):
    f = _trace_fields(n)[which]
    points = [_trace_point(n, kind, k, sign, seed + i) for i, (kind, k, sign) in enumerate(kinds)]
    rng = np.random.default_rng([seed, 1])  # a stream apart from the points' seeds
    xs, ys, zs = (np.array([random_horizontal(rng, p).vec for p in points]) for _ in range(3))
    jet = C.point_jet(f, points)
    size = len(points)
    # the Bochner residual is a difference of terms the size of its left
    # side, so it is compared relative to that size
    lhs = np.maximum(1.0, np.abs(C.bochner_lhs(f, jet)))
    rows = {
        C.lemma1_residual: (lemma1_residual_reference, np.ones(size)),
        C.sublaplacian_frame: (sublaplacian_frame_reference, np.ones(size)),
        C.bochner_residual: (bochner_residual_reference, lhs),
    }
    for evaluator, (reference, scale) in rows.items():
        got = evaluator(f, jet)
        assert got.shape == (size,)
        for value, p, s in zip(got, points, scale):
            _assert_close(value, reference(f, p), 1e-12 * s)
    third = C.third_commutation_residual(f, jet, xs, ys)
    parts = C.operator_l_parts(f, jet)
    axioms = C.connection_axiom_residuals(points, xs, ys, zs)
    block = C.tw_hessian(f, jet)
    greenleaf = C.sublaplacian_greenleaf(f, jet)
    assert greenleaf.tobytes() == C.sublaplacian_greenleaf(f, points).tobytes()
    for i, p in enumerate(points):
        _assert_close(third[i], third_commutation_residual_reference(f, p, xs[i], ys[i]), 1e-12)
        _assert_close([r[i] for r in parts], operator_l_parts_reference(f, p), 1e-12)
        _assert_close(
            [r[i] for r in axioms], connection_axiom_residuals_reference(p, xs[i], ys[i], zs[i]), 1e-12
        )
        _assert_close(block.values[i], tw_hessian_reference(f, p), 1e-12)
        _assert_close(block.antisymmetry_residual()[i], antisymmetry_reference(f, p), 1e-12)
        assert greenleaf[i] == C.sublaplacian_greenleaf(f, p)


def _suite_by_points(cfg):
    """The pointwise checks of the lemmas or bochner suite as a per-point
    loop over the one-point oracles, drawing in the order the suites have
    always drawn.  Returns check id -> worst residual, and check id ->
    the size of the terms the residual is a difference of (at least 1)."""
    rng = np.random.default_rng(cfg.seed)
    pool = field_pool(rng, cfg.n, max(4, cfg.trials // 10))
    worst, scale = {}, {}

    def record(check_id, value, size=1.0):
        worst[check_id] = max(worst.get(check_id, 0.0), value)
        scale[check_id] = max(scale.get(check_id, 1.0), abs(size))

    if cfg.suite == "bochner":
        points = [random_point(rng, cfg.n) for _ in range(cfg.trials)]
        for i, p in enumerate(points):
            f = pool[i % len(pool)]
            exact = f.sublaplacian_poly.evaluate(p.coords)
            h = tw_hessian_reference(f, p)[1:, 1:]
            lhs = 0.5 * f.bochner_lhs_poly.evaluate(p.coords)
            record("bochner.residual", abs(bochner_residual_reference(f, p)), lhs)
            record("bochner.route_agreement", abs(sublaplacian_frame_reference(f, p) - exact))
            record("bochner.hessian_trace", abs(float(np.trace(h)) - exact))
            record("bochner.cauchy_schwarz", exact**2 / (2 * cfg.n) - float(np.sum(h**2)))
        return worst, scale
    for i in range(cfg.trials):
        f = pool[i % len(pool)]
        p = random_point(rng, cfg.n)
        x, y = random_horizontal(rng, p).vec, random_horizontal(rng, p).vec
        record("lemmas.divergence", abs(lemma1_residual_reference(f, p)))
        record("lemmas.third_order", abs(third_commutation_residual_reference(f, p, x, y)))
        record("lemmas.hessian_exchange", antisymmetry_reference(f, p))
    names = ("metric_compatibility", "j_parallel", "torsion_purity", "reeb_parallel")
    for _ in range(cfg.trials):
        p = random_point(rng, cfg.n)
        vals = connection_axiom_residuals_reference(p, *(random_horizontal(rng, p).vec for _ in range(3)))
        for name, value in zip(names, vals):
            record("lemmas.connection." + name, value)
    return worst, scale


_SUITE_IDS = {
    "lemmas": [
        "lemmas.divergence", "lemmas.third_order", "lemmas.hessian_exchange",
        "lemmas.integrated.x1", "lemmas.integrated.random",
        "lemmas.connection.metric_compatibility", "lemmas.connection.j_parallel",
        "lemmas.connection.torsion_purity", "lemmas.connection.reeb_parallel",
    ],
    "bochner": [
        "bochner.residual", "bochner.route_agreement", "bochner.hessian_trace",
        "bochner.cauchy_schwarz",
    ],
}


@pytest.mark.parametrize("seed", [901, 2001])
@pytest.mark.parametrize("suite, n, trials", [("lemmas", 1, 40), ("lemmas", 2, 12), ("bochner", 2, 20)])
def test_stacked_suites_keep_the_per_point_draws_and_verdicts(suite, n, trials, seed):
    cfg = Config(suite=suite, n=n, trials=trials, seed=seed)
    checks = run_suite(cfg).checks
    assert [c.id for c in checks] == _SUITE_IDS[suite]
    tols = {"lemmas.divergence": cfg.tol_strict, "lemmas.connection": cfg.tol_strict}
    worst, scale = _suite_by_points(cfg)
    for check_id, value in worst.items():
        check = next(c for c in checks if c.id == check_id)
        assert abs(check.residual - value) <= 1e-12 * scale[check_id], check_id
        tol = tols.get(check_id, tols.get(check_id.rsplit(".", 1)[0], cfg.tol))
        assert check.status == (value < tol), check_id
        inputs = {"n": n, "trials": trials}
        if check_id in ("lemmas.divergence", "bochner.residual"):
            inputs["seed"] = seed
        assert check.inputs == inputs, check_id


def test_point_jet_is_immutable_and_belongs_to_its_field(monkeypatch, rng, s3_fields):
    f, g = s3_fields[:2]
    p = random_point(rng, 1)
    jet = C.point_jet(f, p)
    with pytest.raises(AttributeError):
        jet.t0 = 0.0
    for array in (jet.rows, jet.grad, jet.hess, jet.third):
        with pytest.raises(ValueError):
            array[0] = 0.0
    assert jet.rows.shape == (3, 4)
    assert jet.rows.tobytes() == np.concatenate(([times_i(p.coords)], jet.frame.matrix())).tobytes()
    with pytest.raises(ValueError, match="another field"):
        C.tw_hessian(g, jet)

    def forbidden(*args):
        raise AssertionError("a Hessian block reads no third partials")

    # the s3 suite's tw_hessian calls must not pay for third partials
    monkeypatch.setattr(C.ScalarField, "third_polys", property(forbidden))
    C.tw_hessian(g, p)
    C.tw_hessian(f, C.point_jet(f, p))
