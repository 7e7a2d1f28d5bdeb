import itertools
import math
from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from crsphere import calculus as C
from crsphere import geodesics as G
from crsphere import sphere
from crsphere.geodesics import cotangent_lift
from crsphere.polynomials import Polynomial, sphere_integral
from crsphere.sphere import (
    SpherePoint,
    TangentVector,
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


@lru_cache(maxsize=None)
def full_hessian_polys(f):
    """Every flat second partial, hess[i][j] = d_j d_i f, as gradient() of
    gradient(): the oracle of the field's distinct list."""
    return [g.gradient() for g in f.poly.gradient()]


@lru_cache(maxsize=None)
def full_third_polys(f):
    """Every flat third partial, third[i][j][k] = d_k d_j d_i f: the m^3
    cube the field no longer builds, kept as the oracle of its distinct list."""
    return [[h.gradient() for h in row] for row in full_hessian_polys(f)]


@lru_cache(maxsize=None)
def grad_h_field(f):
    """grad_H f as a symbolic vector field, pi_H of the flat gradient.

    The library reads grad_H f pointwise from the flat jet and builds L f
    from scalar pieces; this field is the oracle of both.
    """
    return C.VectorFieldPoly(f.grad_polys, f.n).pi_h()


@lru_cache(maxsize=None)
def j_grad_h_field(f):
    """J grad_H f as a symbolic vector field, built once per field so its partials are reused."""
    return grad_h_field(f).times_i()


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


def test_scalar_field_cr_dimension_is_a_positive_integer():
    # True was accepted and stored as n
    for bad in (True, 1.0):
        with pytest.raises(ValueError, match="CR dimension must be a positive integer"):
            C.ScalarField(var(0), bad)
    assert type(C.ScalarField(var(0), np.int64(1)).n) is int


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
        rhs = 2.0 * float(grad_h_field(f).at(p.coords) @ grad_h_field(g).at(p.coords))
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
        block = C.tw_hessian(f, p)
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
                np.sum(C.tanaka_webster_derivative(p, e, grad_h_field(f)).vec ** 2)
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
            points[row] = SpherePoint(points[row].coords, 2)
            object.__setattr__(points[row], "coords", points[row].coords * (1.0 + 1e-9))
        else:
            xs[row, 4] = bad
        with pytest.raises(ValueError):
            C.ricci(points, xs)
    with pytest.raises(ValueError):
        C.ricci(points, xs[:2])


def rational_point(rng, n):
    """A rational point of the sphere and its exact coordinates.

    Inverse stereographic projection maps u to q = (2u/d, (d - 2)/d)
    with d = |u|^2 + 1, so a small-integer u gives a point with small
    denominators.  The float point is each exact coordinate rounded once.
    """
    u = [int(v) for v in rng.integers(-3, 4, size=2 * n + 1)]
    d = sum(v * v for v in u) + 1
    exact = [Fraction(2 * v, d) for v in u] + [Fraction(d - 2, d)]
    return SpherePoint(np.array([float(v) for v in exact]), n), exact


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
        div = C.divergence(p, j_grad_h_field(f))
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
# The Bochner left side as an exact polynomial: |grad f|^2, the Euler field
# and T0 f, then the exact sublaplacian.  The library evaluates the same
# left side from the flat 3-jet; this route is its oracle.  Also the
# horizontal gradient by the product rule.
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def grad_h_sq_poly(f):
    """|grad_H f|^2 as a restriction to the sphere.

    On the sphere q and iq are orthonormal, q . grad f is the Euler
    sum R = sum_d d f_d over the homogeneous pieces f_d of f, and
    iq . grad f is T0 f, so there

        |pi_H grad f|^2 = |grad f|^2 - R^2 - (T0 f)^2.

    As ambient polynomials the two sides differ by
    (R^2 + (T0 f)^2)(|q|^2 - 1); only the restriction is meaningful.
    """
    radial = C._euler(f.poly)
    out = Polynomial(2 * f.n + 2)
    for g in f.grad_polys:
        out = out + g * g
    return out - radial * radial - f.t0_poly * f.t0_poly


@lru_cache(maxsize=None)
def bochner_lhs_poly(f):
    """Delta_b |grad_H f|^2 as an exact polynomial restricted to the sphere."""
    return C.sublaplacian_polynomial(grad_h_sq_poly(f), f.n)


def bochner_lhs_reference(f, p):
    """(1/2) Delta_b |grad_H f|^2 at a point or over a (K, m) stack, from the exact polynomial."""
    return 0.5 * bochner_lhs_poly(f).evaluate(p)


def _reference_grad_h_sq(f):
    g = grad_h_field(f)
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
    assert _reference_grad_h_sq(f) - grad_h_sq_poly(f) == expected


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
            assert bochner_lhs_poly(f).evaluate_exact(q) == reference.evaluate_exact(q)


@settings(max_examples=25, deadline=None)
@given(_integer_polys(1), st.integers(0, 2**32 - 1))
def test_bochner_lhs_poly_exact_non_homogeneous(f, seed):
    reference = C.sublaplacian_polynomial(_reference_grad_h_sq(f), 1)
    for q in _rational_points(np.random.default_rng(seed), 1, 2):
        assert bochner_lhs_poly(f).evaluate_exact(q) == reference.evaluate_exact(q)


def _assert_bochner_lhs_matches_the_polynomial(f, points):
    # the ambient formula on the flat 3-jet against the exact left side,
    # over the stack and at each point alone, to 1e-12 of the value's size
    reference = bochner_lhs_reference(f, np.array([p.coords for p in points]))
    tol = 1e-12 * np.maximum(1.0, np.abs(reference))
    stacked = C.bochner_lhs(f, points)
    assert stacked.shape == reference.shape and np.all(np.abs(stacked - reference) <= tol)
    for p, value, t in zip(points, reference, tol):
        assert abs(C.bochner_lhs(f, p) - value) <= t


@pytest.mark.parametrize("n", [1, 2, 3])
def test_bochner_lhs_matches_the_exact_polynomial(n):
    rng = np.random.default_rng(40 + n)
    for f in (x1_field(n), *field_pool(rng, n, 4)):
        points, _ = random_point(rng, n, 6)
        _assert_bochner_lhs_matches_the_polynomial(f, points)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 2).flatmap(_integer_polys), st.integers(0, 2**32 - 1))
def test_bochner_lhs_matches_the_exact_polynomial_non_homogeneous(f, seed):
    points, _ = random_point(np.random.default_rng(seed), f.n, 3)
    _assert_bochner_lhs_matches_the_polynomial(f, points)


@lru_cache(maxsize=None)
def operator_l_polynomial_reference(f):
    """The vector-field route `_operator_l_polynomial` replaced, kept as its oracle.

    Along the sphere the Reeb covariant derivative of G = grad_H f
    collapses to D_T G - i G, and the pairing with J pi_H expands into
    three ambient dot products.
    """
    n = f.n
    g = grad_h_field(f)
    grad = C.VectorFieldPoly(f.grad_polys, n)
    q = C.VectorFieldPoly.coordinate_field(n)
    iq = q.times_i()
    jg = j_grad_h_field(f)
    term1 = jg.dot(C.VectorFieldPoly(f.t0_poly.gradient(), n))
    w = g.directional_along(C.VectorFieldPoly.reeb(n)) - jg
    term2 = w.times_i().dot(grad) - w.dot(q) * iq.dot(grad) + w.dot(iq) * q.dot(grad)
    return term1 - term2


def _pool_or_integer_fields(n):
    """x1 or a pool field, as the lemmas suite integrates, or an integer polynomial."""
    pool = st.sampled_from(range(4)).map(lambda i: (x1_field(n), *_trace_fields(n))[i])
    return st.one_of(pool, _integer_polys(n))


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 3).flatmap(_pool_or_integer_fields), st.integers(0, 2**32 - 1))
def test_l_operator_poly_matches_the_vector_field_route(f, seed):
    # equal on the sphere: the same exact integral and the same exact
    # value at rational points of the sphere
    reference = operator_l_polynomial_reference(f)
    assert sphere_integral(f.l_operator_poly) == sphere_integral(reference)
    for q in _rational_points(np.random.default_rng(seed), f.n, 3):
        assert f.l_operator_poly.evaluate_exact(q) == reference.evaluate_exact(q)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_pi_h_deriv_matches_symbolic_horizontal_gradient(n, rng):
    for f in field_pool(np.random.default_rng(30 + n), n, 2):
        g = grad_h_field(f)
        for _ in range(2):
            p = random_point(rng, n)
            q = p.coords
            grad, hess = C._grad_hess(f, q)
            # pi_H grad f at the dual point q + EPS u, with grad f moving by Hess f u
            for u in (times_i(q), random_tangent(rng, p).vec):
                val = C._pi_h_vec(C._along(q, u), C._along(grad, hess @ u))
                assert_allclose(val.real, g.at(q), rtol=0, atol=1e-12)
                assert_allclose(C._d(val), g.jacobian_at(q) @ u, rtol=0, atol=1e-12)
            # a stack of directions gives one derivative per row
            rows = np.concatenate(([times_i(q)], random_tangent(rng, p).vec[None]))
            drows = C._d(C._pi_h_vec(C._along(q, rows), C._along(grad, rows @ hess)))
            assert_allclose(drows, rows @ g.jacobian_at(q).T, rtol=0, atol=1e-12)


def test_symbolic_and_pointwise_routes_stay_apart(monkeypatch, rng, s3_fields):
    def forbidden(*args):
        raise AssertionError("route crossed")

    f, g = s3_fields[0], C.ScalarField(s3_fields[1].poly, 1)
    p = random_point(rng, 1)
    # the Bochner left side reads the flat 3-jet and nothing of the right
    # side: no Tanaka-Webster Hessian or block, connection, Ricci trace or
    # L, and no dual derivative
    right_side = ("_hessian_form_at", "_along", "_d", "_cov_deriv_pointwise", "_ricci_trace",
                  "operator_l_parts", "HessianBlock")
    for name in right_side:
        monkeypatch.setattr(C, name, forbidden)
    C.bochner_lhs(f, p)
    C.bochner_lhs(f, [p, random_point(rng, 1)])
    monkeypatch.undo()
    # and the exact oracle reads no pointwise helper (g has no caches yet)
    for name in ("_grad_hess", "_pi_h_vec", "_along", "_d", "_hessian_form_at", "point_jet",
                 "bochner_lhs"):
        monkeypatch.setattr(C, name, forbidden)
    assert not bochner_lhs_poly(g).is_zero()


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
    for i, row in enumerate(full_hessian_polys(f)):
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
    # The dual leading term of the third-order check (the Hessian form at
    # q + EPS u, with grad f, Hess f and the slots moving) against u . grad
    # of the symbolic biform.  (T, E_v) is the pair the check uses; the
    # offset pair has Reeb and radial parts, so no term of the form vanishes.
    pool = s3_fields if n == 1 else s5_fields
    ext, const = C.VectorFieldPoly.horizontal_extension, C.VectorFieldPoly.constant
    for i in range(points):
        f = pool[i % len(pool)]
        p = random_point(rng, n)
        q = p.coords
        u, v, w = (random_horizontal(rng, p).vec for _ in range(3))
        ca, cb = (rng.integers(-4, 5, size=2 * n + 2) / 4 for _ in range(2))
        grad, hess = C._grad_hess(f, q)
        third = third_partials_reference(f, q)
        e_v = (ext(v, n), C._pi_h_vec(q, v), C._ext_deriv(q, u, v))
        pairs = (
            ((C.VectorFieldPoly.reeb(n), times_i(q), times_i(u)), e_v),
            ((ext(w, n) + const(ca, n), C._pi_h_vec(q, w) + ca, C._ext_deriv(q, u, w)),
             (e_v[0] + const(cb, n), e_v[1] + cb, e_v[2])),
        )
        for (A, a, da), (B, b, db) in pairs:
            biform = _hessian_biform_poly(f, A, B)
            expected = sum(g.evaluate(q) * u[k] for k, g in enumerate(biform.gradient()))
            moving = C._hessian_form_at(C._along(q, u), C._along(grad, hess @ u),
                                        C._along(hess, third @ u))
            got = C._d(moving(C._along(a, da), C._along(b, db)))
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
            lhs = sphere_integral(grad_h_sq_poly(f))
            rhs = -mu * sphere_integral(f.poly * f.poly)
            assert lhs == rhs


# ---------------------------------------------------------------------------
# The linear-algebra lemma behind the equality case.
# ---------------------------------------------------------------------------


def trace_equality_gap(mat):
    """m |A|^2 - trace(A)^2; zero exactly on multiples of the identity."""
    mat = np.asarray(mat, dtype=float)
    m = mat.shape[0]
    return m * float(np.sum(mat * mat)) - float(np.trace(mat)) ** 2


def reconstruct_from_trace(mat):
    """(trace(A)/m) I, the matrix forced by a vanishing trace gap."""
    mat = np.asarray(mat, dtype=float)
    m = mat.shape[0]
    return (np.trace(mat) / m) * np.eye(m)


@settings(max_examples=30, deadline=None)
@given(st.floats(-5, 5), st.integers(2, 6))
def test_trace_gap_vanishes_only_on_multiples_of_identity(c, m):
    mat = c * np.eye(m)
    assert abs(trace_equality_gap(mat)) < 1e-9
    assert_allclose(reconstruct_from_trace(mat), mat, atol=1e-12)


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
    assert trace_equality_gap(mat) > 0.0


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

    On the axes the first complex coordinate of the point is zero or of
    modulus one, the two edges of horizontal_frame's reflector.
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
    V = j_grad_h_field(f)
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
    return C.divergence(p, j_grad_h_field(f)) - 2.0 * f.n * f.t0_poly.evaluate(p)


def third_partials_reference(f, q):
    """The m^3 evaluations the symmetric gather replaced, kept as its oracle."""
    return np.array([[[d.evaluate(q) for d in row] for row in plane] for plane in full_third_polys(f)])


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
    # the field's distinct partials, expanded through the index map, are
    # the full Hessian and cube of gradient() of gradient(), exactly
    m = 2 * f.n + 2
    at2, at3 = C._symmetric_index(m, 2), C._symmetric_index(m, 3)
    assert len(f.hess_polys) == math.comb(m + 1, 2)
    assert len(f.third_polys) == math.comb(m + 2, 3)
    hess, third = full_hessian_polys(f), full_third_polys(f)
    for i, j, k in np.ndindex(m, m, m):
        assert f.hess_polys[at2[i, j]] == hess[i][j]
        assert f.third_polys[at3[i, j, k]] == third[i][j][k]
    p = random_point(np.random.default_rng(seed), f.n)
    jet = C.point_jet(f, p)
    assert jet.hess.tobytes() == np.array([[h.evaluate(p) for h in row] for row in hess]).tobytes()
    assert jet.third.tobytes() == third_partials_reference(f, p.coords).tobytes()


@pytest.mark.parametrize("m, order", [(4, 2), (4, 3), (8, 2), (8, 3)])
def test_symmetric_index_lists_the_sorted_entries(m, order):
    # one read-only map per (m, order): the sorted entries in
    # combinations_with_replacement order (np.triu_indices for order 2)
    index = C._symmetric_index(m, order)
    assert index is C._symmetric_index(m, order)
    assert not index.flags.writeable
    for position, entry in enumerate(itertools.combinations_with_replacement(range(m), order)):
        for perm in itertools.permutations(entry):
            assert index[perm] == position
    if order == 2:
        assert np.array_equal(index[np.triu_indices(m)], np.arange(math.comb(m + 1, 2)))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_a_jet_builds_only_the_distinct_partials(monkeypatch, rng, n):
    # gradient, distinct second and distinct third partials, one call each:
    # a full Hessian or m^3 cube would take more
    m = 2 * n + 2
    f = C.ScalarField(Polynomial(m, {(2, 1) + (0,) * (m - 2): 3, (0,) * (m - 1) + (3,): -1}), n)
    calls = []
    partial = Polynomial.partial
    monkeypatch.setattr(Polynomial, "partial", lambda poly, i: calls.append(i) or partial(poly, i))
    C.point_jet(f, random_point(rng, n)).third
    assert len(calls) == m + math.comb(m + 1, 2) + math.comb(m + 2, 3)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_jet_route_is_bitwise_the_point_route(n, rng):
    # the one-point jet, the SpherePoint and a stack of one give the same bits
    f = _trace_fields(n)[0]
    points = [random_point(rng, n) for _ in range(3)]
    # np.matvec over a stack of K > 1 third partials may round apart from
    # the one-point call, so the stacked left side is held to the exact
    # oracle, not to bits
    _assert_bochner_lhs_matches_the_polynomial(f, points)
    reeb = C.reeb_derivative(f, points)
    assert reeb.tobytes() == np.array([C.reeb_derivative(f, p) for p in points]).tobytes()
    for p in points:
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
        for evaluator in (C.sublaplacian_frame, C.sublaplacian_greenleaf, C.bochner_residual,
                          C.lemma1_residual, C.bochner_lhs, C.reeb_derivative):
            stacked = evaluator(f, one)
            assert stacked.shape == (1,)
            assert evaluator(f, jet) == evaluator(f, p) == stacked[0]
        assert C.operator_l_parts(f, jet) == C.operator_l_parts(f, p)
        assert C.operator_l_parts(f, p) == tuple(part[0] for part in C.operator_l_parts(f, one))
        third = C.third_commutation_residual
        assert third(f, jet, x, y) == third(f, p, x, y) == third(f, one, x[None], y[None])[0]
        axioms = C.connection_axiom_residuals([p], x[None], y[None], z[None])
        assert C.connection_axiom_residuals(p, x, y, z) == tuple(r[0] for r in axioms)
    # an empty sequence or a raw coordinate array is not a point
    for evaluator in (C.point_jet, C.bochner_lhs, C.sublaplacian_greenleaf, C.reeb_derivative,
                      C.ScalarField.value):
        for bad in ([], points[0].coords.copy()):
            with pytest.raises(ValueError, match="SpherePoint"):
                evaluator(f, bad)


@pytest.mark.parametrize("call, off", [
    (lambda f, p, x, d: C.third_commutation_residual(f, p, d, x), "reeb"),
    (lambda f, p, x, d: C.connection_axiom_residuals(p, x, d, x), "reeb"),
    (lambda f, p, x, d: C.tanaka_webster_derivative(p, d, C.VectorFieldPoly.reeb(1)), "normal"),
    (lambda f, p, x, d: cotangent_lift(p, d), "reeb"),
], ids=["third_commutation_residual", "connection_axiom_residuals",
        "tanaka_webster_derivative", "cotangent_lift"])
def test_direction_arguments_are_checked(call, off, rng, s3_fields):
    # the formulas evaluate at any vector, so only the guard turns a Reeb
    # direction into an error (cotangent_lift would pair it with T to 2);
    # tanaka_webster_derivative takes any tangent direction, so it gets the normal
    p = random_point(rng, 1)
    x = random_horizontal(rng, p).vec
    d = p.reeb_coords() if off == "reeb" else p.coords.copy()
    with pytest.raises(ValueError, match="not horizontal" if off == "reeb" else "not tangent"):
        call(s3_fields[0], p, x, d)


_DIRECTION_READERS = {
    "contact_form": lambda f, p, v: sphere.contact_form(p, v),
    "horizontal_project": lambda f, p, v: sphere.horizontal_project(p, v),
    "complex_structure": lambda f, p, v: sphere.complex_structure(p, v),
    "levi_form": lambda f, p, v: sphere.levi_form(p, v, v),
    "webster_metric": lambda f, p, v: sphere.webster_metric(p, v, v),
    "omega_form": lambda f, p, v: sphere.omega_form(p, v, v),
    "tanaka_webster_derivative":
        lambda f, p, v: C.tanaka_webster_derivative(p, v, C.VectorFieldPoly.reeb(1)),
    "ricci": lambda f, p, v: C.ricci(p, v),
    "connection_axiom_residuals": lambda f, p, v: C.connection_axiom_residuals(p, v, v, v),
    "third_commutation_residual": lambda f, p, v: C.third_commutation_residual(f, p, v, v),
    "cotangent_lift": lambda f, p, v: cotangent_lift(p, v),
    "great_circle": lambda f, p, v: G.great_circle(p, v, 0.5),
    "great_circle_points": lambda f, p, v: G.great_circle_points(p, v, np.linspace(0.0, 1.0, 3)),
    "exp_map": lambda f, p, v: G.exp_map(p, v),
    "GeodesicState": lambda f, p, v: G.GeodesicState(p, v, 0.5),
}


@pytest.mark.parametrize("name", sorted(_DIRECTION_READERS))
def test_a_direction_at_another_point_is_rejected(name, rng, s3_fields):
    # -p lies on the Reeb fibre of p, so a unit horizontal vector at p is
    # also one at -p: only the base point tells the two apart
    p = random_point(rng, 1)
    w = random_horizontal(rng, p).vec
    call = _DIRECTION_READERS[name]
    call(s3_fields[0], p, TangentVector(p, w, horizontal=True))
    elsewhere = TangentVector(SpherePoint(-p.coords, 1), w, horizontal=True)
    with pytest.raises(ValueError, match="different base point"):
        call(s3_fields[0], p, elsewhere)


def test_stacked_directions_must_match_the_points(rng):
    f, g = _trace_fields(1)[:2]
    points = [random_point(rng, 1) for _ in range(3)]
    jet = C.point_jet(f, points)
    xs, ys = (np.array([random_horizontal(rng, p).vec for p in points]) for _ in range(2))
    for bad in (xs[:2], xs[:, :3], xs[0], np.concatenate((xs, xs[:1]))):
        with pytest.raises(ValueError, match="direction of shape"):
            C.third_commutation_residual(f, jet, bad, ys)
        with pytest.raises(ValueError, match="direction of shape"):
            C.connection_axiom_residuals(points, ys, bad, ys)
    with pytest.raises(ValueError, match="direction of shape"):
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


def _random_symmetric(rng, m):
    a = rng.standard_normal((m, m))
    return a + a.T


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 3),
    st.floats(-6.0, 3.0),
    st.floats(-6.0, 3.0),
    st.floats(-6.0, 3.0),
    st.integers(0, 2**32 - 1),
)
def test_dual_derivatives_match_the_hand_product_rules(n, log_u, log_da, log_db, seed):
    # _d of the plain expression at _along arguments against the hand
    # expansions kept above, over directions of norm 1e-6 to 1e3
    rng = np.random.default_rng(seed)
    m = 2 * n + 2
    q = random_point(rng, n).coords

    def direction(log_norm):
        v = rng.standard_normal(m)
        return v * (10.0**log_norm / np.linalg.norm(v))

    u, da, db = direction(log_u), direction(log_da), direction(log_db)
    a, b, grad = rng.standard_normal((3, m))
    size_u, size_a, size_b = (np.linalg.norm(v) for v in (u, da, db))
    hess, dhess = _random_symmetric(rng, m), size_u * _random_symmetric(rng, m)

    value, expected = _pi_h_deriv_reference(q, u, a, da)
    got = C._pi_h_vec(C._along(q, u), C._along(a, da))
    _assert_close(got.real, value, 1e-14)
    _assert_close(C._d(got), expected, 1e-14 * (size_a + size_u * np.linalg.norm(a)))

    expected = _hessian_form_derivative_reference(q, u, a, da, b, db, grad, hess, dhess)
    moving = C._hessian_form_at(C._along(q, u), C._along(grad, hess @ u), C._along(hess, dhess))
    got = C._d(moving(C._along(a, da), C._along(b, db)))
    sizes = [np.abs(v).max() for v in (a, b, grad, hess)]
    scale = np.prod(1.0 + np.array(sizes)) * (size_u + size_a + size_b)
    _assert_close(got, expected, 1e-14 * scale)

    # the real parts of dual products are the plain float products, bitwise
    x, y, dx, dy = rng.standard_normal((4, m)) * 10.0 ** rng.uniform(-6, 3, (4, m))
    assert (C._along(x, dx) * C._along(y, dy)).real.tobytes() == (x * y).tobytes()


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
    # the left side exactly at the float point, rounded once: the float
    # evaluation of its thousands of terms can stray past the bound
    lhs = float(Fraction(1, 2) * bochner_lhs_poly(f).evaluate_exact([Fraction(x) for x in q.tolist()]))
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
@example(3, [("random", 0, 1.0), ("near_axis", 4, 1.0)], 0, 1)
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
            lhs = bochner_lhs_reference(f, p.coords)
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
