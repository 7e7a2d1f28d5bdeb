import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from crsphere.sphere import (
    FRAME_SEED_MIN,
    TYPE_TOL,
    HorizontalFrame,
    SpherePoint,
    TangentVector,
    complex_structure,
    contact_form,
    horizontal_frame,
    horizontal_project,
    levi_form,
    omega_form,
    random_horizontal,
    random_point,
    random_tangent,
    reeb,
    s3_explicit_frame,
    s3_frame_coefficients,
    times_i,
    webster_metric,
)

E1 = SpherePoint(np.array([1.0, 0.0, 0.0, 0.0]), 1)


def test_point_validation():
    with pytest.raises(ValueError):
        SpherePoint(np.array([1.0, 1.0, 0.0, 0.0]), 1)
    with pytest.raises(ValueError):
        SpherePoint(np.array([1.0, 0.0, 0.0]), 1)


def test_tangent_validation():
    with pytest.raises(ValueError):
        TangentVector(E1, np.array([1.0, 0.0, 0.0, 0.0]))
    with pytest.raises(ValueError):
        # tangent but Reeb-directed, flagged horizontal
        TangentVector(E1, np.array([0.0, 0.0, 1.0, 0.0]), horizontal=True)


def test_reeb_values():
    assert_allclose(reeb(E1).vec, [0.0, 0.0, 1.0, 0.0])
    p = SpherePoint(np.array([0.0, 0.0, 1.0, 0.0]), 1)
    assert_allclose(reeb(p).vec, [-1.0, 0.0, 0.0, 0.0])


def test_reeb_is_unit_and_dual_to_theta(rng):
    for n in (1, 2):
        for _ in range(100):
            p = random_point(rng, n)
            t = reeb(p)
            assert abs(np.linalg.norm(t.vec) - 1.0) < 1e-12
            assert abs(contact_form(p, t) - 1.0) < 1e-12


def test_contact_form_values():
    assert contact_form(E1, np.array([0.0, 0.0, 1.0, 0.0])) == 1.0
    assert contact_form(E1, np.array([0.0, 1.0, 0.0, 0.0])) == 0.0
    assert contact_form(E1, np.array([0.0, 0.0, 0.0, 1.0])) == 0.0


def test_contact_form_rejects_non_tangent():
    with pytest.raises(ValueError):
        contact_form(E1, np.array([1.0, 1.0, 0.0, 0.0]))


def test_complex_structure_values(rng):
    out = complex_structure(E1, TangentVector(E1, np.array([0.0, 1.0, 0.0, 0.0]), True))
    assert_allclose(out.vec, [0.0, 0.0, 0.0, 1.0])
    for _ in range(100):
        p = random_point(rng, 1)
        x = random_horizontal(rng, p)
        jx = complex_structure(p, x)
        jjx = complex_structure(p, jx)
        assert_allclose(jjx.vec, -x.vec, atol=1e-12)
        assert abs(contact_form(p, jx)) < 1e-12


def test_complex_structure_rejects_reeb():
    with pytest.raises(ValueError):
        complex_structure(E1, reeb(E1))


def test_horizontal_project(rng):
    assert_allclose(horizontal_project(E1, reeb(E1)).vec, np.zeros(4), atol=1e-15)
    out = horizontal_project(E1, np.array([0.0, 1.0, 1.0, 0.0]))
    assert_allclose(out.vec, [0.0, 1.0, 0.0, 0.0])
    p = random_point(rng, 2)
    v = random_tangent(rng, p)
    once = horizontal_project(p, v)
    twice = horizontal_project(p, once)
    assert_allclose(once.vec, twice.vec, atol=1e-15)


def test_levi_and_webster_values(rng):
    x = TangentVector(E1, np.array([0.0, 1.0, 0.0, 0.0]), True)
    assert levi_form(E1, x, x) == 1.0
    for _ in range(100):
        p = random_point(rng, 1)
        assert abs(webster_metric(p, reeb(p), reeb(p)) - 1.0) < 1e-12


def test_levi_compatibility_with_j(rng):
    for _ in range(50):
        p = random_point(rng, 1)
        x = random_horizontal(rng, p)
        y = random_horizontal(rng, p)
        jx, jy = complex_structure(p, x), complex_structure(p, y)
        assert abs(levi_form(p, x, jy) + levi_form(p, jx, y)) < 1e-12
        assert abs(levi_form(p, jx, jy) - levi_form(p, x, y)) < 1e-12


def test_levi_rejects_mismatched_base():
    p = SpherePoint(np.array([0.0, 1.0, 0.0, 0.0]), 1)
    x = TangentVector(E1, np.array([0.0, 1.0, 0.0, 0.0]), True)
    y = TangentVector(p, np.array([1.0, 0.0, 0.0, 0.0]), True)
    with pytest.raises(ValueError):
        levi_form(E1, x, y)


def test_metric_splits_into_levi_plus_reeb(rng):
    for n in (1, 2):
        for _ in range(50):
            p = random_point(rng, n)
            u = random_tangent(rng, p)
            v = random_tangent(rng, p)
            lhs = webster_metric(p, u, v)
            rhs = levi_form(
                p, horizontal_project(p, u), horizontal_project(p, v)
            ) + contact_form(p, u) * contact_form(p, v)
            assert abs(lhs - rhs) < 1e-10


def test_omega_skew_and_j_compatibility(rng):
    for _ in range(50):
        p = random_point(rng, 1)
        x = random_horizontal(rng, p)
        y = random_horizontal(rng, p)
        assert abs(omega_form(p, x, y) + omega_form(p, y, x)) < 1e-12
        # Omega(T, .) vanishes: J T = 0
        assert abs(omega_form(p, random_tangent(rng, p), reeb(p))) < 1e-12


def _dtheta_fd(p, x, y, h=1e-6):
    """d theta(X, Y) = X(theta(Y~)) - Y(theta(X~)) - theta([X~, Y~])."""

    def ext(v):
        def field(q):
            t = times_i(q)
            return v - (q @ v) * q - (t @ v) * t

        return field

    def theta_of(field):
        def func(q):
            return float(times_i(q) @ field(q))

        return func

    def flow_deriv(func, direction):
        qp = p.coords + h * direction
        qm = p.coords - h * direction
        return (func(qp / np.linalg.norm(qp)) - func(qm / np.linalg.norm(qm))) / (2 * h)

    fx, fy = ext(x.vec), ext(y.vec)

    def d_field(field, direction):
        qp = p.coords + h * direction
        qm = p.coords - h * direction
        return (field(qp / np.linalg.norm(qp)) - field(qm / np.linalg.norm(qm))) / (2 * h)

    bracket = d_field(fy, x.vec) - d_field(fx, y.vec)
    return (
        flow_deriv(theta_of(fy), x.vec)
        - flow_deriv(theta_of(fx), y.vec)
        - float(times_i(p.coords) @ bracket)
    )


def test_dtheta_matches_minus_two_omega(rng):
    # the literal exterior derivative of theta carries the factor 2
    for _ in range(10):
        p = random_point(rng, 1)
        x = random_horizontal(rng, p)
        y = random_horizontal(rng, p)
        fd = _dtheta_fd(p, x, y)
        assert abs(fd + 2.0 * omega_form(p, x, y)) < 1e-6


# ---------------------------------------------------------------------------
# Frames.
# ---------------------------------------------------------------------------


def test_frame_at_first_pole():
    frame = horizontal_frame(E1)
    mat = frame.matrix()
    assert_allclose(mat[0], [0.0, 1.0, 0.0, 0.0], atol=1e-14)
    assert_allclose(mat[1], [0.0, 0.0, 0.0, 1.0], atol=1e-14)


def test_frame_orthonormal_and_paired(rng):
    for n in (1, 2):
        for _ in range(100):
            p = random_point(rng, n)
            frame = horizontal_frame(p)  # constructor enforces the invariants
            mat = frame.matrix()
            assert_allclose(mat @ mat.T, np.eye(2 * n), atol=1e-10)
            for a in range(n):
                assert_allclose(times_i(mat[a]), mat[a + n], atol=1e-10)


def _near_axis(n, k, sign, eps, seed):
    v = np.zeros(2 * n + 2)
    v[k] = sign
    v = v + eps * np.random.default_rng(seed).standard_normal(v.size)
    return SpherePoint(v / np.linalg.norm(v), n)


def _assert_frame_typed(p):
    mat = horizontal_frame(p).matrix()  # constructor enforces the invariants
    assert np.max(np.abs(mat @ p.coords)) <= TYPE_TOL
    assert np.max(np.abs(mat @ p.reeb_coords())) <= TYPE_TOL


def test_frame_near_first_axis_of_s3():
    # each of these raised "vector is not tangent" with a 1e-8 seed cut
    for seed in range(5):
        _assert_frame_typed(_near_axis(1, 0, 1.0, 1e-3, seed))


@settings(max_examples=150, deadline=None)
@given(
    st.integers(1, 3),
    st.integers(0, 7),
    st.sampled_from([1.0, -1.0]),
    st.one_of(st.just(0.0), st.floats(-12.0, -1.5).map(lambda e: 10.0**e)),
    st.integers(0, 2**32 - 1),
)
def test_frame_near_every_coordinate_axis(n, k, sign, eps, seed):
    _assert_frame_typed(_near_axis(n, k % (2 * n + 2), sign, eps, seed))


def test_frame_deterministic(rng):
    p = random_point(rng, 2)
    assert_allclose(horizontal_frame(p).matrix(), horizontal_frame(p).matrix())


def test_frame_invariant_enforced():
    bad = [
        TangentVector(E1, np.array([0.0, 1.0, 0.0, 0.0]), True),
        TangentVector(E1, np.array([0.0, 1.0, 0.0, 0.0]), True),
    ]
    with pytest.raises(ValueError):
        HorizontalFrame(E1, tuple(bad))


def test_s3_explicit_frame(rng):
    for _ in range(50):
        p = random_point(rng, 1)
        if p.coords[1] ** 2 + p.coords[3] ** 2 < 1e-6:
            continue
        x, y = s3_explicit_frame(p)
        assert abs(contact_form(p, x)) < 1e-9
        assert abs(contact_form(p, y)) < 1e-9
        assert abs(levi_form(p, x, y)) < 1e-9
        f, g = s3_frame_coefficients(p)
        x1, x2, y1, y2 = p.coords
        den = x2 * x2 + y2 * y2
        assert abs(f - (x1 * x2 + y1 * y2) / den) < 1e-15
        assert abs(g - (x1 * y2 - y1 * x2) / den) < 1e-15


def test_s3_explicit_frame_excluded_circle():
    p = SpherePoint(np.array([np.sqrt(0.5), 0.0, np.sqrt(0.5), 0.0]), 1)
    with pytest.raises(ValueError):
        s3_explicit_frame(p)


# ---------------------------------------------------------------------------
# Non-finite inputs and the frame matrix.
# ---------------------------------------------------------------------------

NON_FINITE = (np.nan, np.inf, -np.inf)


@pytest.mark.parametrize("bad", NON_FINITE)
def test_point_rejects_non_finite(bad):
    with pytest.raises(ValueError):
        SpherePoint([bad, 0.0, 0.0, 0.0], 1)
    with pytest.raises(ValueError):
        SpherePoint([1.0, bad, 0.0, 0.0], 1)


@pytest.mark.parametrize("bad", NON_FINITE)
@pytest.mark.parametrize("k", [0, 1, 3])
def test_tangent_vector_rejects_non_finite(bad, k):
    # k = 1 and 3 are horizontal slots at E1; at a generic point an
    # infinite entry would pass a guard scaled by the norm
    p = SpherePoint(np.array([0.6, 0.0, 0.8, 0.0]), 1)
    for base in (E1, p):
        vec = np.zeros(4)
        vec[k] = bad
        for horizontal in (False, True):
            with pytest.raises(ValueError):
                TangentVector(base, vec, horizontal=horizontal)
        with pytest.raises(ValueError):
            contact_form(base, vec)


@pytest.mark.parametrize("bad", NON_FINITE)
def test_frame_rejects_non_finite(bad):
    rows = horizontal_frame(E1).matrix().copy()
    rows[0, 1] = bad
    with pytest.raises(ValueError):
        HorizontalFrame(E1, rows)


def test_frame_matrix_is_read_only():
    rows = np.array([[0.0, 1.0, 0.0, 0.0], [0.0, 0.0, 0.0, 1.0]])
    given_rows = HorizontalFrame(E1, rows)
    rows[0, 1] = 5.0  # the frame keeps its own copy
    assert given_rows.matrix()[0, 1] == 1.0
    for frame in (given_rows, horizontal_frame(random_point(np.random.default_rng(3), 2))):
        with pytest.raises(ValueError):
            frame.matrix()[0, 0] = 1.0


def test_frame_vectors_are_typed_rows(rng):
    for n in (1, 2, 3):
        frame = horizontal_frame(random_point(rng, n))
        vectors = frame.vectors
        assert len(vectors) == 2 * n
        for v, row in zip(vectors, frame.matrix()):
            assert v.horizontal and v.base is frame.base
            assert np.array_equal(v.vec, row)


def test_frame_rejects_non_horizontal_row():
    # X = (0, cos a, sin a, 0) at E1 leans into the Reeb direction (0, 0, 1, 0);
    # the pair (X, i X) is still orthonormal and J-paired
    a = 1e-3
    x = np.array([0.0, np.cos(a), np.sin(a), 0.0])
    with pytest.raises(ValueError, match="horizontal"):
        HorizontalFrame(E1, np.array([x, times_i(x)]))


def test_frame_rejects_wrong_shape():
    with pytest.raises(ValueError):
        HorizontalFrame(E1, np.eye(4)[1:2])


def horizontal_frame_reference(p):
    """horizontal_frame with each projected seed e_k - q_k q - t_k t built on its own."""
    q = p.coords
    t = times_i(q)
    m = p.dim
    chosen, span = [], []
    for k in range(m):
        w = np.zeros(m)
        w[k] = 1.0
        w = w - (q[k]) * q - (t[k]) * t
        for u in span:
            w = w - (u @ w) * u
        norm = np.linalg.norm(w)
        if norm < FRAME_SEED_MIN:
            continue
        w = w / norm
        chosen.append(w)
        span.extend([w, times_i(w)])
        if len(chosen) == p.n:
            break
    return np.array(chosen + [times_i(w) for w in chosen])


@settings(max_examples=150, deadline=None)
@given(
    st.integers(1, 3),
    st.integers(0, 7),
    st.sampled_from([1.0, -1.0]),
    st.one_of(st.just(0.0), st.floats(-12.0, 0.0).map(lambda e: 10.0**e)),
    st.integers(0, 2**32 - 1),
)
def test_frame_matches_reference_bit_for_bit(n, k, sign, eps, seed):
    # eps = 1 gives points far from every axis; eps = 0 the axes themselves
    p = _near_axis(n, k % (2 * n + 2), sign, eps, seed)
    assert np.array_equal(horizontal_frame(p).matrix(), horizontal_frame_reference(p))
