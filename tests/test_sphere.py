import math

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


def test_point_cr_dimension_is_a_positive_integer():
    # 1.0 was accepted and made horizontal_frame raise a TypeError; True was stored
    coords = E1.coords
    for bad in (True, 1.0, 0, None):
        with pytest.raises(ValueError, match="CR dimension must be a positive integer"):
            SpherePoint(coords, bad)
        with pytest.raises(ValueError, match="CR dimension must be a positive integer"):
            SpherePoint.stack(coords[None], bad)
    for n in (1, np.int64(1)):
        assert type(SpherePoint(coords, n).n) is int
        assert type(SpherePoint.stack(coords[None], n)[0].n) is int


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


def horizontal_frame_reference(p, skipped=None):
    """The one-point Gram-Schmidt of horizontal_frame, point by point: the
    oracle of the stacked build.  Appends the seeds it skips to `skipped`."""
    q = p.coords
    t = times_i(q)
    chosen = []
    span = []  # chosen vectors together with their J-images
    # row k is the projected seed e_k - q_k q - t_k t
    for k, w in enumerate(np.eye(p.dim) - np.outer(q, q) - np.outer(t, t)):
        for u in span:
            w = w - (u @ w) * u
        norm = math.sqrt(w @ w)
        if norm < FRAME_SEED_MIN:
            if skipped is not None:
                skipped.append(k)
            continue
        w = w / norm
        chosen.append(w)
        if len(chosen) == p.n:
            break
        span.extend([w, times_i(w)])
    top = np.array(chosen)
    return np.concatenate((top, times_i(top)))


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


def _near_seed_min(n, j, delta, seed):
    """A point whose projected seed e_j has length FRAME_SEED_MIN + delta.

    That projection has squared length 1 - |z_j|^2 for both seeds of the
    complex coordinate z_j, so |z_j| is set to sqrt(1 - s^2) and the
    other coordinates share the remaining length s.
    """
    rng = np.random.default_rng(seed)
    s = FRAME_SEED_MIN + delta
    v = rng.standard_normal(2 * n + 2)
    v[[j, j + n + 1]] = 0.0
    v *= s / np.linalg.norm(v)
    phase = rng.uniform(0.0, 2.0 * np.pi)
    v[j], v[j + n + 1] = math.sqrt(1.0 - s * s) * np.array([math.cos(phase), math.sin(phase)])
    return SpherePoint(v / np.linalg.norm(v), n)


def _edge_point(n, kind, k, sign, delta, seed):
    m = 2 * n + 2
    if kind == "random":
        return random_point(np.random.default_rng(seed), n)
    if kind == "axis":
        return _near_axis(n, k % m, sign, 0.0, seed)
    if kind == "pole":  # the chart poles +-e_(2n+2)
        return _near_axis(n, m - 1, sign, 0.0, seed)
    if kind == "near_axis":
        return _near_axis(n, k % m, sign, 10.0 ** -(3 + seed % 10), seed)
    return _near_seed_min(n, k % (n + 1), delta, seed)


EDGE_POINTS = st.tuples(
    st.sampled_from(["random", "axis", "pole", "near_axis", "seed_min"]),
    st.integers(0, 7),
    st.sampled_from([1.0, -1.0]),
    st.floats(-1e-9, 1e-9),
    st.integers(0, 2**32 - 1),
)


@settings(max_examples=120, deadline=None)
@given(st.integers(1, 3), st.lists(EDGE_POINTS, min_size=1, max_size=8))
def test_stacked_frame_rows_match_the_one_point_oracle(n, specs):
    points = [_edge_point(n, *spec) for spec in specs]
    frame = horizontal_frame(points)
    assert frame.base == tuple(points) and frame.matrix().shape == (len(points), 2 * n, 2 * n + 2)
    for p, rows in zip(points, frame.matrix()):
        assert rows.tobytes() == horizontal_frame_reference(p).tobytes()  # signed zeros too


@pytest.mark.parametrize("n", [1, 2, 3])
def test_mixed_stack_rows_skip_their_own_seeds(n):
    m = 2 * n + 2
    points_and_skips = [
        (random_point(np.random.default_rng(1), n), []),
        (_near_axis(n, 0, 1.0, 0.0, 0), [0]),
        (_near_axis(n, 1, -1.0, 0.0, 0), [1] if n > 1 else []),
        (_near_axis(n, m - 1, -1.0, 0.0, 0), []),  # a chart pole
        (_near_seed_min(n, 0, -1e-9, 2), [0]),
        (_near_seed_min(n, 0, 1e-9, 2), []),
    ]
    points = [p for p, _ in points_and_skips]
    frame = horizontal_frame(points)
    for i, (p, expected) in enumerate(points_and_skips):
        skipped = []
        assert frame.matrix()[i].tobytes() == horizontal_frame_reference(p, skipped).tobytes()
        assert skipped == expected
        assert frame.matrix()[i].tobytes() == horizontal_frame(p).matrix().tobytes()


def test_one_point_frame_is_the_single_stack(rng):
    for n in (1, 2, 3):
        p = random_point(rng, n)
        one, stack = horizontal_frame(p), horizontal_frame([p])
        assert one.base is p and stack.base == (p,)
        assert np.array_equal(one.matrix(), stack.matrix()[0])
        with pytest.raises(ValueError):
            stack.vectors
    with pytest.raises(ValueError):
        horizontal_frame([])


# ---------------------------------------------------------------------------
# The stacked draw.
# ---------------------------------------------------------------------------


def _draw_reference(seed, n, count, slots):
    """The per-point draw loop: random_point, then `slots` random_horizontal."""
    rng = np.random.default_rng(seed)
    points, vecs = [], []
    for _ in range(count):
        p = random_point(rng, n)
        points.append(p.coords)
        vecs.append([random_horizontal(rng, p).vec for _ in range(slots)])
    return np.array(points), np.array(vecs).reshape(count, slots, 2 * n + 2).transpose(1, 0, 2)


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("slots", [0, 1, 2, 3])
def test_stacked_draw_keeps_the_per_point_stream(n, slots):
    for seed, count in ((0, 1), (7, 25), (901, 100)):
        rng = np.random.default_rng(seed)
        points, vecs = random_point(rng, n, count, slots)
        ref_points, ref_vecs = _draw_reference(seed, n, count, slots)
        assert len(points) == count and vecs.shape == (slots, count, 2 * n + 2)
        assert all(isinstance(p, SpherePoint) and p.n == n for p in points)
        assert np.max(np.abs(np.array([p.coords for p in points]) - ref_points)) <= 1e-15
        if slots:
            assert np.max(np.abs(vecs - ref_vecs)) <= 1e-15
        # the stream goes on where the loop leaves it
        assert rng.standard_normal() == np.random.default_rng(seed).standard_normal(
            count * (1 + slots) * (2 * n + 2) + 1)[-1]


def test_a_point_holds_a_read_only_copy_of_its_coordinates():
    a = np.array([0.6, 0.0, 0.8, 0.0])
    p = SpherePoint(a, 1)
    with pytest.raises(ValueError):
        p.coords[0] = 5.0
    with pytest.raises(ValueError):
        p.coords[:] *= 1.1
    a[0] = 5.0
    assert p.coords.tolist() == [0.6, 0.0, 0.8, 0.0]
    assert a.flags.writeable


def test_stacked_points_are_read_only_and_typed():
    points, _ = random_point(np.random.default_rng(2), 2, 4)
    for p in points:
        assert abs(np.linalg.norm(p.coords) - 1.0) <= 1e-15
        with pytest.raises(ValueError):
            p.coords[0] = 1.0
    with pytest.raises(ValueError):
        random_point(np.random.default_rng(2), 2, slots=1)


class _FixedDraw:
    """A generator stand-in whose standard_normal returns a given array."""

    def __init__(self, values):
        self.values = values

    def standard_normal(self, shape):
        assert np.shape(self.values) == shape
        return np.array(self.values, dtype=float)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("row, slot", [(0, 0), (2, 0), (1, 1), (2, 2)])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1e300, 0.0])
def test_a_poisoned_row_of_the_draw_raises(row, slot, bad):
    # slot 0 is the point, slots 1 and 2 its vectors; a zero point or
    # vector row has no direction, and 1e300 overflows its length
    values = np.random.default_rng(4).standard_normal((3, 3, 4))
    values[row, slot] = 0.0 if bad == 0.0 else values[row, slot]
    values[row, slot, 1] = bad
    with pytest.raises(ValueError):
        random_point(_FixedDraw(values), 1, 3, slots=2)
    values[row, slot] = np.random.default_rng(5).standard_normal(4)
    random_point(_FixedDraw(values), 1, 3, slots=2)


@pytest.mark.parametrize("bad", NON_FINITE)
def test_point_stack_rejects_a_poisoned_row(bad):
    coords = np.eye(4)[:3].copy()
    SpherePoint.stack(coords, 1)
    for row in range(3):
        poisoned = coords.copy()
        poisoned[row, 2] = bad
        with pytest.raises(ValueError):
            SpherePoint.stack(poisoned, 1)
        off = coords.copy()
        off[row] *= 1.0 + 1e-9
        with pytest.raises(ValueError, match="unit sphere"):
            SpherePoint.stack(off, 1)
    with pytest.raises(ValueError):
        SpherePoint.stack(np.eye(6)[:2], 1)


@pytest.mark.parametrize("bad", (*NON_FINITE, "off_sphere"))
def test_horizontal_frame_rejects_a_poisoned_point_in_a_stack(rng, bad):
    # a point's coordinates are read-only, but a caller can still replace
    # them on purpose past the frozen dataclass; horizontal_frame checks
    # the stack again
    for row in range(3):
        points = [random_point(rng, 2) for _ in range(3)]
        coords = points[row].coords.copy()
        if bad == "off_sphere":
            coords *= 1.0 + 1e-9
        else:
            coords[3] = bad
        object.__setattr__(points[row], "coords", coords)
        with pytest.raises(ValueError):
            horizontal_frame(points)


def test_stacked_frame_rejects_a_poisoned_row(rng):
    points = [random_point(rng, 1) for _ in range(3)]
    rows = horizontal_frame(points).matrix()
    HorizontalFrame(points, rows)
    for row in range(3):
        for bad in NON_FINITE:
            poisoned = rows.copy()
            poisoned[row, 1, 0] = bad
            with pytest.raises(ValueError):
                HorizontalFrame(points, poisoned)
        # a frame at another point is orthonormal and J-paired, but not horizontal here
        moved = rows.copy()
        moved[row] = horizontal_frame(random_point(rng, 1)).matrix()
        with pytest.raises(ValueError):
            HorizontalFrame(points, moved)
    with pytest.raises(ValueError):
        HorizontalFrame(points, rows[:2])
