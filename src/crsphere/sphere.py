"""The unit sphere S^(2n+1) in R^(2n+2) as a pseudohermitian manifold.

Coordinates are laid out as (x^1, ..., x^(n+1), y^1, ..., y^(n+1)) and
identified with C^(n+1) via z^j = x^j + i y^j.  The conventions used by
every other module are fixed here once:

  * Reeb field        T(p) = i p = (-y, x)
  * contact form      theta(v) = <i p, v>
  * horizontal space  H_p = Euclidean orthogonal complement of {p, i p}
  * complex structure J = ambient multiplication by i on H
  * Levi form         G(X, Y) = <X, Y> on H
  * Webster metric    g = round metric (Euclidean on tangent spaces)

Under this normalization the literal exterior derivative of theta
satisfies d theta(X, Y) = -2 g(X, JY); the factor 2 is a property of
the convention, not an error, and tests pin it down.
"""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Integral
from operator import index

import numpy as np

UNIT_TOL = 1e-12
TYPE_TOL = 1e-12  # tolerance enforced on typed values
ARG_TOL = 1e-9    # tolerance for validating raw array arguments
FRAME_TOL = 1e-10  # Levi-orthonormality and J-pairing of a horizontal frame


def _finite(values, what):
    """Raise ValueError unless every entry is finite.

    The tolerance guards below are written `not residual <= tol`, which
    also rejects NaN; an infinite entry can still slip through a guard
    scaled by the norm (inf <= tol * inf), so it is rejected here.
    """
    if not np.all(np.isfinite(values)):
        raise ValueError("%s has a non-finite entry" % what)


def _is_positive_int(value):
    """An integer >= 1 that is not a bool; numpy integers count.  Callers
    that keep the value convert it with operator.index after the guard."""
    return not isinstance(value, bool) and isinstance(value, Integral) and value >= 1


def _norms(v):
    """Euclidean lengths over the last axis; each equals np.linalg.norm of its row."""
    return np.sqrt(np.vecdot(v, v))


def _check_points(coords, n, stack):
    """n as a Python int, or ValueError unless it is a positive integer
    and coords holds finite unit vectors of R^(2n+2) with leading axes
    `stack`: () for one point, (K,) for K of them."""
    if not _is_positive_int(n):
        raise ValueError("CR dimension must be a positive integer, got %r" % (n,))
    if coords.shape != stack + (2 * n + 2,):
        raise ValueError(
            "expected %d coordinates, got shape %s" % (2 * n + 2, coords.shape)
        )
    _finite(coords, "point")
    if not np.all(np.abs(_norms(coords) - 1.0) <= UNIT_TOL):
        raise ValueError("point is not on the unit sphere")
    return index(n)


def _check_tangent(q, v, tol, what, horizontal):
    """Raise ValueError unless each row of v is finite and tangent at its
    row of q, and also horizontal there when `horizontal` is set (rows
    broadcast against the points).

    Each row is held to tol times max(1, its length), as a single
    TangentVector is.  This is the one tangency and horizontality check
    of the library; each caller passes its own tolerance.
    """
    _finite(v, what)
    scale = tol * np.maximum(1.0, _norms(v))
    if horizontal and not np.all(np.abs(np.vecdot(v, times_i(q))) <= scale):
        raise ValueError("%s has a Reeb component: not horizontal" % what)
    if not np.all(np.abs(np.vecdot(v, q)) <= scale):
        raise ValueError("%s is not tangent to the sphere at its point" % what)


def times_i(v):
    """Ambient multiplication by i: (x, y) -> (-y, x), on the last axis.

    Real input gives floats; complex input (a dual value) stays complex.
    """
    v = np.asarray(v, dtype=complex if np.iscomplexobj(v) else float)
    half = v.shape[-1] // 2
    out = np.empty_like(v)
    np.negative(v[..., half:], out=out[..., :half])
    out[..., half:] = v[..., :half]
    return out


@dataclass(frozen=True, eq=False)
class SpherePoint:
    """Unit vector in R^(2n+2), layout (x^1..x^(n+1), y^1..y^(n+1)).

    The point holds its own read-only copy of the coordinates, so
    neither the caller's array nor a write through `coords` can move it.
    """

    coords: np.ndarray
    n: int

    def __post_init__(self):
        coords = np.array(self.coords, dtype=float)
        coords.flags.writeable = False
        object.__setattr__(self, "coords", coords)
        object.__setattr__(self, "n", _check_points(coords, self.n, ()))

    @classmethod
    def stack(cls, coords, n):
        """One point per row of a (K, 2n+2) array, the rows checked together.

        The rows are copied into one read-only array, checked once as a
        whole exactly as a single point is checked, and each point
        holds its row of it.
        """
        coords = np.array(coords, dtype=float)
        n = _check_points(coords, n, coords.shape[:1])
        coords.flags.writeable = False
        points = []
        for row in coords:
            p = object.__new__(cls)
            object.__setattr__(p, "coords", row)
            object.__setattr__(p, "n", n)
            points.append(p)
        return tuple(points)

    @property
    def dim(self):
        return 2 * self.n + 2

    def reeb_coords(self):
        return times_i(self.coords)

    def __repr__(self):
        return "SpherePoint(n=%d, %s)" % (self.n, np.array2string(self.coords, precision=6))


@dataclass(frozen=True, eq=False)
class TangentVector:
    """Ambient vector attached to a point and orthogonal to it."""

    base: SpherePoint
    vec: np.ndarray
    horizontal: bool = False

    def __post_init__(self):
        vec = np.asarray(self.vec, dtype=float)
        object.__setattr__(self, "vec", vec)
        if vec.shape != self.base.coords.shape:
            raise ValueError("vector dimension does not match the base point")
        _check_tangent(self.base.coords, vec, TYPE_TOL, "tangent vector", self.horizontal)

    @property
    def norm(self):
        return float(np.linalg.norm(self.vec))

    def __repr__(self):
        return "TangentVector(%s, horizontal=%s)" % (
            np.array2string(self.vec, precision=6),
            self.horizontal,
        )


def _point_coords(p):
    """The coordinates of a SpherePoint or a PointJet, or the (K, m) rows
    of a nonempty sequence of SpherePoints.

    This is the one reader of point arguments; any other input, a raw
    coordinate array included, raises ValueError.
    """
    coords = getattr(p, "coords", None)  # a SpherePoint, or a PointJet of one or K points
    if isinstance(coords, np.ndarray):
        return coords
    if isinstance(p, (list, tuple)) and p and all(isinstance(pt, SpherePoint) for pt in p):
        return np.array([pt.coords for pt in p])
    raise ValueError(
        "expected a SpherePoint, a PointJet or a nonempty sequence of SpherePoints, got %s"
        % type(p).__name__
    )


def _vec_at(p, v, what="vector", horizontal=False):
    """A direction at p as a float array: a TangentVector at p unwrapped,
    or a raw array checked by the guard at ARG_TOL.

    p is anything _point_coords reads; at a PointJet or a sequence of K
    points, v holds one row per point.  With `horizontal` set, the
    direction must also be horizontal; a TangentVector flagged
    horizontal was checked when it was made.  This is the one reader of
    direction arguments.
    """
    q = _point_coords(p)
    if isinstance(v, TangentVector):
        if v.base is not p and not np.array_equal(v.base.coords, q):
            raise ValueError("tangent vector attached to a different base point")
        if v.horizontal or not horizontal:
            return v.vec
        v = v.vec
    v = np.asarray(v, dtype=float)
    if v.shape != q.shape:
        raise ValueError("%s of shape %s at a point of shape %s" % (what, v.shape, q.shape))
    _check_tangent(q, v, ARG_TOL, what, horizontal)
    return v


def reeb(p):
    """Characteristic direction at p: the ambient vector i p."""
    return TangentVector(p, times_i(p.coords))


def contact_form(p, v):
    """theta(v) = <i p, v>; zero exactly on the horizontal space."""
    vec = _vec_at(p, v)
    return float(p.reeb_coords() @ vec)


def horizontal_project(p, v):
    """v minus theta(v) T; idempotent, kills the Reeb direction."""
    vec = _vec_at(p, v)
    t = p.reeb_coords()
    return TangentVector(p, vec - (t @ vec) * t, horizontal=True)


def complex_structure(p, X):
    """J X = i X for horizontal X; defined on the horizontal space only."""
    vec = _vec_at(p, X, "J argument", horizontal=True)
    return TangentVector(p, times_i(vec), horizontal=True)


def levi_form(p, X, Y):
    """Positive form on the horizontal space; Euclidean under our gauge."""
    xv = _vec_at(p, X, "Levi form argument", horizontal=True)
    yv = _vec_at(p, Y, "Levi form argument", horizontal=True)
    return float(xv @ yv)


def webster_metric(p, u, v):
    """Round metric on tangent vectors; extends the Levi form, T is unit."""
    uv = _vec_at(p, u)
    vv = _vec_at(p, v)
    return float(uv @ vv)


def omega_form(p, X, Y):
    """Omega(X, Y) = g(X, J Y), with J extended by J T = 0."""
    xv = _vec_at(p, X)
    yv = _vec_at(p, Y)
    t = p.reeb_coords()
    yh = yv - (t @ yv) * t
    return float(xv @ times_i(yh))


@dataclass(frozen=True, eq=False)
class HorizontalFrame:
    """Levi-orthonormal horizontal frame with X_(alpha+n) = J X_alpha,
    at one point or at each point of a stack.

    At one SpherePoint the frame is one read-only (2n, 2n+2) array of
    frame vectors as rows; `rows` may be that array or any sequence of
    vectors (TangentVectors included).  At a sequence of K points it is
    one read-only (K, 2n, 2n+2) array.  Every invariant is checked
    once, over the whole array.
    """

    base: SpherePoint | tuple
    rows: np.ndarray

    def __post_init__(self):
        if not isinstance(self.base, SpherePoint):
            object.__setattr__(self, "base", tuple(self.base))
        q = _point_coords(self.base)
        n = q.shape[-1] // 2 - 1
        rows = self.rows
        if not isinstance(rows, np.ndarray):
            rows = [getattr(v, "vec", v) for v in rows]
        mat = np.array(rows, dtype=float)
        if mat.shape != q.shape[:-1] + (2 * n, 2 * n + 2):
            raise ValueError("frame must have 2n vectors of the ambient dimension")
        mat.flags.writeable = False
        object.__setattr__(self, "rows", mat)
        _check_tangent(q[..., None, :], mat, TYPE_TOL, "frame vector", horizontal=True)
        # Each check passes only when its largest residual is <= the
        # tolerance, which a NaN residual never is.
        if not np.abs(mat @ np.swapaxes(mat, -1, -2) - np.eye(2 * n)).max() <= FRAME_TOL:
            raise ValueError("frame is not Levi-orthonormal")
        if not np.abs(times_i(mat[..., :n, :]) - mat[..., n:, :]).max() <= FRAME_TOL:
            raise ValueError("frame does not satisfy X_(a+n) = J X_a")

    def matrix(self):
        """Read-only array of frame vectors as rows: (2n, 2n+2), or (K, 2n, 2n+2)."""
        return self.rows

    @property
    def vectors(self):
        """The frame at one point as horizontal TangentVectors, built on each access."""
        if not isinstance(self.base, SpherePoint):
            raise ValueError("a frame over a stack of points has no single vector tuple")
        return tuple(TangentVector(self.base, v, horizontal=True) for v in self.rows)


def horizontal_frame(p):
    """Deterministic adapted frame at p, or at each point of a sequence p.

    One complex Householder reflector H = I - 2 v v*/|v|^2 per point, in
    real arithmetic: v = p + u, with u the unit vector along (x^1, y^1),
    or e_1 when that pair is zero.  H is unitary and sends e_1 to a unit
    multiple of p, so X_a = H e_(a+1), a = 1..n, and their J-images are
    a Levi-orthonormal frame of H_p.  As |v|^2 = 2 (1 + |z^1|) >= 2,
    nothing is divided by a small number.

    A sequence of K points is one stack, with the same elementwise
    operations on each point; the frame at one point is the stack of
    K = 1.  The points' coordinates are checked again first, so a point
    changed after it was made cannot pass.
    """
    single = isinstance(p, SpherePoint)
    points = (p,) if single else tuple(p)
    q = _point_coords(points)
    n = points[0].n
    _check_points(q, n, q.shape[:1])
    pair = q[:, [0, n + 1]]
    r = np.hypot(pair[:, :1], pair[:, 1:])
    v = q.copy()
    v[:, [0, n + 1]] += np.divide(pair, r, out=np.tile([1.0, 0.0], (len(q), 1)), where=r > 0.0)
    iv = times_i(v)
    top = np.eye(2 * n + 2)[1 : n + 1] - (2.0 / np.vecdot(v, v))[:, None, None] * (
        v[:, 1 : n + 1, None] * v[:, None, :] + iv[:, 1 : n + 1, None] * iv[:, None, :]
    )
    rows = np.concatenate((top, times_i(top)), axis=1)
    return HorizontalFrame(p, rows[0]) if single else HorizontalFrame(points, rows)


def s3_frame_coefficients(p):
    """Coefficient functions of the explicit S^3 frame off {x2 = y2 = 0}."""
    if p.n != 1:
        raise ValueError("explicit frame is specific to S^3")
    x1, x2, y1, y2 = p.coords
    den = x2 * x2 + y2 * y2
    if den < 1e-9:
        raise ValueError("point lies on the excluded circle {x2 = y2 = 0}")
    f = (x1 * x2 + y1 * y2) / den
    g = (x1 * y2 - y1 * x2) / den
    return f, g


def s3_explicit_frame(p):
    """The explicit (non-normalized) spanning pair X, Y of H(S^3).

    X = d/dx1 - F d/dx2 - G d/dy2 and Y = d/dy1 + G d/dx2 - F d/dy2 with
    F = (x1 x2 + y1 y2)/(x2^2 + y2^2), G = (x1 y2 - y1 x2)/(x2^2 + y2^2).
    """
    f, g = s3_frame_coefficients(p)
    xv = np.array([1.0, -f, 0.0, -g])
    yv = np.array([0.0, g, 1.0, -f])
    return (
        TangentVector(p, xv, horizontal=True),
        TangentVector(p, yv, horizontal=True),
    )


# ----------------------------------------------------------------------
# Sampling helpers (seeded by the caller; used by tests and suites).
# ----------------------------------------------------------------------


def random_point(rng, n, count=None, slots=0):
    """A random point of S^(2n+1), or a stack of points with `slots`
    random unit horizontal vectors at each.

    With count None: one SpherePoint.  With a count K: the pair
    (points, vectors) of a tuple of K points and a (slots, K, 2n+2)
    array whose [s, i] row is the s-th vector at point i.  The stack is
    one rng.standard_normal((K, 1 + slots, 2n+2)), each point's row
    followed by its vectors' rows: the stream of K rounds of one
    random_point and `slots` random_horizontal calls, with the same
    operations on each row.  Points and vectors are checked in bulk:
    finite, of unit length, and the vectors tangent and horizontal at
    their points, at the tolerances of SpherePoint and TangentVector.
    An n that is not a positive integer raises before any draw.
    """
    if not _is_positive_int(n):
        raise ValueError("CR dimension must be a positive integer, got %r" % (n,))
    m = 2 * n + 2
    if count is None:
        if slots:
            raise ValueError("horizontal vectors are drawn only with a count of points")
        v = rng.standard_normal(m)
        return SpherePoint(v / np.linalg.norm(v), n)
    draw = rng.standard_normal((count, 1 + slots, m))
    q = draw[:, 0] / _norms(draw[:, 0])[:, None]
    points = SpherePoint.stack(q, n)
    t = times_i(q)
    w = np.swapaxes(draw[:, 1:], 0, 1)
    w = w - np.vecdot(w, q)[..., None] * q - np.vecdot(w, t)[..., None] * t
    w = w / _norms(w)[..., None]
    if not np.all(np.abs(_norms(w) - 1.0) <= UNIT_TOL):
        raise ValueError("horizontal vector is not of unit length")
    _check_tangent(q, w, TYPE_TOL, "horizontal vector", horizontal=True)
    return points, w


def random_horizontal(rng, p):
    q = p.coords
    t = times_i(q)
    w = rng.standard_normal(p.dim)
    w = w - (q @ w) * q - (t @ w) * t
    w = w / np.linalg.norm(w)
    return TangentVector(p, w, horizontal=True)


def random_tangent(rng, p):
    q = p.coords
    w = rng.standard_normal(p.dim)
    w = w - (q @ w) * q
    w = w / np.linalg.norm(w)
    return TangentVector(p, w)
