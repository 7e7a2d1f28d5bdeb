"""Differential operators of pseudohermitian geometry on polynomial data.

Scalar fields are restrictions to the sphere of exact polynomials;
vector fields along the sphere are tuples of exact polynomials.  The
exact integrals and the difference route to the sublaplacian build
their polynomials symbolically.  A symbolic polynomial stands only for
its restriction to the sphere, so it may be built with |q|^2 = 1,
Euler's identity q . grad f = sum_d d f_d and iq . grad f = T0 f; two
polynomials that agree on the sphere are interchangeable, but need
not be equal as polynomials.  The pointwise routes read f only
through its exact flat partials (up to third order) evaluated at the
point; products with the frame, the Reeb field, the projection pi_H
and the canonical horizontal extensions are differentiated by the
product rule, in floats, at that point.  What they read of f at a
point (the adapted frame, the flat gradient and Hessian, T0 f, and on
first use the symmetric third partials and the Hessian block) is
built once into a `PointJet`, over one point or a stack of K points;
every pointwise evaluator takes the jet, a point or a sequence of
points, and returns a float for one point or a length-K array for a
stack.  So checks at one point share its jet, and a suite evaluates
each identity once over all the points of a field.  Either way
the residuals of the identities verified here are limited only by the
floating-point budget of the final evaluation.  Finite differences
appear solely as independent oracles in the test suite; this holds for
the whole library, the Hamilton-Jacobi field of `geodesics` included.

The adapted connection used throughout is

    nabla_X Y = D_X Y + <X,Y> q - Omega(X,Y) T - theta(X) J Y - theta(Y) J X

with D the ambient directional derivative, T = i q the Reeb field,
J v = i pi_H v, and Omega(u, v) = <pi_H u, i pi_H v>.  It preserves the
horizontal bundle, the round metric and J, kills T, and its torsion on
horizontal fields is -2 Omega(X,Y) T; torsion in the Reeb direction
vanishes (the spheres are torsion-free in the pseudohermitian sense).
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property

import numpy as np

from .polynomials import Polynomial, euclidean_laplacian, sphere_integral
from .sphere import (
    ARG_TOL,
    HorizontalFrame,
    SpherePoint,
    TangentVector,
    _check_horizontal,
    horizontal_frame,
    times_i,
)
from .spectrum import t0_apply

EXCHANGE_TOL = 1e-9  # HessianBlock's check of its horizontal antisymmetry


# ----------------------------------------------------------------------
# Polynomial vector fields along the sphere.
# ----------------------------------------------------------------------


class VectorFieldPoly:
    """Vector field with polynomial ambient components.

    Only the restriction to the sphere is ever meaningful; two fields
    that agree on the sphere are interchangeable everywhere below.
    """

    __slots__ = ("comps", "n", "_partials")

    def __init__(self, comps, n):
        comps = tuple(comps)
        if len(comps) != 2 * n + 2:
            raise ValueError("expected 2n+2 components")
        self.comps = comps
        self.n = n
        self._partials = None

    # -- constructors ----------------------------------------------------

    @classmethod
    def reeb(cls, n):
        m = 2 * n + 2
        comps = [-Polynomial.variable(m, n + 1 + j) for j in range(n + 1)]
        comps += [Polynomial.variable(m, j) for j in range(n + 1)]
        return cls(comps, n)

    @classmethod
    def coordinate_field(cls, n):
        """The position field q (normal to the sphere; used internally)."""
        m = 2 * n + 2
        return cls([Polynomial.variable(m, k) for k in range(m)], n)

    @classmethod
    def constant(cls, vec, n):
        m = 2 * n + 2
        return cls([Polynomial.constant(m, Fraction(v)) for v in vec], n)

    @classmethod
    def horizontal_extension(cls, vec, n):
        """v - <v,q> q - <v,iq> iq: horizontal on the whole sphere."""
        vec = getattr(vec, "vec", vec)
        m = 2 * n + 2
        exact = [_rationalize(v) for v in vec]
        q = cls.coordinate_field(n)
        iq = q.times_i()
        v_dot_q = Polynomial(m)
        v_dot_iq = Polynomial(m)
        for vk, qk, ik in zip(exact, q.comps, iq.comps):
            if vk:
                v_dot_q = v_dot_q + vk * qk
                v_dot_iq = v_dot_iq + vk * ik
        comps = [
            Polynomial.constant(m, vk) - v_dot_q * qk - v_dot_iq * ik
            for vk, qk, ik in zip(exact, q.comps, iq.comps)
        ]
        return cls(comps, n)

    # -- algebra ---------------------------------------------------------

    def __add__(self, other):
        return VectorFieldPoly([a + b for a, b in zip(self.comps, other.comps)], self.n)

    def __sub__(self, other):
        return VectorFieldPoly([a - b for a, b in zip(self.comps, other.comps)], self.n)

    def __neg__(self):
        return VectorFieldPoly([-a for a in self.comps], self.n)

    def scale(self, poly_or_scalar):
        return VectorFieldPoly([poly_or_scalar * a for a in self.comps], self.n)

    def times_i(self):
        half = self.n + 1
        comps = [-c for c in self.comps[half:]] + list(self.comps[:half])
        return VectorFieldPoly(comps, self.n)

    def dot(self, other):
        out = Polynomial(2 * self.n + 2)
        for a, b in zip(self.comps, other.comps):
            out = out + a * b
        return out

    def pi_h(self):
        """Horizontal projection, valid on the sphere, still polynomial."""
        q = VectorFieldPoly.coordinate_field(self.n)
        iq = q.times_i()
        return self - q.scale(self.dot(q)) - iq.scale(self.dot(iq))

    def apply_to(self, poly):
        """The scalar field W(f) = sum W_k d_k f as a polynomial."""
        out = Polynomial(2 * self.n + 2)
        for k, c in enumerate(self.comps):
            if not c.is_zero():
                out = out + c * poly.partial(k)
        return out

    def directional_along(self, other):
        """D_other self, componentwise, symbolically."""
        return VectorFieldPoly([other.apply_to(c) for c in self.comps], self.n)

    def lie_bracket(self, other):
        return other.directional_along(self) - self.directional_along(other)

    # -- evaluation -------------------------------------------------------

    def at(self, point):
        point = getattr(point, "coords", point)
        return np.array([c.evaluate(point) for c in self.comps])

    def partials(self):
        """Component partial derivatives, computed once and reused."""
        if self._partials is None:
            self._partials = tuple(c.gradient() for c in self.comps)
        return self._partials

    def jacobian_at(self, point):
        """Matrix J[j, k] = d_k (component j) evaluated at the point."""
        point = getattr(point, "coords", point)
        parts = self.partials()
        m = len(self.comps)
        jac = np.empty((m, m))
        for j in range(m):
            for k in range(m):
                jac[j, k] = parts[j][k].evaluate(point)
        return jac


def _rationalize(v):
    """Exact rational from an int/Fraction, or a snapped float.

    Extension fields seeded from floating-point frame vectors only need
    to reproduce the vector exactly at the base point; representing each
    float by its exact binary fraction does that.
    """
    if isinstance(v, (int, Fraction)):
        return Fraction(v)
    return Fraction(float(v))


# ----------------------------------------------------------------------
# Scalar fields.
# ----------------------------------------------------------------------


def sublaplacian_polynomial(poly, n):
    """Exact polynomial representing Delta_b of a polynomial restriction.

    Per homogeneous piece of degree d the sphere Laplacian of the
    restriction is (flat Laplacian) - d(d+2n) (restriction), and the
    sublaplacian subtracts T^2 on top of that; T is tangent to the
    sphere.  So the result depends only on the restriction of poly:
    polynomials that agree on the sphere give results that agree on
    the sphere, though not as polynomials.
    """
    out = Polynomial(2 * n + 2)
    for d, piece in poly.homogeneous_components().items():
        out = out + euclidean_laplacian(piece) - (d * (d + 2 * n)) * piece
    return out - t0_apply(t0_apply(poly))


class ScalarField:
    """Restriction to S^(2n+1) of an exact polynomial."""

    def __init__(self, poly, n):
        if poly.num_vars != 2 * n + 2:
            raise ValueError("polynomial in the wrong number of variables")
        self.poly = poly
        self.n = n

    def value(self, p):
        return self.poly.evaluate(p)

    @cached_property
    def grad_polys(self):
        return self.poly.gradient()

    @cached_property
    def hess_polys(self):
        return [g.gradient() for g in self.grad_polys]

    @cached_property
    def third_polys(self):
        return [[h.gradient() for h in row] for row in self.hess_polys]

    @cached_property
    def t0_poly(self):
        return t0_apply(self.poly)

    @cached_property
    def t0_grad_polys(self):
        return self.t0_poly.gradient()

    @cached_property
    def t0t0_poly(self):
        return t0_apply(self.t0_poly)

    @cached_property
    def sublaplacian_poly(self):
        return sublaplacian_polynomial(self.poly, self.n)

    @cached_property
    def sublaplacian_grad_polys(self):
        return self.sublaplacian_poly.gradient()

    @cached_property
    def grad_h_field(self):
        """Horizontal gradient as a polynomial field."""
        grad = VectorFieldPoly(self.grad_polys, self.n)
        return grad.pi_h()

    @cached_property
    def j_grad_h_field(self):
        """J grad_H f as a polynomial field, built once so its partials are reused."""
        return self.grad_h_field.times_i()

    @cached_property
    def grad_h_sq_poly(self):
        """|grad_H f|^2 as a restriction to the sphere.

        On the sphere q and iq are orthonormal, q . grad f is the Euler
        sum R = sum_d d f_d over the homogeneous pieces f_d of f, and
        iq . grad f is T0 f, so there

            |pi_H grad f|^2 = |grad f|^2 - R^2 - (T0 f)^2.

        As ambient polynomials the two sides differ by
        (R^2 + (T0 f)^2)(|q|^2 - 1); only the restriction is meaningful.
        """
        m = 2 * self.n + 2
        radial = Polynomial(m)
        for d, piece in self.poly.homogeneous_components().items():
            radial = radial + d * piece
        out = Polynomial(m)
        for g in self.grad_polys:
            out = out + g * g
        return out - radial * radial - self.t0_poly * self.t0_poly

    @cached_property
    def bochner_lhs_poly(self):
        return sublaplacian_polynomial(self.grad_h_sq_poly, self.n)

    @cached_property
    def l_operator_poly(self):
        return _operator_l_polynomial(self)

    def __repr__(self):
        return "ScalarField(n=%d, %r)" % (self.n, self.poly)


def reeb_derivative(f, p):
    """f0 = T(f), exact polynomial evaluated at p."""
    return f.t0_poly.evaluate(p)


def horizontal_gradient(f, p):
    return TangentVector(p, f.grad_h_field.at(p), horizontal=True)


def sublaplacian_greenleaf(f, p):
    """Delta_b f at p via the difference of Laplacian and T^2 (exact route).

    p is a SpherePoint, a sequence of them, or a PointJet; a stack is
    evaluated at once, each value bit-identical to its point alone.
    """
    return f.sublaplacian_poly.evaluate(_coords(p))


# ----------------------------------------------------------------------
# The adapted connection.
#
# The pointwise helpers follow one broadcasting rule: every dot product
# is over the last axis, and any leading axes broadcast.  So q may be
# one point or a stack of points, and the vectors one vector per point
# or a stack of rows per point (the frame rows [T; X_1..X_2n], or a
# pair of directions); a caller aligns the axes by inserting one, as in
# q[..., None, :] against rows of shape (..., R, m).
# ----------------------------------------------------------------------


def _pi_h_vec(q, v):
    """pi_H v at q; also the value at q of the horizontal extension seeded by v."""
    t = times_i(q)
    return v - np.vecdot(v, q)[..., None] * q - np.vecdot(v, t)[..., None] * t


def _pi_h_deriv(q, u, w, dw):
    """pi_H w at q and its D_u, for a field with value w and D_u value dw.

    The projection pi_H w = w - <q,w> q - <iq,w> iq moves with q and is
    differentiated by the product rule.
    """
    t, dt = times_i(q), times_i(u)
    val = _pi_h_vec(q, w)
    dval = (
        dw - (np.vecdot(u, w) + np.vecdot(dw, q))[..., None] * q
        - np.vecdot(q, w)[..., None] * u
        - (np.vecdot(dt, w) + np.vecdot(dw, t))[..., None] * t
        - np.vecdot(t, w)[..., None] * dt
    )
    return val, dval


def _big_j(q, v):
    """J with J T = 0: rotate the horizontal part by i."""
    return times_i(_pi_h_vec(q, v))


def _omega_vec(q, u, v):
    return np.vecdot(_pi_h_vec(q, u), times_i(_pi_h_vec(q, v)))


def _cov_deriv_pointwise(q, u, y, dy):
    """Connection formula at a point, given the field value and D_u value."""
    t = times_i(q)
    return (
        dy
        + np.vecdot(u, y)[..., None] * q
        - _omega_vec(q, u, y)[..., None] * t
        - np.vecdot(u, t)[..., None] * _big_j(q, y)
        - np.vecdot(y, t)[..., None] * _big_j(q, u)
    )


def _ext_deriv(q, u, v):
    """D_u at q of the canonical horizontal extension seeded by v."""
    t = times_i(q)
    iu = times_i(u)
    return (
        -np.vecdot(v, u)[..., None] * q
        - np.vecdot(v, q)[..., None] * u
        - np.vecdot(v, iu)[..., None] * t
        - np.vecdot(v, t)[..., None] * iu
    )


def _coords(p):
    """The coordinates of a SpherePoint or PointJet, or the rows of a sequence of points."""
    return p.coords if hasattr(p, "coords") else np.array([pt.coords for pt in p])


def _directions(q, *vectors):
    """Direction arguments as float arrays shaped like q: one row per point."""
    out = []
    for v in vectors:
        v = np.asarray(getattr(v, "vec", v), dtype=float)
        if v.shape != q.shape:
            raise ValueError("directions of shape %s at points of shape %s" % (v.shape, q.shape))
        out.append(v)
    return out


def tanaka_webster_derivative(p, X, Y):
    """Covariant derivative nabla_X Y at p of a polynomial field Y.

    X is a tangent vector at p; Y must take tangent values near p.
    """
    q = p.coords
    x = X.vec if isinstance(X, TangentVector) else np.asarray(X, dtype=float)
    y_at = Y.at(q)
    if abs(float(y_at @ q)) > 1e-8 * max(1.0, float(np.linalg.norm(y_at))):
        raise ValueError("field is not tangent at the evaluation point")
    t = times_i(q)
    theta_x = float(t @ x)
    theta_y = float(t @ y_at)
    deriv = Y.jacobian_at(q) @ x
    vec = (
        deriv
        + float(x @ y_at) * q
        - _omega_vec(q, x, y_at) * t
        - theta_x * _big_j(q, y_at)
        - theta_y * _big_j(q, x)
    )
    return TangentVector(p, vec)


def covariant_derivative_field(X, Y):
    """nabla_X Y as a polynomial field, for polynomial fields X, Y.

    Symbolic version of the connection; agrees with the pointwise
    formula on the sphere.
    """
    n = X.n
    q = VectorFieldPoly.coordinate_field(n)
    iq = q.times_i()
    deriv = Y.directional_along(X)
    x_dot_y = X.dot(Y)
    theta_x = X.dot(iq)
    theta_y = Y.dot(iq)
    jx = X.pi_h().times_i()
    jy = Y.pi_h().times_i()
    omega = X.pi_h().dot(jy)
    return deriv + q.scale(x_dot_y) - iq.scale(omega) - jy.scale(theta_x) - jx.scale(theta_y)


def _adapted_rows(q, frame_rows):
    """The rows [T; X_1..X_2n] of the adapted frame, at one point or each of a stack."""
    return np.concatenate((times_i(q)[..., None, :], frame_rows), axis=-2)


def divergence(p, V):
    """Frame trace of the covariant derivative over (T, X_1..X_2n)."""
    q = p.coords
    rows = _adapted_rows(q, horizontal_frame(p).matrix())
    nabla = _cov_deriv_pointwise(q, rows, V.at(q), rows @ V.jacobian_at(q).T)
    return float(np.einsum("ij,ij->", nabla, rows))


# ----------------------------------------------------------------------
# Hessian with respect to the adapted connection.
# ----------------------------------------------------------------------


def _values(polys, q):
    """The polynomials' values at q, shape (len(polys),), or at each row of a stack q.

    Each value comes from the polynomial's cached per-point float form:
    for the few-term flat partials that is cheaper than the stacked
    `Polynomial.evaluate`, and the values are the same.
    """
    if q.ndim == 1:
        return np.array([p.evaluate(q) for p in polys])
    return np.array([[p.evaluate(row) for p in polys] for row in q])


def _grad_hess(f, q):
    """Flat gradient and Hessian of f's polynomial, evaluated at q."""
    m = len(q)
    grad = np.array([g.evaluate(q) for g in f.grad_polys])
    hess = np.empty((m, m))
    for i in range(m):
        for j in range(i, m):
            hess[i, j] = hess[j, i] = f.hess_polys[i][j].evaluate(q)
    return grad, hess


def hessian_form(f, p):
    """The bilinear form (u, v) -> (nabla^2 f)(u, v) at p.

    Expansion free of any choice of extension: for tangent u, v

        (nabla^2 f)(u,v) = u^T (Hess f) v - <u,v><q, grad f>
                           + Omega(u,v) <iq, grad f>
                           + theta(u) <J v, grad f> + theta(v) <J u, grad f>

    with flat Hessian and gradient of the ambient polynomial.  p is a
    SpherePoint, a sequence of them, or the PointJet of f there; for a
    stack of K points u and v are (K, m) rows, one pair per point.
    """
    jet = _jet(f, p)
    return _hessian_form_at(jet.coords, jet.grad, jet.hess)


def _hessian_form_at(q, grad, hess):
    """hessian_form at q from the flat gradient and Hessian there.

    The form pairs u with v under the broadcasting rule of the helpers,
    with q, grad and hess given the leading axes of the pairs: rows
    U[..., :, None, :] and V[..., None, :, :] give the matrix of values
    over every pair (U_i, V_j).
    """
    t = times_i(q)
    radial = np.vecdot(q, grad)
    reebward = np.vecdot(t, grad)

    def form(u, v):
        u = getattr(u, "vec", u)
        v = getattr(v, "vec", v)
        pu, pv = _pi_h_vec(q, u), _pi_h_vec(q, v)
        ju, jv = times_i(pu), times_i(pv)
        return (
            np.vecdot(np.matvec(hess, u), v) - np.vecdot(u, v) * radial
            + np.vecdot(pu, jv) * reebward
            + np.vecdot(u, t) * np.vecdot(jv, grad)
            + np.vecdot(ju, grad) * np.vecdot(v, t)
        )

    return form


class HessianBlock:
    """(2n+1) x (2n+1) Hessian over the adapted frame (T, X_1..X_2n).

    Index 0 is the Reeb direction.  The horizontal block is never
    symmetric: its antisymmetric part is carried entirely by T(f),

        H[j,k] - H[k,j] = 2 Omega(X_j, X_k) f0,

    which is checked at construction.  A block over a stack of K points
    takes a sequence of K points and their stacked frame, values of
    shape (K, 2n+1, 2n+1) and K Reeb values; it is checked point by
    point, and each method returns one value per point.
    """

    def __init__(self, base, frame, values, reeb_value):
        self.base = base
        self.frame = frame
        self.values = np.asarray(values, dtype=float)
        self.reeb_value = np.asarray(reeb_value, dtype=float)[()]
        n, stack = (base.n, ()) if isinstance(base, SpherePoint) else (base[0].n, (len(base),))
        self._frame_rows = frame.matrix()
        if self.values.shape != stack + (2 * n + 1, 2 * n + 1) or np.shape(reeb_value) != stack:
            raise ValueError("hessian block of the wrong shape")
        if not np.all(self.antisymmetry_residual() <= EXCHANGE_TOL):
            raise ValueError("horizontal antisymmetry identity violated")

    def horizontal_block(self):
        return self.values[..., 1:, 1:]

    def horizontal_trace(self):
        return np.trace(self.horizontal_block(), axis1=-2, axis2=-1)

    def horizontal_norm_sq(self):
        return np.sum(self.horizontal_block() ** 2, axis=(-2, -1))

    def antisymmetry_residual(self):
        mat = self._frame_rows
        omega = mat @ np.swapaxes(times_i(mat), -1, -2)  # omega[j,k] = <X_j, i X_k>
        h = self.horizontal_block()
        gap = h - np.swapaxes(h, -1, -2) - 2.0 * omega * self.reeb_value[..., None, None]
        return np.max(np.abs(gap), axis=(-2, -1))


# ----------------------------------------------------------------------
# Points, read once.
#
# Every pointwise evaluator below takes p as a SpherePoint, a sequence
# of them, or the PointJet of its field f there; several evaluations
# then share one frame, one flat jet and one T0 f per point.  It returns
# a float for one point and an array of K values for a stack of K.
# ----------------------------------------------------------------------


class PointJet:
    """What the pointwise evaluators read of a scalar field f at one point
    or at each point of a stack.

    Built by `point_jet`: the adapted frame and its rows [T; X_1..X_2n],
    the flat gradient and Hessian of f's polynomial, and T0 f.  The flat
    third partials and the Hessian block over the frame are built on
    first use and then shared.  For a stack of K points, `point` is a
    tuple of K, `frame` is their one stacked HorizontalFrame, and
    `coords`, `rows`, `grad`, `hess`, `t0`, `third` and the block's
    values carry a leading axis of K points.
    Immutable; its arrays are read-only.
    """

    def __init__(self, field, point, frame, grad, hess, t0):
        if isinstance(point, SpherePoint):
            coords, t0 = point.coords, float(t0)
        else:
            coords = _coords(point)
            t0 = np.array(t0, dtype=float)
            for a in (coords, t0):
                a.setflags(write=False)
        rows = _adapted_rows(coords, frame.matrix())
        for a in (rows, grad, hess):
            a.setflags(write=False)
        vars(self).update(
            field=field, point=point, frame=frame, coords=coords, rows=rows,
            grad=grad, hess=hess, t0=t0,
        )

    def __setattr__(self, name, value):
        raise AttributeError("a PointJet is immutable")

    @cached_property
    def third(self):
        """Flat third partials d_i d_j d_k f.

        They are symmetric in (i, j, k), so only i <= j <= k is
        evaluated: C(m+2, 3) of the m^3 entries.
        """
        q = self.coords
        m = q.shape[-1]
        polys = self.field.third_polys
        distinct = [(i, j, k) for i in range(m) for j in range(i, m) for k in range(j, m)]
        values = _values([polys[i][j][k] for i, j, k in distinct], q)
        third = np.empty(q.shape[:-1] + (m, m, m))
        for c, (i, j, k) in enumerate(distinct):
            v = values[..., c]
            third[..., i, j, k] = third[..., i, k, j] = third[..., j, i, k] = v
            third[..., j, k, i] = third[..., k, i, j] = third[..., k, j, i] = v
        third.setflags(write=False)
        return third

    @cached_property
    def block(self):
        """The HessianBlock over the adapted frame (`tw_hessian`)."""
        form = _hessian_form_at(
            self.coords[..., None, None, :], self.grad[..., None, None, :],
            self.hess[..., None, None, :, :],
        )
        values = form(self.rows[..., :, None, :], self.rows[..., None, :, :])
        return HessianBlock(self.point, self.frame, values, self.t0)


def point_jet(f, p):
    """The PointJet of f at p, or over a sequence of points p.

    Each point gets its own flat jet and T0 f; the frames of a sequence
    are built and validated as one stack.
    """
    if isinstance(p, SpherePoint):
        grad, hess = _grad_hess(f, p.coords)
        return PointJet(f, p, horizontal_frame(p), grad, hess, f.t0_poly.evaluate(p.coords))
    points = tuple(p)
    if not points:
        raise ValueError("a PointJet needs at least one point")
    jets = [_grad_hess(f, pt.coords) for pt in points]
    return PointJet(
        f, points, horizontal_frame(points),
        np.array([g for g, _ in jets]), np.array([h for _, h in jets]),
        [f.t0_poly.evaluate(pt.coords) for pt in points],
    )


def _jet(f, p):
    """p when it is already a PointJet of f, else the PointJet of f at p."""
    if isinstance(p, PointJet):
        if p.field is not f:
            raise ValueError("the PointJet belongs to another field")
        return p
    return point_jet(f, p)


def tw_hessian(f, p):
    """The HessianBlock of f over the adapted frame at p."""
    return _jet(f, p).block


def sublaplacian_frame(f, p):
    """Delta_b f at p as sum_j { X_j^2 f - (nabla_Xj Xj) f }.

    Each frame vector x is extended to the canonical horizontal field
    X~ it generates.  f is read only through its flat gradient and
    Hessian at p, and the product rule gives

        X(X~ f) = x^T (Hess f) x + (D_x X~) . grad f.

    Independent of the exact difference route.
    """
    jet = _jet(f, p)
    q, grad = jet.coords[..., None, :], jet.grad[..., None, :]
    x = jet.rows[..., 1:, :]
    dx = _ext_deriv(q, x, x)
    second = np.vecdot(x @ jet.hess, x) + np.vecdot(dx, grad)
    drift = _cov_deriv_pointwise(q, x, _pi_h_vec(q, x), dx)
    return np.sum(second - np.vecdot(drift, grad), axis=-1)


def connection_axiom_residuals(p, x, y, z):
    """Residuals of the four connection axioms at p.

    Returns (metric compatibility, J parallel, torsion purity, Reeb
    parallel) for horizontal vectors x, y, z, each extended by its
    canonical horizontal field.  The left side of the compatibility
    check uses only ambient derivatives, the right side only the
    connection.  For a sequence of K points x, y, z are (K, m) rows,
    and each residual is an array of K values.
    """
    q = _coords(p)
    x, y, z = _directions(q, x, y, z)
    t = times_i(q)
    y_at, z_at = _pi_h_vec(q, y), _pi_h_vec(q, z)
    dy, dz = _ext_deriv(q, x, y), _ext_deriv(q, x, z)
    nabla_x_y = _cov_deriv_pointwise(q, x, y_at, dy)
    nabla_x_z = _cov_deriv_pointwise(q, x, z_at, dz)
    lhs = np.vecdot(dy, z_at) + np.vecdot(y_at, dz)
    rhs = np.vecdot(nabla_x_y, z_at) + np.vecdot(y_at, nabla_x_z)
    metric = np.abs(lhs - rhs)

    iy = times_i(y)
    nabla_x_jy = _cov_deriv_pointwise(q, x, _pi_h_vec(q, iy), _ext_deriv(q, x, iy))
    j_parallel = np.max(np.abs(nabla_x_jy - _big_j(q, nabla_x_y)), axis=-1)

    nabla_y_x = _cov_deriv_pointwise(q, y, _pi_h_vec(q, x), _ext_deriv(q, y, x))
    torsion = nabla_x_y - nabla_y_x - (dy - _ext_deriv(q, y, x))
    purity = np.max(np.abs(torsion + 2.0 * _omega_vec(q, x, y)[..., None] * t), axis=-1)

    reeb_parallel = np.max(np.abs(_cov_deriv_pointwise(q, x, t, times_i(x))), axis=-1)
    return metric, j_parallel, purity, reeb_parallel


# ----------------------------------------------------------------------
# Curvature and Ricci of the adapted connection.
# ----------------------------------------------------------------------


def curvature_sphere(p, X, Y, Z):
    """R(X,Y)Z on horizontal vectors from the constant-holomorphic-
    sectional-curvature expression of the sphere connection.

    X, Y and Z follow the broadcasting rule of the pointwise helpers:
    a stack of rows X with single vectors Y, Z gives one row R(X_i,Y)Z
    per row of X.
    """
    x = getattr(X, "vec", X)
    y = getattr(Y, "vec", Y)
    z = getattr(Z, "vec", Z)
    jx, jy, jz = times_i(x), times_i(y), times_i(z)
    return (
        np.vecdot(y, z)[..., None] * x
        - np.vecdot(x, z)[..., None] * y
        + np.vecdot(jy, z)[..., None] * jx
        - np.vecdot(jx, z)[..., None] * jy
        - 2.0 * np.vecdot(jx, y)[..., None] * jz
    )


def curvature_via_connection(p, X, Y, Z):
    """R(X,Y)Z computed from second covariant derivatives (cross-check).

    X and Y seed their horizontal extensions exactly: int or Fraction
    entries are kept as they are, float entries become their binary
    fractions.  Small rationals keep the symbolic fields small.
    """
    x = getattr(X, "vec", X)
    y = getattr(Y, "vec", Y)
    n = p.n
    xf = VectorFieldPoly.horizontal_extension(x, n)
    yf = VectorFieldPoly.horizontal_extension(y, n)
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    nabla_y_z = covariant_derivative_field(yf, Z)
    nabla_x_z = covariant_derivative_field(xf, Z)
    first = tanaka_webster_derivative(p, x, nabla_y_z).vec
    second = tanaka_webster_derivative(p, y, nabla_x_z).vec
    bracket = xf.lie_bracket(yf).at(p.coords)
    third = tanaka_webster_derivative(p, bracket, Z).vec
    return first - second - third


def ricci(p, X):
    """rho(X, X) by tracing the curvature over a horizontal frame.

    p is a SpherePoint, with X one vector, or a sequence of K points,
    with X a (K, m) array of one vector per point; the frames of a
    sequence are built as one stack.  Each vector must be finite,
    tangent and horizontal at its point (to ARG_TOL), or ValueError is
    raised.  Returns a float, or an array of K values.
    """
    x = np.asarray(getattr(X, "vec", X), dtype=float)
    q = _coords(p)
    if x.shape != q.shape:
        raise ValueError("Ricci arguments of shape %s at points of shape %s" % (x.shape, q.shape))
    _check_horizontal(q, x, ARG_TOL, "Ricci argument")
    return _ricci_trace(p, horizontal_frame(p).matrix(), x)


def _ricci_trace(p, frame_rows, x):
    """sum_j <R(X_j, x) x, X_j> over the frame rows X_j (the last two axes).

    With a stack of frames, x holds one row per frame.
    """
    x = x[..., None, :]
    return np.sum(np.vecdot(curvature_sphere(p, frame_rows, x, x), frame_rows), axis=-1)


# ----------------------------------------------------------------------
# The first-order operator L and the integral identities.
# ----------------------------------------------------------------------


def _operator_l_polynomial(f):
    """L f = (J grad_H f)(T f) - (J nabla_T grad_H f)(f), symbolically.

    Valid as a restriction to the sphere (which is all the exact
    integration needs): along the sphere the Reeb covariant derivative
    of the horizontal gradient G collapses to D_T G - i G, and the
    pairing with J pi_H expands into three ambient dot products.
    """
    n = f.n
    g = f.grad_h_field
    grad = VectorFieldPoly(f.grad_polys, n)
    q = VectorFieldPoly.coordinate_field(n)
    iq = q.times_i()
    jg = f.j_grad_h_field
    term1 = jg.dot(VectorFieldPoly(f.t0_poly.gradient(), n))
    w = g.directional_along(VectorFieldPoly.reeb(n)) - jg
    term2 = (
        w.times_i().dot(grad)
        - w.dot(q) * iq.dot(grad)
        + w.dot(iq) * q.dot(grad)
    )
    return term1 - term2


def operator_l_parts(f, p):
    """Both terms of L f at p; the first vanishes when T(f) = 0.

    grad_H f and its D_T come from the flat jet by the product rule.
    """
    jet = _jet(f, p)
    q, grad = jet.coords, jet.grad
    t = times_i(q)
    g_at, dg = _pi_h_deriv(q, t, grad, np.matvec(jet.hess, t))
    term1 = np.vecdot(times_i(g_at), _values(f.t0_grad_polys, q))
    nabla_t_g = _cov_deriv_pointwise(q, t, g_at, dg)
    term2 = np.vecdot(_big_j(q, nabla_t_g), grad)
    return term1, term2


def operator_l(f, p):
    term1, term2 = operator_l_parts(f, p)
    return term1 - term2


def bochner_lhs(f, p):
    """(1/2) Delta_b |grad_H f|^2 at p, as a float, or at each point of a stack.

    p is a SpherePoint, a sequence of them, or a PointJet.  Over a
    stack the exact polynomial is evaluated once; each value is
    bit-identical to evaluating it at that point alone.
    """
    return 0.5 * f.bochner_lhs_poly.evaluate(_coords(p))


def bochner_residual(f, p):
    """Pointwise residual of the horizontal Bochner identity.

      (1/2) Delta_b |grad_H f|^2
        - |pi_H Hess f|^2 - (grad_H f)(Delta_b f)
        - rho(grad_H f, grad_H f) - 2 L f

    The left side is exact (`bochner_lhs`); the right side reads f
    through its flat gradient and Hessian at p.
    """
    jet = _jet(f, p)
    q, block = jet.coords, jet.block
    gh = _pi_h_vec(q, jet.grad)
    grad_term = np.vecdot(_values(f.sublaplacian_grad_polys, q), gh)
    ric = _ricci_trace(jet.point, jet.rows[..., 1:, :], gh)
    term1, term2 = operator_l_parts(f, jet)
    rhs = block.horizontal_norm_sq() + grad_term + ric + 2.0 * (term1 - term2)
    return bochner_lhs(f, jet) - rhs


def lemma1_residual(f, p):
    """div(J grad_H f) - 2n T(f) at p; the divergence lemma.

    J grad_H f = i pi_H grad f, and its D_u along each row u of the
    adapted frame comes from the flat jet by the product rule
    (`_pi_h_deriv`); the trace is `divergence`'s, over [T; X_1..X_2n].
    """
    jet = _jet(f, p)
    q, rows = jet.coords[..., None, :], jet.rows
    g_at, dg = _pi_h_deriv(q, rows, jet.grad[..., None, :], rows @ jet.hess)
    nabla = _cov_deriv_pointwise(q, rows, times_i(g_at), times_i(dg))
    return np.sum(np.vecdot(nabla, rows), axis=-1) - 2.0 * f.n * jet.t0


def lemma2_check(f):
    """Exact two-sided check of the integrated torsion-free identity.

    Returns (integral of L f, -4n ||T f||^2), both exact rationals with
    respect to the normalized sphere measure; they must be equal.
    """
    lhs = sphere_integral(f.l_operator_poly)
    rhs = -4 * f.n * sphere_integral(f.t0_poly * f.t0_poly)
    return lhs, rhs


def _hessian_form_derivative(q, u, a, da, b, db, grad, hess, dhess):
    """D_u at q of the hessian_form expansion (nabla^2 f)(A, B).

    a, b are the values at q of the fields A, B and da, db their D_u;
    grad, hess and dhess are the flat gradient, Hessian and D_u Hessian
    of f (symmetric matrices on the last two axes).  Every factor of
    the expansion, the projection pi_H w = w - <q,w> q - <iq,w> iq
    included, moves with q and is differentiated by the product rule.
    """
    dot = np.vecdot
    t, dt = times_i(q), times_i(u)
    dgrad = np.matvec(hess, u)
    pa, dpa = _pi_h_deriv(q, u, a, da)
    pb, dpb = _pi_h_deriv(q, u, b, db)
    ja, dja = times_i(pa), times_i(dpa)
    jb, djb = times_i(pb), times_i(dpb)
    return (
        dot(np.matvec(hess, da), b) + dot(np.matvec(dhess, a), b) + dot(np.matvec(hess, a), db)
        - (dot(da, b) + dot(a, db)) * dot(q, grad) - dot(a, b) * (dot(u, grad) + dot(q, dgrad))
        + (dot(dpa, jb) + dot(pa, djb)) * dot(t, grad)
        + dot(pa, jb) * (dot(dt, grad) + dot(t, dgrad))
        + (dot(dt, a) + dot(t, da)) * dot(jb, grad) + dot(t, a) * (dot(djb, grad) + dot(jb, dgrad))
        + (dot(dt, b) + dot(t, db)) * dot(ja, grad) + dot(t, b) * (dot(dja, grad) + dot(ja, dgrad))
    )


def third_commutation_residual(f, p, X, Y):
    """Residual of the torsion-free third-order exchange identity

        (nabla^3 f)(X,T,Y) - (nabla^3 f)(Y,T,X) - 2 Omega(X,Y) f00

    for horizontal X, Y, with f00 = T(T(f)).  The middle slot carries
    the Reeb field; the outer slots use canonical horizontal extensions
    (the value of nabla^3 f does not depend on that choice).  f is read
    through its flat partials up to third order at p.  For a stack of
    K points X and Y are (K, m) rows.  Both orders of the slots,
    (X, Y) and (Y, X), are evaluated together as two rows per point.
    """
    jet = _jet(f, p)
    x, y = _directions(jet.coords, X, Y)
    q, grad = jet.coords[..., None, :], jet.grad[..., None, :]
    hess = jet.hess[..., None, :, :]
    u, v = np.stack((x, y), axis=-2), np.stack((y, x), axis=-2)
    t, du_t = times_i(q), times_i(u)
    v_at, dv = _pi_h_vec(q, v), _ext_deriv(q, u, v)
    dhess = np.matvec(jet.third[..., None, :, :, :], u[..., None, :])
    leading = _hessian_form_derivative(q, u, t, du_t, v_at, dv, grad, hess, dhess)
    form = _hessian_form_at(q, grad, hess)
    nabla_u_t = _cov_deriv_pointwise(q, u, t, du_t)
    nabla_u_v = _cov_deriv_pointwise(q, u, v_at, dv)
    third_order = leading - form(nabla_u_t, v_at) - form(t, nabla_u_v)
    f00 = f.t0t0_poly.evaluate(jet.coords)
    return third_order[..., 0] - third_order[..., 1] - 2.0 * _omega_vec(jet.coords, x, y) * f00


# ----------------------------------------------------------------------
# Linear-algebra lemma used by the equality case.
# ----------------------------------------------------------------------


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
