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
built once into a `PointJet`; every pointwise evaluator takes the jet
in place of the point, so checks at one point share it.  Either way
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
    _finite,
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
    """Delta_b f at p via the difference of Laplacian and T^2 (exact route)."""
    return f.sublaplacian_poly.evaluate(p)


# ----------------------------------------------------------------------
# The adapted connection.
#
# The pointwise helpers take a single vector or a stack of vectors along
# the leading axis (rows paired row by row; a single vector broadcasts
# against a stack), so a frame trace is one expression over the rows
# [T; X_1..X_2n].
# ----------------------------------------------------------------------


def _rowdot(a, b):
    """Row-by-row dot product over the last axis; a scalar for two vectors.

    Only two stacks need einsum.  With a single vector on either side it
    is a plain matrix-vector dot, so a one-vector call rounds exactly as
    a per-vector helper would.
    """
    if np.ndim(a) == np.ndim(b) == 2:
        return np.einsum("ij,ij->i", a, b)
    return b @ a if np.ndim(b) == 2 else a @ b


def _pi_h_vec(q, v):
    """pi_H v at q; also the value at q of the horizontal extension seeded by v."""
    t = times_i(q)
    return v - (v @ q)[..., None] * q - (v @ t)[..., None] * t


def _pi_h_deriv(q, u, w, dw):
    """pi_H w at q and its D_u, for a field with value w and D_u value dw.

    The projection pi_H w = w - <q,w> q - <iq,w> iq moves with q and is
    differentiated by the product rule.  u and dw may be stacks of rows,
    one derivative per row of u.
    """
    t, dt = times_i(q), times_i(u)
    val = _pi_h_vec(q, w)
    dval = (
        dw - (u @ w + dw @ q)[..., None] * q - (q @ w) * u
        - (dt @ w + dw @ t)[..., None] * t - (t @ w) * dt
    )
    return val, dval


def _big_j(q, v):
    """J with J T = 0: rotate the horizontal part by i."""
    return times_i(_pi_h_vec(q, v))


def _omega_vec(q, u, v):
    return _rowdot(_pi_h_vec(q, u), times_i(_pi_h_vec(q, v)))


def _cov_deriv_pointwise(q, u, y, dy):
    """Connection formula at a point, given the field value and D_u value."""
    t = times_i(q)
    return (
        dy
        + _rowdot(u, y)[..., None] * q
        - _omega_vec(q, u, y)[..., None] * t
        - (u @ t)[..., None] * _big_j(q, y)
        - (y @ t)[..., None] * _big_j(q, u)
    )


def _ext_deriv(q, u, v):
    """D_u at q of the canonical horizontal extension seeded by v."""
    t = times_i(q)
    iu = times_i(u)
    return (
        -_rowdot(v, u)[..., None] * q
        - (v @ q)[..., None] * u
        - _rowdot(v, iu)[..., None] * t
        - (v @ t)[..., None] * iu
    )


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


def _adapted_rows(p, frame):
    """The rows [T; X_1..X_2n] of the adapted frame at p."""
    return np.concatenate((p.reeb_coords()[None], frame.matrix()))


def divergence(p, V):
    """Frame trace of the covariant derivative over (T, X_1..X_2n)."""
    q = p.coords
    rows = _adapted_rows(p, horizontal_frame(p))
    nabla = _cov_deriv_pointwise(q, rows, V.at(q), rows @ V.jacobian_at(q).T)
    return float(np.einsum("ij,ij->", nabla, rows))


# ----------------------------------------------------------------------
# Hessian with respect to the adapted connection.
# ----------------------------------------------------------------------


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
    SpherePoint or the PointJet of f there.
    """
    jet = _jet(f, p)
    return _hessian_form_at(jet.coords, jet.grad, jet.hess)


def _hessian_form_at(q, grad, hess):
    """hessian_form at q from the flat gradient and Hessian there.

    The form takes single vectors or stacks of rows: rows U and V give
    the matrix of values over every pair (U_i, V_j).
    """
    t = times_i(q)
    radial = float(q @ grad)
    reebward = float(t @ grad)

    def form(u, v):
        u = getattr(u, "vec", u)
        v = getattr(v, "vec", v)
        pu, pv = _pi_h_vec(q, u), _pi_h_vec(q, v)
        ju, jv = times_i(pu), times_i(pv)
        return (
            np.inner(u @ hess, v) - np.inner(u, v) * radial
            + np.inner(pu, jv) * reebward
            + np.multiply.outer(u @ t, jv @ grad)
            + np.multiply.outer(ju @ grad, v @ t)
        )

    return form


class HessianBlock:
    """(2n+1) x (2n+1) Hessian over the adapted frame (T, X_1..X_2n).

    Index 0 is the Reeb direction.  The horizontal block is never
    symmetric: its antisymmetric part is carried entirely by T(f),

        H[j,k] - H[k,j] = 2 Omega(X_j, X_k) f0,

    which is checked at construction.
    """

    def __init__(self, base, frame, values, reeb_value):
        self.base = base
        self.frame = frame
        self.values = np.asarray(values, dtype=float)
        self.reeb_value = float(reeb_value)
        n = base.n
        if self.values.shape != (2 * n + 1, 2 * n + 1):
            raise ValueError("hessian block of the wrong shape")
        if not self.antisymmetry_residual() <= EXCHANGE_TOL:
            raise ValueError("horizontal antisymmetry identity violated")

    def horizontal_block(self):
        return self.values[1:, 1:]

    def horizontal_trace(self):
        return float(np.trace(self.horizontal_block()))

    def horizontal_norm_sq(self):
        return float(np.sum(self.horizontal_block() ** 2))

    def antisymmetry_residual(self):
        mat = self.frame.matrix()
        omega = mat @ times_i(mat).T  # omega[j,k] = <X_j, i X_k>
        h = self.horizontal_block()
        return float(np.max(np.abs(h - h.T - 2.0 * omega * self.reeb_value)))


# ----------------------------------------------------------------------
# One point, read once.
#
# Every pointwise evaluator below takes p as a SpherePoint or as the
# PointJet of its field f at that point; several evaluations at one
# point then share one frame, one flat jet and one T0 f.
# ----------------------------------------------------------------------


class PointJet:
    """What the pointwise evaluators read of a scalar field f at one point.

    Built by `point_jet`: the adapted frame and its rows [T; X_1..X_2n],
    the flat gradient and Hessian of f's polynomial at p, and T0 f
    there.  The flat third partials and the Hessian block over the
    frame are built on first use and then shared.  Immutable; its
    arrays are read-only.
    """

    def __init__(self, field, point, frame, grad, hess, t0):
        rows = _adapted_rows(point, frame)
        for a in (rows, grad, hess):
            a.setflags(write=False)
        vars(self).update(
            field=field, point=point, frame=frame, rows=rows, grad=grad, hess=hess, t0=float(t0)
        )

    def __setattr__(self, name, value):
        raise AttributeError("a PointJet is immutable")

    @property
    def coords(self):
        return self.point.coords

    @cached_property
    def third(self):
        """Flat third partials d_i d_j d_k f at p.

        They are symmetric in (i, j, k), so only i <= j <= k is
        evaluated: C(m+2, 3) of the m^3 entries.
        """
        q = self.coords
        m = len(q)
        polys = self.field.third_polys
        third = np.empty((m, m, m))
        for i in range(m):
            for j in range(i, m):
                for k in range(j, m):
                    v = polys[i][j][k].evaluate(q)
                    third[i, j, k] = third[i, k, j] = third[j, i, k] = v
                    third[j, k, i] = third[k, i, j] = third[k, j, i] = v
        third.setflags(write=False)
        return third

    @cached_property
    def block(self):
        """The HessianBlock over the adapted frame (`tw_hessian`)."""
        values = _hessian_form_at(self.coords, self.grad, self.hess)(self.rows, self.rows)
        return HessianBlock(self.point, self.frame, values, self.t0)


def point_jet(f, p):
    """The PointJet of f at p: one frame, one flat jet, one T0 f evaluation."""
    q = p.coords
    grad, hess = _grad_hess(f, q)
    return PointJet(f, p, horizontal_frame(p), grad, hess, f.t0_poly.evaluate(q))


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
    q, grad = jet.coords, jet.grad
    x = jet.frame.matrix()
    dx = _ext_deriv(q, x, x)
    second = _rowdot(x @ jet.hess, x) + dx @ grad
    drift = _cov_deriv_pointwise(q, x, _pi_h_vec(q, x), dx)
    return float(np.sum(second - drift @ grad))


def connection_axiom_residuals(p, x, y, z):
    """Residuals of the four connection axioms at one point.

    Returns (metric compatibility, J parallel, torsion purity, Reeb
    parallel) for horizontal vectors x, y, z, each extended by its
    canonical horizontal field.  The left side of the compatibility
    check uses only ambient derivatives, the right side only the
    connection.
    """
    q = p.coords
    x = getattr(x, "vec", x)
    y = getattr(y, "vec", y)
    z = getattr(z, "vec", z)
    t = times_i(q)
    y_at, z_at = _pi_h_vec(q, y), _pi_h_vec(q, z)
    dy, dz = _ext_deriv(q, x, y), _ext_deriv(q, x, z)
    nabla_x_y = _cov_deriv_pointwise(q, x, y_at, dy)
    nabla_x_z = _cov_deriv_pointwise(q, x, z_at, dz)
    lhs = float(dy @ z_at) + float(y_at @ dz)
    rhs = float(nabla_x_y @ z_at) + float(y_at @ nabla_x_z)
    metric = abs(lhs - rhs)

    iy = times_i(y)
    nabla_x_jy = _cov_deriv_pointwise(q, x, _pi_h_vec(q, iy), _ext_deriv(q, x, iy))
    j_parallel = float(np.max(np.abs(nabla_x_jy - _big_j(q, nabla_x_y))))

    nabla_y_x = _cov_deriv_pointwise(q, y, _pi_h_vec(q, x), _ext_deriv(q, y, x))
    bracket = _ext_deriv(q, x, y) - _ext_deriv(q, y, x)
    torsion = nabla_x_y - nabla_y_x - bracket
    purity = float(np.max(np.abs(torsion + 2.0 * _omega_vec(q, x, y) * t)))

    reeb_parallel = float(
        np.max(np.abs(_cov_deriv_pointwise(q, x, t, times_i(x))))
    )
    return metric, j_parallel, purity, reeb_parallel


# ----------------------------------------------------------------------
# Curvature and Ricci of the adapted connection.
# ----------------------------------------------------------------------


def curvature_sphere(p, X, Y, Z):
    """R(X,Y)Z on horizontal vectors from the constant-holomorphic-
    sectional-curvature expression of the sphere connection.

    X may be a stack of vectors as rows; the result then has one row
    R(X_i,Y)Z per row of X.
    """
    x = getattr(X, "vec", X)
    y = getattr(Y, "vec", Y)
    z = getattr(Z, "vec", Z)
    jx, jy, jz = times_i(x), times_i(y), times_i(z)
    return (
        float(y @ z) * x
        - np.multiply.outer(x @ z, y)
        + float(jy @ z) * jx
        - np.multiply.outer(jx @ z, jy)
        - 2.0 * np.multiply.outer(jx @ y, jz)
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
    """rho(X, X) by tracing the curvature over a horizontal frame."""
    x = np.asarray(getattr(X, "vec", X), dtype=float)
    _finite(x, "Ricci argument")
    scale = ARG_TOL * max(1.0, float(np.linalg.norm(x)))
    if not (abs(float(x @ p.coords)) <= scale and abs(float(x @ p.reeb_coords())) <= scale):
        raise ValueError("Ricci is evaluated on horizontal vectors")
    return _ricci_trace(p, horizontal_frame(p), x)


def _ricci_trace(p, frame, x):
    """sum_j <R(X_j, x) x, X_j> over the rows of the frame."""
    mat = frame.matrix()
    return float(np.einsum("ij,ij->", curvature_sphere(p, mat, x, x), mat))


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
    g_at, dg = _pi_h_deriv(q, t, grad, jet.hess @ t)
    t0_grad = np.array([gp.evaluate(q) for gp in f.t0_grad_polys])
    term1 = float(times_i(g_at) @ t0_grad)
    nabla_t_g = _cov_deriv_pointwise(q, t, g_at, dg)
    term2 = float(_big_j(q, nabla_t_g) @ grad)
    return term1, term2


def operator_l(f, p):
    term1, term2 = operator_l_parts(f, p)
    return term1 - term2


def bochner_lhs(f, points):
    """(1/2) Delta_b |grad_H f|^2 at each point, as a float array.

    The exact polynomial is evaluated once over the stack of points
    (SpherePoints or PointJets); each value is bit-identical to
    evaluating it at that point alone.
    """
    if not len(points):
        return np.empty(0)
    return 0.5 * f.bochner_lhs_poly.evaluate(np.array([p.coords for p in points]))


def bochner_residual(f, p, lhs=None):
    """Pointwise residual of the horizontal Bochner identity.

      (1/2) Delta_b |grad_H f|^2
        - |pi_H Hess f|^2 - (grad_H f)(Delta_b f)
        - rho(grad_H f, grad_H f) - 2 L f

    The left side is exact, and lhs may pass its value at p when
    `bochner_lhs` has already evaluated it; the right side reads f
    through its flat gradient and Hessian at p.
    """
    jet = _jet(f, p)
    if lhs is None:
        lhs = bochner_lhs(f, [jet])[0]
    q, block = jet.coords, jet.block
    hsq = block.horizontal_norm_sq()
    gh = _pi_h_vec(q, jet.grad)
    grad_term = sum(gp.evaluate(q) * gh[k] for k, gp in enumerate(f.sublaplacian_grad_polys))
    ric = _ricci_trace(jet.point, block.frame, gh)
    term1, term2 = operator_l_parts(f, jet)
    return lhs - (hsq + grad_term + ric + 2.0 * (term1 - term2))


def lemma1_residual(f, p):
    """div(J grad_H f) - 2n T(f) at p; the divergence lemma.

    J grad_H f = i pi_H grad f, and its D_u along each row u of the
    adapted frame comes from the flat jet by the product rule
    (`_pi_h_deriv`); the trace is `divergence`'s, over [T; X_1..X_2n].
    """
    jet = _jet(f, p)
    q, rows = jet.coords, jet.rows
    g_at, dg = _pi_h_deriv(q, rows, jet.grad, rows @ jet.hess)
    nabla = _cov_deriv_pointwise(q, rows, times_i(g_at), times_i(dg))
    return float(np.einsum("ij,ij->", nabla, rows)) - 2.0 * f.n * jet.t0


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
    of f.  Every factor of the expansion, the projection
    pi_H w = w - <q,w> q - <iq,w> iq included, moves with q and is
    differentiated by the product rule.
    """
    t, dt = times_i(q), times_i(u)
    dgrad = hess @ u
    pa, dpa = _pi_h_deriv(q, u, a, da)
    pb, dpb = _pi_h_deriv(q, u, b, db)
    ja, dja = times_i(pa), times_i(dpa)
    jb, djb = times_i(pb), times_i(dpb)
    return float(
        da @ hess @ b + a @ dhess @ b + a @ hess @ db
        - (da @ b + a @ db) * (q @ grad) - (a @ b) * (u @ grad + q @ dgrad)
        + (dpa @ jb + pa @ djb) * (t @ grad) + (pa @ jb) * (dt @ grad + t @ dgrad)
        + (dt @ a + t @ da) * (jb @ grad) + (t @ a) * (djb @ grad + jb @ dgrad)
        + (dt @ b + t @ db) * (ja @ grad) + (t @ b) * (dja @ grad + ja @ dgrad)
    )


def third_commutation_residual(f, p, X, Y):
    """Residual of the torsion-free third-order exchange identity

        (nabla^3 f)(X,T,Y) - (nabla^3 f)(Y,T,X) - 2 Omega(X,Y) f00

    for horizontal X, Y, with f00 = T(T(f)).  The middle slot carries
    the Reeb field; the outer slots use canonical horizontal extensions
    (the value of nabla^3 f does not depend on that choice).  f is read
    through its flat partials up to third order at p.
    """
    jet = _jet(f, p)
    q, grad, hess, third = jet.coords, jet.grad, jet.hess, jet.third
    x = getattr(X, "vec", X)
    y = getattr(Y, "vec", Y)
    form = _hessian_form_at(q, grad, hess)
    t = times_i(q)

    def third_order(u, v):
        v_at, dv = _pi_h_vec(q, v), _ext_deriv(q, u, v)
        leading = _hessian_form_derivative(q, u, t, times_i(u), v_at, dv, grad, hess, third @ u)
        nabla_u_t = _cov_deriv_pointwise(q, u, t, times_i(u))
        nabla_u_v = _cov_deriv_pointwise(q, u, v_at, dv)
        return leading - form(nabla_u_t, v_at) - form(t, nabla_u_v)

    f00 = f.t0t0_poly.evaluate(q)
    return third_order(x, y) - third_order(y, x) - 2.0 * _omega_vec(q, x, y) * f00


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
