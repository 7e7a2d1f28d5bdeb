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
point.  Their first derivatives along a direction u (of the
projection pi_H, of the canonical horizontal extensions and of the
Tanaka-Webster Hessian form) come from one rule: the plain expression
is evaluated at complex arguments x + i EPS dx (`_along`), and the
derivative is read from the imaginary part (`_d`).  EPS = 2^-600, so
EPS^2 underflows to exactly 0: complex multiplication is then
dual-number multiplication, the imaginary part carries the product
rule exactly as float arithmetic would, and no step is taken, so there
is no truncation error (complex-step differentiation; Squire and
Trapp, SIAM Review 40, 1998).  What they read of f at a
point (the adapted frame, the flat gradient and Hessian, T0 f, and on
first use the symmetric third partials and the Hessian block) is
built once into a `PointJet`, over one point or a stack of K points;
every pointwise evaluator takes the jet, a point or a sequence of
points, and returns a float for one point or a length-K array for a
stack.  So checks at one point share its jet, and a suite evaluates
each identity once over all the points of a field.  Either way
the residuals of the identities verified here are limited only by the
floating-point budget of the final evaluation.  A field builds only
its distinct flat partials: the second ones d_j d_i f for i <= j in
`np.triu_indices` order, and the third ones d_k d_j d_i f for
i <= j <= k in `itertools.combinations_with_replacement` order;
`_symmetric_index` maps such a sorted list onto its symmetric tensor.
Finite differences appear solely as independent oracles in the test
suite; this holds for the whole library, the Hamilton-Jacobi field of
`geodesics` included.

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
from functools import cache, cached_property
from itertools import combinations_with_replacement
from operator import index

import numpy as np

from .polynomials import Polynomial, euclidean_laplacian, evaluate_many, sphere_integral
from .sphere import (
    HorizontalFrame,
    SpherePoint,
    TangentVector,
    _check_tangent,
    _is_positive_int,
    _point_coords,
    _vec_at,
    horizontal_frame,
    times_i,
)
from .spectrum import t0_apply

FIELD_TANGENCY_TOL = 1e-8  # tanaka_webster_derivative's check that its field is tangent


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
        return evaluate_many(self.comps, point)

    def partials(self):
        """Component partial derivatives, computed once and reused."""
        if self._partials is None:
            self._partials = tuple(c.gradient() for c in self.comps)
        return self._partials

    def jacobian_at(self, point):
        """Matrix J[j, k] = d_k (component j) evaluated at the point."""
        m = len(self.comps)
        return evaluate_many([d for row in self.partials() for d in row], point).reshape(m, m)


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


def _euler(poly):
    """E(p) = sum_d d p_d over the homogeneous pieces p_d; equals q . grad p exactly."""
    out = Polynomial(poly.num_vars)
    for d, piece in poly.homogeneous_components().items():
        out = out + d * piece
    return out


def _i_dot(a, b):
    """(i a) . b = sum_j (a_xj b_yj - a_yj b_xj) for lists a, b of 2n+2 polynomials."""
    half = len(a) // 2
    out = Polynomial(a[0].num_vars)
    for j in range(half):
        out = out + a[j] * b[half + j] - a[half + j] * b[j]
    return out


class ScalarField:
    """Restriction to S^(2n+1) of an exact polynomial."""

    def __init__(self, poly, n):
        if not _is_positive_int(n):
            raise ValueError("CR dimension must be a positive integer, got %r" % (n,))
        if poly.num_vars != 2 * n + 2:
            raise ValueError("polynomial in the wrong number of variables")
        self.poly = poly
        self.n = index(n)

    def value(self, p):
        """f at p: a SpherePoint, a sequence of them, or a PointJet."""
        return self.poly.evaluate(_point_coords(p))

    @cached_property
    def grad_polys(self):
        return self.poly.gradient()

    @cached_property
    def hess_polys(self):
        """The distinct second partials d_j d_i f, i <= j, in `np.triu_indices` order."""
        m = self.poly.num_vars
        return [self.grad_polys[i].partial(j) for i, j in combinations_with_replacement(range(m), 2)]

    @cached_property
    def third_polys(self):
        """The distinct third partials d_k d_j d_i f, i <= j <= k, in
        `combinations_with_replacement` order, each taken of d_j d_i f."""
        m = self.poly.num_vars
        second, at = self.hess_polys, _symmetric_index(m, 2)
        return [second[at[i, j]].partial(k) for i, j, k in combinations_with_replacement(range(m), 3)]

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
    def l_operator_poly(self):
        return _operator_l_polynomial(self)

    def __repr__(self):
        return "ScalarField(n=%d, %r)" % (self.n, self.poly)


def reeb_derivative(f, p):
    """f0 = T(f), exact polynomial evaluated at p: a SpherePoint, a
    sequence of them, or a PointJet."""
    return f.t0_poly.evaluate(_point_coords(p))


def horizontal_gradient(f, p):
    """grad_H f at p: pi_H of the flat gradient there."""
    grad = evaluate_many(f.grad_polys, p.coords)
    return TangentVector(p, _pi_h_vec(p.coords, grad), horizontal=True)


def sublaplacian_greenleaf(f, p):
    """Delta_b f at p via the difference of Laplacian and T^2 (exact route).

    p is a SpherePoint, a sequence of them, or a PointJet; a stack is
    evaluated at once, each value bit-identical to its point alone.
    """
    return f.sublaplacian_poly.evaluate(_point_coords(p))


# ----------------------------------------------------------------------
# The adapted connection.
#
# The pointwise helpers follow one broadcasting rule: every dot product
# is over the last axis, and any leading axes broadcast.  So q may be
# one point or a stack of points, and the vectors one vector per point
# or a stack of rows per point (the frame rows [T; X_1..X_2n], or a
# pair of directions); a caller aligns the axes by inserting one, as in
# q[..., None, :] against rows of shape (..., R, m).
#
# First derivatives are taken in dual arithmetic: `_along(x, dx)` is the
# value x moving with velocity dx, and `_d` reads the velocity of a
# result.  Only `_pi_h_vec` and `_hessian_form_at` receive such values;
# they pair vectors with `_dot`, because np.vecdot conjugates its first
# argument and would drop derivative terms.
# ----------------------------------------------------------------------

EPS = 2.0**-600  # EPS^2 underflows to 0: complex products are dual products


def _along(x, dx):
    """x moving along dx: the dual number x + EPS dx, stored as a complex value."""
    return x + 1j * EPS * dx


def _d(z):
    """The derivative part of a dual result of `_along` arguments."""
    return z.imag / EPS


def _dot(a, b):
    """Sum over the last axis of a * b, without conjugating (np.vecdot would)."""
    return np.matvec(a[..., None, :], b)[..., 0]


def _pi_h_vec(q, v):
    """pi_H v at q; also the value at q of the horizontal extension seeded by v."""
    t = times_i(q)
    return v - _dot(v, q)[..., None] * q - _dot(v, t)[..., None] * t


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
    """D_u at q of the canonical horizontal extension q -> pi_H v seeded by v."""
    return _d(_pi_h_vec(_along(q, u), v))


def tanaka_webster_derivative(p, X, Y):
    """Covariant derivative nabla_X Y at p of a polynomial field Y.

    X is a tangent vector at p, not necessarily horizontal (a Lie bracket
    of horizontal fields has a Reeb part); Y must take tangent values
    near p.
    """
    q = p.coords
    x = _vec_at(p, X, "direction")
    y_at = Y.at(q)
    _check_tangent(q, y_at, FIELD_TANGENCY_TOL, "field", horizontal=False)
    return TangentVector(p, _cov_deriv_pointwise(q, x, y_at, Y.jacobian_at(q) @ x))


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


@cache
def _symmetric_index(m, order):
    """Read-only (m,) * order array: entry (i, j, ...) of a symmetric tensor
    in m variables is item index[i, j, ...] of its distinct entries, listed
    for i <= j <= ... in `combinations_with_replacement` order."""
    position = {c: k for k, c in enumerate(combinations_with_replacement(range(m), order))}
    index = np.array([position[tuple(sorted(e))] for e in np.ndindex((m,) * order)])
    index = index.reshape((m,) * order)
    index.setflags(write=False)
    return index


def _grad_hess(f, q):
    """Flat gradient and Hessian of f's polynomial at q, or at each row of a stack q.

    The gradient and the distinct second partials are evaluated in one
    `evaluate_many` call; the symmetric Hessian gathers the latter.
    """
    m = q.shape[-1]
    values = evaluate_many(f.grad_polys + f.hess_polys, q)
    hess = np.ascontiguousarray(values[..., m:][..., _symmetric_index(m, 2)])
    return np.ascontiguousarray(values[..., :m]), hess


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
    over every pair (U_i, V_j).  Every argument may be dual.
    """
    t = times_i(q)
    radial = _dot(q, grad)
    reebward = _dot(t, grad)

    def form(u, v):
        u = getattr(u, "vec", u)
        v = getattr(v, "vec", v)
        pu, pv = _pi_h_vec(q, u), _pi_h_vec(q, v)
        ju, jv = times_i(pu), times_i(pv)
        return (
            _dot(np.matvec(hess, u), v) - _dot(u, v) * radial
            + _dot(pu, jv) * reebward
            + _dot(u, t) * _dot(jv, grad)
            + _dot(ju, grad) * _dot(v, t)
        )

    return form


class HessianBlock:
    """(2n+1) x (2n+1) Hessian over the adapted frame (T, X_1..X_2n).

    Index 0 is the Reeb direction.  The horizontal block is never
    symmetric: its antisymmetric part is carried entirely by T(f),

        H[j,k] - H[k,j] = 2 Omega(X_j, X_k) f0,

    whose residual `antisymmetry_residual` reports (the lemmas suite
    checks it).  A block over a stack of K points takes a sequence of K
    points and their stacked frame, values of shape (K, 2n+1, 2n+1) and
    K Reeb values, and each method returns one value per point.  A
    block of the wrong shape or with a non-finite entry is a ValueError.
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
        if not (np.all(np.isfinite(self.values)) and np.all(np.isfinite(self.reeb_value))):
            raise ValueError("hessian block with a non-finite entry")

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
        coords = _point_coords(point)
        rows = _adapted_rows(coords, frame.matrix())
        for a in (coords, rows, grad, hess, t0):
            if isinstance(a, np.ndarray):
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

        They are symmetric in (i, j, k), so only the field's C(m+2, 3)
        distinct ones are evaluated and the m^3 entries gather them.
        """
        m = self.coords.shape[-1]
        values = evaluate_many(self.field.third_polys, self.coords)
        third = values[..., _symmetric_index(m, 3)]
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

    The flat jet and T0 f of all the points are evaluated together, and
    the frames of a sequence are built and validated as one stack.
    """
    q = _point_coords(p)
    if not isinstance(p, SpherePoint):
        p = tuple(p)
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
    q = _point_coords(p)
    x, y, z = (_vec_at(p, v, "direction", horizontal=True) for v in (x, y, z))
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
    x = _vec_at(p, X, "direction", horizontal=True)
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
    integration needs), and built from scalar pieces: S = T0 f, its
    gradient, T0^2 f, and the Euler sums R = E(f) and E(S).  With
    q . grad p = E(p) and iq . grad p = T0 p, the first term
    (J grad_H f) . grad S is, exactly as a polynomial,

        (i grad f) . grad S - R T0^2 f + S E(S).

    Along the sphere the Reeb covariant derivative of G = grad_H f
    collapses to D_T G - i G, which restricts to
    w = grad S - E(S) q - (T0^2 f) iq; w is horizontal there, so the
    second term (J w) . grad f restricts to

        (i grad S) . grad f - E(S) S + T0^2 f R.

    The two terms are kept as separate sums.
    """
    grad, s, grad_s, s2 = f.grad_polys, f.t0_poly, f.t0_grad_polys, f.t0t0_poly
    r, e_s = _euler(f.poly), _euler(s)
    term1 = _i_dot(grad, grad_s) - r * s2 + s * e_s
    term2 = _i_dot(grad_s, grad) - e_s * s + s2 * r
    return term1 - term2


def operator_l_parts(f, p):
    """Both terms of L f at p; the first vanishes when T(f) = 0.

    grad_H f = pi_H grad f and its D_T are one dual evaluation on the
    flat jet.
    """
    jet = _jet(f, p)
    q, grad = jet.coords, jet.grad
    t = times_i(q)
    g = _pi_h_vec(_along(q, t), _along(grad, np.matvec(jet.hess, t)))
    g_at, dg = g.real, _d(g)
    term1 = np.vecdot(times_i(g_at), evaluate_many(f.t0_grad_polys, q))
    nabla_t_g = _cov_deriv_pointwise(q, t, g_at, dg)
    term2 = np.vecdot(_big_j(q, nabla_t_g), grad)
    return term1, term2


def operator_l(f, p):
    term1, term2 = operator_l_parts(f, p)
    return term1 - term2


def bochner_lhs(f, p):
    """(1/2) Delta_b |grad_H f|^2 at p, as a float, or at each point of a stack.

    p is a SpherePoint, a sequence of them, or a PointJet; f is read
    only through its flat gradient G, Hessian H and third partials T3
    there.  On the sphere |grad_H f|^2 is the ambient function
    g = |G|^2 - R^2 - S^2 with R = q . G and S = t . G, t = iq, and for
    any ambient g

        Delta_b g = tr(P Hess g) - 2n q . grad g,  P = 1 - q q^T - t t^T.

    The chain rule gives grad R = G + H q, grad S = H t - i G,
    Hess R = 2H + T3 q and Hess S = T3 t + H I + (H I)^T, with I the
    matrix of i.  No connection, frame or curvature enters, so the
    Bochner residual still compares two independent computations.
    """
    jet = _jet(f, p)
    q, grad, hess = jet.coords, jet.grad, jet.hess
    t = times_i(q)
    r, s = np.vecdot(q, grad), np.vecdot(t, grad)
    dr, ds = grad + np.matvec(hess, q), np.matvec(hess, t) - times_i(grad)
    third_g, third_q, third_t = (np.matvec(jet.third, v[..., None, :]) for v in (grad, q, t))
    hi = -times_i(hess)  # H I: times_i on the rows of H gives H I^T = -H I
    hess_r, hess_s = 2.0 * hess + third_q, third_t + hi + np.swapaxes(hi, -1, -2)

    def outer(v):
        return v[..., :, None] * v[..., None, :]

    half_grad_g = np.matvec(hess, grad) - r[..., None] * dr - s[..., None] * ds
    half_hess_g = (
        hess @ hess + third_g - outer(dr) - outer(ds)
        - r[..., None, None] * hess_r - s[..., None, None] * hess_s
    )
    proj = np.eye(q.shape[-1]) - outer(q) - outer(t)
    return np.sum(proj * half_hess_g, axis=(-2, -1)) - 2.0 * f.n * np.vecdot(q, half_grad_g)


def bochner_residual(f, p):
    """Pointwise residual of the horizontal Bochner identity.

      (1/2) Delta_b |grad_H f|^2
        - |pi_H Hess f|^2 - (grad_H f)(Delta_b f)
        - rho(grad_H f, grad_H f) - 2 L f

    The left side (`bochner_lhs`) is Delta_b by its ambient formula on
    the flat 3-jet; the right side is the Tanaka-Webster Hessian block,
    rho and L, read from the flat gradient and Hessian at p.
    """
    jet = _jet(f, p)
    q, block = jet.coords, jet.block
    gh = _pi_h_vec(q, jet.grad)
    grad_term = np.vecdot(evaluate_many(f.sublaplacian_grad_polys, q), gh)
    ric = _ricci_trace(jet.point, jet.rows[..., 1:, :], gh)
    term1, term2 = operator_l_parts(f, jet)
    rhs = block.horizontal_norm_sq() + grad_term + ric + 2.0 * (term1 - term2)
    return bochner_lhs(f, jet) - rhs


def lemma1_residual(f, p):
    """div(J grad_H f) - 2n T(f) at p; the divergence lemma.

    J grad_H f = i pi_H grad f, and its D_u along each row u of the
    adapted frame is one dual evaluation of pi_H grad f on the flat jet;
    the trace is `divergence`'s, over [T; X_1..X_2n].
    """
    jet = _jet(f, p)
    q, rows = jet.coords[..., None, :], jet.rows
    g = _pi_h_vec(_along(q, rows), _along(jet.grad[..., None, :], rows @ jet.hess))
    nabla = _cov_deriv_pointwise(q, rows, times_i(g.real), times_i(_d(g)))
    return np.sum(np.vecdot(nabla, rows), axis=-1) - 2.0 * f.n * jet.t0


def lemma2_check(f):
    """Exact two-sided check of the integrated torsion-free identity.

    Returns (integral of L f, -4n ||T f||^2), both exact rationals with
    respect to the normalized sphere measure; they must be equal.
    """
    lhs = sphere_integral(f.l_operator_poly)
    rhs = -4 * f.n * sphere_integral(f.t0_poly * f.t0_poly)
    return lhs, rhs


def third_commutation_residual(f, p, X, Y):
    """Residual of the torsion-free third-order exchange identity

        (nabla^3 f)(X,T,Y) - (nabla^3 f)(Y,T,X) - 2 Omega(X,Y) f00

    for horizontal X, Y, with f00 = T(T(f)).  The middle slot carries
    the Reeb field; the outer slots use canonical horizontal extensions
    (the value of nabla^3 f does not depend on that choice).  f is read
    through its flat partials up to third order at p.  For a stack of
    K points X and Y are (K, m) rows.  Both orders of the slots,
    (X, Y) and (Y, X), are evaluated together as two rows per point.
    The leading term D_u of (nabla^2 f)(T, E_v), with E_v the extension
    of v, is the Hessian form evaluated once at the dual point q + EPS u,
    where grad f moves by Hess f u and Hess f by the third partials.
    """
    jet = _jet(f, p)
    x, y = (_vec_at(jet, v, "direction", horizontal=True) for v in (X, Y))
    q, grad = jet.coords[..., None, :], jet.grad[..., None, :]
    hess = jet.hess[..., None, :, :]
    u, v = np.stack((x, y), axis=-2), np.stack((y, x), axis=-2)
    t, du_t = times_i(q), times_i(u)
    qc = _along(q, u)
    ext_v = _pi_h_vec(qc, v)
    v_at, dv = ext_v.real, _d(ext_v)
    dhess = np.matvec(jet.third[..., None, :, :, :], u[..., None, :])
    moving = _hessian_form_at(qc, _along(grad, np.matvec(hess, u)), _along(hess, dhess))
    leading = _d(moving(times_i(qc), ext_v))
    form = _hessian_form_at(q, grad, hess)
    nabla_u_t = _cov_deriv_pointwise(q, u, t, du_t)
    nabla_u_v = _cov_deriv_pointwise(q, u, v_at, dv)
    third_order = leading - form(nabla_u_t, v_at) - form(t, nabla_u_v)
    f00 = f.t0t0_poly.evaluate(jet.coords)
    return third_order[..., 0] - third_order[..., 1] - 2.0 * _omega_vec(jet.coords, x, y) * f00

