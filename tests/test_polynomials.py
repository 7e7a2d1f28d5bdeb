import math
import struct
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from crsphere import polynomials
from crsphere.polynomials import (
    Polynomial,
    SubspaceBasis,
    _as_fraction,
    _harmonic_span,
    dim_homogeneous,
    euclidean_laplacian,
    evaluate_many,
    harmonic_basis,
    monomial_basis,
    null_space,
    rref,
    sphere_integral,
)
from crsphere.spectrum import spectrum_fragment, t0_apply

small_fractions = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))


def var(i, m=4):
    return Polynomial.variable(m, i)


def test_arithmetic_and_degree():
    x1, x2, y1 = var(0), var(1), var(2)
    p = (x1 + y1) * (x1 - y1)
    assert p == x1 * x1 - y1 * y1
    assert p.degree == 2
    q = p + Polynomial.constant(4, 3)
    assert sorted(q.homogeneous_components()) == [0, 2]
    assert (x2**3).terms == {(0, 3, 0, 0): Fraction(27) / 27}


def test_zero_handling():
    x1 = var(0)
    z = x1 - x1
    assert z.is_zero()
    assert z.degree == -1
    assert (0 * x1).is_zero()


def test_float_coefficients_rejected():
    with pytest.raises(TypeError):
        Polynomial(4, {(1, 0, 0, 0): 0.5})
    with pytest.raises(TypeError):
        var(0) * 0.5


@pytest.mark.parametrize("bad", [0.5, np.float64(0.5), np.float64(2.0), np.float32(0.5)])
def test_numpy_float_coefficients_rejected(bad):
    # floats stay out of the exact layer, numpy scalars included
    with pytest.raises(TypeError):
        Polynomial(4, {(1, 0, 0, 0): bad})
    with pytest.raises(TypeError):
        var(0) * bad
    with pytest.raises(TypeError):
        bad * var(0)


def test_power_needs_an_integer_exponent():
    # int() used to truncate 2.5 to 2 and parse "2"
    p = var(0) + var(1)
    for bad in (2.5, 2.0, "2", True, False, Fraction(2)):
        with pytest.raises(TypeError):
            p ** bad
    assert p ** np.int64(3) == p ** 3 == p * p * p
    assert p ** 0 == Polynomial.constant(4, 1)
    with pytest.raises(ValueError, match="negative power"):
        p ** -1


def test_exponent_field_is_guarded():
    # 8 bits per exponent: an overflow must raise, not carry into the next variable
    x1, x2, y1 = var(0), var(1), var(2)
    with pytest.raises(ValueError):
        Polynomial(4, {(256, 0, 0, 0): 1})
    high, low = x1**200, x1**100
    with pytest.raises(ValueError):
        high * low
    with pytest.raises(ValueError):
        x1**256
    with pytest.raises(ValueError):
        (x1**128) ** 2
    # other variables and sums up to 255 are fine, even where a bound
    # from the OR of the exponents alone would reject them
    assert (high * x2**100).terms == {(200, 100, 0, 0): 1}
    assert ((x1 + x1**2) * x1**253).terms == {(254, 0, 0, 0): 1, (255, 0, 0, 0): 1}
    # T0 moves one power: off 255 is fine, onto 255 would overflow
    assert t0_apply(x1**255) == -255 * x1**254 * y1
    with pytest.raises(ValueError):
        t0_apply(x1**255 * y1)
    # the byte check also holds on the second pair and the x side
    x2, y2 = var(1), var(3)
    assert t0_apply(y2**255) == 255 * x2 * y2**254
    with pytest.raises(ValueError):
        t0_apply(x2 * y2**255)


def test_terms_view_is_read_only_and_counts_without_decoding(monkeypatch):
    p = Polynomial(4, {(2, 0, 0, 0): Fraction(1, 2), (0, 1, 1, 0): -3})
    assert p.terms[(2, 0, 0, 0)] == Fraction(1, 2)
    assert (1, 0, 0, 0) not in p.terms and (9,) not in p.terms
    with pytest.raises(TypeError):
        p.terms[(1, 0, 0, 0)] = 1
    monkeypatch.setattr(polynomials, "_unpack", None)  # decoding would fail now
    assert len(p.terms) == 2


def test_homogeneous_validation():
    with pytest.raises(ValueError):
        SubspaceBasis(1, 2, (Polynomial(4, {(1, 0, 0, 0): 1}),))
    h = Polynomial(4, {(1, 1, 0, 0): 2})
    assert h.degree == 2
    assert len(SubspaceBasis(1, 2, (h,))) == 1


def test_subspace_basis_rejects_mixed_degrees():
    # x1^2 + 1 has top degree 2, but its constant term is not of degree 2
    mixed = var(0) ** 2 + Polynomial.constant(4, 1)
    assert mixed.degree == 2
    with pytest.raises(ValueError):
        SubspaceBasis(1, 2, (mixed,))
    with pytest.raises(ValueError):
        SubspaceBasis(1, 2, (var(1) ** 2, mixed))
    assert not harmonic_basis(1, 2).contains(mixed)


def test_monomial_basis_graded_lex():
    mons = monomial_basis(2, 2)
    assert mons == [(2, 0), (1, 1), (0, 2)]
    assert len(monomial_basis(4, 3)) == dim_homogeneous(4, 3) == 20


def test_monomial_basis_needs_a_variable():
    # no variables used to recurse without end; the builders on top raise too
    for build in (
        lambda: monomial_basis(0, 2),
        lambda: monomial_basis(-1, 2),
        lambda: harmonic_basis(-1, 2),
    ):
        with pytest.raises(ValueError, match="at least one variable"):
            build()


def test_laplacian_examples():
    m = 4
    p = var(0) ** 2 + var(2) ** 2  # x1^2 + y1^2
    assert euclidean_laplacian(p) == Polynomial.constant(m, 4)
    rot = var(0) * var(3) - var(1) * var(2)  # x1 y2 - x2 y1
    assert euclidean_laplacian(rot).is_zero()


def test_laplacian_keeps_homogeneous_type():
    h = Polynomial(4, {(3, 0, 0, 0): 1, (1, 0, 2, 0): 5})
    lap = euclidean_laplacian(h)
    assert lap.degree == 1
    assert lap.terms == {(1, 0, 0, 0): 16}
    assert euclidean_laplacian(Polynomial(4, {(1, 0, 0, 0): 1})).is_zero()


def test_laplacian_kills_harmonic_basis():
    for ell in (1, 2, 3):
        for h in harmonic_basis(1, ell).polys:
            assert euclidean_laplacian(h).is_zero()


def harmonic_basis_reference(n, degree):
    # The Laplacian null space over the grlex monomials, built directly:
    # one column per source monomial, one row per target monomial.
    num_vars = 2 * n + 2
    mons = monomial_basis(num_vars, degree)
    if degree < 2:
        return [Polynomial(num_vars, {m: 1}) for m in mons]
    targets = monomial_basis(num_vars, degree - 2)
    tindex = {m: i for i, m in enumerate(targets)}
    cols = []
    for m in mons:
        lap = euclidean_laplacian(Polynomial.monomial(num_vars, m))
        col = [Fraction(0)] * len(targets)
        for exps, c in lap.terms.items():
            col[tindex[exps]] = c
        cols.append(col)
    rows = [list(r) for r in zip(*cols)]
    return [
        Polynomial(num_vars, {m: c for m, c in zip(mons, vec) if c})
        for vec in null_space_reference(rows, len(mons))
    ]


@pytest.mark.parametrize("n, top", [(1, 6), (2, 5), (2, 6), (3, 4)])
def test_harmonic_basis_matches_reference_term_by_term(n, top):
    for degree in range(top + 1):
        got = harmonic_basis(n, degree).polys
        want = harmonic_basis_reference(n, degree)
        assert [list(p.terms.items()) for p in got] == [list(p.terms.items()) for p in want]


def test_harmonic_dimensions_s3():
    assert len(harmonic_basis(1, 1)) == 4
    assert len(harmonic_basis(1, 2)) == 9   # 10 - 1
    assert len(harmonic_basis(1, 3)) == 16  # 20 - 4


@settings(max_examples=30, deadline=None)
@given(st.integers(-4, 4), st.integers(-4, 4), st.integers(-4, 4))
def test_laplacian_product_rule(a, b, c):
    # Delta(fg) = f Delta g + 2 grad f . grad g + g Delta f
    x1, x2, y1 = var(0), var(1), var(2)
    f = a * x1 * x1 + b * x2 * y1 + c * y1
    g = b * x1 * y1 + c * x2 * x2 + Polynomial.constant(4, a)
    lhs = euclidean_laplacian(f * g)
    cross = Polynomial(4)
    for i in range(4):
        cross = cross + f.partial(i) * g.partial(i)
    rhs = f * euclidean_laplacian(g) + 2 * cross + g * euclidean_laplacian(f)
    assert lhs == rhs


def test_evaluate_examples():
    p = var(0)
    assert p.evaluate([1.0, 0.0, 0.0, 0.0]) == 1.0
    f = 2 * (var(0) * var(1) + var(2) * var(3))
    val = f.evaluate(np.array([1, 1, 0, 0]) / np.sqrt(2))
    assert abs(val - 1.0) < 1e-15


def test_evaluate_dimension_mismatch():
    with pytest.raises(ValueError):
        var(0).evaluate([1.0, 0.0])


def evaluate_reference(p, point):
    """The one-point float loop the stacked kernel replaced, kept as its oracle.

    Each term is its float coefficient num / den times its powers in
    variable order, summed from 0.0 in storage order.  Given an array
    row, the powers are np.float64's, which overflow to inf where
    Python's float power raises.
    """
    form = [
        (v / p._den, [(i, e) for i, e in enumerate(k.to_bytes(p.num_vars, "big")) if e])
        for k, v in p._terms.items()
    ]
    xs = list(point)
    total = 0.0
    for m, powers in form:
        for i, e in powers:
            if e == 1:
                m *= xs[i]
            else:
                m *= xs[i] ** e
        total += m
    return total


@st.composite
def _polynomial_and_stack(draw):
    m = 2 * draw(st.integers(1, 3)) + 2
    kind = draw(st.sampled_from(["zero", "constant", "sparse"]))
    if kind == "zero":
        p = Polynomial(m)
    elif kind == "constant":
        p = Polynomial.constant(m, draw(small_fractions))
    else:
        exps = st.tuples(*[st.integers(0, 6)] * m)
        p = Polynomial(m, draw(st.dictionaries(exps, small_fractions, max_size=12)))
    coord = st.floats(-3.0, 3.0)
    rows = draw(st.lists(st.lists(coord, min_size=m, max_size=m), min_size=1, max_size=8))
    return p, np.array(rows)


@settings(max_examples=200, deadline=None)
@given(_polynomial_and_stack())
def test_stacked_evaluate_is_bitwise_per_point_evaluate(case):
    p, stack = case
    got = p.evaluate(stack)
    assert got.shape == (len(stack),)
    assert got.tobytes() == np.array([evaluate_reference(p, row) for row in stack]).tobytes()
    assert [p.evaluate(row) for row in stack] == got.tolist()


@pytest.mark.parametrize("m", [4, 6, 8])
def test_stacked_evaluate_keeps_the_term_order(m):
    # every monomial of degree <= 4 (70 to 495 terms) at random
    # coordinates: any other summation order (numpy's pairwise sum, say)
    # or another power (np.power) changes low bits
    rng = np.random.default_rng(m)
    p = Polynomial.constant(m, 1)
    for _ in range(4):
        coefs = [Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 9))) for _ in range(m)]
        form = Polynomial(m, {tuple(int(i == k) for i in range(m)): c for k, c in enumerate(coefs)})
        p = p * (form + Polynomial.constant(m, 1))
    assert len(p.terms) >= 70
    stack = rng.standard_normal((8, m))
    reference = np.array([evaluate_reference(p, row) for row in stack])
    assert p.evaluate(stack).tobytes() == reference.tobytes()


def test_stacked_evaluate_rejects_the_wrong_width():
    p = var(0) * var(1)
    with pytest.raises(ValueError) as single:
        p.evaluate(np.zeros(5))
    for wrong in (np.zeros((3, 5)), [[0.0] * 5] * 2, [[0.0] * 5] * 4):
        with pytest.raises(ValueError) as stacked:
            p.evaluate(wrong)
        assert str(stacked.value) == str(single.value)
    # a point is a row, never a block of rows
    for wrong in (np.zeros((4, 4, 4)), [[[0.0] * 4] * 4] * 4, np.float64(1.0)):
        with pytest.raises(ValueError, match=r"points of shape \(.*\) for a polynomial in 4"):
            p.evaluate(wrong)
    # nested lists are stacks like arrays: 2 and 4 rows of width 4
    for rows in ([[1.0, 2.0, 0.0, 0.0]] * 2, [[1.0, 2.0, 0.0, 0.0]] * 4):
        assert p.evaluate(rows).tolist() == [2.0] * len(rows)


def _evaluation_polys(num_vars):
    exps = st.tuples(*[st.integers(0, 12)] * num_vars)
    coefs = st.builds(Fraction, st.integers(-50, 50), st.integers(1, 9))
    return st.one_of(
        st.just(Polynomial(num_vars)),
        coefs.map(lambda c: Polynomial.constant(num_vars, c)),
        st.dictionaries(exps, coefs, max_size=10).map(lambda t: Polynomial(num_vars, t)),
    )


_COORDS = st.one_of(
    st.floats(-3.0, 3.0),
    st.sampled_from([0.0, -0.0, 1e-30, -1e-30, 1e30, -1e30, 1e154, -1e300]),
)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_evaluate_many_is_bitwise_the_one_point_loop(data):
    num_vars = data.draw(st.integers(1, 6))
    polys = data.draw(st.lists(_evaluation_polys(num_vars), min_size=1, max_size=6))
    row = st.lists(_COORDS, min_size=num_vars, max_size=num_vars)
    stacked = data.draw(st.booleans())
    if stacked:
        points = data.draw(st.lists(row, min_size=1, max_size=8))
    else:
        points = data.draw(row)
    rows = np.array(points, dtype=float).reshape(-1, num_vars)
    with np.errstate(all="ignore"):  # large coordinates overflow to inf, as the loop's do
        want = np.array([[evaluate_reference(p, x) for p in polys] for x in rows])
    want = want if stacked else want[0]
    for given_as in (points, np.array(points)):
        got = evaluate_many(polys, given_as)
        assert got.shape == want.shape and got.dtype == np.float64
        assert got.flags.c_contiguous
        assert got.tobytes() == want.tobytes()
        # each polynomial's values do not depend on its company
        for j, p in enumerate(polys):
            alone = evaluate_many([p], given_as)
            assert alone.tobytes() == np.ascontiguousarray(got[..., j : j + 1]).tobytes()
            value = p.evaluate(given_as)
            if stacked:
                assert value.flags.c_contiguous and value.tobytes() == got[:, j].tobytes()
            else:
                assert type(value) is float
                assert struct.pack("<d", value) == struct.pack("<d", got[j])


def test_directional_derivative_product_rule():
    p = var(0) * var(2)  # x1 y1
    point = np.array([0.3, 0.1, -0.2, 0.9])
    v = np.array([1.0, -2.0, 0.5, 0.25])
    expected = point[2] * v[0] + point[0] * v[2]
    derivative = sum(g.evaluate(point) * v[k] for k, g in enumerate(p.gradient()))
    assert abs(derivative - expected) < 1e-15


def test_evaluate_exact():
    p = var(0) * var(0) - var(2)
    val = p.evaluate_exact([Fraction(1, 2), 0, Fraction(1, 4), 0])
    assert val == Fraction(1, 4) - Fraction(1, 4) == 0


# ---------------------------------------------------------------------------
# Exact sphere averages.
# ---------------------------------------------------------------------------


def test_sphere_integral_odd_vanishes():
    assert sphere_integral(var(0) * var(2)) == 0
    assert sphere_integral(var(1) ** 3) == 0


def test_sphere_integral_squares_and_quartics():
    assert sphere_integral(var(0) ** 2) == Fraction(1, 4)
    assert sphere_integral(var(0) ** 4) == Fraction(1, 8)
    assert sphere_integral(var(0) ** 2 * var(1) ** 2) == Fraction(1, 24)


def test_sphere_integral_partition_of_unity():
    for n in (1, 2, 3):
        m = 2 * n + 2
        total = sum(sphere_integral(Polynomial.variable(m, i) ** 2) for i in range(m))
        assert total == 1


def test_sphere_integral_rotation_invariance():
    assert sphere_integral(var(0) ** 2) == sphere_integral(var(3) ** 2)
    assert sphere_integral(var(0) ** 4) == sphere_integral(var(2) ** 4)


def test_harmonic_mean_value_property():
    for ell in range(1, 5):
        for h in harmonic_basis(1, ell).polys:
            assert sphere_integral(h) == 0


def test_sphere_integral_monte_carlo_oracle():
    rng = np.random.default_rng(5)
    pts = rng.standard_normal((200_000, 4))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    mc_sq = float(np.mean(pts[:, 0] ** 2))
    mc_q = float(np.mean(pts[:, 0] ** 4))
    assert abs(mc_sq - 0.25) < 3e-3
    assert abs(mc_q - 0.125) < 3e-3


# ---------------------------------------------------------------------------
# Oracle: the dense Fraction elimination that the integer kernel replaced.
# ---------------------------------------------------------------------------


def rref_reference(rows):
    """In-place reduced row echelon form over Q; returns pivot columns."""
    if not rows:
        return []
    ncols = len(rows[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pivot_row = None
        for i in range(r, len(rows)):
            if rows[i][c]:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        inv = Fraction(1) / rows[r][c]
        rows[r] = [v * inv for v in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return pivots


def matrix_rank_reference(rows):
    return len(rref_reference([list(r) for r in rows]))


def null_space_reference(rows, ncols):
    """Basis of the kernel of the matrix, echelon-reduced, exact.

    Each basis vector has a 1 in one free column and the compensating
    pivot entries; vectors are ordered by their free column.
    """
    work = [list(r) for r in rows]
    pivots = rref_reference(work)
    pivot_set = set(pivots)
    basis = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        vec = [Fraction(0)] * ncols
        vec[free] = Fraction(1)
        for row_idx, pc in enumerate(pivots):
            vec[pc] = -work[row_idx][free]
        basis.append(vec)
    return basis


def rref_scan_reference(rows, ncols):
    """The integer elimination before the column index: every step scans every row."""
    work = [dict(r) for r in rows if r]
    for r in work:
        polynomials._divide_content(r)
    done = []  # (pivot column, row)
    for c in range(ncols):
        hits = [i for i, r in enumerate(work) if c in r]
        if not hits:
            continue
        prow = work.pop(min(hits, key=lambda i: len(work[i])))
        d = prow[c]
        for r in work + [row for _, row in done]:
            e = r.get(c)
            if not e:
                continue
            g = math.gcd(d, e)
            keep, take = d // g, e // g
            for k in r:
                r[k] *= keep
            for k, v in prow.items():
                s = r.get(k, 0) - take * v
                if s:
                    r[k] = s
                else:
                    r.pop(k, None)
            if r:
                polynomials._divide_content(r)
        work = [r for r in work if r]
        done.append((c, prow))
    return done


def null_space_scan_reference(rows, ncols):
    """The kernel read before the column index: every free column scans every reduced row."""
    done = rref_scan_reference(rows, ncols)
    pivot_cols = {c for c, _ in done}
    basis = []
    for free in range(ncols):
        if free in pivot_cols:
            continue
        hits = [(c, r) for c, r in done if free in r]
        scale = math.lcm(1, *(r[c] for c, r in hits))
        vec = {free: scale}
        for c, r in hits:
            vec[c] = -r[free] * scale // r[c]
        g = math.gcd(*vec.values())
        basis.append({k: vec[k] // g for k in sorted(vec)})
    return basis


def harmonic_span_reference(block, degree):
    """The block combinations given by the Fraction null space of the dense Laplacian images."""
    if degree < 2 or not block:
        return list(block)
    num_vars = block[0].num_vars
    targets = monomial_basis(num_vars, degree - 2)
    images = [[euclidean_laplacian(p).terms.get(m, Fraction(0)) for m in targets] for p in block]
    rows = [list(r) for r in zip(*images)]
    out = []
    for combo in null_space_reference(rows, len(block)):
        h = Polynomial(num_vars)
        for coeff, p in zip(combo, block):
            if coeff:
                h = h + coeff * p
        out.append(h)
    return out


# ---------------------------------------------------------------------------
# Exact linear algebra.
# ---------------------------------------------------------------------------


def test_null_space_small_system():
    rows = [{0: 1, 1: 2, 2: 3}, {0: 2, 1: 4, 2: 6}]
    assert null_space(rows, 3) == [{0: -2, 1: 1}, {0: -3, 2: 1}]
    assert [c for c, _ in rref(rows, 3)] == [0]
    assert rows == [{0: 1, 1: 2, 2: 3}, {0: 2, 1: 4, 2: 6}]  # the input is left as it was


def test_null_space_trivial_kernel():
    assert null_space([{0: 1}, {0: 1, 1: 1}], 2) == []


def test_subspace_basis_rejects_dependent_sets():
    x1 = var(0)
    a, b = x1, 2 * x1
    with pytest.raises(ValueError):
        SubspaceBasis(1, 1, (a, b))
    # leading monomials collide, so the elimination has to decide
    c = Polynomial(4, {(1, 0, 0, 0): 1, (0, 1, 0, 0): Fraction(1, 3)})
    d = Polynomial(4, {(1, 0, 0, 0): 1, (0, 0, 1, 0): -1})
    e = Fraction(2, 7) * c - 5 * d
    SubspaceBasis(1, 1, (c, d))
    with pytest.raises(ValueError):
        SubspaceBasis(1, 1, (c, d, e))


def test_unlucky_prime_falls_back_to_exact_rank():
    # Rows (1, 1) and (1, 1 + p): determinant p = 2^31 - 1, independent
    # over Q but not mod p.  Both lead with x1, so the elimination has to
    # decide, and being exact it never takes the prime's verdict.
    p = 2**31 - 1
    x1, x2 = var(0), var(1)
    for rows in (
        (x1 + x2, x1 + (1 + p) * x2),
        (x1 + p * x2, x1),
    ):
        assert len(SubspaceBasis(1, 1, rows)) == 2
    with pytest.raises(ValueError):
        SubspaceBasis(1, 1, (x1 + x2, p * x1 + p * x2))


def test_certificate_scales_rows_by_their_denominators():
    # Each polynomial enters the elimination as its integer numerators,
    # scaled by its own denominator; a row whose only entry is a multiple
    # of p, or p/3, must still count.
    p = 2**31 - 1
    x1, x2 = var(0), var(1)
    scaled = Fraction(p, 3) * x2 + x1
    thirds = Fraction(1, 3) * x2 + Fraction(2, 9) * x1
    columns = polynomials._stacked_columns((x1, scaled, thirds))
    assert sorted(sorted(r.items()) for r in columns) == [
        [(0, 1), (1, 3), (2, 2)],
        [(1, p), (2, 3)],
    ]
    for rows in ((x1, p * x2), (x1, scaled), (x1, thirds)):
        assert len(SubspaceBasis(1, 1, rows)) == 2
    with pytest.raises(ValueError):
        SubspaceBasis(1, 1, (x1, scaled, thirds))


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_subspace_basis_verdict_matches_exact_rank(data):
    # Entries of any size, multiples of a large prime among them, and
    # rows that agree with an earlier row modulo that prime.
    p = 2**31 - 1
    degree = data.draw(st.sampled_from([1, 2]))
    mons = monomial_basis(4, degree)
    entry = st.one_of(
        small_fractions,
        st.integers(-3, 3).map(lambda k: Fraction(k * p)),
        st.builds(Fraction, st.integers(-3 * p, 3 * p), st.integers(1, 3 * p)),
    )
    row = st.lists(entry, min_size=len(mons), max_size=len(mons))
    rows = data.draw(st.lists(row, min_size=1, max_size=4))
    kind = data.draw(st.sampled_from(["none", "combination", "shift"]))
    if kind == "combination":
        c = data.draw(entry)
        rows.append([x + c * y for x, y in zip(rows[0], rows[-1])])
    elif kind == "shift":
        shifted = list(rows[0])
        shifted[data.draw(st.integers(0, len(mons) - 1))] += p
        rows.append(shifted)
    rows = [r for r in rows if any(r)]
    assume(rows)
    polys = tuple(Polynomial(4, dict(zip(mons, r))) for r in rows)
    if matrix_rank_reference(rows) == len(rows):
        assert len(SubspaceBasis(1, degree, polys)) == len(rows)
    else:
        with pytest.raises(ValueError):
            SubspaceBasis(1, degree, polys)


@st.composite
def sparse_integer_matrices(draw):
    ncols = draw(st.integers(1, 8))
    entry = st.sampled_from([0, 0, 0, 1, -1, 2, -3, 4, 12])
    rows = draw(st.lists(st.lists(entry, min_size=ncols, max_size=ncols), max_size=6))
    if rows and draw(st.booleans()):
        rows.append([3 * x - 2 * y for x, y in zip(rows[0], rows[-1])])
    return rows, ncols


@settings(max_examples=150, deadline=None)
@given(sparse_integer_matrices())
def test_integer_null_space_matches_rational_null_space(matrix):
    rows, ncols = matrix
    sparse = [{c: v for c, v in enumerate(r) if v} for r in rows]
    exact = [[Fraction(v) for v in r] for r in rows]
    echelon = [list(r) for r in exact]
    pivots = rref_reference(echelon)
    reduced = rref(sparse, ncols)
    assert [c for c, _ in reduced] == pivots
    for (c, row), ref in zip(reduced, echelon):
        # each integer row over its pivot entry is the rational RREF row
        assert [Fraction(row.get(k, 0), row[c]) for k in range(ncols)] == ref
    got = null_space(sparse, ncols)
    rational = null_space_reference(exact, ncols)
    free_cols = [c for c in range(ncols) if c not in pivots]
    assert len(got) == len(rational) == ncols - len(pivots)
    for vec, ref, free in zip(got, rational, free_cols):
        assert all(type(v) is int and v for v in vec.values())
        assert all(sum(r.get(c, 0) * v for c, v in vec.items()) == 0 for r in sparse)
        assert math.gcd(*vec.values()) == 1
        assert list(vec) == sorted(vec) and max(vec) == free
        dense = [vec.get(c, 0) for c in range(ncols)]
        assert dense[free] > 0
        # the oracle's vector, rescaled: so the two bases span the same space
        assert [dense[free] * v for v in ref] == dense
    assert sparse == [{c: v for c, v in enumerate(r) if v} for r in rows]


@st.composite
def indexed_elimination_matrices(draw):
    # Up to 40 x 30 with small entries.  Copies, multiples and integer
    # combinations of earlier rows add length ties, duplicate rows and
    # rows that cancel to zero; sparse rows leave columns that only
    # already-reduced rows hold.
    ncols = draw(st.integers(1, 30))
    entry = st.sampled_from([1, -1, 2, -2, 3, -4, 6])
    row = st.dictionaries(st.integers(0, ncols - 1), entry, max_size=min(ncols, 8))
    rows = draw(st.lists(row, max_size=30))
    for _ in range(draw(st.integers(0, 10)) if rows else 0):
        i = draw(st.integers(0, len(rows) - 1))
        j = draw(st.integers(0, len(rows) - 1))
        a, b = draw(st.sampled_from([(1, 0), (-2, 0), (1, 1), (2, -3), (3, 1)]))
        mixed = {k: a * rows[i].get(k, 0) + b * rows[j].get(k, 0) for k in rows[i].keys() | rows[j].keys()}
        rows.insert(draw(st.integers(0, len(rows))), {k: mixed[k] for k in sorted(mixed) if mixed[k]})
    return rows, ncols


@settings(max_examples=200, deadline=None)
@given(indexed_elimination_matrices())
def test_indexed_elimination_matches_the_scan(matrix):
    rows, ncols = matrix
    want = rref_scan_reference(rows, ncols)
    got = rref(rows, ncols)
    # the same pivots, rows, entries and entry order
    assert [(c, list(r.items())) for c, r in got] == [(c, list(r.items())) for c, r in want]
    assert null_space(rows, ncols) == null_space_scan_reference(rows, ncols)


def test_bases_unchanged_under_the_scan_elimination(monkeypatch):
    def bases():
        out = []
        for n in (1, 2):
            for degree in range(5):
                out.append([(p._den, list(p._terms.items())) for p in harmonic_basis(n, degree).polys])
            for ell in range(1, 5):
                for entry in spectrum_fragment(n, ell).entries:
                    polys = entry.eigenbasis.polys
                    out.append((entry.t0sq_eigenvalue, [(p._den, list(p._terms.items())) for p in polys]))
        return out

    indexed = bases()
    calls = []

    def scan(rows, ncols):
        calls.append(ncols)
        return rref_scan_reference(rows, ncols)

    monkeypatch.setattr(polynomials, "rref", scan)
    assert bases() == indexed
    assert calls  # the scan really ran


@pytest.mark.parametrize(
    "rows, ncols",
    [
        ([{0: 1, 5: 2}], 3),  # a column past ncols must not vanish from the kernel
        ([{-1: 1, 0: 1}], 2),
        ([{"0": 1}], 1),
        ([{0: 0, 1: 0}], 2),  # zero entries, whose content is 0
        ([{0: 1}, {0: 2, 1: 0}], 2),
        ([{0: Fraction(1, 2)}], 1),
        ([{0: 1.0}], 1),
    ],
)
def test_elimination_rejects_malformed_rows(rows, ncols):
    for kernel in (rref, null_space):
        with pytest.raises(ValueError):
            kernel(rows, ncols)


def test_subspace_membership():
    basis = harmonic_basis(1, 2)
    member = basis.polys[0] + 3 * basis.polys[1]
    assert basis.contains(member)
    assert not basis.contains(var(0) ** 2)  # not harmonic
    assert not basis.contains(var(0))  # wrong degree
    assert not basis.contains(Polynomial.variable(6, 0) ** 2)  # wrong number of variables


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_contains_matches_rank_rule(data):
    # Against the rule contains() used before: the rank does not grow
    # when the target is stacked under the basis rows.
    n = data.draw(st.sampled_from([1, 2]))
    degree = data.draw(st.sampled_from([1, 2]))
    num_vars = 2 * n + 2
    mons = monomial_basis(num_vars, degree)
    entry = st.one_of(st.just(Fraction(0)), small_fractions)
    row = st.lists(entry, min_size=len(mons), max_size=len(mons))
    rows = data.draw(st.lists(row, min_size=1, max_size=4))
    assume(matrix_rank_reference(rows) == len(rows))
    kind = data.draw(st.sampled_from(["combination", "perturbed", "free"]))
    if kind == "free":
        target = data.draw(row)
    else:
        weights = data.draw(st.lists(small_fractions, min_size=len(rows), max_size=len(rows)))
        target = [sum(w * r[c] for w, r in zip(weights, rows)) for c in range(len(mons))]
        if kind == "perturbed":
            target[data.draw(st.integers(0, len(mons) - 1))] += data.draw(small_fractions)
    basis = SubspaceBasis(n, degree, tuple(Polynomial(num_vars, dict(zip(mons, r))) for r in rows))
    expected = matrix_rank_reference(rows + [target]) == matrix_rank_reference(rows)
    assert basis.contains(Polynomial(num_vars, dict(zip(mons, target)))) == expected


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_harmonic_span_of_random_integer_blocks(data):
    # Rational entries too: an element's Laplacian image can have another
    # denominator than the element, and the span must scale by the image's.
    degree = data.draw(st.sampled_from([1, 2, 3]))
    mons = monomial_basis(4, degree)
    coeff = st.one_of(st.integers(-3, 3), small_fractions)
    row = st.lists(coeff, min_size=len(mons), max_size=len(mons))
    rows = data.draw(st.lists(row, min_size=1, max_size=5))
    assume(matrix_rank_reference(rows) == len(rows))
    block = [Polynomial(4, dict(zip(mons, r))) for r in rows]
    span = SubspaceBasis(1, degree, tuple(block))
    out = _harmonic_span(block, degree)
    want = harmonic_span_reference(block, degree)
    assert [list(h.terms.items()) for h in out] == [list(h.terms.items()) for h in want]
    targets = monomial_basis(4, degree - 2)
    images = [[euclidean_laplacian(p).terms.get(m, 0) for m in targets] for p in block]
    assert len(out) == len(block) - matrix_rank_reference(images)
    for h in out:
        assert euclidean_laplacian(h).is_zero()
        assert span.contains(h)
    SubspaceBasis(1, degree, tuple(out))  # the outputs are independent


# ---------------------------------------------------------------------------
# Oracle: the Fraction-dict polynomial that the packed integer form replaced.
# ---------------------------------------------------------------------------


class PolynomialReference:
    """Exponent tuple -> Fraction dict, with the arithmetic loops of the packed form."""

    __slots__ = ("num_vars", "terms")

    def __init__(self, num_vars, terms=None):
        self.num_vars = int(num_vars)
        clean = {}
        for exps, c in (terms or {}).items():
            c = _as_fraction(c)
            if c:
                clean[tuple(int(e) for e in exps)] = c
        self.terms = clean

    @classmethod
    def _wrap(cls, num_vars, terms):
        out = cls.__new__(cls)
        out.num_vars = num_vars
        out.terms = terms
        return out

    def __add__(self, other):
        terms = dict(self.terms)
        for exps, c in other.terms.items():
            s = terms.get(exps, 0) + c
            if s:
                terms[exps] = s
            else:
                terms.pop(exps, None)
        return self._wrap(self.num_vars, terms)

    def __neg__(self):
        return self._wrap(self.num_vars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, PolynomialReference):
            terms = {}
            for ea, ca in self.terms.items():
                for eb, cb in other.terms.items():
                    e = tuple(x + y for x, y in zip(ea, eb))
                    s = terms.get(e, 0) + ca * cb
                    if s:
                        terms[e] = s
                    else:
                        terms.pop(e, None)
            return self._wrap(self.num_vars, terms)
        c = _as_fraction(other)
        if not c:
            return PolynomialReference(self.num_vars)
        return self._wrap(self.num_vars, {e: c * v for e, v in self.terms.items()})

    __rmul__ = __mul__

    def __pow__(self, k):
        out = PolynomialReference(self.num_vars, {(0,) * self.num_vars: 1})
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base if k > 1 else base
            k >>= 1
        return out

    def partial(self, i):
        terms = {}
        for exps, c in self.terms.items():
            e = exps[i]
            if e:
                terms[exps[:i] + (e - 1,) + exps[i + 1 :]] = c * e
        return self._wrap(self.num_vars, terms)

    def homogeneous_components(self):
        parts = {}
        for exps, c in self.terms.items():
            parts.setdefault(sum(exps), {})[exps] = c
        return {d: PolynomialReference(self.num_vars, t) for d, t in sorted(parts.items())}

    def evaluate(self, point):
        total = 0.0
        for exps, c in self.terms.items():
            m = float(c)
            for e, x in zip(exps, point):
                if e == 1:
                    m *= x
                elif e:
                    m *= x**e
            total += m
        return total

    def evaluate_exact(self, point):
        total = Fraction(0)
        for exps, c in self.terms.items():
            m = c
            for e, x in zip(exps, point):
                if e:
                    m *= x**e
            total += m
        return total


def laplacian_reference(p):
    terms = {}
    for i in range(p.num_vars):
        for exps, c in p.terms.items():
            e = exps[i]
            if e < 2:
                continue
            key = exps[:i] + (e - 2,) + exps[i + 1 :]
            s = terms.get(key, 0) + c * (e * (e - 1))
            if s:
                terms[key] = s
            else:
                terms.pop(key, None)
    return PolynomialReference._wrap(p.num_vars, terms)


def t0_apply_reference(p):
    half = p.num_vars // 2
    terms = {}
    for j in range(half):
        for src, dst, sign in ((half + j, j, 1), (j, half + j, -1)):
            for exps, c in p.terms.items():
                e = exps[src]
                if not e:
                    continue
                key = list(exps)
                key[src] = e - 1
                key[dst] += 1
                key = tuple(key)
                s = terms.get(key, 0) + c * (sign * e)
                if s:
                    terms[key] = s
                else:
                    terms.pop(key, None)
    return PolynomialReference._wrap(p.num_vars, terms)


def assert_same_terms(got, want):
    # term by term and in order: float sums follow the storage order
    assert got.num_vars == want.num_vars
    assert list(got.terms.items()) == list(want.terms.items())
    assert len(got.terms) == len(want.terms)


rational_coefficients = st.one_of(
    st.integers(-4, 4), st.builds(Fraction, st.integers(-7, 7), st.integers(1, 6))
)


@st.composite
def reference_pairs(draw):
    """Two term dicts in 2n+2 variables, n = 1..3, with cancellation cases mixed in."""
    num_vars = 2 * draw(st.integers(1, 3)) + 2
    exps = st.tuples(*[st.integers(0, 3)] * num_vars)
    a = draw(st.dictionaries(exps, rational_coefficients, max_size=6))
    kind = draw(st.sampled_from(["free", "cancel", "constant", "zero"]))
    if kind == "free":
        b = draw(st.dictionaries(exps, rational_coefficients, max_size=6))
    elif kind == "cancel":  # b = -a plus a little: a + b cancels all but that
        b = {e: -c for e, c in a.items()}
        b.update(draw(st.dictionaries(exps, rational_coefficients, max_size=2)))
    elif kind == "constant":
        b = {(0,) * num_vars: draw(rational_coefficients)}
    else:
        b = {}
    return num_vars, a, b


@settings(max_examples=200, deadline=None)
@given(reference_pairs(), st.integers(0, 3), rational_coefficients, st.data())
def test_packed_polynomial_matches_reference(pair, k, c, data):
    num_vars, a, b = pair
    p, q = Polynomial(num_vars, a), Polynomial(num_vars, b)
    rp, rq = PolynomialReference(num_vars, a), PolynomialReference(num_vars, b)
    assert_same_terms(p, rp)
    assert_same_terms(q, rq)
    prod, rprod = p * q, rp * rq
    assert_same_terms(prod, rprod)
    assert_same_terms(p + q, rp + rq)
    assert_same_terms(p - q, rp - rq)
    assert_same_terms(-p, -rp)
    assert_same_terms(c * p, c * rp)
    assert_same_terms(p**k, rp**k)
    assert_same_terms(p - p, rp - rp)
    assert (p - p).is_zero()
    assert_same_terms((p + q) * (p - q) - (p * p - q * q), (rp + rq) * (rp - rq) - (rp * rp - rq * rq))
    for i in range(num_vars):
        assert_same_terms(prod.partial(i), rprod.partial(i))
    got, want = prod.homogeneous_components(), rprod.homogeneous_components()
    assert list(got) == list(want)
    for d in got:
        assert_same_terms(got[d], want[d])
    assert_same_terms(euclidean_laplacian(prod), laplacian_reference(rprod))
    assert_same_terms(t0_apply(prod), t0_apply_reference(rprod))
    coords = st.floats(-2, 2, allow_nan=False)
    point = data.draw(st.lists(coords, min_size=num_vars, max_size=num_vars))
    for x in (point, np.array(point)):
        for poly, ref in ((prod, rprod), (p - q, rp - rq), (q, rq)):
            value, expected = poly.evaluate(x), ref.evaluate(x)
            assert type(value) is float
            assert struct.pack("<d", value) == struct.pack("<d", expected)  # bit for bit
    exact = data.draw(st.lists(rational_coefficients, min_size=num_vars, max_size=num_vars))
    assert prod.evaluate_exact(exact) == rprod.evaluate_exact(exact)
    assert (p - q).evaluate_exact(exact) == (rp - rq).evaluate_exact(exact)
