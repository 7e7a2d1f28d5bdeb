import dataclasses
import hashlib
from fractions import Fraction
from functools import lru_cache
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crsphere import spectrum as S
from crsphere import suites
from crsphere.calculus import ScalarField, sublaplacian_greenleaf
from crsphere.polynomials import (
    Polynomial,
    SubspaceBasis,
    _harmonic_span,
    _pack,
    dim_homogeneous,
    euclidean_laplacian,
    monomial_basis,
    sphere_integral,
)
from crsphere.spectrum import (
    SpectrumEntry,
    SpectrumFragment,
    _complex_monomial,
    _complex_monomial_terms,
    _gaussian_factor,
    _t0sq_certificate,
    kernel_t0sq_shift,
    reeb_kernel_eigenfunctions,
    spectrum_fragment,
    structured_t0sq_kernel,
    t0_apply,
)
from crsphere.sphere import random_point
from crsphere.suites import Config, run_suite
from test_polynomials import matrix_rank_reference, null_space_reference


def var(i, m=4):
    return Polynomial.variable(m, i)


def test_t0_on_coordinates():
    # layout (x1, x2, y1, y2): T0 x1 = -y1, T0 y1 = x1
    assert t0_apply(var(0)) == -var(2)
    assert t0_apply(var(2)) == var(0)
    assert t0_apply(var(1)) == -var(3)


def test_t0_needs_paired_variables():
    # with an odd count the x/y halves would pair the wrong variables
    with pytest.raises(ValueError, match="2n\\+2 variables"):
        t0_apply(Polynomial(3, {(1, 0, 1): 1}))


def test_t0_kills_the_rotation_invariant():
    rot = var(0) * var(3) - var(1) * var(2)  # x1 y2 - x2 y1
    assert t0_apply(rot).is_zero()
    assert t0_apply(var(0) * var(1) + var(2) * var(3)).is_zero()


def t0_reference(p):
    """sum_j x^j d/dy^j - y^j d/dx^j, built from partials and products."""
    half = p.num_vars // 2
    out = Polynomial(p.num_vars)
    for j in range(half):
        xj = Polynomial.variable(p.num_vars, j)
        yj = Polynomial.variable(p.num_vars, half + j)
        out = out + xj * p.partial(half + j) - yj * p.partial(j)
    return out


@st.composite
def sparse_polynomials(draw):
    """A polynomial with a few small rational terms, n = 1..3."""
    num_vars = 2 * draw(st.integers(1, 3)) + 2
    exps = st.tuples(*[st.integers(0, 3)] * num_vars)
    coeffs = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))
    return Polynomial(num_vars, draw(st.dictionaries(exps, coeffs, max_size=8)))


@settings(max_examples=60, deadline=None)
@given(sparse_polynomials())
def test_t0_matches_reference_formula(p):
    got = t0_apply(p)
    expected = t0_reference(p)
    assert got == expected
    # same term order, so float evaluations sum identically
    assert list(got.terms) == list(expected.terms)
    assert all(isinstance(c, Fraction) for c in got.terms.values())


@settings(max_examples=60, deadline=None)
@given(sparse_polynomials())
def test_laplacian_matches_second_partials(p):
    reference = Polynomial(p.num_vars)
    for i in range(p.num_vars):
        reference = reference + p.partial(i).partial(i)
    lap = euclidean_laplacian(p)
    assert lap == reference
    assert list(lap.terms) == list(reference.terms)
    assert all(isinstance(c, Fraction) for c in lap.terms.values())


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_t0_rotates_complex_monomials(data):
    # T0 z^a zbar^b = i (|a| - |b|) z^a zbar^b
    n = data.draw(st.integers(1, 3))
    multi = st.tuples(*[st.integers(0, 2)] * (n + 1))
    a, b = data.draw(multi), data.draw(multi)
    k = sum(a) - sum(b)
    re, im = _complex_monomial(n, a, b)
    assert t0_apply(re) == -k * im
    assert t0_apply(im) == k * re


def complex_monomial_reference(n, a, b):
    """Re and Im of z^a zbar^b by |a| + |b| successive complex products."""
    num_vars = 2 * n + 2
    re = Polynomial.constant(num_vars, 1)
    im = Polynomial(num_vars)
    for j in range(n + 1):
        xj = Polynomial.variable(num_vars, j)
        yj = Polynomial.variable(num_vars, n + 1 + j)
        for _ in range(a[j]):
            re, im = re * xj - im * yj, re * yj + im * xj
        for _ in range(b[j]):
            re, im = re * xj + im * yj, im * xj - re * yj
    return re, im


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_complex_monomial_matches_successive_products(data):
    n = data.draw(st.integers(1, 3))
    multi = st.tuples(*[st.integers(0, 4)] * (n + 1))
    a, b = data.draw(multi), data.draw(multi)
    re, im = _complex_monomial(n, a, b)
    ref_re, ref_im = complex_monomial_reference(n, a, b)
    assert re == ref_re
    assert im == ref_im
    assert all(isinstance(c, Fraction) for c in (*re.terms.values(), *im.terms.values()))


def complex_monomial_terms_reference(n, a, b):
    """z^a zbar^b as packed key -> (re, im), each step key built by the validating _pack."""
    half = n + 1
    num_vars = 2 * half
    out = {_pack((0,) * num_vars): (1, 0)}
    for j in range(half):
        deg = a[j] + b[j]
        steps = []
        for k, fre, fim in _gaussian_factor(a[j], b[j]):
            exps = [0] * num_vars
            exps[j], exps[half + j] = deg - k, k
            steps.append((_pack(exps), fre, fim))
        grown = {}
        for key, (re, im) in out.items():
            for step, fre, fim in steps:
                grown[key + step] = (re * fre - im * fim, re * fim + im * fre)
        out = grown
    return out


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_complex_monomial_terms_match_packed_reference_in_order(data):
    # the term order becomes the eigenbasis term order, and so the
    # order in which float evaluations of an eigenfunction sum
    n = data.draw(st.integers(1, 3))
    multi = st.tuples(*[st.integers(0, 4)] * (n + 1))
    a, b = data.draw(multi), data.draw(multi)
    got = _complex_monomial_terms(n, a, b)
    assert list(got.items()) == list(complex_monomial_terms_reference(n, a, b).items())


def test_complex_monomial_exponent_bound():
    # a_j + b_j is the exponent of x_j in the leading term: 255 fits a byte, 256 does not
    fits = _complex_monomial_terms(1, (0, 128), (0, 127))
    assert list(fits.items()) == list(complex_monomial_terms_reference(1, (0, 128), (0, 127)).items())
    for a, b in (((128, 0), (128, 0)), ((0, 256), (0, 0)), ((1, 255), (0, 1))):
        with pytest.raises(ValueError, match="exponent 256 above 255"):
            _complex_monomial_terms(1, a, b)
        with pytest.raises(ValueError, match="exponent 256 above 255"):
            complex_monomial_terms_reference(1, a, b)


def coefficient_rows(polys, mons):
    """Dense Fraction coefficient row of each polynomial over the monomials mons."""
    index = {m: i for i, m in enumerate(mons)}
    rows = []
    for p in polys:
        row = [Fraction(0)] * len(mons)
        for m, c in p.terms.items():
            row[index[m]] = c
        rows.append(row)
    return rows


def coefficient_matrix(basis):
    """Rows = basis elements, columns = grlex monomials of the basis degree."""
    return coefficient_rows(basis.polys, monomial_basis(2 * basis.n + 2, basis.degree))


def reeb_derivation_matrix(n, ell):
    """Exact dense matrix of T0 on the grlex monomial basis of P_ell.

    Returns (rows, monomials); entry [r][c] is the coefficient of
    monomial r in T0 applied to monomial c.
    """
    num_vars = 2 * n + 2
    mons = monomial_basis(num_vars, ell)
    cols = coefficient_rows([t0_apply(Polynomial.monomial(num_vars, m)) for m in mons], mons)
    return [list(r) for r in zip(*cols)], mons


def mat_mul(a, b):
    if not a or not b:
        return []
    bt = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col) if x and y) for col in bt] for row in a]


def test_t0_squared_is_minus_one_on_linear_forms():
    rows, mons = reeb_derivation_matrix(1, 1)
    sq = mat_mul(rows, rows)
    for i in range(len(mons)):
        for j in range(len(mons)):
            assert sq[i][j] == (-1 if i == j else 0)


def test_t0_matrix_skew_for_integral_pairing():
    # (T0 P, Q) = -(P, T0 Q) with the pairing from the exact sphere average
    rows, mons = reeb_derivation_matrix(1, 2)
    polys = [Polynomial.monomial(4, m) for m in mons]
    for i in range(len(mons)):
        for j in range(len(mons)):
            lhs = sphere_integral(t0_apply(polys[i]) * polys[j])
            rhs = sphere_integral(polys[i] * t0_apply(polys[j]))
            assert lhs == -rhs


@pytest.mark.parametrize(
    "lam,expected",
    [(4, 6), (0, 4), (1, 0), (2, 0), (3, 0), (5, 0)],
)
def test_kernel_dimensions_degree_two(lam, expected):
    assert len(kernel_t0sq_shift(1, 2, lam)) == expected


@lru_cache(maxsize=None)
def _t0_squared_reference(n, ell):
    rows, mons = reeb_derivation_matrix(n, ell)
    return tuple(map(tuple, mat_mul(rows, rows))), mons


def kernel_t0sq_shift_reference(n, ell, lam):
    """Ker(T0^2 + lam I) as the Fraction null space of the dense squared T0 matrix."""
    square, mons = _t0_squared_reference(n, ell)
    sq = [list(r) for r in square]
    for i in range(len(sq)):
        sq[i][i] += Fraction(lam)
    num_vars = 2 * n + 2
    return [
        Polynomial(num_vars, dict(zip(mons, vec))) for vec in null_space_reference(sq, len(mons))
    ]


@pytest.mark.parametrize("n, top", [(1, 5), (2, 3)])
def test_kernel_matches_fraction_route_term_by_term(n, top):
    for ell in range(top + 1):
        squares = {(ell - 2 * j) ** 2 for j in range(ell // 2 + 1)}
        for lam in sorted(squares | {Fraction(1, 2)}):
            got = kernel_t0sq_shift(n, ell, lam).polys
            want = kernel_t0sq_shift_reference(n, ell, lam)
            assert [list(p.terms.items()) for p in got] == [list(p.terms.items()) for p in want]


def test_float_lambda_is_rejected():
    # Fraction(4.0) would pass a float into the exact layer silently.
    with pytest.raises(TypeError):
        kernel_t0sq_shift(1, 2, 4.0)
    with pytest.raises(TypeError):
        structured_t0sq_kernel(1, 2, 4.0)


def test_kernel_members_are_exact():
    basis = kernel_t0sq_shift(1, 2, 4)
    for p in basis.polys:
        assert (t0_apply(t0_apply(p)) + 4 * p).is_zero()


def test_structured_route_agrees_with_brute_force():
    for ell in (2, 3):
        for j in range(ell // 2 + 1):
            lam = (ell - 2 * j) ** 2
            brute = kernel_t0sq_shift(1, ell, lam)
            structured = structured_t0sq_kernel(1, ell, lam)
            assert len(structured) == len(brute)
            for p in structured:
                assert brute.contains(p)


def test_t0_kernel_equals_t0sq_kernel():
    # skewness: T0^2 P = 0 forces T0 P = 0
    for ell in (1, 2, 3):
        rows, mons = reeb_derivation_matrix(1, ell)
        sq = mat_mul(rows, rows)
        assert len(null_space_reference(rows, len(mons))) == len(
            null_space_reference(sq, len(mons))
        )


# ---------------------------------------------------------------------------
# Spectrum fragments.
# ---------------------------------------------------------------------------


def test_fragment_s3_degree_one():
    frag = spectrum_fragment(1, 1)
    assert frag.eigenvalues() == [-2]
    assert frag.entries[0].multiplicity == 4
    assert not frag.entries[0].reeb_kernel


def test_fragment_s3_degree_two():
    frag = spectrum_fragment(1, 2)
    by_lam = {e.t0sq_eigenvalue: e for e in frag.entries}
    assert set(by_lam) == {0, 4}
    assert by_lam[0].sublaplacian_eigenvalue == -8
    assert by_lam[0].multiplicity == 3
    assert by_lam[0].reeb_kernel
    assert by_lam[4].sublaplacian_eigenvalue == -4
    assert by_lam[4].multiplicity == 6
    assert not by_lam[4].reeb_kernel


def test_fragment_s3_degree_three():
    frag = spectrum_fragment(1, 3)
    by_lam = {e.t0sq_eigenvalue: e.sublaplacian_eigenvalue for e in frag.entries}
    assert by_lam == {1: -14, 9: -6}


@pytest.mark.parametrize(
    "ell,expected",
    [(1, {-4}), (2, {-8, -12}), (3, {-20, -12})],
)
def test_fragment_s5_values(ell, expected):
    assert set(spectrum_fragment(2, ell).eigenvalues()) == expected


def test_fragment_multiplicities_fill_harmonics():
    for n in (1, 2):
        for ell in (1, 2, 3, 4):
            frag = spectrum_fragment(n, ell)  # constructor checks the sum
            dim_h = dim_homogeneous(2 * n + 2, ell) - dim_homogeneous(2 * n + 2, ell - 2)
            assert sum(e.multiplicity for e in frag.entries) == dim_h
            for e in frag.entries:
                for p in e.eigenbasis.polys:
                    assert euclidean_laplacian(p).is_zero()


def test_fragment_matches_folland_closed_form():
    # H_ell splits into the bidegree spaces H_{p,q}, p + q = ell, on which
    # T0^2 = -(p - q)^2 and Delta_b = -4pq - 2n(p + q) (Folland 1972).
    for n, ell_max in ((1, 6), (2, 6), (3, 6)):
        for ell in range(1, ell_max + 1):
            pairs = [(p, ell - p) for p in range(ell + 1)]
            frag = spectrum_fragment(n, ell)
            assert {e.t0sq_eigenvalue for e in frag.entries} == {(p - q) ** 2 for p, q in pairs}
            for e in frag.entries:
                mine = [(p, q) for p, q in pairs if (p - q) ** 2 == e.t0sq_eigenvalue]
                for p, q in mine:
                    assert e.sublaplacian_eigenvalue == -4 * p * q - 2 * n * (p + q)
                dims = sum(
                    Fraction(p + q + n, n) * comb(p + n - 1, p) * comb(q + n - 1, q)
                    for p, q in mine
                )
                assert e.multiplicity == dims


def spectrum_fragment_reference(n, ell):
    """The real-monomial route: harmonic span of each real bigraded block."""
    entries = []
    for j in range(ell // 2, -1, -1):
        lam = (ell - 2 * j) ** 2
        harmonic = _harmonic_span(structured_t0sq_kernel(n, ell, lam), ell)
        basis = SubspaceBasis(n, ell, tuple(harmonic))
        entries.append(SpectrumEntry(lam, basis))
    return SpectrumFragment(n, ell, tuple(entries))


def same_span(a, b):
    """Both bases independent (checked on construction) and each inside the other's span.

    This is `SubspaceBasis.contains` both ways for every element at
    once: stacking the two coefficient matrices keeps the rank at
    len(a) exactly when every element of b lies in the span of a.
    """
    return len(a) == len(b) == matrix_rank_reference(coefficient_matrix(a) + coefficient_matrix(b))


@pytest.mark.parametrize("n,ell_max", [(1, 6), (2, 5), (3, 4)])
def test_fragment_matches_real_monomial_route(n, ell_max):
    for ell in range(1, ell_max + 1):
        got = spectrum_fragment(n, ell)
        ref = spectrum_fragment_reference(n, ell)
        assert [e.t0sq_eigenvalue for e in got.entries] == [e.t0sq_eigenvalue for e in ref.entries]
        for e, r in zip(got.entries, ref.entries):
            assert same_span(e.eigenbasis, r.eigenbasis)
            for p in e.eigenbasis.polys:
                assert (t0_apply(t0_apply(p)) + e.t0sq_eigenvalue * p).is_zero()
                assert all(c.denominator == 1 for c in p.terms.values())  # integer bases
    # spot-check the per-element route as well
    e, r = got.entries[-1], ref.entries[-1]
    assert all(r.eigenbasis.contains(p) for p in e.eigenbasis.polys[:3])
    assert all(e.eigenbasis.contains(p) for p in r.eigenbasis.polys[:3])


FRAGMENT_DIGEST = "85907d503201a6990600808b21e38f5c2ece5a139199f4f5800a199eb5fd75b2"


def test_fragment_terms_digest():
    # Every eigenbasis term, numerator, denominator and their order over
    # the perfbench exact_spectrum range: a kernel rewrite that moves any
    # of them, or only the term order that float evaluations sum in,
    # changes the digest.
    digest = hashlib.sha256()
    for n, ell_max in ((1, 6), (2, 5), (3, 4)):
        for ell in range(1, ell_max + 1):
            for e in spectrum_fragment(n, ell).entries:
                polys = [(list(p._terms.items()), p._den) for p in e.eigenbasis.polys]
                digest.update(repr((n, ell, e.t0sq_eigenvalue, polys)).encode())
    assert digest.hexdigest() == FRAGMENT_DIGEST


# ---------------------------------------------------------------------------
# The packed T0^2 certificate of the spectrum suite.
# ---------------------------------------------------------------------------


def t0sq_per_element_reference(polys, lam):
    """The per-element check the packed certificate replaced: T0^2 p = -lam p for each p."""
    return all((t0_apply(t0_apply(p)) + lam * p).is_zero() for p in polys)


@lru_cache(maxsize=None)
def _perfbench_range_entries():
    """(degree, lambda, eigenbasis) of every entry over (1, <=6), (2, <=5), (3, <=4)."""
    return tuple(
        (ell, e.t0sq_eigenvalue, e.eigenbasis.polys)
        for n, ell_max in ((1, 6), (2, 5), (3, 4))
        for ell in range(1, ell_max + 1)
        for e in spectrum_fragment(n, ell).entries
    )


def test_t0sq_certificate_accepts_every_fragment_entry():
    for ell, lam, polys in _perfbench_range_entries():
        assert _t0sq_certificate(polys, ell, lam)
        assert t0sq_per_element_reference(polys, lam)


@settings(max_examples=12, deadline=None)
@given(st.data())
def test_t0sq_certificate_agrees_with_per_element_reference(data):
    # one planted fault per entry: a numerator moved by a nonzero integer
    # in the first, the last or a random element, or lambda shifted by 1
    for ell, lam, polys in _perfbench_range_entries():
        where = data.draw(st.sampled_from(("first", "last", "random", "lambda")))
        if where == "lambda":
            lam += 1
        else:
            i = {"first": 0, "last": len(polys) - 1}.get(where)
            if i is None:
                i = data.draw(st.integers(0, len(polys) - 1))
            p = polys[i]
            key = data.draw(st.sampled_from(sorted(p._terms)))
            delta = data.draw(st.integers(-(10**12), 10**12).filter(bool))
            terms = dict(p._terms)
            terms[key] += delta
            planted = Polynomial._wrap(p.num_vars, {k: v for k, v in terms.items() if v}, p._den)
            polys = polys[:i] + (planted,) + polys[i + 1 :]
        assert _t0sq_certificate(polys, ell, lam) == t0sq_per_element_reference(polys, lam)


def test_t0sq_certificate_explicit_cases():
    x0, x1 = var(0), var(1)
    # B = M + 1, not M: with B = M = 1 the two would pack to z = 0
    assert not _t0sq_certificate([x0, -x0], 1, 0)
    assert not t0sq_per_element_reference([x0, -x0], 0)
    # numerators only: the denominator of 3 changes nothing
    third = Fraction(1, 3) * (x0 * x0 + var(2) * var(2))  # (x1^2 + y1^2) / 3, T0-invariant
    assert third._den == 3
    assert not _t0sq_certificate([x0 * x1, third], 2, 0)
    assert _t0sq_certificate([third, x0 * var(3) - x1 * var(2)], 2, 0)
    assert not _t0sq_certificate([third], 2, 4)
    assert _t0sq_certificate([], 3, 9)


def _plant_slip(monkeypatch, degree, where):
    """Make the spectrum suite see x1^degree / 2^40 added to one eigenbasis element.

    `where` is "last" (the last element of the last entry) or "first"
    (the first element of the first entry, the one the pointwise check
    evaluates).  The slip is far below the pointwise tolerance, so only
    the exact check can see it.
    """
    original = suites.spectrum_fragment
    slip = Fraction(1, 2**40) * var(0) ** degree

    def planted(n, ell):
        fragment = original(n, ell)
        if ell != degree:
            return fragment
        entries = list(fragment.entries)
        i = -1 if where == "last" else 0
        polys = list(entries[i].eigenbasis.polys)
        polys[i] = polys[i] + slip
        basis = SubspaceBasis(n, ell, tuple(polys))
        entries[i] = dataclasses.replace(entries[i], eigenbasis=basis)
        return dataclasses.replace(fragment, entries=tuple(entries))

    monkeypatch.setattr(suites, "spectrum_fragment", planted)


@pytest.mark.parametrize("where", ["last", "first"])
def test_spectrum_exact_row_fails_on_a_wrong_monomial(monkeypatch, where):
    cfg = Config(suite="spectrum", n=1, degree=3, seed=5)
    clean = {c.id: c.status for c in run_suite(cfg).checks}
    _plant_slip(monkeypatch, 3, where)
    planted = {c.id: c.status for c in run_suite(cfg).checks}
    assert clean["spectrum.exact.l3"] and not planted["spectrum.exact.l3"]
    del clean["spectrum.exact.l3"], planted["spectrum.exact.l3"]
    assert planted == clean


def test_t0sq_certificate_reads_no_basis_builder(monkeypatch):
    def forbidden(*args):
        raise AssertionError("the certificate reached a basis builder")

    entries = spectrum_fragment(2, 3).entries
    for name in ("_bigraded_harmonics", "_complex_monomial_terms", "bigraded_block", "null_space"):
        monkeypatch.setattr(S, name, forbidden)
    for e in entries:
        assert _t0sq_certificate(e.eigenbasis.polys, 3, e.t0sq_eigenvalue)
    assert not _t0sq_certificate(entries[0].eigenbasis.polys, 3, entries[-1].t0sq_eigenvalue)


def test_fragment_needs_a_positive_cr_dimension():
    # n = 0 listed mu = -8 with multiplicity 0 at degree 3; True built n = 1
    for build in (
        lambda: spectrum_fragment(0, 3),
        lambda: spectrum_fragment(-1, 2),
        lambda: spectrum_fragment(True, 2),
        lambda: reeb_kernel_eigenfunctions(0),
    ):
        with pytest.raises(ValueError, match="CR dimension must be a positive integer"):
            build()
    # a degree of True built a fragment whose .degree was True
    for ell in (True, 2.0):
        with pytest.raises(ValueError, match="degree must be a positive integer"):
            spectrum_fragment(1, ell)


def test_numpy_integer_arguments_give_the_int_fragment():
    # np.int64 passed the guard, then crashed in rref (a degree) and in
    # the packed T0 apply (a CR dimension)
    want = spectrum_fragment(1, 2)
    for n, ell in ((1, np.int64(2)), (np.int64(1), 2)):
        got = spectrum_fragment(n, ell)
        assert got == want
        assert type(got.n) is int and type(got.degree) is int


def test_fragment_rejects_bad_degree():
    with pytest.raises(ValueError):
        spectrum_fragment(1, 0)


def test_eigenspaces_partition_full_polynomial_space():
    # T0^2 is diagonalizable on P_ell: the bigraded blocks fill it
    for n in (1, 2):
        for ell in (1, 2, 3):
            total = 0
            for j in range(ell // 2 + 1):
                lam = (ell - 2 * j) ** 2
                total += len(structured_t0sq_kernel(n, ell, lam))
            assert total == dim_homogeneous(2 * n + 2, ell)


def test_eigenfunctions_pointwise(rng):
    # cross-module check against the exact sublaplacian evaluation
    frag = spectrum_fragment(1, 2)
    for entry in frag.entries:
        f = ScalarField(entry.eigenbasis.polys[0], 1)
        mu = entry.sublaplacian_eigenvalue
        for _ in range(20):
            p = random_point(rng, 1)
            assert abs(sublaplacian_greenleaf(f, p) - mu * f.value(p)) < 1e-9


# ---------------------------------------------------------------------------
# The invariant kernel at degree two and the displayed families.
# ---------------------------------------------------------------------------


def test_reeb_kernel_contains_classical_family():
    kernel = reeb_kernel_eigenfunctions(1)
    assert len(kernel) == 3
    trace_free = (
        var(0) ** 2 + var(2) ** 2 - var(1) ** 2 - var(3) ** 2
    )  # x1^2+y1^2-x2^2-y2^2
    cross = var(0) * var(1) + var(2) * var(3)  # x1 x2 + y1 y2
    assert kernel.contains(trace_free)
    assert kernel.contains(cross)
    # strictly larger than the displayed family: the rotation invariant
    assert kernel.contains(var(0) * var(3) - var(1) * var(2))


def test_reeb_kernel_dimension_general_n():
    for n in (1, 2):
        assert len(reeb_kernel_eigenfunctions(n)) == (n + 1) ** 2 - 1


def _sym_family_lambda_one():
    # (a_ijk x^i + b_ijk y^i)(x^j x^k + y^j y^k), a fully symmetric and
    # trace free: a_111 = 1, a_122 = a_212 = a_221 = -1
    x1, x2, y1, y2 = var(0), var(1), var(2), var(3)
    r1 = x1 * x1 + y1 * y1
    r2 = x2 * x2 + y2 * y2
    cross = x1 * x2 + y1 * y2
    fam_a = x1 * r1 - x1 * r2 - 2 * x2 * cross
    fam_b = y1 * r1 - y1 * r2 - 2 * y2 * cross
    return fam_a, fam_b


def _sym_family_lambda_nine():
    # a_ijk x^i (x^j x^k - 3 y^j y^k) with the same symmetric trace-free a
    x1, x2, y1, y2 = var(0), var(1), var(2), var(3)

    def term(i, j, k, coeff):
        xs = [x1, x2]
        ys = [y1, y2]
        return coeff * xs[i] * (xs[j] * xs[k] - 3 * ys[j] * ys[k])

    fam = term(0, 0, 0, 1) + term(0, 1, 1, -1) + term(1, 0, 1, -1) + term(1, 1, 0, -1)
    return fam


def test_displayed_degree_three_families_are_contained():
    frag = spectrum_fragment(1, 3)
    bases = {e.t0sq_eigenvalue: e.eigenbasis for e in frag.entries}
    fam_a, fam_b = _sym_family_lambda_one()
    for fam in (fam_a, fam_b):
        assert (t0_apply(t0_apply(fam)) + fam).is_zero()
        assert euclidean_laplacian(fam).is_zero()
        assert bases[1].contains(fam)
    fam9 = _sym_family_lambda_nine()
    assert (t0_apply(t0_apply(fam9)) + 9 * fam9).is_zero()
    assert euclidean_laplacian(fam9).is_zero()
    assert bases[9].contains(fam9)


def test_kernel_accepts_fraction_lambda():
    assert len(kernel_t0sq_shift(1, 2, Fraction(1, 2))) == 0
