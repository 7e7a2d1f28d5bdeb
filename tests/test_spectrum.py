import dataclasses
import hashlib
from collections import Counter
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
# Fragment bases are certified by their kernel's echelon pattern.
# ---------------------------------------------------------------------------


def test_general_basis_check_accepts_every_fragment_entry():
    # the full elimination of SubspaceBasis is the oracle of the certificate
    for n, ell_max in ((1, 6), (2, 5), (3, 4)):
        for ell in range(1, ell_max + 1):
            for e in spectrum_fragment(n, ell).entries:
                assert SubspaceBasis(n, ell, e.eigenbasis.polys) == e.eigenbasis


def _shared_free_column(kernel):
    """kernel[0] with one more entry below its free column: a second vector with that free column."""
    vec = dict(kernel[0])
    col = min(set(range(max(vec))) - {max(v) for v in kernel})
    vec[col] = vec.get(col, 0) + 1
    return kernel + [vec]


def _held_free_column(kernel):
    """kernel[1] made nonzero at kernel[0]'s free column, which lies below its own."""
    vec = dict(kernel[1])
    vec[max(kernel[0])] = 1
    return [kernel[0], vec] + kernel[2:]


PLANTED_KERNEL_FAULTS = {
    "duplicated vector": lambda kernel: kernel + [kernel[-1]],
    "shared free column": _shared_free_column,
    "held free column": _held_free_column,
    "negative at its free column": lambda kernel: [{k: -v for k, v in kernel[0].items()}] + kernel[1:],
}


@pytest.mark.parametrize("fault", sorted(PLANTED_KERNEL_FAULTS))
def test_fragment_refuses_a_kernel_out_of_echelon_form(monkeypatch, fault):
    # every kernel with two or more vectors gets the fault; the check
    # reads the kernel before any polynomial is built from it
    original, plant = S.null_space, PLANTED_KERNEL_FAULTS[fault]
    planted = []

    def faulty(rows, ncols):
        kernel = original(rows, ncols)
        if len(kernel) < 2:
            return kernel
        planted.append(fault)
        return plant(kernel)

    monkeypatch.setattr(S, "null_space", faulty)
    with pytest.raises(ValueError, match="kernel vectors are not in echelon form"):
        spectrum_fragment(2, 4)
    assert planted == [fault]


def test_echelon_kernel_passes_what_null_space_returns():
    rows = [{0: 1, 2: -1}, {1: 2, 3: 1, 4: -3}]
    kernel = S.null_space(rows, 5)
    assert S._echelon_kernel(kernel) is kernel
    assert S._echelon_kernel([]) == []
    for fault, plant in PLANTED_KERNEL_FAULTS.items():
        with pytest.raises(ValueError):
            S._echelon_kernel(plant(kernel))


def test_certified_basis_keeps_the_element_checks():
    x0, y0 = var(0), var(2)
    assert SubspaceBasis._certified(1, 1, (x0, y0)) == SubspaceBasis(1, 1, (x0, y0))
    for n, degree, polys, message in (
        (2, 1, (x0,), "wrong number of variables"),
        (1, 2, (x0,), "wrong degree"),
        # the keys are checked as one set: a stray key in the last element alone
        (1, 1, (x0, y0, var(1) + x0 * y0), "wrong degree"),
        (1, 1, (x0, x0 - x0), "zero polynomial"),
    ):
        with pytest.raises(ValueError, match=message):
            SubspaceBasis._certified(n, degree, polys)


# ---------------------------------------------------------------------------
# The packed T0^2 certificate of the spectrum suite.
# ---------------------------------------------------------------------------


def t0sq_per_element_reference(polys, lam):
    """The per-element check the packed certificate replaced: T0^2 p = -lam p for each p."""
    return all((t0_apply(t0_apply(p)) + lam * p).is_zero() for p in polys)


def t0sq_per_entry_reference(entries, degree):
    """The packing the fragment packing replaced: one per (lam, polys) entry.

    z = sum_i B^i num(p_i) over the entry's elements alone, with
    B = 1 + max_i (d^2 + |lam|) |num p_i|_1, and (T0^2 + lam) z = 0.
    """
    for lam, polys in entries:
        if not polys:
            continue
        base = 1 + max((degree * degree + abs(lam)) * sum(map(abs, p._terms.values())) for p in polys)
        terms, scale = {}, 1
        for p in polys:
            for k, v in p._terms.items():
                terms[k] = terms.get(k, 0) + scale * v
            scale *= base
        z = Polynomial._wrap(polys[0].num_vars, {k: v for k, v in terms.items() if v})
        if not (t0_apply(t0_apply(z)) + lam * z).is_zero():
            return False
    return True


def _entries(fragment):
    """The certificate's input: (lambda, eigenbasis elements) of each entry."""
    return [(e.t0sq_eigenvalue, e.eigenbasis.polys) for e in fragment.entries]


@lru_cache(maxsize=None)
def _perfbench_range_fragments():
    """(degree, entries) of every fragment over (1, <=6), (2, <=5), (3, <=4)."""
    return tuple(
        (ell, tuple(_entries(spectrum_fragment(n, ell))))
        for n, ell_max in ((1, 6), (2, 5), (3, 4))
        for ell in range(1, ell_max + 1)
    )


def test_t0sq_certificate_accepts_every_fragment_entry():
    for ell, entries in _perfbench_range_fragments():
        assert _t0sq_certificate(entries, ell)
        assert t0sq_per_entry_reference(entries, ell)
        assert all(t0sq_per_element_reference(polys, lam) for lam, polys in entries)


@settings(max_examples=12, deadline=None)
@given(st.data())
def test_t0sq_certificate_agrees_with_per_element_reference(data):
    # one planted fault per fragment, in any of its entries: a numerator
    # moved by a nonzero integer in the first, the last or a random
    # element, the lambdas of two entries swapped, or a lambda shifted by 1
    for ell, entries in _perfbench_range_fragments():
        entries = list(entries)
        e = data.draw(st.integers(0, len(entries) - 1))
        lam, polys = entries[e]
        faults = ("first", "last", "random", "lambda") + (("swap",) if len(entries) > 1 else ())
        where = data.draw(st.sampled_from(faults))
        if where == "lambda":
            entries[e] = (lam + 1, polys)
        elif where == "swap":
            f = data.draw(st.integers(0, len(entries) - 1).filter(lambda f: f != e))
            entries[e], entries[f] = (entries[f][0], polys), (lam, entries[f][1])
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
            entries[e] = (lam, polys[:i] + (planted,) + polys[i + 1 :])
        want = all(t0sq_per_element_reference(polys, lam) for lam, polys in entries)
        assert t0sq_per_entry_reference(entries, ell) == want
        assert _t0sq_certificate(entries, ell) == want


def test_t0sq_certificate_explicit_cases():
    x0, x1, y0 = var(0), var(1), var(2)
    # B = M + 1, not M: with B = M = 1 the two would pack to z = 0
    for entries in ([(0, [x0, -x0])], [(0, [x0]), (0, [-x0])]):
        assert not _t0sq_certificate(entries, 1)
        assert not t0sq_per_entry_reference(entries, 1)
    assert not t0sq_per_element_reference([x0, -x0], 0)
    # numerators only: the denominator of 3 changes nothing
    third = Fraction(1, 3) * (x0 * x0 + y0 * y0)  # (x1^2 + y1^2) / 3, T0-invariant
    assert third._den == 3
    assert not _t0sq_certificate([(0, [x0 * x1, third])], 2)
    assert _t0sq_certificate([(0, [third, x0 * var(3) - x1 * y0])], 2)
    assert not _t0sq_certificate([(4, [third])], 2)
    assert _t0sq_certificate([], 3)
    assert _t0sq_certificate([(9, [])], 3)
    # digit i carries its own lambda: T0^2 (x1^2 - y1^2) = -4 (x1^2 - y1^2)
    squares = x0 * x0 - y0 * y0
    assert _t0sq_certificate([(0, [third]), (4, [squares])], 2)
    assert not _t0sq_certificate([(4, [third]), (0, [squares])], 2)
    # B is the max over all entries: the first entry's B = 9 would let
    # 9 c_1 + 81 c_2 cancel, as T0^2 x1 x2 = 2 (y1 y2 - x1 x2) gives c_1 = -9 c_2
    carried = [(0, [third]), (0, [9 * x0 * x1, -x0 * x1])]
    assert not _t0sq_certificate(carried, 2)
    assert not t0sq_per_entry_reference(carried, 2)


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

    entries = _entries(spectrum_fragment(2, 3))
    for name in ("_bigraded_harmonics", "_complex_monomial_terms", "bigraded_block", "null_space"):
        monkeypatch.setattr(S, name, forbidden)
    assert _t0sq_certificate(entries, 3)
    assert not _t0sq_certificate([(entries[-1][0], entries[0][1])], 3)


def test_fragment_expands_each_complex_monomial_once(monkeypatch):
    # one expansion per (a, b) of a block: the antisymmetric group of
    # p = q reads the symmetric group's, so (3, 4) makes 35 + 80 + 55
    want = spectrum_fragment(3, 4)
    calls = Counter()
    original = S._complex_monomial_terms

    def counting(n, a, b):
        calls[a, b] += 1
        return original(n, a, b)

    monkeypatch.setattr(S, "_complex_monomial_terms", counting)
    assert spectrum_fragment(3, 4) == want
    dims = [len(monomial_basis(4, d)) for d in range(5)]
    assert set(calls.values()) == {1}
    assert sum(calls.values()) == dims[4] * dims[0] + dims[3] * dims[1] + comb(dims[2] + 1, 2) == 170


@pytest.mark.parametrize("degree", [1, 2, 3])
def test_spectrum_suite_builds_each_fragment_once(monkeypatch, degree):
    # the kernel check reads the degree-2 fragment, which only a degree-1
    # run has to build for it alone; the points come in one draw per degree
    counts = Counter()

    def count(module, name):
        original = getattr(module, name)

        def counting(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, counting)

    for module, name in ((suites, "spectrum_fragment"), (S, "spectrum_fragment"), (suites, "random_point")):
        count(module, name)
    checks = run_suite(Config(suite="spectrum", n=1, degree=degree)).checks
    assert all(c.status for c in checks)
    assert counts["spectrum_fragment"] == max(degree, 2)
    assert counts["random_point"] == degree


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
