"""Exact polynomial arithmetic in several real variables.

Everything in this module is exact: coefficients are rational numbers
and every operator (partial derivatives, the flat Laplacian, averages
over the unit sphere) keeps them rational.  Floating point enters only
when a polynomial is evaluated at a numeric point.  That is what makes
the eigenvalue and kernel computations downstream exact instead of
tolerance-based.

Monomials are exponent tuples.  Within a fixed total degree they are
ordered by descending exponent tuple (graded lexicographic order); the
order is fixed once so matrices, bases and reports are reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np


def _as_fraction(c):
    if isinstance(c, float):
        raise TypeError("exact coefficients only; got a float (%r)" % c)
    return Fraction(c)


def monomial_key(exps):
    """Sort key: graded lexicographic, bigger first within a degree."""
    return (sum(exps), exps)


def monomial_basis(num_vars, degree):
    """All exponent tuples of the given total degree, grlex order."""
    if degree < 0:
        return []
    if num_vars == 1:
        return [(degree,)]
    out = []
    for head in range(degree, -1, -1):
        for tail in monomial_basis(num_vars - 1, degree - head):
            out.append((head,) + tail)
    return out


def dim_homogeneous(num_vars, degree):
    """Dimension of the space of homogeneous polynomials of one degree."""
    if degree < 0:
        return 0
    return math.comb(degree + num_vars - 1, num_vars - 1)


class Polynomial:
    """Sparse polynomial with exact rational coefficients."""

    __slots__ = ("num_vars", "terms")

    def __init__(self, num_vars, terms=None):
        self.num_vars = int(num_vars)
        clean = {}
        if terms:
            for exps, c in terms.items():
                c = _as_fraction(c)
                if not c:
                    continue
                exps = tuple(int(e) for e in exps)
                if len(exps) != self.num_vars:
                    raise ValueError("exponent tuple of wrong length")
                if any(e < 0 for e in exps):
                    raise ValueError("negative exponent")
                clean[exps] = c
        self.terms = clean

    @classmethod
    def _wrap(cls, num_vars, terms):
        """Adopt a dict of nonzero Fraction terms without re-validating it."""
        out = cls.__new__(cls)
        out.num_vars = num_vars
        out.terms = terms
        return out

    # ---- constructors -------------------------------------------------

    @classmethod
    def constant(cls, num_vars, c):
        return cls(num_vars, {(0,) * num_vars: c})

    @classmethod
    def variable(cls, num_vars, i):
        exps = [0] * num_vars
        exps[i] = 1
        return cls(num_vars, {tuple(exps): 1})

    @classmethod
    def monomial(cls, num_vars, exps, c=1):
        return cls(num_vars, {tuple(exps): c})

    # ---- structure ----------------------------------------------------

    def is_zero(self):
        return not self.terms

    @property
    def degree(self):
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def homogeneous_components(self):
        """Split into degree -> Polynomial (degrees with terms only)."""
        parts = {}
        for exps, c in self.terms.items():
            parts.setdefault(sum(exps), {})[exps] = c
        return {d: Polynomial(self.num_vars, t) for d, t in sorted(parts.items())}

    def leading_monomial(self):
        if not self.terms:
            return None
        return max(self.terms, key=monomial_key)

    # ---- arithmetic ---------------------------------------------------

    def _check_compatible(self, other):
        if self.num_vars != other.num_vars:
            raise ValueError("mixed numbers of variables")

    def __add__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check_compatible(other)
        terms = dict(self.terms)
        for exps, c in other.terms.items():
            s = terms.get(exps, 0) + c
            if s:
                terms[exps] = s
            else:
                terms.pop(exps, None)
        return Polynomial._wrap(self.num_vars, terms)

    def __neg__(self):
        return Polynomial._wrap(self.num_vars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, Polynomial):
            self._check_compatible(other)
            terms = {}
            for ea, ca in self.terms.items():
                for eb, cb in other.terms.items():
                    e = tuple(x + y for x, y in zip(ea, eb))
                    s = terms.get(e, 0) + ca * cb
                    if s:
                        terms[e] = s
                    else:
                        terms.pop(e, None)
            return Polynomial._wrap(self.num_vars, terms)
        c = _as_fraction(other)
        if not c:
            return Polynomial(self.num_vars)
        return Polynomial._wrap(self.num_vars, {e: c * v for e, v in self.terms.items()})

    def __rmul__(self, other):
        return self.__mul__(other)

    def __pow__(self, k):
        k = int(k)
        if k < 0:
            raise ValueError("negative power")
        out = Polynomial.constant(self.num_vars, 1)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base if k > 1 else base
            k >>= 1
        return out

    def __eq__(self, other):
        return (
            isinstance(other, Polynomial)
            and self.num_vars == other.num_vars
            and self.terms == other.terms
        )

    __hash__ = None

    def __repr__(self):
        if not self.terms:
            return "Polynomial(0)"
        bits = []
        for exps in sorted(self.terms, key=monomial_key, reverse=True)[:4]:
            bits.append("%s*q^%s" % (self.terms[exps], list(exps)))
        if len(self.terms) > 4:
            bits.append("...")
        return "Polynomial(%s)" % " + ".join(bits)

    # ---- calculus and evaluation --------------------------------------

    def partial(self, i):
        terms = {}
        for exps, c in self.terms.items():
            e = exps[i]
            if e == 0:
                continue
            terms[exps[:i] + (e - 1,) + exps[i + 1 :]] = c * e
        return Polynomial._wrap(self.num_vars, terms)

    def gradient(self):
        return [self.partial(i) for i in range(self.num_vars)]

    def evaluate(self, point):
        """Float value at a numeric point (array-like of length num_vars)."""
        point = getattr(point, "coords", point)
        if len(point) != self.num_vars:
            raise ValueError(
                "point of dimension %d for a polynomial in %d variables"
                % (len(point), self.num_vars)
            )
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
        """Exact value at a point with rational coordinates."""
        point = [_as_fraction(x) for x in point]
        if len(point) != self.num_vars:
            raise ValueError("dimension mismatch")
        total = Fraction(0)
        for exps, c in self.terms.items():
            m = c
            for e, x in zip(exps, point):
                if e:
                    m *= x**e
            total += m
        return total


def euclidean_laplacian(p):
    """Flat Laplacian; drops the degree by two, exactly.

    Applied term by term: x^e goes to sum_i e_i (e_i - 1) x^(e - 2 1_i).
    Terms are accumulated variable by variable, in the order a sum of
    the second partials would produce them.
    """
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
    return Polynomial._wrap(p.num_vars, terms)


# ----------------------------------------------------------------------
# Exact rational linear algebra (desk scale).
# ----------------------------------------------------------------------


def rref(rows):
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


def matrix_rank(rows):
    return len(rref([list(r) for r in rows]))


# A prime below 2^31: a product of two residues fits in an int64.
CERTIFICATE_PRIME = 2_147_483_647


def _rank_mod_p(a):
    """Rank over GF(CERTIFICATE_PRIME) of an int64 matrix of residues.

    Each pivot updates only the rows below it with a nonzero entry in
    its column, and only from that column on: every other row would
    subtract zero, and every row below the pivot is already zero to its
    left.  The elimination is the dense one, entry for entry.
    """
    p = CERTIFICATE_PRIME
    a = a[:, a.any(axis=0)]
    rank = 0
    for c in range(a.shape[1]):
        nonzero = rank + np.flatnonzero(a[rank:, c])
        if not nonzero.size:
            continue
        # The row swapped down into the pivot's place is zero in column c.
        pivot, below = nonzero[0], nonzero[1:]
        a[[rank, pivot]] = a[[pivot, rank]]
        a[rank, c:] = a[rank, c:] * pow(int(a[rank, c]), p - 2, p) % p
        if below.size:
            block = a[below, c:]
            block -= block[:, :1] * a[rank, c:] % p
            a[below, c:] = block % p
        rank += 1
        if rank == a.shape[0]:
            break
    return rank


def null_space(rows, ncols):
    """Basis of the kernel of the matrix, echelon-reduced, exact.

    Each basis vector has a 1 in one free column and the compensating
    pivot entries; vectors are ordered by their free column.
    """
    work = [list(r) for r in rows]
    pivots = rref(work)
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


def _divide_content(row):
    """Divide a sparse integer row by the gcd of its entries, in place."""
    g = math.gcd(*row.values())
    if g > 1:
        for k in row:
            row[k] //= g


def _integer_null_space(rows, ncols):
    """Kernel of a sparse integer matrix by fraction-free Gauss-Jordan.

    Rows are dicts column -> nonzero int.  A pivot row P with entry d in
    its column c clears that column from every other row R, whose entry
    there is e, as R <- (d/g) R - (e/g) P with g = gcd(d, e); each row
    is then divided by the gcd of its entries, so only small ints occur.
    The pivot columns are those of the rational RREF, so vector k is the
    positive multiple of `null_space`'s vector k with coprime integer
    entries: a dict column -> int, positive at its free column.
    """
    work = [dict(r) for r in rows if r]
    for r in work:
        _divide_content(r)
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
                _divide_content(r)
        work = [r for r in work if r]
        done.append((c, prow))
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


def mat_mul(a, b):
    if not a or not b:
        return []
    bt = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a]


# ----------------------------------------------------------------------
# Subspaces of a fixed homogeneous degree.
# ----------------------------------------------------------------------


def _monomial_index(num_vars, degree):
    mons = monomial_basis(num_vars, degree)
    return mons, {m: i for i, m in enumerate(mons)}


def _coefficient_rows(polys, index):
    """Dense coefficient row of each polynomial over a monomial -> column map."""
    rows = []
    for p in polys:
        row = [Fraction(0)] * len(index)
        for exps, c in p.terms.items():
            row[index[exps]] = c
        rows.append(row)
    return rows


def _full_rank_mod_p(polys, num_vars, degree):
    """True when the coefficient rows are independent modulo a prime p.

    Each row is scaled by the lcm of its own denominators, which keeps
    the rank, and reduced mod p.  A nonzero r x r minor mod p is a
    nonzero integer minor, so True proves independence over Q; False
    proves nothing, because p may divide every full-size minor.
    """
    _, index = _monomial_index(num_vars, degree)
    a = np.zeros((len(polys), len(index)), dtype=np.int64)
    for r, poly in enumerate(polys):
        den = math.lcm(*(c.denominator for c in poly.terms.values()))
        for exps, c in poly.terms.items():
            a[r, index[exps]] = c.numerator * (den // c.denominator) % CERTIFICATE_PRIME
    return _rank_mod_p(a) == len(polys)


@dataclass(frozen=True)
class SubspaceBasis:
    """Independent list of homogeneous polynomials of one degree.

    Every term of every element must have total degree `degree`; a
    polynomial with a term of any other degree is rejected.
    """

    n: int
    degree: int
    polys: tuple

    def __post_init__(self):
        num_vars = 2 * self.n + 2
        for p in self.polys:
            if p.num_vars != num_vars:
                raise ValueError("basis element in the wrong number of variables")
            if any(sum(exps) != self.degree for exps in p.terms):
                raise ValueError("basis element with a term of the wrong degree")
        if any(p.is_zero() for p in self.polys):
            raise ValueError("zero polynomial in a basis")
        leading = [p.leading_monomial() for p in self.polys]
        if len(set(leading)) == len(leading):
            return  # echelon form: independent by inspection
        if _full_rank_mod_p(self.polys, num_vars, self.degree):
            return
        # Rank deficient mod p: only the exact rank can decide.
        rows, _ = self.coefficient_matrix()
        if matrix_rank(rows) != len(self.polys):
            raise ValueError("basis is not linearly independent")

    def __len__(self):
        return len(self.polys)

    def coefficient_matrix(self):
        """Rows = basis elements, columns = grlex monomials of the degree."""
        mons, index = _monomial_index(2 * self.n + 2, self.degree)
        return _coefficient_rows(self.polys, index), mons

    def contains(self, poly):
        """Exact membership of a polynomial in the span."""
        if poly.is_zero():
            return True
        _, index = _monomial_index(2 * self.n + 2, self.degree)
        if any(exps not in index for exps in poly.terms):
            return False
        rows = _coefficient_rows(self.polys, index)
        target = _coefficient_rows([poly], index)
        return matrix_rank(rows + target) == matrix_rank(rows)


def _harmonic_span(block, degree):
    """Exact basis of the harmonic polynomials inside the span of a block.

    The block is a list of polynomials of one degree.  Each output is
    the combination of the block given by one null-space vector of the
    Laplacian images, with its terms in the order the block sums them.
    """
    if degree < 2 or not block:
        return list(block)
    num_vars = block[0].num_vars
    _, index = _monomial_index(num_vars, degree - 2)
    images = _coefficient_rows([euclidean_laplacian(p) for p in block], index)
    # Row per target monomial, column per block element.
    rows = list(zip(*images))
    out = []
    for combo in null_space(rows, len(block)):
        terms = {}
        for coeff, p in zip(combo, block):
            if not coeff:
                continue
            for exps, c in p.terms.items():
                s = terms.get(exps, 0) + coeff * c
                if s:
                    terms[exps] = s
                else:
                    terms.pop(exps, None)
        out.append(Polynomial._wrap(num_vars, terms))
    return out


def harmonic_basis(n, degree):
    """Exact basis of harmonic homogeneous polynomials of one degree.

    Kernel of the flat Laplacian inside P_degree on R^(2n+2); the
    dimension is dim P_degree - dim P_(degree-2).
    """
    num_vars = 2 * n + 2
    block = [Polynomial.monomial(num_vars, m) for m in monomial_basis(num_vars, degree)]
    return SubspaceBasis(n, degree, tuple(_harmonic_span(block, degree)))


# ----------------------------------------------------------------------
# Exact integration over the unit sphere (normalized measure).
# ----------------------------------------------------------------------


def _even_monomial_average(num_vars, exps):
    # E[prod u_i^(2 b_i)] over the unit sphere, via the Gaussian trick:
    # prod (2 b_i - 1)!! / (m (m+2) ... (m + 2|b| - 2)).
    halves = [e // 2 for e in exps]
    total = sum(halves)
    num = 1
    for b in halves:
        num *= math.prod(range(1, 2 * b, 2))
    den = 1
    for k in range(total):
        den *= num_vars + 2 * k
    return Fraction(num, den)


def sphere_integral(p):
    """Average of the polynomial over the unit sphere, exact.

    Normalized (probability) measure; a monomial with any odd exponent
    averages to zero, even monomials have a rational closed form.
    """
    total = Fraction(0)
    for exps, c in p.terms.items():
        if any(e % 2 for e in exps):
            continue
        total += c * _even_monomial_average(p.num_vars, exps)
    return total
