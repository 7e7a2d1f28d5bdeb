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

Storage.  A `Polynomial` keeps integer numerators over one positive
common denominator, as FLINT's fmpq_poly does (Hart, flintlib.org);
the numerators and the denominator share no factor, so the form is
unique.  Each monomial is one packed int key holding 8 bits per
exponent, the first variable in the highest byte: a product of
monomials is the sum of their keys, and within one total degree keys
compare as their exponent tuples do.  An exponent above 255 is
rejected, never carried into the next variable.  `Polynomial.terms`
decodes keys to exponent tuples and numerators to Fractions on access.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from operator import index, or_

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
    if num_vars < 1:
        raise ValueError("monomials need at least one variable; got %d" % num_vars)
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


# ----------------------------------------------------------------------
# Packed monomial keys: one byte per exponent, variable 0 highest.
# ----------------------------------------------------------------------

MAX_EXPONENT = 255


def _exponent_error(e):
    return ValueError("exponent %d above %d" % (e, MAX_EXPONENT))


def _pack(exps):
    """Packed key of a sequence of nonnegative exponents; one above 255 raises."""
    top = max(exps, default=0)
    if top > MAX_EXPONENT:
        raise _exponent_error(top)
    return int.from_bytes(bytes(exps), "big")


def _unpack(key, num_vars):
    return tuple(key.to_bytes(num_vars, "big"))


def _key_degree(key, num_vars):
    return sum(key.to_bytes(num_vars, "big"))


def _exponent_shift(num_vars, i):
    """Bit offset of exponent i: key >> shift & MAX_EXPONENT reads it, 1 << shift is x_i."""
    return 8 * (num_vars - 1 - i)


def _check_sum_of_keys(a, b, num_vars):
    """Raise unless every key of a plus every key of b stays byte by byte.

    The bytes of the OR of a key set bound each exponent from above, so
    when the two ORs add without a carry out of any byte no sum can
    overflow; otherwise the exact per-variable maxima decide.
    """
    top_a, top_b = reduce(or_, a, 0), reduce(or_, b, 0)
    carries = (top_a + top_b) ^ top_a ^ top_b
    if not any(carries >> 8 * k & 1 for k in range(1, num_vars + 1)):
        return
    for i in range(num_vars):
        shift = _exponent_shift(num_vars, i)
        most = max((k >> shift & MAX_EXPONENT for k in a), default=0)
        most += max((k >> shift & MAX_EXPONENT for k in b), default=0)
        if most > MAX_EXPONENT:
            raise _exponent_error(most)


class _TermView(Mapping):
    """Read-only mapping exponent tuple -> Fraction over a polynomial's packed terms."""

    __slots__ = ("_poly",)

    def __init__(self, poly):
        self._poly = poly

    def __len__(self):
        return len(self._poly._terms)

    def __iter__(self):
        num_vars = self._poly.num_vars
        return (_unpack(k, num_vars) for k in self._poly._terms)

    def __getitem__(self, exps):
        poly = self._poly
        if (
            isinstance(exps, tuple)
            and len(exps) == poly.num_vars
            and all(0 <= e <= MAX_EXPONENT for e in exps)
        ):
            num = poly._terms.get(_pack(exps))
            if num:
                return Fraction(num, poly._den)
        raise KeyError(exps)

    def __repr__(self):
        return repr(dict(self.items()))


class Polynomial:
    """Sparse polynomial with exact rational coefficients.

    Stored as packed monomial key -> int numerator, over one positive
    denominator sharing no factor with the numerators.
    """

    __slots__ = ("num_vars", "_terms", "_den")

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
                clean[_pack(exps)] = c
        # The lcm of reduced denominators shares no factor with all numerators.
        den = math.lcm(*(c.denominator for c in clean.values()))
        self._terms = {k: c.numerator * (den // c.denominator) for k, c in clean.items()}
        self._den = den

    @classmethod
    def _wrap(cls, num_vars, terms, den=1):
        """Adopt nonzero int numerators over den > 0, dividing out their common factor."""
        if den != 1:
            g = math.gcd(den, *terms.values())
            if g != 1:
                den //= g
                terms = {k: v // g for k, v in terms.items()}
        out = cls.__new__(cls)
        out.num_vars = num_vars
        out._terms = terms
        out._den = den
        return out

    @property
    def terms(self):
        """Exponent tuple -> Fraction, decoded on access."""
        return _TermView(self)

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
        return not self._terms

    @property
    def degree(self):
        """Total degree; -1 for the zero polynomial."""
        return max((_key_degree(k, self.num_vars) for k in self._terms), default=-1)

    def homogeneous_components(self):
        """Split into degree -> Polynomial (degrees with terms only)."""
        parts = {}
        for k, v in self._terms.items():
            parts.setdefault(_key_degree(k, self.num_vars), {})[k] = v
        return {d: Polynomial._wrap(self.num_vars, t, self._den) for d, t in sorted(parts.items())}

    # ---- arithmetic ---------------------------------------------------

    def _check_compatible(self, other):
        if self.num_vars != other.num_vars:
            raise ValueError("mixed numbers of variables")

    def __add__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check_compatible(other)
        den = math.lcm(self._den, other._den)
        up, up_other = den // self._den, den // other._den
        if up == 1:
            terms = dict(self._terms)
        else:
            terms = {k: v * up for k, v in self._terms.items()}
        get = terms.get
        for k, v in other._terms.items():
            s = get(k, 0) + v * up_other
            if s:
                terms[k] = s
            else:
                del terms[k]
        return Polynomial._wrap(self.num_vars, terms, den)

    def __neg__(self):
        return Polynomial._wrap(self.num_vars, {k: -v for k, v in self._terms.items()}, self._den)

    def __sub__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, Polynomial):
            self._check_compatible(other)
            a, b = self._terms, other._terms
            _check_sum_of_keys(a, b, self.num_vars)
            den = self._den * other._den
            terms = {}
            get = terms.get
            b = list(b.items())
            for ka, va in a.items():
                for kb, vb in b:
                    k = ka + kb
                    s = get(k, 0) + va * vb
                    if s:
                        terms[k] = s
                    else:
                        del terms[k]
            return Polynomial._wrap(self.num_vars, terms, den)
        c = _as_fraction(other)
        if not c:
            return Polynomial(self.num_vars)
        num = c.numerator
        return Polynomial._wrap(
            self.num_vars, {k: v * num for k, v in self._terms.items()}, self._den * c.denominator
        )

    def __rmul__(self, other):
        return self.__mul__(other)

    def __pow__(self, k):
        if isinstance(k, bool):
            raise TypeError("a polynomial power needs an integer exponent, got %r" % (k,))
        k = index(k)  # floats and strings raise; numpy integers pass
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
            and self._den == other._den
            and self._terms == other._terms
        )

    __hash__ = None

    def __repr__(self):
        if not self._terms:
            return "Polynomial(0)"
        terms = self.terms
        bits = []
        for exps in sorted(terms, key=monomial_key, reverse=True)[:4]:
            bits.append("%s*q^%s" % (terms[exps], list(exps)))
        if len(terms) > 4:
            bits.append("...")
        return "Polynomial(%s)" % " + ".join(bits)

    # ---- calculus and evaluation --------------------------------------

    def partial(self, i):
        shift = _exponent_shift(self.num_vars, i)
        one = 1 << shift
        terms = {}
        for k, v in self._terms.items():
            e = k >> shift & MAX_EXPONENT
            if e:
                terms[k - one] = v * e
        return Polynomial._wrap(self.num_vars, terms, self._den)

    def gradient(self):
        return [self.partial(i) for i in range(self.num_vars)]

    def evaluate(self, point):
        """Float value at one point, or the values over the rows of a stack.

        A point is a sequence of num_vars numbers (or has `coords`) and
        gives a float; a (K, num_vars) stack gives a length-K array.
        The values are `evaluate_many`'s for this one polynomial.
        """
        values = evaluate_many((self,), point)
        return float(values[0]) if values.ndim == 1 else values.reshape(-1)

    def evaluate_exact(self, point):
        """Exact value at a point with rational coordinates.

        The coordinates go over one common denominator d, so a term of
        degree k is an integer over d^k; the integers are summed per
        degree in int arithmetic and divided once.
        """
        point = [_as_fraction(x) for x in point]
        if len(point) != self.num_vars:
            raise ValueError("dimension mismatch")
        d = math.lcm(*(x.denominator for x in point))
        nums = [x.numerator * (d // x.denominator) for x in point]
        by_degree = {}
        for k, v in self._terms.items():
            for e, a in zip(_unpack(k, self.num_vars), nums):
                if e:
                    v *= a**e
            deg = _key_degree(k, self.num_vars)
            by_degree[deg] = by_degree.get(deg, 0) + v
        top = max(by_degree, default=0)
        total = sum(v * d ** (top - deg) for deg, v in by_degree.items())
        return Fraction(total, d**top * self._den)


def _powers(xs, e):
    """x ** e for each float x, by the scalar float power; an overflow gives inf."""
    try:
        return [x**e for x in xs]
    except OverflowError:  # Python's float power raises where C's pow gives inf
        return [np.float64(x) ** e for x in xs]


def evaluate_many(polys, points):
    """Float values of polynomials in the same variables at one point or a stack.

    points is one point of num_vars numbers (or has `coords`) or a
    (K, num_vars) stack, as an array or nested lists; any other shape
    raises ValueError.  Returns a C-contiguous array of shape
    (len(polys),) for one point and (K, len(polys)) for a stack.

    Each term is its float coefficient num / den (correctly rounded, as
    float(Fraction) is) times its powers x ** e in variable order, each
    taken with the scalar float power, and the terms are summed from 0.0
    in storage order, so every value is bit for bit that sequential
    loop's at its point alone.  One power table per variable serves all
    the polynomials and rows, a zero exponent contributing an exact 1.0.
    The terms sit in one (K, P, T) array, each polynomial padded after
    its last term with zeros, which leave its sum as it is, and one
    sequential accumulate sums them.
    """
    polys = tuple(polys)
    if not polys:
        raise ValueError("no polynomials to evaluate")
    num_vars = polys[0].num_vars
    if any(p.num_vars != num_vars for p in polys):
        raise ValueError("mixed numbers of variables")
    rows = np.asarray(getattr(points, "coords", points), dtype=float)
    single = rows.ndim == 1
    if rows.ndim not in (1, 2):
        raise ValueError(
            "points of shape %s for a polynomial in %d variables: expected one point "
            "or a stack of rows" % (rows.shape, num_vars)
        )
    if rows.shape[-1] != num_vars:
        raise ValueError(
            "point of dimension %d for a polynomial in %d variables" % (rows.shape[-1], num_vars)
        )
    rows = rows[None] if single else rows
    size = max(len(p._terms) for p in polys)
    coefs = np.zeros((len(polys), size + 1))
    keys = bytearray(len(polys) * size * num_vars)  # zero exponents pad every polynomial
    for j, p in enumerate(polys):
        coefs[j, 1 : len(p._terms) + 1] = [v / p._den for v in p._terms.values()]
        packed = b"".join(k.to_bytes(num_vars, "big") for k in p._terms)
        at = j * size * num_vars
        keys[at : at + len(packed)] = packed
    exps = np.frombuffer(keys, dtype=np.uint8).reshape(len(polys), size, num_vars)
    values = np.empty((len(rows), len(polys), size + 1))
    values[:] = coefs
    with np.errstate(over="ignore", invalid="ignore"):  # as silent as float arithmetic
        for i in range(num_vars):
            col = exps[..., i]
            top = int(col.max(initial=0))
            if not top:
                continue
            table = np.empty((len(rows), top + 1))  # table[k, e] = x_ki ** e
            table[:, 0] = 1.0
            table[:, 1] = rows[:, i]
            xs = rows[:, i].tolist()
            for e in range(2, top + 1):
                table[:, e] = _powers(xs, e)
            values[..., 1:] *= table[:, col]
        sums = np.add.accumulate(values, axis=2)[..., -1]
    return np.ascontiguousarray(sums[0] if single else sums)


def euclidean_laplacian(p):
    """Flat Laplacian; drops the degree by two, exactly.

    Applied term by term: x^e goes to sum_i e_i (e_i - 1) x^(e - 2 1_i).
    Terms are accumulated variable by variable, in the order a sum of
    the second partials would produce them.
    """
    terms = {}
    get = terms.get
    for i in range(p.num_vars):
        shift = _exponent_shift(p.num_vars, i)
        two = 2 << shift
        for k, v in p._terms.items():
            e = k >> shift & MAX_EXPONENT
            if e < 2:
                continue
            key = k - two
            s = get(key, 0) + v * (e * (e - 1))
            if s:
                terms[key] = s
            else:
                del terms[key]
    return Polynomial._wrap(p.num_vars, terms, p._den)


# ----------------------------------------------------------------------
# Exact linear algebra: fraction-free elimination on sparse integer rows.
# ----------------------------------------------------------------------


def _divide_content(row):
    """Divide a sparse integer row by the gcd of its entries, in place."""
    g = math.gcd(*row.values())
    if g > 1:
        for k in row:
            row[k] //= g


def _column_index(rows, ncols):
    """Copies of the nonempty rows, content divided out, and the column -> row ids map.

    Raises ValueError for a key outside range(ncols) and for an entry
    that is zero or not an int.
    """
    work = []
    cols = {}
    for r in rows:
        if not r:
            continue
        i = len(work)
        for k, v in r.items():
            if type(k) is not int or not 0 <= k < ncols:
                raise ValueError(f"column {k!r} outside range({ncols})")
            if type(v) is not int or not v:
                raise ValueError(f"entry {v!r} in column {k} is not a nonzero int")
            cols.setdefault(k, set()).add(i)
        row = dict(r)
        _divide_content(row)
        work.append(row)
    return work, cols


def rref(rows, ncols):
    """Fraction-free Gauss-Jordan elimination of a sparse integer matrix.

    Rows are dicts column -> nonzero int, keys in range(ncols); any
    other row raises ValueError, and the input is left as it was.  A
    pivot row P with entry d in its column c clears that column from
    every other row R, whose entry there is e, as R <- (d/g) R - (e/g) P
    with g = gcd(d, e); each row is then divided by the gcd of its
    entries, so only small ints occur.  The pivot of column c is the
    fewest-entry waiting row that holds c, the earliest input row on a
    tie.  Returns the (pivot column, row) pairs in column order.
    The pivot columns are those of the rational reduced row echelon
    form, and each row, divided by its pivot entry, is that form's row:
    it is zero left of its pivot and in every other pivot column.

    A map from each column to the ids of the rows, waiting or reduced,
    that hold it is kept beside the rows and updated on every fill-in
    and cancellation, so a column step visits only the rows holding
    that column: the work grows with the entries and their fill-in, not
    with rows x columns (Davis, Direct Methods for Sparse Linear
    Systems, SIAM 2006, ch. 6).
    """
    work, cols = _column_index(rows, ncols)
    waiting = [True] * len(work)
    done = []  # (pivot column, row)
    # Fill-in only enters columns of a pivot row, all later than its
    # pivot and already in the map, so the map gains no column.
    for c in sorted(cols):
        holders = cols.pop(c)
        p = min((i for i in holders if waiting[i]), key=lambda i: (len(work[i]), i), default=None)
        if p is None:
            continue
        waiting[p] = False
        prow = work[p]
        d = prow[c]
        rest = [(k, v) for k, v in prow.items() if k != c]
        for i in holders:
            if i == p:
                continue
            r = work[i]
            e = r.pop(c)
            g = math.gcd(d, e)
            keep, take = d // g, e // g
            if keep != 1:
                for k in r:
                    r[k] *= keep
            for k, v in rest:
                s = r.get(k)
                if s is None:
                    r[k] = -take * v
                    cols[k].add(i)
                    continue
                s -= take * v
                if s:
                    r[k] = s
                else:
                    del r[k]
                    cols[k].discard(i)
            if r:
                _divide_content(r)
        done.append((c, prow))
    return done


def null_space(rows, ncols):
    """Kernel of a sparse integer matrix, read off its `rref`.

    Rows are dicts column -> nonzero int, keys in range(ncols); any
    other row raises ValueError.  There is one vector per free
    (non-pivot) column, in column order: a dict column -> int with
    coprime entries, keys ascending, positive at its free column, which
    is its largest key.  It is the positive multiple of the rational
    kernel vector with a 1 in that free column and 0 in the others.
    One pass over the reduced rows maps each free column to the
    (pivot column, row) pairs that hold it, in column order, so each
    vector is read from that map rather than from a scan of every row.
    """
    done = rref(rows, ncols)
    pivot_cols = {c for c, _ in done}
    held = {}
    for c, r in done:
        for k in r:
            if k != c:
                held.setdefault(k, []).append((c, r))
    basis = []
    for free in range(ncols):
        if free in pivot_cols:
            continue
        hits = held.get(free, ())
        scale = math.lcm(1, *(r[c] for c, r in hits))
        vec = {free: scale}
        for c, r in hits:
            vec[c] = -r[free] * scale // r[c]
        g = math.gcd(*vec.values())
        basis.append({k: vec[k] // g for k in sorted(vec)})
    return basis


def _stacked_columns(polys):
    """Sparse integer rows, one per monomial, of the matrix with column j = polys[j].

    Column j holds the numerators of polys[j], its coefficients times
    its own denominator: a positive scale per column, so the kernel
    vectors are the integer relations among the polynomials up to that
    scale, and the kernel is empty exactly when they are independent.
    """
    by_monomial = {}
    for col, p in enumerate(polys):
        for k, v in p._terms.items():
            by_monomial.setdefault(k, {})[col] = v
    return list(by_monomial.values())


# ----------------------------------------------------------------------
# Subspaces of a fixed homogeneous degree.
# ----------------------------------------------------------------------


def _of_degree(keys, num_vars, degree):
    """True when every packed key in num_vars variables has the total degree."""
    return all(sum(k.to_bytes(num_vars, "big")) == degree for k in keys)


@dataclass(frozen=True)
class SubspaceBasis:
    """Independent list of homogeneous polynomials of one degree.

    Every term of every element must have total degree `degree`; a
    polynomial with a term of any other degree is rejected.  A basis in
    echelon form, with distinct leading monomials, is independent by
    inspection.  Within one degree packed keys compare as exponent
    tuples, so an element's largest key is its leading monomial and the
    largest keys are distinct exactly when the leading monomials are.
    Any other basis is independent exactly when the integer kernel of
    its stacked columns (`_stacked_columns`) is empty, which one
    fraction-free elimination decides on every input.

    `spectrum_fragment` alone builds its bases with `_certified`, which
    skips only the elimination: each is the injective image of kernel
    vectors in echelon form, a lemma of `spectrum._bigraded_harmonics`.
    """

    n: int
    degree: int
    polys: tuple

    def __post_init__(self):
        self._check_elements()
        leading = {max(p._terms) for p in self.polys}
        if len(leading) == len(self.polys):
            return  # echelon form: independent by inspection
        if null_space(_stacked_columns(self.polys), len(self.polys)):
            raise ValueError("basis is not linearly independent")

    @classmethod
    def _certified(cls, n, degree, polys):
        """The basis after the element checks only: its builder has proved it independent."""
        basis = object.__new__(cls)
        vars(basis).update(n=n, degree=degree, polys=polys)
        basis._check_elements()
        return basis

    def _check_elements(self):
        num_vars = 2 * self.n + 2
        if any(p.num_vars != num_vars for p in self.polys):
            raise ValueError("basis element in the wrong number of variables")
        if not _of_degree(set().union(*(p._terms for p in self.polys)), num_vars, self.degree):
            raise ValueError("basis element with a term of the wrong degree")
        if any(p.is_zero() for p in self.polys):
            raise ValueError("zero polynomial in a basis")

    def __len__(self):
        return len(self.polys)

    def contains(self, poly):
        """Exact membership of a polynomial in the span.

        The elements are independent (checked on construction), so the
        stacked integer rows of the elements and the target have rank
        len(self) exactly when the target lies in the span, that is when
        the transposed matrix, one column per row, has a kernel vector.
        One fraction-free elimination decides it.
        """
        if poly.is_zero():
            return True
        num_vars = 2 * self.n + 2
        if poly.num_vars != num_vars or not _of_degree(poly._terms, num_vars, self.degree):
            return False
        stacked = (*self.polys, poly)
        return bool(null_space(_stacked_columns(stacked), len(stacked)))


def _harmonic_span(block, degree):
    """Exact basis of the harmonic polynomials inside the span of a block.

    The block is a list of polynomials of one degree.  Each output is
    the combination of the block given by one kernel vector of the
    Laplacian images, scaled to 1 at its free column, with its terms in
    the order the block sums them.
    """
    if degree < 2 or not block:
        return list(block)
    num_vars = block[0].num_vars
    images = [euclidean_laplacian(p) for p in block]
    out = []
    for vec in null_space(_stacked_columns(images), len(block)):
        # Column j holds image j times its own denominator, so block[j]
        # enters with weight vec[j] * images[j]._den; dividing by the free
        # column's weight, and by block[j]._den to act on its numerators,
        # puts everything over one common denominator.
        free = max(vec)
        common = math.lcm(*(block[j]._den for j in vec))
        den = vec[free] * images[free]._den * common
        terms = {}
        get = terms.get
        for j, c in vec.items():
            p = block[j]
            scale = c * images[j]._den * (common // p._den)
            for k, v in p._terms.items():
                s = get(k, 0) + scale * v
                if s:
                    terms[k] = s
                else:
                    del terms[k]
        out.append(Polynomial._wrap(num_vars, terms, den))
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


def sphere_integral(p):
    """Average of the polynomial over the unit sphere, exact.

    Normalized (probability) measure; a monomial with any odd exponent
    averages to zero.  An even monomial prod u_i^(2 b_i) averages to
    prod (2 b_i - 1)!! / (m (m+2) ... (m + 2|b| - 2)) with m = num_vars
    (the Gaussian trick); its denominator depends on |b| only, so the
    numerators are summed per |b| in integers.
    """
    num_vars = p.num_vars
    odd = sum(1 << 8 * k for k in range(num_vars))
    by_half_degree = {}
    for k, v in p._terms.items():
        if k & odd:
            continue
        halves = (k >> 1).to_bytes(num_vars, "big")  # every exponent even: b_i per byte
        for b in halves:
            v *= math.prod(range(1, 2 * b, 2))
        t = sum(halves)
        by_half_degree[t] = by_half_degree.get(t, 0) + v
    total = Fraction(0)
    for t, v in by_half_degree.items():
        total += Fraction(v, math.prod(num_vars + 2 * k for k in range(t)))
    return total / p._den
