"""Reeb rotation on polynomial spaces and sublaplacian spectrum fragments.

The generator T0 = sum_j (x^j d/dy^j - y^j d/dx^j) of the circle action
acts on homogeneous polynomials.  On a complex monomial z^a zbar^b
(z_j = x_j + i y_j, |a| = p, |b| = q) it multiplies by i(p - q), so
T0^2 acts as -(p - q)^2 on the bigraded block P_{p,q}.  The integer
candidates lambda = (ell - 2j)^2 therefore exhaust the spectrum of
-T0^2 on P_ell.

The flat Laplacian maps P_{p,q} to P_{p-1,q-1} by an integer matrix with
at most n+1 entries per column, so the harmonics split into the pieces
H_{p,q} (Folland, Trans. AMS 171, 1972).  `spectrum_fragment` takes the
integer kernel of that matrix for each (p, q) and reads a real basis off
its real and imaginary parts; everything stays exact, and the basis is
independent by the echelon lemma of `_bigraded_harmonics`, with no
second elimination.  Every kernel in
this module, as in `polynomials`, comes from the one fraction-free
elimination `polynomials.null_space` (Bareiss, Math. Comp. 22, 1968).
The real-monomial routes (`kernel_t0sq_shift` by brute force on
q T0^2 + p I, `structured_t0sq_kernel` from real bigraded blocks) are
kept as independent oracles: they differ from the complex route in
basis and matrix, not in the elimination.

A harmonic eigenvector of T0^2 with T0^2 H = -lambda H restricts to an
eigenfunction of the sublaplacian with eigenvalue
mu = lambda - ell (2n + ell), by the difference formula between the
sphere Laplacian and T^2; for H in H_{p,q} this is -4pq - 2n(p + q).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from operator import index

from .polynomials import (
    MAX_EXPONENT,
    Polynomial,
    SubspaceBasis,
    _as_fraction,
    _exponent_error,
    _exponent_shift,
    _pack,
    _stacked_columns,
    dim_homogeneous,
    monomial_basis,
    null_space,
)
from .sphere import _is_positive_int


def t0_apply(p):
    """The Reeb derivation on a polynomial in 2n+2 variables.

    Applied term by term: x^j d/dy^j moves one power from y^j to x^j
    and y^j d/dx^j one from x^j to y^j, each move one key offset and one
    walk over p's terms; a power moved onto an exponent of 255 raises.
    Terms are accumulated in the order that sum_j (x^j d/dy^j p - y^j
    d/dx^j p) would produce them, so float evaluations sum in it too.
    """
    num_vars = p.num_vars
    if num_vars % 2:
        raise ValueError("T0 acts on 2n+2 variables; got %d" % num_vars)
    half = num_vars // 2
    terms = {}
    get = terms.get
    for j in range(half):
        for src, dst, sign in ((half + j, j, 1), (j, half + j, -1)):
            shift, dst_shift = _exponent_shift(num_vars, src), _exponent_shift(num_vars, dst)
            move = (1 << dst_shift) - (1 << shift)
            for k, v in p._terms.items():
                e = k >> shift & MAX_EXPONENT
                if e:
                    key = k + move
                    if not key >> dst_shift & MAX_EXPONENT:  # the destination byte wrapped to 0
                        raise _exponent_error(MAX_EXPONENT + 1)
                    s = get(key, 0) + sign * e * v
                    if s:
                        terms[key] = s
                    else:
                        del terms[key]
    return Polynomial._wrap(num_vars, terms, p._den)


def _t0sq_certificate(entries, degree):
    """True exactly when (T0^2 + lam) p = 0 for every p of every (lam, polys)
    entry of a fragment, each lam an integer: one packing per fragment.

    A Kronecker substitution (J. reine angew. Math. 92, 1882) packs the
    numerators of all entries into z = sum_i B^i num(p_i); digit i carries
    its own lam_i, added in place to T0^2 z.  For p of degree at most d,
    |T0 p|_1 <= d |p|_1: each term's moves carry its exponents, which sum
    to at most d.  So every coefficient of (T0^2 + lam_i) num(p_i) is an
    integer of magnitude at most M = max_i (d^2 + |lam_i|) |num p_i|_1 over
    all entries, and M < B = M + 1.  The sum at a monomial is sum_i B^i c_i
    with |c_i| < B; were it zero with some c_i nonzero, the lowest such c_j
    would be a multiple of B.
    """
    digits = [(lam, p) for lam, polys in entries for p in polys]
    if not digits:
        return True
    base = 1 + max((degree * degree + abs(lam)) * sum(map(abs, p._terms.values())) for lam, p in digits)
    z, scale = {}, 1
    for _, p in digits:
        for k, v in p._terms.items():
            z[k] = z.get(k, 0) + scale * v
        scale *= base
    z = t0_apply(Polynomial._wrap(p.num_vars, z))  # T0 z, freeing z; no packed value is 0
    terms, scale = t0_apply(z)._terms, 1  # T0^2 z, a fresh dict
    for lam, p in digits:
        c = lam * scale
        for k, v in p._terms.items():
            terms[k] = terms.get(k, 0) + c * v
        scale *= base
    return not any(terms.values())


def kernel_t0sq_shift(n, ell, lam):
    """Exact basis of Ker(T0^2 + lam I) inside P_ell (brute force route).

    With lam = p/q in lowest terms this is the integer kernel of
    q T0^2 + p I on the grlex monomials, each vector scaled to 1 at its
    free column.
    """
    lam = _as_fraction(lam)
    num_vars = 2 * n + 2
    keys = [_pack(m) for m in monomial_basis(num_vars, ell)]
    monos = [Polynomial._wrap(num_vars, {k: 1}) for k in keys]
    cols = [lam.denominator * t0_apply(t0_apply(m)) + lam.numerator * m for m in monos]
    polys = [
        Polynomial._wrap(num_vars, {keys[c]: v for c, v in vec.items()}, vec[max(vec)])
        for vec in null_space(_stacked_columns(cols), len(keys))
    ]
    return SubspaceBasis(n, ell, tuple(polys))


# ----------------------------------------------------------------------
# Structured route: bigraded complex monomial blocks.
# ----------------------------------------------------------------------


@lru_cache(maxsize=None)
def _gaussian_factor(a, b):
    """(x + iy)^a (x - iy)^b as ((k, re, im), ...): re + i im times x^(a+b-k) y^k.

    The binomial expansion is sum_{r,s} C(a,r) C(b,s) i^r (-i)^s, with
    i^r (-i)^s = i^(r + 3s), collected by the power k = r + s of y.
    """
    coeffs = {}
    for r in range(a + 1):
        for s in range(b + 1):
            c = math.comb(a, r) * math.comb(b, s)
            re, im = ((c, 0), (0, c), (-c, 0), (0, -c))[(r + 3 * s) % 4]
            old_re, old_im = coeffs.get(r + s, (0, 0))
            coeffs[r + s] = (old_re + re, old_im + im)
    return tuple((k, re, im) for k, (re, im) in sorted(coeffs.items()) if re or im)


def _complex_monomial_terms(n, a, b):
    """z^a zbar^b as a dict packed monomial key -> (re, im) integer pair.

    One multinomial expansion, made once per block: the product over j of
    the Gaussian-integer factors (x_j + i y_j)^(a_j) (x_j - i y_j)^(b_j)
    other than 1.  Distinct j touch distinct variables, so no two products
    land on the same monomial.  A factor's keys are shifted into x_j's and
    y_j's bytes; a_j + b_j > 255 raises.
    """
    half = n + 1
    num_vars = 2 * half
    out = {0: (1, 0)}
    for j in range(half):
        deg = a[j] + b[j]
        if not deg:
            continue
        if deg > MAX_EXPONENT:
            raise _exponent_error(deg)
        x_shift, y_shift = _exponent_shift(num_vars, j), _exponent_shift(num_vars, half + j)
        steps = [  # packed x_j^(deg - k) y_j^k with the factor's coefficient of it
            (((deg - k) << x_shift) + (k << y_shift), fre, fim)
            for k, fre, fim in _gaussian_factor(a[j], b[j])
        ]
        grown = {}
        for key, (re, im) in out.items():
            for step, fre, fim in steps:
                # a product of monomials is the sum of their packed keys
                grown[key + step] = (re * fre - im * fim, re * fim + im * fre)
        out = grown
    return out


def _complex_monomial(n, a, b):
    """Real and imaginary parts of z^a zbar^b as exact real polynomials."""
    terms = _complex_monomial_terms(n, a, b).items()
    return tuple(Polynomial._wrap(2 * n + 2, {k: z[part] for k, z in terms if z[part]}) for part in (0, 1))


def bigraded_block(n, d_plus, d_minus):
    """Real basis of the (d+, d-) block of complex monomials.

    T0^2 acts on the block as -(d+ - d-)^2.  For d+ > d- the block and
    its conjugate are carried jointly by the real and imaginary parts of
    each monomial; on the diagonal d+ = d- the block is Hermitian, so
    only pairs with b no earlier than a in grlex order are taken.  Zero
    parts, such as the imaginary part of z^a zbar^a, are dropped.
    """
    if d_plus < d_minus:
        raise ValueError("blocks are enumerated with d+ >= d-")
    mons_plus, mons_minus = monomial_basis(n + 1, d_plus), monomial_basis(n + 1, d_minus)
    return [
        p
        for i, a in enumerate(mons_plus)
        for b in (mons_plus[i:] if d_plus == d_minus else mons_minus)
        for p in _complex_monomial(n, a, b)
        if not p.is_zero()
    ]


def structured_t0sq_kernel(n, ell, lam):
    """Ker(T0^2 + lam I) in P_ell assembled from bigraded blocks."""
    lam = _as_fraction(lam)  # the block (ell - j, j) has lambda = (ell - 2j)^2
    return [p for j in range(ell // 2 + 1) if (ell - 2 * j) ** 2 == lam for p in bigraded_block(n, ell - j, j)]


# ----------------------------------------------------------------------
# Spectrum fragments.
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class SpectrumEntry:
    """One T0^2 eigenvalue on harmonics of one degree; the rest is read off lambda and the basis."""

    t0sq_eigenvalue: int  # lambda >= 0, meaning T0^2 H = -lambda H
    eigenbasis: SubspaceBasis

    @property
    def degree(self):
        return self.eigenbasis.degree

    @property
    def multiplicity(self):
        return len(self.eigenbasis)

    @property
    def reeb_kernel(self):
        return self.t0sq_eigenvalue == 0

    @property
    def sublaplacian_eigenvalue(self):
        ell = self.degree
        return self.t0sq_eigenvalue - ell * (2 * self.eigenbasis.n + ell)


@dataclass(frozen=True)
class SpectrumFragment:
    """Diagonalization of T0^2 on the harmonics of one degree."""

    n: int
    degree: int
    entries: tuple

    def __post_init__(self):
        ell, n = self.degree, self.n
        dim_h = dim_homogeneous(2 * n + 2, ell) - dim_homogeneous(2 * n + 2, ell - 2)
        if sum(e.multiplicity for e in self.entries) != dim_h:
            raise ValueError("multiplicities do not sum to dim H_ell")

    def eigenvalues(self):
        return [e.sublaplacian_eigenvalue for e in self.entries]

    def kernel_entry(self):
        for e in self.entries:
            if e.reeb_kernel:
                return e
        return None


def _echelon_kernel(kernel):
    """The kernel vectors, or ValueError unless each is positive at its own
    free column, its largest key, and no other vector holds that column:
    the pattern `null_space` returns.  Linear in the entries."""
    free = set(map(max, kernel))
    if len(free) != len(kernel) or any(
        vec[max(vec)] <= 0 or len(free.intersection(vec)) != 1 for vec in kernel
    ):
        raise ValueError("kernel vectors are not in echelon form")
    return kernel


def _bigraded_harmonics(n, p, q):
    """Real basis of the harmonics in H_{p,q} + H_{q,p}, for p >= q.

    In the basis z^a zbar^b (|a| = p, |b| = q) the flat Laplacian is the
    integer matrix Delta z^a zbar^b = 4 sum_j a_j b_j z^(a-e_j) zbar^(b-e_j)
    into the (p-1, q-1) block.  Its coefficients are real, so the real
    parts Re z^a zbar^b and the imaginary parts map by the same matrix,
    and an integer kernel vector h gives the harmonics Re h and Im h.
    For p > q these pairs span the real harmonics of both blocks.  For
    p = q conjugation swaps z^a zbar^b and z^b zbar^a and commutes with
    Delta, so the real span splits into the symmetric columns
    z^a zbar^b + z^b zbar^a = 2 Re z^a zbar^b (a no later than b in grlex
    order) and the antisymmetric ones i(z^a zbar^b - z^b zbar^a) =
    -2 Im z^a zbar^b (a strictly earlier); each has its own kernel.
    Removing e_j from a and b keeps their order, so the image pairs stay
    in the same half.

    Both groups read one expansion of each z^a zbar^b of the block.

    The output is independent, with no elimination to prove it.
    `_echelon_kernel` checks that each kernel vector is nonzero at its
    own free column and zero at every other vector's, so the vectors
    h_1, ..., h_m are independent by inspection, and stay so over C,
    since distinct z^a zbar^b are independent over C.  For p > q a real
    relation sum_k (s_k Re h_k + t_k Im h_k) = 0 splits by bidegree into
    sum_k (s_k - i t_k) h_k = 0 in P_{p,q} and its conjugate in P_{q,p},
    so every s_k and t_k is 0.  For p = q the two groups lie in the +1
    and -1 eigenspaces of conjugation, and within a group the columns
    z^a zbar^b +- z^b zbar^a have disjoint supports.
    """
    mons_p, mons_q = monomial_basis(n + 1, p), monomial_basis(n + 1, q)
    block = [(a, b) for i, a in enumerate(mons_p) for b in (mons_q if p > q else mons_p[i:])]
    expanded = {pair: _complex_monomial_terms(n, *pair) for pair in block}
    groups = [(block, (0, 1))] if p > q else [(block, (0,)), ([(a, b) for a, b in block if a != b], (1,))]
    num_vars = 2 * n + 2
    out = []
    for pairs, parts in groups:
        rows = {}
        for col, (a, b) in enumerate(pairs):
            for j in range(n + 1):
                if a[j] and b[j]:
                    image = (a[:j] + (a[j] - 1,) + a[j + 1 :], b[:j] + (b[j] - 1,) + b[j + 1 :])
                    rows.setdefault(image, {})[col] = 4 * a[j] * b[j]
        cols = [expanded[pair] for pair in pairs]
        for vec in _echelon_kernel(null_space(list(rows.values()), len(pairs))):
            for part in parts:
                terms = {}
                for col, c in vec.items():
                    for k, z in cols[col].items():
                        if z[part]:
                            terms[k] = terms.get(k, 0) + c * z[part]
                out.append(Polynomial._wrap(num_vars, {k: v for k, v in terms.items() if v}))
    return out


def spectrum_fragment(n, ell):
    """All T0^2 eigenvalues on H_ell with exact eigenbases.

    The eigenvalue lambda = (p - q)^2 collects H_{p,q} and H_{q,p} with
    p + q = ell, so no other eigenvalue can occur; entries come in
    ascending order of lambda.
    """
    if not _is_positive_int(n):
        raise ValueError("CR dimension must be a positive integer, got %r" % (n,))
    if not _is_positive_int(ell):
        raise ValueError("degree must be a positive integer, got %r" % (ell,))
    n, ell = index(n), index(ell)
    entries = []
    for q in range(ell // 2, -1, -1):
        p = ell - q
        # independent by the lemma of `_bigraded_harmonics`: no elimination
        basis = SubspaceBasis._certified(n, ell, tuple(_bigraded_harmonics(n, p, q)))
        entries.append(SpectrumEntry((p - q) ** 2, basis))
    return SpectrumFragment(n, ell, tuple(entries))


def reeb_kernel_eigenfunctions(n):
    """Exact basis of Ker(T0) inside the degree-2 harmonics.

    This is the space that feeds the eigenvalue bound: its elements are
    invariant under the circle action and restrict to sublaplacian
    eigenfunctions with eigenvalue -4(n+1).  It contains the classical
    family sum a_ij (x^i x^j + y^i y^j) with trace(a) = 0 and, in
    addition, the antisymmetric combinations x^i y^j - x^j y^i; the
    total dimension is (n+1)^2 - 1.
    """
    return spectrum_fragment(n, 2).kernel_entry().eigenbasis  # H_{1,1} has lambda = 0
