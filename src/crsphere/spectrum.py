"""Reeb rotation on polynomial spaces and sublaplacian spectrum fragments.

The generator T0 = sum_j (x^j d/dy^j - y^j d/dx^j) of the circle action
acts on homogeneous polynomials.  Writing a complex monomial z^a zbar^b
(|a| = d+, |b| = d-), T0 multiplies it by i(d+ - d-), so T0^2 acts as
-(d+ - d-)^2 on the bigraded block.  The integer candidates
lambda = (ell - 2j)^2 therefore exhaust the spectrum of -T0^2 on P_ell,
and every kernel below is computed exactly over the rationals.

A harmonic eigenvector of T0^2 with T0^2 H = -lambda H restricts to an
eigenfunction of the sublaplacian with eigenvalue
mu = lambda - ell (2n + ell), by the difference formula between the
sphere Laplacian and T^2.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .polynomials import (
    Polynomial,
    SubspaceBasis,
    _coefficient_rows,
    _harmonic_span,
    _monomial_index,
    dim_homogeneous,
    mat_mul,
    monomial_basis,
    null_space,
)


def t0_apply(p):
    """The Reeb derivation on a polynomial in 2n+2 variables.

    Applied term by term: x^j d/dy^j moves one power from y^j to x^j
    and y^j d/dx^j one from x^j to y^j.  Terms are accumulated in the
    order that sum_j (x^j d/dy^j p - y^j d/dx^j p) would produce them,
    so float evaluations of the result sum in that order too.
    """
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
    return Polynomial._wrap(p.num_vars, terms)


def reeb_derivation_matrix(n, ell):
    """Exact matrix of T0 on the grlex monomial basis of P_ell.

    Returns (rows, monomials); entry [r][c] is the coefficient of
    monomial r in T0 applied to monomial c.
    """
    num_vars = 2 * n + 2
    mons, index = _monomial_index(num_vars, ell)
    cols = _coefficient_rows([t0_apply(Polynomial.monomial(num_vars, m)) for m in mons], index)
    rows = [list(r) for r in zip(*cols)]
    return rows, mons


def kernel_t0sq_shift(n, ell, lam):
    """Exact basis of Ker(T0^2 + lam I) inside P_ell (brute force route)."""
    lam = Fraction(lam)
    rows, mons = reeb_derivation_matrix(n, ell)
    sq = mat_mul(rows, rows)
    for i in range(len(sq)):
        sq[i][i] += lam
    num_vars = 2 * n + 2
    polys = (Polynomial(num_vars, dict(zip(mons, vec))) for vec in null_space(sq, len(mons)))
    return SubspaceBasis(n, ell, tuple(polys))


# ----------------------------------------------------------------------
# Structured route: bigraded complex monomial blocks.
# ----------------------------------------------------------------------


def _complex_monomial(n, a, b):
    """Real and imaginary parts of z^a zbar^b as exact real polynomials."""
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
    mons_minus = monomial_basis(n + 1, d_minus)
    diagonal = d_plus == d_minus
    out = []
    for i, a in enumerate(monomial_basis(n + 1, d_plus)):
        for j, b in enumerate(mons_minus):
            if diagonal and j < i:
                continue
            out.extend(p for p in _complex_monomial(n, a, b) if not p.is_zero())
    return out


def structured_t0sq_kernel(n, ell, lam):
    """Ker(T0^2 + lam I) in P_ell assembled from bigraded blocks."""
    lam = Fraction(lam)
    out = []
    for j in range(ell // 2 + 1):
        k = ell - 2 * j  # d+ - d-
        if Fraction(k * k) != lam:
            continue
        d_minus = j
        d_plus = ell - j
        out.extend(bigraded_block(n, d_plus, d_minus))
    return out


# ----------------------------------------------------------------------
# Spectrum fragments.
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class SpectrumEntry:
    """One T0^2 eigenvalue on harmonics of a fixed degree."""

    t0sq_eigenvalue: int          # lambda >= 0, meaning T0^2 H = -lambda H
    multiplicity: int
    sublaplacian_eigenvalue: int  # mu = lambda - ell (2n + ell)
    reeb_kernel: bool
    eigenbasis: SubspaceBasis

    def __post_init__(self):
        if self.multiplicity != len(self.eigenbasis):
            raise ValueError("multiplicity does not match the basis size")
        if self.reeb_kernel != (self.t0sq_eigenvalue == 0):
            raise ValueError("reeb_kernel flag inconsistent with lambda")


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
        for e in self.entries:
            if e.sublaplacian_eigenvalue != e.t0sq_eigenvalue - ell * (2 * n + ell):
                raise ValueError("mu = lambda - ell(2n+ell) violated")

    def eigenvalues(self):
        return [e.sublaplacian_eigenvalue for e in self.entries]

    def kernel_entry(self):
        for e in self.entries:
            if e.reeb_kernel:
                return e
        return None


def spectrum_fragment(n, ell):
    """All T0^2 eigenvalues on H_ell with exact eigenbases.

    Candidates lambda = (ell - 2j)^2 are tested in ascending order of
    lambda; no other eigenvalue can occur.
    """
    if ell < 1:
        raise ValueError("degree must be >= 1")
    entries = []
    for j in range(ell // 2, -1, -1):
        lam = (ell - 2 * j) ** 2
        harmonic = _harmonic_span(structured_t0sq_kernel(n, ell, lam), ell)
        if not harmonic:
            continue
        basis = SubspaceBasis(n, ell, tuple(harmonic))
        entries.append(
            SpectrumEntry(
                t0sq_eigenvalue=lam,
                multiplicity=len(basis),
                sublaplacian_eigenvalue=lam - ell * (2 * n + ell),
                reeb_kernel=(lam == 0),
                eigenbasis=basis,
            )
        )
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
    fragment = spectrum_fragment(n, 2)
    entry = fragment.kernel_entry()
    if entry is None:
        raise RuntimeError("degree-2 Reeb kernel missing")  # unreachable
    return entry.eigenbasis
