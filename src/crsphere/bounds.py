"""The eigenvalue bound pipeline.

Estimate the curvature floor k from samples of the Ricci quadratic form
(the torsion term vanishes identically on the spheres), form the bound
2nk/(2n-1), and compare it against the sublaplacian eigenvalues whose
eigenspace meets the kernel of the Reeb field.  Only those eigenvalues
are constrained; the others are reported but never asserted against.
The report holds the exact fragments' own entries, eigenbases included.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from operator import index

import numpy as np

from .calculus import ricci
from .sphere import _is_positive_int, random_point
from .spectrum import spectrum_fragment

EQUALITY_TOL = 1e-12
BOUND_SLACK = 1e-9


def estimate_k_samples(n, num_samples=200, seed=0):
    """Samples of rho(X,X) + 2 A(X,JX) over random unit horizontal X.

    The spheres have no pseudohermitian torsion A, so each sample is
    the Ricci form rho(X,X) alone.  One stacked draw gives the points,
    each followed by its vector X in the stream, and one stacked `ricci`
    traces the curvature over all their frames at once; sample i is
    what random_point, random_horizontal and ricci give at point i of
    the same stream.
    """
    if num_samples < 1:
        raise ValueError("need at least one sample")
    points, (x,) = random_point(np.random.default_rng(seed), n, num_samples, slots=1)
    return ricci(points, x)


def estimate_k(n, num_samples=200, seed=0):
    """Minimum of the sampled curvature quadratic form.

    On the spheres the form is the constant 2(n+1) on unit vectors, so
    the sampled minimum is exact up to rounding.
    """
    return float(np.min(estimate_k_samples(n, num_samples, seed)))


def lichnerowicz_bound(n, k):
    """The lower-bound value 2nk/(2n-1) for -lambda; exact for an int or Fraction k."""
    if not _is_positive_int(n):
        raise ValueError("n must be a positive integer, got %r" % (n,))
    if isinstance(k, bool) or not k > 0:  # `not` so that NaN fails too
        raise ValueError("k must be a positive number, got %r" % (k,))
    if isinstance(k, (int, Fraction)):
        return Fraction(2 * n, 2 * n - 1) * k
    return 2 * n * float(k) / (2 * n - 1)


@dataclass(frozen=True, eq=False)
class BoundReport:
    """The fragments' own `SpectrumEntry` records, in degree order, and the curvature samples.

    The floor, the bound and every verdict are read off them, so no copy can disagree.
    """

    n: int
    samples: np.ndarray = field(repr=False)  # k_hat is their minimum
    entries: tuple

    @property
    def k_hat(self):
        return float(np.min(self.samples))

    @property
    def bound(self):
        return lichnerowicz_bound(self.n, self.k_hat)

    def satisfies(self, e):
        """-mu >= bound on a Reeb-kernel entry; None on the others, which are not asserted."""
        return -e.sublaplacian_eigenvalue >= self.bound - BOUND_SLACK if e.reeb_kernel else None

    def equality(self, e):
        return abs(-e.sublaplacian_eigenvalue - self.bound) <= EQUALITY_TOL

    @property
    def all_kernel_entries_satisfy(self):
        return all(self.satisfies(e) for e in self.kernel_entries())

    def kernel_entries(self):
        return [e for e in self.entries if e.reeb_kernel]


def check_bound(n, degree_max, num_samples=200, seed=0):
    """Draw the curvature samples once and gather the fragments of degree 1..degree_max.

    Equality means -mu within 1e-12 of the bound; on S^3 the degree-2
    kernel eigenvalue -8 achieves it.
    """
    if not (_is_positive_int(degree_max) and degree_max <= 6):
        raise ValueError("fragments are desk scale: 1 <= degree_max <= 6, got %r" % (degree_max,))
    if not _is_positive_int(n):
        raise ValueError("n must be a positive integer, got %r" % (n,))
    n = index(n)
    samples = estimate_k_samples(n, num_samples, seed)
    fragments = [spectrum_fragment(n, ell) for ell in range(1, degree_max + 1)]
    return BoundReport(n, samples, tuple(e for f in fragments for e in f.entries))
