"""The eigenvalue bound pipeline.

Estimate the curvature floor k from samples of the Ricci quadratic form
(the torsion term vanishes identically on the spheres), form the bound
2nk/(2n-1), and compare it against the sublaplacian eigenvalues whose
eigenspace meets the kernel of the Reeb field.  Only those eigenvalues
are constrained; the others are reported but never asserted against.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .calculus import ricci
from .sphere import random_point
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
    """The lower-bound value 2nk/(2n-1) for -lambda."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if isinstance(k, (int, Fraction)) and not isinstance(k, bool):
        k = Fraction(k)
        if k <= 0:
            raise ValueError("k must be positive")
        return Fraction(2 * n, 2 * n - 1) * k
    k = float(k)
    if k <= 0:
        raise ValueError("k must be positive")
    return 2 * n * k / (2 * n - 1)


@dataclass(frozen=True)
class BoundEntry:
    degree: int
    t0sq_eigenvalue: int
    sublaplacian_eigenvalue: int
    multiplicity: int
    reeb_kernel: bool
    satisfies: bool | None  # asserted only for Reeb-kernel entries
    equality: bool


@dataclass(eq=False)
class BoundReport:
    n: int
    k_hat: float
    bound: float
    entries: list
    provenance: dict = field(default_factory=dict)
    samples: np.ndarray | None = field(default=None, repr=False)  # k_hat is their minimum

    def __post_init__(self):
        for e in self.entries:
            if e.reeb_kernel:
                expected = -e.sublaplacian_eigenvalue >= self.bound - BOUND_SLACK
                if e.satisfies != expected:
                    raise ValueError("bound flag inconsistent with the eigenvalue")
            elif e.satisfies is not None:
                raise ValueError("non-kernel entries are reported, not asserted")

    @property
    def all_kernel_entries_satisfy(self):
        return all(e.satisfies for e in self.entries if e.reeb_kernel)

    def kernel_entries(self):
        return [e for e in self.entries if e.reeb_kernel]


def check_bound(n, degree_max, num_samples=200, seed=0):
    """Assemble spectrum fragments and test the bound on kernel entries.

    Equality is flagged when -mu matches the bound to within 1e-12; on
    S^3 the degree-2 kernel eigenvalue -8 achieves it.
    """
    if degree_max > 6:
        raise ValueError("fragments are desk scale: degree_max <= 6")
    samples = estimate_k_samples(n, num_samples, seed)
    k_hat = float(np.min(samples))
    bound = lichnerowicz_bound(n, k_hat)
    entries = []
    for ell in range(1, degree_max + 1):
        fragment = spectrum_fragment(n, ell)
        for e in fragment.entries:
            mu = e.sublaplacian_eigenvalue
            if e.reeb_kernel:
                satisfies = -mu >= bound - BOUND_SLACK
            else:
                satisfies = None
            entries.append(
                BoundEntry(
                    degree=ell,
                    t0sq_eigenvalue=e.t0sq_eigenvalue,
                    sublaplacian_eigenvalue=mu,
                    multiplicity=e.multiplicity,
                    reeb_kernel=e.reeb_kernel,
                    satisfies=satisfies,
                    equality=abs(-mu - bound) <= EQUALITY_TOL,
                )
            )
    return BoundReport(
        n=n,
        k_hat=k_hat,
        bound=bound,
        entries=entries,
        provenance={
            "num_samples": num_samples,
            "seed": seed,
            "equality_tol": EQUALITY_TOL,
            "bound_slack": BOUND_SLACK,
        },
        samples=samples,
    )
