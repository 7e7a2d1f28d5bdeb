#!/usr/bin/env python3
"""Sublaplacian spectrum fragments on S^3, S^5 and S^7.

Every number printed here is exact: eigenfunctions are harmonic
polynomials diagonalizing the squared Reeb derivation, and the
sublaplacian eigenvalue of the block with T0^2 = -lambda on degree-ell
harmonics is mu = lambda - ell(2n + ell).  S^7 is shown up to degree 6,
where the largest block has 400 complex monomials.
"""

import numpy as np

from crsphere import ScalarField, spectrum_fragment, sublaplacian_greenleaf
from crsphere.sphere import random_point

for n, ell_max in ((1, 3), (2, 3), (3, 6)):
    print(f"\n=== S^{2 * n + 1} (n = {n}) ===")
    for ell in range(1, ell_max + 1):
        frag = spectrum_fragment(n, ell)
        print(f"degree {ell}:")
        for entry in frag.entries:
            flag = "  <- Reeb kernel" if entry.reeb_kernel else ""
            print(
                f"  T0^2 eigenvalue {entry.t0sq_eigenvalue:>2}  ->  "
                f"mu = {entry.sublaplacian_eigenvalue:>4}   "
                f"multiplicity {entry.multiplicity}{flag}"
            )

# Cross-check one eigenfunction pointwise against the exact sublaplacian.
rng = np.random.default_rng(0)
frag = spectrum_fragment(1, 2)
entry = frag.kernel_entry()
f = ScalarField(entry.eigenbasis.polys[0], 1)
worst = 0.0
for _ in range(50):
    p = random_point(rng, 1)
    resid = abs(sublaplacian_greenleaf(f, p) - entry.sublaplacian_eigenvalue * f.value(p))
    worst = max(worst, resid)
print(f"\npointwise eigenvalue residual for a kernel eigenfunction: {worst:.2e}")
print("kernel eigenbasis at degree 2 (first element):", entry.eigenbasis.polys[0])
