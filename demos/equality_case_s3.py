#!/usr/bin/env python3
"""The eigenvalue bound and its equality case on the 3-sphere.

The curvature floor of the spheres is k = 2(n+1), so the bound
2nk/(2n-1) reads 8 on S^3 and the Reeb-kernel eigenvalue -8 attains it
exactly; on S^5 the bound is also 8 while the kernel eigenvalue -12
satisfies it strictly.  At equality the degree-2 kernel eigenfunctions
oscillate as alpha cos(2s) along every unit lengthy geodesic from a
maximum point, and at parameter pi/2 those geodesics sweep a circle of
degenerate critical points at the minimum value.
"""

import numpy as np

from crsphere import check_bound, eigen_along_geodesic, great_circle, tw_hessian
from crsphere.geodesics import GeodesicTrace, reach_set_half_pi, s3_max_point, s3_profile_field
from crsphere.sphere import horizontal_frame, random_point

# --- the bound on S^3 and S^5 -----------------------------------------
for n, degree_max in ((1, 3), (2, 2)):
    report = check_bound(n, degree_max, num_samples=100, seed=0)
    print(f"S^{2 * n + 1}: k_hat = {report.k_hat:.12g}, bound = {report.bound:.12g}")
    for e in report.entries:
        if e.reeb_kernel:
            word = "equality" if report.equality(e) else "strict"
            print(f"  kernel eigenvalue mu = {e.sublaplacian_eigenvalue} "
                  f"(degree {e.degree}, multiplicity {e.multiplicity}): {word}")
    others = sorted({e.sublaplacian_eigenvalue for e in report.entries if not e.reeb_kernel})
    print(f"  reported, not constrained: {others}")

# --- the cosine profile -------------------------------------------------
a, b = 0.3, 1.1
alpha = float(np.hypot(a, b))
f = s3_profile_field(a, b)
x0 = s3_max_point(a, b)
frame = horizontal_frame(x0)
svals = np.linspace(0.0, 2 * np.pi, 721)
pts = np.array([great_circle(x0, frame.vectors[0], s).coords for s in svals])
trace = GeodesicTrace(svals, pts, np.zeros_like(pts), np.zeros(svals.size))
amp, freq, resid = eigen_along_geodesic(f, trace)
print(f"\nprofile along a lengthy geodesic from the maximum of f (a={a}, b={b}):")
print(f"  fitted amplitude {amp:.12f} (alpha = {alpha:.12f})")
print(f"  fitted frequency {freq:.12f} (expected 2)")
print(f"  fit residual     {resid:.2e}")

# --- the proportional-Hessian identity ----------------------------------
rng = np.random.default_rng(2)
worst = 0.0
for _ in range(20):
    p = random_point(rng, 1)
    block = tw_hessian(f, p)
    worst = max(worst, float(np.max(np.abs(
        block.horizontal_block() + 4.0 * f.value(p) * np.eye(2)))))
print(f"\nmax |pi_H Hess f + 4 f G| over 20 random points: {worst:.2e}")

# --- the reach circle at pi/2 -------------------------------------------
samples = reach_set_half_pi(a, b, num_samples=12)
print("\npoints reached at parameter pi/2 (all on the target circle):")
for s in samples[:4]:
    print(f"  {np.array2string(s.point.coords, precision=5)}   "
          f"f = {s.f_value:+.6f}, |grad| = {s.grad_norm:.1e}, "
          f"set residual = {s.set_residual:.1e}")
print(f"  ... {len(samples)} samples, every value at -alpha = {-alpha:.6f}")
