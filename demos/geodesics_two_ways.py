#!/usr/bin/env python3
"""Sub-Riemannian geodesics two ways, plus distance estimation.

The same curve is produced by (a) the second-order equation of the
adapted connection and (b) the Hamilton-Jacobi flow of the horizontal
cometric, both in ambient coordinates, matched through the cotangent
lift with Reeb component b.  A closed two-frequency form provides the
oracle, and the Carnot-Caratheodory distance comes from solving its
endpoint equation alpha(b, t) = <x, y>.
"""

import os

import numpy as np

from crsphere import (
    GeodesicState,
    cc_distance,
    cotangent_lift,
    great_circle,
    integrate_connection_geodesic,
    integrate_hj_geodesic,
    riemannian_distance,
)
from crsphere.geodesics import closed_form_geodesic, great_circle_points
from crsphere.sphere import SpherePoint, TangentVector, random_horizontal, random_point, times_i

rng = np.random.default_rng(4)
p = random_point(rng, 1)
v = random_horizontal(rng, p)

# --- the two integrators against each other and against the oracle ----
b = 0.8
conn = integrate_connection_geodesic(GeodesicState(p, v, b), 2.0, 1e-3)
hj = integrate_hj_geodesic(cotangent_lift(p, v, b), 2.0, 1e-3)
pts, _ = closed_form_geodesic(p, v.vec, b, conn.s)

print("b = 0.8 over parameter length 2.0, step 1e-3:")
print("  connection vs Hamilton-Jacobi: %.2e"
      % np.max(np.linalg.norm(conn.points - hj.points, axis=1)))
print("  connection vs closed form:     %.2e"
      % np.max(np.linalg.norm(conn.points - pts, axis=1)))
print("  lengthiness violation:         %.2e" % conn.max_lengthiness_violation)
print("  speed drift:                   %.2e" % conn.max_speed_drift)
sp = hj.speed
print("  Hamiltonian drift:             %.2e" % np.max(np.abs(0.5 * sp**2 - 0.5 * sp[0] ** 2)))

# --- the Hamilton-Jacobi route has no chart: a polar great circle --------
# From e1 toward e4 the b = 0 geodesic is the great circle through +-e4,
# the poles of the two stereographic charts the route once switched between.
start = SpherePoint(np.array([1.0, 0.0, 0.0, 0.0]), 1)
toward_pole = TangentVector(start, np.array([0.0, 0.0, 0.0, 1.0]), horizontal=True)
polar = integrate_hj_geodesic(cotangent_lift(start, toward_pole, 0.0), 2 * np.pi, 1e-3)
circle = great_circle_points(start, toward_pole, polar.s)
print("\npolar great circle, Hamilton-Jacobi route over [0, 2 pi], step 1e-3:")
print("  passes both old chart poles: %s"
      % (polar.points[:, -1].max() > 1 - 1e-6 and polar.points[:, -1].min() < -1 + 1e-6))
print("  gap to great_circle:         %.2e" % np.max(np.linalg.norm(polar.points - circle, axis=1)))
print("  max ||q| - 1|:               %.2e"
      % np.max(np.abs(np.linalg.norm(polar.points, axis=1) - 1.0)))

# --- distance estimation ----------------------------------------------
print("\nCarnot-Caratheodory distance estimates on S^3:")
y_arc = great_circle(p, v, 1.1)
res = cc_distance(p, y_arc)
print("  along a horizontal great circle, arc 1.1:  estimate %.6f" % res.estimate)

y_fiber = SpherePoint(times_i(p.coords), 1)
res = cc_distance(p, y_fiber)
print("  to the i-rotated point:  estimate %.6f  (analytic %.6f)"
      % (res.estimate, np.pi * np.sqrt(3) / 2))

for _ in range(3):
    y = random_point(rng, 1)
    res = cc_distance(p, y)
    print("  random pair: d = %.4f <= rho_hat = %.4f  (gap %.1e, b* = %+.2f)"
          % (riemannian_distance(p, y), res.estimate, res.endpoint_gap, res.b))

# --- trace export -------------------------------------------------------
out = os.path.join(os.getcwd(), "connection_trace.csv")
conn.to_csv(out)
print("\nwrote", out)
