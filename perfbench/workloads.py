"""The benchmark's workloads: fixed lists of `run_suite` configs.

Each workload is a list of config templates.  `calls(name, seed)` turns
the templates into concrete configs whose only random inputs (the
per-call `seed`, and `a`, `b` for the S^3 suite) are derived from the
workload seed, so the same seed always gives the same calls.  Why each
workload exists is recorded in NOTES.md next to this file.
"""

import random

WORKLOADS = {
    # Exact rational algebra: harmonic blocks, null spaces, T0 action.
    # Each bound call rebuilds the fragments its spectrum call built.
    "exact_spectrum": (
        {"suite": "spectrum", "n": 1, "degree": 6},
        {"suite": "bound", "n": 1, "degree_max": 6},
        {"suite": "spectrum", "n": 2, "degree": 5},
        {"suite": "bound", "n": 2, "degree_max": 5},
        {"suite": "spectrum", "n": 3, "degree": 4},
        {"suite": "bound", "n": 3, "degree_max": 4},
    ),
    # Fresh random fields: symbolic ScalarField builds (polynomial
    # multiply) and float Polynomial.evaluate, no large linear algebra.
    "field_identities": (
        {"suite": "lemmas", "n": 1, "trials": 40},
        {"suite": "bochner", "n": 2, "trials": 20},
    ),
    # RK4 integration of both geodesic routes and shooting; no exact
    # algebra beyond the tiny S^3 profile field.  A step of 2e-3 halves
    # the steps of every integration and keeps every check well inside
    # its tolerance.
    "geodesic_shooting": (
        {"suite": "geodesics", "n": 1, "hj_pairs": 1, "cc_pairs": 4, "step_size": 2e-3},
        {"suite": "geodesics", "n": 2, "hj_pairs": 1, "step_size": 2e-3},
        {"suite": "s3"},
        {"suite": "s3"},
    ),
}


def calls(name, seed):
    """Concrete config dicts for one pass of a workload."""
    rng = random.Random("%s/%d" % (name, seed))
    out = []
    for template in WORKLOADS[name]:
        cfg = dict(template, seed=rng.randrange(2**31))
        if cfg["suite"] == "s3":
            # Any (a, b) with b != 0 is a valid equality-case input.
            cfg["a"] = rng.uniform(-1.5, 1.5)
            cfg["b"] = rng.choice((-1.0, 1.0)) * rng.uniform(0.25, 1.5)
        out.append(cfg)
    return out


def warm_up():
    """Import the library and fill its module-level caches.

    The suites cache the harmonic bases of degree <= 3 that random
    fields are drawn from; drawing one field per dimension fills them.
    """
    import numpy as np
    from crsphere import suites

    rng = np.random.default_rng(0)
    for n in (1, 2, 3):
        suites.field_pool(rng, n, 1)
