"""crsphere: a verification lab for pseudohermitian geometry on S^(2n+1).

Exact sublaplacian spectrum fragments via the circle action on harmonic
polynomials, pointwise verification of the horizontal Bochner-type
identity and its supporting commutation lemmas, two independent
integrations of sub-Riemannian geodesics (the adapted connection's
equation on the complex plane of the initial data, and the Hamiltonian
flow of the horizontal cometric in ambient coordinates, with no chart),
Carnot-Caratheodory distance estimation by shooting, the curvature-floor
eigenvalue bound, and the S^3 equality-case phenomenology.

Operations are deterministic functions of their inputs that share only
memoized exact data.  Most values are immutable, but `GeodesicTrace`,
`CotangentState` (an ambient unit position and covector) and
`CCDistanceResult` are mutable dataclasses.
"""

__version__ = "0.1.0"

from .polynomials import (  # noqa: F401
    Polynomial,
    SubspaceBasis,
    dim_homogeneous,
    euclidean_laplacian,
    harmonic_basis,
    monomial_basis,
    sphere_integral,
)
from .sphere import (  # noqa: F401
    HorizontalFrame,
    SpherePoint,
    TangentVector,
    complex_structure,
    contact_form,
    horizontal_frame,
    horizontal_project,
    levi_form,
    omega_form,
    reeb,
    s3_explicit_frame,
    s3_frame_coefficients,
    webster_metric,
)
from .spectrum import (  # noqa: F401
    SpectrumEntry,
    SpectrumFragment,
    kernel_t0sq_shift,
    reeb_kernel_eigenfunctions,
    spectrum_fragment,
    t0_apply,
)
from .calculus import (  # noqa: F401
    HessianBlock,
    ScalarField,
    VectorFieldPoly,
    bochner_residual,
    divergence,
    horizontal_gradient,
    lemma1_residual,
    lemma2_check,
    operator_l,
    reeb_derivative,
    ricci,
    sublaplacian_frame,
    sublaplacian_greenleaf,
    tanaka_webster_derivative,
    third_commutation_residual,
    tw_hessian,
)
from .geodesics import (  # noqa: F401
    CCDistanceResult,
    CotangentState,
    GeodesicState,
    GeodesicTrace,
    ShootingBudget,
    cc_distance,
    cotangent_lift,
    eigen_along_geodesic,
    exp_map,
    great_circle,
    integrate_connection_geodesic,
    integrate_hj_geodesic,
    reach_set_half_pi,
    riemannian_distance,
    s3_max_point,
    s3_profile_field,
)
from .bounds import (  # noqa: F401
    BoundReport,
    check_bound,
    estimate_k,
    lichnerowicz_bound,
)
from .suites import (  # noqa: F401
    Config,
    ConfigError,
    SuiteReport,
    canonical_payload_bytes,
    config_from_file,
    run_suite,
)
