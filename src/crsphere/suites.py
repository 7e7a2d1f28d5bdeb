"""Verification suites, configuration and machine-readable reports.

A suite is a deterministic batch of checks: given the same config it
produces the same payload, byte for byte (wall-clock timing is carried
alongside the payload but excluded from the canonical serialization).
Each check records an identifier, a human-readable description, a topic
tag, pass/fail status, the worst residual seen, and `inputs`: the slice
of the config the check ran on, with a few summary values such as the
eigenvalues found.  Which sample gave the worst residual is not recorded.
"""

from __future__ import annotations

import dataclasses
import json
import math
import time
from dataclasses import dataclass, field, fields
from typing import get_type_hints

import numpy as np

from . import __version__
from . import bounds as B
from . import calculus as C
from . import geodesics as G
from .polynomials import Polynomial, harmonic_basis
from .sphere import horizontal_frame, random_horizontal, random_point
from .spectrum import _t0sq_certificate, reeb_kernel_eigenfunctions, spectrum_fragment

SUITES = ("spectrum", "bochner", "lemmas", "geodesics", "bound", "s3")


class ConfigError(ValueError):
    pass


@dataclass
class Config:
    """Flat key-value configuration with the documented defaults."""

    suite: str = "spectrum"
    n: int = 1
    degree: int = 3
    degree_max: int = 3
    trials: int = 100
    seed: int = 42
    tol: float = 1e-8
    tol_strict: float = 1e-9
    tol_fit: float = 1e-9
    tol_match: float = 1e-5
    tol_hamiltonian: float = 1e-7
    tol_contraction: float = 1e-6
    steps: int = 1000
    step_size: float = 1e-3
    a: float = 0.0
    b: float = 1.0
    hj_pairs: int = 20
    cc_pairs: int = 10
    reach_samples: int = 32

    def validate(self):
        for f in fields(self):
            value, kind = getattr(self, f.name), _FIELD_TYPES[f.name]
            if isinstance(value, bool) or not isinstance(value, (int, float) if kind is float else kind):
                raise ConfigError("%s must be of type %s, got %r" % (f.name, kind.__name__, value))
            if kind is float:
                setattr(self, f.name, float(value))  # 1 and 1.0 make one payload
                if not math.isfinite(value):
                    raise ConfigError("%s must be finite" % f.name)
            if f.name.startswith("tol") and value <= 0:
                raise ConfigError("%s must be positive" % f.name)
        if self.suite not in SUITES:
            raise ConfigError("unknown suite %r (one of %s)" % (self.suite, ", ".join(SUITES)))
        if not 1 <= self.n <= 3:
            raise ConfigError("n out of range [1, 3]: %r" % self.n)
        for name in ("degree", "degree_max"):
            if not 1 <= getattr(self, name) <= 6:
                raise ConfigError("%s out of range [1, 6]" % name)
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")
        for name in ("trials", "steps", "hj_pairs", "cc_pairs"):
            if getattr(self, name) < 1:
                raise ConfigError("%s must be >= 1" % name)
        if not 0 < self.step_size <= G.MAX_STEP:
            raise ConfigError("step_size must lie in (0, %g]" % G.MAX_STEP)
        if self.reach_samples < 4:
            raise ConfigError("reach_samples must be >= 4")
        if self.suite == "s3":
            if self.n != 1:
                raise ConfigError("the s3 suite requires n = 1")
            if self.b == 0.0:
                raise ConfigError("the s3 suite requires b != 0")
        return self

    def as_dict(self):
        return dataclasses.asdict(self)


_FIELD_TYPES = get_type_hints(Config)  # key -> int, float or str


def _coerce(name, raw, where):
    kind = _FIELD_TYPES[name]
    try:
        return kind(raw)
    except ValueError:
        raise ConfigError("%s%s: %r is not a valid %s" % (where, name, raw, kind.__name__)) from None


def config_from_file(path, overrides=None):
    """Parse `key = value` lines; unknown keys are rejected up front."""
    values = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError("%s:%d: expected 'key = value'" % (path, lineno))
            key, raw = (part.strip() for part in line.split("=", 1))
            if key not in _FIELD_TYPES:
                raise ConfigError("%s:%d: unknown key %r" % (path, lineno, key))
            values[key] = _coerce(key, raw, "%s:%d: " % (path, lineno))
    if overrides:
        for key, raw in overrides.items():
            if key not in _FIELD_TYPES:
                raise ConfigError("unknown key %r" % key)
            values[key] = _coerce(key, raw, "") if isinstance(raw, str) else raw
    return Config(**values)


def _worst(*values):
    """Largest residual, with any non-finite value sticky.

    The builtin max drops NaN (max(0.0, nan) == 0.0), which would let a
    NaN residual pass.  Here NaN wins, and an infinity of either sign
    gives +inf, so no tolerance comparison on the result can succeed.
    """
    if all(math.isfinite(v) for v in values):
        return max(values)
    return math.nan if any(math.isnan(v) for v in values) else math.inf


def _json_safe(value):
    """`value` with every non-finite float replaced by its string form.

    Strict JSON has no NaN or Infinity, so a poisoned residual is written
    as "nan", "inf" or "-inf"; finite numbers, strings and None pass as is.
    """
    if isinstance(value, float) and not math.isfinite(value):
        return str(value)
    if isinstance(value, dict):
        return {k: _json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    return value


@dataclass
class CheckResult:
    id: str
    description: str
    paper_ref: str
    status: bool
    residual: float | None = None
    inputs: dict = field(default_factory=dict)

    def as_dict(self):
        return {
            "id": self.id,
            "description": self.description,
            "paper_ref": self.paper_ref,
            "status": "pass" if self.status else "fail",
            "residual": _json_safe(self.residual),
            "inputs": _json_safe(self.inputs),
        }


@dataclass
class SuiteReport:
    name: str
    checks: list
    config: dict

    @property
    def passed(self):
        return all(c.status for c in self.checks)

    @property
    def max_residual(self):
        vals = [c.residual for c in self.checks if c.residual is not None]
        return _worst(*vals) if vals else None

    def as_dict(self):
        return {
            "name": self.name,
            "checks": [c.as_dict() for c in self.checks],
            "max_residual": _json_safe(self.max_residual),
            "passed": self.passed,
        }


# Fixed thresholds of the checks whose tolerance is not a config key;
# each compares an integration or a sample statistic with a closed form
# or an exact value.
TOL_CLOSED_FORM = 1e-6   # great circle, closed form, reparametrization, s3 exp-map excess
TOL_CONSERVATION = 1e-7  # lengthiness and speed drift along a b != 0 trace
TOL_EXACT_FLOAT = 1e-12  # variance of the curvature samples, s3 maximum value
TOL_K_VALUE = 1e-9       # curvature floor estimate against 2(n+1)


def _check(id, description, paper_ref, inputs, residual=None, tol=None, status=True):
    """The one constructor of a check result.

    With a tolerance the check passes when `residual < tol`, so a NaN
    residual fails through the comparison; `status` carries any further
    condition (or the whole verdict of a check without a residual).
    """
    passed = bool(status and (tol is None or residual < tol))
    return CheckResult(id, description, paper_ref, passed, residual, inputs)


# ----------------------------------------------------------------------
# Random scalar fields: integer combinations of harmonics.
# ----------------------------------------------------------------------

_BASIS_CACHE = {}


def _harmonics(n, degree):
    key = (n, degree)
    if key not in _BASIS_CACHE:
        _BASIS_CACHE[key] = harmonic_basis(n, degree)
    return _BASIS_CACHE[key]


def random_harmonic_field(rng, n, max_degree=3):
    """Exact integer combination of harmonics of degree <= max_degree."""
    m = 2 * n + 2
    poly = Polynomial(m)
    for degree in range(1, max_degree + 1):
        for p in _harmonics(n, degree).polys:
            c = int(rng.integers(-2, 3))
            if c:
                poly = poly + c * p
    if poly.is_zero():
        poly = Polynomial.variable(m, 0)
    return C.ScalarField(poly, n)


def field_pool(rng, n, count, max_degree=3):
    return [random_harmonic_field(rng, n, max_degree) for _ in range(count)]


# ----------------------------------------------------------------------
# Suites.
# ----------------------------------------------------------------------


def _expected_low_degree_eigenvalues(n, ell):
    """The sublaplacian eigenvalues on the degree-ell harmonics for ell <= 3, else None."""
    return {1: {-2 * n}, 2: {-4 * n, -4 * (n + 1)}, 3: {-6 * n - 8, -6 * n}}.get(ell)


def _suite_spectrum(cfg):
    checks = []
    rng = np.random.default_rng(cfg.seed)
    for ell in range(1, cfg.degree + 1):
        fragment = spectrum_fragment(cfg.n, ell)
        got = set(fragment.eigenvalues())
        expected = _expected_low_degree_eigenvalues(cfg.n, ell)
        if expected is not None:
            checks.append(_check(
                "spectrum.values.l%d" % ell,
                "degree-%d sublaplacian eigenvalues are exactly %s" % (ell, sorted(expected)),
                "sublaplacian spectrum fragment",
                {"n": cfg.n, "degree": ell, "found": sorted(got)}, status=got == expected))
        if ell == 2:  # H_{1,1}, what reeb_kernel_eigenfunctions builds
            kernel = fragment.kernel_entry().eigenbasis
        exact = _t0sq_certificate(
            [(e.t0sq_eigenvalue, e.eigenbasis.polys) for e in fragment.entries], ell)
        checks.append(_check(
            "spectrum.exact.l%d" % ell,
            "degree-%d eigenbases satisfy T0^2 = -lambda exactly" % ell,
            "circle action diagonalization", {"n": cfg.n, "degree": ell}, status=exact))
        worst = 0.0
        stacked, _ = random_point(rng, cfg.n, 20 * len(fragment.entries))  # 20 per entry
        for i, e in enumerate(fragment.entries):
            f = C.ScalarField(e.eigenbasis.polys[0], cfg.n)
            mu = e.sublaplacian_eigenvalue
            points = stacked[20 * i : 20 * i + 20]
            resid = np.abs(C.sublaplacian_greenleaf(f, points) - mu * f.value(points))
            worst = _worst(worst, *resid)
        checks.append(_check(
            "spectrum.pointwise.l%d" % ell,
            "degree-%d eigenfunctions solve the eigenvalue equation pointwise" % ell,
            "eigenfunction residual", {"n": cfg.n, "degree": ell, "points_per_entry": 20},
            worst, cfg.tol_strict))
    kernel = kernel if cfg.degree >= 2 else reeb_kernel_eigenfunctions(cfg.n)
    expected_dim = (cfg.n + 1) ** 2 - 1
    checks.append(_check(
        "spectrum.kernel.dim",
        "degree-2 Reeb kernel has dimension (n+1)^2 - 1 = %d" % expected_dim,
        "invariant spherical harmonics", {"n": cfg.n, "dimension": len(kernel)},
        status=len(kernel) == expected_dim))
    return checks


def _suite_bochner(cfg):
    rng = np.random.default_rng(cfg.seed)
    pool = field_pool(rng, cfg.n, max(4, cfg.trials // 10))
    points, _ = random_point(rng, cfg.n, cfg.trials)
    worst_bochner = worst_route = worst_trace = worst_cs = 0.0  # cs: largest deficit
    for k, f in enumerate(pool):
        # Point i goes with field i % len(pool).  One stacked jet over all
        # of f's points (frames, flat jets, T0 f, Hessian blocks) serves
        # every evaluator, each called once per field.
        mine = points[k::len(pool)]
        if not mine:
            continue
        jet = C.point_jet(f, mine)
        block = C.tw_hessian(f, jet)
        exact_val = C.sublaplacian_greenleaf(f, jet)
        worst_bochner = _worst(worst_bochner, *np.abs(C.bochner_residual(f, jet)))
        worst_route = _worst(worst_route, *np.abs(C.sublaplacian_frame(f, jet) - exact_val))
        worst_trace = _worst(worst_trace, *np.abs(block.horizontal_trace() - exact_val))
        slack = block.horizontal_norm_sq() - exact_val**2 / (2 * cfg.n)
        worst_cs = _worst(worst_cs, *-slack)
    inputs = {"n": cfg.n, "trials": cfg.trials}
    return [
        _check(
            "bochner.residual",
            "pointwise Bochner-type identity over %d random cases" % cfg.trials,
            "bochner identity", dict(inputs, seed=cfg.seed), worst_bochner, cfg.tol),
        _check(
            "bochner.route_agreement",
            "frame sublaplacian agrees with the difference-formula route",
            "frame vs difference route", inputs, worst_route, cfg.tol),
        _check(
            "bochner.hessian_trace", "horizontal Hessian trace reproduces the sublaplacian",
            "hessian trace", inputs, worst_trace, cfg.tol),
        _check(
            "bochner.cauchy_schwarz", "|pi_H Hess f|^2 >= (Delta_b f)^2 / 2n pointwise",
            "trace inequality", inputs, worst_cs, cfg.tol),
    ]


def _suite_lemmas(cfg):
    rng = np.random.default_rng(cfg.seed)
    pool = field_pool(rng, cfg.n, max(4, cfg.trials // 10))
    # trial i: a point and two horizontal vectors at it, one (trials, m) array per slot
    points, (xs, ys) = random_point(rng, cfg.n, cfg.trials, slots=2)
    worst1 = worst3 = worst_hess = 0.0
    for k, f in enumerate(pool):
        # Trial i goes with field i % len(pool); one stacked jet over all
        # of f's points serves the three checks.
        mine = slice(k, None, len(pool))
        if not points[mine]:
            continue
        jet = C.point_jet(f, points[mine])
        worst1 = _worst(worst1, *np.abs(C.lemma1_residual(f, jet)))
        third = C.third_commutation_residual(f, jet, xs[mine], ys[mine])
        worst3 = _worst(worst3, *np.abs(third))
        worst_hess = _worst(worst_hess, *C.tw_hessian(f, jet).antisymmetry_residual())
    inputs = {"n": cfg.n, "trials": cfg.trials}
    checks = [
        _check(
            "lemmas.divergence", "div(J grad_H f) = 2n T(f) over %d random cases" % cfg.trials,
            "divergence lemma", dict(inputs, seed=cfg.seed), worst1, cfg.tol_strict),
        _check(
            "lemmas.third_order",
            "torsion-free third-order exchange over %d random cases" % cfg.trials,
            "third-order exchange", inputs, worst3, cfg.tol),
        _check(
            "lemmas.hessian_exchange", "horizontal Hessian antisymmetry carried by T(f)",
            "hessian exchange", inputs, worst_hess, cfg.tol),
    ]

    fx1 = C.ScalarField(Polynomial.variable(2 * cfg.n + 2, 0), cfg.n)
    for name, what, f in (("x1", "the first coordinate field", fx1),
                          ("random", "a random harmonic combination", pool[0])):
        lhs, rhs = C.lemma2_check(f)
        checks.append(_check(
            "lemmas.integrated.%s" % name, "integrated L identity for %s (exact)" % what,
            "integrated L identity", {"n": cfg.n, "lhs": str(lhs), "rhs": str(rhs)},
            float(abs(lhs - rhs)), status=lhs == rhs))

    points, vecs = random_point(rng, cfg.n, cfg.trials, slots=3)
    worst = [_worst(0.0, *vals) for vals in C.connection_axiom_residuals(points, *vecs)]
    names = ("metric_compatibility", "j_parallel", "torsion_purity", "reeb_parallel")
    for name, w in zip(names, worst):
        checks.append(_check(
            "lemmas.connection.%s" % name, "connection axiom: %s" % name.replace("_", " "),
            "connection axioms", inputs, w, cfg.tol_strict))
    return checks


def _suite_geodesics(cfg):
    checks = []
    rng = np.random.default_rng(cfg.seed)
    n = cfg.n
    p = random_point(rng, n)
    v = random_horizontal(rng, p)

    trace = G.integrate_connection_geodesic(G.GeodesicState(p, v, 0.0), 2 * np.pi, cfg.step_size)
    gap = float(np.linalg.norm(trace.endpoint() - G.great_circle(p, v, 2 * np.pi).coords))
    checks.append(_check(
        "geodesics.great_circle", "b = 0 integration returns to the great-circle endpoint",
        "closed-form geodesic", {"n": n, "step_size": cfg.step_size, "s_max": "2*pi"},
        gap, TOL_CLOSED_FORM))

    s_max = cfg.steps * cfg.step_size
    trace_b = G.integrate_connection_geodesic(G.GeodesicState(p, v, 1.3), s_max, cfg.step_size)
    cons = _worst(trace_b.max_lengthiness_violation, trace_b.max_speed_drift)
    checks.append(_check(
        "geodesics.conservation", "lengthiness and speed preserved along a b != 0 trace",
        "lengthy geodesics", {"n": n, "b": 1.3, "s_max": s_max}, cons, TOL_CONSERVATION))

    pts, _ = G.closed_form_geodesic(p, v.vec, 1.3, trace_b.s)
    cf_gap = float(np.max(np.linalg.norm(trace_b.points - pts, axis=1)))
    checks.append(_check(
        "geodesics.closed_form",
        "integrated b != 0 trace matches the two-frequency closed form",
        "closed-form geodesic", {"n": n, "b": 1.3}, cf_gap, TOL_CLOSED_FORM))

    worst_match = worst_ham = 0.0
    b_cycle = (0.0, 1.0, -0.7, 0.4, 1.5)
    for i in range(cfg.hj_pairs):
        p_i = random_point(rng, n)
        v_i = random_horizontal(rng, p_i)
        b_i = b_cycle[i % len(b_cycle)]
        conn = G.integrate_connection_geodesic(G.GeodesicState(p_i, v_i, b_i), 1.0, cfg.step_size)
        hj = G.integrate_hj_geodesic(G.cotangent_lift(p_i, v_i, b_i), 1.0, cfg.step_size)
        gap_i = float(np.max(np.linalg.norm(conn.points - hj.points, axis=1)))
        worst_match = _worst(worst_match, gap_i)
        drift = float(np.max(np.abs(0.5 * hj.speed**2 - 0.5 * hj.speed[0] ** 2)))
        worst_ham = _worst(worst_ham, drift)
    checks.append(_check(
        "geodesics.hj_equivalence",
        "Hamilton-Jacobi and connection routes agree pointwise (%d initial conditions)"
        % cfg.hj_pairs,
        "geodesic equivalence", {"n": n, "pairs": cfg.hj_pairs, "b_values": list(b_cycle)},
        worst_match, cfg.tol_match))
    checks.append(_check(
        "geodesics.hamiltonian", "Hamiltonian conserved along the cotangent flow",
        "hamiltonian conservation", {"n": n, "pairs": cfg.hj_pairs},
        worst_ham, cfg.tol_hamiltonian))

    lift1 = G.cotangent_lift(p, v, 1.0)
    half = G.integrate_hj_geodesic(G.CotangentState(lift1.x, 2.0 * lift1.xi, n), 0.5, cfg.step_size)
    full = G.integrate_hj_geodesic(lift1, 1.0, cfg.step_size)
    rep_gap = float(np.linalg.norm(half.endpoint() - full.endpoint()))
    checks.append(_check(
        "geodesics.reparametrization", "doubling the covector halves the traversal time",
        "affine reparametrization", {"n": n}, rep_gap, TOL_CLOSED_FORM))

    if n == 1:
        budget = G.ShootingBudget()
        violations, hit = 0.0, 0
        for _ in range(cfg.cc_pairs):
            x, y = random_point(rng, 1), random_point(rng, 1)
            res = G.cc_distance(x, y, budget)
            if res.converged:
                hit += 1
                violations = _worst(violations, G.riemannian_distance(x, y) - res.estimate)
        checks.append(_check(
            "geodesics.contraction",
            "Webster distance never exceeds the sub-Riemannian estimate",
            "metric contraction",
            {"pairs": cfg.cc_pairs, "converged": hit,
             "b_span": budget.b_span, "t_max": budget.t_max},
            violations, cfg.tol_contraction, status=hit == cfg.cc_pairs))
    return checks


def _suite_bound(cfg):
    report = B.check_bound(cfg.n, cfg.degree_max, num_samples=max(50, cfg.trials), seed=cfg.seed)
    samples, k_hat = report.samples, report.k_hat
    expected_k = 2 * (cfg.n + 1)
    checks = [
        _check(
            "bound.k_constant", "curvature quadratic form is constant over samples",
            "ricci floor", {"n": cfg.n, "samples": len(samples)},
            float(np.var(samples)), TOL_EXACT_FLOAT),
        _check(
            "bound.k_value", "estimated floor equals 2(n+1) = %d" % expected_k,
            "ricci floor", {"n": cfg.n, "k_hat": k_hat}, abs(k_hat - expected_k), TOL_K_VALUE),
    ]
    kernel_entries = report.kernel_entries()
    checks.append(_check(
        "bound.kernel_satisfies", "every Reeb-kernel eigenvalue satisfies -mu >= 2nk/(2n-1)",
        "eigenvalue bound",
        {"n": cfg.n, "bound": report.bound,
         "kernel_eigenvalues": [e.sublaplacian_eigenvalue for e in kernel_entries],
         "non_kernel_eigenvalues": [
             e.sublaplacian_eigenvalue for e in report.entries if not e.reeb_kernel]},
        status=report.all_kernel_entries_satisfy and bool(kernel_entries)))
    if cfg.n == 1:
        eq = [e.sublaplacian_eigenvalue for e in kernel_entries if report.equality(e)]
        checks.append(_check(
            "bound.equality_case", "the degree-2 kernel eigenvalue -8 achieves equality",
            "equality case", {"equalities": eq}, status=eq == [-8]))
    return checks


def _suite_s3(cfg):
    checks = []
    rng = np.random.default_rng(cfg.seed)
    a, b = cfg.a, cfg.b
    alpha = float(np.hypot(a, b))
    f = G.s3_profile_field(a, b)
    x0 = G.s3_max_point(a, b)
    checks.append(_check(
        "s3.max_point", "constructed maximum point attains sup f = sqrt(a^2+b^2)",
        "constrained maximum", {"a": a, "b": b, "alpha": alpha},
        abs(f.value(x0) - alpha), TOL_EXACT_FLOAT))

    frame = horizontal_frame(x0)
    svals = np.linspace(0.0, 2 * np.pi, 721)
    worst_fit = 0.0
    fits = []
    for direction in frame.matrix():
        pts = G.great_circle_points(x0, direction, svals)
        trace = G.GeodesicTrace(svals, pts, np.zeros_like(pts), np.zeros(svals.size))
        amp, freq, resid = G.eigen_along_geodesic(f, trace)
        worst_fit = _worst(worst_fit, resid, abs(amp - alpha), abs(freq - 2.0))
        fits.append({"amplitude": amp, "frequency": freq, "residual": resid})
    checks.append(_check(
        "s3.cosine_profile", "f along unit lengthy geodesics from the maximum fits alpha cos(2s)",
        "cosine profile", {"a": a, "b": b, "fits": fits}, worst_fit, cfg.tol_fit))

    count = max(10, cfg.trials // 5)
    points, _ = random_point(rng, 1, count)
    jet = C.point_jet(f, points)
    gap = C.tw_hessian(f, jet).horizontal_block() + 4.0 * f.value(jet)[:, None, None] * np.eye(2)
    worst33 = _worst(0.0, *np.max(np.abs(gap), axis=(1, 2)))
    checks.append(_check(
        "s3.hessian_proportional",
        "pi_H Hess f + 4 f G vanishes pointwise for the kernel eigenfunction",
        "equality case", {"a": a, "b": b, "points": count}, worst33, cfg.tol))

    samples = G.reach_set_half_pi(a, b, cfg.reach_samples)
    worst_set = _worst(*(s.set_residual for s in samples))
    worst_val = _worst(*(abs(s.f_value + alpha) for s in samples))
    worst_grad = _worst(*(s.grad_norm for s in samples))
    worst_tt = _worst(*(abs(s.hess_tt) for s in samples))
    strict = _worst(worst_val, worst_grad, worst_tt) < cfg.tol_strict
    checks.append(_check(
        "s3.reach_set",
        "points reached at s = pi/2 lie on the target circle of degenerate critical points",
        "reach set",
        {"a": a, "b": b, "samples": cfg.reach_samples, "set_residual": worst_set,
         "value_residual": worst_val, "gradient_norm": worst_grad, "reeb_hessian": worst_tt},
        _worst(worst_set, worst_val, worst_grad, worst_tt),
        status=worst_set < cfg.tol and strict))

    reached = G.exp_map(x0, frame.matrix()[0] * (np.pi / 2))
    resid = G.reach_set_residual(reached.coords, a, b)
    budget = G.ShootingBudget()
    res_cc = G.cc_distance(x0, reached, budget)
    excess = res_cc.estimate - np.pi / 2
    checks.append(_check(
        "s3.exp_map",
        "exp at radius pi/2 lands on the reach set; distance estimate at most the radius",
        "exponential map",
        {"a": a, "b": b, "cc_estimate": res_cc.estimate,
         "b_span": budget.b_span, "t_max": budget.t_max},
        _worst(resid, excess),
        status=resid < cfg.tol and res_cc.converged and excess <= TOL_CLOSED_FORM))
    return checks


_SUITE_FUNCS = {
    "spectrum": _suite_spectrum,
    "bochner": _suite_bochner,
    "lemmas": _suite_lemmas,
    "geodesics": _suite_geodesics,
    "bound": _suite_bound,
    "s3": _suite_s3,
}


def run_suite(config):
    """Run one named suite; deterministic for a fixed config."""
    config.validate()
    checks = _SUITE_FUNCS[config.suite](config)
    return SuiteReport(name=config.suite, checks=checks, config=config.as_dict())


def build_payload(reports, config, elapsed_seconds):
    return {
        "tool_version": __version__,
        "config": config.as_dict(),
        "suites": [r.as_dict() for r in reports],
        "elapsed_seconds": elapsed_seconds,
    }


def canonical_payload_bytes(payload):
    """Canonical serialization used for determinism comparisons.

    Wall-clock timing is the one field that legitimately varies between
    identical runs, so it is dropped before serializing.  The output is
    strict JSON: a non-finite number is an error, not a bare NaN token.
    """
    clean = {k: v for k, v in payload.items() if k != "elapsed_seconds"}
    return json.dumps(clean, sort_keys=True, separators=(",", ":"), allow_nan=False).encode()


def run_and_report(config):
    """Run one suite and time it: (report, its payload); the CLI's path."""
    start = time.perf_counter()
    report = run_suite(config)
    elapsed = time.perf_counter() - start
    return report, build_payload([report], config, elapsed)
