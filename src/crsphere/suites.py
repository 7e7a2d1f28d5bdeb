"""Verification suites, configuration and machine-readable reports.

A suite is a deterministic batch of checks: given the same config it
produces the same payload, byte for byte (wall-clock timing is carried
alongside the payload but excluded from the canonical serialization).
Each check records an identifier, a human-readable description, a topic
tag, pass/fail status, the worst residual seen, and the inputs that
produced it.
"""

from __future__ import annotations

import dataclasses
import json
import math
import time
from dataclasses import dataclass, field, fields
from fractions import Fraction

import numpy as np

from . import __version__
from . import bounds as B
from . import calculus as C
from . import geodesics as G
from .polynomials import Polynomial, harmonic_basis
from .sphere import horizontal_frame, random_horizontal, random_point
from .spectrum import reeb_kernel_eigenfunctions, spectrum_fragment, t0_apply

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
    tol_equality: float = 1e-12
    tol_fit: float = 1e-9
    tol_match: float = 1e-5
    tol_hamiltonian: float = 1e-7
    tol_contraction: float = 1e-6
    tol_endpoint: float = 1e-5
    steps: int = 1000
    step_size: float = 1e-3
    a: float = 0.0
    b: float = 1.0
    hj_pairs: int = 20
    cc_pairs: int = 10
    reach_samples: int = 32

    def validate(self):
        if self.suite not in SUITES:
            raise ConfigError("unknown suite %r (one of %s)" % (self.suite, ", ".join(SUITES)))
        if not 1 <= self.n <= 3:
            raise ConfigError("n out of range [1, 3]: %r" % self.n)
        if not 1 <= self.degree <= 6:
            raise ConfigError("degree out of range [1, 6]")
        if not 1 <= self.degree_max <= 6:
            raise ConfigError("degree_max out of range [1, 6]")
        if self.trials < 1:
            raise ConfigError("trials must be >= 1")
        if not 0 < self.step_size <= 1e-2:
            raise ConfigError("step_size must lie in (0, 1e-2]")
        if self.steps < 1:
            raise ConfigError("steps must be >= 1")
        for name in (
            "tol", "tol_strict", "tol_equality", "tol_fit", "tol_match",
            "tol_hamiltonian", "tol_contraction", "tol_endpoint",
        ):
            if getattr(self, name) <= 0:
                raise ConfigError("%s must be positive" % name)
        if self.hj_pairs < 1 or self.cc_pairs < 1:
            raise ConfigError("pair counts must be >= 1")
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


_FIELD_TYPES = {f.name: f.type for f in fields(Config)}


def _coerce(name, raw):
    kind = _FIELD_TYPES[name]
    if kind == "int":
        return int(raw)
    if kind == "float":
        return float(raw)
    return str(raw)


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
            values[key] = _coerce(key, raw)
    if overrides:
        for key, raw in overrides.items():
            if key not in _FIELD_TYPES:
                raise ConfigError("unknown key %r" % key)
            values[key] = _coerce(key, raw) if isinstance(raw, str) else raw
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
            "residual": self.residual,
            "inputs": self.inputs,
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
            "max_residual": self.max_residual,
            "passed": self.passed,
        }


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
        basis = _harmonics(n, degree)
        for p in basis.polys:
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
    if ell == 1:
        return {-2 * n}
    if ell == 2:
        return {-4 * n, -4 * (n + 1)}
    if ell == 3:
        return {-6 * n - 8, -6 * n}
    return None


def _suite_spectrum(cfg):
    checks = []
    rng = np.random.default_rng(cfg.seed)
    for ell in range(1, cfg.degree + 1):
        fragment = spectrum_fragment(cfg.n, ell)
        got = set(fragment.eigenvalues())
        expected = _expected_low_degree_eigenvalues(cfg.n, ell)
        if expected is not None:
            checks.append(
                CheckResult(
                    id="spectrum.values.l%d" % ell,
                    description="degree-%d sublaplacian eigenvalues are exactly %s"
                    % (ell, sorted(expected)),
                    paper_ref="sublaplacian spectrum fragment",
                    status=got == expected,
                    inputs={"n": cfg.n, "degree": ell, "found": sorted(got)},
                )
            )
        checks.append(
            CheckResult(
                id="spectrum.exact.l%d" % ell,
                description="degree-%d eigenbases satisfy T0^2 = -lambda exactly" % ell,
                paper_ref="circle action diagonalization",
                status=all(
                    (t0_apply(t0_apply(p)) + e.t0sq_eigenvalue * p).is_zero()
                    for e in fragment.entries
                    for p in e.eigenbasis.polys
                ),
                inputs={"n": cfg.n, "degree": ell},
            )
        )
        worst = 0.0
        for e in fragment.entries:
            f = C.ScalarField(e.eigenbasis.polys[0], cfg.n)
            mu = e.sublaplacian_eigenvalue
            for _ in range(20):
                p = random_point(rng, cfg.n)
                resid = abs(C.sublaplacian_greenleaf(f, p) - mu * f.value(p))
                worst = _worst(worst, resid)
        checks.append(
            CheckResult(
                id="spectrum.pointwise.l%d" % ell,
                description="degree-%d eigenfunctions solve the eigenvalue equation pointwise" % ell,
                paper_ref="eigenfunction residual",
                status=worst < cfg.tol_strict,
                residual=worst,
                inputs={"n": cfg.n, "degree": ell, "points_per_entry": 20},
            )
        )
    kernel = reeb_kernel_eigenfunctions(cfg.n)
    expected_dim = (cfg.n + 1) ** 2 - 1
    checks.append(
        CheckResult(
            id="spectrum.kernel.dim",
            description="degree-2 Reeb kernel has dimension (n+1)^2 - 1 = %d" % expected_dim,
            paper_ref="invariant spherical harmonics",
            status=len(kernel) == expected_dim,
            inputs={"n": cfg.n, "dimension": len(kernel)},
        )
    )
    return checks


def _suite_bochner(cfg):
    checks = []
    rng = np.random.default_rng(cfg.seed)
    num_fields = max(4, cfg.trials // 10)
    pool = field_pool(rng, cfg.n, num_fields)
    worst_bochner = 0.0
    worst_route = 0.0
    worst_trace = 0.0
    worst_cs = 0.0  # largest Cauchy-Schwarz deficit
    done = 0
    i = 0
    while done < cfg.trials:
        f = pool[i % len(pool)]
        i += 1
        p = random_point(rng, cfg.n)
        worst_bochner = _worst(worst_bochner, abs(C.bochner_residual(f, p)))
        frame_val = C.sublaplacian_frame(f, p)
        exact_val = C.sublaplacian_greenleaf(f, p)
        worst_route = _worst(worst_route, abs(frame_val - exact_val))
        block = C.tw_hessian(f, p)
        worst_trace = _worst(worst_trace, abs(block.horizontal_trace() - exact_val))
        slack = block.horizontal_norm_sq() - exact_val**2 / (2 * cfg.n)
        worst_cs = _worst(worst_cs, -slack)
        done += 1
    checks.append(
        CheckResult(
            id="bochner.residual",
            description="pointwise Bochner-type identity over %d random cases" % cfg.trials,
            paper_ref="bochner identity",
            status=worst_bochner < cfg.tol,
            residual=worst_bochner,
            inputs={"n": cfg.n, "trials": cfg.trials, "seed": cfg.seed},
        )
    )
    checks.append(
        CheckResult(
            id="bochner.route_agreement",
            description="frame sublaplacian agrees with the difference-formula route",
            paper_ref="frame vs difference route",
            status=worst_route < cfg.tol,
            residual=worst_route,
            inputs={"n": cfg.n, "trials": cfg.trials},
        )
    )
    checks.append(
        CheckResult(
            id="bochner.hessian_trace",
            description="horizontal Hessian trace reproduces the sublaplacian",
            paper_ref="hessian trace",
            status=worst_trace < cfg.tol,
            residual=worst_trace,
            inputs={"n": cfg.n, "trials": cfg.trials},
        )
    )
    checks.append(
        CheckResult(
            id="bochner.cauchy_schwarz",
            description="|pi_H Hess f|^2 >= (Delta_b f)^2 / 2n pointwise",
            paper_ref="trace inequality",
            status=worst_cs < cfg.tol,
            residual=worst_cs,
            inputs={"n": cfg.n, "trials": cfg.trials},
        )
    )
    return checks


def _suite_lemmas(cfg):
    checks = []
    rng = np.random.default_rng(cfg.seed)
    pool = field_pool(rng, cfg.n, max(4, cfg.trials // 10))

    worst1 = 0.0
    worst3 = 0.0
    worst_hess = 0.0
    for i in range(cfg.trials):
        f = pool[i % len(pool)]
        p = random_point(rng, cfg.n)
        worst1 = _worst(worst1, abs(C.lemma1_residual(f, p)))
        x = random_horizontal(rng, p)
        y = random_horizontal(rng, p)
        worst3 = _worst(worst3, abs(C.third_commutation_residual(f, p, x.vec, y.vec)))
        worst_hess = _worst(worst_hess, C.tw_hessian(f, p).antisymmetry_residual())
    checks.append(
        CheckResult(
            id="lemmas.divergence",
            description="div(J grad_H f) = 2n T(f) over %d random cases" % cfg.trials,
            paper_ref="divergence lemma",
            status=worst1 < cfg.tol_strict,
            residual=worst1,
            inputs={"n": cfg.n, "trials": cfg.trials, "seed": cfg.seed},
        )
    )
    checks.append(
        CheckResult(
            id="lemmas.third_order",
            description="torsion-free third-order exchange over %d random cases" % cfg.trials,
            paper_ref="third-order exchange",
            status=worst3 < cfg.tol,
            residual=worst3,
            inputs={"n": cfg.n, "trials": cfg.trials},
        )
    )
    checks.append(
        CheckResult(
            id="lemmas.hessian_exchange",
            description="horizontal Hessian antisymmetry carried by T(f)",
            paper_ref="hessian exchange",
            status=worst_hess < cfg.tol,
            residual=worst_hess,
            inputs={"n": cfg.n, "trials": cfg.trials},
        )
    )

    m = 2 * cfg.n + 2
    fx1 = C.ScalarField(Polynomial.variable(m, 0), cfg.n)
    lhs, rhs = C.lemma2_check(fx1)
    checks.append(
        CheckResult(
            id="lemmas.integrated.x1",
            description="integrated L identity for the first coordinate field (exact)",
            paper_ref="integrated L identity",
            status=lhs == rhs,
            residual=float(abs(lhs - rhs)),
            inputs={"n": cfg.n, "lhs": str(lhs), "rhs": str(rhs)},
        )
    )
    f_rand = pool[0]
    lhs2, rhs2 = C.lemma2_check(f_rand)
    checks.append(
        CheckResult(
            id="lemmas.integrated.random",
            description="integrated L identity for a random harmonic combination (exact)",
            paper_ref="integrated L identity",
            status=lhs2 == rhs2,
            residual=float(abs(lhs2 - rhs2)),
            inputs={"n": cfg.n, "lhs": str(lhs2), "rhs": str(rhs2)},
        )
    )

    worst = [0.0, 0.0, 0.0, 0.0]
    for _ in range(cfg.trials):
        p = random_point(rng, cfg.n)
        vals = C.connection_axiom_residuals(
            p,
            random_horizontal(rng, p),
            random_horizontal(rng, p),
            random_horizontal(rng, p),
        )
        worst = [_worst(w, v) for w, v in zip(worst, vals)]
    names = ("metric_compatibility", "j_parallel", "torsion_purity", "reeb_parallel")
    for name, w in zip(names, worst):
        checks.append(
            CheckResult(
                id="lemmas.connection.%s" % name,
                description="connection axiom: %s" % name.replace("_", " "),
                paper_ref="connection axioms",
                status=w < cfg.tol_strict,
                residual=w,
                inputs={"n": cfg.n, "trials": cfg.trials},
            )
        )
    return checks


def _hamiltonian_drift(trace):
    sp = trace.speed
    return float(np.max(np.abs(0.5 * sp**2 - 0.5 * sp[0] ** 2)))


def _suite_geodesics(cfg):
    checks = []
    rng = np.random.default_rng(cfg.seed)
    n = cfg.n
    p = random_point(rng, n)
    v = random_horizontal(rng, p)

    trace = G.integrate_connection_geodesic(
        G.GeodesicState(p, v, 0.0), 2 * np.pi, cfg.step_size
    )
    gap = float(np.linalg.norm(trace.endpoint() - G.great_circle(p, v, 2 * np.pi).coords))
    checks.append(
        CheckResult(
            id="geodesics.great_circle",
            description="b = 0 integration returns to the great-circle endpoint",
            paper_ref="closed-form geodesic",
            status=gap < 1e-6,
            residual=gap,
            inputs={"n": n, "step_size": cfg.step_size, "s_max": "2*pi"},
        )
    )

    s_max = cfg.steps * cfg.step_size
    trace_b = G.integrate_connection_geodesic(G.GeodesicState(p, v, 1.3), s_max, cfg.step_size)
    cons = _worst(trace_b.max_lengthiness_violation, trace_b.max_speed_drift)
    checks.append(
        CheckResult(
            id="geodesics.conservation",
            description="lengthiness and speed preserved along a b != 0 trace",
            paper_ref="lengthy geodesics",
            status=cons < 1e-7,
            residual=cons,
            inputs={"n": n, "b": 1.3, "s_max": s_max},
        )
    )

    pts, _ = G.closed_form_geodesic(p, v.vec, 1.3, trace_b.s)
    cf_gap = float(np.max(np.linalg.norm(trace_b.points - pts, axis=1)))
    checks.append(
        CheckResult(
            id="geodesics.closed_form",
            description="integrated b != 0 trace matches the two-frequency closed form",
            paper_ref="closed-form geodesic",
            status=cf_gap < 1e-6,
            residual=cf_gap,
            inputs={"n": n, "b": 1.3},
        )
    )

    worst_match = 0.0
    worst_ham = 0.0
    b_cycle = (0.0, 1.0, -0.7, 0.4, 1.5)
    for i in range(cfg.hj_pairs):
        p_i = random_point(rng, n)
        v_i = random_horizontal(rng, p_i)
        b_i = b_cycle[i % len(b_cycle)]
        conn = G.integrate_connection_geodesic(G.GeodesicState(p_i, v_i, b_i), 1.0, cfg.step_size)
        lift = G.cotangent_lift(p_i, v_i, b_i)
        hj = G.integrate_hj_geodesic(lift, 1.0, cfg.step_size)
        worst_match = _worst(
            worst_match, float(np.max(np.linalg.norm(conn.points - hj.points, axis=1)))
        )
        worst_ham = _worst(worst_ham, _hamiltonian_drift(hj))
    checks.append(
        CheckResult(
            id="geodesics.hj_equivalence",
            description="Hamilton-Jacobi and connection routes agree pointwise (%d initial conditions)"
            % cfg.hj_pairs,
            paper_ref="geodesic equivalence",
            status=worst_match < cfg.tol_match,
            residual=worst_match,
            inputs={"n": n, "pairs": cfg.hj_pairs, "b_values": list(b_cycle)},
        )
    )
    checks.append(
        CheckResult(
            id="geodesics.hamiltonian",
            description="Hamiltonian conserved along the cotangent flow",
            paper_ref="hamiltonian conservation",
            status=worst_ham < cfg.tol_hamiltonian,
            residual=worst_ham,
            inputs={"n": n, "pairs": cfg.hj_pairs},
        )
    )

    lift1 = G.cotangent_lift(p, v, 1.0)
    half = G.integrate_hj_geodesic(
        G.CotangentState(lift1.x, 2.0 * lift1.xi, lift1.chart, n), 0.5, cfg.step_size
    )
    full = G.integrate_hj_geodesic(lift1, 1.0, cfg.step_size)
    rep_gap = float(np.linalg.norm(half.endpoint() - full.endpoint()))
    checks.append(
        CheckResult(
            id="geodesics.reparametrization",
            description="doubling the covector halves the traversal time",
            paper_ref="affine reparametrization",
            status=rep_gap < 1e-6,
            residual=rep_gap,
            inputs={"n": n},
        )
    )

    if n == 1:
        violations = 0.0
        hit = 0
        for _ in range(cfg.cc_pairs):
            x = random_point(rng, 1)
            y = random_point(rng, 1)
            res = G.cc_distance(x, y)
            if res.converged:
                hit += 1
                violations = _worst(
                    violations, G.riemannian_distance(x, y) - res.estimate
                )
        checks.append(
            CheckResult(
                id="geodesics.contraction",
                description="Webster distance never exceeds the sub-Riemannian estimate",
                paper_ref="metric contraction",
                status=violations <= cfg.tol_contraction and hit == cfg.cc_pairs,
                residual=_worst(violations, 0.0),
                inputs={"pairs": cfg.cc_pairs, "converged": hit},
            )
        )
    return checks


def _suite_bound(cfg):
    checks = []
    samples = B.estimate_k_samples(cfg.n, num_samples=max(50, cfg.trials), seed=cfg.seed)
    k_hat = float(np.min(samples))
    variance = float(np.var(samples))
    expected_k = 2 * (cfg.n + 1)
    checks.append(
        CheckResult(
            id="bound.k_constant",
            description="curvature quadratic form is constant over samples",
            paper_ref="ricci floor",
            status=variance < 1e-12,
            residual=variance,
            inputs={"n": cfg.n, "samples": len(samples)},
        )
    )
    checks.append(
        CheckResult(
            id="bound.k_value",
            description="estimated floor equals 2(n+1) = %d" % expected_k,
            paper_ref="ricci floor",
            status=abs(k_hat - expected_k) < 1e-9,
            residual=abs(k_hat - expected_k),
            inputs={"n": cfg.n, "k_hat": k_hat},
        )
    )
    report = B.check_bound(cfg.n, cfg.degree_max, num_samples=max(50, cfg.trials), seed=cfg.seed)
    kernel_entries = report.kernel_entries()
    checks.append(
        CheckResult(
            id="bound.kernel_satisfies",
            description="every Reeb-kernel eigenvalue satisfies -mu >= 2nk/(2n-1)",
            paper_ref="eigenvalue bound",
            status=report.all_kernel_entries_satisfy and bool(kernel_entries),
            inputs={
                "n": cfg.n,
                "bound": report.bound,
                "kernel_eigenvalues": [e.sublaplacian_eigenvalue for e in kernel_entries],
                "non_kernel_eigenvalues": [
                    e.sublaplacian_eigenvalue for e in report.entries if not e.reeb_kernel
                ],
            },
        )
    )
    if cfg.n == 1:
        eq = [e for e in kernel_entries if e.equality]
        checks.append(
            CheckResult(
                id="bound.equality_case",
                description="the degree-2 kernel eigenvalue -8 achieves equality",
                paper_ref="equality case",
                status=len(eq) == 1 and eq[0].sublaplacian_eigenvalue == -8,
                inputs={"equalities": [e.sublaplacian_eigenvalue for e in eq]},
            )
        )
    return checks


def _suite_s3(cfg):
    checks = []
    rng = np.random.default_rng(cfg.seed)
    a, b = cfg.a, cfg.b
    alpha = float(np.hypot(a, b))
    terms = {
        (2, 0, 0, 0): a, (0, 0, 2, 0): a, (0, 2, 0, 0): -a, (0, 0, 0, 2): -a,
        (1, 1, 0, 0): 2 * b, (0, 0, 1, 1): 2 * b,
    }
    poly = Polynomial(4, {k: Fraction(float(v)) for k, v in terms.items() if v})
    f = C.ScalarField(poly, 1)
    x0 = G.s3_max_point(a, b)
    checks.append(
        CheckResult(
            id="s3.max_point",
            description="constructed maximum point attains sup f = sqrt(a^2+b^2)",
            paper_ref="constrained maximum",
            status=abs(f.value(x0) - alpha) < 1e-12,
            residual=abs(f.value(x0) - alpha),
            inputs={"a": a, "b": b, "alpha": alpha},
        )
    )

    frame = horizontal_frame(x0)
    svals = np.linspace(0.0, 2 * np.pi, 721)
    worst_fit = 0.0
    fits = []
    for direction in frame.vectors:
        pts = np.array([G.great_circle(x0, direction, s).coords for s in svals])
        trace = G.GeodesicTrace(svals, pts, np.zeros_like(pts), np.zeros(svals.size))
        amp, freq, resid = G.eigen_along_geodesic(f, trace)
        worst_fit = _worst(worst_fit, resid, abs(amp - alpha), abs(freq - 2.0))
        fits.append({"amplitude": amp, "frequency": freq, "residual": resid})
    checks.append(
        CheckResult(
            id="s3.cosine_profile",
            description="f along unit lengthy geodesics from the maximum fits alpha cos(2s)",
            paper_ref="cosine profile",
            status=worst_fit < cfg.tol_fit,
            residual=worst_fit,
            inputs={"a": a, "b": b, "fits": fits},
        )
    )

    worst33 = 0.0
    for _ in range(max(10, cfg.trials // 5)):
        p = random_point(rng, 1)
        block = C.tw_hessian(f, p)
        resid = float(
            np.max(np.abs(block.horizontal_block() + 4.0 * f.value(p) * np.eye(2)))
        )
        worst33 = _worst(worst33, resid)
    checks.append(
        CheckResult(
            id="s3.hessian_proportional",
            description="pi_H Hess f + 4 f G vanishes pointwise for the kernel eigenfunction",
            paper_ref="equality case",
            status=worst33 < cfg.tol,
            residual=worst33,
            inputs={"a": a, "b": b, "points": max(10, cfg.trials // 5)},
        )
    )

    samples = G.reach_set_half_pi(a, b, cfg.reach_samples)
    worst_set = _worst(*(s.set_residual for s in samples))
    worst_val = _worst(*(abs(s.f_value + alpha) for s in samples))
    worst_grad = _worst(*(s.grad_norm for s in samples))
    worst_tt = _worst(*(abs(s.hess_tt) for s in samples))
    checks.append(
        CheckResult(
            id="s3.reach_set",
            description="points reached at s = pi/2 lie on the target circle of degenerate critical points",
            paper_ref="reach set",
            status=worst_set < cfg.tol
            and worst_val < cfg.tol_strict
            and worst_grad < cfg.tol_strict
            and worst_tt < cfg.tol_strict,
            residual=_worst(worst_set, worst_val, worst_grad, worst_tt),
            inputs={
                "a": a,
                "b": b,
                "samples": cfg.reach_samples,
                "set_residual": worst_set,
                "value_residual": worst_val,
                "gradient_norm": worst_grad,
                "reeb_hessian": worst_tt,
                "orders": sorted({s.resolved_order for s in samples}),
            },
        )
    )

    w = frame.vectors[0].vec * (np.pi / 2)
    reached = G.exp_map(x0, w)
    resid, _ = G._set_residual(reached.coords, a, b)
    res_cc = G.cc_distance(x0, reached)
    excess = res_cc.estimate - np.pi / 2
    checks.append(
        CheckResult(
            id="s3.exp_map",
            description="exp at radius pi/2 lands on the reach set; distance estimate at most the radius",
            paper_ref="exponential map",
            status=resid < cfg.tol and res_cc.converged and excess <= 1e-6,
            residual=_worst(resid, excess),
            inputs={"a": a, "b": b, "cc_estimate": res_cc.estimate},
        )
    )
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
    identical runs, so it is dropped before serializing.
    """
    clean = {k: v for k, v in payload.items() if k != "elapsed_seconds"}
    return json.dumps(clean, sort_keys=True, separators=(",", ":")).encode()


def run_and_report(config):
    start = time.perf_counter()
    report = run_suite(config)
    elapsed = time.perf_counter() - start
    return report, build_payload([report], config, elapsed)
