"""Run one workload in this process and print its result as JSON.

Started by run.py with the library on PYTHONPATH and the BLAS/OpenMP
thread pools fixed to one thread.  Every pass makes the workload's
`run_suite` calls in order; a pass is timed around those calls only,
and the output gate runs after it:

* each call's table of (check id, status) must equal the table in
  expected.json, recorded at the commit that defined the benchmark;
* a check whose residual is not finite counts as failed, whatever its
  status says;
* the canonical payload bytes of each call must repeat in every pass.

With --trace 1 the first pass runs untraced, the rest traced; the
per-layer metrics are medians over the traced passes, and every span
is written to .perfbench/trace-<workload>.npz.
"""

import argparse
import hashlib
import json
import math
import resource
import statistics
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
# Typical reference_loop() time on a 2.1 GHz 2-vCPU VM; it only sets
# the scale of the normalised times.
REFERENCE_S = 0.045


def verdict_table(report):
    return [[c.id, "pass" if c.status else "fail"] for c in report.checks]


class Gate:
    """Compares each call's output with the recorded table and pass 0."""

    def __init__(self, expected):
        self.expected = expected
        self.digests = {}
        self.attempted = 0
        self.failed = 0

    def check(self, index, report, payload_bytes):
        expected = self.expected[index]
        if report is None:  # the call raised
            self.attempted += len(expected)
            self.failed += len(expected)
            return
        got = verdict_table(report)
        residuals = [c.residual for c in report.checks]
        for i in range(max(len(expected), len(got))):
            self.attempted += 1
            if (
                i >= len(expected)
                or i >= len(got)
                or got[i] != expected[i]
                or (residuals[i] is not None and not math.isfinite(residuals[i]))
            ):
                self.failed += 1
        digest = hashlib.sha256(payload_bytes).hexdigest()
        if index in self.digests:
            self.attempted += 1
            self.failed += digest != self.digests[index]
        else:
            self.digests[index] = digest


def reference_loop():
    """Seconds taken by a fixed pure-Python loop that no library change moves."""
    t0 = time.perf_counter()
    total = Fraction(0)
    for i in range(1, 12000):
        total += Fraction(1, i % 97 + 1)
    return time.perf_counter() - t0


def run_pass(suites, configs, gate):
    """Make the pass's calls; return raw and normalised call seconds and the scale.

    The reference loop runs twice before the first call and after every
    call.  Each call's time is scaled by REFERENCE_S over the mean of all
    the pass's reference times.  On a shared machine whose speed drifts
    by tens of percent over seconds, a slow spell stretches the calls
    and the reference loops alike, so the normalised time spreads far
    less from run to run than the raw one.
    """
    reports = []
    raw = []
    refs = [reference_loop(), reference_loop()]
    for cfg in configs:
        t0 = time.perf_counter()
        try:
            report = suites.run_suite(cfg)
        except Exception:
            traceback.print_exc()
            report = None
        raw.append(time.perf_counter() - t0)
        refs += [reference_loop(), reference_loop()]
        reports.append(report)
    scale = REFERENCE_S / statistics.mean(refs)
    for i, (cfg, report) in enumerate(zip(configs, reports)):
        payload = b""
        if report is not None:
            payload = suites.canonical_payload_bytes(suites.build_payload([report], cfg, 0.0))
        gate.check(i, report, payload)
    return raw, [t * scale for t in raw], scale


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    import numpy as np
    import scipy

    import crsphere
    import workloads
    from crsphere import suites
    from tracing import PER_LAYER, Tracer

    src = HERE.parent / "src"
    if src not in Path(crsphere.__file__).resolve().parents:
        sys.exit("crsphere was imported from %s, not from %s" % (crsphere.__file__, src))

    workloads.warm_up()
    configs = [suites.Config(**kw) for kw in workloads.calls(args.workload, args.seed)]
    expected = json.loads((HERE / "expected.json").read_text())[args.workload]
    if len(expected) != len(configs):
        sys.exit("expected.json does not match the workload's call list")
    gate = Gate(expected)

    passes = []  # (raw call seconds, normalised call seconds, normalising scale)
    tracer = None
    if args.trace:
        untraced = run_pass(suites, configs, gate)
        tracer = Tracer()
        tracer.install()
    start = time.perf_counter()
    try:
        while not passes or time.perf_counter() - start < args.seconds or (
            not args.trace and len(passes) < 2
        ):
            if tracer:
                tracer.begin_pass()
            passes.append(run_pass(suites, configs, gate))
            if tracer:
                tracer.end_pass()
    finally:
        if tracer:
            tracer.uninstall()

    wall_norm = [sum(norm) for _raw, norm, _scale in passes]
    result = {
        "attempted": gate.attempted,
        "failed": gate.failed,
        "pass_raw_s": [sum(raw) for raw, _norm, _scale in passes],
        "pass_norm_s": wall_norm,
        "reference_s": statistics.median(REFERENCE_S / scale for _raw, _norm, scale in passes),
        "versions": {
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "crsphere": crsphere.__version__,
        },
    }
    if tracer:
        per_pass = tracer.pass_metrics()
        for values, (_raw, _norm, scale) in zip(per_pass, passes):
            for name, unit in PER_LAYER:
                if unit == "s":
                    values[name] *= scale
        metrics = {name: statistics.median(p[name] for p in per_pass) for name, _unit in PER_LAYER}
        metrics["trace.overhead_s"] = statistics.median(wall_norm) - sum(untraced[1])
        result["metrics"] = {name: {"value": metrics[name], "unit": unit} for name, unit in PER_LAYER}
        result["untraced_norm_s"] = sum(untraced[1])
        result["spans"] = len(tracer.name)
        out = HERE.parent / ".perfbench" / ("trace-%s.npz" % args.workload)
        out.parent.mkdir(exist_ok=True)
        tracer.save(out, {"workload": args.workload, "seed": args.seed})
    else:
        result["metrics"] = {
            "wall_norm_s": {"value": statistics.median(wall_norm), "unit": "s"},
            "slowest_call_norm_s": {
                "value": statistics.median(max(norm) for _raw, norm, _scale in passes),
                "unit": "s",
            },
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "unit": "MB",
            },
        }
    print(json.dumps(result))


if __name__ == "__main__":
    main()
