"""crsphere benchmark: time `run_suite` on one workload, end to end or traced.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload exact_spectrum --seed 1 --seconds 20 --trace 0

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  With --trace 0 the
metrics are the end-to-end ones (wall_norm_s, slowest_call_norm_s,
setup_s, peak_rss_mb); with --trace 1 they are the per-layer ones of
tracing.PER_LAYER, and the spans go to .perfbench/trace-<workload>.npz.

The work runs in one worker process (worker.py) on one thread.  Set-up
time is measured separately, as the median over several fresh
interpreters that import the library and fill its caches.  NOTES.md
describes the workloads and metrics.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 5
THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)
WORKER_TIMEOUT_S = 160


def worker_env():
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = "1"
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(HERE)])
    env["PYTHONHASHSEED"] = "0"
    return env


def source_digest():
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def git_sha():
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except OSError:
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def measure_setup(env):
    """Median wall time of a fresh interpreter's import and warm-up."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", "import workloads; workloads.warm_up()"],
            cwd=ROOT, env=env, check=True, timeout=60,
        )
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    if not (SRC / "crsphere" / "__init__.py").is_file():
        sys.exit("no crsphere sources under %s; run from a source checkout" % SRC)

    env = worker_env()
    stamp = {
        "git_sha": git_sha(),
        "source_digest": source_digest(),
        "nproc": os.cpu_count(),
        "loadavg_start": os.getloadavg(),
    }
    setup_s = None if args.trace else measure_setup(env)
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True, timeout=WORKER_TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        sys.exit("worker exceeded %d s" % WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        sys.exit("worker failed with exit code %d" % proc.returncode)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    stamp["loadavg_end"] = os.getloadavg()
    stamp.update(result["versions"])

    if not args.trace:
        result["metrics"]["setup_s"] = {"value": setup_s, "unit": "s"}
    metrics = result["metrics"]

    print("stamp " + json.dumps(stamp, sort_keys=True))
    print("workload %s seed %d: %d of %d gate checks failed" % (
        args.workload, args.seed, result["failed"], result["attempted"]))
    print("passes: raw %s s, normalised %s s; reference loop %.4f s" % (
        ", ".join("%.3f" % w for w in result["pass_raw_s"]),
        ", ".join("%.3f" % w for w in result["pass_norm_s"]),
        result["reference_s"],
    ))
    if args.trace:
        print("untraced pass %.3f s normalised; %d spans" % (result["untraced_norm_s"], result["spans"]))
    for name, m in metrics.items():
        print("%-44s %14.6g %s" % (name, m["value"], m["unit"]))
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
