"""Benchmark of the fracsobolev package: one workload, one seed, one run.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload suite|interval|cli --seed N \\
        --seconds S --trace 0|1

The load is a closed loop with one client in one process: each operation
starts when the previous one ends.  BLAS/OpenMP pools are pinned to one
thread.  ``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` reports the per-layer metrics from a separate traced run.
Every metric is printed as ``name value unit``; the last line is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.  The exit status
is 1 when any output missed its correctness gate and 2 when the checkout
holds no package source.  See README.md in this directory for the
workloads and the metric definitions.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import re
import resource
import statistics
import subprocess
import sys
import time
import warnings
from collections import Counter
from pathlib import Path

THREADS = 1
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import spans  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 3
IMPORT_REPEATS = 3
CHECKS = (
    "weak_pairing", "ftwfc", "ibp_symmetric", "ibp_zero_trace",
    "poincare_kernel_subtracted", "poincare_mathring", "poincare_symmetric",
    "sobolev_interval", "sobolev_line", "extend_trivial", "extend_interior",
    "extend_exterior", "embedding_trace", "w1p_consistency", "line_equivalences",
    "density_smooth", "density_piecewise", "inclusivity",
)
WARNING_CATEGORIES = ("UserWarning", "RuntimeWarning", "other")

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "cmd_s.p50": "s",
    "pass_frac": "frac",
    "accuracy_digits": "digits",
    "worst_margin": "ratio",
    "peak_rss_mb": "MB",
}


def layer_metrics():
    """Every per-layer metric name with its unit, in report order."""
    out = {}
    for module, names in spans.FUNCTIONS.items():
        for name in names:
            out[f"{module}.{name}.calls"] = "count"
            out[f"{module}.{name}.self_s"] = "s"
            if module in spans.POINT_LAYERS:
                out[f"{module}.{name}.points"] = "count"
    for module, cls, attr in spans.MEMBERS:
        out[f"{module}.{cls}.{attr}.calls"] = "count"
        out[f"{module}.{cls}.{attr}.self_s"] = "s"
    for check in CHECKS:
        out[f"verify.{check}.s"] = "s"
        out[f"verify.{check}.margin"] = "ratio"
    for module in spans.MODULES:
        out[f"{module}.raised"] = "count"
    out["cli.import_s"] = "s"
    out["cli.import_scipy_s"] = "s"
    for category in WARNING_CATEGORIES:
        out[f"warnings.{category}"] = "count"
    out["trace.wall_s"] = "s"
    out["trace.overhead_s"] = "s"
    return out


# ---------------------------------------------------------------------------
# environment


def provenance(seed):
    def version(package):
        try:
            return importlib.metadata.version(package)
        except importlib.metadata.PackageNotFoundError:
            return None

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            found = re.search(r"^model name\s*:\s*(.+)$", handle.read(), re.MULTILINE)
        if found:
            cpu = found.group(1).strip()
    except OSError:
        pass
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True,
            text=True, timeout=10, check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = "unknown (not a git checkout)"
    return {
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "nproc": os.cpu_count(),
        "threads": THREADS,
        "cpu": cpu,
        "seed": seed,
        "commit": commit,
    }


# ---------------------------------------------------------------------------
# measurements from fresh interpreters


def setup_seconds(workload, seed):
    """Median spawn-to-exit time of a fresh interpreter that sets up the workload."""
    if workload == "cli":
        argv = [sys.executable, "-m", "fracsobolev.cli", "--version"]
    else:
        argv = [sys.executable, str(HERE / "probe.py"), workload, str(seed)]
    samples = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run(argv, env=workloads.child_env(), cwd=ROOT, check=True,
                       capture_output=True, timeout=120)
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


def import_seconds():
    """Median total and scipy-only import time of ``fracsobolev.cli`` (``-X importtime``)."""
    totals, scipy = [], []
    for _ in range(IMPORT_REPEATS):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import fracsobolev.cli"],
            env=workloads.child_env(), cwd=ROOT, check=True, capture_output=True,
            text=True, timeout=120,
        )
        total = scipy_total = 0
        for line in proc.stderr.splitlines():
            found = re.match(r"import time:\s*(\d+)\s*\|\s*\d+\s*\|\s*(\S+)", line)
            if found:
                self_us, name = int(found.group(1)), found.group(2)
                total += self_us
                if name == "scipy" or name.startswith("scipy."):
                    scipy_total += self_us
        totals.append(total / 1e6)
        scipy.append(scipy_total / 1e6)
    return statistics.median(totals), statistics.median(scipy)


# ---------------------------------------------------------------------------
# passes


class Run:
    """Accumulates pass results and warning counts over one benchmark run."""

    def __init__(self, workload, state):
        self.run_pass = workloads.WORKLOADS[workload][1]
        self.state = state
        self.passes = []
        self.blobs = None
        self.warnings = {}

    def one(self, tracer=None):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = self.run_pass(self.state, tracer)
        counts = dict.fromkeys(WARNING_CATEGORIES, 0)
        for item in caught:
            name = item.category.__name__
            counts[name if name in counts else "other"] += 1
        self.warnings = counts
        if result.blobs:
            # suite: report bytes must repeat exactly across passes in a run
            if self.blobs is None:
                self.blobs = result.blobs
            for name, blob in result.blobs.items():
                if blob != self.blobs.get(name) and not blob.startswith("raised"):
                    result.failed += 1
        self.passes.append(result)
        return result

    def for_seconds(self, seconds, tracer=None, on_pass=None):
        start = time.perf_counter()
        timed = []
        while not timed or time.perf_counter() - start < seconds:
            timed.append(self.one(tracer))
            if on_pass is not None:
                on_pass()
        return timed

    @property
    def attempted(self):
        return sum(p.attempted for p in self.passes)

    @property
    def failed(self):
        return sum(p.failed for p in self.passes)


def end_to_end(workload, seed, seconds, run):
    setup = setup_seconds(workload, seed)
    if workload != "cli":
        run.one()  # warm-up: lazy set-up in numpy/scipy, checked but not timed
    timed = run.for_seconds(seconds)
    if workload in workloads.PROBES:
        run.passes.append(workloads.PROBES[workload](run.state))
    margins = [m for p in run.passes for m in p.margins.values()]
    digits = [d for p in run.passes for d in p.digits]
    who = resource.RUSAGE_CHILDREN if workload == "cli" else resource.RUSAGE_SELF
    return {
        "setup_s": setup,
        "wall_s": statistics.median(p.wall_s for p in timed),
        "cmd_s.p50": statistics.median(x for p in timed for x in p.latencies),
        "pass_frac": (run.attempted - run.failed) / run.attempted,
        "accuracy_digits": min(digits, default=0.0),
        "worst_margin": max(margins, default=workloads.MISS_MARGIN),
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0,
    }


def tracer_counts(tracer):
    """The tracer's per-layer numbers since its last reset; then reset it."""
    out = Counter()
    for name, value in tracer.self_seconds().items():
        out[f"{name}.self_s"] += value
    for suffix, table in (("calls", tracer.calls), ("points", tracer.points),
                          ("raised", tracer.raised)):
        for name, value in table.items():
            out[f"{name}.{suffix}"] += value
    tracer.reset()
    return out


def per_layer(workload, seed, seconds, run):
    """One traced set-up plus the mean traced pass; untraced passes give the overhead."""
    if workload == "cli":
        run.state["in_process"] = True  # traced and untraced passes call cli.main
    run.one()
    untraced = run.for_seconds(seconds / 2.0)
    tracer = spans.Tracer()
    totals = Counter()
    traced = []

    def collect():
        result = run.passes[-1]
        totals.update(tracer_counts(tracer))
        totals.update({f"warnings.{name}": count for name, count in run.warnings.items()})
        if workload == "suite":
            for name, latency in zip(result.blobs, result.latencies):
                totals[f"verify.{name}.s"] += latency
            for name, margin in result.margins.items():
                totals[f"verify.{name}.margin"] += margin
        traced.append(result)

    with tracer:
        # input sampling happens in set-up, so it shows under oracle.* here
        workloads.discard(workloads.WORKLOADS[workload][0](seed))
        setup = tracer_counts(tracer)
        run.for_seconds(seconds / 2.0, tracer, collect)
    metrics = {name: setup[name] + totals[name] / len(traced) for name in layer_metrics()}
    metrics["cli.import_s"], metrics["cli.import_scipy_s"] = import_seconds()
    traced_wall = statistics.median(p.wall_s for p in traced)
    metrics["trace.wall_s"] = traced_wall
    metrics["trace.overhead_s"] = traced_wall - statistics.median(p.wall_s for p in untraced)
    return metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "fracsobolev" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no package source under {SRC}\n")
        return 2
    sys.path.insert(0, str(SRC))
    for var in THREAD_VARS:  # before numpy loads, here and in every child
        os.environ[var] = str(THREADS)

    info = provenance(args.seed)
    build, _ = workloads.WORKLOADS[args.workload]
    state = build(args.seed)
    try:
        run = Run(args.workload, state)
        if args.trace:
            metrics = per_layer(args.workload, args.seed, args.seconds, run)
            units = layer_metrics()
        else:
            metrics = end_to_end(args.workload, args.seed, args.seconds, run)
            units = END_TO_END
    finally:
        workloads.discard(state)

    print("provenance " + json.dumps(info, sort_keys=True))
    print(f"workload {args.workload}: {run.attempted} operations, {run.failed} failed")
    for name, unit in units.items():
        print(f"{name} {metrics[name]!r} {unit}")
    correct = run.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
