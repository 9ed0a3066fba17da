"""The three benchmark workloads: ``suite``, ``interval`` and ``cli``.

Each workload has a ``build(seed)`` that makes its inputs and a
``run_pass(state, tracer)`` that performs one pass over the workload's
fixed operation list, times every operation, checks every output and
returns a :class:`PassResult`.  Functions of the package are always looked
up through their module at call time, so a :class:`spans.Tracer` that has
patched the package sees every call.  ``PROBES`` holds, per workload, a
fixed closed-form accuracy sweep that a run makes once, untimed, after
its timed passes.

Correctness gates (an operation that misses its gate counts as failed):

* ``suite``: every report has ``passed`` set, and each report's JSON bytes
  equal those of the first pass in the run.
* ``interval``: relative error within a stated tolerance wherever a
  closed form exists, finite outputs everywhere else.
* ``cli``: exit status 0, ``n + 1`` CSV data rows, a finite positive norm
  and a ``verify --json`` report that validates against the package's
  ``report_schema.json`` and has ``passed`` set.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".perfbench"

# relative-error bars for outputs that have a closed form
EXACT_TOL = 1e-6  # schemes exact on piecewise-linear data, and Euler-mapped powers
NORM_TOL = 1e-5  # trapezoidal norms of x
GL_TOL_PER_CELL = 4.0  # Grunwald-Letnikov is first order: rel. error <= 4 h away from the base
GL_BASE_GAP = 0.1
DIGITS_CAP = 17.0
MISS_MARGIN = 1e9


@dataclass
class PassResult:
    """One pass: per-operation latencies and the gate outcome.

    ``wall_s`` is the sum of the operation latencies; gating runs between
    operations and is not timed.
    """

    wall_s: float = 0.0
    latencies: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    margins: dict = field(default_factory=dict)  # gated output -> error / tolerance
    digits: list = field(default_factory=list)  # digits of exact-for-piecewise-linear outputs
    blobs: dict = field(default_factory=dict)  # suite: check -> report JSON

    def gate(self, label, error, tolerance, exact=False):
        """Record a closed-form comparison; returns whether it passed.

        A non-finite error fails, and is recorded as margin ``MISS_MARGIN``
        and 0 digits so that every reported figure stays a finite number.
        """
        ok = math.isfinite(error) and error <= tolerance
        self.margins[label] = error / tolerance if math.isfinite(error) else MISS_MARGIN
        if exact:
            digits = -math.log10(max(error, 10.0**-DIGITS_CAP)) if math.isfinite(error) else 0.0
            self.digits.append(min(DIGITS_CAP, digits))
        return ok


# ---------------------------------------------------------------------------
# suite: the 18 canonical checks in order


def build_suite(seed):
    """The canonical checks are fixed; the seed is recorded but not used."""
    from fracsobolev import verify

    verify.canonical_checks()
    return verify


def run_suite(verify, tracer=None):
    out = PassResult()
    for name, runner in verify.canonical_checks().items():
        out.attempted += 1
        t0 = time.perf_counter()
        try:
            report = runner() if tracer is None else tracer.call("verify", name, runner)
        except Exception as exc:  # a check that raises is a failed operation
            out.latencies.append(time.perf_counter() - t0)
            out.failed += 1
            out.blobs[name] = f"raised {type(exc).__name__}: {exc}"
            continue
        out.latencies.append(time.perf_counter() - t0)
        out.blobs[name] = json.dumps(report.to_dict(), sort_keys=True)
        out.margins[name] = max(report.residuals) / report.tolerance
        if not report.passed:
            out.failed += 1
    out.wall_s = sum(out.latencies)
    return out


def suite_probe(state):
    """Closed-form accuracy of the exact schemes at the suite's grid sizes.

    Runs once per run, outside the timed passes.  The suite's reports expose
    no closed-form error, so ``accuracy_digits`` on this workload comes from
    ``x`` (exact for piecewise-linear data) on the 1024- and 2048-cell grids
    that the canonical checks use.
    """
    from fracsobolev import core

    calls = []
    for n in (1024, 2048):
        grid = core.uniform_grid(0.0, 1.0, n)
        for alpha in (0.25, 0.5, 0.75):
            for side in SIDES:
                calls += [_closed_form(grid, op, side, alpha, "x", 1.0) for op in EXACT_OPERATORS]
    out = PassResult()
    _run_calls(out, calls)
    return out


# ---------------------------------------------------------------------------
# interval: seeded operator and norm calls on grids of 2^10 .. 2^16 cells

SIZES = (1 << 10, 1 << 12, 1 << 14, 1 << 16)
# repetitions per size: each size takes a similar share of the pass at the
# parent commit (measured on a 2-CPU Xeon, one BLAS thread)
REPS = {1 << 10: 48, 1 << 12: 20, 1 << 14: 5, 1 << 16: 1}
EXACT_OPERATORS = ("frac_integral", "rl_derivative", "caputo_derivative")
SIDES = ("left", "right")
SINGULAR_EXPONENT = -0.25
PROBE_ORDERS = (0.575, 0.6, 0.625, 0.65, 0.675, 0.7)  # the top quarter of the orders


@dataclass
class Call:
    """One library call of a pass, and what its output must satisfy.

    ``check`` is ``"exact"`` (closed form, counts toward accuracy digits),
    ``"close"`` (closed form within ``tolerance``) or ``"finite"``.
    """

    label: str
    module: object
    name: str
    args: tuple
    check: str
    reference: object = None  # closed-form nodal values, or a scalar
    tolerance: float = 0.0
    mask: object = None  # nodes the closed-form comparison covers
    base: int | None = None  # node allowed to carry the singular marker


def _power(kind, coeff, side):
    """``coeff x`` or ``coeff x^-1/4``, one-sided from the base of ``side``."""
    from fracsobolev import core, oracle

    exponent = 1.0 if kind == "x" else SINGULAR_EXPONENT
    if side == "left":
        return oracle.PowerSum(0.0, ((coeff, exponent),))
    return oracle.PowerSum(1.0, ((coeff, exponent),), core.Side.RIGHT)


def _closed_form(grid, op, side, alpha, kind, coeff, tolerance=EXACT_TOL, mask=None):
    """A call of operator ``op`` on ``coeff x`` or ``coeff x^-1/4`` with its oracle values."""
    import numpy as np

    from fracsobolev import operators, oracle

    f = _power(kind, coeff, side)
    if op == "frac_integral":
        image = oracle.oracle_frac_integral(f, alpha, side)
    else:
        image = oracle.oracle_frac_derivative(f, alpha, side)
    with np.errstate(divide="ignore", invalid="ignore"):
        reference = np.asarray(image.value(grid.nodes), dtype=float)
    exact = kind == "x" and op in EXACT_OPERATORS
    return Call(f"{op}.{side}.{kind}.n{grid.n}.a{alpha:.4f}", operators, op,
                (oracle.sample(f, grid), alpha, side), "exact" if exact else "close",
                reference, tolerance, mask)


def build_interval(seed):
    """Seeded inputs and the fixed call list for every size.

    The seed picks, per size, an order alpha from that size's quarter of
    [0.2, 0.7], the bump's centre, radius and height, and the coefficients
    of ``x`` and ``x^-1/4``.  Every pass thus spans the range of orders,
    and the largest grid gets the highest orders, where the near-base error
    of the FFT convolution is largest.  Above 0.75 the derivative of
    ``x^-1/4`` would no longer be locally integrable.
    """
    import numpy as np

    from fracsobolev import core, operators, oracle, spaces

    rng = np.random.default_rng(seed)
    plan = []
    for stratum, n in enumerate(SIZES):
        alpha = 0.2 + 0.125 * (stratum + rng.uniform())
        bump = oracle.Bump(rng.uniform(0.4, 0.6), rng.uniform(0.2, 0.35), rng.uniform(0.5, 2.0))
        c_lin = rng.uniform(0.5, 2.0)
        c_sing = rng.uniform(0.5, 2.0)
        grid = core.uniform_grid(0.0, 1.0, n)
        tag = f"n{n}.a{alpha:.4f}"
        u_bump = oracle.sample(bump, grid)
        calls = []
        for side in SIDES:
            for op in (*EXACT_OPERATORS, "gl_derivative"):
                calls.append(Call(f"{op}.{side}.bump.{tag}", operators, op,
                                  (u_bump, alpha, side), "finite",
                                  base=0 if side == "left" else n))
            calls += [_closed_form(grid, op, side, alpha, "x", c_lin) for op in EXACT_OPERATORS]
            # first order: gated at least GL_BASE_GAP away from the base
            gap = grid.nodes - grid.a if side == "left" else grid.b - grid.nodes
            calls.append(_closed_form(grid, "gl_derivative", side, alpha, "x", c_lin,
                                      GL_TOL_PER_CELL / n, gap >= GL_BASE_GAP))
            # Caputo and Grunwald-Letnikov reject base-singular samples
            calls += [_closed_form(grid, op, side, alpha, "sing", c_sing)
                      for op in ("frac_integral", "rl_derivative")]
        u_lin = oracle.sample(_power("x", c_lin, "left"), grid)
        spec = spaces.NormSpec("one_sided_left", core.FracOrder(alpha), 2.0)
        sobolev_x = c_lin * math.sqrt(
            1.0 / 3.0 + 1.0 / ((3.0 - 2.0 * alpha) * math.gamma(2.0 - alpha) ** 2)
        )
        calls += [
            Call(f"sobolev_norm.bump.{tag}", spaces, "sobolev_norm", (u_bump, spec), "finite"),
            Call(f"sobolev_norm.x.{tag}", spaces, "sobolev_norm", (u_lin, spec), "close",
                 sobolev_x, NORM_TOL),
            Call(f"lp_norm.bump.{tag}", spaces, "lp_norm", (u_bump, 2.0), "finite"),
            Call(f"lp_norm.x.{tag}", spaces, "lp_norm", (u_lin, 2.0), "close",
                 c_lin / math.sqrt(3.0), NORM_TOL),
        ]
        plan.append((REPS[n], calls))
    return {"plan": plan}


def interval_probe(state):
    """A fixed sweep of the top quarter of orders on the largest grid; untimed.

    ``accuracy_digits`` is the worst case over the orders a run tries.  Near
    the base the FFT path's roundoff changes a lot from one order to the
    next, so the one seeded order per size alone would make the figure
    depend on the seed; the sweep pins the worst case down.
    """
    from fracsobolev import core

    grid = core.uniform_grid(0.0, 1.0, SIZES[-1])
    out = PassResult()
    for alpha in PROBE_ORDERS:
        for side in SIDES:
            _run_calls(out, [_closed_form(grid, op, side, alpha, "x", 1.0)
                             for op in EXACT_OPERATORS])
    return out


def _passes_gate(out, call, result):
    import numpy as np

    if not hasattr(result, "values"):  # a norm
        value = float(result)
        if call.check == "finite":
            return math.isfinite(value) and value > 0.0
        error = abs(value - call.reference) / abs(call.reference)
        return out.gate(call.label, error, call.tolerance)
    values = result.values
    if call.check == "finite":
        rest = np.ones(values.size, dtype=bool)
        if call.base is not None:
            rest[call.base] = False
        return bool(np.all(np.isfinite(values[rest])))
    mask = np.isfinite(call.reference) & np.isfinite(values)
    if call.mask is not None:
        mask &= call.mask
    error = _rel_error(values, call.reference, mask)
    return out.gate(call.label, error, call.tolerance, exact=call.check == "exact")


def _rel_error(values, reference, mask):
    """Largest relative error over the masked nodes where the reference is non-zero."""
    import numpy as np

    sel = mask & (reference != 0.0)
    err = np.abs(values[sel] - reference[sel]) / np.abs(reference[sel])
    return float(np.max(err)) if err.size else math.inf


def _run_calls(out, calls, repetitions=1):
    for _ in range(repetitions):
        for call in calls:
            fn = getattr(call.module, call.name)
            out.attempted += 1
            t0 = time.perf_counter()
            try:
                result = fn(*call.args)
            except Exception:  # a call that raises is a failed operation
                out.latencies.append(time.perf_counter() - t0)
                out.failed += 1
                continue
            out.latencies.append(time.perf_counter() - t0)
            if not _passes_gate(out, call, result):
                out.failed += 1


def run_interval(state, tracer=None):
    out = PassResult()
    for repetitions, calls in state["plan"]:
        _run_calls(out, calls, repetitions)
    out.wall_s = sum(out.latencies)
    return out


# ---------------------------------------------------------------------------
# cli: a seeded script of short `python -m fracsobolev.cli` commands

# interval commands use 2000 cells, where every convolution takes the direct
# path (the FFT path's near-base roundoff is measured by `interval`); the
# line commands need a power of two
CLI_N = 2000
CLI_LINE_N = 2048
CLI_LINE = 16.0
CLI_PROBE_ORDERS = (0.2, 0.5, 0.8)  # the ends and middle of the seeded range
CLI_PROBE_COEFFS = (0.5, 0.75, 1.0, 1.25, 1.5, 1.75, 2.0)


def child_env():
    """Environment for child interpreters: the checkout's source first."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


@dataclass
class Command:
    """One CLI command of the script; ``reference`` holds closed-form CSV values."""

    label: str
    argv: list
    output: str | None = None  # file name the command writes in the work directory
    reference: object = None


def _linear_commands(alpha, coeff):
    """``compute deriv --scheme rl`` and ``compute integral`` of ``coeff x``."""
    import numpy as np

    nodes = np.linspace(0.0, 1.0, CLI_N + 1)
    common = ["--alpha", repr(alpha), "--fn", f"pow:a=0;terms={coeff!r}*1",
              "--grid", f"0,1,{CLI_N}"]
    tag = f"a{alpha:.4f}.c{coeff:.4f}"
    return [
        Command(f"deriv_rl.{tag}", ["compute", "deriv", "--scheme", "rl", *common],
                "deriv_rl.csv", coeff * nodes ** (1.0 - alpha) / math.gamma(2.0 - alpha)),
        Command(f"integral.{tag}", ["compute", "integral", *common],
                "integral.csv", coeff * nodes ** (1.0 + alpha) / math.gamma(2.0 + alpha)),
    ]


def build_cli(seed):
    """The seed picks the order, the coefficient of ``x`` and the Gaussian."""
    import numpy as np

    rng = np.random.default_rng(seed)
    alpha = float(rng.uniform(0.2, 0.8))
    coeff = float(rng.uniform(0.5, 2.0))
    mu = float(rng.uniform(-1.0, 1.0))
    width = float(rng.uniform(0.8, 1.5))
    line = ["--alpha", repr(alpha), "--fn", f"gauss:mu={mu!r};s={width!r}",
            "--line", f"{CLI_LINE!r},{CLI_LINE_N}"]
    deriv_rl, integral = _linear_commands(alpha, coeff)
    script = [
        deriv_rl,
        Command("deriv_spectral", ["compute", "deriv", "--scheme", "spectral", *line],
                "deriv_spectral.csv"),
        integral,
        Command("norm_gagliardo", ["norm", "--space", "gagliardo", "--p", "2", *line]),
        Command("verify_ftwfc", ["verify", "ftwfc"], "ftwfc.json"),
    ]
    schema = json.loads((SRC / "fracsobolev" / "report_schema.json").read_text())
    SCRATCH.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="cli-", dir=SCRATCH)
    return {"script": script, "schema": schema, "dir": workdir}


def _csv_values(path):
    import numpy as np

    rows = []
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            if line.startswith("#") or line.startswith("x,"):
                continue
            rows.append(float(line.split(",")[1]))
    return np.asarray(rows)


def _passes_cli_gate(out, state, command, code, stdout):
    """Check one command's exit status and outputs."""
    import numpy as np

    if code != 0:
        return False
    if command.output is None:  # the norm, printed on stdout
        try:
            value = float(stdout.strip().splitlines()[-1])
        except (ValueError, IndexError):
            return False
        return math.isfinite(value) and value > 0.0
    path = os.path.join(state["dir"], command.output)
    if command.output.endswith(".json"):
        import jsonschema

        with open(path, encoding="utf-8") as handle:
            report = json.load(handle)
        try:
            jsonschema.validate(report, state["schema"])
        except jsonschema.ValidationError:
            return False
        out.margins[command.label] = max(report["residuals"]) / report["tolerance"]
        return bool(report["passed"])
    values = _csv_values(path)
    if values.size != (CLI_N if command.reference is not None else CLI_LINE_N) + 1:
        return False
    if command.reference is None:
        return bool(np.all(np.isfinite(values)))
    mask = np.isfinite(values) & np.isfinite(command.reference)
    error = _rel_error(values, command.reference, mask)
    return out.gate(command.label, error, EXACT_TOL, exact=True)


def _run_script(out, state, script, in_process):
    env = child_env()
    for entry in os.scandir(state["dir"]):  # no output may survive from the last pass
        os.unlink(entry.path)
    for command in script:
        argv = list(command.argv)
        if command.output is not None:
            flag = "--json" if command.output.endswith(".json") else "--out"
            argv += [flag, os.path.join(state["dir"], command.output)]
        out.attempted += 1
        t0 = time.perf_counter()
        if in_process:
            from fracsobolev import cli

            buffer = io.StringIO()
            with contextlib.redirect_stdout(buffer):
                code = cli.main(argv)
            stdout = buffer.getvalue()
        else:
            proc = subprocess.run(
                [sys.executable, "-m", "fracsobolev.cli", *argv],
                env=env, cwd=ROOT, capture_output=True, text=True, timeout=120,
            )
            code, stdout = proc.returncode, proc.stdout
        out.latencies.append(time.perf_counter() - t0)
        if not _passes_cli_gate(out, state, command, code, stdout):
            out.failed += 1


def run_cli(state, tracer=None):
    """One pass over the script as subprocesses, or through ``cli.main``.

    The per-layer run sets ``state["in_process"]`` so that traced and
    untraced passes both call ``cli.main`` in this interpreter.
    """
    out = PassResult()
    _run_script(out, state, state["script"], tracer is not None or state.get("in_process"))
    out.wall_s = sum(out.latencies)
    return out


def cli_probe(state):
    """A fixed sweep of orders and coefficients through ``cli.main``; untimed.

    The relative error of the CSV outputs grows smoothly with the order and
    shifts with the coefficient, so the one seeded pair alone would make
    ``accuracy_digits`` depend on the seed; the sweep pins the worst case.
    """
    out = PassResult()
    script = [command for alpha in CLI_PROBE_ORDERS for coeff in CLI_PROBE_COEFFS
              for command in _linear_commands(alpha, coeff)]
    _run_script(out, state, script, in_process=True)
    return out


def discard(state):
    """Remove the scratch files a workload's state owns."""
    if isinstance(state, dict) and "dir" in state:
        shutil.rmtree(state["dir"], ignore_errors=True)
        with contextlib.suppress(OSError):
            SCRATCH.rmdir()  # only once no other run's files are left


# closed-form accuracy checks run once per run, after the timed passes
PROBES = {"suite": suite_probe, "interval": interval_probe, "cli": cli_probe}

WORKLOADS = {
    "suite": (build_suite, run_suite),
    "interval": (build_interval, run_interval),
    "cli": (build_cli, run_cli),
}
