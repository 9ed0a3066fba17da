"""Command-line front end: compute operators, norms, run verification.

Four commands::

    frac compute deriv  --alpha 0.5 --side left --scheme rl \\
         --fn "const:1" --grid 0,1,1024 --out d.csv
    frac compute integral --alpha 0.5 --fn "const:1" --grid 0,1,1024 --out i.csv
    frac norm --space gagliardo --alpha 0.5 --p 2 --fn "gauss:mu=0;s=1" --line 16,4096
    frac verify ftwfc --alpha 0.5 --fn "kappa:alpha=0.5;side=left" \\
         --grid 0,1,2048 --json report.json
    frac suite all --json reports.json

Exit codes: 0 success, 1 a verification failed, 2 usage error, 3 I/O error.

``--fn`` is required by ``compute`` and ``norm``, and by ``verify`` for a
check that takes a function.  It is given in the spec grammar of the
oracle module, or as a path to a ``x,value`` CSV previously written by
``compute``.  Above its rows a CSV lists the flagged nodes (``# flagged:
i,j``) and writes one ``# left_power: c,e`` or ``# right_power: c,e``
line per recorded endpoint term, lowest exponent first; a file with one
such line per end reads as a one-term record.  A CSV carries its own
grid, so every command rejects ``--grid``/``--line`` beside it.  A spec
is sampled on the interval grid ``--grid a,b,n``, on the line grid
``--line L,n`` (the window ``[-L, L]`` standing for the real line), or
else on ``[0, 1]`` with 2048 cells, which the environment variable
``FRAC_DEFAULT_N`` overrides; ``const`` and ``kappa`` anchor at the base
point of the grid they are sampled on.  Either way the commands get one
sample type, and the grid's mark picks the default scheme; a CSV always
reads back on an interval grid.  Output files are written atomically
(temp file, then rename).  ``--config`` names a JSON file whose keys mirror the command's
long flags; any other key is a usage error, and explicit flags win.

Imports: at start-up this module loads the standard library and the
package's ``__version__`` only, so ``--version``, ``--help`` and usage
errors that need no library check load no numpy.  Each command imports
what it runs when it runs, and calls it through its module
(``verify.canonical_checks()``), so a patched module attribute reaches
every call:

* ``compute`` loads ``core``, ``oracle`` and ``operators``;
* ``norm`` loads those and ``spaces``;
* ``verify`` and ``suite`` load every library module.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile
from typing import TYPE_CHECKING

from . import __version__

if TYPE_CHECKING:
    from .core import Grid, SampledFunction, Side
    from .oracle import ClosedFormFunction
    from .verify import VerificationReport

_SCHEME_ALIASES = {"rl": "product_rl", "gl": "grunwald"}


def __getattr__(name: str):
    """``cli.sample`` is ``oracle.sample``, read on first access.

    The benchmark's tracer test (``perfbench/tests``) reads ``cli.sample``;
    this keeps that name without importing ``oracle`` at start-up.
    """
    if name == "sample":
        from . import oracle

        return oracle.sample
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class _UsageError(ValueError):
    """Invalid flags or parameters — maps to exit status 2."""


# ---------------------------------------------------------------------------
# serialization helpers


def _json_ready(obj):
    """Recursively replace non-finite floats with strings.

    Strict JSON has no Infinity/NaN tokens; an honest failing report can
    contain them, so they travel as ``"inf"``/``"-inf"``/``"nan"``.
    """
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else _format_value(obj)
    if isinstance(obj, dict):
        return {k: _json_ready(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_ready(v) for v in obj]
    return obj


def _atomic_write(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path)) or "."
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".frac-", suffix=".tmp")
    except OSError as exc:
        raise OSError(f"cannot write {path!r}: {exc.strerror or exc}") from exc
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write_json(path: str, payload) -> None:
    _atomic_write(path, json.dumps(_json_ready(payload), sort_keys=True, indent=2) + "\n")


def _format_value(v: float) -> str:
    if math.isnan(v):
        return "nan"
    if math.isinf(v):
        return "inf" if v > 0 else "-inf"
    return f"{v:.17g}"


def _csv_text(u: SampledFunction) -> str:
    lines = ["x,value"]
    vals = u.values.tolist()
    flagged = [i for i, v in enumerate(vals) if not math.isfinite(v)]
    if flagged:
        lines.append("# flagged: " + ",".join(str(i) for i in flagged))
    for tag, terms in (("left_power", u.left_terms), ("right_power", u.right_terms)):
        lines += [f"# {tag}: {_format_value(c)},{_format_value(e)}" for c, e in terms]
    for x, v in zip(u.grid.nodes.tolist(), vals):
        lines.append(f"{_format_value(x)},{_format_value(v)}")
    return "\n".join(lines) + "\n"


def _write_csv(path: str, u: SampledFunction) -> None:
    _atomic_write(path, _csv_text(u))


def _read_csv(path: str) -> SampledFunction:
    terms: dict[str, list[tuple[float, float]]] = {"left_power": [], "right_power": []}
    xs: list[float] = []
    vs: list[float] = []
    with open(path, "r", encoding="utf-8") as handle:
        for raw in handle:
            line = raw.strip()
            if not line or line == "x,value":
                continue
            if line.startswith("#"):
                body = line.lstrip("#").strip()
                for tag in terms:
                    if body.startswith(tag + ":"):
                        c, _, e = body[len(tag) + 1 :].partition(",")
                        terms[tag].append((float(c), float(e)))
                continue
            x, _, v = line.partition(",")
            xs.append(float(x))
            vs.append(float(v))
    if len(xs) < 2:
        raise ValueError(f"CSV {path!r} holds fewer than two samples")
    steps = [b - a for a, b in zip(xs, xs[1:])]
    if not all(abs(s - steps[0]) <= 1e-12 + 1e-9 * abs(steps[0]) for s in steps):
        raise ValueError(f"CSV {path!r} is not uniformly spaced")
    from . import core

    grid = core.Grid(xs[0], xs[-1], len(xs) - 1)
    return core.SampledFunction(grid, vs, *map(core._endpoint_terms, terms.values()))


# ---------------------------------------------------------------------------
# configuration plumbing


def _default_n() -> int:
    raw = os.environ.get("FRAC_DEFAULT_N")
    if raw is None:
        return 2048
    try:
        n = int(raw)
    except ValueError:
        raise _UsageError(f"FRAC_DEFAULT_N must be an integer, got {raw!r}") from None
    if n < 2:
        raise _UsageError(f"FRAC_DEFAULT_N must be at least 2, got {n}")
    return n


def _merge_config(args: argparse.Namespace) -> argparse.Namespace:
    if not getattr(args, "config", None):
        return args
    try:
        with open(args.config, "r", encoding="utf-8") as handle:
            table = json.load(handle)
    except OSError as exc:
        raise OSError(f"cannot read config {args.config!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise _UsageError(f"config {args.config!r} is not valid JSON: {exc}") from exc
    if not isinstance(table, dict):
        raise _UsageError(f"config {args.config!r} must hold a JSON object")
    for key, value in table.items():
        attr = key.replace("-", "_")
        if attr not in args.long_flags:
            raise _UsageError(f"config key {key!r} does not match any flag")
        if getattr(args, attr) is None:
            setattr(args, attr, value)
    return args


def _parse_grid(text: str) -> Grid:
    parts = text.split(",")
    if len(parts) != 3:
        raise _UsageError(f"--grid wants a,b,n — got {text!r}")
    try:
        a, b, n = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError:
        raise _UsageError(f"--grid wants numeric a,b,n — got {text!r}") from None
    from . import core

    try:
        return core.uniform_grid(a, b, n)
    except ValueError as exc:
        raise _UsageError(str(exc)) from exc


def _parse_line(text: str) -> tuple[float, int]:
    parts = text.split(",")
    if len(parts) != 2:
        raise _UsageError(f"--line wants L,n — got {text!r}")
    try:
        half_width, n = float(parts[0]), int(parts[1])
    except ValueError:
        raise _UsageError(f"--line wants numeric L,n — got {text!r}") from None
    if half_width <= 0 or n < 2:
        raise _UsageError(f"--line wants L > 0 and n >= 2 — got {text!r}")
    return half_width, n


def _resolve_function(spec: str, grid: Grid | None, side: Side) -> ClosedFormFunction:
    from . import oracle

    try:
        return oracle.parse_function_spec(spec, grid, side)
    except ValueError as exc:
        raise _UsageError(f"bad function spec {spec!r}: {exc}") from exc


def _function_input(
    args: argparse.Namespace, command: str, on_line: bool = True
) -> tuple[Side, Grid | None, ClosedFormFunction | None, SampledFunction]:
    """``(side, grid, f, u)`` from ``--fn``, ``--side``, ``--grid`` and ``--line``.

    A CSV carries its own grid: ``f`` is None and ``grid`` is ``u``'s.  A
    spec is parsed on the grid it is sampled on, ``--grid`` or else the
    default ``[0, 1]`` grid, or sampled on ``--line`` with ``grid`` None;
    without ``on_line``, ``--line`` is a usage error for ``command``.
    """
    if not args.fn:
        raise _UsageError(f"{command} needs --fn")
    from . import core, oracle

    side = core.Side.parse(args.side or "left")
    grid = _parse_grid(args.grid) if args.grid else None
    line = _parse_line(args.line) if args.line else None
    if grid is not None and line is not None:
        raise _UsageError("give either --grid or --line, not both")
    if line is not None and not on_line:
        raise _UsageError(f"{command} works on interval grids; use --grid")
    if args.fn.endswith(".csv"):
        if grid is not None or line is not None:
            raise _UsageError("CSV input carries its own grid; drop --grid/--line")
        u = _read_csv(args.fn)
        return side, u.grid, None, u
    if line is None and grid is None:
        grid = core.uniform_grid(0.0, 1.0, _default_n())
    f = _resolve_function(args.fn, grid, side)
    u = oracle.sample_line(f, *line) if line is not None else oracle.sample(f, grid)
    return side, grid, f, u


# ---------------------------------------------------------------------------
# commands


def _cmd_compute(args: argparse.Namespace) -> int:
    if args.alpha is None:
        raise _UsageError("compute needs --alpha")
    if args.scheme and args.what != "deriv":
        raise _UsageError("--scheme applies to deriv only")
    side, _, _, u = _function_input(args, f"compute {args.what}", on_line=args.what == "deriv")
    from . import operators

    if args.what == "deriv":
        scheme = args.scheme or operators._default_scheme(u)
        schemes = (*_SCHEME_ALIASES, *operators._SCHEMES)
        if scheme not in schemes:
            raise _UsageError(f"unknown scheme {scheme!r}; pick one of {schemes}")
        scheme = _SCHEME_ALIASES.get(scheme, scheme)
        out = operators.frac_derivative(u, args.alpha, side, scheme=scheme)
    else:
        out = operators.frac_integral(u, args.alpha, side)

    if args.out:
        _write_csv(args.out, out)
    else:
        sys.stdout.write(_csv_text(out))
    return 0


def _cmd_norm(args: argparse.Namespace) -> int:
    if args.space is None:
        raise _UsageError("norm needs --space")
    from . import spaces

    if args.space not in spaces._FAMILIES:
        raise _UsageError(f"unknown space {args.space!r}; pick one of {spaces._FAMILIES}")
    if args.alpha is None:
        raise _UsageError("norm needs --alpha")
    _, _, _, u = _function_input(args, "norm")
    try:
        p = 2.0 if args.p is None else args.p
        spec = spaces.NormSpec(args.space, spaces.FracOrder(args.alpha), p)
        value = spaces.sobolev_norm(u, spec)
    except ValueError as exc:
        raise _UsageError(str(exc)) from exc
    sys.stdout.write(_format_value(value) + "\n")
    if args.json:
        _write_json(
            args.json,
            {
                "space": args.space,
                "alpha": args.alpha,
                "p": spec.p,
                "fn": args.fn,
                "value": value,
                "version": __version__,
            },
        )
    return 0


def _tolerance(args: argparse.Namespace) -> dict:
    return {} if args.tolerance is None else {"tolerance": args.tolerance}


def _verify_ftwfc(args, f, u, grid, side) -> VerificationReport:
    from . import verify

    return verify.check_ftwfc(u, args.alpha, side, **_tolerance(args))


def _verify_weak_pairing(args, f, u, grid, side) -> VerificationReport:
    from . import operators, verify

    v = operators.rl_derivative(u, args.alpha, side)
    return verify.check_weak_pairing(u, v, args.alpha, side, **_tolerance(args))


def _verify_w1p(args, f, u, grid, side) -> VerificationReport:
    from . import verify

    if f is None:
        raise _UsageError("w1p_consistency needs a closed-form --fn")
    return verify.check_consistency_w1p(f, args.alpha, args.p, grid, **_tolerance(args))


def _verify_inclusivity(args, f, u, grid, side) -> VerificationReport:
    from . import verify

    if args.beta is None:
        raise _UsageError("verify inclusivity needs --beta")
    return verify.check_inclusivity(u, args.alpha, args.beta, args.p, **_tolerance(args))


def _verify_density(args, f, u, grid, side) -> VerificationReport:
    from . import verify

    return verify.check_density(u, args.alpha, args.p, args.mode or "smooth")


# check name -> (flags its adapter reads besides --fn, --alpha, --side, --grid, --line; adapter)
_FN_CHECKS = {
    "ftwfc": (("tolerance",), _verify_ftwfc),
    "weak_pairing": (("tolerance",), _verify_weak_pairing),
    "w1p_consistency": (("p", "tolerance"), _verify_w1p),
    "inclusivity": (("beta", "p", "tolerance"), _verify_inclusivity),
    "density": (("p", "mode"), _verify_density),
}
_VERIFY_FLAGS = ("alpha", "p", "side", "grid", "line", "beta", "mode", "tolerance")


def _reject_unused(args: argparse.Namespace, used: tuple[str, ...]) -> None:
    """A flag (or config key) that the run would silently drop is a usage error."""
    for flag in _VERIFY_FLAGS:
        if flag not in used and getattr(args, flag) is not None:
            with_fn = "with" if args.fn else "without"
            raise _UsageError(f"verify {args.check} {with_fn} --fn does not use --{flag}")


def _single_function_check(name: str, args: argparse.Namespace) -> VerificationReport:
    flags, adapter = _FN_CHECKS[name]
    _reject_unused(args, ("alpha", "side", "grid", "line", *flags))
    if args.alpha is None:
        raise _UsageError(f"verify {name} needs --alpha")
    # unset flags take the library's defaults; an explicit 0 goes to the library
    args.p = 2.0 if args.p is None else args.p
    side, grid, f, u = _function_input(args, f"verify {name}", on_line=False)
    return adapter(args, f, u, grid, side)


def _write_status(report: VerificationReport, label: str = "") -> None:
    """One report's PASS/FAIL line on stdout; ``label`` goes before its theorem id."""
    status = "PASS" if report.passed else "FAIL"
    worst = _format_value(max(report.residuals))
    sys.stdout.write(
        f"{status} {label}{report.theorem_id} (worst residual {worst}, "
        f"tolerance {_format_value(report.tolerance)})\n"
    )


def _cmd_verify(args: argparse.Namespace) -> int:
    from . import verify

    checks = verify.canonical_checks()
    name = args.check
    if name not in checks and name not in _FN_CHECKS:
        known = ", ".join(sorted(set(checks) | set(_FN_CHECKS)))
        raise _UsageError(f"unknown check {name!r}; known checks: {known}")
    if args.fn:
        if name not in _FN_CHECKS:
            raise _UsageError(f"verify {name!r} does not take --fn; run it without flags")
        report = _single_function_check(name, args)
    else:
        if name not in checks:
            raise _UsageError(f"verify {name} needs --fn")
        _reject_unused(args, ())
        report = checks[name]()

    _write_status(report)
    if args.json:
        _write_json(args.json, report.to_dict())
    return 0 if report.passed else 1


def _cmd_suite(args: argparse.Namespace) -> int:
    if args.target != "all":
        raise _UsageError(f"the only suite is 'all', got {args.target!r}")
    from . import verify

    reports = []
    failures = 0
    for name, runner in verify.canonical_checks().items():
        report = runner()
        reports.append(report.to_dict())
        if not report.passed:
            failures += 1
        _write_status(report, f"{name}: ")
    sys.stdout.write(
        f"{len(reports) - failures} passed, {failures} failed, {len(reports)} total\n"
    )
    if args.json:
        _write_json(args.json, reports)
    return 0 if failures == 0 else 1


# ---------------------------------------------------------------------------
# argument surface


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="frac",
        description="fractional derivatives, norms, and theorem verification",
    )
    parser.add_argument("--version", action="version", version=f"frac {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--fn", help="function spec or CSV path")
        p.add_argument("--alpha", type=float, help="fractional order")
        p.add_argument("--side", choices=("left", "right"), help="base side")
        p.add_argument("--grid", help="interval grid as a,b,n")
        p.add_argument("--line", help="symmetric line window as L,n")
        p.add_argument("--p", type=float, help="integrability exponent")
        p.add_argument("--config", help="JSON file with flag defaults")

    p_compute = sub.add_parser("compute", help="evaluate an operator to CSV")
    p_compute.add_argument("what", choices=("deriv", "integral"))
    common(p_compute)
    p_compute.add_argument(
        "--scheme",
        help="derivative realization: rl|gl|caputo|marchaud|spectral",
    )
    p_compute.add_argument("--out", help="output CSV path (default: stdout)")
    p_compute.set_defaults(handler=_cmd_compute)

    p_norm = sub.add_parser("norm", help="evaluate a Sobolev-type norm")
    common(p_norm)
    p_norm.add_argument("--space", help="norm family, e.g. gagliardo")
    p_norm.add_argument("--json", help="also write the value as JSON")
    p_norm.set_defaults(handler=_cmd_norm)

    p_verify = sub.add_parser("verify", help="run one theorem check")
    p_verify.add_argument("check", help="check name, e.g. ftwfc")
    common(p_verify)
    p_verify.add_argument("--beta", type=float, help="higher order for inclusivity")
    p_verify.add_argument("--mode", help="density mode: smooth|piecewise_constant")
    p_verify.add_argument("--tolerance", type=float, help="override the pass bar")
    p_verify.add_argument("--json", help="write the report as JSON")
    p_verify.set_defaults(handler=_cmd_verify)

    p_suite = sub.add_parser("suite", help="run every canonical check")
    p_suite.add_argument("target", help="'all'")
    p_suite.add_argument("--config", help="JSON file with flag defaults")
    p_suite.add_argument("--json", help="write all reports as a JSON array")
    p_suite.set_defaults(handler=_cmd_suite)

    for command in sub.choices.values():
        # the attributes a --config key may set: the command's long flags
        flags = {a.dest for a in command._actions if a.option_strings} - {"help"}
        command.set_defaults(long_flags=flags)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        args = _merge_config(args)
        return args.handler(args)
    except ValueError as exc:
        # _UsageError and precondition rejections from the library both
        # land here: bad parameters, not a failed verification.
        sys.stderr.write(f"frac: {exc}\n")
        return 2
    except OSError as exc:
        sys.stderr.write(f"frac: {exc}\n")
        return 3


if __name__ == "__main__":
    sys.exit(main())
