"""Closed-form functions whose fractional calculus is known exactly.

This is the independent reference the numerical operators are tested
against.  The family is closed under the one-sided fractional integral
and derivative via the Euler power rule

    I^a : c (x - r)^b  ->  c Gamma(b+1)/Gamma(b+1+a) (x - r)^(b+a)
    D^a : c (x - r)^b  ->  c Gamma(b+1)/Gamma(b+1-a) (x - r)^(b-a)

(one-sided: the left form vanishes for x < r, the right form mirrors it),
together with the step-function images

    I^a [H 1(x>c)] = H (x - c)^a / Gamma(1+a) 1(x>c)
    D^a [H 1(x>c)] = H (x - c)^-a / Gamma(1-a) 1(x>c).

The kernel ``(x - a)**(alpha - 1)`` is the exponent ``b = a - 1`` member;
its derivative exponent lands on the Gamma pole ``b - a = -1`` and the
term is annihilated (the zero is encoded explicitly, never computed as a
division by an overflowing Gamma).

Gaussians and mollifier bumps carry no closed-form one-sided calculus;
for those the high-resolution spectral reference is the oracle.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from .core import (
    Grid,
    LineFunction,
    SampledFunction,
    Side,
    _leading_power,
    discrete_fourier,
    gamma_fn,
    inverse_discrete_fourier,
    line_grid,
    spectral_multiplier,
    trapezoid,
)

__all__ = [
    "UnsupportedFamilyError",
    "ClosedFormFunction",
    "PowerSum",
    "Step",
    "Gaussian",
    "Bump",
    "FunctionSum",
    "oracle_frac_integral",
    "oracle_frac_derivative",
    "classical_derivative_values",
    "value_at_base",
    "sample",
    "sample_line",
    "gaussian_spectral_reference",
    "spectral_multiplier",
    "parse_function_spec",
    "describe_function",
]

_POLE_TOL = 1e-12


class UnsupportedFamilyError(ValueError):
    """Raised when a closed-form operation is not defined for the family."""


class ClosedFormFunction:
    """Base class; subclasses implement ``value`` on numpy arrays."""

    def value(self, x: np.ndarray) -> np.ndarray:  # pragma: no cover - abstract
        raise NotImplementedError

    def __add__(self, other: "ClosedFormFunction") -> "FunctionSum":
        mine = self.parts if isinstance(self, FunctionSum) else (self,)
        theirs = other.parts if isinstance(other, FunctionSum) else (other,)
        return FunctionSum(mine + theirs)


@dataclass(frozen=True)
class PowerSum(ClosedFormFunction):
    """``sum c_i (x - anchor)^{b_i}`` one-sided from the anchor.

    ``orientation`` LEFT reads the monomials in ``(x - anchor)`` and sets
    the value to zero for ``x < anchor``; RIGHT uses ``(anchor - x)`` and
    vanishes for ``x > anchor``.  Exponents must be greater than -1 so the
    function is locally integrable.
    """

    anchor: float
    terms: tuple[tuple[float, float], ...]
    orientation: Side = Side.LEFT

    def __post_init__(self) -> None:
        object.__setattr__(self, "terms", tuple((float(c), float(b)) for c, b in self.terms))
        for _, b in self.terms:
            if b <= -1.0:
                raise ValueError(f"exponent {b} is not locally integrable (need > -1)")

    def value(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        t = x - self.anchor if self.orientation is Side.LEFT else self.anchor - x
        out = np.zeros_like(t)
        inside = t >= 0.0
        with np.errstate(divide="ignore"):
            for c, b in self.terms:
                if b == 0.0:
                    out[inside] += c
                else:
                    out[inside] += c * np.power(t[inside], b)
        return out


@dataclass(frozen=True)
class Step(ClosedFormFunction):
    """``height * 1(x > c)`` (LEFT) or ``height * 1(x < c)`` (RIGHT)."""

    c: float
    height: float
    orientation: Side = Side.LEFT

    def value(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if self.orientation is Side.LEFT:
            return np.where(x > self.c, self.height, 0.0)
        return np.where(x < self.c, self.height, 0.0)


@dataclass(frozen=True)
class Gaussian(ClosedFormFunction):
    """``exp(-(x - mu)^2 / (2 s^2))``."""

    mu: float
    s: float

    def __post_init__(self) -> None:
        if self.s <= 0:
            raise ValueError("width must be positive")

    def value(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        return np.exp(-0.5 * ((x - self.mu) / self.s) ** 2)


@dataclass(frozen=True)
class Bump(ClosedFormFunction):
    """Standard mollifier bump, supported on ``|x - center| < radius``.

    ``height * exp(1 - 1/(1 - s^2))`` with ``s = (x - center)/radius``,
    normalised so the peak value is ``height``.
    """

    center: float
    radius: float
    height: float = 1.0

    def __post_init__(self) -> None:
        if self.radius <= 0:
            raise ValueError("radius must be positive")

    def value(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        s = (x - self.center) / self.radius
        out = np.zeros_like(s)
        inside = np.abs(s) < 1.0
        si = s[inside]
        out[inside] = self.height * np.exp(1.0 - 1.0 / (1.0 - si**2))
        return out

    @property
    def support(self) -> tuple[float, float]:
        return (self.center - self.radius, self.center + self.radius)


@dataclass(frozen=True)
class FunctionSum(ClosedFormFunction):
    parts: tuple[ClosedFormFunction, ...]

    def value(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        out = np.zeros_like(x)
        for p in self.parts:
            out = out + p.value(x)
        return out


def _require_orientation(f: ClosedFormFunction, side: Side) -> None:
    got = getattr(f, "orientation", None)
    if got is not None and got is not side:
        raise UnsupportedFamilyError(
            f"{type(f).__name__} is {got.value}-oriented; the {side.value}-sided "
            "oracle needs a matching orientation"
        )


def oracle_frac_integral(f: ClosedFormFunction, alpha: float, side: Side | str = Side.LEFT) -> ClosedFormFunction:
    """Exact one-sided fractional integral of order ``alpha`` on the family."""
    side = Side.parse(side)
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    if isinstance(f, FunctionSum):
        return FunctionSum(tuple(oracle_frac_integral(p, alpha, side) for p in f.parts))
    if isinstance(f, PowerSum):
        _require_orientation(f, side)
        terms = tuple(
            (c * gamma_fn(b + 1.0) / gamma_fn(b + 1.0 + alpha), b + alpha) for c, b in f.terms
        )
        return PowerSum(f.anchor, terms, f.orientation)
    if isinstance(f, Step):
        _require_orientation(f, side)
        return PowerSum(f.c, ((f.height / gamma_fn(1.0 + alpha), alpha),), f.orientation)
    raise UnsupportedFamilyError(
        f"no closed-form fractional integral for {type(f).__name__}; "
        "use the numerical operators or the spectral reference"
    )


def oracle_frac_derivative(
    f: ClosedFormFunction,
    alpha: float,
    side: Side | str = Side.LEFT,
    kind: str = "rl",
) -> ClosedFormFunction:
    """Exact one-sided fractional derivative of order ``alpha in (0, 1)``.

    ``kind="rl"`` applies the Euler rule with explicit annihilation of
    exponents landing on ``-1`` (the kernel's own derivative).  ``kind=
    "caputo"`` subtracts the base-value kernel term, and requires a family
    member that is absolutely continuous up to the base point.
    """
    side = Side.parse(side)
    if not 0.0 < alpha < 1.0:
        raise ValueError("oracle derivative implemented for 0 < alpha < 1")
    if kind not in ("rl", "caputo"):
        raise ValueError(f"unknown derivative kind {kind!r}")
    if isinstance(f, FunctionSum):
        return FunctionSum(tuple(oracle_frac_derivative(p, alpha, side, kind) for p in f.parts))
    if isinstance(f, Step):
        if kind == "caputo":
            raise UnsupportedFamilyError("Caputo derivative needs an absolutely continuous function")
        _require_orientation(f, side)
        return PowerSum(f.c, ((f.height / gamma_fn(1.0 - alpha), -alpha),), f.orientation)
    if not isinstance(f, PowerSum):
        raise UnsupportedFamilyError(
            f"no closed-form fractional derivative for {type(f).__name__}; "
            "use the numerical operators or the spectral reference"
        )
    _require_orientation(f, side)
    terms = []
    for c, b in f.terms:
        new_exp = b - alpha
        if abs(new_exp + 1.0) <= _POLE_TOL:
            # Gamma pole annihilates the kernel exponent b = alpha - 1.
            continue
        terms.append((c * gamma_fn(b + 1.0) / gamma_fn(b + 1.0 - alpha), new_exp))
    rl = PowerSum(f.anchor, tuple(terms), f.orientation)
    if kind == "rl":
        return rl
    for _, b in f.terms:
        if b < 0.0:
            raise UnsupportedFamilyError(
                "Caputo derivative needs an absolutely continuous function "
                f"(offending exponent {b} at anchor {f.anchor})"
            )
    # Constant terms are read as anchored at the base point (the parser and
    # the batteries only build them there); their base value feeds the
    # kernel correction below.
    base_value = sum(c for c, b in f.terms if b == 0.0)
    if base_value == 0.0:
        return rl
    kernel_term = PowerSum(
        f.anchor, ((-base_value / gamma_fn(1.0 - alpha), -alpha),), f.orientation
    )
    return FunctionSum((rl, kernel_term))


def value_at_base(f: ClosedFormFunction, base: float) -> float:
    """Limit of ``f`` at a base point, taken from inside the domain.

    The one-sided families already encode their limits in ``value``
    (``0^0 = 1`` for constants, ``inf`` for negative exponents at the
    anchor), so this is plain evaluation with overflow warnings silenced.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        return float(np.asarray(f.value(np.asarray([float(base)]))).flat[0])


def classical_derivative_values(f: ClosedFormFunction, x: np.ndarray) -> np.ndarray:
    """Nodal values of the classical derivative f' (exact per family)."""
    x = np.asarray(x, dtype=float)
    if isinstance(f, FunctionSum):
        out = np.zeros_like(x)
        for p in f.parts:
            out = out + classical_derivative_values(p, x)
        return out
    if isinstance(f, PowerSum):
        sgn = 1.0 if f.orientation is Side.LEFT else -1.0
        t = (x - f.anchor) if f.orientation is Side.LEFT else (f.anchor - x)
        out = np.zeros_like(t)
        inside = t >= 0.0
        with np.errstate(divide="ignore"):
            for c, b in f.terms:
                if b == 0.0:
                    continue
                out[inside] += sgn * c * b * np.power(t[inside], b - 1.0)
        return out
    if isinstance(f, Gaussian):
        return f.value(x) * (-(x - f.mu) / f.s**2)
    if isinstance(f, Bump):
        s = (x - f.center) / f.radius
        out = np.zeros_like(s)
        inside = np.abs(s) < 1.0
        si = s[inside]
        out[inside] = f.value(x[inside]) * (-2.0 * si / (1.0 - si**2) ** 2) / f.radius
        return out
    raise UnsupportedFamilyError(f"no classical derivative for {type(f).__name__}")


def sample(f: ClosedFormFunction, grid: Grid) -> SampledFunction:
    """Evaluate ``f`` at the nodes, recording singular endpoint behaviour.

    If ``f`` contains one-sided power terms with negative exponents
    anchored at an endpoint of the grid, the sample carries the matching
    ``left_power`` / ``right_power`` metadata and the endpoint node itself
    holds the non-finite marker that singular-aware consumers look for.
    Equal exponents anchored at one end are summed, in one power sum or
    across several, and an exponent whose coefficients cancel records
    nothing (:func:`~fracsobolev.core._leading_power`).
    """
    left = _endpoint_power(f, grid.a, Side.LEFT)
    right = _endpoint_power(f, grid.b, Side.RIGHT)
    with np.errstate(divide="ignore", invalid="ignore"):
        if _anchored(f, grid.b, Side.RIGHT):
            # the reflection's distances x_{n-j} - a, at which the right-side
            # operators subtract the power again; b - x_j can round apart
            values = PowerSum(grid.a, f.terms).value(grid.nodes)[::-1].copy()
        else:
            values = np.asarray(f.value(grid.nodes), dtype=float)
    return SampledFunction(grid, values, left_power=left, right_power=right)


def _endpoint_power(f: ClosedFormFunction, base: float, side: Side) -> tuple[float, float] | None:
    """:func:`~fracsobolev.core._leading_power` of every term of ``f`` anchored at ``base``."""

    def terms(g: ClosedFormFunction) -> list[tuple[float, float]]:
        if isinstance(g, FunctionSum):
            return [term for part in g.parts for term in terms(part)]
        return list(g.terms) if _anchored(g, base, side) else []

    return _leading_power(terms(f))


def _anchored(f: ClosedFormFunction, base: float, side: Side) -> bool:
    """Whether ``f`` is a power sum one-sided from the endpoint ``base``."""
    return isinstance(f, PowerSum) and f.orientation is side and abs(f.anchor - base) < 1e-14


def sample_line(f: ClosedFormFunction, half_width: float, n: int) -> LineFunction:
    """Evaluate ``f`` over ``[-L, L]`` and run the decay check."""
    grid = line_grid(half_width, n)
    values = np.asarray(f.value(grid.nodes), dtype=float)
    return LineFunction(half_width, values).check_decay()


def gaussian_spectral_reference(
    f: ClosedFormFunction,
    alpha: float,
    side: Side | str = Side.LEFT,
    half_width: float = 16.0,
    n: int = 1 << 16,
) -> LineFunction:
    """High-resolution spectral fractional derivative on the line.

    Reference realization for rapidly decaying functions (Gaussians,
    bumps, and sums of them): run an ``n = 2^16``-point transform,
    multiply the spectrum by the one-sided symbol, transform back, and
    return the restriction to ``[-half_width, half_width]``.

    The transform itself lives on a window 16 times wider than the
    requested one, and the folded tail images are removed analytically.
    Both matter: the one-sided derivative of a decaying function picks up
    an algebraic ``|x|^(-1-alpha)`` far tail, and a periodic transform
    folds that tail back into the window — at the requested window size
    the folded images would pollute the reference at the 1e-2 level, two
    orders above its advertised accuracy.  Beyond the support the tail is
    ``-alpha/Gamma(1-alpha) integral u(y) (x-y)^(-1-alpha) dy``, so each
    image is known through the moments of ``u``; subtracting the
    moment expansion (through second order, with the image sum's own
    tail handled by an integral remainder) pushes the fold-back below
    1e-7 relative.  The default sizes leave the output step equal to a
    4096-cell grid on the requested window, so coarse realizations
    compare node-for-node.  The imaginary residue is checked small
    before being discarded.
    """
    side = Side.parse(side)
    widen = 16
    wide = widen * half_width
    if n % (2 * widen):
        raise ValueError(f"n must be a multiple of {2 * widen}")
    grid = line_grid(wide, n)
    vals = np.asarray(f.value(grid.nodes), dtype=float)
    scale = float(np.max(np.abs(vals))) or 1.0
    inside = np.abs(grid.nodes) <= half_width
    edge = float(np.max(np.abs(vals[~inside]))) if np.any(~inside) else 0.0
    if edge > 1e-10 * scale:
        raise ValueError("function has not decayed inside +-half_width; enlarge the window")
    xi, uhat = discrete_fourier(vals[:-1], wide)
    dhat = spectral_multiplier(xi, alpha, side) * uhat
    d = inverse_discrete_fourier(dhat, wide)
    imag = float(np.max(np.abs(d.imag)))
    real_scale = float(np.max(np.abs(d.real))) or 1.0
    if imag > 1e-8 * real_scale:
        raise ValueError(f"spectral derivative has non-negligible imaginary part ({imag:.2e})")
    closed = np.concatenate([d.real, d.real[:1]])
    j0 = (n * (widen - 1)) // (2 * widen)
    out = closed[j0 : j0 + n // widen + 1].copy()
    out += _foldback_correction(grid.nodes, vals, grid.h, out.size, half_width, wide, alpha, side)
    return LineFunction(half_width, out, decay_checked=True)


def _foldback_correction(
    x_wide: np.ndarray,
    vals: np.ndarray,
    dx: float,
    n_out: int,
    half_width: float,
    wide: float,
    alpha: float,
    side: Side,
) -> np.ndarray:
    """Analytic removal of the periodized far tail of the one-sided derivative.

    For the left derivative and ``x`` beyond the support of ``u``, the
    exact value is ``-alpha/Gamma(1-alpha) integral u(y) (x-y)^(-1-alpha)
    dy``; the transform adds one such image per period.  Expanding
    ``(z - y)^(-s)`` in moments of ``u`` about 0 (monopole, dipole,
    quadrupole) and summing over image offsets ``z = x + 2 * wide * k``
    gives the folded mass to subtract.  The right side mirrors with the
    odd moments' signs flipped.
    """
    residue = 1.0 - alpha
    if residue <= 0 and residue == round(residue):
        # integer order: the derivative is local, there is no far tail,
        # and 1/Gamma at the pole is an exact zero
        return np.zeros(n_out)
    m0 = trapezoid(vals, dx)
    m1 = trapezoid(vals * x_wide, dx)
    m2 = trapezoid(vals * x_wide * x_wide, dx)
    x_out = np.linspace(-half_width, half_width, n_out)
    zbase = x_out if side is Side.LEFT else -x_out
    period = 2.0 * wide
    count = 256
    k = np.arange(1, count + 1, dtype=float)
    z = zbase[None, :] + period * k[:, None]
    s = 1.0 + alpha
    moment = (m0, m1 if side is Side.LEFT else -m1, m2)
    weight = (1.0, s, s * (s + 1.0) / 2.0)
    tail = np.zeros_like(x_out)
    for j in range(3):
        power = s + j
        series = np.sum(z**-power, axis=0)
        # integral remainder for the images past the last summed one
        series += (zbase + period * (count + 0.5)) ** (1.0 - power) / (period * (power - 1.0))
        tail += weight[j] * moment[j] * series
    return alpha / gamma_fn(1.0 - alpha) * tail


# ---------------------------------------------------------------------------
# textual function specs (shared with the command line)

_SPEC_RE = re.compile(r"^(?P<head>[a-z]+):(?P<body>.*)$")


def parse_function_spec(
    text: str,
    grid: Grid | None = None,
    side: Side | str = Side.LEFT,
) -> ClosedFormFunction:
    """Parse specs like ``pow:a=0;terms=1*-0.5,2*1.3`` or ``gauss:mu=0;s=1``.

    Grammar (``+`` joins summands):

    * ``pow:a=<anchor>;terms=<c>*<b>[,<c>*<b>...]`` one-sided power sum
    * ``step:c=<jump>;h=<height>``
    * ``gauss:mu=<center>;s=<width>``
    * ``bump:c=<center>;r=<radius>[;h=<height>]``
    * ``const:<value>`` (anchored at the grid base for the given side)
    * ``kappa:alpha=<order>;side=<left|right>`` the kernel ``(x-a)^(alpha-1)``

    ``const`` and ``kappa`` need the target grid to know their base point.
    """
    side = Side.parse(side)
    pieces = [p.strip() for p in text.split("+")]
    parsed = [_parse_single(p, grid, side) for p in pieces if p]
    if not parsed:
        raise ValueError(f"empty function spec {text!r}")
    if len(parsed) == 1:
        return parsed[0]
    return FunctionSum(tuple(parsed))


def _parse_single(text: str, grid: Grid | None, side: Side) -> ClosedFormFunction:
    m = _SPEC_RE.match(text.strip())
    if not m:
        raise ValueError(f"malformed function spec {text!r}")
    head, body = m.group("head"), m.group("body")
    if head == "const":
        value = float(body)
        anchor = _base_point(grid, side, head)
        return PowerSum(anchor, ((value, 0.0),), side)
    fields = _parse_fields(body, head)
    if head == "pow":
        anchor = float(_need(fields, "a", head))
        raw = _need(fields, "terms", head)
        terms = []
        for term in raw.split(","):
            c, _, b = term.partition("*")
            terms.append((float(c), float(b)))
        _reject_extras(fields, head)
        return PowerSum(anchor, tuple(terms), side)
    if head == "step":
        c = float(_need(fields, "c", head))
        h = float(fields.pop("h", "1"))
        _reject_extras(fields, head)
        return Step(c, h, side)
    if head == "gauss":
        mu = float(_need(fields, "mu", head))
        width = float(_need(fields, "s", head))
        _reject_extras(fields, head)
        return Gaussian(mu, width)
    if head == "bump":
        c = float(_need(fields, "c", head))
        r = float(_need(fields, "r", head))
        h = float(fields.pop("h", "1"))
        _reject_extras(fields, head)
        return Bump(c, r, h)
    if head == "kappa":
        alpha = float(_need(fields, "alpha", head))
        kside = Side.parse(fields.pop("side", side.value))
        _reject_extras(fields, head)
        if not 0.0 < alpha < 1.0:
            raise ValueError("kappa needs 0 < alpha < 1")
        anchor = _base_point(grid, kside, head)
        return PowerSum(anchor, ((1.0, alpha - 1.0),), kside)
    raise ValueError(f"unknown function family {head!r}")


def _parse_fields(body: str, head: str) -> dict[str, str]:
    fields: dict[str, str] = {}
    for chunk in body.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        key, eq, val = chunk.partition("=")
        if not eq:
            raise ValueError(f"expected key=value in {head!r} spec, got {chunk!r}")
        fields[key.strip()] = val.strip()
    return fields


def _need(fields: dict[str, str], key: str, head: str) -> str:
    try:
        return fields.pop(key)
    except KeyError:
        raise ValueError(f"{head!r} spec is missing required field {key!r}") from None


def _reject_extras(fields: dict[str, str], head: str) -> None:
    if fields:
        raise ValueError(f"unknown fields for {head!r}: {sorted(fields)}")


def _base_point(grid: Grid | None, side: Side, head: str) -> float:
    if grid is None:
        return 0.0
    return grid.a if side is Side.LEFT else grid.b


def _fmt(x: float) -> str:
    return repr(float(x))


def describe_function(f: ClosedFormFunction) -> str:
    """Render a function back into the spec grammar.

    Inverse of :func:`parse_function_spec` for the default (left)
    orientation; right-oriented power sums and steps carry a
    ``side=right`` field the parser only understands for ``kappa``, so
    those descriptions are labels rather than round-trippable specs.
    """
    if isinstance(f, FunctionSum):
        return " + ".join(describe_function(p) for p in f.parts)
    if isinstance(f, PowerSum):
        terms = ",".join(f"{_fmt(c)}*{_fmt(b)}" for c, b in f.terms)
        text = f"pow:a={_fmt(f.anchor)};terms={terms}"
        if f.orientation is not Side.LEFT:
            text += ";side=right"
        return text
    if isinstance(f, Step):
        text = f"step:c={_fmt(f.c)};h={_fmt(f.height)}"
        if f.orientation is not Side.LEFT:
            text += ";side=right"
        return text
    if isinstance(f, Gaussian):
        return f"gauss:mu={_fmt(f.mu)};s={_fmt(f.s)}"
    if isinstance(f, Bump):
        return f"bump:c={_fmt(f.center)};r={_fmt(f.radius)};h={_fmt(f.height)}"
    raise TypeError(f"cannot describe {type(f).__name__}")
