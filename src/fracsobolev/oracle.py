"""Closed-form functions whose fractional calculus is known exactly.

This is the independent reference the numerical operators are tested
against.  The family is closed under the one-sided fractional integral
and derivative via the Euler power rule

    I^a : c (x - r)^b  ->  c Gamma(b+1)/Gamma(b+1+a) (x - r)^(b+a)
    D^a : c (x - r)^b  ->  c Gamma(b+1)/Gamma(b+1-a) (x - r)^(b-a)

(one-sided: the left form vanishes for x < r, the right form mirrors it).
A step ``H 1(x>c)`` is the power ``H (x - c)^0``, so ``I^a`` maps it to
``H (x - c)^a / Gamma(1+a)`` and ``D^a`` to ``H (x - c)^-a / Gamma(1-a)``.
The kernel ``(x - a)**(alpha - 1)`` is the exponent ``b = a - 1``
member; its derivative exponent lands on the Gamma pole ``b - a = -1``
and the term is annihilated (the zero is encoded explicitly, never
computed as a division by an overflowing Gamma).

A Gaussian's one-sided derivative has the closed form ``D^a_left
exp(-x^2/2) = exp(-x^2/4) D_a(-x)`` (the right one is the same at ``-x``),
with ``D_a`` the parabolic cylinder function (NIST DLMF 12.5).  numpy has
no ``D_a``, so Gaussians are only sampled; bumps have no closed form.
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
    gamma_fn,
    line_grid,
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
    "sample",
    "sample_line",
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
        return _one_sided_powers(t, self.terms)


def _one_sided_powers(t: np.ndarray, terms) -> np.ndarray:
    """``sum c t^e`` over the terms ``(c, e)`` where ``t >= 0``, and 0 where ``t < 0``."""
    inside = t >= 0.0
    out = np.zeros_like(t)
    for c, e in terms:
        # a negative t raises to a NaN that the mask drops
        with np.errstate(divide="ignore", invalid="ignore"):
            power = 1.0 if e == 0.0 else np.power(t, e)
        out += np.where(inside, c * power, 0.0)
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
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            bump = self.height * np.exp(1.0 - 1.0 / (1.0 - s**2))
        return np.where(np.abs(s) < 1.0, bump, 0.0)

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


def _euler_image(f: ClosedFormFunction, order: float, side: Side) -> ClosedFormFunction:
    """Euler power rule image: ``I^order`` for ``order > 0``, ``D^-order`` for ``order < 0``.

    A step enters as its height, a power ``t^0`` anchored at the jump.
    An exponent that lands on the Gamma pole ``-1`` drops out.
    """
    if isinstance(f, FunctionSum):
        return FunctionSum(tuple(_euler_image(p, order, side) for p in f.parts))
    if not isinstance(f, (PowerSum, Step)):
        raise UnsupportedFamilyError(
            f"no closed-form fractional {'integral' if order > 0 else 'derivative'} "
            f"for {type(f).__name__}; use the numerical operators"
        )
    _require_orientation(f, side)
    if isinstance(f, Step):
        f = PowerSum(f.c, ((f.height, 0.0),), f.orientation)
    terms = tuple(
        (c * gamma_fn(b + 1.0) / gamma_fn(b + 1.0 + order), b + order)
        for c, b in f.terms
        if abs(b + order + 1.0) > _POLE_TOL
    )
    return PowerSum(f.anchor, terms, f.orientation)


def oracle_frac_integral(f: ClosedFormFunction, alpha: float, side: Side | str = Side.LEFT) -> ClosedFormFunction:
    """Exact one-sided fractional integral of order ``alpha`` on the family."""
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    return _euler_image(f, alpha, Side.parse(side))


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
    if kind == "rl":
        return _euler_image(f, -alpha, side)
    if isinstance(f, FunctionSum):
        return FunctionSum(tuple(oracle_frac_derivative(p, alpha, side, kind) for p in f.parts))
    if isinstance(f, Step):
        raise UnsupportedFamilyError("Caputo derivative needs an absolutely continuous function")
    rl = _euler_image(f, -alpha, side)
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
    kernel = PowerSum(f.anchor, ((-base_value / gamma_fn(1.0 - alpha), -alpha),), f.orientation)
    return FunctionSum((rl, kernel))


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
        t = x - f.anchor if f.orientation is Side.LEFT else f.anchor - x
        return _one_sided_powers(t, [(sgn * c * b, b - 1.0) for c, b in f.terms if b != 0.0])
    if isinstance(f, Gaussian):
        return f.value(x) * (-(x - f.mu) / f.s**2)
    if isinstance(f, Bump):
        s = (x - f.center) / f.radius
        with np.errstate(divide="ignore", invalid="ignore"):
            slope = f.value(x) * (-2.0 * s / (1.0 - s**2) ** 2) / f.radius
        return np.where(np.abs(s) < 1.0, slope, 0.0)
    raise UnsupportedFamilyError(f"no classical derivative for {type(f).__name__}")


def sample(f: ClosedFormFunction, grid: Grid) -> SampledFunction:
    """Evaluate ``f`` at the nodes, recording singular endpoint behaviour.

    Each end records the leading power of the power sums anchored there
    and oriented into the grid as ``left_power`` / ``right_power``, and its
    node holds the non-finite marker that singular-aware consumers look
    for.  Equal exponents are summed, in one power sum or across several,
    and an exponent whose coefficients cancel records nothing
    (:func:`~fracsobolev.core._leading_power`).

    Every part of ``f`` is evaluated in its own frame: a power sum anchored
    at the right end at the reflection's distances ``x_{n-j} - a``, alone
    or inside a sum, since the right-side operators subtract its power
    again there and ``b - x_j`` can round apart; every other part at the
    nodes.  An end that records no power holds the limit of ``f`` from
    inside the domain: its cancelled exponents drop out, and a power sum
    anchored at that end but oriented away from the domain adds 0.
    """
    ends = ((0, grid.a, Side.LEFT), (grid.n, grid.b, Side.RIGHT))
    leaves = _leaves(f)
    powers = [
        _leading_power([term for p in leaves if _anchored(p, base, side) for term in p.terms])
        for _, base, side in ends
    ]
    values = None
    with np.errstate(divide="ignore", invalid="ignore"):
        for leaf in leaves:
            if _anchored(leaf, grid.b, Side.RIGHT):
                part = _one_sided_powers(grid.nodes - grid.a, leaf.terms)[::-1].copy()
            else:
                part = np.asarray(leaf.value(grid.nodes), dtype=float)
            for (node, base, side), power in zip(ends, powers):
                if power is None and isinstance(leaf, PowerSum) and abs(leaf.anchor - base) < 1e-14:
                    inside = leaf.orientation is side
                    part[node] = sum(c for c, e in leaf.terms if e == 0.0) if inside else 0.0
            values = part if values is None else values + part
    return SampledFunction(grid, values, left_power=powers[0], right_power=powers[1])


def _leaves(f: ClosedFormFunction) -> tuple[ClosedFormFunction, ...]:
    """The parts of ``f`` that are not sums, nested sums flattened."""
    if isinstance(f, FunctionSum):
        return tuple(leaf for part in f.parts for leaf in _leaves(part))
    return (f,)


def _anchored(f: ClosedFormFunction, base: float, side: Side) -> bool:
    """Whether ``f`` is a power sum one-sided from the endpoint ``base``."""
    return isinstance(f, PowerSum) and f.orientation is side and abs(f.anchor - base) < 1e-14


def sample_line(f: ClosedFormFunction, half_width: float, n: int) -> LineFunction:
    """Evaluate ``f`` over ``[-L, L]`` and run the decay check."""
    grid = line_grid(half_width, n)
    values = np.asarray(f.value(grid.nodes), dtype=float)
    return LineFunction(half_width, values).check_decay()


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
        anchor = _base_point(grid, side)
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
        anchor = _base_point(grid, kside)
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


def _base_point(grid: Grid | None, side: Side) -> float:
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
