"""Grids, sampled functions, and the shared numerical kernel.

Everything downstream (fractional-order operators, norms, verification
checks) works on uniform grids and identifies a sampled function with its
piecewise-linear interpolant.  There is one sample type,
:class:`SampledFunction`, on one of two kinds of :class:`Grid`: an
interval grid ``[a, b]`` (:func:`uniform_grid`), or a line grid ``[-L,
L]`` (:func:`line_grid`) marked ``on_line``, a window that truncates the
real line, outside which the function is 0.  The mark lives on the grid,
so the operators and norms read it there and keep no type of their own.
This module owns that data model plus the small set of numerical
primitives the operators are built from:

* the Gamma function (with explicit pole errors),
* Grunwald–Letnikov binomial weights,
* product-trapezoidal weights for the one-sided integral with kernel
  ``(x - y)**(alpha - 1)``, exact on piecewise-linear data,
* a discrete Fourier layer with the convention
  ``uhat(xi) = integral u(x) exp(-i xi x) dx``,
* :func:`_endpoint_terms`, the one rule that turns the endpoint power
  terms ``c t^e`` of a function into the record its samples keep,
* :func:`_plan`, the one store of grid-only tables kept between calls
  (the operators' kernel plans, the Fourier tables, the spectral symbols).

Values that are not defined at a node (for example the base node of the
kernel ``(x - a)**(alpha - 1)``) are stored as non-finite entries; the
non-finite value itself is the singular marker and every consumer treats
it that way.
"""

from __future__ import annotations

import enum
import math
import sys
import warnings
from collections.abc import Callable
from dataclasses import dataclass, field, replace

import numpy as np

__all__ = [
    "Side",
    "Grid",
    "SampledFunction",
    "FracOrder",
    "uniform_grid",
    "line_grid",
    "gamma_fn",
    "gl_weights",
    "product_kernels",
    "discrete_fourier",
    "inverse_discrete_fourier",
    "trapezoid",
    "spectral_multiplier",
]


def _warn(message: str) -> None:
    """Emit a ``UserWarning`` that names the first frame outside this package.

    A quantity that does not exist comes back as +inf with a warning, so
    the warning must point at the call that asked for it, however deep in
    the package it is raised.  Every frame whose module is ``fracsobolev``
    or ``fracsobolev.*`` is skipped; ``python -m fracsobolev.cli`` runs as
    ``__main__``, so the command line's warnings name a line of ``cli.py``.
    """
    frame, level = sys._getframe(1), 2  # stacklevel 2 names the caller
    while frame is not None:
        if frame.f_globals.get("__name__", "").partition(".")[0] != "fracsobolev":
            break
        frame, level = frame.f_back, level + 1
    warnings.warn(message, stacklevel=level)


class Side(enum.Enum):
    """Orientation of a one-sided operator.

    LEFT means the operator integrates from the left endpoint ``a``
    (its kernel is singular at ``a``); RIGHT integrates from ``b``.
    """

    LEFT = "left"
    RIGHT = "right"

    @classmethod
    def parse(cls, text: str | Side) -> Side:
        if isinstance(text, Side):
            return text
        try:
            return cls(text.lower())
        except ValueError:
            raise ValueError(f"side must be 'left' or 'right', got {text!r}") from None

    @property
    def opposite(self) -> Side:
        return Side.RIGHT if self is Side.LEFT else Side.LEFT


@dataclass(frozen=True)
class Grid:
    """Uniform grid with ``n`` cells on ``[a, b]``, nodes ``a + j h``.

    ``on_line`` marks the window ``[-L, L]`` of :func:`line_grid`, which
    stands for the real line: samples on it are read as 0 outside the
    window.  Such a window has ``a = -b`` and at least 2 cells.

    .. attribute:: h

        Cell width ``(b - a) / n``.
    """

    a: float
    b: float
    n: int
    on_line: bool = False

    def __post_init__(self) -> None:
        if not (math.isfinite(self.a) and math.isfinite(self.b)):
            raise ValueError(f"grid ends must be finite, got a={self.a}, b={self.b}")
        if not self.b > self.a:
            raise ValueError(f"empty interval: a={self.a}, b={self.b}")
        if self.n < 1:
            raise ValueError(f"need at least one cell, got n={self.n}")
        if self.on_line and (self.a != -self.b or self.n < 2):
            raise ValueError(f"a line window is [-L, L] with at least 3 nodes, got {self!r}")

    def __repr__(self) -> str:
        mark = ", on_line=True" if self.on_line else ""
        return f"Grid(a={self.a!r}, b={self.b!r}, n={self.n!r}{mark})"

    @property
    def h(self) -> float:
        return (self.b - self.a) / self.n

    @property
    def nodes(self) -> np.ndarray:
        """The ``n + 1`` nodes, built once per grid and read-only.

        The same array comes back on every access: it is stored on the
        instance outside the dataclass fields, so equality, hashing and
        ``repr`` still see the fields alone.
        """
        nodes = self.__dict__.get("_nodes")
        if nodes is None:
            nodes = np.linspace(self.a, self.b, self.n + 1)
            nodes.flags.writeable = False
            object.__setattr__(self, "_nodes", nodes)
        return nodes

    @property
    def width(self) -> float:
        return self.b - self.a

    def refine(self, factor: int = 2) -> Grid:
        """Same interval (or line window) with ``factor`` times as many cells."""
        return replace(self, n=self.n * factor)


def uniform_grid(a: float, b: float, n: int) -> Grid:
    """Build the uniform grid with ``n`` cells on ``[a, b]``."""
    return Grid(float(a), float(b), int(n))


def line_grid(half_width: float, n: int) -> Grid:
    """The line window ``[-L, L]`` with ``n`` cells, marked ``on_line``."""
    if half_width <= 0:
        raise ValueError(f"half_width must be positive, got {half_width}")
    return Grid(-float(half_width), float(half_width), int(n), on_line=True)


@dataclass(frozen=True)
class SampledFunction:
    """Nodal samples on a :class:`Grid`, read as the piecewise-linear interpolant.

    ``values`` has length ``grid.n + 1``.  A non-finite entry marks a node
    where the function is singular/undefined (norms and quadratures either
    skip it or, when the behaviour near an end is known, use its record).
    ``left_terms`` records the power terms ``(c, e)`` of ``u(x) ~ sum c
    (x - a)**e`` near ``a``, and ``right_terms`` those of ``sum c (b -
    x)**e`` near ``b``, each as :func:`_endpoint_terms` builds them: the
    lowest exponent first.  ``left_power`` / ``right_power`` read the
    leading term, or None when the end records none.

    On a line grid (``grid.on_line``) the samples stand for a function on
    the real line, 0 outside the window, so they record no endpoint terms.
    The Fourier layer reads its ``n`` periodic samples ``values[:-1]`` (the
    node at ``+L`` is dropped), which is lossless once the function has
    decayed at the ends (:meth:`check_decay`).
    """

    grid: Grid
    values: np.ndarray
    left_terms: tuple[tuple[float, float], ...] = ()
    right_terms: tuple[tuple[float, float], ...] = ()

    def __post_init__(self) -> None:
        vals = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", vals)
        if vals.shape != (self.grid.n + 1,):
            raise ValueError(
                f"values shape {vals.shape} does not match grid with {self.grid.n + 1} nodes"
            )
        if self.grid.on_line and (self.left_power or self.right_power):
            raise ValueError("samples on a line grid record no endpoint terms: the line has no ends")

    @property
    def x(self) -> np.ndarray:
        return self.grid.nodes

    @property
    def left_power(self) -> tuple[float, float] | None:
        """The leading recorded term ``(c, e)`` at ``a``, or None."""
        return self.left_terms[0] if self.left_terms else None

    @property
    def right_power(self) -> tuple[float, float] | None:
        """The leading recorded term ``(c, e)`` at ``b``, or None."""
        return self.right_terms[0] if self.right_terms else None

    def reflected(self) -> SampledFunction:
        """Samples of x -> u(a + b - x) on the same grid."""
        values = self.values[::-1].copy()
        return SampledFunction(self.grid, values, self.right_terms, self.left_terms)

    def interp(self, x: np.ndarray) -> np.ndarray:
        """Evaluate the piecewise-linear interpolant (zero outside [a, b])."""
        return np.interp(x, self.x, self.values, left=0.0, right=0.0)

    def check_decay(self) -> SampledFunction:
        """Warn unless the samples have decayed at both ends; returns ``self``.

        The warning fires when an end value exceeds 1e-8 times the largest
        magnitude: on a line window the Fourier-side operators would then
        see an artificial periodic jump.
        """
        scale = float(np.max(np.abs(self.values))) or 1.0
        edge = max(abs(float(self.values[0])), abs(float(self.values[-1])))
        if edge > 1e-8 * scale:
            _warn(f"function has not decayed at +-L: edge/max = {edge / scale:.3e}")
        return self


# the benchmark's tracer (``perfbench/spans.py``) still patches
# ``LineFunction.interp`` by this name; ROADMAP item 1 drops it, then this alias
LineFunction = SampledFunction


def _summed_terms(terms) -> list[tuple[float, float]]:
    """The terms ``(c, e)`` with equal exponents summed and zero sums dropped.

    Each exponent keeps the place of its first occurrence.
    """
    sums: dict[float, float] = {}
    for coeff, exponent in terms:
        sums[exponent] = sums.get(exponent, 0.0) + coeff
    return [(c, e) for e, c in sums.items() if c != 0.0]


def _endpoint_terms(terms) -> tuple[tuple[float, float], ...]:
    """The record kept for the endpoint power terms ``c t^e``: the one rule.

    Every exponent below 0 is kept, equal exponents sum their
    coefficients, and a zero sum drops out; the lowest exponent comes
    first.
    """
    return tuple(sorted(_summed_terms((c, e) for c, e in terms if e < 0.0), key=lambda t: t[1]))


def _coarsened(u: SampledFunction, step: int) -> SampledFunction:
    """Every ``step``-th node of ``u``: an exact, artifact-free resolution change.

    The extension checks of :mod:`~fracsobolev.verify` take their constant
    at ``n/2`` from it; no norm resamples its input.  Interpolation-based
    refinement of a function with an endpoint singularity plants spurious
    curvature in the first cells, and the fractional derivative amplifies
    it; subsampling cannot.
    """
    n = u.grid.n
    if n % step:
        raise ValueError(f"need a multiple of {step} cells to coarsen, got {n}")
    return replace(u, grid=replace(u.grid, n=n // step), values=u.values[::step].copy())


@dataclass(frozen=True)
class FracOrder:
    """Fractional order ``alpha = m + sigma`` with integer part ``m`` and
    fractional part ``sigma`` in ``(0, 1]``."""

    alpha: float
    m: int = field(init=False)
    sigma: float = field(init=False)

    def __post_init__(self) -> None:
        if not self.alpha > 0:
            raise ValueError(f"order must be positive, got {self.alpha}")
        m = int(math.ceil(self.alpha)) - 1
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "sigma", self.alpha - m)


def gamma_fn(x):
    """Gamma function, with explicit errors at the poles.

    Accurate to better than 1e-12 relative on ``(0, 50]`` and defined for
    negative non-integer arguments by reflection.  Raises ``ValueError`` at
    zero and the negative integers instead of returning a non-finite value,
    so callers that hit a pole must handle it deliberately (the operator
    layer encodes ``1/Gamma(pole) = 0`` explicitly where annihilation is
    the intended meaning).
    """
    # Python and numpy scalars and 0-d arrays skip the array round trip
    if isinstance(x, (int, float)) or np.ndim(x) == 0:
        value = float(x)
        if value <= 0.0 and (value.is_integer() or value == -math.inf):
            raise ValueError(f"gamma pole at non-positive integer argument {value}")
        return _gamma(value)
    arr = np.asarray(x, dtype=float)
    at_pole = (arr <= 0) & (arr == np.floor(arr))
    if np.any(at_pole):
        raise ValueError(f"gamma pole at non-positive integer argument {arr[at_pole][0]}")
    return np.vectorize(_gamma, otypes=[float])(arr)


def _gamma(x: float) -> float:
    try:
        return math.gamma(x)
    except OverflowError:  # past x ~ 171.6 the value is beyond the float range
        return math.inf


def gl_weights(alpha: float, count: int) -> np.ndarray:
    """First ``count + 1`` Grunwald–Letnikov weights for order ``alpha``.

    ``w_0 = 1`` and ``w_k = w_{k-1} (k - 1 - alpha) / k``, i.e. the signed
    binomial coefficients ``(-1)^k C(alpha, k)``.
    """
    if count < 0:
        raise ValueError("count must be non-negative")
    k = np.arange(1.0, count + 1.0)
    w = np.empty(count + 1)
    w[0] = 1.0
    w[1:] = np.cumprod((k - 1.0 - alpha) / k)
    return w


# product_kernels sums binomial series of this many terms per parity for
# the cells m - 1 >= _SERIES_FROM max(1, |alpha - 1|)
_SERIES_FROM = 17
_SERIES_TERMS = 6


def product_kernels(alpha: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Convolution kernels behind the product-trapezoidal integral.

    For the piecewise-linear interpolant, the one-sided integral of order
    ``alpha`` at node ``j`` is

        I_j = h**alpha / Gamma(alpha) * (sum_m fL(m) u[j-m] + fR(m) u[j-m+1])

    over cells ``m = 1..j``.  Returns ``(fL, fR)`` for ``m = 1..n`` where,
    with ``M = m - 1``,

        fL(m) = int_0^1 (M + s)**(a-1) s ds     = P(m) - M Q(m),
        fR(m) = int_0^1 (M + s)**(a-1) (1-s) ds = m Q(m) - P(m),
        P(m) = (m**(a+1) - (m-1)**(a+1)) / (a+1),
        Q(m) = (m**a - (m-1)**a) / a.

    The closed forms subtract terms of size ``m**a`` to leave ``m**(a-1)``
    and lose about ``log10(m**2)`` digits, so from ``M >= 17 max(1, |a-1|)``
    on the kernels come from the binomial series of ``(c + s)**(a-1)``
    about the cell midpoint ``c = M + 1/2``, ``|s| <= 1/2``.  Odd powers of
    ``s`` drop out of the symmetric part and even ones out of the other:
    with ``y = (2c)**-2 <= 1/35**2``,

        fL, fR = c**(a-1) (S + A / (2c)), c**(a-1) (S - A / (2c)),
        S = sum_j C(a-1, 2j) y**j / (4j + 2),
        A = sum_j C(a-1, 2j+1) y**j / (4j + 6),

    each summed by Horner over ``_SERIES_TERMS`` terms (the first one
    left out is below 1e-18 of the sum).  At ``alpha = 1`` both collapse
    to the composite trapezoid rule.
    """
    m = np.arange(1, n + 1, dtype=float)
    cut = min(n, math.ceil(_SERIES_FROM * max(1.0, abs(alpha - 1.0))))
    near = m[:cut]
    pa = np.power(near, alpha + 1.0) - np.power(near - 1.0, alpha + 1.0)
    qa = np.power(near, alpha) - np.power(near - 1.0, alpha)
    p = pa / (alpha + 1.0)
    q = qa / alpha
    f_left = np.empty(n)
    f_right = np.empty(n)
    f_left[:cut] = p - (near - 1.0) * q
    f_right[:cut] = near * q - p

    mid = m[cut:] - 0.5
    y = 0.25 / (mid * mid)
    binom = [1.0]  # C(alpha - 1, k)
    for k in range(1, 2 * _SERIES_TERMS):
        binom.append(binom[-1] * (alpha - k) / k)
    even = [binom[2 * j] / (4 * j + 2) for j in range(_SERIES_TERMS)]
    odd = [binom[2 * j + 1] / (4 * j + 6) for j in range(_SERIES_TERMS)]
    sym = np.full_like(mid, even[-1])
    anti = np.full_like(mid, odd[-1])
    for c_even, c_odd in zip(even[-2::-1], odd[-2::-1]):
        sym *= y
        sym += c_even
        anti *= y
        anti += c_odd
    lead = np.power(mid, alpha - 1.0)
    sym *= lead
    anti *= lead
    anti *= 0.5 / mid
    np.add(sym, anti, out=f_left[cut:])
    np.subtract(sym, anti, out=f_right[cut:])
    return f_left, f_right


def _log_offsets(t_min: float, t_max: float) -> tuple[np.ndarray, np.ndarray]:
    """Offsets from ``t_min`` to ``t_max``, 80 per decade in ``log t`` (at least 8).

    With the trapezoid weights in ``log t``, ``sum(w * t * g(t))`` approximates
    ``integral g(t) dt``: the Marchaud and Gagliardo offset integrals.
    """
    count = max(8, int(round(80 * math.log10(t_max / t_min))) + 1)
    s = np.linspace(math.log(t_min), math.log(t_max), count)
    ds = s[1] - s[0]
    weights = np.full(count, ds)
    weights[0] = weights[-1] = ds / 2.0
    return np.exp(s), weights


def _fit_slope(x: np.ndarray, y: np.ndarray) -> float:
    """Least-squares slope ``sum (x - xbar)(y - ybar) / sum (x - xbar)^2``.

    Closed form with ``np.sum`` rather than a library fit, whose least-squares
    solve goes through BLAS and changes its last bits with the BLAS kernel.
    """
    dx = x - np.sum(x) / x.size
    dy = y - np.sum(y) / y.size
    return float(np.sum(dx * dy) / np.sum(dx * dx))


def _is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


# the last key and value of each build function; see _plan
_plans: dict[Callable, tuple[tuple, object]] = {}


def _plan(build: Callable, *key):
    """``build(*key)``, reusing the last value of that build function when the key repeats.

    The package's one store of tables kept between calls: the kernel plans
    of :mod:`~fracsobolev.operators`, the Fourier tables and the spectral
    symbols.  Each depends only on the grid and the order, and callers
    apply one operator to many functions on one grid.  One slot per build
    function keeps the value of the last key at every size: a miss frees
    the slot's value, then builds and keeps the new one.  Every kept array
    is read-only and a function of its key alone, so a reused value gives
    bitwise the result of a fresh one.
    """
    entry = _plans.get(build)
    if entry is not None and entry[0] == key:
        return entry[1]
    _plans.pop(build, None)  # free the old value before building the new one
    value = build(*key)
    _plans[build] = (key, value)
    return value


def _fourier_plan(n: int, half_width: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(xi, dx * exp(i xi L), exp(-i xi L))`` for ``n`` samples of ``[-L, L]``.

    The frequencies and the forward and inverse phases of
    :func:`discrete_fourier` and :func:`inverse_discrete_fourier`.
    """
    dx = 2.0 * half_width / n
    xi = 2.0 * np.pi * np.fft.fftfreq(n, d=dx)
    forward = dx * np.exp(-1j * xi * (-half_width))
    inverse = np.exp(1j * xi * (-half_width))
    tables = (xi, forward, inverse)
    for table in tables:
        table.flags.writeable = False
    return tables


def _symbol_plan(n: int, half_width: float, alpha: float) -> dict[Side, np.ndarray]:
    """:func:`spectral_multiplier` of both sides on the frequencies of ``(n, L)``.

    Both sides are built together, so a run that alternates sides reuses
    them.
    """
    xi = _plan(_fourier_plan, n, half_width)[0]
    symbols = {side: spectral_multiplier(xi, alpha, side) for side in Side}
    for symbol in symbols.values():
        symbol.flags.writeable = False
    return symbols


def discrete_fourier(values: np.ndarray, half_width: float) -> tuple[np.ndarray, np.ndarray]:
    """Approximate ``uhat(xi) = integral u(x) exp(-i xi x) dx`` on ``[-L, L]``.

    ``values`` are the ``n`` periodic samples at ``x_j = -L + j (2L/n)``.
    A count that is not a power of two is zero-padded up to one, ``N``: the
    padded window extends to the right at the samples' own spacing, which
    refines the frequency grid but represents the same function.  Returns
    ``(xi, uhat)`` with ``xi = 2 pi k / (N 2L/n)`` on the standard FFT
    layout, read-only and shared between calls with the same ``(n, L)``.
    The rule is the rectangle rule at the samples' spacing, which is what
    makes the discrete Parseval identity exact.
    """
    u = np.asarray(values, dtype=complex)
    if u.ndim != 1:
        raise ValueError("values must be a 1-d array")
    n = u.size
    size = 1 << (n - 1).bit_length()
    wide = half_width * size / n  # exactly L when nothing is padded
    xi, forward, _ = _plan(_fourier_plan, size, wide)
    uhat = forward * np.fft.fft(u, size)
    if size != n:  # the tables' window [-L', L') starts at -L
        uhat *= np.exp(-1j * xi * (wide - half_width))
    return xi, uhat


def inverse_discrete_fourier(uhat: np.ndarray, half_width: float) -> np.ndarray:
    """Invert :func:`discrete_fourier`; round-trips to ~1e-15."""
    spec = np.asarray(uhat, dtype=complex)
    n = spec.size
    if not _is_power_of_two(n):
        raise ValueError("spectrum length must be a power of two")
    _, _, inverse = _plan(_fourier_plan, n, half_width)
    return np.fft.ifft(spec * inverse / (2.0 * half_width / n))


def _spectrum(u: SampledFunction) -> tuple[np.ndarray, np.ndarray]:
    """:func:`discrete_fourier` of the periodic samples of a line window, after the decay test.

    Warns when more than 1e-8 of the spectral energy sits in the top
    frequency quartile (aliasing), and when ``u`` has not decayed.
    """
    u.check_decay()
    xi, uhat = discrete_fourier(u.values[:-1], u.grid.b)
    energy = np.abs(uhat) ** 2
    top = np.abs(xi) >= 0.75 * float(np.max(np.abs(xi)))
    fraction = float(np.sum(energy[top])) / (float(np.sum(energy)) or 1.0)
    if fraction > 1e-8:
        _warn(
            f"aliasing suspected: fraction {fraction:.2e} of the spectral "
            "energy sits in the top frequency quartile"
        )
    return xi, uhat


def trapezoid(values: np.ndarray, h: float) -> float:
    """Composite trapezoid rule on equispaced nodal values."""
    v = np.asarray(values, dtype=float)
    if v.size < 2:
        return 0.0
    return float(h * (np.sum(v) - 0.5 * (v[0] + v[-1])))


def spectral_multiplier(xi: np.ndarray, alpha: float, side: Side | str = Side.LEFT) -> np.ndarray:
    """Principal-branch symbol ``(+-i xi)^alpha`` of the one-sided derivative.

    Left derivative has symbol ``(i xi)^alpha = |xi|^alpha
    exp(i pi alpha sgn(xi) / 2)``; right is the complex conjugate.  The
    value at ``xi = 0`` is 0 for any positive order.
    """
    side = Side.parse(side)
    sign = 1.0 if side is Side.LEFT else -1.0
    mag = np.abs(xi) ** alpha
    return mag * np.exp(1j * sign * 0.5 * np.pi * alpha * np.sign(xi))
