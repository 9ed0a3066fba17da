"""Numerical realizations of the one-sided fractional operators.

Grid-side operators identify a :class:`SampledFunction` with its
piecewise-linear interpolant:

* ``frac_integral``   product-trapezoidal rule, exact on piecewise-linear
  input, evaluated as one lower-triangular Toeplitz product against the
  merged kernel of both cell ends,
* ``rl_derivative``   the exact derivative-of-lifted-integral form
  (differentiate ``I^{1-alpha}`` of the interpolant analytically; never a
  finite difference of the integral),
* ``gl_derivative``   truncated Grunwald-Letnikov sum (zero extension
  behind the base point),
* ``caputo_derivative``  the lower-order integral of the interpolant's
  slope, so the classical relation ``D = u(a) kernel + Caputo`` holds to
  machine precision at the discrete level.

Every one-sided grid operator is a Volterra convolution, and all of them
go through the one primitive :func:`_toeplitz`: the first ``_DIRECT_SIZE``
outputs are direct sums, and those of longer inputs past them come from
real FFT products over prefixes that grow by ``_LEVEL_FACTOR``, each
padded only as far as the outputs it keeps need (the
Hairer-Lubich-Schlichte split into a direct head and an FFT tail, with the
tail in levels).  The values next to the base node, which the endpoint
extrapolation and the singular-power fit read, are therefore exact sums
at every grid size, and the FFT roundoff of an output is relative to
terms at most a few levels further out.  The product is linear, so the
head or a level that reads only zero samples is skipped and its outputs
are exact zeros: an all-zero input (the regular part of a pure power) and
the leading zeros of a compactly supported bump cost no transform.  Every
output that is computed is bitwise what the full path gives.

What ``_toeplitz`` applies is a kernel plan (:class:`_Plan`): the direct
head taps, the level boundaries and pads, and the kernel's spectrum on
every level.  The kernels depend only on the order and the grid (for
Marchaud also the window), so :func:`~fracsobolev.core._plan` keeps the
last plan of each kind (product trapezoid, L1 slope, Grunwald-Letnikov,
Marchaud), shared by both sides and by every caller, as it keeps the
Fourier tables and spectral symbols.  Every plan is kept, whatever its
size: the spectra take 18 to 27 bytes per cell and ``base`` 8 more (1.4
and 1.9 MB at ``2^16`` cells).

Orders ``alpha = m + sigma`` above one take the order-``sigma`` operator
and then ``m`` steps of :func:`nodal_derivative`, the one first derivative
on interval and line grids: it flags the neighbours of a flagged node and
carries each endpoint power through the plain d/dx, so a recorded power
that the integer derivatives make non-integrable still reaches the norms.

Line-side operators (``marchaud_derivative``, ``spectral_derivative``)
act on samples on a line grid (``grid.on_line``), a window of the real
line; every operator returns samples on its input's grid.  On the uniform
grid the Marchaud integral is linear in the samples with a fixed kernel,
so it is one more :func:`_toeplitz` product.  ``frac_derivative``
dispatches through the ``_SCHEMES`` table, which the CLI also lists, and
the norms and the CLI take :func:`_default_scheme` when none is named.

Every right side is the reflection conjugate of the left code path:
reflect the data through the midpoint, apply the left algorithm, reflect
back.  :func:`_mirrored` does this for the operators (through the
decorator :func:`_reflection_conjugate`), for ``spaces.trace`` and for
``verify.extend_exterior``; :func:`kappa` is the left kernel, reflected.
The change of variables shows this reproduces the right-sided operator
with the orientation conventions in which constants have derivative
``u(b) (b-x)^{-alpha} / Gamma(1-alpha)`` and the kernel
``(b-x)^{alpha-1}`` is annihilated; no separate right-side quadrature
exists, which is also what makes the left/right mirror tests exact.

A non-finite base node marks kernel-type data.  Those inputs are split as
``u = sum_i c_i (x-a)^(e_i) + r``: the terms are the sample's record at
the base (:attr:`~fracsobolev.core.SampledFunction.left_terms`) when it
has one, otherwise one term fitted from the two nodes nearest the base
(exact for pure powers).  Each term is mapped by the exact Euler rule,
the quadrature only ever sees the regular remainder, and the output
records every image whose exponent is below 0.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Callable
from dataclasses import dataclass, replace

import numpy as np

from .core import (
    FracOrder,
    Grid,
    SampledFunction,
    Side,
    _endpoint_terms,
    _log_offsets,
    _plan,
    _spectrum,
    _symbol_plan,
    _warn,
    gamma_fn,
    gl_weights,
    inverse_discrete_fourier,
    line_grid,
    product_kernels,
)

__all__ = [
    "KernelConstant",
    "frac_integral",
    "rl_derivative",
    "gl_derivative",
    "caputo_derivative",
    "marchaud_derivative",
    "marchaud_small_offset_bound",
    "spectral_derivative",
    "frac_derivative",
    "kappa",
    "endpoint_constant",
    "nodal_derivative",
]

_ANNIHILATION_TOL = 1e-12
# convolutions of up to this many samples, and this many leading outputs
# of longer ones, are direct sums (see _toeplitz)
_DIRECT_SIZE = 256
# past the direct head, outputs [L, 4 L) come from the first 4 L samples;
# the top level keeps [L, n), n < 8 L, from all n samples
_LEVEL_FACTOR = 4


@dataclass(frozen=True, eq=False)
class _Plan:
    """A kernel made ready for :func:`_toeplitz` products with ``n`` samples.

    ``head`` holds the first ``min(n, _DIRECT_SIZE)`` taps, summed
    directly; ``levels`` holds ``(start, stop, size, spectrum)`` for each
    FFT level, which keeps outputs ``[start, stop)``, with ``spectrum =
    rfft(k[:stop], size)`` and ``size`` the power of two at least ``2 stop
    - 1 - start`` (see :func:`_toeplitz`).  ``base`` holds the taps the
    operator adds as ``x[0] * base`` to the product, for a base value the
    Toeplitz form counts wrongly: the product kernel's right-end taps,
    negated, and Marchaud's blend of ``x[0]`` with the zero left of the
    window (None for the other kernels).  Every array is read-only.
    """

    n: int
    head: np.ndarray
    levels: tuple[tuple[int, int, int, np.ndarray], ...]
    base: np.ndarray | None = None

    @classmethod
    def build(cls, k: np.ndarray, n: int, base: np.ndarray | None = None) -> _Plan:
        """Plan the kernel ``k`` (at least ``n`` entries; later ones are ignored)."""
        if k.size < n:
            raise ValueError(f"kernel of {k.size} entries planned for {n} samples")
        levels = []
        start = _DIRECT_SIZE
        while start < n:
            stop = _LEVEL_FACTOR * start
            if 2 * stop > n:
                stop = n
            # wrapped terms land only below start: the pad is the power of two
            # >= 2 stop - 1 - start
            size = 1 << (2 * stop - 2 - start).bit_length()
            levels.append((start, stop, size, np.fft.rfft(k[:stop], size)))
            start = stop
        plan = cls(n, k[: min(n, _DIRECT_SIZE)].copy(), tuple(levels), base)
        for array in plan.arrays():
            array.flags.writeable = False
        return plan

    def arrays(self) -> list[np.ndarray]:
        extra = [] if self.base is None else [self.base]
        return [self.head, *(level[3] for level in self.levels), *extra]


def _toeplitz(x: np.ndarray, plan: _Plan) -> np.ndarray:
    """First ``len(x)`` terms of the convolution ``x * k`` of the planned kernel ``k``.

    This is the lower-triangular Toeplitz product ``out[j] = sum_{i<=j}
    k[j-i] x[i]``, with ``plan`` a :class:`_Plan` of ``k`` for ``len(x)``
    samples.  The first ``min(n, _DIRECT_SIZE)`` outputs, ``n = len(x)``,
    are direct sums over the plan's head, and the rest come in levels:
    outputs ``[L, 4 L)`` from the product of the first ``4 L``
    samples for ``L = _DIRECT_SIZE, 4 _DIRECT_SIZE, ...`` while ``2 * 4 L
    <= n``, and the remaining outputs from the product of all ``n``.  A
    level ``[start, stop)`` is one ``rfft``/``irfft`` pair zero-padded to
    the power of two at least ``2 stop - 1 - start``: the terms that wrap
    around land on outputs below ``start``, which the level discards.  An
    FFT's error is relative to the largest terms it sums, so the small
    values next to the base node are exact sums, and each level's roundoff
    is relative to terms at most ``4`` (on the top level ``8``) times
    further out instead of to the far end of the grid.  The lower levels
    cost at most about 0.6 of the top product.

    The plan holds the kernel's spectrum for every level, so a kernel
    applied to many inputs is transformed once.  The trimmed pad halves the
    top product of the ``n + 1`` samples of :func:`frac_integral` and
    :func:`gl_derivative` on ``2^m`` cells, to the pad of the ``n`` slopes
    of :func:`rl_derivative`.  With levels growing by 8, the trim cost
    accuracy: ``frac_integral`` of ``x`` at 1024 and 2048 cells had a worst
    relative error of 6.4e-15 against 3.8e-15 untrimmed, and the canonical
    suite's worst error grew from 10^-14.40 to 10^-14.20.  Levels growing
    by 4 read the values just past the direct head from a product of 1024
    samples, and with the trim they give 2.2e-15 and 10^-14.69.

    The product is linear, so every output below the index ``z`` of the
    first non-zero sample is zero (NaN and inf count as non-zero, ``-0.0``
    as zero).  An all-zero input gives ``np.zeros(n)``; otherwise the
    direct head is skipped when ``z >= _DIRECT_SIZE``, and so is every
    level with ``stop <= z``, and their outputs are exact zeros.  The
    kernel-type samples reach this: the regular part left after splitting
    off a pure power is all zero, and a compactly supported bump starts
    with zeros.  Every part that runs reads the same samples, pad and
    spectrum as without the skip, so every other output is bitwise
    unchanged.
    """
    n = x.size
    if plan.n != n:
        raise ValueError(f"kernel plan for {plan.n} samples applied to {n}")
    nonzero = x != 0.0
    z = int(nonzero.argmax())
    if not nonzero[z]:
        return np.zeros(n)
    out = np.zeros(n)
    head = slice(plan.head.size)
    if z < plan.head.size:
        out[head] = np.convolve(x[head], plan.head)[head]
    for start, stop, size, spectrum in plan.levels:
        if stop <= z:
            continue
        product = np.fft.rfft(x[:stop], size)
        product *= spectrum
        out[start:stop] = np.fft.irfft(product, size)[start:stop]
    return out


@dataclass(frozen=True)
class KernelConstant:
    """Coefficient of the endpoint kernel recovered from sampled data.

    ``residual_estimate`` is the disagreement between extrapolations from
    different triples, on the same scale as ``c_value``.
    """

    c_value: float
    side: Side
    alpha: FracOrder
    residual_estimate: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.c_value):
            raise ValueError("endpoint constant must be finite")
        if self.residual_estimate < 0:
            raise ValueError("residual estimate must be non-negative")

    def reflected(self) -> KernelConstant:
        """The same constant for the mirrored data: only the side flips."""
        return replace(self, side=self.side.opposite)


def _mirrored(side: Side | str, left: Callable, data, reflect=None, back=None):
    """``left(data)`` on the left side; ``back(left(reflect(data)))`` on the right.

    ``reflect`` and ``back`` default to ``.reflected()``.
    """
    if Side.parse(side) is Side.LEFT:
        return left(data)
    out = left(data.reflected() if reflect is None else reflect(data))
    return out.reflected() if back is None else back(out)


def _reflection_conjugate(op):
    """Run the left-sided body ``op(u, alpha)`` for either ``side`` through :func:`_mirrored`.

    Its ``side`` parameter only keeps the public signature.
    """

    @functools.wraps(op)
    def operator(u, alpha: float, side: Side | str = Side.LEFT):
        return _mirrored(side, lambda v: op(v, alpha), u)

    return operator


# ---------------------------------------------------------------------------
# singular-base bookkeeping


def _base_power(u: SampledFunction) -> tuple[tuple[float, float], ...]:
    """The power terms ``(coeff, exponent)`` of ``u`` at the left base node.

    The sample's record wins; otherwise fit one term from the two nodes
    nearest the base (exact for a pure power).  Returns ``()`` when the
    base node is finite or when no credible singular fit exists (in which
    case the caller patches the node by linear extrapolation).
    """
    if np.isfinite(u.values[0]):
        return ()
    if u.left_terms:
        return u.left_terms
    v1, v2 = float(u.values[1]), float(u.values[2])
    if not (np.isfinite(v1) and np.isfinite(v2)) or v1 == 0.0 or v2 == 0.0:
        return ()
    ratio = v2 / v1
    if ratio <= 0.0 or ratio >= 1.0:
        return ()  # not decaying away from the base: no singular power
    exponent = math.log2(ratio)
    if exponent <= -1.0 + 1e-9:
        raise ValueError(
            f"base-node singularity fits exponent {exponent:.4f} <= -1: not locally integrable"
        )
    if exponent > -1e-4:
        return ()
    coeff = v1 / u.grid.h**exponent
    return ((coeff, exponent),)


def _split_left_singular(
    u: SampledFunction,
) -> tuple[np.ndarray, tuple[tuple[float, float], ...]]:
    """Return (regular part nodal values, power terms) with u = regular + sum of the terms.

    With a finite base node the regular part is ``u.values`` itself, not a
    copy: callers only read it.
    """
    vals = u.values
    if np.isfinite(vals[0]):
        if not np.all(np.isfinite(vals)):
            raise ValueError("non-finite samples away from the base node")
        return vals, ()
    terms = _base_power(u)
    if not terms:
        # no credible power behaviour: patch the marker node and move on
        vals = vals.copy()
        vals[0] = 2.0 * vals[1] - vals[2]
        if not np.all(np.isfinite(vals)):
            raise ValueError("non-finite samples away from the base node")
        return vals, ()
    regular = _power_values(u.grid, *terms[0])
    with np.errstate(invalid="ignore"):
        # the base node is inf - inf; overwritten just below
        for term in terms[1:]:
            regular += _power_values(u.grid, *term)
        np.subtract(vals, regular, out=regular)
    regular[0] = 0.0
    if not np.all(np.isfinite(regular)):
        raise ValueError("samples keep a singular residue after removing the fitted power")
    return regular, terms


def _power_values(grid: Grid, coeff: float, exponent: float) -> np.ndarray:
    """Nodal values of ``coeff (x-a)^exponent`` with the base-node marker."""
    t = grid.nodes - grid.a
    with np.errstate(divide="ignore", invalid="ignore"):
        out = coeff * np.power(t, exponent)
    if exponent == 0.0:
        out = np.full(grid.n + 1, coeff)
    return out


def _euler_image(
    coeff: float, exponent: float, shift: float
) -> tuple[float, float] | None:
    """Euler rule ``(c, b) -> (c G(b+1)/G(b+1+shift), b+shift)``; None if annihilated."""
    target = exponent + shift
    if abs(target + 1.0) <= _ANNIHILATION_TOL:
        return None
    if abs(target) <= _ANNIHILATION_TOL:
        # snap to an exact constant so a fitted exponent's rounding noise
        # cannot leave a spurious singularity marker on the base node
        target = 0.0
    return (coeff * gamma_fn(exponent + 1.0) / gamma_fn(target + 1.0), target)


# ---------------------------------------------------------------------------
# the integral


def _product_plan(alpha: float, n: int) -> _Plan:
    """Merged product-trapezoid kernel of both cell ends, for ``n + 1`` samples.

    Cell ``m`` contributes ``fL(m) u[j-m] + fR(m) u[j-m+1]``, so tap ``m``
    is ``fR(m+1) + fL(m)``; ``base`` keeps the ``fR`` taps alone, negated.
    """
    f_left, f_right = product_kernels(alpha, n)
    kernel = np.append(f_right, 0.0)
    base = -kernel
    kernel[1:] += f_left
    return _Plan.build(kernel, n + 1, base=base)


@_reflection_conjugate
def frac_integral(u: SampledFunction, alpha: float, side: Side | str = Side.LEFT) -> SampledFunction:
    """One-sided fractional integral of the piecewise-linear interpolant.

    Exact (up to roundoff) whenever ``u`` is piecewise linear on its own
    grid.  The value at the base node is the exact limit 0 (or the mapped
    power value when a kernel-type part was split off).
    """
    if not 0.0 < alpha <= 1.0:
        raise ValueError("frac_integral implemented for 0 < alpha <= 1")
    regular, terms = _split_left_singular(u)
    grid = u.grid
    plan = _plan(_product_plan, alpha, grid.n)
    out = _toeplitz(regular, plan)
    if regular[0] != 0.0:
        # the right-end kernel also reaches the missing cell m = j + 1 through u[0]
        out += regular[0] * plan.base
    out *= grid.h**alpha / gamma_fn(alpha)

    images = [image for term in terms if (image := _euler_image(*term, shift=alpha)) is not None]
    for image in images:
        out = out + np.nan_to_num(_power_values(grid, *image), nan=0.0, posinf=0.0, neginf=0.0)
    record = _endpoint_terms(images)
    if record:
        out[0] = math.copysign(math.inf, record[0][0])
    return SampledFunction(grid, out, record)


# ---------------------------------------------------------------------------
# derivatives on the grid


def _slope_plan(alpha: float, n: int) -> _Plan:
    """Kernel ``m^(1-alpha) - (m-1)^(1-alpha)``, ``m = 1..n``, of the slope integral."""
    m = np.arange(1, n + 1, dtype=float)
    return _Plan.build(np.power(m, 1.0 - alpha) - np.power(m - 1.0, 1.0 - alpha), n)


def _l1_slope_sum(regular: np.ndarray, grid: Grid, alpha: float) -> np.ndarray:
    """``I^{1-alpha}`` of the interpolant's slope, at nodes 1..n (index 0 unused)."""
    n = grid.n
    slopes = np.diff(regular) / grid.h
    conv = _toeplitz(slopes, _plan(_slope_plan, alpha, n))
    out = np.zeros(n + 1)
    np.multiply(grid.h ** (1.0 - alpha) / gamma_fn(2.0 - alpha), conv, out=out[1:])
    return out


@_reflection_conjugate
def rl_derivative(u: SampledFunction, alpha: float, side: Side | str = Side.LEFT) -> SampledFunction:
    """Riemann-Liouville derivative of the interpolant, exact at nodes >= 1.

    Computed as the analytic derivative of the lower-order integral of the
    piecewise-linear lift: base-value kernel term plus the order
    ``1 - alpha`` integral of the slope.  The base node itself carries the
    non-finite marker (the one-sided derivative is not defined there).
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("rl_derivative implemented for 0 < alpha < 1")
    regular, terms = _split_left_singular(u)
    grid = u.grid
    out = _l1_slope_sum(regular, grid, alpha)
    base_val = regular[0]
    singular_terms: list[tuple[float, float]] = []
    if base_val != 0.0:
        t = grid.nodes - grid.a
        with np.errstate(divide="ignore"):
            out[1:] += base_val * np.power(t[1:], -alpha) / gamma_fn(1.0 - alpha)
        singular_terms.append((base_val / gamma_fn(1.0 - alpha), -alpha))
    for term in terms:
        image = _euler_image(*term, shift=-alpha)
        if image is not None:
            out[1:] += _power_values(grid, *image)[1:]
            singular_terms.append(image)
    out[0] = math.inf
    return SampledFunction(grid, out, _endpoint_terms(singular_terms))


def _gl_plan(alpha: float, n: int) -> _Plan:
    """Grunwald-Letnikov weights ``w_0..w_n`` for ``n + 1`` samples."""
    return _Plan.build(gl_weights(alpha, n), n + 1)


@_reflection_conjugate
def gl_derivative(u: SampledFunction, alpha: float, side: Side | str = Side.LEFT) -> SampledFunction:
    """Truncated Grunwald-Letnikov derivative (zero extension past the base).

    First-order accurate for functions vanishing at the base point; needs
    finite nodal values everywhere, so kernel-type samples are rejected.
    At ``alpha = 1`` the weights collapse to the first backward
    difference quotient.
    """
    if not 0.0 < alpha <= 1.0:
        raise ValueError("gl_derivative implemented for 0 < alpha <= 1")
    vals = u.values
    if not np.all(np.isfinite(vals)):
        raise ValueError("Grunwald-Letnikov needs finite nodal values everywhere")
    out = _toeplitz(vals, _plan(_gl_plan, alpha, u.grid.n)) / u.grid.h**alpha
    return SampledFunction(u.grid, out)


@_reflection_conjugate
def caputo_derivative(u: SampledFunction, alpha: float, side: Side | str = Side.LEFT) -> SampledFunction:
    """Caputo derivative: the order ``1 - alpha`` integral of the slope.

    Exact for the interpolant, and satisfies the discrete form of the
    classical split (RL = base-value kernel + Caputo) to machine
    precision against :func:`rl_derivative`.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("caputo_derivative implemented for 0 < alpha < 1")
    if not np.all(np.isfinite(u.values)):
        raise ValueError("Caputo needs samples of a function, finite up to the base point")
    return SampledFunction(u.grid, _l1_slope_sum(u.values, u.grid, alpha))


def nodal_derivative(u: SampledFunction) -> SampledFunction:
    """Second-order finite-difference first derivative at the nodes.

    The package's one first-derivative step: :func:`frac_derivative`
    applies it ``m`` times above order one, the norms build the classical
    chain ``u, u', ..., u^(m)`` from it, and the Marchaud sub-grid model
    reads its slope.  A non-finite node reads as 0 and the two nodes on
    each side of it come back non-finite, so ``m`` steps flag ``2 m`` nodes
    on each side and leave every other value as ``m`` gradients of the
    zero-filled samples.  An endpoint power ``c t^e``, ``t`` the distance
    from that end, maps through the plain d/dx to ``(c e, e - 1)`` at the
    left end and ``(-c e, e - 1)`` at the right, term by term; ``e = 0``
    records none.
    """
    flagged = ~np.isfinite(u.values)
    out = np.gradient(np.where(flagged, 0.0, u.values), u.grid.h, edge_order=2)
    # the end stencils (edge_order=2) reach two nodes: flag all within two
    out[np.convolve(flagged, np.ones(5))[2:-2] > 0.0] = math.inf

    def slope(terms, sign: float) -> tuple[tuple[float, float], ...]:
        return tuple((sign * c * e, e - 1.0) for c, e in terms if e != 0.0)

    return SampledFunction(u.grid, out, slope(u.left_terms, 1.0), slope(u.right_terms, -1.0))


def frac_derivative(
    u: SampledFunction, alpha: float, side: Side | str = Side.LEFT, scheme: str = "product_rl"
) -> SampledFunction:
    """Dispatch on scheme; orders above one add integer derivatives.

    For ``alpha = m + sigma`` with ``m >= 1`` the fractional part runs
    first and ``m`` steps of :func:`nodal_derivative` follow, which carry
    the endpoint powers, so a singularity the norms cannot integrate
    still reaches them (the spectral scheme uses its symbol directly at
    any order).
    """
    side = Side.parse(side)
    order = FracOrder(alpha)
    if scheme not in _SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}; expected one of {tuple(_SCHEMES)}")
    if scheme == "spectral":
        return spectral_derivative(u, alpha, side)
    if scheme == "marchaud" and not u.grid.on_line:
        raise ValueError("Marchaud derivative acts on line functions")
    if scheme in ("product_rl", "caputo") and u.grid.on_line:
        raise ValueError(f"scheme {scheme!r} acts on interval grids")
    if order.sigma == 1.0:
        d, steps = u, order.m + 1
    else:
        d, steps = _SCHEMES[scheme](u, order.sigma, side), order.m
    for _ in range(steps):
        d = nodal_derivative(d)
    return d


# ---------------------------------------------------------------------------
# derivatives on the line


def _marchaud_plan(alpha: float, half_width: float, n: int) -> _Plan:
    """Kernel of :func:`marchaud_derivative` on a window of ``n`` cells."""
    h = line_grid(half_width, n).h
    offsets, weight = _log_offsets(h / 2.0, 2.0 * half_width)
    # (u(x)-u(x-t)) t^{-1-alpha} summed by the trapezoid rule in log-offset
    # space, whose Jacobian t leaves the weight w t^{-alpha} per offset
    weight *= offsets**-alpha
    # each offset t = (k + theta) h adds to taps k and k+1, and u(x_j) to tap 0
    k, theta = np.divmod(offsets / h, 1.0)
    k = k.astype(int)
    size = n + 2
    near = weight * (1.0 - theta)
    kernel = -(np.bincount(k, near, size) + np.bincount(k + 1, weight * theta, size))
    kernel[0] += weight.sum()
    # base: the (1-theta) u[0] taps at outputs j = k with theta > 0, which
    # the interpolant reads as the 0 left of the window
    behind = theta > 0.0
    return _Plan.build(kernel, n + 1, base=np.bincount(k[behind], near[behind], n + 1))


@_reflection_conjugate
def marchaud_derivative(u: SampledFunction, alpha: float, side: Side | str = Side.LEFT) -> SampledFunction:
    """Marchaud form of the one-sided derivative on the truncated line.

    ``alpha/Gamma(1-alpha) * integral (u(x) - u(x-t)) / t^(1+alpha) dt``
    over ``t > 0`` (left side; the right side mirrors it), with offsets
    from :func:`~fracsobolev.core._log_offsets` between ``h/2`` and the
    window diameter and the sub-grid part of the integral modelled at
    first order through the local slope.  The unresolved remainder is
    bounded by :func:`marchaud_small_offset_bound`.

    An offset ``t = (k + theta) h`` reads the interpolant at
    ``u(x_j - t) = (1-theta) u[j-k] + theta u[j-k-1]`` (zero for negative
    indices), so all offsets fold into one kernel applied by
    :func:`_toeplitz`.  Left of the window the interpolant is 0, not the
    blend of ``u[0]`` with 0, so at output ``j = k`` (``theta > 0``) the
    ``(1-theta) u[0]`` term is taken back out.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("marchaud_derivative implemented for 0 < alpha < 1")
    h = u.grid.h
    # t_max = window diameter: from any x, offsets beyond it look back past
    # the window edge, where the zero extension makes the tail analytic
    t_min, t_max = h / 2.0, u.grid.width
    vals = u.values
    plan = _plan(_marchaud_plan, alpha, u.grid.b, u.grid.n)
    integral = _toeplitz(vals, plan)
    integral += vals[0] * plan.base

    # sub-grid offsets, modelled at first order through the local slope
    slope = nodal_derivative(u).values
    integral += slope * t_min ** (1.0 - alpha) / (1.0 - alpha)
    # offsets past t_max reach behind the window, where u is extended by zero
    integral += vals * t_max**-alpha / alpha

    scale = alpha / gamma_fn(1.0 - alpha)
    result = scale * integral
    # if u has not decayed, mass beyond the window (invisible here) would
    # contribute on the order of the edge value against the far kernel
    edge = max(abs(float(vals[0])), abs(float(vals[-1])))
    tail_estimate = edge * u.grid.b**-alpha / gamma_fn(1.0 - alpha)
    result_scale = float(np.max(np.abs(result))) or 1.0
    if tail_estimate > 1e-6 * result_scale:
        _warn(
            f"window-tail contribution estimate {tail_estimate / result_scale:.2e} "
            "of the result: the input has not decayed at the window edges"
        )
    return SampledFunction(u.grid, result)


def marchaud_small_offset_bound(u: SampledFunction, alpha: float) -> float:
    """Bound on the modelled sub-grid part of the Marchaud integral."""
    h = u.grid.h
    lip = float(np.max(np.abs(nodal_derivative(u).values)))
    return alpha / gamma_fn(1.0 - alpha) * lip * (h / 2.0) ** (1.0 - alpha) / (1.0 - alpha)


def spectral_derivative(u: SampledFunction, alpha: float, side: Side | str = Side.LEFT) -> SampledFunction:
    """Fourier-multiplier derivative ``F^-1[(+-i xi)^alpha F u]``.

    Principal branch symbol; requires a power-of-two sample count and a
    window the function has decayed in.  Warns on visible aliasing
    (:func:`~fracsobolev.core._spectrum`), and raises if discarding
    the imaginary residue would lose more than 1e-8 relative.
    """
    side = Side.parse(side)
    if not u.grid.on_line:
        raise ValueError("spectral derivative acts on line functions")
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    n = u.grid.n
    if n & (n - 1):
        raise ValueError("spectral derivative needs a power-of-two sample count")
    _, uhat = _spectrum(u)
    dhat = _plan(_symbol_plan, n, u.grid.b, alpha)[side] * uhat
    d = inverse_discrete_fourier(dhat, u.grid.b)
    imag = float(np.max(np.abs(d.imag)))
    real_scale = float(np.max(np.abs(d.real))) or 1.0
    if imag > 1e-8 * real_scale:
        raise ValueError(f"imaginary residue {imag / real_scale:.2e} of the real part exceeds 1e-8")
    closed = np.concatenate([d.real, d.real[:1]])
    return SampledFunction(u.grid, closed)


_SCHEMES = {
    "product_rl": rl_derivative,
    "grunwald": gl_derivative,
    "caputo": caputo_derivative,
    "marchaud": marchaud_derivative,
    "spectral": spectral_derivative,
}


def _default_scheme(u: SampledFunction) -> str:
    """The scheme a caller gets without naming one: spectral on the line."""
    return "spectral" if u.grid.on_line else "product_rl"


# ---------------------------------------------------------------------------
# kernel and endpoint constant


def kappa(alpha: float, side: Side | str, grid: Grid) -> SampledFunction:
    """The kernel ``(x-a)^(alpha-1)`` (left) or ``(b-x)^(alpha-1)`` (right).

    The base node carries the non-finite marker and the sample records its
    own power so every operator treats it exactly.  The right
    kernel is the left one, reflected.  At ``alpha = 1`` the kernel is the
    constant 1 (no singular node).
    """
    side = Side.parse(side)
    if not 0.0 < alpha <= 1.0:
        raise ValueError("kappa is the kernel for orders in (0, 1]")
    if alpha == 1.0:
        return SampledFunction(grid, np.ones(grid.n + 1))
    record = _endpoint_terms([(1.0, alpha - 1.0)])
    left = SampledFunction(grid, _power_values(grid, 1.0, alpha - 1.0), record)
    return left if side is Side.LEFT else left.reflected()


@_reflection_conjugate
def endpoint_constant(
    u: SampledFunction, alpha: float, side: Side | str = Side.LEFT
) -> KernelConstant:
    """Kernel coefficient ``c`` with ``u - c kappa`` regular at the base.

    Evaluates ``g = I^(1-alpha) u`` near the base and extrapolates it to
    the base point with a Richardson step on the geometric node triple
    (1, 2, 4); ``c`` is the limit divided by ``Gamma(alpha)``.  Repeating
    the extrapolation on the coarser triple (2, 4, 8) gives the
    ``residual_estimate``, and a spread above 1e-2 of the data scale is
    flagged with a warning (the extrapolation did not settle).
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("endpoint constant defined for orders in (0, 1)")
    if u.grid.n < 8:
        raise ValueError("need at least 8 cells to extrapolate at the endpoint")
    g = frac_integral(u, 1.0 - alpha, Side.LEFT).values

    def extrapolate(ga: float, gb: float, gc: float) -> float:
        """Limit of g at the base from the geometric node triple (t, 2t, 4t)."""
        d1, d2 = gb - ga, gc - gb
        scale = max(abs(ga), abs(gb), abs(gc), 1e-300)
        if abs(d1) <= 1e-12 * scale and abs(d2) <= 1e-12 * scale:
            return ga  # already flat to roundoff
        if d1 != 0.0 and d2 / d1 > 0.0:
            rate = math.log2(d2 / d1)
            if 0.05 <= rate <= 4.0:
                return ga - d1 / (2.0**rate - 1.0)
        return 2.0 * ga - gb  # no power signature: linear extrapolation

    fine = extrapolate(float(g[1]), float(g[2]), float(g[4]))
    coarse = extrapolate(float(g[2]), float(g[4]), float(g[8]))
    gamma_a = gamma_fn(alpha)
    c = fine / gamma_a
    residual = abs(fine - coarse) / abs(gamma_a)
    finite_g = g[np.isfinite(g)]
    g_scale = float(np.max(np.abs(finite_g))) if finite_g.size else 0.0
    scale = max(abs(c), g_scale / abs(gamma_a), 1e-300)
    if residual > 1e-2 * scale:
        _warn(f"endpoint extrapolation did not settle: spread {residual:.3e} vs c = {c:.3e}")
    return KernelConstant(c, Side.LEFT, FracOrder(alpha), residual)
