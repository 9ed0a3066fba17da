"""Norms, seminorms, traces, and regularity predicates.

Seven norm families are provided through :func:`sobolev_norm`:

* ``one_sided_left`` / ``one_sided_right`` — classical Sobolev part plus the
  p-norm of the one-sided fractional derivative,
* ``symmetric`` — both one-sided norms combined (the classical part is
  counted once per side, exactly as the defining formula is written; the
  single-count variant differs by at most ``2**(1/p)``),
* ``zero_trace_left`` / ``zero_trace_right`` — the derivative norm alone,
  which is a genuine norm on functions with vanishing endpoint constant,
* ``gagliardo`` — double-integral difference-quotient seminorm plus the
  classical part,
* ``fourier`` — the frequency-side definition, line functions only.

Divergence policy: a norm that does not exist is a *result*, not a failure.
It comes back as ``+inf`` with one warning that says why, decided from the
samples the norm was given; no norm builds or resamples another grid.  A
one-sided norm is +inf exactly when one of its parts records a
non-integrable endpoint power ``c t^e`` (``1 + p e <= 0``; at ``p = inf``,
an unbounded one: ``e < 0``), and the warning names that part, its end,
``c`` and ``e``.  Every part is summed by the one cell rule of
:func:`lp_norm`, at every ``p``, in :func:`_lp_power_integral`: the one
place where a recorded power is decided.  Above order one the metadata
passes through the integer derivatives too: each step of
:func:`~fracsobolev.operators.nodal_derivative` maps an endpoint power
``c t^e`` to ``(+-c e, e - 1)``, so the norms see the power the classical
derivatives leave.  The Gagliardo seminorm is +inf exactly when the fitted
decay of its modulus is too slow for the order, or at ``p = inf`` when a
sample is flagged (see :func:`gagliardo_seminorm`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .core import (
    FracOrder,
    LineFunction,
    SampledFunction,
    Side,
    _fit_slope,
    _log_offsets,
    _spectrum,
    _warn,
    discrete_fourier,
    gamma_fn,
)
from .operators import _default_scheme, _mirrored, endpoint_constant, frac_derivative, nodal_derivative

__all__ = [
    "NormSpec",
    "TraceValue",
    "lp_norm",
    "sobolev_norm",
    "gagliardo_seminorm",
    "gagliardo_small_offset_bound",
    "fourier_seminorm",
    "trace",
    "holder_quotient",
    "sobolev_conjugate",
    "is_regular",
    "seminorm_ratio_constant",
    "weighted_spectral_integral",
]

# offsets x nodes per block of shifted slices in the p != 2 Gagliardo
# integral, and gaps x nodes per block of the Hölder quotient: keeps each
# temporary array near 256 KB.  At 1 MB, glibc's dynamic mmap threshold
# made these loops 1.4x slower in a process that had not yet freed some
# larger array (which raises the threshold) than in one that had; at
# 256 KB both run at the same speed
_GAGLIARDO_BLOCK = 1 << 15
# the p = 2 Gagliardo rows take the lag sums up to this many cells directly
# and the longer lags from an FFT autocorrelation (see _square_row_sums);
# against the per-offset loop (Gaussians and sin 3x, n = 1000 and 4096,
# alpha up to 0.9) the worst relative error was 5.6e-13 with 1 direct lag,
# 6.4e-14 with 8 and 8.6e-15 with 32
_DIRECT_LAGS = 32

_FAMILIES = (
    "one_sided_left",
    "one_sided_right",
    "symmetric",
    "zero_trace_left",
    "zero_trace_right",
    "gagliardo",
    "fourier",
)


@dataclass(frozen=True)
class NormSpec:
    """Which norm to compute: family, order, and integrability exponent."""

    family: str
    alpha: FracOrder
    p: float = 2.0

    def __post_init__(self) -> None:
        if self.family not in _FAMILIES:
            raise ValueError(
                f"unknown family {self.family!r}; expected one of {_FAMILIES}"
            )
        if not (math.isinf(self.p) or self.p >= 1.0):
            raise ValueError(f"p must lie in [1, inf], got {self.p}")


@dataclass(frozen=True)
class TraceValue:
    """Endpoint value of the continuous representative.

    ``subinterval_start`` is the inner boundary of the stability window
    (strictly inside the domain); the Hölder quotient is measured between
    there and the trace endpoint.
    """

    value: float
    side: Side
    subinterval_start: float
    holder_quotient: float


# ---------------------------------------------------------------------------
# Lebesgue norms


def _lp_power_integral(u: SampledFunction | LineFunction, p: float) -> tuple[float, str | None]:
    """``(int |u|^p, reason)`` (``sup |u|`` at ``p = inf``) by the cell rule of :func:`lp_norm`.

    It decides each recorded power ``c t^e`` once: the end cell adds
    ``int_0^h |c t^e|^p dt`` (``sup`` on ``(0, h]`` at ``p = inf``), +inf
    when ``c != 0`` and ``1 + p e <= 0`` (``e < 0`` at inf), and ``reason``
    says why the first such power diverges (None when none does).
    """
    vals = np.abs(np.asarray(u.values, dtype=float))
    finite = np.isfinite(vals)
    if math.isinf(p):
        cells = np.maximum(vals[:-1], vals[1:])
    else:  # in place: fewer fresh arrays at large n
        vals **= p
        cells = vals[:-1] + vals[1:]
        cells *= 0.5
    if not finite.all():
        cells[~(finite[:-1] & finite[1:])] = 0.0
    h = u.grid.h
    masses, reason = [], None
    for (coeff, exponent), phrase in _flagged_powers(u):
        if coeff == 0.0:
            masses.append(0.0)
        elif exponent < 0.0 if math.isinf(p) else 1.0 + p * exponent <= 0.0:
            masses.append(math.inf)
            growth = "with e < 0 it grows" if math.isinf(p) else (
                f"with 1 + p e = {1.0 + p * exponent:.6g} <= 0 its p-th powers grow")
            reason = reason or f"{phrase}, and {growth} without bound there"
        elif math.isinf(p):
            masses.append(abs(coeff) * h**exponent)
        else:
            moment = 1.0 + p * exponent
            masses.append(abs(coeff) ** p * h**moment / moment)
    if math.isinf(p):
        return max([float(np.max(cells)), *masses]), reason
    return sum(masses, float(h * np.sum(cells))), reason


def _flagged_powers(u: SampledFunction | LineFunction) -> list[tuple[tuple[float, float], str]]:
    """``((c, e), phrase naming it and its end)`` for each flagged end that records a power."""
    ends = (
        ("left", u.values[0], getattr(u, "left_power", None)),
        ("right", u.values[-1], getattr(u, "right_power", None)),
    )
    return [(power, f"the endpoint power {power[0]:.6g} t^{power[1]:.6g} at its {end} end")
            for end, node, power in ends if power is not None and not math.isfinite(node)]


def lp_norm(u: SampledFunction | LineFunction, p: float) -> float:
    """L^p norm of the samples, ``1 <= p <= inf``, by one cell rule.

    A cell between two finite nodes adds ``h (|u_j|^p + |u_{j+1}|^p) / 2``
    (at ``p = inf`` it reads the larger node).  A cell that touches a
    flagged (non-finite) node is skipped; when that node is an end that
    records a power ``c t^e``, the cell is added in closed form instead, so
    kernel-type data keeps its mass near the singularity.  The norm is +inf
    exactly when such a power has ``c != 0`` and ``1 + p e <= 0``, which at
    ``p = inf`` reads ``e < 0``.
    """
    if not (math.isinf(p) or p >= 1.0):
        raise ValueError(f"p must lie in [1, inf], got {p}")
    total = _lp_power_integral(u, p)[0]
    return total if math.isinf(p) else total ** (1.0 / p)


# ---------------------------------------------------------------------------
# Sobolev norms


def _integer_derivatives(
    u: SampledFunction | LineFunction, m: int
) -> list[SampledFunction | LineFunction]:
    """``[u, u', ..., u^(m)]`` by :func:`~fracsobolev.operators.nodal_derivative`."""
    chain = [u]
    for _ in range(m):
        chain.append(nodal_derivative(chain[-1]))
    return chain


def _one_sided_norm(u: SampledFunction | LineFunction, spec: NormSpec) -> float:
    """A one-sided or zero-trace norm, for :func:`sobolev_norm` alone to call.

    A part is +inf only through a recorded endpoint power that
    :func:`_lp_power_integral` finds diverging; the warning quotes its reason.
    """
    p = spec.p
    side = Side.RIGHT if spec.family.endswith("right") else Side.LEFT
    d = frac_derivative(u, spec.alpha.alpha, side, scheme=_default_scheme(u))
    chain = [] if spec.family.startswith("zero_trace") else _integer_derivatives(u, spec.alpha.m)
    parts, reasons = zip(*(_lp_power_integral(w, p) for w in chain + [d]))
    if math.isinf(p):
        total = max(parts[:-1]) + parts[-1] if chain else parts[-1]
    else:
        total = float(np.sum(parts)) ** (1.0 / p)
    if math.isfinite(total):
        return total
    names = [f"u^({k})" for k in range(len(chain))]
    names.append(f"the order-{spec.alpha.alpha:g} {side.value} derivative")
    for name, reason in zip(names, reasons):
        if reason is not None:
            _warn(f"{spec.family} norm diverges: {name} has {reason}")
            return math.inf
    _warn(f"{spec.family} norm overflows: the p-th powers of the samples exceed the float range")
    return math.inf


def sobolev_norm(u: SampledFunction | LineFunction, spec: NormSpec) -> float:
    """Norm of ``u`` in the family named by ``spec``.

    Finite intervals use the product-integration derivative realization,
    line functions the spectral one.  A divergent norm comes back as +inf
    with one warning that names its cause.
    """
    family, alpha, p = spec.family, spec.alpha, spec.p

    if family == "fourier":
        if not isinstance(u, LineFunction):
            raise ValueError("fourier norms are defined on line functions only")
        if math.isinf(p):
            raise ValueError("fourier family requires p < inf")
        return fourier_seminorm(u, alpha.alpha, p) ** (1.0 / p)

    if family == "gagliardo":
        chain = _integer_derivatives(u, alpha.m)
        semi = gagliardo_seminorm(chain[-1], alpha.sigma, p)
        parts = [_lp_power_integral(w, p)[0] for w in chain]
        if math.isinf(p):
            return max(parts) + semi
        total = float(np.sum(parts)) + semi**p
        if not math.isfinite(total):
            return math.inf  # from the seminorm (finite samples only), which warned
        return total ** (1.0 / p)

    if family != "symmetric":
        return _one_sided_norm(u, spec)
    left = _one_sided_norm(u, NormSpec("one_sided_left", alpha, p))
    if math.isinf(left):  # it has warned; one warning per call
        return left
    right = _one_sided_norm(u, NormSpec("one_sided_right", alpha, p))
    if math.isinf(p):
        return left + right
    return (left**p + right**p) ** (1.0 / p)


# ---------------------------------------------------------------------------
# Gagliardo (difference-quotient) seminorm


def _square_row_sums(vals: np.ndarray, k: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """``sum_{j < n-k} (u(x_j + t) - u(x_j))^2`` for the offsets ``t = (k + theta) h``.

    These are the rows whose shifted node ``x_j + t`` lies before the last
    node, where the interpolant reads ``(1-theta) v[j+k] + theta v[j+k+1]``.
    With ``D_j = v[j+k] - v[j]`` and ``E_j = v[j+k+1] - v[j+k]`` a row is
    quadratic in ``theta``::

        sum (D + theta E)^2 = S_DD + 2 theta S_DE + theta^2 S_EE
                            = (1-theta) S_DD + theta S_(D+E) - theta (1-theta) S_EE,

    and ``D + E`` is the difference at lag ``k + 1``.  So each row needs the
    lag energies ``q[m] = sum_{j <= n-m} (v[j+m] - v[j])^2`` at ``m = k`` and
    ``k + 1`` (less the one term ``j = n - k`` of ``q[k]``) and a suffix sum
    of the squared steps ``E``.  For ``m > _DIRECT_LAGS`` the lag energy is
    ``2 sum v^2 - 2 R(m)`` less the squares of the ``m`` nodes at each end,
    with the autocorrelation ``R`` from one zero-padded ``rfft``/``irfft``
    pair (Wiener-Khinchin).  ``2 sum v^2 - 2 R(m)`` cancels at short lags of
    smooth data, where the FFT's roundoff, relative to ``sum v^2``, would
    swamp the small difference energy, so the lags up to ``_DIRECT_LAGS``
    are summed directly from shifted slices (the head/tail split of
    :func:`~fracsobolev.operators._toeplitz`).  Differences ignore a
    constant, so the samples are first shifted by the one nearest their
    mean: that keeps ``sum v^2``, and with it the roundoff, small, and a
    constant input gives exact zeros.
    """
    n = vals.size - 1
    v = vals - vals[np.argmin(np.abs(vals - np.mean(vals)))]
    q = np.zeros(n + 2)  # q[n + 1] = 0: no pair is that far apart
    head = min(n, _DIRECT_LAGS)
    for m in range(1, head + 1):
        d = v[m:] - v[:-m]
        q[m] = np.sum(d * d)
    if head < n:
        size = 1 << (2 * n).bit_length()  # no lag wraps around
        spectrum = np.fft.rfft(v, size)
        corr = np.fft.irfft(spectrum.real**2 + spectrum.imag**2, size)
        squares = v * v
        lag = np.arange(head + 1, n + 1)
        ends = np.cumsum(squares)[lag - 1] + np.cumsum(squares[::-1])[lag - 1]
        q[head + 1 : n + 1] = 2.0 * np.sum(squares) - 2.0 * corr[lag] - ends
        # q is 0 at a period of periodic samples: keep roundoff from making it negative
        np.maximum(q, 0.0, out=q)
    steps = np.diff(v) ** 2
    # steps_after[k] = sum_{m >= k} (v[m+1] - v[m])^2
    steps_after = np.concatenate([np.cumsum(steps[::-1])[::-1], [0.0]])
    last_pair = (v[n] - v[n - k]) ** 2
    return (
        (1.0 - theta) * (q[k] - last_pair)
        + theta * q[k + 1]
        - theta * (1.0 - theta) * steps_after[k]
    )


class _Modulus(NamedTuple):
    """The offset rows of :func:`_gagliardo_modulus`."""

    offsets: np.ndarray
    weights: np.ndarray  # trapezoid weights in log t
    inner: np.ndarray  # omega_p(t)^p at each offset
    last: np.ndarray  # last node x_j with x_j + t inside the domain
    mass: float  # int |u|^p on the line (its zero-extension tail); 0 on an interval
    t_max: float


def _gagliardo_modulus(u: SampledFunction | LineFunction, p: float) -> _Modulus:
    """The rows ``omega_p(t)^p = int |u(x+t)-u(x)|^p dx`` of the Gagliardo integral.

    One row per offset of :func:`~fracsobolev.core._log_offsets` from
    ``h/2`` to the domain width (on the line: the window diameter).  Each is
    a trapezoid sum over the nodes ``x_j`` with ``x_j + t`` inside the
    domain (on the line: every node, reading the interpolant as 0 right of
    the window).  The rows do not depend on the order ``alpha``.

    For ``p = 2`` the rows come from the lag sums of
    :func:`_square_row_sums` in ``O(n log n)`` plus ``O(1)`` per offset: an
    offset ``t = (k + theta) h`` has the row sum ``S_DD + 2 theta S_DE +
    theta^2 S_EE``, with the lags up to ``_DIRECT_LAGS`` summed directly and
    the rest from one FFT autocorrelation.  Three nodes per offset are
    read with ``np.interp``: ``x_{n-k}``, whose shift may leave
    the window, where the interpolant is 0 and not ``(1-theta) u[n]``, and
    the two trapezoid ends, whose halves are taken back out.  On the line
    the nodes past ``x_{n-k}`` add ``u(x_j)^2`` each.  The result agrees
    with the interpolated rows to roundoff, not bitwise.

    Other ``p`` build ``_GAGLIARDO_BLOCK // (n + 1)`` rows at a time from
    contiguous windows of the samples, zero-padded on the right, and of
    their steps: a row reads ``v[j+k] - v[j] + theta (v[j+k+1] - v[j+k])``
    for every node, then takes ``|.|^p`` and one trapezoid.  The one node
    per offset whose shift leaves the window, ``x_{n-k}``, is read with
    ``u.interp`` instead (one call per block), since there the interpolant
    is 0 and not ``(1-theta) u[n]``.  On an interval each row is zero past
    the last node with ``x + t <= b``.  ``p = 1`` skips the power, which is
    exact.  The rows agree with interpolating each offset to roundoff, not
    bitwise: ``x_j + t`` is split into cell and fraction once per offset
    rather than by ``np.interp`` per node.
    """
    grid = u.grid
    h = grid.h
    x = grid.nodes
    vals = np.asarray(u.values, dtype=float)
    on_line = isinstance(u, LineFunction)
    t_max = 2.0 * u.half_width if on_line else grid.width
    offsets, weights = _log_offsets(h / 2.0, t_max)

    abs_p = np.abs(vals) ** p
    if on_line:
        # cumulative mass of |u|^p from the left window edge, for the strip
        # x < -L where only the shifted copy is alive
        cum = np.concatenate([[0.0], np.cumsum(h * 0.5 * (abs_p[:-1] + abs_p[1:]))])

    if on_line:
        inner = np.interp(np.minimum(offsets, grid.width), x - grid.a, cum)
        last = np.full(offsets.size, x.size - 1)
    else:
        # nodes with x + t inside the interval; rows keep a zero tail past them
        last = np.searchsorted(x, grid.b - offsets + 1e-12 * grid.width, side="right") - 1
        inner = np.zeros(offsets.size)
    # on the uniform grid an offset t = (k + theta) h reads the interpolant
    # at x_j + t as v[j+k] + theta (v[j+k+1] - v[j+k]) while j + k < n
    n = x.size - 1
    k, theta = np.divmod(offsets / h, 1.0)
    k = k.astype(int)
    if p == 2.0:
        def row_end(j: np.ndarray) -> np.ndarray:
            shifted = np.interp(x[j] + offsets, x, vals, left=0.0, right=0.0)
            return (shifted - vals[j]) ** 2

        row_sums = _square_row_sums(vals, k, theta)
        leaving = row_end(n - k)
        if on_line:
            # past x_{n-k} the shifted copy is 0 and the row adds u(x_j)^2
            tail = np.concatenate([[0.0], np.cumsum(abs_p[::-1])])
            row_sums += leaving + tail[k]
        else:
            row_sums += np.where(last >= n - k, leaving, 0.0)
        inner += h * (row_sums - 0.5 * (row_end(np.zeros_like(k)) + row_end(last)))
    else:
        # row k of here/step reads v[j+k] and v[j+k+1] - v[j+k] for j = 0..n,
        # with zeros right of the window
        pad = np.concatenate([vals, np.zeros(n + 1)])
        here = sliding_window_view(pad, n + 1)
        step = sliding_window_view(np.diff(pad), n + 1)
        cols = np.arange(x.size)
        rows = max(1, _GAGLIARDO_BLOCK // x.size)
        for start in range(0, offsets.size, rows):
            block = slice(start, start + rows)
            kb = k[block]
            diff = here[kb]
            diff -= vals
            slope = step[kb]
            slope *= theta[block, None]
            diff += slope
            # unless theta = 0, x_{n-k} + t lies right of x_n, where the
            # interpolant is 0 and not (1-theta) v[n]: read it through interp
            edge = n - kb
            diff[np.arange(kb.size), edge] = u.interp(x[edge] + offsets[block]) - vals[edge]
            if not on_line:
                diff[cols > last[block, None]] = 0.0
            np.abs(diff, out=diff)
            if p != 1.0:  # x ** 1.0 == x, but has no fast path
                diff **= p
            ends = diff[:, 0] + np.take_along_axis(diff, last[block, None], axis=1)[:, 0]
            inner[block] += h * (np.sum(diff, axis=1) - 0.5 * ends)
    mass = float(cum[-1]) if on_line else 0.0
    return _Modulus(offsets, weights, inner, last, mass, t_max)


def _modulus_integral(rows: _Modulus, alpha: float, p: float) -> float:
    """``2 int_0^T t^{-1-alpha p} omega_p(t)^p dt`` over the rows, plus the line's tail."""
    total = 0.0
    for w, t, v, j in zip(
        rows.weights.tolist(), rows.offsets.tolist(), rows.inner.tolist(), rows.last.tolist()
    ):
        if j < 1:  # fewer than 2 nodes left inside the interval
            continue
        # extra t: Jacobian of the log substitution
        total += w * v * t**-(alpha * p)
    # on the line, beyond the window diameter the two copies never overlap
    total += 2.0 * rows.mass * rows.t_max ** -(alpha * p) / (alpha * p)
    return 2.0 * total


def _modulus_decay(rows: _Modulus, h: float) -> float:
    """Least-squares exponent ``s`` of ``omega_p(t)^p ~ t^s`` at small offsets.

    The fit runs over ``2h <= t <= min(64h, T/8)``, with ``T`` the domain
    width (on the line: the window diameter): on a coarse grid the cap
    keeps it off the long offsets, where the shrinking overlap bends the
    modulus down.  It takes the rows with at least 2 nodes inside the
    domain and a positive modulus; NaN when fewer than 8 such rows remain
    (a tiny grid, or a modulus that vanishes there).
    """
    t, inner = rows.offsets, rows.inner
    top = min(64.0 * h, rows.t_max / 8.0)
    keep = (t >= 2.0 * h) & (t <= top) & (rows.last >= 1) & (inner > 0.0)
    if np.count_nonzero(keep) < 8:
        return math.nan
    return _fit_slope(np.log(t[keep]), np.log(inner[keep]))


def gagliardo_seminorm(
    u: SampledFunction | LineFunction, alpha: float, p: float
) -> float:
    """Difference-quotient seminorm of order ``alpha`` in ``L^p``.

    ``p = inf`` returns the Hölder-type sup over node pairs, or +inf with a
    warning that names the flagged end (and its recorded power) when a
    sample is flagged.  Otherwise the
    seminorm's p-th power is ``int_0^T t^{-1-alpha p} omega_p(t)^p dt`` (up
    to a factor 2) with the modulus ``omega_p(t)^p = int |u(x+t)-u(x)|^p
    dx``, and it is finite iff ``omega_p(t)^p`` decays faster than
    ``t^{alpha p}`` (the Besov characterisation; Di Nezza-Palatucci-Valdinoci
    2012).  That one rule decides: with ``s`` the exponent of
    ``omega_p(t)^p ~ t^s`` fitted by :func:`_modulus_decay` to the rows the
    integral is summed from, the value on this grid is returned when ``s/p
    >= alpha`` and +inf, with a warning that gives ``s/p``, when ``s/p <
    alpha``.  When too few rows lie in the fit window (fewer than 8, as on
    14 cells) the finite value comes back with a warning that divergence was
    not checked.  The samples are read as given: no other grid is built.
    The sub-grid offsets ``t < h/2`` are excluded;
    :func:`gagliardo_small_offset_bound` bounds what they could contribute.

    ``p = 2`` costs ``O(n log n)``: every offset's inner integral comes from
    one FFT autocorrelation of the samples plus directly summed short lags
    (see :func:`_gagliardo_modulus`), and agrees with interpolating each
    offset to about 1e-14 relative.  Other ``p`` cost ``O(n)`` per offset:
    each row is read from shifted slices of the samples, with one
    interpolated node per offset where the shift leaves the window, and
    agrees with interpolating each offset to about 1e-14 relative.
    """
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"difference-quotient order must lie in (0, 1], got {alpha}")
    if math.isinf(p):
        flagged = np.flatnonzero(~np.isfinite(u.values))
        if flagged.size:
            powers = _flagged_powers(u)
            if powers:
                cause = f"u has {powers[0][1]}"
            elif flagged[0] == 0 or flagged[-1] == u.values.size - 1:
                cause = f"u is flagged at its {'left' if flagged[0] == 0 else 'right'} end"
            else:
                cause = f"u is flagged at node {flagged[0]}"
            _warn(f"difference-quotient seminorm at p = inf diverges: {cause}, "
                  "and its difference quotients grow without bound there; reporting +inf")
            return math.inf
        g = u.grid
        return holder_quotient(u, alpha, (g.a, g.b))
    if p < 1.0:
        raise ValueError(f"p must lie in [1, inf], got {p}")
    if not np.all(np.isfinite(u.values)):
        raise ValueError("difference-quotient seminorm needs finite samples")

    rows = _gagliardo_modulus(u, p)
    full = _modulus_integral(rows, alpha, p)
    if full == 0.0:  # constant data: no modulus to fit
        return 0.0
    smoothness = _modulus_decay(rows, u.grid.h) / p
    if math.isnan(smoothness):
        _warn(
            f"difference-quotient seminorm: divergence not checked on n={u.grid.n} "
            "cells (fewer than 8 offsets lie in the modulus fit window); "
            "reporting the value on this grid"
        )
    elif smoothness < alpha:
        _warn(
            "difference-quotient seminorm grows without bound: its modulus "
            f"omega_p(t)^p decays like t^s with s/p = {smoothness:.4g} < "
            f"alpha = {alpha:g}; reporting +inf"
        )
        return math.inf
    return full ** (1.0 / p)


def gagliardo_small_offset_bound(
    u: SampledFunction | LineFunction, alpha: float, p: float
) -> float:
    """Bound on the excluded ``t < h/2`` part of the seminorm's p-th power.

    Uses ``|u(x+t)-u(x)| <= Lip * t`` with the interpolant's Lipschitz
    constant; deliberately an error bar, never added to the value.
    """
    h = u.grid.h
    lip = float(np.max(np.abs(np.diff(u.values)))) / h
    measure = 2.0 * u.half_width if isinstance(u, LineFunction) else u.grid.width
    rate = p * (1.0 - alpha)
    return 2.0 * measure * lip**p * (h / 2.0) ** rate / rate


# ---------------------------------------------------------------------------
# Fourier-side seminorm


# B_2j / (2j)! for j = 1..8: the Euler-Maclaurin corrections of _zeta
_ZETA_CORRECTIONS = tuple(
    b / math.factorial(2 * j)
    for j, b in enumerate(
        (1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730, 7 / 6, -3617 / 510), start=1
    )
)


def _zeta(x: float) -> float:
    """Riemann ``zeta(x)`` for ``x > 1`` by Euler-Maclaurin summation.

    The terms below ``N = 10`` are summed; the tail from ``N`` is
    ``N^(1-x) / (x-1) + N^-x / 2 + sum_j B_2j / (2j)! x (x+1) ... (x+2j-2)
    N^(-x-2j+1)`` over eight Bernoulli corrections.  The pole at 1 is the
    closed-form first tail term; against mpmath the relative error stays
    below 5e-16 for ``x`` from ``1 + 1e-11`` to 23.
    """
    n = 10
    total = math.fsum(k**-x for k in range(1, n))
    total += n ** (1.0 - x) / (x - 1.0) + 0.5 * n**-x
    rising, power = x, n ** (-x - 1.0)
    for j, c in enumerate(_ZETA_CORRECTIONS, start=1):
        total += c * rising * power
        rising *= (x + 2 * j - 1) * (x + 2 * j)
        power /= n * n
    return total


def _zeta_negative(s: float) -> float:
    """``zeta(-s)`` for ``s > 0`` via the functional equation."""
    return (
        -(2.0**-s)
        * math.pi ** -(s + 1.0)
        * math.sin(0.5 * math.pi * s)
        * float(gamma_fn(1.0 + s))
        * _zeta(1.0 + s)
    )


def _kink_corrected_moment(
    xi: np.ndarray, density: np.ndarray, power: float
) -> float:
    """``int |xi|^power * density dxi`` on the frequency grid.

    The trapezoid sum is spectrally accurate for smooth decaying data
    except near the ``|xi|^power`` kink at zero, where it carries an
    ``O(dxi^{1+power})`` defect with a known zeta-function coefficient:
    ``d*sum = int + 2 zeta(-power) d^{1+power} E(0) + zeta(-power-2)
    d^{3+power} E''(0) + ...``; the first two terms are subtracted.
    """
    dxi = float(xi[1] - xi[0])
    total = float(np.sum(np.abs(xi) ** power * density) * dxi)
    if power <= 0.0:
        return total
    e0 = float(density[0])
    e2 = float(density[1] - 2.0 * density[0] + density[-1]) / dxi**2
    total -= 2.0 * _zeta_negative(power) * dxi ** (1.0 + power) * e0
    total -= _zeta_negative(power + 2.0) * dxi ** (3.0 + power) * e2
    return total


def fourier_seminorm(u: LineFunction, s: float, p: float) -> float:
    """``int (1 + |xi|^{sp}) |uhat|^p dxi`` on the discrete frequency grid."""
    if not isinstance(u, LineFunction):
        raise ValueError("fourier seminorm is defined on line functions only")
    if math.isinf(p) or p < 1.0:
        raise ValueError(f"p must lie in [1, inf), got {p}")
    xi, uhat = _spectrum(u)
    dxi = float(xi[1] - xi[0])
    density = np.abs(uhat) ** p
    return float(np.sum(density) * dxi) + _kink_corrected_moment(xi, density, s * p)


def weighted_spectral_integral(u: LineFunction, power: float) -> float:
    """``(1/2pi) int |xi|^power |uhat|^2 dxi`` with the kink cell handled."""
    xi, uhat = discrete_fourier(u.samples(), u.half_width)
    return _kink_corrected_moment(xi, np.abs(uhat) ** 2, power) / (2.0 * math.pi)


# ---------------------------------------------------------------------------
# traces and Hölder machinery


def holder_quotient(
    u: SampledFunction | LineFunction,
    exponent: float,
    subinterval: tuple[float, float],
) -> float:
    """``max |u(x)-u(y)| / |x-y|^exponent`` over node pairs in the subinterval.

    Gaps ``d h`` are taken in increasing order, in blocks of 1, 1, 2, 4, ...
    gaps (at most ``_GAGLIARDO_BLOCK`` differences each), and stop before a
    block once ``(max u - min u) / (d h)^exponent`` is no larger than the
    best quotient so far: no later gap can beat it, so the result is
    bitwise that of the full loop over every gap.  The gap powers
    ``(d h)^exponent`` are Python ``pow``, whose bits do not depend on the
    SIMD path numpy dispatches to.  A non-finite sample gives +inf.
    """
    if not 0.0 < exponent <= 1.0:
        raise ValueError(f"Hölder exponent must lie in (0, 1], got {exponent}")
    lo, hi = subinterval
    g = u.grid
    if lo < g.a - 1e-12 * g.width or hi > g.b + 1e-12 * g.width or not lo < hi:
        raise ValueError(f"subinterval ({lo}, {hi}) not inside ({g.a}, {g.b})")
    h = g.h
    m = (g.nodes >= lo) & (g.nodes <= hi)
    vals = np.asarray(u.values, dtype=float)[m]
    n = vals.size
    if n < 2:
        return 0.0
    if not np.all(np.isfinite(vals)):
        # every node is in a gap-1 difference, which the flag makes inf or nan
        return math.inf
    best = 0.0
    # no difference exceeds the range and the gaps grow with d; rounding is
    # monotone, so the computed quotients keep that order
    spread = float(np.max(vals) - np.min(vals))
    # row d reads v[j + d], NaN past the end, which np.fmax skips
    shifted = sliding_window_view(np.concatenate([vals, np.full(n - 1, np.nan)]), n)
    rows = max(1, _GAGLIARDO_BLOCK // n)
    start = 1
    while start < n and spread / (start * h) ** exponent > best:
        stop = min(max(2, 2 * start - 1), n, start + rows)
        width = n - start  # every row of the block is NaN from here on
        diff = shifted[start:stop, :width] - vals[:width]
        largest = np.fmax.reduce(np.abs(diff, out=diff), axis=1)
        gaps = np.array([(d * h) ** exponent for d in range(start, stop)])
        best = max(best, float(np.max(largest / gaps)))
        start = stop
    return best


def trace(
    u: SampledFunction, alpha: float, p: float, side: Side | str = Side.LEFT
) -> TraceValue:
    """Endpoint value of the continuous representative, with its stability.

    The left-sided space embeds into Hölder-continuous functions up to the
    far endpoint ``b`` when ``alpha * p > 1``, so the trace there is the
    nodal value; the measured Hölder quotient (exponent ``alpha - 1/p``)
    over the quarter-domain window next to the endpoint certifies it.  The
    right trace, at ``a``, is the left code on the mirrored data
    ``u.reflected()``, with the window start mirrored back.
    """
    side = Side.parse(side)
    if not alpha * p > 1.0:
        raise ValueError(f"trace undefined: needs alpha*p > 1, got alpha*p = {alpha * p}")
    g = u.grid

    def left(v: SampledFunction) -> TraceValue:
        endpoint, c = float(v.values[-1]), g.a + 0.25 * g.width
        if not math.isfinite(endpoint):
            raise ValueError("no continuous representative: endpoint value is singular")
        quotient = holder_quotient(v, alpha - 1.0 / p, (c, g.b))
        if not math.isfinite(quotient):
            raise ValueError("no continuous representative: Hölder quotient diverges on the window")
        return TraceValue(endpoint, side, c, quotient)

    return _mirrored(
        side, left, u, back=lambda t: replace(t, subinterval_start=g.a + g.b - t.subinterval_start)
    )


def sobolev_conjugate(p: float, alpha: float) -> float:
    """Critical embedding exponent ``p / (1 - alpha p)``; needs ``alpha p < 1``."""
    if not alpha * p < 1.0:
        raise ValueError(f"conjugate exponent needs alpha*p < 1, got {alpha * p}")
    return p / (1.0 - alpha * p)


def is_regular(
    u: SampledFunction,
    alpha: float,
    side: Side | str = Side.LEFT,
    tol: float = 1e-3,
) -> bool:
    """Whether the endpoint kernel constant vanishes (relative to ``||u||_2``).

    The comparison scale is the L^2 norm of the samples without their
    recorded powers, so flagged cells are skipped, not restored —
    kernel-type inputs have an infinite L^2 norm, which would make any
    relative test vacuous.
    """
    c = endpoint_constant(u, alpha, side).c_value
    scale = lp_norm(SampledFunction(u.grid, u.values), 2.0)
    if scale == 0.0:
        return c == 0.0
    return abs(c) <= tol * scale


# ---------------------------------------------------------------------------
# the p=2 Gagliardo/Fourier bridge


def seminorm_ratio_constant(alpha: float) -> float:
    """Exact ratio of the squared difference-quotient seminorm to the
    frequency integral ``(1/2pi) int |xi|^{2 alpha} |uhat|^2 dxi``.

    Writing the seminorm through Plancherel turns it into the frequency
    integral times ``2 int_0^inf (2 sin(v/2))^2 v^{-1-2 alpha} dv``, which
    evaluates to ``2 pi / (Gamma(1 + 2 alpha) sin(pi alpha))`` — a form with
    no poles on (0, 1).  Matches the brute-force Gaussian regression values
    (10.026513098524002 at 0.25, 2 pi at 0.5, 6.684342065682668 at 0.75).
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"ratio constant defined for 0 < alpha < 1, got {alpha}")
    return 2.0 * math.pi / (float(gamma_fn(1.0 + 2.0 * alpha)) * math.sin(math.pi * alpha))
