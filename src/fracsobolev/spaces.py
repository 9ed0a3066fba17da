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
* ``fourier`` — the frequency-side definition, on line grids only.

Every norm takes one sample type, :class:`~fracsobolev.core.SampledFunction`,
on an interval grid or on a line grid (``grid.on_line``, a window of the
real line outside which the function is 0); the grid's mark picks the
derivative scheme, the Gagliardo rows and the Fourier layer.

Divergence policy: a norm that does not exist is a *result*, not a failure.
It comes back as ``+inf`` with one warning that says why, decided from the
samples the norm was given; no norm builds or resamples another grid.
Every family but ``fourier`` lists its parts in one order, ``u, u', ...,
u^(m)`` and then the fractional part (a one-sided derivative, or the
difference-quotient seminorm of ``u^(m)``), each with its p-th power and
the reason it is +inf, if it is; the norm is their sum's ``1/p`` power (at
``p = inf``, the fractional part plus the largest other part), and
``symmetric`` joins its two sides by the same rule.  :func:`sobolev_norm`
alone words a norm's +inf: "<family> norm diverges" names the first part
with a reason, and "<family> norm overflows" says that none has one.  The
predicates stay beside their theorems.  A part is +inf when it records a
non-integrable endpoint power ``c t^e`` (``1 + p e <= 0``; at ``p = inf``,
``e < 0``), decided in :func:`_lp_power_integral`, which sums every part
by the one cell rule of :func:`lp_norm`; each step of
:func:`~fracsobolev.operators.nodal_derivative` maps ``c t^e`` to ``(+-c
e, e - 1)``, so the norms see the power the classical derivatives leave.
The seminorm is +inf when the fitted decay of its modulus is too slow for
the order, or at ``p = inf`` when a sample is flagged; called directly,
:func:`gagliardo_seminorm` words that in its own warning.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .core import (
    FracOrder,
    SampledFunction,
    Side,
    _fit_slope,
    _log_offsets,
    _plan,
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
            raise ValueError(f"unknown family {self.family!r}; expected one of {_FAMILIES}")
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


def _lp_power_integral(u: SampledFunction, p: float) -> tuple[float, str | None]:
    """``(int |u|^p, reason)`` (``sup |u|`` at ``p = inf``) by the cell rule of :func:`lp_norm`.

    Each recorded end is decided once, by its leading term ``c t^e``: +inf
    when ``c != 0`` and ``1 + p e <= 0`` (``e < 0`` at inf), ``reason``
    saying why (None when no end diverges); else the end cell adds ``int_0^h
    |sum c_i t^e_i|^p dt`` (``sup |c t^e|`` on ``(0, h]`` at ``p = inf``).
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
    for terms, phrase in _flagged_powers(u):
        coeff, exponent = terms[0]
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
            mass = abs(coeff) ** p * h**moment / moment
            masses.append(mass * _end_cell_factor(terms, p, h) if len(terms) > 1 else mass)
    if math.isinf(p):
        return max([float(np.max(cells)), *masses]), reason
    return sum(masses, float(h * np.sum(cells))), reason


def _flagged_powers(u: SampledFunction) -> list[tuple[tuple, str]]:
    """``(terms, phrase naming the leading term and its end)`` for each flagged end with a record."""
    ends = (("left", u.values[0], u.left_terms), ("right", u.values[-1], u.right_terms))
    return [(terms, f"the endpoint power {terms[0][0]:.6g} t^{terms[0][1]:.6g} at its {end} end")
            for end, node, terms in ends if terms and not math.isfinite(node)]


def _gauss_legendre(count: int) -> tuple[tuple[float, float], ...]:
    """``(node, weight)`` of the ``count``-point Gauss-Legendre rule on ``[0, 1]``.

    Newton's method on the Legendre polynomial from Tricomi's guesses, not
    the LAPACK eigenvalue solve of ``legendre.leggauss``, whose 24 nodes
    agree bitwise and weights to 6.7e-16.
    """
    from numpy.polynomial import legendre

    poly = np.zeros(count + 1)
    poly[-1] = 1.0
    slope = legendre.legder(poly)
    x = np.array([math.cos(math.pi * (i + 0.75) / (count + 0.5)) for i in range(count)])
    for _ in range(10):  # quadratic convergence: 4 steps reach the last bit
        x -= legendre.legval(x, poly) / legendre.legval(x, slope)
    weights = 1.0 / ((1.0 - x * x) * legendre.legval(x, slope) ** 2)
    return tuple(zip((0.5 * (1.0 - x)).tolist(), weights.tolist()))


def _end_cell_factor(terms: tuple[tuple[float, float], ...], p: float, h: float) -> float:
    """``int_0^h |sum c_i t^e_i|^p dt`` over the leading term's ``|c_0|^p h^beta / beta``.

    With ``beta = 1 + p e_0 > 0`` and ``t = h s^(1/beta)``, ``|c_0 t^e_0|^p
    dt`` is constant in ``s``, and ``|1 + sum_{i>0} (c_i / c_0) t^(e_i -
    e_0)|^p`` is integrated over ``s in [0, 1]`` by 24 Gauss-Legendre points.
    """
    (c0, e0), rest = terms[0], terms[1:]
    total = 0.0
    for s, weight in _plan(_gauss_legendre, 24):
        t = h * s ** (1.0 / (1.0 + p * e0))
        total += weight * abs(1.0 + sum(c / c0 * t ** (e - e0) for c, e in rest)) ** p
    return total


def lp_norm(u: SampledFunction, p: float) -> float:
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


def _norm_parts(u: SampledFunction, spec: NormSpec, side: Side | None) -> list[tuple[float, str | None]]:
    """``(p-th power or sup, reason it is +inf or None)`` of ``u, ..., u^(m)`` (none for a
    zero trace), then of the ``side`` derivative or, with no side, the seminorm of ``u^(m)``."""
    alpha, p = spec.alpha, spec.p
    chain = [] if spec.family.startswith("zero_trace") else [u]
    while chain and len(chain) <= alpha.m:
        chain.append(nodal_derivative(chain[-1]))
    if side is None:
        semi, reason = _gagliardo_seminorm(chain[-1], alpha.sigma, p)
        last = (semi if math.isinf(p) else semi**p, reason)
    else:
        last = _lp_power_integral(frac_derivative(u, alpha.alpha, side, scheme=_default_scheme(u)), p)
    return [_lp_power_integral(w, p) for w in chain] + [last]


def _summed(masses: list[float], p: float) -> float:
    """``(sum masses)^(1/p)``; at ``p = inf`` the last mass plus the largest other one."""
    if math.isinf(p):
        return max(masses[:-1], default=0.0) + masses[-1]
    return float(np.sum(masses)) ** (1.0 / p)


def sobolev_norm(u: SampledFunction, spec: NormSpec) -> float:
    """Norm of ``u`` in the family named by ``spec``.

    Interval grids use the product-integration derivative realization,
    line grids the spectral one.  A divergent norm comes back as +inf
    with one warning that names its cause: this is the one place where a
    norm's +inf is worded.
    """
    family, alpha, p = spec.family, spec.alpha, spec.p

    if family == "fourier":
        if not u.grid.on_line:
            raise ValueError("fourier norms are defined on line functions only")
        if math.isinf(p):
            raise ValueError("fourier family requires p < inf")
        return fourier_seminorm(u, alpha.alpha, p) ** (1.0 / p)

    sides = ((None,) if family == "gagliardo" else (Side.LEFT, Side.RIGHT) if family == "symmetric"
             else (Side.parse(family.rpartition("_")[2]),))
    norms = []
    for side in sides:
        parts = _norm_parts(u, spec, side)
        norms.append(_summed([mass for mass, _ in parts], p))
        if not math.isfinite(norms[-1]):  # a diverging left side skips the right: one warning
            break
    total = norms[0] if len(norms) == 1 else _summed([v if math.isinf(p) else v**p for v in norms], p)
    if math.isfinite(total):
        return total
    names = [f"u^({k}) has" for k in range(len(parts) - 1)]
    names.append(f"the order-{alpha.alpha:g} {side.value} derivative has" if side is not None else
                 f"the order-{alpha.sigma:g} difference-quotient seminorm of u^({alpha.m})")
    cause = next((f"diverges: {name} {reason}" for name, (_, reason) in zip(names, parts) if reason),
                 "overflows: the p-th powers of the samples exceed the float range")
    _warn(f"{family} norm {cause}")
    return math.inf


# ---------------------------------------------------------------------------
# Gagliardo (difference-quotient) seminorm


def _square_row_sums(vals: np.ndarray, k: np.ndarray, theta: np.ndarray, on_line: bool) -> np.ndarray:
    """``sum_j (u(x_j + t) - u(x_j))^2`` for the offsets ``t = (k + theta) h``.

    On an interval the sum runs over ``j < n-k``; on the line over all
    integers, ``v`` being 0 outside the nodes ``0..n``.  With ``D_j = v[j+k]
    - v[j]`` and ``E_j = v[j+k+1] - v[j+k]`` a row is ``sum (D + theta E)^2
    = (1-theta) S_DD + theta S_(D+E) - theta (1-theta) S_EE``, and ``D + E``
    is the difference at lag ``k + 1``: a row needs the lag energies ``q[m]
    = sum_{j <= n-m} (v[j+m] - v[j])^2`` at ``m = k, k + 1``.  On the line
    they add the squares of the ``m`` nodes at each end, paired with zeros,
    and ``S_EE = q[1]``; on an interval ``S_DD`` drops its term ``j = n -
    k`` and ``S_EE`` is a suffix sum of squared steps.  Past
    ``_DIRECT_LAGS`` the lag energy is ``2 sum v^2 - 2 R(m)`` less those end
    squares, with the autocorrelation ``R`` from one zero-padded
    ``rfft``/``irfft`` pair; at shorter lags of smooth data that difference
    cancels below the FFT's roundoff, so they are summed directly (the
    head/tail split of :func:`~fracsobolev.operators._toeplitz`).  The
    samples are first shifted by the one nearest their mean, which keeps
    ``sum v^2`` and its roundoff small and gives a constant exact zeros;
    the line's end squares are of the samples as given.
    """
    n = vals.size - 1
    v = vals - vals[np.argmin(np.abs(vals - np.mean(vals)))]
    q = np.zeros(n + 2)  # q[n + 1] = 0: no pair inside the window is that far apart

    def ends(w: np.ndarray) -> np.ndarray:  # at m - 1: the squares of m nodes at each end
        squares = w * w
        return np.cumsum(squares) + np.cumsum(squares[::-1])

    head = min(n, _DIRECT_LAGS)
    for m in range(1, head + 1):
        d = v[m:] - v[:-m]
        q[m] = np.sum(d * d)
    if head < n:
        size = 1 << (2 * n).bit_length()  # no lag wraps around
        spectrum = np.fft.rfft(v, size)
        corr = np.fft.irfft(spectrum.real**2 + spectrum.imag**2, size)
        lag = np.arange(head + 1, n + 1)
        q[head + 1 : n + 1] = 2.0 * np.sum(v * v) - 2.0 * corr[lag] - ends(v)[lag - 1]
        # q is 0 at a period of periodic samples: keep roundoff from making it negative
        np.maximum(q, 0.0, out=q)
    if on_line:
        q[1:] += ends(vals)
        return (1.0 - theta) * q[k] + theta * q[k + 1] - theta * (1.0 - theta) * q[1]
    steps = np.diff(v) ** 2
    # steps_after[k] = sum_{m >= k} (v[m+1] - v[m])^2
    steps_after = np.concatenate([np.cumsum(steps[::-1])[::-1], [0.0]])
    last_pair = (v[n] - v[n - k]) ** 2
    return (1.0 - theta) * (q[k] - last_pair) + theta * q[k + 1] - theta * (1.0 - theta) * steps_after[k]


class _Modulus(NamedTuple):
    """The offset rows of :func:`_gagliardo_modulus`."""

    offsets: np.ndarray
    weights: np.ndarray  # trapezoid weights in log t
    inner: np.ndarray  # omega_p(t)^p at each offset
    last: np.ndarray  # last node x_j with x_j + t inside the domain
    mass: float  # h sum |u_j|^p on the line (its zero-extension tail); 0 on an interval
    t_max: float


def _gagliardo_modulus(u: SampledFunction, p: float) -> _Modulus:
    """The rows ``omega_p(t)^p = int |u(x+t)-u(x)|^p dx`` of the Gagliardo integral.

    One row per offset of :func:`~fracsobolev.core._log_offsets` from
    ``h/2`` to the domain width (on the line: the window diameter); the rows
    do not depend on ``alpha``.  An offset ``t = (k + theta) h`` pairs
    ``x_j`` with ``x_m + theta h``, ``m = j + k``, where the interpolant
    reads ``s[m] = v[m] + theta (v[m+1] - v[m])``, and at ``m = n``
    ``u.interp``: 0 right of the window unless ``theta = 0``.

    On the line, ``u`` being 0 outside the window, a row is one sum over R:
    ``h [sum_{m=0..n} |s[m] - v[m-k]|^p + sum_{j>n-k} |v[j]|^p]``, ``v[m-k]
    = 0`` for ``m < k``.  The strip left of the window is in it, so the rows
    and the tail ``mass = h sum |v|^p`` do not change when the samples move
    by whole nodes.  On an interval a row is the trapezoid over the columns
    ``m = k..last + k``, the nodes with ``x_j + t <= b``.

    ``p = 2`` takes the rows from :func:`_square_row_sums` in ``O(n log
    n)`` plus ``O(1)`` per offset.  On the line its interpolant ramps to 0
    over the cells beside the window, so the two columns that differ from
    the cut are replaced: ``m = -1`` (``theta^2 v[0]^2``) and ``m = n``.  On
    an interval ``np.interp`` reads ``x_{n-k}`` and the trapezoid ends.
    Other ``p`` build ``_GAGLIARDO_BLOCK // (n + 1)`` rows at a time as ``s
    - v[. - k]``, from the steps and from windows of the samples zero-padded
    on the left, with one ``u.interp`` call per block for ``m = n``; ``p =
    1`` skips the exact power.  Both agree with interpolating each offset
    to roundoff, not bitwise.
    """
    grid = u.grid
    h = grid.h
    x = grid.nodes
    vals = np.asarray(u.values, dtype=float)
    on_line = grid.on_line
    t_max = grid.width
    offsets, weights = _log_offsets(h / 2.0, t_max)
    n = x.size - 1
    if on_line:
        last = np.full(offsets.size, n)
        mass = h * float(np.sum(np.abs(vals) ** p))
    else:
        # nodes with x + t inside the interval; rows keep a zero tail past them
        last = np.searchsorted(x, grid.b - offsets + 1e-12 * grid.width, side="right") - 1
        mass = 0.0
    k, theta = np.divmod(offsets / h, 1.0)
    k = k.astype(int)
    edge_x = x[n - k] + offsets  # right of x_n unless theta = 0
    if p == 2.0:
        row_sums = _square_row_sums(vals, k, theta, on_line)
        edge = np.interp(edge_x, x, vals, left=0.0, right=0.0) - vals[n - k]
        if on_line:
            row_sums += edge**2 - ((1.0 - theta) * vals[n] - vals[n - k]) ** 2 - (theta * vals[0]) ** 2
            return _Modulus(offsets, weights, h * row_sums, last, mass, t_max)

        def row_end(j: np.ndarray) -> np.ndarray:
            return (np.interp(x[j] + offsets, x, vals, left=0.0, right=0.0) - vals[j]) ** 2

        row_sums += np.where(last >= n - k, edge**2, 0.0)
        inner = h * (row_sums - 0.5 * (row_end(np.zeros_like(k)) + row_end(last)))
        return _Modulus(offsets, weights, inner, last, mass, t_max)

    # row k of shifted reads v[m-k] for m = 0..n, with zeros left of the window
    shifted = sliding_window_view(np.concatenate([np.zeros(n + 1), vals]), n + 1)
    step = np.diff(vals, append=0.0)
    # tail[k]: the nodes x_j, j > n - k, whose shifted copy is 0
    tail = np.concatenate([[0.0], np.cumsum(np.abs(vals[::-1]) ** p)]) if on_line else None
    cols = np.arange(x.size)
    inner = np.empty(offsets.size)
    rows = max(1, _GAGLIARDO_BLOCK // x.size)
    for start in range(0, offsets.size, rows):
        block = slice(start, start + rows)
        kb = k[block]
        diff = np.multiply.outer(theta[block], step)
        diff += vals
        diff -= shifted[n + 1 - kb]
        diff[:, n] = u.interp(edge_x[block]) - vals[n - kb]
        if not on_line:
            stop = (last[block] + kb)[:, None]
            diff[(cols < kb[:, None]) | (cols > stop)] = 0.0
        np.abs(diff, out=diff)
        if p != 1.0:  # x ** 1.0 == x, but has no fast path
            diff **= p
        if on_line:
            inner[block] = h * (np.sum(diff, axis=1) + tail[kb])
        else:
            ends = diff[np.arange(kb.size), kb] + np.take_along_axis(diff, stop, axis=1)[:, 0]
            inner[block] = h * (np.sum(diff, axis=1) - 0.5 * ends)
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


def gagliardo_seminorm(u: SampledFunction, alpha: float, p: float) -> float:
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

    On the line ``u`` is 0 outside the window and each row is one sum over
    R by one rule, the strip left of the window included (see
    :func:`_gagliardo_modulus`), so moving the samples by whole nodes moves
    the value by roundoff only.  ``p = 2`` costs ``O(n log n)`` (one FFT
    autocorrelation plus directly summed short lags), other ``p`` ``O(n)``
    per offset; both agree with interpolating each offset to about 1e-14
    relative.
    """
    value, reason = _gagliardo_seminorm(u, alpha, p)
    if reason is not None:
        _warn(f"difference-quotient seminorm {reason}; reporting +inf")
    return value


def _gagliardo_seminorm(u: SampledFunction, alpha: float, p: float) -> tuple[float, str | None]:
    """:func:`gagliardo_seminorm` as ``(value, reason)``: why the value is +inf, or None."""
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
            return math.inf, (f"at p = inf diverges: {cause}, "
                              "and its difference quotients grow without bound there")
        g = u.grid
        return holder_quotient(u, alpha, (g.a, g.b)), None
    if p < 1.0:
        raise ValueError(f"p must lie in [1, inf], got {p}")
    if not np.all(np.isfinite(u.values)):
        raise ValueError("difference-quotient seminorm needs finite samples")

    rows = _gagliardo_modulus(u, p)
    full = _modulus_integral(rows, alpha, p)
    if full == 0.0:  # constant data: no modulus to fit
        return 0.0, None
    smoothness = _modulus_decay(rows, u.grid.h) / p
    if math.isnan(smoothness):
        _warn(f"difference-quotient seminorm: divergence not checked on n={u.grid.n} "
              "cells (fewer than 8 offsets lie in the modulus fit window); "
              "reporting the value on this grid")
    elif smoothness < alpha:
        return math.inf, ("grows without bound: its modulus omega_p(t)^p decays like t^s "
                          f"with s/p = {smoothness:.4g} < alpha = {alpha:g}")
    return full ** (1.0 / p), None


def gagliardo_small_offset_bound(u: SampledFunction, alpha: float, p: float) -> float:
    """Bound on the excluded ``t < h/2`` part of the seminorm's p-th power.

    Uses ``|u(x+t)-u(x)| <= Lip * t`` with the interpolant's Lipschitz
    constant; deliberately an error bar, never added to the value.
    """
    h = u.grid.h
    lip = float(np.max(np.abs(np.diff(u.values)))) / h
    measure = u.grid.width
    rate = p * (1.0 - alpha)
    return 2.0 * measure * lip**p * (h / 2.0) ** rate / rate


# ---------------------------------------------------------------------------
# Fourier-side seminorm


# B_2j / (2j)! for j = 1..8: the Euler-Maclaurin corrections of _zeta
_ZETA_CORRECTIONS = tuple(b / math.factorial(2 * j) for j, b in enumerate(
    (1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730, 7 / 6, -3617 / 510), start=1))


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


def _kink_corrected_moment(xi: np.ndarray, density: np.ndarray, power: float) -> float:
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


def _moment_window(u: SampledFunction) -> None:
    """Reject samples whose Fourier moments :func:`_kink_corrected_moment` cannot take.

    They need a line grid of at least 3 cells: the kink correction's second
    difference across ``xi = 0`` reads 3 distinct frequencies.  The 2
    samples of a 2-cell window give 0 and the Nyquist frequency, so
    ``density[1]`` and ``density[-1]`` are one entry and the step ``xi[1] -
    xi[0]`` is negative: the moment came out negative, or complex.
    """
    if not u.grid.on_line:
        raise ValueError("fourier seminorm is defined on line functions only")
    if u.grid.n < 3:
        raise ValueError(f"Fourier moments need a line window of at least 3 cells, got {u.grid.n}: "
                         "their kink correction at xi = 0 reads 3 distinct frequencies")


def fourier_seminorm(u: SampledFunction, s: float, p: float) -> float:
    """``int (1 + |xi|^{sp}) |uhat|^p dxi`` on the discrete frequency grid."""
    _moment_window(u)
    if math.isinf(p) or p < 1.0:
        raise ValueError(f"p must lie in [1, inf), got {p}")
    xi, uhat = _spectrum(u)
    dxi = float(xi[1] - xi[0])
    density = np.abs(uhat) ** p
    return float(np.sum(density) * dxi) + _kink_corrected_moment(xi, density, s * p)


def weighted_spectral_integral(u: SampledFunction, power: float) -> float:
    """``(1/2pi) int |xi|^power |uhat|^2 dxi`` with the kink cell handled."""
    _moment_window(u)
    xi, uhat = discrete_fourier(u.values[:-1], u.grid.b)
    return _kink_corrected_moment(xi, np.abs(uhat) ** 2, power) / (2.0 * math.pi)


# ---------------------------------------------------------------------------
# traces and Hölder machinery


def holder_quotient(
    u: SampledFunction, exponent: float, subinterval: tuple[float, float]
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


def trace(u: SampledFunction, alpha: float, p: float, side: Side | str = Side.LEFT) -> TraceValue:
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
