"""Executable checks for the toolkit's constructive identities and bounds.

Each operation here instantiates one theorem-shaped claim — an identity
between two independently computed quantities, or an inequality whose
constant must be bounded and refinement-stable — and returns a
:class:`VerificationReport` recording what was measured and whether it
met the declared bar.

Two reporting conventions coexist, chosen per check:

* **Equality checks** (pairing, reconstruction, integration by parts,
  consistency formulas) store raw relative residuals in ``residuals``
  and the binding tolerance in ``tolerance``.
* **Composite checks** (inequalities, extensions, density probes) bound
  several quantities with different bars; each entry in ``residuals`` is
  the measured quantity divided by its own bar, ``tolerance`` is 1.0,
  and ``ratios``/``details`` carry the raw values.  The notes name every
  entry.

In both conventions ``passed`` is exactly ``all(r <= tolerance)``, which
the report enforces at construction.

Inequalities are never "verified" in the sense of certifying an optimal
constant: the checks measure ratio batteries, require stability under
grid doubling, and confront the battery with a held-out function.  A
bound that exists but is numerically enormous or unstable fails the
check — that is a result about the discretization, reported honestly.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, replace
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from .core import (
    FracOrder,
    Grid,
    SampledFunction,
    Side,
    _coarsened,
    _fit_slope,
    discrete_fourier,
    gamma_fn,
    line_grid,
    uniform_grid,
)
from .operators import (
    _base_power,
    _mirrored,
    endpoint_constant,
    frac_derivative,
    frac_integral,
    kappa,
    marchaud_derivative,
    rl_derivative,
    spectral_derivative,
)
from .oracle import (
    Bump,
    ClosedFormFunction,
    Gaussian,
    PowerSum,
    Step,
    classical_derivative_values,
    describe_function,
    sample,
    sample_line,
)
from .spaces import (
    NormSpec,
    gagliardo_seminorm,
    holder_quotient,
    is_regular,
    lp_norm,
    seminorm_ratio_constant,
    sobolev_conjugate,
    sobolev_norm,
    trace,
)

__all__ = [
    "VerificationReport",
    "TestBattery",
    "check_weak_pairing",
    "check_ftwfc",
    "check_ibp",
    "check_poincare",
    "check_sobolev_inequality",
    "extend_trivial",
    "extend_interior",
    "extend_exterior",
    "check_embedding_trace",
    "check_consistency_w1p",
    "check_line_equivalences",
    "check_density",
    "check_inclusivity",
    "canonical_checks",
]

_TINY = 1e-300


# ---------------------------------------------------------------------------
# report plumbing


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of one check: what was measured, against which bar.

    ``residuals`` are the quantities the pass criterion bounds (raw or
    bar-normalized, see the module docstring); ``ratios`` are the raw
    measured ratios/values kept for the record; ``details`` is a flat
    map of named scalars (recovered constants, slopes, ...) that the
    JSON serialization exposes at top level.
    """

    theorem_id: str
    inputs: Mapping[str, object]
    residuals: tuple[float, ...]
    ratios: tuple[float, ...]
    passed: bool
    tolerance: float
    notes: str = ""
    details: Mapping[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "residuals", tuple(float(r) for r in self.residuals))
        object.__setattr__(self, "ratios", tuple(float(r) for r in self.ratios))
        object.__setattr__(
            self, "details", {k: float(v) for k, v in dict(self.details).items()}
        )
        if not self.residuals or not self.ratios:
            raise ValueError("a report needs at least one residual and one ratio")
        if not (math.isfinite(self.tolerance) and self.tolerance > 0):
            raise ValueError(f"tolerance must be positive, got {self.tolerance}")
        consistent = all(r <= self.tolerance for r in self.residuals)
        if self.passed != consistent:
            raise ValueError("passed flag contradicts the residual/tolerance data")

    def to_dict(self) -> dict:
        """JSON-ready form; ``details`` entries appear as top-level keys."""
        from . import __version__

        out = {
            "theorem_id": self.theorem_id,
            "inputs": dict(self.inputs),
            "residuals": list(self.residuals),
            "ratios": list(self.ratios),
            "passed": self.passed,
            "tolerance": self.tolerance,
            "notes": self.notes,
            "version": __version__,
        }
        out.update(self.details)
        return out


def _finish(
    theorem_id: str,
    inputs: Mapping[str, object],
    residuals: Iterable[float],
    ratios: Iterable[float],
    tolerance: float,
    notes: str,
    details: Mapping[str, float] | None = None,
) -> VerificationReport:
    res = tuple(float(r) for r in residuals)
    passed = bool(res) and all(r <= tolerance for r in res)
    return VerificationReport(
        theorem_id, dict(inputs), res, tuple(ratios), passed, tolerance, notes,
        details or {},
    )


@dataclass(frozen=True)
class TestBattery:
    """A family of closed-form test functions fed to a check.

    The default battery mixes smooth members, kernel-type powers, and a
    step; the bump battery is all compactly supported mollifier bumps
    and is the one pairing checks accept (their test functions must
    vanish near the boundary).
    """

    members: tuple[ClosedFormFunction, ...]

    # not a test case, despite the name pytest would otherwise collect
    __test__ = False

    def __post_init__(self) -> None:
        if not self.members:
            raise ValueError("a battery needs at least one member")

    def __len__(self) -> int:
        return len(self.members)

    def labels(self) -> tuple[str, ...]:
        return tuple(describe_function(f) for f in self.members)

    def require_compact_support(self, grid: Grid, band: float = 0.02) -> None:
        """Reject members that do not vanish within ``band`` of either end."""
        edge = grid.nodes[
            (grid.nodes <= grid.a + band * grid.width)
            | (grid.nodes >= grid.b - band * grid.width)
        ]
        for f in self.members:
            if np.any(f.value(edge) != 0.0):
                raise ValueError(
                    f"battery member {describe_function(f)!r} is not compactly "
                    f"supported inside ({grid.a}, {grid.b})"
                )

    @staticmethod
    def bumps(grid: Grid, count: int = 10) -> "TestBattery":
        """``count`` mollifier bumps with staggered centers, widths, signs."""
        if count < 1:
            raise ValueError("count must be positive")
        a, w = grid.a, grid.width
        radii = (0.10, 0.14, 0.18, 0.22, 0.26)
        heights = (1.0, -0.7, 1.3, 0.55, -1.1)
        members = []
        for i in range(count):
            frac = 0.32 + 0.36 * (i / (count - 1) if count > 1 else 0.5)
            members.append(
                Bump(a + frac * w, radii[i % 5] * w, heights[i % 5])
            )
        return TestBattery(tuple(members))

    @staticmethod
    def default(grid: Grid) -> "TestBattery":
        """Ten members spanning smooth, kernel-type, and step behaviour."""
        a, w = grid.a, grid.width
        return TestBattery(
            (
                Bump(a + 0.50 * w, 0.30 * w),
                Bump(a + 0.35 * w, 0.18 * w, 0.8),
                Bump(a + 0.62 * w, 0.22 * w, -1.5),
                Bump(a + 0.75 * w, 0.15 * w, 0.6),
                Gaussian(a + 0.5 * w, 0.10 * w),
                PowerSum(a, ((1.0, 0.0),)),
                PowerSum(a, ((1.0, 1.0),)),
                PowerSum(a, ((1.0, 1.3),)),
                PowerSum(a, ((1.0, -0.25),)),  # kernel-type (x-a)^{-1/4}
                Step(a + 0.5 * w, 1.0),
            )
        )

    @staticmethod
    def line_default() -> "TestBattery":
        """Decaying members for checks on the (truncated) real line."""
        return TestBattery(
            (
                Gaussian(0.0, 1.0),
                Gaussian(0.8, 0.7),
                Gaussian(-1.2, 1.3),
                Bump(0.0, 2.5),
                Bump(1.0, 1.8, -0.8),
                Gaussian(0.0, 0.5) + Gaussian(1.5, 0.8),
                Bump(-1.5, 2.0, 0.6),
                Gaussian(2.0, 0.9),
                Bump(0.5, 3.0, 1.2),
                Gaussian(-0.7, 1.6),
            )
        )


def _as_battery(family: "TestBattery | Sequence[ClosedFormFunction]") -> TestBattery:
    if isinstance(family, TestBattery):
        return family
    return TestBattery(tuple(family))


def _as_sampled(u, grid: Grid | None) -> SampledFunction:
    """A closed form sampled on ``grid`` (default ``[0, 1]``, 2048 cells), or interval samples as given."""
    if isinstance(u, ClosedFormFunction):
        return sample(u, grid if grid is not None else uniform_grid(0.0, 1.0, 2048))
    if isinstance(getattr(u, "grid", None), Grid) and not u.grid.on_line:
        return u
    raise TypeError(f"expected interval samples or a closed-form function, got {type(u).__name__}")


def _describe(u) -> str:
    if isinstance(u, ClosedFormFunction):
        return describe_function(u)
    g = u.grid
    return f"samples[n={g.n};({g.a:g},{g.b:g})]"


# ---------------------------------------------------------------------------
# singular-aware pairing ∫ f g


def _power_cell_pair(
    power: tuple[float, float], g_end: float, g_next: float, h: float
) -> float:
    """Closed form of ``∫_0^h c t^e (g_end + (g_next - g_end) t/h) dt``.

    ``g_end`` is the test factor at the singular node, ``g_next`` one node
    in.  Divergent combinations surface as ``inf`` rather than an error:
    a pairing that does not exist is a result.
    """
    c, e = power
    total = 0.0
    if g_end != 0.0:
        if e <= -1.0:
            return math.inf if c * g_end > 0 else -math.inf
        total += c * g_end * h ** (e + 1.0) / (e + 1.0)
    if g_next != g_end:
        if e <= -2.0:
            return math.inf if c * (g_next - g_end) > 0 else -math.inf
        total += c * (g_next - g_end) * h ** (e + 1.0) / (e + 2.0)
    return total


def _pair(
    f: SampledFunction, g: SampledFunction | np.ndarray, absolute: bool = False
) -> float:
    """``∫ f g`` over the grid with closed-form singular end cells.

    Either factor may carry a flagged endpoint; the cell is then the
    exact integral of (power behaviour) x (linear interpolant of the
    other factor), summed over every power term ``c_i t^e_i`` the end
    records.  Flags at the same end of both factors are rejected.
    ``absolute`` gives ``∫ |f| |g|``, the natural scale for pairing
    residuals; in a flagged cell it reads the power behaviour as
    ``sum |c_i| t^e_i``.
    """
    if isinstance(g, np.ndarray):
        g = SampledFunction(f.grid, g)
    if f.grid != g.grid:
        raise ValueError("pairing factors must share the grid")
    h = f.grid.h
    fv = np.array(f.values, dtype=float)
    gv = np.array(g.values, dtype=float)
    if not (np.all(np.isfinite(fv[1:-1])) and np.all(np.isfinite(gv[1:-1]))):
        raise ValueError("singular nodes are only supported at the endpoints")
    if absolute:
        fv, gv = np.abs(fv), np.abs(gv)

    total = 0.0
    for idx, other, is_left in ((0, 1, True), (-1, -2, False)):
        f_bad = not np.isfinite(fv[idx])
        g_bad = not np.isfinite(gv[idx])
        if not (f_bad or g_bad):
            continue
        if f_bad and g_bad:
            raise ValueError("both pairing factors are singular at the same endpoint")
        sing = f if f_bad else g
        arr = fv if f_bad else gv
        lin = gv if f_bad else fv
        oriented = sing if is_left else sing.reflected()
        terms = _base_power(oriented)
        if not terms:
            # no credible power behaviour: patch the marker linearly,
            # matching what the operator layer does with such nodes
            arr[idx] = 2.0 * arr[other] - arr[2 * other - idx]
            if absolute:
                arr[idx] = abs(arr[idx])
            continue
        for coeff, expo in terms:
            if absolute:
                coeff = abs(coeff)
            total += _power_cell_pair((coeff, expo), float(lin[idx]), float(lin[other]), h)
        arr[idx] = np.nan  # keep the trapezoid away from this cell

    prod = fv * gv
    ok = np.isfinite(prod[:-1]) & np.isfinite(prod[1:])
    total += float(np.sum((0.5 * h * (prod[:-1] + prod[1:]))[ok]))
    return total


def _interior_mask(grid: Grid, margin: float = 0.1) -> np.ndarray:
    x = grid.nodes
    return (x >= grid.a + margin * grid.width) & (x <= grid.b - margin * grid.width)


def _rel_linf(
    approx: np.ndarray, target: np.ndarray, mask: np.ndarray
) -> float:
    both = mask & np.isfinite(approx) & np.isfinite(target)
    if not np.any(both):
        return math.inf
    scale = max(float(np.max(np.abs(target[both]))), _TINY)
    return float(np.max(np.abs(approx[both] - target[both]))) / scale


# ---------------------------------------------------------------------------
# the weak-derivative pairing


def check_weak_pairing(
    u: SampledFunction,
    v_candidate: SampledFunction,
    alpha: float,
    side: Side | str = Side.LEFT,
    battery: TestBattery | None = None,
    tolerance: float = 1e-3,
) -> VerificationReport:
    """Is ``v_candidate`` the weak fractional derivative of ``u``?

    For each compactly supported test function φ the defining pairing is
    evaluated from both ends: ``∫ v φ`` against ``(-1)^m ∫ u D^α φ̃``,
    with φ̃ the zero extension of φ onto an ambient grid three times as
    wide and the φ-side derivative taken from the opposite side.  Each
    residual is normalized by the absolute-integrand scale, so a wrong
    candidate shows up as an O(1) entry.
    """
    side = Side.parse(side)
    order = FracOrder(alpha)
    grid = u.grid
    if battery is None:
        battery = TestBattery.bumps(grid)
    battery.require_compact_support(grid)
    w = grid.width
    ambient = Grid(grid.a - w, grid.b + w, 3 * grid.n)
    phi_side = side.opposite
    sign = (-1.0) ** order.m

    gaps = []
    scales = []
    for phi in battery.members:
        phi_vals = phi.value(grid.nodes)
        phi_ext = SampledFunction(ambient, phi.value(ambient.nodes))
        dphi = frac_derivative(phi_ext, alpha, phi_side, scheme="product_rl")
        dphi_vals = np.asarray(dphi.values[grid.n : 2 * grid.n + 1])
        lhs = _pair(v_candidate, phi_vals)
        rhs = sign * _pair(u, dphi_vals)
        gaps.append(abs(lhs - rhs))
        scale = max(_pair(v_candidate, phi_vals, absolute=True), _pair(u, dphi_vals, absolute=True))
        scales.append(scale)

    # a test bump supported away from both factors pairs to a roundoff-sized
    # number on a roundoff-sized scale; floor each scale at a fixed fraction
    # of the battery-wide maximum so those entries read as the zeros they are
    floor = max(1e-9 * max(scales), _TINY)
    residuals = [gap / max(scale, floor) for gap, scale in zip(gaps, scales)]

    return _finish(
        "weak_pairing",
        {
            "u": _describe(u),
            "v_candidate": _describe(v_candidate),
            "alpha": alpha,
            "side": side.value,
            "n": grid.n,
            "interval": [grid.a, grid.b],
            "battery": list(battery.labels()),
        },
        residuals,
        [r / tolerance for r in residuals],
        tolerance,
        "one scale-normalized pairing residual per test bump; the test-side "
        "derivative is computed on a 3x-wide ambient grid after zero extension",
    )


# ---------------------------------------------------------------------------
# reconstruction from the kernel coefficient and the derivative


def check_ftwfc(
    u: SampledFunction | ClosedFormFunction,
    alpha: float,
    side: Side | str = Side.LEFT,
    grid: Grid | None = None,
    tolerance: float = 1e-2,
) -> VerificationReport:
    """Reconstruct ``u`` as ``c·kappa + I^α D^α u`` and measure the gap.

    ``c`` comes from endpoint extrapolation, the derivative from the
    product-integration scheme, and the re-integration from the exact
    -on-piecewise-linear integral — three independently coded routes
    whose composition must return the input.
    """
    side = Side.parse(side)
    if not 0.0 < alpha < 1.0:
        raise ValueError("the reconstruction identity needs 0 < alpha < 1")
    su = _as_sampled(u, grid)
    g = su.grid
    kc = endpoint_constant(su, alpha, side)
    deriv = rl_derivative(su, alpha, side)
    with np.errstate(invalid="ignore"):  # c = 0 times the base marker is 0 * inf
        kernel_part = kc.c_value * kappa(alpha, side, g).values
    recon = kernel_part + frac_integral(deriv, alpha, side).values
    residual = _rel_linf(recon, su.values, _interior_mask(g))
    notes = (
        "relative sup-norm gap over the interior 80% of nodes between u and "
        "c*kappa + I^alpha D^alpha u; ratios[0] is the recovered c"
    )
    return _finish(
        "fundamental_theorem",
        {
            "u": _describe(u),
            "alpha": alpha,
            "side": side.value,
            "n": g.n,
            "interval": [g.a, g.b],
        },
        [residual],
        [kc.c_value],
        tolerance,
        notes,
        details={
            "recovered_c": kc.c_value,
            "extrapolation_spread": kc.residual_estimate,
        },
    )


# ---------------------------------------------------------------------------
# integration by parts


def check_ibp(
    u: SampledFunction,
    v: SampledFunction,
    alpha: float,
    p: float = 2.0,
    q: float = 2.0,
    variant: str = "symmetric",
    side: Side | str = Side.LEFT,
    tolerance: float = 1e-3,
) -> VerificationReport:
    """``∫ u D^±α v = ∫ v D^∓α u`` for ``0 < α < 1``, under the variant's hypotheses.

    The symmetric variant requires both functions continuous up to the
    boundary and ``αp > 1``, ``αq > 1`` with conjugate exponents, and
    checks both orientations of the identity.  The zero-trace variant
    requires ``v`` compactly supported and checks the orientation in
    which ``u`` only needs its ``side``-sided derivative, so singular
    kernel-type ``u`` is admissible.
    """
    side = Side.parse(side)
    if u.grid != v.grid:
        raise ValueError("both factors must live on the same grid")
    if abs(1.0 / p + 1.0 / q - 1.0) > 1e-9:
        raise ValueError(f"exponents must be conjugate, got p={p}, q={q}")
    if variant not in ("symmetric", "one_sided_zero_trace"):
        raise ValueError(f"unknown variant {variant!r}")

    grid = u.grid
    scale_floor = _TINY

    if variant == "symmetric":
        if not (alpha * p > 1.0 and alpha * q > 1.0):
            raise ValueError(
                f"symmetric identity requires alpha*p > 1 and alpha*q > 1, "
                f"got alpha*p={alpha * p:g}, alpha*q={alpha * q:g}"
            )
        for name, f in (("u", u), ("v", v)):
            if not (np.isfinite(f.values[0]) and np.isfinite(f.values[-1])):
                raise ValueError(f"{name} must be continuous up to the boundary")
        orientations = (Side.LEFT, Side.RIGHT)
    else:
        inner = np.abs(v.values)
        scale_v = float(np.max(inner)) or 1.0
        band = _interior_mask(grid, margin=0.02)
        if inner[0] != 0.0 or inner[-1] != 0.0 or np.any(inner[~band] > 1e-12 * scale_v):
            raise ValueError("the zero-trace variant needs v compactly supported")
        orientations = (side,)

    residuals = []
    for u_side in orientations:
        du = rl_derivative(u, alpha, u_side)
        dv = rl_derivative(v, alpha, u_side.opposite)
        lhs = _pair(du, v)
        rhs = _pair(dv, u)
        scale = max(_pair(du, v, absolute=True), _pair(dv, u, absolute=True), scale_floor)
        residuals.append(abs(lhs - rhs) / scale)

    return _finish(
        "integration_by_parts." + variant,
        {
            "u": _describe(u),
            "v": _describe(v),
            "alpha": alpha,
            "p": p,
            "q": q,
            "side": side.value,
            "n": grid.n,
        },
        residuals,
        [r / tolerance for r in residuals],
        tolerance,
        f"{variant} identity, residual per orientation normalized by the "
        "absolute-integrand scale",
    )


# ---------------------------------------------------------------------------
# Poincaré-type ratio batteries


def _norm_ratio(
    f: ClosedFormFunction, grid: Grid, alpha: float, r: float, p: float, subtract_kernel: bool
) -> float:
    """``‖u - c·kappa‖_r / ‖D^α u‖_p`` for the samples ``u`` of ``f``, left side.

    Without ``subtract_kernel`` the numerator is ``‖u‖_r``.  A vanishing
    derivative gives 0 over a vanishing numerator and +inf otherwise.
    """
    su = sample(f, grid)
    top = su
    if subtract_kernel:
        kc = endpoint_constant(su, alpha, Side.LEFT)
        with np.errstate(invalid="ignore"):
            diff = su.values - kc.c_value * kappa(alpha, Side.LEFT, grid).values
        top = SampledFunction(grid, diff)
    lhs = lp_norm(top, r)
    rhs = lp_norm(rl_derivative(su, alpha, Side.LEFT), p)
    if rhs == 0.0:
        return 0.0 if lhs <= 1e-10 else math.inf
    return lhs / rhs


def _battery_drift(
    ratio_fn: Callable[[ClosedFormFunction, Grid], float],
    battery: TestBattery,
    held_out: ClosedFormFunction,
    grid: Grid,
) -> tuple[list[float], list[float], dict[str, float], float]:
    """The ratio-battery engine: (member ratios at 2n, residuals, details, max at n).

    Residuals: battery-maximum drift from n to 2n / 10%, held-out ratio / (1.5 x max).
    """
    fine = grid.refine(2)
    coarse_ratios = [ratio_fn(f, grid) for f in battery.members]
    fine_ratios = [ratio_fn(f, fine) for f in battery.members]
    max_coarse = max(coarse_ratios)
    max_fine = max(fine_ratios)
    drift = abs(max_fine - max_coarse) / max(max_coarse, _TINY)
    held_ratio = ratio_fn(held_out, fine)
    residuals = [drift / 0.10, held_ratio / max(1.5 * max_fine, _TINY)]
    details = {"battery_max": max_fine, "held_out_ratio": held_ratio, "max_ratio_drift": drift}
    return fine_ratios, residuals, details, max_coarse


def _ratio_battery_report(
    theorem_id: str,
    inputs: dict,
    ratio_fn: Callable[[ClosedFormFunction, Grid], float],
    battery: TestBattery,
    held_out: ClosedFormFunction,
    grid: Grid,
    notes_head: str,
) -> VerificationReport:
    """Report of an interval ratio battery: :func:`_battery_drift` and its notes."""
    fine_ratios, residuals, details, max_coarse = _battery_drift(ratio_fn, battery, held_out, grid)
    details["battery_max_coarse"] = max_coarse
    notes = (
        notes_head
        + "; residuals = (max-ratio drift / 10%, held-out ratio / (1.5 x battery max)"
        + "); ratios are the per-member values at the doubled grid"
    )
    return _finish(theorem_id, inputs, residuals, fine_ratios, 1.0, notes, details)


def check_poincare(
    u_family: TestBattery | Sequence[ClosedFormFunction],
    alpha: float,
    p: float,
    variant: str = "kernel_subtracted",
    grid: Grid | None = None,
    held_out: ClosedFormFunction | None = None,
) -> VerificationReport:
    """Ratio battery for the norm-vs-derivative bounds on an interval.

    ``kernel_subtracted`` measures ``‖u - c·kappa‖_p / ‖D^α u‖_p`` (any
    member of the one-sided space qualifies); ``mathring`` drops the
    subtraction but requires the kernel-free class, enforced through the
    regularity test; ``symmetric`` requires p > 1 and members continuous
    to both endpoints.  Passing means the battery maximum moves ≤ 10%
    under grid doubling and a held-out function stays within 1.5x the
    battery maximum — an existence-of-C probe, never a constant claim.
    """
    if variant not in ("kernel_subtracted", "mathring", "symmetric"):
        raise ValueError(f"unknown variant {variant!r}")
    if not 0.0 < alpha < 1.0:
        raise ValueError("Poincare ratios need 0 < alpha < 1")
    battery = _as_battery(u_family)
    if len(battery) < 10:
        raise ValueError(f"need a family of at least 10 functions, got {len(battery)}")
    grid = grid if grid is not None else uniform_grid(0.0, 1.0, 1024)
    if held_out is None:
        held_out = Bump(grid.a + 0.45 * grid.width, 0.12 * grid.width, 0.9)

    if variant == "symmetric" and not p > 1.0:
        raise ValueError("the symmetric bound is stated for 1 < p < inf")
    for f in battery.members:
        su = sample(f, grid)
        if variant == "mathring" and not is_regular(su, alpha, Side.LEFT):
            raise ValueError(
                f"member {describe_function(f)!r} carries a kernel component; "
                "the mathring variant requires kernel-free functions"
            )
        if variant == "symmetric" and not (
            np.isfinite(su.values[0]) and np.isfinite(su.values[-1])
        ):
            raise ValueError(
                f"member {describe_function(f)!r} is not continuous up to the "
                "boundary; the symmetric variant requires that"
            )

    return _ratio_battery_report(
        "poincare." + variant,
        {
            "family": list(battery.labels()),
            "held_out": describe_function(held_out),
            "alpha": alpha,
            "p": p,
            "variant": variant,
            "n": grid.n,
            "interval": [grid.a, grid.b],
        },
        lambda f, g: _norm_ratio(f, g, alpha, p, p, variant == "kernel_subtracted"),
        battery,
        held_out,
        grid,
        f"L^p-vs-derivative ratio battery, variant {variant}",
    )


# ---------------------------------------------------------------------------
# Sobolev inequality with the scaling probe


def check_sobolev_inequality(
    u_family: TestBattery | Sequence[ClosedFormFunction],
    alpha: float,
    p: float,
    domain: str = "interval",
    r: float | None = None,
    grid: Grid | None = None,
    half_width: float = 12.0,
    n_line: int = 4096,
    held_out: ClosedFormFunction | None = None,
) -> VerificationReport:
    """Critical-exponent embedding: ratio battery plus a dilation probe.

    On the line the probe samples ``u(λx)`` for λ ∈ {1, 2, 4, 8}: at the
    critical ``r = p* = p/(1-αp)`` the ratio ``‖u‖_r / ‖D^α u‖_p`` must
    be λ-invariant within 5%; at any other ``r`` it must instead drift
    monotonically — the exponent is unique, and the check asserts
    whichever behaviour the requested ``r`` implies.
    """
    if not alpha * p < 1.0:
        raise ValueError(f"the embedding needs alpha*p < 1, got {alpha * p:g}")
    if domain not in ("interval", "line"):
        raise ValueError(f"unknown domain {domain!r}")
    p_star = sobolev_conjugate(p, alpha)
    r = p_star if r is None else float(r)
    if domain == "interval" and r > p_star + 1e-9:
        raise ValueError(f"r = {r:g} exceeds the critical exponent {p_star:g}")
    battery = _as_battery(u_family)
    if len(battery) < 10:
        raise ValueError(f"need a family of at least 10 functions, got {len(battery)}")

    if domain == "interval":
        grid = grid if grid is not None else uniform_grid(0.0, 1.0, 1024)
        if held_out is None:
            held_out = Bump(grid.a + 0.45 * grid.width, 0.12 * grid.width, 0.9)
        return _ratio_battery_report(
            "sobolev_inequality.interval",
            {
                "family": list(battery.labels()),
                "held_out": describe_function(held_out),
                "alpha": alpha,
                "p": p,
                "r": r,
                "critical_r": p_star,
                "n": grid.n,
                "interval": [grid.a, grid.b],
            },
            lambda f, g: _norm_ratio(f, g, alpha, r, p, True),
            battery,
            held_out,
            grid,
            "kernel-subtracted L^r vs derivative L^p ratio battery",
        )

    # --- the line: members must decay inside the window
    if held_out is None:
        held_out = Gaussian(0.3, 1.7)

    def line_ratio(f: ClosedFormFunction, g: Grid, lam: float = 1.0) -> float:
        lf = SampledFunction(g, f.value(lam * g.nodes)).check_decay()
        lhs = lp_norm(lf, r)
        rhs = lp_norm(marchaud_derivative(lf, alpha, Side.LEFT), p)
        return lhs / max(rhs, _TINY)

    window = line_grid(half_width, n_line)
    lambdas = (1.0, 2.0, 4.0, 8.0)
    probe_f = battery.members[0]
    fine, residuals, details, _ = _battery_drift(line_ratio, battery, held_out, window)
    probe = [line_ratio(probe_f, window, lam) for lam in lambdas]

    rel = [pr / probe[0] - 1.0 for pr in probe]
    probe_drift = max(abs(d) for d in rel)
    at_critical = abs(r - p_star) <= 1e-9
    if at_critical:
        probe_entry = probe_drift / 0.05
        probe_note = "dilation drift / 5% (critical exponent: invariance required)"
    else:
        steps = np.diff(rel)
        monotone = bool(np.all(steps > 0.0) or np.all(steps < 0.0))
        probe_entry = 0.0 if (monotone and probe_drift > 0.05) else 2.0
        probe_note = (
            "0 if the dilation ratio drifts monotonically beyond 5% "
            "(off-critical exponent: invariance must fail), else 2"
        )

    return _finish(
        "sobolev_inequality.line",
        {
            "family": list(battery.labels()),
            "held_out": describe_function(held_out),
            "alpha": alpha,
            "p": p,
            "r": r,
            "critical_r": p_star,
            "half_width": half_width,
            "n": n_line,
            "lambdas": list(lambdas),
        },
        [*residuals, probe_entry],
        fine,
        1.0,
        "residuals = (max-ratio drift / 10%, held-out ratio / (1.5 x battery max), "
        + probe_note
        + "); ratios are per-member values at the doubled grid",
        details={**details, "dilation_drift": probe_drift},
    )


# ---------------------------------------------------------------------------
# extensions; extend_interior and extend_exterior certify the triple that
# _extension_residuals builds: (nodal mismatch / 1e-12, support entry 0 or 2,
# measured-constant drift / 10%)


_SLOPE_FIT_WINDOW = (1.0 / 3.0, 0.95)


def _zero_extension(u: SampledFunction, ambient: Grid) -> SampledFunction:
    """``u`` zero-padded onto ``ambient``, once it is shown to vanish near its ends."""
    grid = u.grid
    if not (ambient.a <= grid.a + 1e-12 and ambient.b >= grid.b - 1e-12):
        raise ValueError("the ambient grid must contain the original interval")
    vals = u.values
    if not np.all(np.isfinite(vals)):
        raise ValueError("trivial extension needs finite samples")
    scale = float(np.max(np.abs(vals)))
    band = int(np.ceil(0.02 * grid.n))
    if scale > 0.0 and (
        np.any(np.abs(vals[: band + 1]) > 1e-14 * scale)
        or np.any(np.abs(vals[-band - 1 :]) > 1e-14 * scale)
    ):
        raise ValueError("samples do not vanish near the endpoints: not compactly supported")
    return SampledFunction(ambient, u.interp(ambient.nodes))


def extend_trivial(
    u: SampledFunction,
    alpha: float,
    p: float,
    ambient: Grid,
) -> tuple[SampledFunction, VerificationReport]:
    """Zero-pad a compactly supported function and audit the side effects.

    The extension itself is trivial; what the report certifies is the
    price: the ratio of the ambient norm to the original norm, and the
    derivative "pollution" the support sheds to its right — compared
    pointwise against the explicit kernel integral
    ``(1/Γ(-α)) ∫ u(y) (x-y)^{-1-α} dy`` (an independent quadrature) and
    checked for the ``-(1+α)`` far-field log-log slope.  The slope is
    measured against the distance from the support edge, so the ambient
    window must extend well past the support for the asymptote to hold.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("the extension checks cover 0 < alpha < 1")
    ext = _zero_extension(u, ambient)
    grid = u.grid
    vals = u.values
    scale = float(np.max(np.abs(vals)))
    inputs = {
        "u": _describe(u),
        "alpha": alpha,
        "p": p,
        "interval": [grid.a, grid.b],
        "ambient": [ambient.a, ambient.b],
        "n": grid.n,
        "n_ambient": ambient.n,
    }

    if scale == 0.0:
        report = _finish(
            "extension.trivial",
            inputs,
            [0.0, 0.0],
            [0.0],
            1.0,
            "zero input: the extension is identically zero and every probe is vacuous",
            details={"norm_ratio": 0.0, "pollution_mismatch": 0.0, "tail_slope": 0.0},
        )
        return ext, report

    support_idx = np.nonzero(np.abs(vals) > 1e-14 * scale)[0]
    edge = float(grid.nodes[support_idx[-1]])
    x = ambient.nodes
    tail_mask = x > grid.b + 2.0 * ambient.h
    tail_x = x[tail_mask]
    s = tail_x - edge
    span = float(s[-1]) if s.size else 0.0
    fit_mask = (s >= _SLOPE_FIT_WINDOW[0] * span) & (s <= _SLOPE_FIT_WINDOW[1] * span)
    if np.count_nonzero(fit_mask) < 2:
        raise ValueError(
            "the ambient window leaves fewer than 2 slope-fit points past the support"
        )

    spec = NormSpec("one_sided_left", FracOrder(alpha), p)
    norm_in = sobolev_norm(u, spec)
    if not math.isfinite(norm_in):
        raise ValueError("the norm of u diverges; extension ratios would be vacuous")
    norm_out = sobolev_norm(ext, spec)
    norm_ratio = norm_out / max(norm_in, _TINY)

    deriv = rl_derivative(ext, alpha, Side.LEFT)
    tail_num = np.asarray(deriv.values)[tail_mask]

    # independent route: direct quadrature of the explicit kernel integral,
    # on a tail subsample to keep the pairwise-distance table small; cells
    # with both nodes outside the support add exact zeros, so the table
    # keeps only the nodes from one before the first nonzero sample to one
    # after the last
    stride = max(1, tail_x.size // 512)
    sub_x, sub_num = tail_x[::stride], tail_num[::stride]
    coef = 1.0 / gamma_fn(-alpha)
    nonzero = np.flatnonzero(vals)
    cover = slice(max(nonzero[0] - 1, 0), min(nonzero[-1] + 2, vals.size))
    diffs = sub_x[:, None] - grid.nodes[None, cover]
    kernel = coef * np.power(diffs, -1.0 - alpha)
    cell = vals[cover] * kernel
    tail_ora = np.sum(0.5 * grid.h * (cell[:, :-1] + cell[:, 1:]), axis=1)
    pollution_rel = float(np.max(np.abs(sub_num - tail_ora))) / max(
        float(np.max(np.abs(tail_ora))), _TINY
    )

    with np.errstate(divide="ignore"):
        logs = np.log(s[fit_mask])
        logt = np.log(np.abs(tail_num[fit_mask]))
    keep = np.isfinite(logt)
    slope = _fit_slope(logs[keep], logt[keep])
    slope_err = abs(slope - (-(1.0 + alpha)))

    report = _finish(
        "extension.trivial",
        inputs,
        [pollution_rel / 1e-2, slope_err / 0.05],
        [norm_ratio],
        1.0,
        "residuals = (pollution mismatch vs explicit kernel integral / 1e-2, "
        "|far-field log-log slope + (1+alpha)| / 0.05); ratios[0] is the "
        "ambient-to-original norm ratio",
        details={
            "norm_ratio": norm_ratio,
            "pollution_mismatch": pollution_rel,
            "tail_slope": slope,
            "support_edge": edge,
        },
    )
    return ext, report


def _extension_residuals(
    u: SampledFunction,
    ext: SampledFunction,
    keep: np.ndarray,
    dead: np.ndarray,
    alpha: float,
    p: float,
    extend: Callable[[SampledFunction, Grid], SampledFunction],
    extra: Callable[[SampledFunction], float] = lambda su: 0.0,
) -> tuple[list[float], list[float], float]:
    """``[mismatch / 1e-12, 0 or 2, drift / 10%]``, ``[C at n/2, C at n]`` and the mismatch.

    ``ext = extend(u, ambient)`` must equal ``u`` on the nodes ``keep``, relative
    to the largest ``|u|`` there, and vanish on the ambient nodes ``dead``.
    ``C = norm(Eu) / (norm(u) + extra(u))`` in the left norm of order ``alpha``;
    at n/2 every second sample of ``u`` is extended onto every second node.
    """
    spec = NormSpec("one_sided_left", FracOrder(alpha), p)
    vals = u.values[keep]
    scale = max(float(np.max(np.abs(vals))), _TINY)
    mismatch = float(np.max(np.abs(ext.interp(u.grid.nodes[keep]) - vals))) / scale
    leak = float(np.max(np.abs(ext.values[dead]), initial=0.0))
    norm_u = sobolev_norm(u, spec)
    if not math.isfinite(norm_u):
        raise ValueError("the norm of u diverges; it is not a member of the space being extended")
    c_n = sobolev_norm(ext, spec) / max(norm_u + extra(u), _TINY)
    u_half = _coarsened(u, 2)
    ext_half = extend(u_half, _coarsened(ext, 2).grid)
    c_half = sobolev_norm(ext_half, spec) / max(sobolev_norm(u_half, spec) + extra(u_half), _TINY)
    drift = abs(c_n - c_half) / max(c_n, _TINY)
    return [mismatch / 1e-12, 0.0 if leak == 0.0 else 2.0, drift / 0.10], [c_half, c_n], mismatch


def _smoothstep(t: np.ndarray) -> np.ndarray:
    """C-infinity ramp: 0 for t <= 0, 1 for t >= 1."""
    t = np.clip(t, 0.0, 1.0)
    lo = np.zeros_like(t)
    with np.errstate(divide="ignore", over="ignore"):
        num = np.where(t > 0.0, np.exp(-1.0 / np.where(t > 0.0, t, 1.0)), lo)
        den = num + np.where(
            t < 1.0, np.exp(-1.0 / np.where(t < 1.0, 1.0 - t, 1.0)), lo
        )
    return num / np.where(den > 0.0, den, 1.0)


def extend_interior(
    u: SampledFunction,
    alpha: float,
    p: float,
    inner: tuple[float, float],
    ambient: Grid | None = None,
) -> tuple[SampledFunction, VerificationReport]:
    """Cut off outside a strictly interior window, then zero-pad.

    ``u`` is multiplied by a smooth plateau ψ that equals 1 on the inner
    window and vanishes on a collar strictly inside the domain, so the
    product is compactly supported whatever ``u`` does at the boundary —
    including kernel-type singular behaviour, as long as the window
    stays away from it.  The report certifies nodal equality on the
    window, support containment, and a refinement-stable norm ratio.
    ``ambient`` (by default three widths) must contain the domain but needs
    no room past it: no far-field tail is audited here.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("the extension checks cover 0 < alpha < 1")
    grid = u.grid
    lo, hi = float(inner[0]), float(inner[1])
    margin = 1e-9 * grid.width
    if not (grid.a + margin < lo < hi < grid.b - margin):
        raise ValueError(
            f"the inner window ({lo:g}, {hi:g}) must be strictly inside "
            f"({grid.a:g}, {grid.b:g})"
        )
    if ambient is None:
        ambient = Grid(grid.a - grid.width, grid.b + grid.width, 3 * grid.n)

    k_lo = lo - 0.5 * (lo - grid.a)
    k_hi = hi + 0.5 * (grid.b - hi)

    def extend(su: SampledFunction, g_amb: Grid) -> SampledFunction:
        x, vals = su.grid.nodes, su.values
        psi = _smoothstep((x - k_lo) / (lo - k_lo)) * _smoothstep((k_hi - x) / (k_hi - hi))
        live = psi > 0.0
        if np.any(live & ~np.isfinite(vals)):
            raise ValueError("the inner window must stay away from singular nodes")
        out = np.zeros_like(vals)
        out[live] = vals[live] * psi[live]
        return _zero_extension(SampledFunction(su.grid, out), g_amb)

    ext = extend(u, ambient)
    in_window = (grid.nodes >= lo) & (grid.nodes <= hi)
    outside = (ambient.nodes < k_lo - ambient.h) | (ambient.nodes > k_hi + ambient.h)
    residuals, ratios, mismatch = _extension_residuals(u, ext, in_window, outside, alpha, p, extend)
    return ext, _finish(
        "extension.interior",
        {
            "u": _describe(u),
            "alpha": alpha,
            "p": p,
            "inner": [lo, hi],
            "interval": [grid.a, grid.b],
            "ambient": [ambient.a, ambient.b],
            "n": grid.n,
        },
        residuals,
        ratios,
        1.0,
        "residuals = (nodal mismatch on the inner window / 1e-12, 0 if the "
        "extension vanishes outside the cutoff plateau else 2, norm-ratio "
        "drift between resolutions n/2 and n / 10%); ratios are the norm "
        "ratios at n/2 and n",
        details={"norm_ratio": ratios[1], "norm_ratio_coarse": ratios[0], "window_mismatch": mismatch},
    )


def extend_exterior(
    u: SampledFunction,
    alpha: float,
    p: float,
    mu: float,
    ambient: Grid,
    side: Side | str = Side.LEFT,
) -> tuple[SampledFunction, VerificationReport]:
    """Extend beyond the domain without losing any of it.

    The construction pays for keeping ``u`` intact on all of (a, b) with
    an integrability condition: ``αp < 1`` and a finite ``L^mu`` norm
    with ``mu > p/(1-αp)``.  The extension copies ``u`` periodically one
    window to the right, multiplies by a smooth cutoff that is exactly 1
    on the closed domain, and zero-pads the rest of the ambient window.
    The report certifies exact equality on the domain, compact support,
    and a refinement-stable measured constant in
    ``‖Eu‖ ≤ C (‖u‖_{W} + ‖u‖_{L^mu})``.

    The right-sided space is the left code on mirrored data: ``u`` and the
    ambient window are reflected about the domain's midpoint, and the
    extension is reflected back.  Its report is the left one, with the
    caller's ``side`` and ``ambient``.
    """
    side = Side.parse(side)
    a, b = u.grid.a, u.grid.b

    def back(out: tuple[SampledFunction, VerificationReport]):
        ext, report = out
        inputs = {**report.inputs, "side": side.value, "ambient": [ambient.a, ambient.b]}
        return SampledFunction(ambient, ext.values[::-1].copy()), replace(report, inputs=inputs)

    return _mirrored(
        side,
        lambda data: _extend_exterior_left(*data, alpha, p, mu),
        (u, ambient),
        reflect=lambda _: (u.reflected(), Grid(a + b - ambient.b, a + b - ambient.a, ambient.n)),
        back=back,
    )


def _extend_exterior_left(
    u: SampledFunction, ambient: Grid, alpha: float, p: float, mu: float
) -> tuple[SampledFunction, VerificationReport]:
    """The left-sided :func:`extend_exterior`."""
    if not 0.0 < alpha < 1.0:
        raise ValueError("the extension checks cover 0 < alpha < 1")
    if not alpha * p < 1.0:
        raise ValueError(
            f"the exterior extension needs alpha*p < 1, got alpha*p = {alpha * p:g}"
        )
    threshold = p / (1.0 - alpha * p)
    if not mu > threshold:
        raise ValueError(
            f"the integrability exponent must exceed p/(1-alpha p) = "
            f"{threshold:g}, got mu = {mu:g}"
        )
    grid = u.grid
    if not np.all(np.isfinite(u.values)):
        raise ValueError(
            "exterior extension needs finite samples: a singular base node "
            "would sit in the interior of the ambient window, where the "
            "derivative scheme has no closed form for it"
        )
    mu_norm = lp_norm(u, mu)
    if not math.isfinite(mu_norm):
        raise ValueError(f"the L^{mu:g} norm of u diverges; the construction needs it finite")
    w = grid.width
    if not (ambient.a <= grid.a - w + 1e-9 * w and ambient.b >= grid.b + w - 1e-9 * w):
        raise ValueError("the ambient window must cover one full width on each side")

    collar = 0.2 * w

    def build(su: SampledFunction, g_amb: Grid) -> SampledFunction:
        x = g_amb.nodes
        shifted = su.interp(x - w)
        copy_zone = x > su.grid.b
        taper = _smoothstep((su.grid.b + collar - x) / collar)
        vals = su.interp(x)
        vals[copy_zone] = shifted[copy_zone] * taper[copy_zone]
        return SampledFunction(g_amb, vals)

    ext = build(u, ambient)
    dead = (ambient.nodes < grid.a - 1e-12 * w) | (ambient.nodes > grid.b + collar + ambient.h)
    residuals, ratios, mismatch = _extension_residuals(
        u, ext, np.ones(grid.n + 1, dtype=bool), dead, alpha, p, build, lambda su: lp_norm(su, mu)
    )
    return ext, _finish(
        "extension.exterior",
        {
            "u": _describe(u),
            "alpha": alpha,
            "p": p,
            "mu": mu,
            "side": Side.LEFT.value,
            "interval": [grid.a, grid.b],
            "ambient": [ambient.a, ambient.b],
            "n": grid.n,
        },
        residuals,
        ratios,
        1.0,
        "residuals = (mismatch with u on its own domain / 1e-12, 0 if the "
        "extension has compact support else 2, measured-constant drift "
        "between resolutions n/2 and n / 10%); ratios are the measured "
        "constants at n/2 and n in norm(Eu) <= C (norm_W(u) + norm_Lmu(u))",
        details={
            "measured_constant": ratios[1], "measured_constant_coarse": ratios[0],
            "mu_norm": mu_norm, "domain_mismatch": mismatch,
        },
    )


# ---------------------------------------------------------------------------
# Hölder embedding and traces


def check_embedding_trace(
    u_family: TestBattery | Sequence[ClosedFormFunction],
    alpha: float,
    p: float,
    grid: Grid | None = None,
) -> VerificationReport:
    """Hölder quotients away from the base, and the trace bound.

    For ``αp > 1`` every member must have a finite, refinement-stable
    Hölder quotient at exponent ``α - 1/p`` on the window ``[c, b]`` of
    :func:`~fracsobolev.spaces.trace` (``c = a + (b - a)/4``), and a trace
    at the far endpoint bounded by the one-sided norm.  The fine grid's
    quotient is the one the trace measured; the coarse grid's is taken
    over the same window.  A sharpness probe bumps the exponent by 0.1 on
    a kernel-type member (or the order-α kernel when there is none) over
    a window whose left edge shrinks with the grid: that quotient must
    grow under refinement, showing the exponent and the excluded
    neighbourhood of the base are both doing real work.
    """
    if not alpha * p > 1.0:
        raise ValueError(f"the embedding needs alpha*p > 1, got {alpha * p:g}")
    battery = _as_battery(u_family)
    grid = grid if grid is not None else uniform_grid(0.0, 1.0, 1024)
    fine = grid.refine(2)
    exponent = alpha - 1.0 / p

    quotients, trace_ratios, drifts = [], [], []
    kernel = None
    spec = NormSpec("one_sided_left", FracOrder(alpha), p)
    for f in battery.members:
        su, su2 = sample(f, grid), sample(f, fine)
        tv = trace(su2, alpha, p, Side.LEFT)
        c = tv.subinterval_start
        q1 = holder_quotient(su, exponent, (c, grid.b))
        q2 = tv.holder_quotient
        quotients.append(q2)
        drifts.append(abs(q2 - q1) / max(q1, 1.0))
        norm = sobolev_norm(su2, spec)
        trace_ratios.append(abs(tv.value) / max(norm, _TINY))
        if kernel is None and su.left_power is not None:
            kernel = su, su2

    finite_entry = 0.0 if all(math.isfinite(q) for q in quotients) else 2.0
    bounded_entry = 0.0 if all(math.isfinite(t) for t in trace_ratios) else 2.0
    drift_entry = max(drifts) / 0.10

    if kernel is None:
        f = PowerSum(grid.a, ((1.0, alpha - 1.0),))
        kernel = sample(f, grid), sample(f, fine)
    probe_exp = min(exponent + 0.1, 1.0)
    sharp1 = holder_quotient(kernel[0], probe_exp, (grid.a + grid.h, grid.b))
    sharp2 = holder_quotient(kernel[1], probe_exp, (fine.a + fine.h, fine.b))
    growth = sharp2 / max(sharp1, _TINY)
    sharp_entry = 0.0 if growth > 1.2 else 2.0

    return _finish(
        "embedding_trace",
        {
            "family": list(battery.labels()),
            "alpha": alpha,
            "p": p,
            "window_start": c,
            "n": grid.n,
            "interval": [grid.a, grid.b],
        },
        [drift_entry, finite_entry, bounded_entry, sharp_entry],
        trace_ratios,
        1.0,
        "residuals = (max Holder-quotient drift under refinement / 10%, 0 if "
        "all quotients finite else 2, 0 if all trace/norm ratios finite else "
        "2, 0 if the perturbed-exponent quotient grows near the base under "
        "refinement else 2); ratios are the per-member trace/norm ratios",
        details={
            "max_quotient": max(quotients),
            "max_trace_ratio": max(trace_ratios),
            "sharpness_growth": growth,
        },
    )


# ---------------------------------------------------------------------------
# classical-derivative consistency


def check_consistency_w1p(
    u: ClosedFormFunction,
    alpha: float,
    p: float,
    grid: Grid | None = None,
    tolerance: float = 1e-3,
) -> VerificationReport:
    """The two-term formula for differentiable functions, both routes.

    For ``u`` with a classical derivative the one-sided derivative must
    equal ``u(a) (x-a)^{-α} / Γ(1-α) + I^{1-α} u'`` — the left side from
    the product-integration scheme, the right from the exact kernel term
    plus the fractional integral of the independently known ``u'``.  The
    report also runs the membership probe: the one-sided norm is finite
    exactly when ``u(a) = 0`` or ``αp < 1``.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("the consistency formula covers 0 < alpha < 1")
    grid = grid if grid is not None else uniform_grid(0.0, 1.0, 2048)
    try:
        du_vals = classical_derivative_values(u, grid.nodes)
    except Exception as exc:
        raise ValueError(f"u needs a classical derivative: {exc}") from exc
    su = sample(u, grid)
    lhs = rl_derivative(su, alpha, Side.LEFT).values

    u_a = float(su.values[0])
    if not math.isfinite(u_a):
        raise ValueError("the formula needs a finite base value")
    t = grid.nodes - grid.a
    if u_a == 0.0:
        kernel_term = np.zeros_like(t)
    else:
        with np.errstate(divide="ignore"):
            kernel_term = u_a * np.power(t, -alpha) / gamma_fn(1.0 - alpha)
    rhs = kernel_term + frac_integral(
        SampledFunction(grid, du_vals), 1.0 - alpha, Side.LEFT
    ).values
    mask = grid.nodes >= grid.a + 0.05 * grid.width
    residual = _rel_linf(rhs, np.asarray(lhs), mask)

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        norm = sobolev_norm(su, NormSpec("one_sided_left", FracOrder(alpha), p))
    expect_finite = (abs(u_a) <= 1e-12) or (alpha * p < 1.0)
    probe_entry = 0.0 if math.isfinite(norm) == expect_finite else 2.0

    notes = (
        "residuals = (two-route derivative mismatch / tolerance, 0 if the "
        "norm is finite exactly when u(a)=0 or alpha*p<1 else 2)"
    )
    if caught:
        notes += "; the norm computation reported: " + str(caught[0].message)
    return _finish(
        "w1p_consistency",
        {
            "u": _describe(u),
            "alpha": alpha,
            "p": p,
            "n": grid.n,
            "interval": [grid.a, grid.b],
        },
        [residual / tolerance, probe_entry],
        [residual],
        1.0,
        notes,
        details={
            "residual": residual,
            "base_value": u_a,
            "norm_value": norm if math.isfinite(norm) else math.inf,
        },
    )


# ---------------------------------------------------------------------------
# the three line equivalences


def check_line_equivalences(
    u_family: TestBattery | Sequence[ClosedFormFunction],
    alpha: float,
    half_width: float = 12.0,
    n: int = 4096,
) -> VerificationReport:
    """Difference-quotient, spectral, and two-sided norms on the line.

    Per member: (1) the L¹ norm of the difference-quotient derivative is
    bounded by ``α/Γ(1-α)`` times the order-α Gagliardo seminorm at
    p = 1 (ratio ≤ 1.05); (2) the physical L² norm of the spectral
    derivative matches the frequency-side moment to 1e-10 — the two
    sides of the Parseval identity are assembled by different code
    paths; (3) the one-sided H^α norm matches the Gagliardo-built norm
    once the seminorm is rescaled by the exact seminorm-ratio constant,
    within a 2% band, with ≤ 2% spread across the family; and (4) the
    left- and right-sided norms agree to 1e-10 for real functions.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("the line equivalences cover 0 < alpha < 1")
    battery = _as_battery(u_family)
    lines: list[SampledFunction] = []
    for f in battery.members:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            lf = sample_line(f, half_width, n)
        if caught:
            raise ValueError(
                f"member {describe_function(f)!r} has not decayed inside the "
                f"window: {caught[0].message}"
            )
        lines.append(lf)

    c_alpha = alpha / gamma_fn(1.0 - alpha)
    k_alpha = seminorm_ratio_constant(alpha)
    spec_l = NormSpec("one_sided_left", FracOrder(alpha), 2.0)
    spec_r = NormSpec("one_sided_right", FracOrder(alpha), 2.0)

    bound_ratios, plancherel, band_ratios, left_right = [], [], [], []
    for lf in lines:
        march = lp_norm(marchaud_derivative(lf, alpha, Side.LEFT), 1.0)
        gag1 = gagliardo_seminorm(lf, alpha, 1.0)
        bound_ratios.append(march / max(c_alpha * gag1, _TINY))

        d = spectral_derivative(lf, alpha, Side.LEFT)
        phys = math.sqrt(lf.grid.h * float(np.sum(d.values[:-1] ** 2)))
        xi, uhat = discrete_fourier(lf.values[:-1], lf.grid.b)
        dxi = float(xi[1] - xi[0])
        freq = math.sqrt(
            dxi / (2.0 * math.pi)
            * float(np.sum(np.abs(xi) ** (2.0 * alpha) * np.abs(uhat) ** 2))
        )
        plancherel.append(abs(phys - freq) / max(freq, _TINY))

        l2 = lp_norm(lf, 2.0)
        norm_left = sobolev_norm(lf, spec_l)
        gag2 = gagliardo_seminorm(lf, alpha, 2.0)
        gag_norm = math.sqrt(l2**2 + gag2**2 / k_alpha)
        band_ratios.append(norm_left / max(gag_norm, _TINY))
        left_right.append(
            abs(norm_left - sobolev_norm(lf, spec_r)) / max(norm_left, _TINY)
        )

    spread = (max(band_ratios) - min(band_ratios)) / max(np.mean(band_ratios), _TINY)
    residuals = (
        [r / 1.05 for r in bound_ratios]
        + [r / 1e-10 for r in plancherel]
        + [abs(r - 1.0) / 0.02 for r in band_ratios]
        + [spread / 0.02]
        + [r / 1e-10 for r in left_right]
    )
    return _finish(
        "line_equivalences",
        {
            "family": list(battery.labels()),
            "alpha": alpha,
            "half_width": half_width,
            "n": n,
        },
        residuals,
        bound_ratios + band_ratios,
        1.0,
        "residual blocks, in order: difference-quotient L1 bound ratio / 1.05 "
        "per member; Parseval mismatch / 1e-10 per member; |one-sided vs "
        "rescaled-Gagliardo norm ratio - 1| / 2% per member; family spread of "
        "that ratio / 2%; left-right norm mismatch / 1e-10 per member",
        details={
            "max_bound_ratio": max(bound_ratios),
            "max_parseval_mismatch": max(plancherel),
            "band_center": float(np.mean(band_ratios)),
            "band_spread": spread,
        },
    )


# ---------------------------------------------------------------------------
# density probes


def check_density(
    u: SampledFunction | ClosedFormFunction,
    alpha: float,
    p: float,
    mode: str = "smooth",
    grid: Grid | None = None,
) -> VerificationReport:
    """Decreasing-error approximation probes for the two dense classes.

    ``smooth`` convolves with a mollifier at dyadic widths (the input is
    first pulled inward by one mollifier radius so the boundary sees no
    artificial truncation); ``piecewise_constant`` projects onto cell
    averages over 8..128 cells and requires ``αp < 1`` — a step's
    derivative has an ``(x-c)^{-α}`` profile whose p-th power must stay
    integrable.  Both modes must show non-increasing errors ending below
    1% of the norm of ``u``.
    """
    if mode not in ("smooth", "piecewise_constant"):
        raise ValueError(f"unknown mode {mode!r}")
    if not 0.0 < alpha < 1.0:
        raise ValueError("the density probes cover 0 < alpha < 1")
    su = _as_sampled(u, grid)
    g = su.grid
    spec = NormSpec("one_sided_left", FracOrder(alpha), p)
    norm_u = sobolev_norm(su, spec)
    if not math.isfinite(norm_u):
        raise ValueError("the density probes need a finite-norm input")

    errors = []
    if mode == "smooth":
        vals = np.asarray(su.values, dtype=float)
        if not np.all(np.isfinite(vals)):
            raise ValueError("the mollification probe needs finite samples")
        for k in range(3, 8):
            eps = g.width / 2.0**k
            r = max(2, round(eps / g.h))
            eps = r * g.h
            t = np.linspace(-eps, eps, 2 * r + 1)
            with np.errstate(divide="ignore", over="ignore"):
                s2 = (t / eps) ** 2
                eta = np.where(s2 < 1.0, np.exp(1.0 - 1.0 / (1.0 - np.minimum(s2, 0.999999))), 0.0)
            weights = eta / float(np.sum(eta))

            # C^1 continuation by odd reflection at each endpoint, so the
            # mollifier never sees an artificial kink at the boundary
            left_pad = 2.0 * vals[0] - vals[r:0:-1]
            right_pad = 2.0 * vals[-1] - vals[-2 : -r - 2 : -1]
            v = np.concatenate([left_pad, vals, right_pad])
            approx = np.convolve(v, weights, mode="valid")
            # symmetric weights against the odd reflection reproduce the
            # endpoint values exactly; pin them so summation roundoff does
            # not plant a spurious base-value singularity in the difference
            approx[0] = vals[0]
            approx[-1] = vals[-1]
            errors.append(sobolev_norm(SampledFunction(g, vals - approx), spec))
    else:
        if not alpha * p < 1.0:
            raise ValueError(
                f"piecewise-constant density requires alpha*p < 1, got {alpha * p:g}"
            )
        vals = np.asarray(su.values, dtype=float)
        if not np.all(np.isfinite(vals)):
            raise ValueError("piecewise-constant projection needs finite samples")
        for n_c in (8, 16, 32, 64, 128):
            if g.n % n_c:
                raise ValueError(
                    f"grid size {g.n} is not divisible by the cell count {n_c}"
                )
            m = g.n // n_c
            means = vals[1:].reshape(n_c, m).mean(axis=1)
            idx = np.maximum(np.arange(g.n + 1) - 1, 0) // m
            proj = means[idx]
            errors.append(sobolev_norm(SampledFunction(g, vals - proj), spec))

    non_increasing = all(
        errors[i + 1] <= errors[i] * (1.0 + 1e-9) for i in range(len(errors) - 1)
    )
    monotone_entry = 0.0 if non_increasing else 2.0
    final_entry = errors[-1] / (1e-2 * norm_u) if norm_u > 0 else 0.0

    return _finish(
        "density." + mode,
        {
            "u": _describe(u),
            "alpha": alpha,
            "p": p,
            "mode": mode,
            "n": g.n,
            "interval": [g.a, g.b],
        },
        [monotone_entry, final_entry],
        errors,
        1.0,
        "residuals = (0 if the approximation errors never increase else 2, "
        "final error / (1% of the norm of u)); ratios are the errors per stage",
        details={"final_error": errors[-1], "norm_u": norm_u},
    )


# ---------------------------------------------------------------------------
# derivative orders nest


def check_inclusivity(
    u: SampledFunction | ClosedFormFunction,
    alpha: float,
    beta: float,
    p: float = 2.0,
    grid: Grid | None = None,
    tolerance: float = 1e-2,
) -> VerificationReport:
    """Rebuild the order-α derivative from order-β data alone.

    For ``α < β`` the identity ``D^α u = (u - I^β D^β u) · Γ(β)/Γ(β-α)
    · (x-a)^{-α} + I^{β-α} D^β u`` expresses the lower-order derivative
    through the higher order's derivative, integral, and kernel factor.
    The first term is the β-kernel component of ``u`` mapped down to
    order α — the Γ-ratio times ``(x-a)^{-α}`` is exactly the factor
    that turns the order-β kernel into the order-(β-α) one.
    """
    if not 0.0 < alpha < beta < 1.0:
        raise ValueError(
            f"the inclusion formula needs 0 < alpha < beta < 1, got "
            f"alpha={alpha:g}, beta={beta:g}"
        )
    su = _as_sampled(u, grid)
    g = su.grid
    lhs = np.asarray(rl_derivative(su, alpha, Side.LEFT).values)

    d_beta = rl_derivative(su, beta, Side.LEFT)
    recovered = frac_integral(d_beta, beta, Side.LEFT).values
    gamma_ratio = gamma_fn(beta) / gamma_fn(beta - alpha)
    t = g.nodes - g.a
    with np.errstate(divide="ignore", invalid="ignore"):
        term1 = (np.asarray(su.values) - np.asarray(recovered)) * gamma_ratio * np.power(
            t, -alpha
        )
    term2 = np.asarray(frac_integral(d_beta, beta - alpha, Side.LEFT).values)
    residual = _rel_linf(term1 + term2, lhs, _interior_mask(g))
    return _finish(
        "order_inclusion",
        {
            "u": _describe(u),
            "alpha": alpha,
            "beta": beta,
            "p": p,
            "n": g.n,
            "interval": [g.a, g.b],
        },
        [residual],
        [residual / tolerance],
        tolerance,
        "relative sup-norm gap over the interior 80% of nodes between the "
        "order-alpha derivative and its reconstruction from order-beta data",
        details={"gamma_ratio": gamma_ratio},
    )


# ---------------------------------------------------------------------------
# the canonical suite


def canonical_checks() -> dict[str, Callable[[], VerificationReport]]:
    """Named zero-argument runners covering every check at default inputs.

    The command-line ``suite`` runs these in order; each callable builds
    its own battery and grid so repeated runs are bit-identical.
    """
    g1k = uniform_grid(0.0, 1.0, 1024)
    g2k = uniform_grid(0.0, 1.0, 2048)

    def weak_pairing() -> VerificationReport:
        one = sample(PowerSum(0.0, ((1.0, 0.0),)), g2k)
        v = sample(
            PowerSum(0.0, ((1.0 / gamma_fn(0.5), -0.5),)), g2k
        )
        return check_weak_pairing(one, v, 0.5, Side.LEFT)

    def ftwfc() -> VerificationReport:
        f = PowerSum(0.0, ((2.0, -0.5),)) + Bump(0.5, 0.25)
        return check_ftwfc(sample(f, g2k), 0.5)

    def ibp_symmetric() -> VerificationReport:
        u = sample(Bump(0.4, 0.2), g2k)
        v = sample(Bump(0.6, 0.25), g2k)
        return check_ibp(u, v, 0.75, 2.0, 2.0, "symmetric")

    def ibp_zero_trace() -> VerificationReport:
        u = sample(PowerSum(0.0, ((1.0, -0.5),)), g2k)
        v = sample(Bump(0.5, 0.3), g2k)
        return check_ibp(u, v, 0.5, 2.0, 2.0, "one_sided_zero_trace")

    def poincare_kernel() -> VerificationReport:
        return check_poincare(TestBattery.default(g1k), 0.3, 2.0, "kernel_subtracted", g1k)

    def poincare_mathring() -> VerificationReport:
        return check_poincare(TestBattery.bumps(g1k), 0.5, 2.0, "mathring", g1k)

    def poincare_symmetric() -> VerificationReport:
        a, w = g1k.a, g1k.width
        family = TestBattery(
            TestBattery.bumps(g1k, 8).members
            + (
                PowerSum(a, ((1.0, 1.0), (-1.0, 2.0))),
                PowerSum(a, ((1.0, 1.3),)),
            )
        )
        return check_poincare(family, 0.4, 2.0, "symmetric", g1k)

    def sobolev_interval() -> VerificationReport:
        return check_sobolev_inequality(
            TestBattery.bumps(g1k), 0.25, 2.0, "interval", grid=g1k
        )

    def sobolev_line() -> VerificationReport:
        return check_sobolev_inequality(
            TestBattery.line_default(), 0.5, 1.5, "line", n_line=2048
        )

    def ext_trivial() -> VerificationReport:
        u = sample(Bump(0.2, 0.05), g2k)
        ambient = Grid(-1.0, 6.5, 15360)
        return extend_trivial(u, 0.5, 2.0, ambient)[1]

    def ext_interior() -> VerificationReport:
        u = sample(PowerSum(0.0, ((1.0, -0.25),)), g1k)
        return extend_interior(u, 0.75, 2.0, (0.25, 0.75))[1]

    def ext_exterior() -> VerificationReport:
        u = sample(PowerSum(0.0, ((1.0, 0.0),)), g1k)
        ambient = Grid(-1.0, 2.0, 3072)
        return extend_exterior(u, 0.25, 2.0, 5.0, ambient)[1]

    def embedding_trace() -> VerificationReport:
        family = TestBattery(
            TestBattery.bumps(g1k, 9).members + (PowerSum(0.0, ((1.0, -0.25),)),)
        )
        return check_embedding_trace(family, 0.75, 2.0, g1k)

    def w1p_consistency() -> VerificationReport:
        return check_consistency_w1p(
            PowerSum(0.0, ((1.0, 0.0), (1.0, 1.0),)), 0.5, 2.0, g2k
        )

    def line_equivalences() -> VerificationReport:
        return check_line_equivalences(TestBattery.line_default(), 0.5, n=2048)

    def density_smooth() -> VerificationReport:
        return check_density(Bump(0.5, 0.3), 0.5, 2.0, "smooth", g2k)

    def density_piecewise() -> VerificationReport:
        return check_density(Step(0.5, 1.0), 0.3, 2.0, "piecewise_constant", g2k)

    def inclusivity() -> VerificationReport:
        return check_inclusivity(Bump(0.5, 0.25), 0.4, 0.7, 2.0, g2k)

    return {
        "weak_pairing": weak_pairing,
        "ftwfc": ftwfc,
        "ibp_symmetric": ibp_symmetric,
        "ibp_zero_trace": ibp_zero_trace,
        "poincare_kernel_subtracted": poincare_kernel,
        "poincare_mathring": poincare_mathring,
        "poincare_symmetric": poincare_symmetric,
        "sobolev_interval": sobolev_interval,
        "sobolev_line": sobolev_line,
        "extend_trivial": ext_trivial,
        "extend_interior": ext_interior,
        "extend_exterior": ext_exterior,
        "embedding_trace": embedding_trace,
        "w1p_consistency": w1p_consistency,
        "line_equivalences": line_equivalences,
        "density_smooth": density_smooth,
        "density_piecewise": density_piecewise,
        "inclusivity": inclusivity,
    }
