"""Norm, seminorm, trace, and regularity checks.

Reference values were computed independently (closed-form integrals
evaluated with mpmath at 30 digits) before the implementations ran.
"""

from __future__ import annotations

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracsobolev import core, spaces
from fracsobolev.core import (
    FracOrder,
    Grid,
    SampledFunction,
    Side,
    _log_offsets,
    line_grid,
    trapezoid,
)
from fracsobolev.operators import frac_derivative, kappa
from fracsobolev.oracle import Bump, Gaussian, PowerSum, Step, sample, sample_line
from fracsobolev.spaces import (
    _GAGLIARDO_BLOCK,
    NormSpec,
    _gagliardo_modulus,
    _modulus_decay,
    _modulus_integral,
    _sub_cell_strip,
    _zeta,
    TraceValue,
    fourier_seminorm,
    gagliardo_seminorm,
    holder_quotient,
    is_regular,
    lp_norm,
    seminorm_ratio_constant,
    sobolev_conjugate,
    sobolev_norm,
    trace,
    weighted_spectral_integral,
)

# mpmath, 30 digits
INV_SQRT3 = 0.5773502691896257645  # ||x||_{L^2(0,1)}
CONST_NORM_A25 = 1.5270467386451539  # (1 + 2/Gamma(0.75)^2)^{1/2}
CONST_POWER_A25 = 2.3318717420068010  # its square: the closed-form p-th power
DERIV_NORM_A25 = 1.1540674772329394  # sqrt(2)/Gamma(0.75)
K_RATIO = {0.25: 10.026513098524002, 0.5: 2.0 * math.pi, 0.75: 6.684342065682668}
GAMMA_A_HALF = {0.25: 1.2254167024651776, 0.5: 1.0, 0.75: 0.9064024770554771}
FOURIER_S05 = 17.419841300843002  # 2 pi (1 + sqrt(pi)) for the unit Gaussian
FOURIER_S0 = 22.273311987326831  # 4 pi sqrt(pi): twice Parseval
HOLDER_KAPPA = 0.4451014394796432  # (sqrt(2)-1) / 0.75^{0.25}
SQRT2 = 1.4142135623730950488
TWO_OVER_SQRT_PI = 1.1283791670955126
# zeta at the binary value of each float argument (1 + 1e-6 is not exact)
ZETA = {
    1 + 1e-6: 1000000.57729800435532656531022,
    1.05: 20.5808443020369848299843450341,
    1.5: 2.61237534868548834334856756792,
    2.0: 1.64493406684822643647241516665,
    3.2: 1.16677337098446699260489850858,
    6.0: 1.01734306198444913971451792979,
    12.0: 1.00024608655330804829863799805,
}


def unit_grid(n: int) -> Grid:
    return Grid(0.0, 1.0, n)


def gagliardo_integral(u, alpha: float, p: float) -> float:
    """The rows' part of the seminorm's p-th power: the offsets from h/2 on."""
    return _modulus_integral(_gagliardo_modulus(u, p), alpha, p)


def seminorm_power(u, alpha: float, p: float) -> float:
    """The seminorm's p-th power on this grid, whatever the verdict."""
    return gagliardo_integral(u, alpha, p) + _sub_cell_strip(u, alpha, p)


class TestLpNorm:
    def test_constant(self):
        g = unit_grid(256)
        one = SampledFunction(g, np.ones(257))
        assert lp_norm(one, 2.0) == pytest.approx(1.0, abs=1e-14)
        assert lp_norm(one, math.inf) == 1.0

    def test_linear(self):
        g = unit_grid(1024)
        u = SampledFunction(g, g.nodes.copy())
        assert abs(lp_norm(u, 2.0) - INV_SQRT3) <= 1e-6

    def test_kernel_mass_restored_analytically(self):
        # kappa^{0.75} = t^{-1/4} has L^2 norm sqrt(2) on (0,1)
        k = kappa(0.75, "left", unit_grid(1024))
        assert lp_norm(k, 2.0) == pytest.approx(SQRT2, rel=1e-3)

    def test_non_integrable_kernel_is_infinite(self):
        k = kappa(0.25, "left", unit_grid(1024))
        assert lp_norm(k, 2.0) == math.inf

    def test_a_huge_recorded_power_overflows_to_inf(self):
        # |c|^p of the closed-form end cell and the samples' p-th powers pass
        # the float range: +inf, with no OverflowError and no numpy warning
        u = sample(PowerSum(0.0, ((1e200, -0.25),)), Grid(0.0, 1.0, 64))
        with warnings.catch_warnings(record=True) as rec:
            warnings.simplefilter("always")
            assert lp_norm(u, 2.0) == math.inf
        assert not rec

    @pytest.mark.xfail(
        strict=True, raises=AssertionError,
        reason="FOUND: lp_norm returns +inf without a warning (ROADMAP item 10)",
    )
    def test_divergent_norm_warns_once(self):
        # x^-1/2 is not in L^2: the module's divergence policy asks for +inf
        # with one warning.  The same silence leaves the Poincare member
        # x^-1/4 of verify's kernel_subtracted battery measuring nothing:
        # its order-0.3 derivative records e = -0.55, and 1 + 2e < 0
        u = sample(PowerSum(0.0, ((1.0, -0.5),)), unit_grid(1024))
        with warnings.catch_warnings(record=True) as rec:
            warnings.simplefilter("always")
            assert lp_norm(u, 2.0) == math.inf
        assert len(rec) == 1

    def test_flagged_nodes_without_exclusion(self):
        k = kappa(0.5, "left", unit_grid(64))
        assert lp_norm(k, 2.0) == math.inf
        assert lp_norm(k, math.inf) == math.inf
        # the same flag without its recorded power only loses its cell
        bare = SampledFunction(k.grid, k.values)
        rest = np.abs(k.values[1:])
        assert lp_norm(bare, 2.0) == pytest.approx(math.sqrt(trapezoid(rest**2, k.grid.h)))
        assert lp_norm(bare, math.inf) == np.max(rest)

    # relative error of lp_norm(u, p)**p for x^-1/2 - 2 x^-1/4 at n = 256,
    # 1024, 4096, and the bar of each: 1.25x the measured error.  With t =
    # s^4 the exact integrals are 4 int_0^1 |1 - 2s|^p ds: 1 at p = 1 and
    # 8/5 at p = 3/2.  The end cell of the leading term alone erred by 4.3e-2
    # / 1.6e-2 / 5.7e-3 (p = 1) and 2.2e-1 / 1.1e-1 / 6.0e-2 (p = 3/2)
    MULTI_TERM_ERRORS = {
        (1.0, 256): 1.81e-3, (1.0, 1024): 1.02e-3, (1.0, 4096): 5.41e-4,
        (1.5, 256): 4.81e-3, (1.5, 1024): 4.27e-3, (1.5, 4096): 3.46e-3,
    }

    @pytest.mark.parametrize("p,n", sorted(MULTI_TERM_ERRORS))
    def test_end_cell_integrates_every_recorded_term(self, p, n):
        u = sample(PowerSum(0.0, ((1.0, -0.5), (-2.0, -0.25))), unit_grid(n))
        assert u.left_terms == ((1.0, -0.5), (-2.0, -0.25))
        exact = {1.0: 1.0, 1.5: 1.6}[p]
        error = abs(lp_norm(u, p) ** p - exact) / exact
        assert error <= 1.25 * self.MULTI_TERM_ERRORS[p, n]

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0])
    def test_one_term_end_cell_is_the_closed_form(self, p):
        u = sample(PowerSum(0.0, ((1.0, -0.25),)), unit_grid(512))
        h, moment = u.grid.h, 1.0 + p * -0.25
        powers = np.abs(u.values) ** p
        cells = 0.5 * (powers[:-1] + powers[1:])
        cells[0] = 0.0  # the flagged node's cell
        assert spaces._lp_power_integral(u, p)[0] == float(h * np.sum(cells)) + h**moment / moment

    def test_multi_term_divergence_is_the_leading_terms(self):
        # 1 + 2 (-3/4) < 0: the leading term decides, and the reason names it
        u = sample(PowerSum(0.0, ((1.0, -0.75), (-2.0, -0.25))), unit_grid(256))
        total, reason = spaces._lp_power_integral(u, 2.0)
        assert total == math.inf
        assert reason.startswith("the endpoint power 1 t^-0.75 at its left end")
        assert math.isfinite(spaces._lp_power_integral(u, 1.0)[0])

    def test_rejects_p_below_one(self):
        u = SampledFunction(unit_grid(16), np.ones(17))
        with pytest.raises(ValueError):
            lp_norm(u, 0.5)

    @pytest.mark.parametrize("p", [-math.inf, math.nan])
    def test_rejects_minus_inf_and_nan(self, p):
        # -inf read as the sup norm, and NaN passed the old p < 1 test
        u = SampledFunction(unit_grid(16), np.ones(17))
        with pytest.raises(ValueError, match="p must lie"):
            lp_norm(u, p)
        with pytest.raises(ValueError, match="p must lie"):
            gagliardo_seminorm(u, 0.5, p)
        with pytest.raises(ValueError, match="p must lie"):
            fourier_seminorm(sample_line(Gaussian(0.0, 1.0), 16.0, 64), 0.5, p)


class TestSobolevNorm:
    def test_zero_for_every_family(self):
        g = unit_grid(64)
        zero = SampledFunction(g, np.zeros(65))
        for family in ("one_sided_left", "one_sided_right", "symmetric",
                       "zero_trace_left", "gagliardo"):
            assert sobolev_norm(zero, NormSpec(family, FracOrder(0.5), 2.0)) == 0.0

    def test_constant_one_sided_closed_form(self):
        """||1||_{alpha=0.25, p=2} = (1 + 2/Gamma(0.75)^2)^{1/2} on (0,1)."""
        one = SampledFunction(unit_grid(1024), np.ones(1025))
        v = sobolev_norm(one, NormSpec("one_sided_left", FracOrder(0.25), 2.0))
        assert abs(v - CONST_NORM_A25) <= 1e-3
        # headline figure from the defining integral, at its looser budget
        assert abs(v - 1.5296) <= 1e-2

    def test_threshold_power_converges_when_integrable(self):
        errs = []
        for n in (512, 1024, 2048):
            one = SampledFunction(unit_grid(n), np.ones(n + 1))
            v = sobolev_norm(one, NormSpec("one_sided_left", FracOrder(0.25), 2.0))
            errs.append(abs(v**2 - CONST_POWER_A25))
        assert errs[0] > errs[1] > errs[2]
        assert errs[2] <= 1e-3

    def test_constant_diverges_past_threshold(self):
        # alpha*p = 1.2: the derivative leaves L^2 and the norm with it
        one = SampledFunction(unit_grid(1024), np.ones(1025))
        with warnings.catch_warnings(record=True) as rec:
            warnings.simplefilter("always")
            v = sobolev_norm(one, NormSpec("one_sided_left", FracOrder(0.6), 2.0))
        assert v == math.inf
        assert any("grow without bound" in str(w.message) for w in rec)

    @pytest.mark.parametrize(
        "family, f, alpha",
        [
            ("one_sided_left", PowerSum(0.0, ((1.0, 0.0),)), 0.6),
            ("zero_trace_right", PowerSum(0.0, ((1.0, 0.0),)), 0.6),
            # both sides diverge: the left one is reported
            ("symmetric", PowerSum(0.0, ((1.0, 0.0),)), 0.6),
            ("gagliardo", Step(0.5, 1.0), 0.75),
            # x^2 = 1 - 2t + t^2 with t = 1 - x: the constant's order-0.5
            # derivative c t^-0.5 becomes 0.5 c t^-1.5 under d/dx
            ("one_sided_right", PowerSum(0.0, ((1.0, 2.0),)), 1.5),
        ],
        ids=["one_sided_left", "zero_trace_right", "symmetric", "gagliardo", "above_order_one"],
    )
    def test_one_divergence_warning_naming_the_caller(self, family, f, alpha):
        u = sample(f, unit_grid(1024))
        with warnings.catch_warnings(record=True) as rec:
            warnings.simplefilter("always")
            v = sobolev_norm(u, NormSpec(family, FracOrder(alpha), 2.0))
        assert v == math.inf
        assert len(rec) == 1
        assert rec[0].filename == __file__
        assert str(rec[0].message).startswith(f"{family} norm diverges: ")
        assert "without bound" in str(rec[0].message)

    @pytest.mark.parametrize(
        "family, terms, alpha, cause",
        [
            # D^0.6 1 = t^-0.6 / Gamma(0.4)
            ("one_sided_left", ((1.0, 0.0),), 0.6,
             "the order-0.6 left derivative has the endpoint power 0.450824 t^-0.6 "
             "at its left end, and with 1 + p e = -0.2"),
            ("zero_trace_right", ((1.0, 0.0),), 0.6,
             "the order-0.6 right derivative has the endpoint power 0.450824 t^-0.6 "
             "at its right end"),
            # x^-1/4 is in L^2, its derivative -x^-5/4 / 4 is not
            ("one_sided_left", ((1.0, -0.25),), 1.25,
             "u^(1) has the endpoint power -0.25 t^-1.25 at its left end, and with "
             "1 + p e = -1.5"),
        ],
        ids=["derivative", "right_end", "integer_derivative"],
    )
    def test_divergence_warning_names_the_part_and_its_power(self, family, terms, alpha, cause):
        u = sample(PowerSum(0.0, terms), unit_grid(1024))
        with warnings.catch_warnings(record=True) as rec:
            warnings.simplefilter("always")
            assert sobolev_norm(u, NormSpec(family, FracOrder(alpha), 2.0)) == math.inf
        assert len(rec) == 1
        assert f"{family} norm diverges: {cause}" in str(rec[0].message)

    def test_divergent_norm_takes_one_derivative(self, monkeypatch):
        calls = []
        monkeypatch.setattr(
            spaces, "frac_derivative", lambda *a, **k: calls.append(a) or frac_derivative(*a, **k)
        )
        one = SampledFunction(unit_grid(1024), np.ones(1025))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert sobolev_norm(one, NormSpec("one_sided_left", FracOrder(0.6), 2.0)) == math.inf
        assert len(calls) == 1

    @pytest.mark.parametrize("family", [f for f in spaces._FAMILIES if f != "fourier"])
    def test_overflow_is_reported_as_overflow(self, family):
        huge = SampledFunction(unit_grid(64), np.full(65, 1e200))
        with warnings.catch_warnings(record=True) as rec:
            warnings.simplefilter("always")
            v = sobolev_norm(huge, NormSpec(family, FracOrder(0.25), 2.0))
        assert v == math.inf
        assert f"{family} norm overflows" in str(rec[-1].message)

    @pytest.mark.parametrize("family", ["one_sided_left", "symmetric"])
    @pytest.mark.parametrize(
        "alpha, cause",
        [
            (0.2, "overflows: the p-th powers of the samples exceed the float range"),
            # the order-0.25 image of x^-1/4 is x^-1/2, not square integrable
            (0.25, "diverges: the order-0.25 left derivative has the endpoint power 6.91367e+199 "
                   "t^-0.5 at its left end"),
        ],
        ids=["overflow", "divergence"],
    )
    def test_a_huge_recorded_power_gives_inf_and_one_warning(self, family, alpha, cause):
        u = sample(PowerSum(0.0, ((1e200, -0.25),)), Grid(0.0, 1.0, 64))
        with warnings.catch_warnings(record=True) as rec:
            warnings.simplefilter("always")
            assert sobolev_norm(u, NormSpec(family, FracOrder(alpha), 2.0)) == math.inf
        assert [(w.category, str(w.message).startswith(f"{family} norm {cause}")) for w in rec] == [
            (UserWarning, True)
        ]

    def test_zero_trace_vanishes_exactly_on_kernel(self):
        g = unit_grid(1024)
        spec = NormSpec("zero_trace_left", FracOrder(0.5), 2.0)
        assert sobolev_norm(kappa(0.5, "left", g), spec) == 0.0
        assert sobolev_norm(sample(Bump(0.6, 0.25, 1.0), g), spec) > 0.5

    def test_symmetric_combines_sides(self):
        # even data about the midpoint: both one-sided norms coincide
        g = unit_grid(512)
        u = sample(Bump(0.5, 0.3, 1.0), g)
        sym = sobolev_norm(u, NormSpec("symmetric", FracOrder(0.5), 2.0))
        left = sobolev_norm(u, NormSpec("one_sided_left", FracOrder(0.5), 2.0))
        assert sym == pytest.approx(left * SQRT2, rel=1e-12)

    def test_sup_norm_of_linear(self):
        # max|x| + max|D^{0.5} x| = 1 + 2/sqrt(pi) on (0,1)
        g = unit_grid(1024)
        u = SampledFunction(g, g.nodes.copy())
        v = sobolev_norm(u, NormSpec("one_sided_left", FracOrder(0.5), math.inf))
        assert v == pytest.approx(1.0 + TWO_OVER_SQRT_PI, rel=1e-10)

    def test_order_above_one_adds_the_integer_derivatives(self):
        # x^2 at alpha = 1.5, p = 2: ||u||^2 + ||u'||^2 + ||D^1.5 u||^2 =
        # 1/5 + 4/3 + 2/Gamma(3/2)^2, with D^1.5 x^2 = 2 x^0.5 / Gamma(3/2)
        u = sample(PowerSum(0.0, ((1.0, 2.0),)), unit_grid(2048))
        v = sobolev_norm(u, NormSpec("one_sided_left", FracOrder(1.5), 2.0))
        exact = math.sqrt(0.2 + 4.0 / 3.0 + 2.0 / math.gamma(1.5) ** 2)
        assert v == pytest.approx(exact, rel=2e-6)

    @pytest.mark.parametrize("alpha", [1.0, 2.0])
    @pytest.mark.parametrize("p", [1.0, 2.0, 3.0, math.inf])
    def test_gagliardo_at_a_whole_order_is_the_classical_norm(self, alpha, p):
        # the order-1 seminorm of a non-constant u^(m) is +inf, so the last
        # part is u^(m+1), as the one-sided families take it
        g = unit_grid(1024)
        for u in (SampledFunction(g, g.nodes.copy()), SampledFunction(g, np.sin(3.0 * g.nodes))):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                v = sobolev_norm(u, NormSpec("gagliardo", FracOrder(alpha), p))
            assert v == sobolev_norm(u, NormSpec("one_sided_left", FracOrder(alpha), p))

    def test_fourier_family_of_the_unit_gaussian(self):
        # int (1 + |xi|) |uhat|^2 = 2 pi^(3/2) + 2 pi Gamma(1) for uhat =
        # sqrt(2 pi) exp(-xi^2 / 2)
        line = sample_line(Gaussian(0.0, 1.0), 12.0, 4096)
        v = sobolev_norm(line, NormSpec("fourier", FracOrder(0.5), 2.0))
        assert v == pytest.approx(math.sqrt(2.0 * math.pi**1.5 + 2.0 * math.pi), rel=2e-6)

    def test_fourier_family_guards(self):
        u = SampledFunction(unit_grid(64), np.ones(65))
        with pytest.raises(ValueError, match="line functions"):
            sobolev_norm(u, NormSpec("fourier", FracOrder(0.5), 2.0))
        line = sample_line(Gaussian(0.0, 1.0), 16.0, 1024)
        with pytest.raises(ValueError, match="p < inf"):
            sobolev_norm(line, NormSpec("fourier", FracOrder(0.5), math.inf))

    def test_norm_spec_validation(self):
        with pytest.raises(ValueError, match="unknown family"):
            NormSpec("weighted", FracOrder(0.5), 2.0)
        for p in (0.9, -math.inf, math.nan):
            with pytest.raises(ValueError, match="p must lie"):
                NormSpec("gagliardo", FracOrder(0.5), p)


# PowerSum data on (0, 1), each read from 0 for the left norm and from 1
# (right-oriented) for the right norm
BASE_POWERS = {
    "x^2": ((1.0, 2.0),),
    "1+x": ((1.0, 0.0), (1.0, 1.0)),
    "x": ((1.0, 1.0),),
    "x^-1/4": ((1.0, -0.25),),
    "x^3": ((1.0, 3.0),),
}
# u vanishes at the base, so the order-sigma derivative is regular there and
# records no power; the singularity only the integer derivatives make is
# missed and the norm comes back finite
REGULAR_PART_MISSES = {
    ("x", 1.25, math.inf),
    ("x", 1.5, 2.0), ("x", 1.5, 3.0), ("x", 1.5, math.inf),
    ("x", 2.5, 1.0), ("x", 2.5, 2.0), ("x", 2.5, 3.0), ("x", 2.5, math.inf),
    ("x^2", 2.5, 2.0), ("x^2", 2.5, 3.0), ("x^2", 2.5, math.inf),
}


def _integer_order_cases():
    for name in BASE_POWERS:
        for side in ("left", "right"):
            for alpha in (0.5, 1.25, 1.5, 2.5):
                for p in (1.0, 2.0, 3.0, math.inf):
                    marks = []
                    if (name, alpha, p) in REGULAR_PART_MISSES:
                        marks = [pytest.mark.xfail(
                            strict=True, raises=AssertionError,
                            reason="the singularity appears only after the integer "
                            "derivatives, from a regular base value",
                        )]
                    yield pytest.param(name, side, alpha, p, marks=marks,
                                       id=f"{name}-{side}-{alpha}-p{p:g}")


class TestIntegerOrderVerdicts:
    @pytest.mark.parametrize("name, side, alpha, p", _integer_order_cases())
    def test_verdict_follows_the_exponent_rule(self, name, side, alpha, p):
        terms = BASE_POWERS[name]
        f = PowerSum(0.0, terms) if side == "left" else PowerSum(1.0, terms, Side.RIGHT)
        u = sample(f, unit_grid(512))
        with warnings.catch_warnings(record=True) as rec:
            warnings.simplefilter("always")
            v = sobolev_norm(u, NormSpec(f"one_sided_{side}", FracOrder(alpha), p))
        # every term c x^b needs p (b - alpha) > -1 after alpha derivatives;
        # at p = inf that reads b > alpha (no b equals an alpha here)
        finite = p * min(b - alpha for _, b in terms) > -1.0
        assert math.isfinite(v) == finite
        assert len(rec) == (0 if finite else 1)


class TestGagliardoSeminorm:
    def test_constant_vanishes(self):
        u = SampledFunction(unit_grid(128), np.full(129, 3.7))
        assert gagliardo_seminorm(u, 0.5, 2.0) == 0.0

    def test_gaussian_matches_frequency_side(self):
        """Squared seminorm of the unit Gaussian at alpha=1/2 is 2 pi."""
        u = sample_line(Gaussian(0.0, 1.0), 16.0, 4096)
        semi = gagliardo_seminorm(u, 0.5, 2.0)
        deficit = 2.0 * math.pi - semi**2
        assert abs(deficit) <= 5e-3 * 2.0 * math.pi
        # measured: 4.78e-5, the offset quadrature's and the rows' error;
        # without the sub-cell strip t < h/2 it was 6.97e-3
        assert abs(deficit) <= 4.0 * 4.78e-5

    def test_linear_stable_under_refinement(self):
        vals = []
        for n in (512, 1024):
            g = unit_grid(n)
            vals.append(gagliardo_seminorm(SampledFunction(g, g.nodes.copy()), 0.25, 2.0))
        assert abs(vals[1] - vals[0]) <= 1e-2 * vals[1]

    def test_step_diverges_when_rough(self):
        step = sample(Step(0.5, 1.0), unit_grid(1024))
        with warnings.catch_warnings(record=True) as rec:
            warnings.simplefilter("always")
            v = gagliardo_seminorm(step, 0.75, 2.0)
        assert v == math.inf
        assert any("grows without bound" in str(w.message) for w in rec)

    def test_step_converges_below_threshold(self):
        step = sample(Step(0.5, 1.0), unit_grid(1024))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            v = gagliardo_seminorm(step, 0.25, 2.0)
        assert math.isfinite(v)

    def test_sup_exponent_reduces_to_holder(self):
        g = unit_grid(256)
        u = sample(Bump(0.5, 0.3, 1.0), g)
        assert gagliardo_seminorm(u, 0.5, math.inf) == holder_quotient(u, 0.5, (0.0, 1.0))

    def test_rejects_singular_samples(self):
        with pytest.raises(ValueError, match="finite samples"):
            gagliardo_seminorm(kappa(0.5, "left", unit_grid(64)), 0.5, 2.0)

    @pytest.mark.parametrize("p", [1.0, 2.0, 3.0])
    def test_line_seminorm_is_translation_invariant(self, p):
        # the same samples moved by 16 nodes, far from the window edges.
        # Measured: 0 at p = 1 and 3, 3.5e-16 relative at p = 2 (its FFT
        # sees the moved samples); a rule with a seam that moves with the
        # data moved it by 6.6e-9 (p = 2) and 4.4e-9 (p = 3)
        u = sample_line(Gaussian(0.8, 0.7), 12.0, 2048)
        moved = SampledFunction(line_grid(12.0, 2048), np.roll(u.values, 16)).check_decay()
        before = gagliardo_seminorm(u, 0.5, p)
        assert abs(gagliardo_seminorm(moved, 0.5, p) - before) <= 1e-15 * before


GL_NODES, GL_WEIGHTS = np.polynomial.legendre.leggauss(16)


def modulus_by_quadrature(x: np.ndarray, v: np.ndarray, t: float, p: float) -> float:
    """``int |u(y + t) - u(y)|^p dy`` over ``[x_0, x_n - t]``, ``u`` the interpolant of ``v`` on ``x``.

    The difference is linear between the points ``x_j`` and ``x_j - t``, and
    each such piece is split where the difference changes sign.  Each piece
    is read at ``start + (end - start) s^4`` from the end where the
    difference is smaller, with 16 Gauss-Legendre points in ``s``, so that
    ``|diff|^p`` has no kink where it vanishes.
    """
    cuts = np.union1d(x, x - t)
    cuts = cuts[(cuts >= x[0]) & (cuts <= x[-1] - t)]
    lo, hi = cuts[:-1], cuts[1:]
    d0 = np.interp(lo + t, x, v) - np.interp(lo, x, v)
    d1 = np.interp(hi + t, x, v) - np.interp(hi, x, v)
    cross = d0 * d1 < 0.0
    root = lo[cross] + (hi[cross] - lo[cross]) * d0[cross] / (d0[cross] - d1[cross])
    small = np.abs(d1) < np.abs(d0)
    start = np.concatenate([np.where(small, hi, lo)[~cross], root, root])
    end = np.concatenate([np.where(small, lo, hi)[~cross], lo[cross], hi[cross]])
    s = 0.5 * (GL_NODES + 1.0)
    y = start[:, None] + (end - start)[:, None] * s**4
    diff = np.interp(y + t, x, v) - np.interp(y, x, v)
    return float(np.sum(np.abs(end - start)[:, None] * 2.0 * GL_WEIGHTS * s**3 * np.abs(diff) ** p))


def strip_by_quadrature(u, alpha: float, p: float) -> float:
    """``2 int_0^{h/2} t^{-1-alpha p} omega_p(t)^p dt`` by brute force.

    On the line the window gains two zero nodes at each end (the interpolant
    ramps to 0).  The offsets run from ``t_0 = 1e-8 h/2`` to ``h/2`` by 60
    panels of 16 Gauss-Legendre points in ``log t``; below ``t_0``,
    ``omega_p(t)^p`` is taken as ``(t/t_0)^p omega_p(t_0)^p``.
    """
    g = u.grid
    h = g.h
    x, v = g.nodes, np.asarray(u.values, dtype=float)
    if g.on_line:
        x = np.concatenate([x[0] - h * np.array([2.0, 1.0]), x, x[-1] + h * np.array([1.0, 2.0])])
        v = np.pad(v, 2)
    t0, gap = 0.5e-8 * h, p * (1.0 - alpha)
    edges = np.linspace(math.log(t0), math.log(0.5 * h), 61)
    total = modulus_by_quadrature(x, v, t0, p) * t0 ** (-alpha * p) / gap
    for lo, hi in zip(edges[:-1], edges[1:]):
        for r, w in zip(0.5 * (lo + hi + (hi - lo) * GL_NODES), 0.5 * (hi - lo) * GL_WEIGHTS):
            t = math.exp(r)
            total += w * t ** (-alpha * p) * modulus_by_quadrature(x, v, t, p)
    return 2.0 * total


class TestSubCellStrip:
    """The offsets ``t < h/2`` of the Gagliardo integral, in closed form."""

    @pytest.mark.parametrize("domain", ["line", "interval"])
    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0])
    def test_closed_form_is_the_quadrature_of_the_interpolant(self, domain, p):
        # Measured on this sample: at most 6.4e-12 relative at p = 1, 9.7e-14
        # at 1.5 and 2.0e-15 at 2 and 3, the reference's own error (its cut
        # at t_0; at alpha = 0.75 it reaches 6.6e-10).  The bars leave about
        # 15x and 50x
        g = line_grid(1.0, 16) if domain == "line" else unit_grid(16)
        u = SampledFunction(g, np.random.default_rng(16).standard_normal(17))
        for alpha in (0.25, 0.5):
            ref = strip_by_quadrature(u, alpha, p)
            assert _sub_cell_strip(u, alpha, p) == pytest.approx(ref, rel=1e-10 if p < 2.0 else 1e-13)

    def test_line_gaussian_p2_converges_to_the_frequency_side(self):
        # exact: sqrt(2 pi).  Measured: 4.35e-5 / 1.13e-5 / 3.80e-6 relative;
        # without the strip 2.25e-3 / 1.11e-3 / 5.55e-4
        for n, measured in ((1024, 4.35e-5), (2048, 1.13e-5), (4096, 3.80e-6)):
            semi = gagliardo_seminorm(sample_line(Gaussian(0.0, 1.0), 16.0, n), 0.5, 2.0)
            assert abs(semi / math.sqrt(2.0 * math.pi) - 1.0) <= 4.0 * measured

    def test_line_gaussian_converges_at_order_above_one_and_a_half(self):
        # against n = 32768.  Measured orders: 2.02 / 1.79 / 1.71 at p = 1 and
        # 2.10 / 1.99 / 2.16 at p = 3; without the strip 0.50 at p = 1
        for p in (1.0, 3.0):
            powers = [gagliardo_seminorm(sample_line(Gaussian(0.0, 1.0), 16.0, n), 0.5, p) ** p
                      for n in (1024, 2048, 4096, 8192, 32768)]
            errors = [abs(v - powers[-1]) for v in powers[:-1]]
            assert all(math.log2(e / f) >= 1.6 for e, f in zip(errors, errors[1:])), (p, errors)

    @pytest.mark.parametrize("domain", ["line", "interval"])
    def test_order_one_is_inf_unless_constant(self, domain):
        # omega_p(t)^p ~ t^p A near 0 makes int t^-1 dt diverge
        # (Bourgain-Brezis-Mironescu 2001)
        u = (sample_line(Gaussian(0.0, 1.0), 16.0, 256) if domain == "line"
             else SampledFunction(unit_grid(256), np.sin(3.0 * unit_grid(256).nodes)))
        for p in (1.0, 2.0, 3.0):
            with warnings.catch_warnings(record=True) as rec:
                warnings.simplefilter("always")
                assert gagliardo_seminorm(u, 1.0, p) == math.inf
            assert len(rec) == 1
            assert str(rec[0].message).startswith(
                "difference-quotient seminorm at alpha = 1 grows without bound")
            assert str(rec[0].message).endswith("; reporting +inf")
            constant = SampledFunction(u.grid, np.zeros(257) if domain == "line" else np.full(257, 2.5))
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert gagliardo_seminorm(constant, 1.0, p) == 0.0


def rough_battery(g: Grid):
    """Steps, bumps, cusps and base powers on ``g``."""
    x = g.nodes
    yield sample(Step(0.5, 1.0), g)
    yield sample(Bump(0.5, 0.3), g)
    for beta in (0.05, 0.3, 0.7):
        yield SampledFunction(g, np.abs(x - 0.43) ** beta)
        yield SampledFunction(g, x**beta)


class TestGagliardoVerdicts:
    """One rule decides below order 1: finite iff the modulus decays like
    ``t^s`` with ``s/p >= alpha``; at order 1 every non-constant ``u`` is
    +inf.  ``tests/battery.py`` scores it against theory."""

    @pytest.mark.parametrize("n", [512, 1022, 1024])
    @pytest.mark.parametrize("p", [1.0, 2.0, 3.0])
    def test_verdict_is_the_modulus_exponent_rule(self, n, p):
        for u in rough_battery(unit_grid(n)):
            rows = _gagliardo_modulus(u, p)
            smoothness = _modulus_decay(rows, u.grid.h) / p
            for alpha in (0.1, 0.3, 0.5, 0.7, 0.9, 1.0):
                with warnings.catch_warnings(record=True) as rec:
                    warnings.simplefilter("always")
                    v = gagliardo_seminorm(u, alpha, p)
                if alpha == 1.0:
                    assert v == math.inf
                    assert len(rec) == 1
                    assert "at alpha = 1 grows without bound" in str(rec[0].message)
                elif smoothness >= alpha:
                    assert v == (_modulus_integral(rows, alpha, p) + _sub_cell_strip(u, alpha, p)) ** (1.0 / p)
                    assert rec == []
                else:
                    assert v == math.inf
                    assert len(rec) == 1
                    assert f"s/p = {smoothness:.4g} < alpha = {alpha:g}" in str(rec[0].message)

    def test_smooth_data_take_the_modulus_verdict(self, monkeypatch):
        calls = []
        for name in ("_gagliardo_modulus", "_modulus_integral", "_sub_cell_strip"):
            fn = getattr(spaces, name)
            monkeypatch.setattr(
                spaces, name, lambda *a, fn=fn, name=name: calls.append(name) or fn(*a)
            )
        bump = sample(Bump(0.5, 0.3), unit_grid(1024))
        for alpha, p in ((0.25, 1.0), (0.5, 1.0), (0.5, 2.0), (0.25, 3.0)):
            calls.clear()
            assert gagliardo_seminorm(bump, alpha, p) == seminorm_power(bump, alpha, p) ** (1.0 / p)
            assert calls == ["_gagliardo_modulus", "_modulus_integral", "_sub_cell_strip"]

    @pytest.mark.parametrize("n", [1020, 1022, 1024])
    def test_grid_size_does_not_decide_the_verdict(self, n):
        # a multiple of 4 cells or not, the step at alpha p = 1.5 is +inf
        step = sample(Step(0.5, 1.0), unit_grid(n))
        with warnings.catch_warnings(record=True) as rec:
            warnings.simplefilter("always")
            v = gagliardo_seminorm(step, 0.75, 2.0)
        assert v == math.inf
        assert len(rec) == 1
        assert rec[0].filename == __file__
        assert "grows without bound" in str(rec[0].message)

    def test_flagged_sample_at_p_inf_is_inf_with_one_warning(self):
        # x^-1/4 has no bound at 0: its node there is flagged with the power.
        # The norm names its first diverging part, u itself; the seminorm
        # alone words its own cause
        u = sample(PowerSum(0.0, ((1.0, -0.25),)), unit_grid(512))
        for call, text in (
            (lambda: sobolev_norm(u, NormSpec("gagliardo", FracOrder(0.3), math.inf)),
             "gagliardo norm diverges: u^(0) has the endpoint power 1 t^-0.25 at its left "
             "end, and with e < 0 it grows without bound there"),
            (lambda: gagliardo_seminorm(u, 0.3, math.inf),
             "difference-quotient seminorm at p = inf diverges: u has the endpoint power "
             "1 t^-0.25 at its left end, and its difference quotients grow without bound "
             "there; reporting +inf"),
        ):
            with warnings.catch_warnings(record=True) as rec:
                warnings.simplefilter("always")
                v = call()
            assert v == math.inf
            assert len(rec) == 1
            assert rec[0].filename == __file__
            assert str(rec[0].message) == text

    def test_too_few_fit_rows_warn_that_divergence_was_not_checked(self):
        # on 14 cells fewer than 8 offsets lie in the fit window 2h <= t <= T/8
        step = sample(Step(0.5, 1.0), unit_grid(14))
        with warnings.catch_warnings(record=True) as rec:
            warnings.simplefilter("always")
            v = gagliardo_seminorm(step, 0.75, 2.0)
        assert v == seminorm_power(step, 0.75, 2.0) ** 0.5
        assert len(rec) == 1
        assert rec[0].filename == __file__
        assert "not checked on n=14 cells" in str(rec[0].message)

    def test_unrefinable_grid_is_silent_when_the_modulus_decides(self):
        # on 14 cells fewer than 8 offsets lie in the fit window 2h <= t <=
        # T/8: sin 3x would warn there too
        g = unit_grid(1022)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert math.isfinite(gagliardo_seminorm(SampledFunction(g, np.sin(3.0 * g.nodes)), 0.5, 2.0))
            assert gagliardo_seminorm(SampledFunction(g, np.full(1023, 2.0)), 0.5, 2.0) == 0.0

    @pytest.mark.parametrize("p", [1.0, 2.0])
    def test_coarse_grid_fits_the_modulus_below_an_eighth_of_the_domain(self, p):
        # over 2h <= t <= 64h, half the interval on 126 cells, the shrinking
        # overlap bends the modulus down and s/p reads 0.72 (p = 1) and 0.80
        # (p = 2); capped at t <= 1/8 it reads 0.91 and 0.94
        g = unit_grid(126)
        u = SampledFunction(g, np.sin(3.0 * g.nodes))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert math.isfinite(gagliardo_seminorm(u, 0.5, p))


class TestSeminormRatio:
    def test_frozen_constants(self):
        for alpha, value in K_RATIO.items():
            assert seminorm_ratio_constant(alpha) == pytest.approx(value, rel=1e-12)

    @pytest.mark.parametrize("alpha,n,band", [(0.25, 4096, 2e-3), (0.5, 4096, 5e-3), (0.75, 8192, 2e-2)])
    def test_ratio_constant_across_functions(self, alpha, n, band):
        """Gagliardo-to-frequency ratio is function-independent (2% band)."""
        family = (
            Gaussian(0.0, 1.0),
            Gaussian(0.5, 0.7),
            Gaussian(-1.0, 1.5),
            Bump(0.0, 3.0, 1.0),
            Bump(1.0, 2.5, 2.0),
        )
        ratios = []
        for f in family:
            u = sample_line(f, 16.0, n)
            ratios.append(
                gagliardo_seminorm(u, alpha, 2.0) ** 2
                / weighted_spectral_integral(u, 2.0 * alpha)
            )
        spread = (max(ratios) - min(ratios)) / min(ratios)
        assert spread <= band
        # the common value is the analytic bridge constant, up to the
        # (documented, one-sided) sub-grid deficit of the seminorm
        K = seminorm_ratio_constant(alpha)
        assert all(0.95 * K <= r <= 1.005 * K for r in ratios)

    def test_weighted_integral_against_gaussian_moments(self):
        u = sample_line(Gaussian(0.0, 1.0), 16.0, 4096)
        for alpha, moment in GAMMA_A_HALF.items():
            v = weighted_spectral_integral(u, 2.0 * alpha)
            assert v == pytest.approx(moment, rel=1e-5)


class TestZeta:
    def test_frozen_values(self):
        # measured: at most 1.8e-16 relative at these points and 4.3e-16
        # over x = 1 + 1e-11 .. 23; the bar of 2e-15 leaves about 4.6x
        for x, value in ZETA.items():
            assert _zeta(x) == pytest.approx(value, rel=2e-15), x


class TestFourierSeminorm:
    def test_zero(self):
        u = SampledFunction(line_grid(8.0, 256), np.zeros(257))
        assert fourier_seminorm(u, 0.5, 2.0) == 0.0

    def test_order_zero_is_twice_parseval(self):
        u = sample_line(Gaussian(0.0, 1.0), 16.0, 4096)
        assert fourier_seminorm(u, 0.0, 2.0) == pytest.approx(FOURIER_S0, rel=1e-8)

    def test_half_order_gaussian_moment(self):
        u = sample_line(Gaussian(0.0, 1.0), 16.0, 4096)
        v = fourier_seminorm(u, 0.5, 2.0)
        assert v == pytest.approx(FOURIER_S05, rel=1e-4)

    def test_aliasing_warning(self):
        x = np.linspace(-16.0, 16.0, 1025)
        rough = SampledFunction(line_grid(16.0, 1024), np.sign(np.sin(5.0 * x)) * np.exp(-0.5 * x**2))
        with warnings.catch_warnings(record=True) as rec:
            warnings.simplefilter("always")
            fourier_seminorm(rough, 0.5, 2.0)
        assert any("aliasing" in str(w.message) for w in rec)

    def test_grid_input_rejected(self):
        u = SampledFunction(unit_grid(64), np.ones(65))
        with pytest.raises(ValueError):
            fourier_seminorm(u, 0.5, 2.0)

    def test_a_two_cell_window_is_rejected(self):
        # 2 samples give the frequencies 0 and -pi/h: the kink correction's
        # stencil read one entry twice, and the moments came out -108.76
        # (fourier_seminorm) and -1.31 (weighted_spectral_integral)
        u = sample_line(Gaussian(0.0, 1.0), 16.0, 2)
        for moment in (lambda: fourier_seminorm(u, 0.5, 2.0), lambda: weighted_spectral_integral(u, 1.0)):
            with pytest.raises(ValueError, match="at least 3 cells, got 2"):
                moment()

    @pytest.mark.parametrize("n", [3, 4, 8, 16])
    def test_small_windows_keep_positive_moments(self, n):
        u = sample_line(Gaussian(0.0, 1.0), 16.0, n)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # aliasing on so few samples
            assert fourier_seminorm(u, 0.5, 2.0) > 0.0
        assert weighted_spectral_integral(u, 1.0) > 0.0


class TestTrace:
    def test_smooth_function(self):
        g = unit_grid(512)
        t = trace(SampledFunction(g, g.nodes**2), 0.75, 2.0, "left")
        assert isinstance(t, TraceValue)
        assert t.value == 1.0
        assert t.side is Side.LEFT
        assert t.subinterval_start == pytest.approx(0.25)
        assert math.isfinite(t.holder_quotient)

    def test_kernel_trace_at_far_endpoint(self):
        """kappa^{0.75} is smooth away from the base: its trace at b exists."""
        k = kappa(0.75, "left", unit_grid(1024))
        t = trace(k, 0.75, 2.0, "left")
        assert t.value == pytest.approx(1.0, rel=1e-14)  # (b-a)^{-0.25} = 1
        assert t.holder_quotient == pytest.approx(HOLDER_KAPPA, rel=1e-12)

    def test_guard_below_embedding_threshold(self):
        g = unit_grid(64)
        with pytest.raises(ValueError, match="alpha\\*p > 1"):
            trace(SampledFunction(g, g.nodes**2), 0.4, 2.0)

    @pytest.mark.parametrize("a, b", [(0.0, 1.0), (-0.3, 1.7)])
    def test_right_trace_is_the_left_trace_of_the_mirror(self, a, b):
        g = Grid(a, b, 512)
        u = SampledFunction(g, g.nodes**2)
        right, left = trace(u, 0.75, 2.0, "right"), trace(u.reflected(), 0.75, 2.0, "left")
        assert right.value == left.value and right.holder_quotient == left.holder_quotient
        assert right.side is Side.RIGHT
        assert right.subinterval_start == a + b - left.subinterval_start

    def test_no_trace_at_singular_endpoint(self):
        k = kappa(0.75, "left", unit_grid(256))
        with pytest.raises(ValueError, match="singular"):
            trace(k, 0.75, 2.0, "right")


def gagliardo_offset_loop(u, alpha: float, p: float) -> float:
    """Reference: the Gagliardo double integral with one interp per offset.

    Same offsets and weights as :func:`_gagliardo_modulus`.  On the line
    each row is the definition's plain sum ``h sum_j |u(x_j + t) - u(x_j)|^p``
    over the nodes ``x_{-k-1} .. x_n`` (``k = floor(t/h)``; ``u`` is 0 left
    of the window and ``u.interp`` reads it as 0 right of it), and past the
    window diameter the tail adds ``2 h sum |u_j|^p t^{-alpha p} / (alpha
    p)``.  On an interval each row is the trapezoid over the nodes with
    ``x_j + t`` inside it.
    """
    grid = u.grid
    h = grid.h
    x = grid.nodes
    vals = u.values
    on_line = grid.on_line
    t_max = grid.width
    count = max(8, int(round(80 * math.log10(t_max / (h / 2.0)))) + 1)
    s = np.linspace(math.log(h / 2.0), math.log(t_max), count)
    ds = s[1] - s[0]
    weights = np.full(count, ds)
    weights[0] = weights[-1] = ds / 2.0
    total = 0.0
    for w, t in zip(weights, np.exp(s)):
        if on_line:
            k = int(t // h)
            nodes = np.concatenate([grid.a + h * np.arange(-k - 1, 0), x])
            here = np.concatenate([np.zeros(k + 1), vals])
            inner = h * float(np.sum(np.abs(u.interp(nodes + t) - here) ** p))
        else:
            m = x <= grid.b - t + 1e-12 * grid.width
            if np.count_nonzero(m) < 2:
                continue
            inner = trapezoid(np.abs(u.interp(x[m] + t) - vals[m]) ** p, h)
        total += w * inner * t**-(alpha * p)
    if on_line:
        mass = h * float(np.sum(np.abs(vals) ** p))
        total += 2.0 * mass * t_max ** -(alpha * p) / (alpha * p)
    return 2.0 * total


def line_battery(n: int):
    """Decayed, rough, and not decayed at the left or at the right window edge."""
    rng = np.random.default_rng(n)
    smooth = sample_line(Gaussian(0.3, 1.2), 12.0, n)
    yield smooth
    yield SampledFunction(line_grid(12.0, n), smooth.values + 1e-3 * rng.standard_normal(n + 1))
    for centre in (-10.0, 10.0):  # v[0] or v[n] = 0.17
        yield SampledFunction(line_grid(12.0, n), np.exp(-(((smooth.x - centre) / 1.5) ** 2)))


class TestBatchedGagliardo:
    """The offset-batched Gagliardo integral against the per-offset loop."""

    @pytest.mark.parametrize("n", [64, 1000, 4096])
    @pytest.mark.parametrize("p", [1.0, 1.5, 3.0])
    def test_line_is_bitwise_the_offset_loop(self, n, p):
        # p != 2 reads each row from shifted slices rather than np.interp
        # per node, so the two agree to roundoff, no longer bitwise.
        # Measured on this grid: at most 3.0e-15 relative (rough, p = 1);
        # the bar of 1e-13 is the one of test_p2_matches_the_offset_loop.
        # Data not decayed at -L fill the strip left of the window; data not
        # decayed at +L read 0, not (1-theta) v[n], where a shift leaves it.
        for u in line_battery(n):
            for alpha in (0.25, 0.5, 0.75):
                ref = gagliardo_offset_loop(u, alpha, p)
                assert gagliardo_integral(u, alpha, p) == pytest.approx(ref, rel=1e-13)

    @pytest.mark.parametrize("n", [2, 3, 17, 256, 1024])
    @pytest.mark.parametrize("p", [1.0, 2.0])
    def test_interval_matches_the_offset_loop(self, n, p):
        # the longest offsets leave fewer than 2 nodes inside the interval;
        # the rows sum zero tails past them
        rng = np.random.default_rng(n)
        g = unit_grid(n)
        for vals in (np.sin(3.0 * g.nodes), rng.standard_normal(n + 1)):
            u = SampledFunction(g, vals)
            for alpha in (0.25, 0.5, 0.75):
                ref = gagliardo_offset_loop(u, alpha, p)
                assert gagliardo_integral(u, alpha, p) == pytest.approx(ref, rel=1e-14)

    @pytest.mark.parametrize("n", [2, 3, 17, 256, 1024])
    @pytest.mark.parametrize("p", [1.5, 3.0])
    def test_interval_other_p_match_the_offset_loop(self, n, p):
        # Measured on this grid: at most 9.2e-15 relative (noise, p = 3,
        # where |.|^3 widens the rows' dynamic range); the bar of 1e-13
        # leaves a margin of about 11x.
        rng = np.random.default_rng(n)
        g = unit_grid(n)
        for vals in (np.sin(3.0 * g.nodes), rng.standard_normal(n + 1)):
            u = SampledFunction(g, vals)
            for alpha in (0.25, 0.5, 0.75):
                ref = gagliardo_offset_loop(u, alpha, p)
                assert gagliardo_integral(u, alpha, p) == pytest.approx(ref, rel=1e-13)

    @pytest.mark.parametrize("domain", ["line", "interval"])
    @pytest.mark.parametrize("p", [1.0, 1.5])
    def test_other_p_interpolate_one_point_per_offset(self, domain, p, monkeypatch):
        points = []

        def counted(fn):
            def wrapper(self, x):
                points.append(np.size(x))
                return fn(self, x)

            return wrapper

        monkeypatch.setattr(SampledFunction, "interp", counted(SampledFunction.interp))
        n = 2048
        if domain == "line":
            u = sample_line(Gaussian(0.3, 1.2), 12.0, n)
            t_max = 24.0
        else:
            g = unit_grid(n)
            u = SampledFunction(g, np.sin(3.0 * g.nodes))
            t_max = 1.0
        offsets = _log_offsets(u.grid.h / 2.0, t_max)[0].size
        assert gagliardo_integral(u, 0.5, p) > 0.0
        # one interp call per block of _GAGLIARDO_BLOCK // (n + 1) rows
        assert len(points) == -(-offsets // (_GAGLIARDO_BLOCK // (n + 1)))
        assert sum(points) == offsets

    @pytest.mark.parametrize("n", [64, 1000, 4096])
    @pytest.mark.parametrize("domain", ["line", "interval"])
    def test_p2_matches_the_offset_loop(self, domain, n):
        # p = 2 sums each row from lag sums and one FFT autocorrelation, so
        # only roundoff separates it from the interpolated rows.  Measured
        # on this grid: at most 8.6e-15 relative (interval, smooth, n = 4096,
        # alpha = 0.9); the bar of 1e-13 leaves a margin of about 12x.
        if domain == "line":
            battery = list(line_battery(n))
        else:
            g = unit_grid(n)
            battery = [SampledFunction(g, np.sin(3.0 * g.nodes)),
                       SampledFunction(g, np.random.default_rng(n).standard_normal(n + 1))]
        for u in battery:
            for alpha in (0.25, 0.5, 0.75, 0.9):
                ref = gagliardo_offset_loop(u, alpha, 2.0)
                assert gagliardo_integral(u, alpha, 2.0) == pytest.approx(ref, rel=1e-13)

    @staticmethod
    def count_calls(monkeypatch) -> dict[str, int]:
        """Count ``interp`` calls and FFTs from here on."""
        calls = {"interp": 0, "fft": 0}

        def counted(kind, fn):
            def wrapper(*args, **kwargs):
                calls[kind] += 1
                return fn(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(SampledFunction, "interp", counted("interp", SampledFunction.interp))
        for name in ("fft", "ifft", "rfft", "irfft"):
            monkeypatch.setattr(np.fft, name, counted("fft", getattr(np.fft, name)))
        return calls

    @pytest.mark.parametrize("domain", ["line", "interval"])
    def test_p2_interpolates_nothing_and_ffts_once_per_integral(self, domain, monkeypatch):
        calls = self.count_calls(monkeypatch)
        fft_calls = []
        for n in (1024, 4096):  # 266 and 314 offsets
            calls["fft"] = 0
            if domain == "line":
                u = sample_line(Gaussian(0.3, 1.2), 12.0, n)
            else:
                g = unit_grid(n)
                u = SampledFunction(g, np.sin(3.0 * g.nodes))
            assert gagliardo_seminorm(u, 0.5, 2.0) > 0.0
            fft_calls.append(calls["fft"])
        assert calls["interp"] == 0
        # smooth data: the modulus shows convergence, so one integral, one
        # rfft/irfft pair
        assert fft_calls == [2, 2]

    def test_rough_data_still_ffts_once_per_integral(self, monkeypatch):
        calls = self.count_calls(monkeypatch)
        step = sample(Step(0.5, 1.0), unit_grid(1024))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert gagliardo_seminorm(step, 0.75, 2.0) == math.inf
        assert calls["interp"] == 0
        # a jump at alpha p = 1.5 is decided from the one integral's modulus
        assert calls["fft"] == 2


def holder_gap_loop(u, exponent: float, subinterval) -> float:
    """Reference: the Hölder quotient over every gap, without early exit."""
    lo, hi = subinterval
    g = u.grid
    vals = u.values[(g.nodes >= lo) & (g.nodes <= hi)]
    best = 0.0
    with np.errstate(invalid="ignore"):
        for d in range(1, vals.size):
            step = float(np.max(np.abs(vals[d:] - vals[:-d]))) / (d * g.h) ** exponent
            if math.isnan(step):
                return math.inf
            best = max(best, step)
    return best


class TestHolderQuotient:
    def test_constant(self):
        u = SampledFunction(unit_grid(128), np.ones(129))
        assert holder_quotient(u, 0.5, (0.0, 1.0)) == 0.0

    def test_linear_lipschitz(self):
        g = unit_grid(256)
        assert holder_quotient(SampledFunction(g, g.nodes.copy()), 1.0, (0.0, 1.0)) == pytest.approx(1.0)

    def test_kernel_quotient_stable(self):
        for n in (1024, 2048):
            k = kappa(0.75, "left", unit_grid(n))
            q = holder_quotient(k, 0.25, (0.25, 1.0))
            assert q == pytest.approx(HOLDER_KAPPA, rel=0.05)

    @pytest.mark.parametrize("n", [2, 255, 1024])
    def test_early_exit_is_bitwise_the_full_loop(self, n):
        rng = np.random.default_rng(n)
        g = unit_grid(n)
        walk = np.cumsum(rng.standard_normal(n + 1))
        for vals in (rng.standard_normal(n + 1), walk, np.sin(7.0 * g.nodes)):
            u = SampledFunction(g, vals)
            for exponent in (0.1, 0.5, 1.0):
                for window in ((0.0, 1.0), (0.25, 1.0)):
                    assert holder_quotient(u, exponent, window) == holder_gap_loop(
                        u, exponent, window
                    )

    def test_early_exit_on_kernel_samples(self):
        g = unit_grid(2048)
        k = kappa(0.75, "left", g)
        for exponent, window in ((0.25, (0.25, 1.0)), (0.35, (g.h, 1.0)), (0.5, (0.0, 1.0))):
            assert holder_quotient(k, exponent, window) == holder_gap_loop(k, exponent, window)

    @pytest.mark.parametrize("n", [1024, 2048])
    def test_best_quotient_at_the_widest_gap(self, n):
        # x^(-1/4) at exponent 1/4: no early exit, so every block of gaps runs
        g = unit_grid(n)
        k = kappa(0.75, "left", g)
        window = (0.25, 1.0)
        vals = k.values[g.nodes >= 0.25]
        widest = abs(vals[-1] - vals[0]) / ((vals.size - 1) * g.h) ** 0.25
        q = holder_quotient(k, 0.25, window)
        assert q == holder_gap_loop(k, 0.25, window)
        assert q == widest

    def test_two_flagged_nodes_in_one_difference(self):
        vals = np.linspace(0.0, 1.0, 65)
        vals[0] = vals[-1] = math.inf
        u = SampledFunction(unit_grid(64), vals)
        assert holder_quotient(u, 0.5, (0.0, 1.0)) == math.inf

    @pytest.mark.parametrize("flag", [math.inf, math.nan])
    def test_one_flagged_node_is_infinite(self, flag):
        # every node sits in a gap-1 difference, so the full loop ends in inf
        g = unit_grid(2048)
        vals = np.sin(3.0 * g.nodes)
        vals[700] = flag
        u = SampledFunction(g, vals)
        for window in ((0.0, 1.0), (0.25, 1.0)):
            assert holder_quotient(u, 0.25, window) == holder_gap_loop(u, 0.25, window)
            assert holder_quotient(u, 0.25, window) == math.inf

    def test_exponent_and_window_validation(self):
        u = SampledFunction(unit_grid(64), np.ones(65))
        with pytest.raises(ValueError):
            holder_quotient(u, 1.5, (0.0, 1.0))
        with pytest.raises(ValueError):
            holder_quotient(u, 0.5, (-0.5, 0.5))


class TestSobolevConjugate:
    def test_values(self):
        assert sobolev_conjugate(1.5, 0.5) == pytest.approx(6.0, rel=1e-14)
        assert sobolev_conjugate(2.0, 0.4) == pytest.approx(10.0, rel=1e-14)

    def test_critical_rejected(self):
        with pytest.raises(ValueError):
            sobolev_conjugate(2.0, 0.5)


class TestIsRegular:
    def test_bump_supported_away_from_base(self):
        u = sample(Bump(0.6, 0.25, 1.0), unit_grid(512))
        assert is_regular(u, 0.5)

    def test_kernel_is_not_regular(self):
        assert not is_regular(kappa(0.5, "left", unit_grid(512)), 0.5)

    def test_continuous_to_boundary(self):
        g = unit_grid(512)
        assert is_regular(SampledFunction(g, g.nodes * (1.0 - g.nodes)), 0.5)


class TestNormAxioms:
    @given(lam=st.floats(-8.0, 8.0), alpha=st.floats(0.15, 0.85))
    @settings(max_examples=20, deadline=None)
    def test_homogeneity(self, lam, alpha):
        g = unit_grid(256)
        u = sample(Bump(0.5, 0.3, 1.0), g)
        spec = NormSpec("one_sided_left", FracOrder(alpha), 2.0)
        scaled = SampledFunction(g, lam * u.values)
        assert sobolev_norm(scaled, spec) == pytest.approx(
            abs(lam) * sobolev_norm(u, spec), abs=1e-12, rel=1e-12
        )

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=15, deadline=None)
    def test_triangle_inequality(self, seed):
        rng = np.random.default_rng(seed)
        g = unit_grid(128)
        # supports kept inside (0, 1) so both one-sided norms stay finite
        centers = rng.uniform(0.3, 0.7, size=2)
        widths = rng.uniform(0.05, 0.25, size=2)
        heights = rng.uniform(-2.0, 2.0, size=2)
        u = sample(Bump(centers[0], widths[0], heights[0]), g)
        v = sample(Bump(centers[1], widths[1], heights[1]), g)
        spec = NormSpec("symmetric", FracOrder(0.5), 2.0)
        both = SampledFunction(g, u.values + v.values)
        assert sobolev_norm(both, spec) <= (
            sobolev_norm(u, spec) + sobolev_norm(v, spec)
        ) * (1.0 + 1e-12)

    def test_monotone_inclusivity_ratio_stable(self):
        # lower-order seminorm controlled by the higher-order norm, with a
        # refinement-stable constant
        ratios = []
        for n in (512, 1024, 2048):
            g = unit_grid(n)
            u = sample(Bump(0.5, 0.3, 1.0), g)
            num = lp_norm(frac_derivative(u, 0.3), 2.0)
            den = sobolev_norm(u, NormSpec("one_sided_left", FracOrder(0.7), 2.0))
            ratios.append(num / den)
        assert all(math.isfinite(r) for r in ratios)
        assert abs(ratios[2] - ratios[1]) <= 1e-3
        assert abs(ratios[1] - ratios[0]) <= 1e-3


def mirror_inputs(domain: str):
    """The samples the norm relations run on, at each grid size."""
    if domain == "interval":
        return [sample(Bump(0.4, 0.3), unit_grid(n)) for n in (250, 1000, 4000)]
    return [sample_line(Gaussian(0.8, 0.7), 12.0, n) for n in (1024, 4096)]


def relative_change(a: float, b: float) -> float:
    return 0.0 if a == b else abs(a - b) / max(abs(a), abs(b))


NORM_P = (1.0, 2.0, 3.0, math.inf)
# (family, family on the mirrored samples, orders)
MIRRORED_FAMILIES = (
    ("one_sided_right", "one_sided_left", (0.4, 1.5)),
    ("one_sided_left", "one_sided_right", (0.4, 1.5)),
    ("symmetric", "symmetric", (0.4, 1.5)),
    ("gagliardo", "gagliardo", (0.3,)),
)


class TestNormMetamorphicRelations:
    """One input, two paths, one norm: kept against fresh plans, and the mirror.

    Kept plans give bitwise the norms of plans built afresh.  The mirror
    reads the right side of ``u`` against the left side of
    ``u.reflected()``, and the symmetric, Gagliardo and Lebesgue norms
    against themselves.  Each bar is about 4x the largest relative change
    measured over the test's cases (``Bump(0.4, 0.3)`` on ``[0, 1]`` with
    n = 250 / 1000 / 4000, ``Gaussian(0.8, 0.7)`` on ``L = 12`` with n =
    1024 / 4096; orders 0.4 and 1.5, p = 1, 2, 3 and inf), as in
    ``tests/test_operators.py::TestMetamorphicRelations``.
    """

    # measured: interval 2.1e-16 (one-sided), 4.1e-16 (symmetric), 0 (L^p);
    # line 1.7e-13 (one-sided), 1.4e-13 (symmetric), 2.2e-16 (L^p): the
    # spectral right side multiplies by the conjugate symbol, not a mirror
    MIRROR_BARS = {"interval": 1.6e-15, "line": 7e-13}
    # a roundoff bar: where the relation holds (p = inf on both domains,
    # p = 2 on the line) the norm changes by at most 1.4e-16
    GAGLIARDO_MIRROR_BAR = 6e-16

    @pytest.mark.parametrize("domain", ["interval", "line"])
    def test_kept_plans_give_the_bits_of_fresh_ones(self, domain):
        for u in mirror_inputs(domain):
            for p in NORM_P:
                for family, _, orders in MIRRORED_FAMILIES:
                    for alpha in orders:
                        spec = NormSpec(family, FracOrder(alpha), p)
                        sobolev_norm(u, spec)  # fills the slots
                        kept = sobolev_norm(u, spec)
                        core._plans.clear()
                        assert sobolev_norm(u, spec) == kept, (u.grid, family, alpha, p)
                kept = lp_norm(u, p)
                core._plans.clear()
                assert lp_norm(u, p) == kept

    @pytest.mark.parametrize("domain", ["interval", "line"])
    def test_one_sided_symmetric_and_lp_norms_commute_with_the_mirror(self, domain):
        worst = 0.0
        for u in mirror_inputs(domain):
            mirrored = u.reflected()
            for p in NORM_P:
                for family, other, orders in MIRRORED_FAMILIES[:3]:
                    for alpha in orders:
                        a = sobolev_norm(u, NormSpec(family, FracOrder(alpha), p))
                        b = sobolev_norm(mirrored, NormSpec(other, FracOrder(alpha), p))
                        worst = max(worst, relative_change(a, b))
                worst = max(worst, relative_change(lp_norm(u, p), lp_norm(mirrored, p)))
        assert worst <= self.MIRROR_BARS[domain]

    @pytest.mark.parametrize(
        "domain, p",
        [
            *(
                pytest.param("interval", p, marks=pytest.mark.xfail(strict=True, reason=(
                    "FOUND: the interval Gagliardo norm moves under the mirror; likely its "
                    "rows pair x_j with x_j + t and end in one-sided trapezoid cells")))
                for p in (1.0, 2.0, 3.0)
            ),
            ("interval", math.inf),
            *(
                pytest.param("line", p, marks=pytest.mark.xfail(strict=True, reason=(
                    "FOUND: the line Gagliardo norm moves under the mirror at p != 2; likely "
                    "its rows sum at the nodes x_j, and mirrored the pairs sit at x_j - t")))
                for p in (1.0, 3.0)
            ),
            ("line", 2.0),
            ("line", math.inf),
        ],
    )
    def test_gagliardo_norm_commutes_with_the_mirror(self, domain, p):
        # measured at alpha = 0.3, n = 250 / 1000 / 4000 on the interval:
        # 6.3e-4 / 1.9e-4 / 5.8e-5 (p = 1), 4.6e-4 / 1.2e-4 / 3.8e-5 (p = 2)
        # and 3.7e-4 / 9.6e-5 / 2.8e-5 (p = 3); n = 1024 / 4096 on the line:
        # 2.2e-7 / 1.5e-8 (p = 1) and 3.1e-10 / 7.1e-13 (p = 3)
        spec = NormSpec("gagliardo", FracOrder(0.3), p)
        for u in mirror_inputs(domain):
            a, b = sobolev_norm(u, spec), sobolev_norm(u.reflected(), spec)
            assert relative_change(a, b) <= self.GAGLIARDO_MIRROR_BAR, u.grid


class TestFarEndFlag:
    """Data flagged at the far end of a right-side operator (ROADMAP item 15).

    u = x^-1/4 is flagged at 0, its left end.  Its right-side derivative of
    order 0.4 grows like x^-0.65 there, which is integrable at p = 1, so
    the right and symmetric norms exist; today the right side reflects the
    data, puts the flag at the far end of the left code path and raises
    "non-finite samples away from the base node".
    """

    @pytest.mark.xfail(strict=True, raises=ValueError, reason=(
        "FOUND: right-side operators reject data flagged at their far end"))
    @pytest.mark.parametrize("family", ["one_sided_right", "symmetric"])
    def test_right_and_symmetric_norms_exist(self, family):
        u = sample(PowerSum(0.0, ((1.0, -0.25),)), unit_grid(1000))
        assert math.isfinite(sobolev_norm(u, NormSpec(family, FracOrder(0.4), 1.0)))
