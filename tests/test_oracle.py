"""Tests for the closed-form oracle family and its exact fractional calculus."""

from __future__ import annotations

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracsobolev import operators
from fracsobolev.core import Side, spectral_multiplier, uniform_grid
from fracsobolev.oracle import (
    Bump,
    FunctionSum,
    Gaussian,
    PowerSum,
    Step,
    UnsupportedFamilyError,
    classical_derivative_values,
    oracle_frac_derivative,
    oracle_frac_integral,
    parse_function_spec,
    sample,
    sample_line,
)
from fracsobolev.operators import caputo_derivative, frac_integral, rl_derivative
from fracsobolev.spaces import lp_norm

# Frozen references (mpmath, 30 digits).
G23_OVER_G28 = 0.69592503204502823  # Gamma(2.3)/Gamma(2.8)
G23_OVER_G18 = 1.2526650576810508  # Gamma(2.3)/Gamma(1.8)
G13_OVER_G18 = 0.96358850590850063  # Gamma(1.3)/Gamma(1.8)
INV_GAMMA_HALF = 0.5641895835477563  # 1/Gamma(0.5)
INV_GAMMA_1P5 = 1.1283791670955126  # 1/Gamma(1.5)


MULTI_TERM = ((1.0, -0.5), (-2.0, -0.25))  # x^-1/2 - 2 x^-1/4


def kappa_form(alpha: float, anchor: float = 0.0, side: Side = Side.LEFT) -> PowerSum:
    return PowerSum(anchor, ((1.0, alpha - 1.0),), side)


class TestEulerRule:
    def test_integral_of_power(self):
        f = PowerSum(0.0, ((1.0, 1.3),))
        g = oracle_frac_integral(f, 0.5, "left")
        assert g.terms[0][1] == pytest.approx(1.8)
        assert g.value(np.array([1.0]))[0] == pytest.approx(G23_OVER_G28, rel=1e-13)

    def test_derivative_of_power(self):
        f = PowerSum(0.0, ((1.0, 1.3),))
        g = oracle_frac_derivative(f, 0.5, "left")
        assert g.value(np.array([1.0]))[0] == pytest.approx(G23_OVER_G18, rel=1e-13)

    def test_derivative_of_constant_is_kernel(self):
        f = PowerSum(0.0, ((1.0, 0.0),))
        g = oracle_frac_derivative(f, 0.5)
        x = np.array([0.25, 1.0])
        expected = x**-0.5 * INV_GAMMA_HALF
        assert np.allclose(g.value(x), expected, rtol=1e-13)

    def test_kernel_annihilated(self):
        g = oracle_frac_derivative(kappa_form(0.5), 0.5)
        assert g.terms == ()
        assert np.all(g.value(np.linspace(0.1, 1, 7)) == 0.0)

    def test_integral_of_kernel_is_constant(self):
        # I^{1-a} kappa^a = Gamma(a) everywhere
        alpha = 0.7
        g = oracle_frac_integral(kappa_form(alpha), 1.0 - alpha)
        x = np.linspace(0.05, 1.0, 9)
        from fracsobolev.core import gamma_fn

        assert np.allclose(g.value(x), gamma_fn(alpha), rtol=1e-13)

    @given(
        st.floats(min_value=0.1, max_value=0.9),
        st.floats(min_value=0.1, max_value=0.9),
        st.floats(min_value=-0.6, max_value=2.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_semigroup_on_family(self, a1, a2, b):
        f = PowerSum(0.0, ((1.5, b),))
        lhs = oracle_frac_integral(oracle_frac_integral(f, a1), a2)
        rhs = oracle_frac_integral(f, a1 + a2)
        x = np.linspace(0.1, 1.0, 5)
        assert np.allclose(lhs.value(x), rhs.value(x), rtol=1e-11)

    @given(st.floats(min_value=0.1, max_value=0.9), st.floats(min_value=-0.5, max_value=2.0))
    @settings(max_examples=60, deadline=None)
    def test_derivative_inverts_integral(self, alpha, b):
        f = PowerSum(0.0, ((2.0, b),))
        back = oracle_frac_derivative(oracle_frac_integral(f, alpha), alpha)
        x = np.linspace(0.1, 1.0, 5)
        assert np.allclose(back.value(x), f.value(x), rtol=1e-11)


class TestStepImages:
    def test_integral(self):
        g = oracle_frac_integral(Step(0.5, 2.0), 0.5)
        assert g.value(np.array([0.3]))[0] == 0.0
        assert g.value(np.array([1.0]))[0] == pytest.approx(
            2.0 * np.sqrt(0.5) * INV_GAMMA_1P5, rel=1e-13
        )

    def test_derivative(self):
        g = oracle_frac_derivative(Step(0.5, 2.0), 0.5)
        assert g.value(np.array([1.0]))[0] == pytest.approx(
            2.0 * np.sqrt(2.0) * INV_GAMMA_HALF, rel=1e-13
        )
        assert g.value(np.array([0.49]))[0] == 0.0

    def test_caputo_rejects_step(self):
        with pytest.raises(UnsupportedFamilyError):
            oracle_frac_derivative(Step(0.5, 1.0), 0.5, kind="caputo")


class TestCaputo:
    def test_constant_annihilated(self):
        g = oracle_frac_derivative(PowerSum(0.0, ((3.0, 0.0),)), 0.5, kind="caputo")
        x = np.linspace(0.05, 1, 7)
        assert np.allclose(g.value(x), 0.0, atol=1e-14)

    def test_shift_invariance_of_slope_part(self):
        # Caputo of 1 + x equals Caputo of x: the constant drops out
        f = PowerSum(0.0, ((1.0, 0.0), (1.0, 1.0)))
        g = oracle_frac_derivative(f, 0.5, kind="caputo")
        h = oracle_frac_derivative(PowerSum(0.0, ((1.0, 1.0),)), 0.5, kind="caputo")
        x = np.linspace(0.1, 1, 5)
        assert np.allclose(g.value(x), h.value(x), rtol=1e-12)

    def test_rejects_singular_exponent(self):
        with pytest.raises(UnsupportedFamilyError):
            oracle_frac_derivative(kappa_form(0.5), 0.5, kind="caputo")


class TestRightSide:
    def test_right_integral(self):
        f = PowerSum(1.0, ((1.0, 0.3),), Side.RIGHT)
        g = oracle_frac_integral(f, 0.5, "right")
        assert g.value(np.array([0.0]))[0] == pytest.approx(G13_OVER_G18, rel=1e-13)

    def test_right_derivative_of_constant(self):
        f = PowerSum(1.0, ((1.0, 0.0),), Side.RIGHT)
        g = oracle_frac_derivative(f, 0.5, "right")
        x = np.array([0.0, 0.75])
        assert np.allclose(g.value(x), (1.0 - x) ** -0.5 * INV_GAMMA_HALF, rtol=1e-13)

    def test_orientation_mismatch_raises(self):
        f = PowerSum(0.0, ((1.0, 0.5),), Side.LEFT)
        with pytest.raises(UnsupportedFamilyError):
            oracle_frac_integral(f, 0.5, "right")
        with pytest.raises(UnsupportedFamilyError):
            oracle_frac_derivative(Step(0.5, 1.0, Side.RIGHT), 0.5, "left")


class TestUnsupported:
    def test_gaussian_has_no_closed_form(self):
        with pytest.raises(UnsupportedFamilyError):
            oracle_frac_integral(Gaussian(0.0, 1.0), 0.5)
        with pytest.raises(UnsupportedFamilyError):
            oracle_frac_derivative(Bump(0.5, 0.2), 0.5)

    def test_sum_propagates(self):
        f = FunctionSum((PowerSum(0.0, ((1.0, 0.0),)), Gaussian(0.0, 1.0)))
        with pytest.raises(UnsupportedFamilyError):
            oracle_frac_derivative(f, 0.5)


class TestEvaluation:
    def test_powersum_one_sided(self):
        f = PowerSum(0.5, ((2.0, 0.5),))
        x = np.array([0.0, 0.5, 1.0])
        assert np.allclose(f.value(x), [0.0, 0.0, 2.0 * np.sqrt(0.5)])

    def test_bump_support_and_peak(self):
        b = Bump(0.5, 0.2, height=2.0)
        assert b.value(np.array([0.29, 0.71])).tolist() == [0.0, 0.0]
        assert b.value(np.array([0.5]))[0] == pytest.approx(2.0)
        assert b.support == (0.3, 0.7)

    def test_classical_derivative_matches_finite_difference(self):
        x = np.linspace(-0.9, 0.9, 41)
        eps = 1e-6
        for f in (Gaussian(0.1, 0.7), Bump(0.0, 0.8), PowerSum(-1.0, ((1.0, 2.0), (0.5, 1.0)))):
            exact = classical_derivative_values(f, x)
            fd = (f.value(x + eps) - f.value(x - eps)) / (2 * eps)
            assert np.allclose(exact, fd, atol=1e-6, rtol=1e-6)

    def test_classical_derivative_of_a_cancelled_exponent(self):
        # x^-1/4 - x^-1/4 + x is x: its derivative is 1 at the base node
        # too, with no inf - inf on the way
        x = uniform_grid(0.0, 1.0, 8).nodes
        f = PowerSum(0.0, ((1.0, -0.25), (-1.0, -0.25), (1.0, 1.0)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            d = classical_derivative_values(f, x)
        assert d.tolist() == [1.0] * 9

    def test_classical_derivative_rejects_step(self):
        with pytest.raises(UnsupportedFamilyError):
            classical_derivative_values(Step(0.5, 1.0), np.array([0.1]))


class TestSampling:
    def test_kappa_sample_flags_base(self):
        grid = uniform_grid(0.0, 1.0, 16)
        u = sample(kappa_form(0.5), grid)
        assert u.values[0] == np.inf
        assert np.all(np.isfinite(u.values[1:]))
        assert u.left_power == (1.0, -0.5)
        assert u.right_power is None

    def test_mixture_keeps_leading_power(self):
        grid = uniform_grid(0.0, 1.0, 32)
        f = FunctionSum((PowerSum(0.0, ((2.0, -0.5),)), Bump(0.5, 0.2)))
        u = sample(f, grid)
        assert u.left_power == (2.0, -0.5)

    @pytest.mark.parametrize("f", [
        PowerSum(0.0, ((1.0, -0.25), (2.0, -0.25))),
        PowerSum(0.0, ((1.0, -0.25),)) + PowerSum(0.0, ((2.0, -0.25),)),
        PowerSum(0.0, ((1.0, -0.25), (1.0, 0.5))) + PowerSum(0.0, ((2.0, -0.25),)),
    ])
    def test_equal_exponents_are_summed(self, f):
        # every spelling of 3 x^-1/4 records the summed coefficient
        u = sample(f, uniform_grid(0.0, 1.0, 16))
        assert u.left_power == (3.0, -0.25)

    def test_cancelled_exponent_records_nothing(self):
        # x^-1/4 - x^-1/4 + x is x; x^-1/2 is then the leading power
        grid = uniform_grid(0.0, 1.0, 16)
        f = PowerSum(0.0, ((1.0, -0.25), (-1.0, -0.25), (1.0, 1.0)))
        assert sample(f, grid).left_power is None
        assert sample(f + PowerSum(0.0, ((0.5, -0.1),)), grid).left_power == (0.5, -0.1)

    @pytest.mark.parametrize("f", [
        PowerSum(0.0, ((1.0, -0.25), (-1.0, -0.25), (1.0, 1.0))),
        PowerSum(0.0, ((1.0, -0.25),)) + PowerSum(0.0, ((-1.0, -0.25), (1.0, 1.0))),
        FunctionSum((PowerSum(0.0, ((1.0, -0.25),)), FunctionSum((PowerSum(0.0, ((-1.0, -0.25), (1.0, 1.0))),)))),
    ])
    def test_cancelled_exponent_leaves_a_finite_base_node(self, f):
        # x^-1/4 - x^-1/4 + x is x: the base node holds x's value, 0
        grid = uniform_grid(0.0, 1.0, 1024)
        u = sample(f, grid)
        assert u.values[0] == 0.0
        assert abs(lp_norm(u, 1) - 0.5) <= 1e-15
        exact = grid.nodes[1:] ** 0.5 * INV_GAMMA_1P5  # D^1/2 x
        assert np.max(np.abs(caputo_derivative(u, 0.5).values[1:] - exact)) <= 1e-13

    def test_cancelled_exponent_at_the_right_end(self):
        grid = uniform_grid(0.0, 1.0, 64)
        f = PowerSum(1.0, ((2.0, -0.5), (-2.0, -0.5), (3.0, 0.0)), Side.RIGHT) + Bump(0.5, 0.2)
        u = sample(f, grid)
        assert u.right_power is None
        assert u.values[-1] == 3.0
        assert np.array_equal(u.values[:-1], f.value(grid.nodes[:-1]))

    def test_power_oriented_away_from_its_end_adds_zero_there(self):
        # (x - 1)^-1/2 from the left vanishes on [0, 1): node 16 holds the
        # limit from inside, 0, and nothing is recorded
        grid = uniform_grid(0.0, 1.0, 16)
        u = sample(PowerSum(1.0, ((1.0, -0.5),), Side.LEFT), grid)
        assert u.values.tolist() == [0.0] * 17
        assert u.left_power is None and u.right_power is None
        assert frac_integral(u, 0.5).values.tolist() == [0.0] * 17

    @pytest.mark.parametrize("n", [1000, 2000, 3000])
    def test_right_anchored_power_is_sampled_in_its_frame_inside_a_sum(self, n):
        # provenance: three spellings of one function give the same samples
        # and the same right-side operators; each is sampled at the
        # reflection's distances, so the reflection's regular part is 0
        grid = uniform_grid(0.0, 1.0, n)
        p = PowerSum(1.0, ((1.3, -0.25),), Side.RIGHT)
        spellings = (p, FunctionSum((p,)), p + PowerSum(1.0, ((0.0, 2.0),), Side.RIGHT))
        samples = [sample(f, grid) for f in spellings]
        for u in samples:
            assert u.right_power == (1.3, -0.25)
            assert np.array_equal(u.values, samples[0].values)
            regular, _ = operators._split_left_singular(u.reflected())
            assert np.count_nonzero(regular) == 0
            for op in (rl_derivative, frac_integral):
                assert np.array_equal(op(u, 0.4, "right").values, op(samples[0], 0.4, "right").values)

    @pytest.mark.parametrize("n", [64, 1024, 16384])
    @pytest.mark.parametrize("side", [Side.LEFT, Side.RIGHT])
    def test_every_endpoint_term_is_recorded(self, side, n):
        # x^-1/2 - 2 x^-1/4: both terms, leading first, under a +inf marker
        anchor = 0.0 if side is Side.LEFT else 1.0
        u = sample(PowerSum(anchor, MULTI_TERM, side), uniform_grid(0.0, 1.0, n))
        terms, node = (u.left_terms, 0) if side is Side.LEFT else (u.right_terms, n)
        assert terms == MULTI_TERM
        assert u.values[node] == np.inf
        assert np.all(np.isfinite(np.delete(u.values, node)))

    def test_marker_takes_the_sign_of_the_leading_term(self):
        u = sample(PowerSum(0.0, ((-1.0, -0.5), (2.0, -0.25))), uniform_grid(0.0, 1.0, 16))
        assert u.values[0] == -np.inf
        assert u.left_power == (-1.0, -0.5)

    def test_right_anchored_metadata(self):
        grid = uniform_grid(0.0, 1.0, 16)
        u = sample(kappa_form(0.5, anchor=1.0, side=Side.RIGHT), grid)
        assert u.right_power == (1.0, -0.5)
        assert u.values[-1] == np.inf

    def test_smooth_sample_has_no_metadata(self):
        grid = uniform_grid(0.0, 1.0, 16)
        u = sample(Gaussian(0.5, 0.2), grid)
        assert u.left_power is None and u.right_power is None
        assert np.all(np.isfinite(u.values))


class TestSpectral:
    def test_multiplier_matches_first_derivative_symbol(self):
        xi = np.array([-2.0, 0.0, 3.0])
        m = spectral_multiplier(xi, 1.0, "left")
        assert np.allclose(m, 1j * xi, atol=1e-15)
        m_r = spectral_multiplier(xi, 1.0, "right")
        assert np.allclose(m_r, -1j * xi, atol=1e-15)

    def test_multiplier_conjugate_symmetry(self):
        xi = np.linspace(-5, 5, 11)
        m = spectral_multiplier(xi, 0.5, "left")
        assert np.allclose(m[::-1], np.conj(m), atol=1e-15)

    def test_sample_line_decay(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sample_line(Gaussian(0.0, 1.0), 16.0, 256)


EXPONENTS = (-0.75, -0.25, 0.0, 0.3, 1.0, 1.3, 2.0, 2.5)
# coefficients of both signs, one per exponent
COEFFS = (1.5, -2.0, 0.7, -1.1, 3.0, -0.4, 2.2, -0.9)


def masked_powers(f: PowerSum, x: np.ndarray, derivative: bool) -> np.ndarray:
    """Reference: the power sum or its derivative, gathered and scattered by a mask."""
    t = x - f.anchor if f.orientation is Side.LEFT else f.anchor - x
    sgn = 1.0 if f.orientation is Side.LEFT else -1.0
    out = np.zeros_like(t)
    inside = t >= 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        for c, b in f.terms:
            if derivative:
                if b != 0.0:
                    out[inside] += sgn * c * b * np.power(t[inside], b - 1.0)
            elif b == 0.0:
                out[inside] += c
            else:
                out[inside] += c * np.power(t[inside], b)
    return out


class TestPowerLoop:
    """The ``np.where`` loop gives the masked loop's bits."""

    @pytest.mark.parametrize("n", [7, 100, 1024, 2000, 65536])
    @pytest.mark.parametrize("orientation", [Side.LEFT, Side.RIGHT])
    def test_bits_match_the_masked_loop(self, n, orientation):
        x = uniform_grid(0.0, 1.0, n).nodes
        term_sets = [((c, b),) for c, b in zip(COEFFS, EXPONENTS)]
        term_sets.append(tuple(zip(COEFFS, EXPONENTS)))
        for anchor in (0.0, 1.0, 0.37, -0.5, 1.5):
            for terms in term_sets:
                f = PowerSum(anchor, terms, orientation)
                with np.errstate(divide="ignore", invalid="ignore"):
                    got = (f.value(x), classical_derivative_values(f, x))
                    want = (masked_powers(f, x, False), masked_powers(f, x, True))
                for g, w in zip(got, want):
                    assert np.array_equal(g.view(np.int64), w.view(np.int64)), (anchor, terms)

    @pytest.mark.parametrize("n", [7, 100, 1024, 65536])
    def test_bump_bits_match_the_masked_form(self, n):
        x = uniform_grid(0.0, 1.0, n).nodes
        for b in (Bump(0.5, 0.2, -1.3), Bump(0.05, 0.3), Bump(1.0, 0.5, 2.0)):
            s = (x - b.center) / b.radius
            inside = np.abs(s) < 1.0
            value, slope = np.zeros_like(x), np.zeros_like(x)
            si = s[inside]
            value[inside] = b.height * np.exp(1.0 - 1.0 / (1.0 - si**2))
            slope[inside] = value[inside] * (-2.0 * si / (1.0 - si**2) ** 2) / b.radius
            assert np.array_equal(b.value(x).view(np.int64), value.view(np.int64))
            got = classical_derivative_values(b, x)
            assert np.array_equal(got.view(np.int64), slope.view(np.int64))


class TestParser:
    def test_pow(self):
        f = parse_function_spec("pow:a=0;terms=1*-0.5,2*1.3")
        assert isinstance(f, PowerSum)
        assert f.anchor == 0.0
        assert f.terms == ((1.0, -0.5), (2.0, 1.3))

    def test_step_gauss_bump(self):
        assert parse_function_spec("step:c=0.5;h=3") == Step(0.5, 3.0, Side.LEFT)
        assert parse_function_spec("gauss:mu=0;s=1") == Gaussian(0.0, 1.0)
        assert parse_function_spec("bump:c=0.5;r=0.2") == Bump(0.5, 0.2, 1.0)

    def test_const_anchors_to_grid(self):
        grid = uniform_grid(2.0, 3.0, 4)
        f = parse_function_spec("const:4", grid=grid)
        assert f == PowerSum(2.0, ((4.0, 0.0),), Side.LEFT)
        g = parse_function_spec("const:4", grid=grid, side="right")
        assert g == PowerSum(3.0, ((4.0, 0.0),), Side.RIGHT)

    def test_kappa_spec(self):
        grid = uniform_grid(0.0, 2.0, 4)
        f = parse_function_spec("kappa:alpha=0.5;side=right", grid=grid)
        assert f == PowerSum(2.0, ((1.0, -0.5),), Side.RIGHT)

    def test_sum_spec(self):
        grid = uniform_grid(0.0, 1.0, 4)
        f = parse_function_spec("kappa:alpha=0.5;side=left+bump:c=0.5;r=0.2", grid=grid)
        assert isinstance(f, FunctionSum)
        assert len(f.parts) == 2

    def test_errors(self):
        for bad in (
            "nope:1",
            "pow:terms=1*0.5",
            "gauss:mu=0",
            "kappa:alpha=1.5",
            "step:c=0.5;zz=1",
            "",
        ):
            with pytest.raises((ValueError, KeyError)):
                parse_function_spec(bad)
