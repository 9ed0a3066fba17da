"""Tests for the numerical kernel: gamma, GL weights, product quadrature, Fourier."""

from __future__ import annotations

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracsobolev import core
from fracsobolev.core import (
    FracOrder,
    Grid,
    SampledFunction,
    Side,
    discrete_fourier,
    gamma_fn,
    gl_weights,
    inverse_discrete_fourier,
    line_grid,
    product_kernels,
    spectral_multiplier,
    trapezoid,
    uniform_grid,
)
from fracsobolev.operators import frac_derivative, spectral_derivative
from fracsobolev.oracle import Gaussian, sample_line
from fracsobolev.spaces import NormSpec, fourier_seminorm, sobolev_norm
from fracsobolev.verify import check_sobolev_inequality

# Reference values computed independently with mpmath at 30 digits.
GAMMA_HALF = 1.7724538509055160273
GAMMA_2P5 = 1.3293403881791370205
GAMMA_NEG_HALF = -3.5449077018110320546
GAMMA_10P3 = 716430.68906237524455
# product-trapezoid kernels (fL(m), fR(m)) for alpha = 0.3 and 0.7, mpmath 30 digits
PRODUCT_KERNELS = {
    0.3: {
        2: (0.354356181175791284231858593801, 0.416125196640596330766118303424),
        17: (0.0697795156572688901565509300406, 0.0707735633006687185309482855329),
        18: (0.0669897098054185835662010593556, 0.0678890932445459156893344065765),
        100: (0.0199520028315944843140951694083, 0.0199988466820812700100886622144),
        1000: (0.00397256828396248151602933937554, 0.00397349578858372848866369834936),
        65536: (0.000212537515334624263088319691811, 0.000212538272056938069113078427419),
    },
    0.7: {
        2: (0.430797111080889652465692748181, 0.461352592794068983562048345463),
        17: (0.214997012754287691821149644277, 0.216304267290594924975857267132),
        18: (0.211270463582172462618798632577, 0.212481414596399179000594453462),
        100: (0.125720325966625565990083488089, 0.125846742325824309248978923509),
        1000: (0.0629525672634626901619477529447, 0.0629588659848544614587930873551),
        65536: (0.017948439184067449962877671601, 0.0179484665714420454099559454732),
    },
}


class TestGamma:
    def test_spot_values(self):
        assert gamma_fn(0.5) == pytest.approx(GAMMA_HALF, rel=1e-14)
        assert gamma_fn(2.5) == pytest.approx(GAMMA_2P5, rel=1e-14)
        assert gamma_fn(10.3) == pytest.approx(GAMMA_10P3, rel=1e-13)
        assert gamma_fn(1.0) == pytest.approx(1.0, rel=1e-15)
        assert gamma_fn(5.0) == pytest.approx(24.0, rel=1e-14)

    def test_reflection_to_negative_non_integers(self):
        assert gamma_fn(-0.5) == pytest.approx(GAMMA_NEG_HALF, rel=1e-13)

    def test_poles_raise(self):
        for bad in (0.0, -1.0, -2.0, -17.0, -3, np.float64(-2.0), np.array(-4.0)):
            with pytest.raises(ValueError, match="gamma pole"):
                gamma_fn(bad)
        with pytest.raises(ValueError, match="gamma pole"):
            gamma_fn(np.array([1.0, -3.0]))

    def test_scalars_give_the_bits_of_arrays(self):
        x = np.concatenate([np.linspace(-4.75, 60.0, 257), [1.0, 3.0]])
        expected = gamma_fn(x)
        # Python floats, np.float64 and 0-d arrays
        for values in ([float(v) for v in x], list(x), [np.array(v) for v in x]):
            assert np.array_equal([gamma_fn(v) for v in values], expected)
        assert gamma_fn(3) == gamma_fn(np.array([3.0]))[0] == 2.0

    def test_overflow_is_infinite(self):
        assert gamma_fn(180.0) == math.inf

    def test_vectorized(self):
        x = np.array([0.5, 2.5, 7.25])
        out = gamma_fn(x)
        assert out.shape == (3,)
        assert out[0] == pytest.approx(GAMMA_HALF, rel=1e-14)

    @given(st.floats(min_value=0.05, max_value=49.0))
    @settings(max_examples=200, deadline=None)
    def test_recurrence(self, x):
        assert gamma_fn(x + 1.0) == pytest.approx(x * gamma_fn(x), rel=1e-12)


class TestGLWeights:
    def test_first_weights_half(self):
        w = gl_weights(0.5, 3)
        assert np.allclose(w, [1.0, -0.5, -0.125, -0.0625], rtol=0, atol=1e-15)

    def test_weights_sum_to_zero_power(self):
        # sum_k w_k = (1 - 1)^alpha -> partial sums decrease to 0
        w = gl_weights(0.7, 4000)
        partial = np.cumsum(w)
        assert partial[-1] == pytest.approx(0.0, abs=5e-3)
        assert np.all(partial > 0)

    @pytest.mark.parametrize("alpha", [0.3, 0.5, 0.85])
    def test_matches_the_recurrence_on_a_long_run(self, alpha):
        count = 1 << 16
        expected = [1.0]
        for k in range(1, count + 1):
            expected.append(expected[-1] * (k - 1 - alpha) / k)
        w = gl_weights(alpha, count)
        assert w.shape == (count + 1,)
        assert np.max(np.abs(w - expected)) <= 1e-13 * np.max(np.abs(w))

    @given(st.floats(min_value=0.05, max_value=0.95))
    @settings(max_examples=50, deadline=None)
    def test_partial_sums_monotone(self, alpha):
        w = gl_weights(alpha, 200)
        partial = np.cumsum(w)
        # after w_0 the weights are negative, so the partial sums decrease
        assert np.all(np.diff(partial[1:]) <= 1e-15)
        assert np.all(w[1:] <= 0)


class TestProductKernels:
    @pytest.mark.parametrize("alpha", [0.3, 0.7])
    def test_far_cells_are_accurate(self, alpha):
        # the closed form loses about log10(m^2) digits (4.4e-7 at m = 65536)
        f_left, f_right = product_kernels(alpha, 65536)
        for m in (18, 100, 1000, 65536):
            ref_left, ref_right = PRODUCT_KERNELS[alpha][m]
            assert f_left[m - 1] == pytest.approx(ref_left, rel=1e-14)
            assert f_right[m - 1] == pytest.approx(ref_right, rel=1e-14)

    @pytest.mark.parametrize("alpha", [0.05, 0.3, 0.7, 1.0])
    def test_near_cells_keep_the_closed_form(self, alpha):
        f_left, f_right = product_kernels(alpha, 4096)
        m = np.arange(1.0, 18.0)
        p = (m ** (alpha + 1.0) - (m - 1.0) ** (alpha + 1.0)) / (alpha + 1.0)
        q = (m**alpha - (m - 1.0) ** alpha) / alpha
        assert np.array_equal(f_left[:17], p - (m - 1.0) * q)
        assert np.array_equal(f_right[:17], m * q - p)
        for node in (2, 17):
            if alpha in PRODUCT_KERNELS:
                ref_left, ref_right = PRODUCT_KERNELS[alpha][node]
                assert f_left[node - 1] == pytest.approx(ref_left, rel=2e-13)
                assert f_right[node - 1] == pytest.approx(ref_right, rel=2e-13)

    def test_alpha_one_is_the_trapezoid_rule(self):
        f_left, f_right = product_kernels(1.0, 100)
        assert np.all(f_left == 0.5)
        assert np.all(f_right == 0.5)


class TestFourier:
    def test_gaussian_spectrum(self):
        L, n = 16.0, 1024
        grid = line_grid(L, n)
        x = grid.nodes[:-1]
        xi, uhat = discrete_fourier(np.exp(-0.5 * x**2), L)
        expected = math.sqrt(2 * math.pi) * np.exp(-0.5 * xi**2)
        window = np.abs(xi) <= 8.0
        err = np.max(np.abs(uhat[window] - expected[window]))
        assert err <= 1e-6 * math.sqrt(2 * math.pi)
        assert np.max(np.abs(uhat.imag)) <= 1e-9

    def test_round_trip(self):
        rng = np.random.default_rng(7)
        u = rng.standard_normal(512)
        xi, uhat = discrete_fourier(u, 4.0)
        back = inverse_discrete_fourier(uhat, 4.0)
        assert np.max(np.abs(back.real - u)) <= 1e-12
        assert np.max(np.abs(back.imag)) <= 1e-12

    def test_parseval(self):
        rng = np.random.default_rng(11)
        u = rng.standard_normal(256)
        L = 8.0
        dx = 2 * L / u.size
        xi, uhat = discrete_fourier(u, L)
        dxi = xi[1] - xi[0]
        lhs = np.sum(np.abs(u) ** 2) * dx
        rhs = np.sum(np.abs(uhat) ** 2) * dxi / (2 * np.pi)
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_impulse_is_flat(self):
        u = np.zeros(128)
        u[40] = 1.0
        xi, uhat = discrete_fourier(u, 2.0)
        assert np.allclose(np.abs(uhat), np.abs(uhat[0]), rtol=1e-12)

    def test_pads_to_power_of_two(self):
        u = np.ones(100)
        xi, uhat = discrete_fourier(u, 1.0)
        assert xi.size == 128

    @pytest.mark.parametrize("n", [1000, 3000])
    def test_padding_keeps_the_sample_spacing(self, n):
        # the padded samples keep their spacing 2L/n, so Parseval holds
        # at the spacing of the samples that came in
        u = np.exp(-0.5 * np.linspace(-12.0, 12.0, n + 1)[:-1] ** 2)
        xi, uhat = discrete_fourier(u, 12.0)
        lhs = np.sum(u**2) * 24.0 / n
        rhs = np.sum(np.abs(uhat) ** 2) * (xi[1] - xi[0]) / (2 * np.pi)
        assert lhs == pytest.approx(math.sqrt(math.pi), rel=1e-12)
        assert rhs == pytest.approx(lhs, rel=1e-12)

    def test_shared_tables_give_the_inline_formula_bitwise(self):
        # the (n, L) tables live in one slot: alternating keys rebuilds
        # them on every call, repeating a key reuses them, and either way
        # the bits are those of the formulas written out per call
        def inline(u, half_width):
            n = u.size
            dx = 2.0 * half_width / n
            xi = 2.0 * np.pi * np.fft.fftfreq(n, d=dx)
            uhat = dx * np.exp(-1j * xi * (-half_width)) * np.fft.fft(u)
            back = np.fft.ifft(uhat * np.exp(1j * xi * (-half_width)) / dx)
            return xi, uhat, back

        rng = np.random.default_rng(5)
        keys = ((2048, 12.0), (2048, 3.0), (512, 3.0))
        cases = [(rng.standard_normal(n), L) for n, L in keys]
        for u, L in cases * 2 + cases[:1] * 2:
            xi, uhat = discrete_fourier(u, L)
            ref_xi, ref_uhat, ref_back = inline(u.astype(complex), L)
            assert np.array_equal(xi, ref_xi)
            assert np.array_equal(uhat, ref_uhat)
            assert np.array_equal(inverse_discrete_fourier(uhat, L), ref_back)
            assert not xi.flags.writeable

    def test_kept_spectral_symbols_give_fresh_bits(self):
        # one slot holds both sides' symbols of the last (n, L, alpha):
        # alternating sides reuses them, a new key replaces them, and every
        # derivative has the bits of one taken with the slot emptied first
        keys = ((2048, 12.0, 0.5), (2048, 12.0, 0.3), (256, 8.0, 0.5))
        calls = [(*key, side) for key in keys for side in ("left", "right", "left")]
        for n, L, alpha, side in calls + calls[:3]:
            u = sample_line(Gaussian(0.2, 1.0), L, n)
            kept = spectral_derivative(u, alpha, side)
            key, symbols = core._plans[core._symbol_plan]
            assert key == (n, L, alpha)
            assert len(symbols) == 2
            symbol = symbols[Side.parse(side)]
            xi = 2.0 * np.pi * np.fft.fftfreq(n, d=2.0 * L / n)
            assert np.array_equal(symbol, spectral_multiplier(xi, alpha, side))
            assert not symbol.flags.writeable
            core._plans.clear()
            fresh = spectral_derivative(u, alpha, side)
            assert np.array_equal(kept.values, fresh.values)


class TestDataModel:
    def test_grid_validation(self):
        with pytest.raises(ValueError):
            Grid(1.0, 0.0, 4)
        with pytest.raises(ValueError):
            Grid(0.0, 1.0, 0)

    def test_grid_ends_must_be_finite(self):
        # an infinite end passed b > a, and its h was inf or nan
        for a, b in ((0.0, math.inf), (-math.inf, 0.0), (-math.inf, math.inf)):
            with pytest.raises(ValueError, match="grid ends must be finite"):
                Grid(a, b, 8)

    def test_grid_nodes(self):
        g = uniform_grid(0.0, 1.0, 4)
        assert np.allclose(g.nodes, [0, 0.25, 0.5, 0.75, 1.0])
        assert g.h == 0.25
        assert g.refine().n == 8

    def test_grid_nodes_are_one_read_only_array(self):
        g = uniform_grid(-1.0, 2.0, 1000)
        nodes = g.nodes
        assert g.nodes is nodes
        assert np.array_equal(nodes, np.linspace(-1.0, 2.0, 1001))
        assert not nodes.flags.writeable
        with pytest.raises(ValueError):
            nodes[0] = 0.0

    def test_cached_nodes_leave_equality_hashing_and_repr_alone(self):
        used, fresh = Grid(0.0, 1.0, 8), Grid(0.0, 1.0, 8)
        used.nodes
        assert used == fresh and hash(used) == hash(fresh)
        assert repr(used) == repr(fresh) == "Grid(a=0.0, b=1.0, n=8)"
        assert used != Grid(0.0, 1.0, 16)
        assert len({used, fresh}) == 1
        assert used.refine(1) == used and used.refine(1).nodes is not used.nodes

    def test_line_function_grid_is_one_object(self):
        u = SampledFunction(line_grid(4.0, 64), np.exp(-line_grid(4.0, 64).nodes ** 2))
        assert u.grid is u.grid
        assert u.x is u.grid.nodes
        assert u.grid == line_grid(4.0, 64)

    def test_the_line_is_a_mark_on_the_grid(self):
        line, interval = line_grid(4.0, 64), uniform_grid(-4.0, 4.0, 64)
        assert line.on_line and not interval.on_line
        assert line != interval and line.nodes.tolist() == interval.nodes.tolist()
        assert repr(line) == "Grid(a=-4.0, b=4.0, n=64, on_line=True)"
        assert line.refine() == line_grid(4.0, 128)
        u = SampledFunction(line, np.exp(-line.nodes**2))
        assert core._coarsened(u, 2).grid == line_grid(4.0, 32)
        assert u.reflected().grid is line

    def test_line_samples_keep_the_window_checks(self):
        with pytest.raises(ValueError, match="half_width must be positive"):
            line_grid(0.0, 8)
        with pytest.raises(ValueError, match="at least 3 nodes"):
            line_grid(4.0, 1)
        with pytest.raises(ValueError, match=r"\[-L, L\]"):
            Grid(-1.0, 2.0, 8, on_line=True)
        with pytest.raises(ValueError, match="no endpoint terms"):
            SampledFunction(line_grid(4.0, 8), np.ones(9), left_terms=((1.0, -0.5),))

    def test_sampled_function_shape_check(self):
        g = uniform_grid(0.0, 1.0, 4)
        with pytest.raises(ValueError):
            SampledFunction(g, np.zeros(4))

    def test_reflection_involution(self):
        g = uniform_grid(0.0, 1.0, 8)
        u = SampledFunction(g, g.nodes**2, left_terms=((1.0, -0.5),))
        r = u.reflected()
        assert r.right_power == (1.0, -0.5)
        assert r.left_power is None
        back = r.reflected()
        assert np.allclose(back.values, u.values)
        assert back.left_power == u.left_power

    def test_line_function_decay(self):
        L, n = 8.0, 64
        x = line_grid(L, n).nodes
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            SampledFunction(line_grid(L, n), np.exp(-0.5 * x**2)).check_decay()
        with pytest.warns(UserWarning):
            SampledFunction(line_grid(L, n), np.cos(x)).check_decay()

    def test_decay_warning_names_the_caller(self):
        x = line_grid(16.0, 1024).nodes
        slow = SampledFunction(line_grid(16.0, 1024), 1.0 / (1.0 + x**2))
        wide = SampledFunction(line_grid(16.0, 1024), np.exp(-x**2 / 18.0))  # edge about 7e-7 of the peak
        for call in (
            lambda: fourier_seminorm(slow, 0.5, 2.0),
            lambda: spectral_derivative(wide, 0.5),
            lambda: sample_line(Gaussian(0.0, 3.0), 16.0, 1024),
            lambda: wide.check_decay(),
        ):
            with warnings.catch_warnings(record=True) as rec:
                warnings.simplefilter("always")
                call()
            hits = [w for w in rec if "has not decayed" in str(w.message)]
            assert len(hits) == 1 and hits[0].filename == __file__

    # the Marchaud window-tail estimate needs the slower tail of ``slow``; the
    # spectral paths reject it (imaginary residue) and warn on ``wide``
    @pytest.mark.parametrize(
        "call",
        [
            lambda slow, wide: frac_derivative(slow, 0.5, scheme="marchaud"),
            lambda slow, wide: frac_derivative(wide, 0.5, scheme="spectral"),
            lambda slow, wide: sobolev_norm(wide, NormSpec("one_sided_left", FracOrder(0.5))),
            lambda slow, wide: sobolev_norm(wide, NormSpec("fourier", FracOrder(0.5))),
            # Gaussian(0, 4) has not decayed at +-12: the check warns from
            # inside its battery loop
            lambda slow, wide: check_sobolev_inequality(
                [Gaussian(0.1 * i - 0.4, 0.5 + 0.1 * i) for i in range(9)]
                + [Gaussian(0.0, 4.0)],
                0.3,
                2.0,
                domain="line",
                n_line=1024,
            ),
        ],
        ids=["marchaud", "spectral", "one_sided_left", "fourier", "sobolev_line"],
    )
    def test_every_warning_names_the_caller(self, call):
        x = line_grid(16.0, 1024).nodes
        slow = SampledFunction(line_grid(16.0, 1024), 1.0 / (1.0 + x**2))
        wide = SampledFunction(line_grid(16.0, 1024), np.exp(-x**2 / 18.0))  # edge about 7e-7 of the peak
        with warnings.catch_warnings(record=True) as rec:
            warnings.simplefilter("always")
            call(slow, wide)
        assert rec
        assert all(w.filename == __file__ for w in rec), [(w.filename, w.lineno) for w in rec]

    def test_frac_order_split(self):
        assert FracOrder(0.3).m == 0 and FracOrder(0.3).sigma == pytest.approx(0.3)
        assert FracOrder(1.0).m == 0 and FracOrder(1.0).sigma == 1.0
        fo = FracOrder(1.5)
        assert fo.m == 1 and fo.sigma == pytest.approx(0.5)
        with pytest.raises(ValueError):
            FracOrder(0.0)

    def test_side_parse(self):
        assert Side.parse("left") is Side.LEFT
        assert Side.parse(Side.RIGHT) is Side.RIGHT
        with pytest.raises(ValueError):
            Side.parse("up")

    def test_trapezoid(self):
        x = np.linspace(0, 1, 101)
        assert trapezoid(x**2, 0.01) == pytest.approx(1 / 3, abs=1e-4)
