"""Operator realizations against the closed-form oracle layer.

Expected values are frozen from independent evaluation (mpmath, 30
digits) rather than recomputed with the code under test.
"""

from __future__ import annotations

import math
import re
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracsobolev import core, operators
from fracsobolev.core import (
    Grid,
    SampledFunction,
    gamma_fn,
    gl_weights,
    line_grid,
    product_kernels,
    trapezoid,
)
from fracsobolev.oracle import (
    Bump,
    Gaussian,
    PowerSum,
    Side,
    Step,
    oracle_frac_derivative,
    oracle_frac_integral,
    sample,
    sample_line,
)
from fracsobolev.operators import (
    _DIRECT_SIZE,
    KernelConstant,
    _Plan,
    _toeplitz,
    caputo_derivative,
    endpoint_constant,
    frac_derivative,
    frac_integral,
    gl_derivative,
    kappa,
    marchaud_derivative,
    marchaud_small_offset_bound,
    nodal_derivative,
    rl_derivative,
    spectral_derivative,
)

# mpmath, 30 digits
GAMMA_HALF = 1.7724538509055160273  # Gamma(1/2) = sqrt(pi)
INV_GAMMA_1P5 = 1.1283791670955125739  # 1/Gamma(3/2) = 2/sqrt(pi)
INV_GAMMA_HALF = 0.5641895835477562869  # 1/Gamma(1/2)
G23_OVER_G27 = 0.7553069177996519999  # Gamma(2.3)/Gamma(2.7)
G3_OVER_G15 = 2.2567583341910251478  # Gamma(3)/Gamma(1.5)
INV_GAMMA_2P5 = 0.7522527780636750493  # 1/Gamma(5/2)
NEG2_G34_OVER_G14 = -0.67597824006728472900  # -2 Gamma(3/4)/Gamma(1/4)
G05_OVER_G06 = 1.1902115743071552999  # Gamma(1/2)/Gamma(3/5)
NEG2_G075_OVER_G085 = -2.2030285239521553350  # -2 Gamma(3/4)/Gamma(0.85)


def unit_grid(n: int) -> Grid:
    return Grid(0.0, 1.0, n)


class TestFracIntegral:
    def test_constant_exact(self):
        # I^0.5 of 1 at x=1 is 1/Gamma(1.5); the rule is exact on constants
        u = sample(PowerSum(0.0, ((1.0, 0.0),)), unit_grid(256))
        result = frac_integral(u, 0.5, "left")
        assert abs(result.values[-1] - INV_GAMMA_1P5) <= 1e-12

    def test_linear_exact(self):
        g = unit_grid(512)
        u = SampledFunction(g, g.nodes.copy())
        result = frac_integral(u, 0.5)
        expected = g.nodes**1.5 * INV_GAMMA_2P5
        assert np.max(np.abs(result.values - expected)) <= 5e-15
        # an interior node: I^a (2y+1)(x) = 2 x^(1+a)/Gamma(2+a) + x^a/Gamma(1+a)
        g, alpha, j = Grid(0.0, 2.0, 80), 0.3, 37
        result = frac_integral(SampledFunction(g, 2.0 * g.nodes + 1.0), alpha)
        xj = g.nodes[j]
        exact = 2.0 * xj ** (1 + alpha) / gamma_fn(2 + alpha) + xj**alpha / gamma_fn(1 + alpha)
        assert result.values[j] == pytest.approx(exact, rel=1e-12)

    def test_power_oracle_agreement(self):
        g = unit_grid(1024)
        f = PowerSum(0.0, ((1.0, 1.3),))
        result = frac_integral(sample(f, g), 0.4)
        expected = sample(oracle_frac_integral(f, 0.4, "left"), g)
        assert expected.values[-1] == pytest.approx(G23_OVER_G27, rel=1e-12)
        scale = np.max(np.abs(expected.values))
        assert np.max(np.abs(result.values - expected.values)) <= 1e-4 * scale

    def test_reflection_symmetry(self):
        g = unit_grid(200)
        u = sample(Gaussian(0.3, 0.1), g)
        right = frac_integral(u, 0.4, "right")
        mirrored = frac_integral(u.reflected(), 0.4, "left").reflected()
        assert np.max(np.abs(right.values - mirrored.values)) <= 1e-14

    def test_kernel_maps_to_constant(self):
        """I^(1-alpha) kappa^alpha is the constant Gamma(alpha)."""
        g = unit_grid(128)
        k = kappa(0.5, "left", g)
        result = frac_integral(k, 0.5)
        assert np.max(np.abs(result.values - GAMMA_HALF)) <= 1e-13

    def test_kernel_without_metadata_fit_is_exact(self):
        g = unit_grid(128)
        bare = SampledFunction(g, kappa(0.5, "left", g).values)
        result = frac_integral(bare, 0.5)
        assert np.max(np.abs(result.values - GAMMA_HALF)) <= 1e-12

    def test_order_range_enforced(self):
        u = sample(Gaussian(0.5, 0.2), unit_grid(64))
        with pytest.raises(ValueError):
            frac_integral(u, 0.0)
        with pytest.raises(ValueError):
            frac_integral(u, 1.3)

    def test_non_integrable_base_rejected(self):
        g = unit_grid(64)
        with np.errstate(divide="ignore"):
            vals = (g.nodes - g.a) ** -1.2
        with pytest.raises(ValueError, match="not locally integrable"):
            frac_integral(SampledFunction(g, vals), 0.5)


class TestToeplitzProduct:
    def test_agrees_with_direct_sums_across_the_path_switch(self):
        rng = np.random.default_rng(5)
        for n in (_DIRECT_SIZE, _DIRECT_SIZE + 1, 3000):
            x = rng.standard_normal(n)
            k = rng.standard_normal(n + 3)  # entries past len(x) are ignored
            direct = np.convolve(x, k[:n])[:n]
            out = _toeplitz(x, _Plan.build(k, n))
            assert out.shape == (n,)
            scale = np.max(np.abs(x)) * np.sum(np.abs(k[:n]))
            assert np.max(np.abs(out - direct)) <= 1e-14 * scale
            # the head is summed directly on either path
            assert np.array_equal(out[:_DIRECT_SIZE], direct[:_DIRECT_SIZE])

    @pytest.mark.parametrize("alpha", [0.3, 0.7])
    def test_near_base_values_are_accurate_on_a_large_grid(self, alpha):
        # an FFT alone is accurate only relative to the largest terms: on this
        # grid it leaves relative errors near 1e-8 at the first nodes
        g = unit_grid(65536)
        x = g.nodes
        u = SampledFunction(g, x.copy())
        first = slice(1, 9)
        cases = (
            (frac_integral(u, alpha), x ** (1.0 + alpha) / math.gamma(2.0 + alpha)),
            (rl_derivative(u, alpha), x ** (1.0 - alpha) / math.gamma(2.0 - alpha)),
        )
        for computed, exact in cases:
            rel = np.abs(computed.values[first] - exact[first]) / exact[first]
            assert np.max(rel) <= 1e-13


    def test_levels_agree_with_direct_sums(self):
        # 8193, 20000 and 16385 samples take two FFT levels below the top,
        # 2048 to 4097 one, and 257 to 1025 the top product alone; the sizes
        # sit at and one past 1024, 2048, 4096 and 16384, where a level stops
        # or the top level merges
        rng = np.random.default_rng(6)
        for n in (8193, 20000, 257, 1024, 1025, 2048, 2049, 4096, 4097, 16385):
            x = rng.standard_normal(n)
            k = rng.standard_normal(n)
            direct = np.convolve(x, k)[:n]
            scale = np.max(np.abs(x)) * np.sum(np.abs(k))
            assert np.max(np.abs(_toeplitz(x, _Plan.build(k, n)) - direct)) <= 1e-14 * scale

    def test_short_raw_kernel_is_rejected(self):
        x = np.ones(300)
        for n in (_DIRECT_SIZE, x.size):
            with pytest.raises(ValueError, match="kernel of"):
                _toeplitz(x[:n], _Plan.build(np.ones(n - 1), n))

    @pytest.mark.parametrize("n", [200, 1025, 8193, 16385])
    def test_leading_zeros_skip_the_parts_that_read_only_zeros(self, n, monkeypatch):
        # below the first non-zero sample z every output is an exact +0.0;
        # the direct head (z >= _DIRECT_SIZE) and each level with stop <= z
        # make no transform, and every part that runs gives the bits of the
        # level loop that skips nothing
        rng = np.random.default_rng(8)
        plan = _Plan.build(rng.standard_normal(n), n)
        samples = rng.standard_normal(n)
        cases = []
        for z in sorted({0, 1, 255, 256, 257, 1023, 1024, 4096, n - 1, n}):
            if z <= n:
                x = samples.copy()
                x[:z] = 0.0
                x[: z // 2] = -0.0  # counts as zero
                cases.append((z, x))
        nan = samples.copy()
        nan[:257] = 0.0
        nan[257 % n] = math.nan
        cases.append((257 % n, nan))
        calls = []

        def counted(kind, function):
            def wrapper(a, *args, **kwargs):
                calls.append((kind, np.shape(a)[-1]))
                return function(a, *args, **kwargs)

            return wrapper

        convolve, rfft = np.convolve, np.fft.rfft
        head = min(n, _DIRECT_SIZE)
        stops = [stop for _, stop, _, _ in plan.levels]
        for z, x in cases:
            expected = every_level(x, plan)
            # the parts that end at or below z are skipped
            expected[: max((end for end in (head, *stops) if end <= z), default=0)] = 0.0
            runs = [("convolve", head)] if z < head else []
            runs += [("rfft", stop) for stop in stops if stop > z]
            monkeypatch.setattr(np, "convolve", counted("convolve", convolve))
            monkeypatch.setattr(np.fft, "rfft", counted("rfft", rfft))
            calls.clear()
            out = _toeplitz(x, plan)
            monkeypatch.undo()
            assert np.array_equal(out.view(np.int64), expected.view(np.int64)), z
            assert calls == runs, z
        # the plan's size is checked before the skip
        with pytest.raises(ValueError, match="kernel plan for"):
            _toeplitz(np.zeros(n - 1), plan)

    @pytest.mark.parametrize("n", [1000, 2000, 3000, 4096])
    @pytest.mark.parametrize("side", ["left", "right"])
    def test_pure_powers_take_no_transform(self, side, n, monkeypatch):
        # removing the sampled power c x^-1/4 leaves an all-zero regular part
        # on any grid (the right side is sampled at the reflection's own
        # distances), so with its plans kept both operators make no rfft
        # call, return the Euler image of the power at every node past the
        # base, and give the right side as the left one mirrored bitwise
        g, alpha, power = unit_grid(n), 0.4, (1.3, -0.25)
        left_u = sample(PowerSum(0.0, (power,)), g)
        if side == "left":
            u = left_u
        else:
            u = sample(PowerSum(1.0, (power,), Side.RIGHT), g)
        regular, split = operators._split_left_singular(u if side == "left" else u.reflected())
        assert split == (power,)
        assert np.array_equal(regular.view(np.int64), np.zeros(g.n + 1).view(np.int64))
        ops = ((frac_integral, alpha), (rl_derivative, -alpha))
        mirrors = [op(left_u, alpha, "left").values for op, _ in ops]
        rffts = []
        rfft = np.fft.rfft
        monkeypatch.setattr(np.fft, "rfft", lambda *a, **kw: rffts.append(a) or rfft(*a, **kw))
        for (op, shift), mirror in zip(ops, mirrors):
            out = op(u, alpha, side)
            left = out if side == "left" else out.reflected()
            image = operators._power_values(g, *operators._euler_image(*power, shift=shift))
            assert np.array_equal(left.values[1:].view(np.int64), image[1:].view(np.int64))
            assert np.array_equal(left.values.view(np.int64), mirror.view(np.int64))
        assert not rffts

    @pytest.mark.parametrize("m", [10, 11, 14, 16])
    def test_pads_fit_the_outputs_each_level_keeps(self, m, monkeypatch):
        # the n + 1 samples of frac_integral and gl_derivative need no larger
        # pad than the n slopes of rl_derivative on the same grid
        n = 1 << m
        calls = []

        def recorded(kind, fft):
            def wrapper(a, size, *args, **kwargs):
                calls.append((kind, np.shape(a)[-1], size))
                return fft(a, size, *args, **kwargs)

            return wrapper

        for kind in ("rfft", "irfft"):
            monkeypatch.setattr(np.fft, kind, recorded(kind, getattr(np.fft, kind)))
        g = unit_grid(n)
        u = SampledFunction(g, np.sin(3.0 * g.nodes))
        largest = {}
        for name in ("frac_integral", "gl_derivative", "rl_derivative"):
            plan = PLANNED[name](0.4, n)
            core._plans.clear()
            calls.clear()
            getattr(operators, name)(u, 0.4)
            # the levels tile the outputs past the direct head
            starts = [level[0] for level in plan.levels]
            stops = [level[1] for level in plan.levels]
            assert starts == [_DIRECT_SIZE, *stops[:-1]] and stops[-1] == plan.n
            for start, stop, size, _ in plan.levels:
                kept = 2 * stop - 1 - start
                assert size & (size - 1) == 0 and size // 2 < kept <= size
            # one kernel and one sample transform per level, and one inverse
            levels = sorted((stop, size) for _, stop, size, _ in plan.levels)
            assert sorted(c[1:] for c in calls if c[0] == "rfft") == sorted(levels * 2)
            assert sorted(c[2] for c in calls if c[0] == "irfft") == [size for _, size in levels]
            largest[name] = max(size for _, size in levels)
        assert largest["frac_integral"] <= largest["rl_derivative"]
        assert largest["gl_derivative"] <= largest["rl_derivative"]

    @pytest.mark.parametrize(
        "n, alpha, bar",
        [
            pytest.param(65536, 0.3, 1e-13, id="0.3"),
            pytest.param(65536, 0.7, 1e-13, id="0.7"),
            *(
                pytest.param(n, alpha, 3.5e-15, id=f"{n}-{alpha}")
                for n in (1024, 2048)
                for alpha in (0.25, 0.5, 0.75)
            ),
        ],
    )
    def test_every_node_is_accurate_on_a_large_grid(self, n, alpha, bar):
        # one FFT over all 65537 samples left relative errors near 2e-12 just
        # past the direct head (nodes 256..300), where the values are small.
        # On 1024 and 2048 cells (numpy 2.4.6, x86-64) the worst error is
        # 2.2e-15, or 2.3e-15 with numpy's AVX2 and AVX-512 paths disabled;
        # levels growing by 8 gave 3.8e-15 with pads of 2 stop - 1 and 6.4e-15
        # with trimmed pads.  The bar sits just below the former.  It is not
        # measured on numpy 1.x, whose pocketfft rounds differently.
        g = unit_grid(n)
        x, s = g.nodes, 1.0 - g.nodes
        u = SampledFunction(g, x.copy())
        right = x * s**alpha / math.gamma(1.0 + alpha)
        right += alpha * s ** (1.0 + alpha) / math.gamma(2.0 + alpha)
        cases = (
            (frac_integral(u, alpha), x ** (1.0 + alpha) / math.gamma(2.0 + alpha), slice(1, None)),
            (frac_integral(u, alpha, "right"), right, slice(-1)),
            (rl_derivative(u, alpha), x ** (1.0 - alpha) / math.gamma(2.0 - alpha), slice(1, None)),
        )
        for computed, exact, nodes in cases:
            rel = np.abs(computed.values[nodes] - exact[nodes]) / exact[nodes]
            assert np.max(rel) <= bar


def every_level(x: np.ndarray, plan: _Plan) -> np.ndarray:
    """Reference: the direct head and every FFT level of ``plan``, none skipped."""
    n = x.size
    if n <= _DIRECT_SIZE:
        return np.convolve(x, plan.head)[:n]
    out = np.empty(n)
    out[:_DIRECT_SIZE] = np.convolve(x[:_DIRECT_SIZE], plan.head)[:_DIRECT_SIZE]
    for start, stop, size, spectrum in plan.levels:
        out[start:stop] = np.fft.irfft(np.fft.rfft(x[:stop], size) * spectrum, size)[start:stop]
    return out


def fresh_operator(name: str, u: SampledFunction, alpha: float) -> np.ndarray:
    """Reference: the left operator body on the raw kernel, planned afresh.

    ``u`` must be finite; for the derivatives its base value is 0, so no
    base-node kernel term is added.
    """
    v, h, n = u.values, u.grid.h, u.grid.n
    if name == "frac_integral":
        f_left, f_right = product_kernels(alpha, n)
        right = np.append(f_right, 0.0)
        kernel = right.copy()
        kernel[1:] += f_left
        product = _toeplitz(v, _Plan.build(kernel, n + 1))
        return (h**alpha / gamma_fn(alpha)) * (product - v[0] * right)
    if name == "gl_derivative":
        return _toeplitz(v, _Plan.build(gl_weights(alpha, n), n + 1)) / h**alpha
    m = np.arange(1, n + 1, dtype=float)
    slope_kernel = np.power(m, 1.0 - alpha) - np.power(m - 1.0, 1.0 - alpha)
    out = np.zeros(n + 1)
    slopes = _toeplitz(np.diff(v) / h, _Plan.build(slope_kernel, n))
    out[1:] = (h ** (1.0 - alpha) / gamma_fn(2.0 - alpha)) * slopes
    if name == "rl_derivative":
        out[0] = math.inf
    return out


PLANNED = {
    "frac_integral": operators._product_plan,
    "rl_derivative": operators._slope_plan,
    "caputo_derivative": operators._slope_plan,
    "gl_derivative": operators._gl_plan,
}


class TestKernelPlans:
    """One plan per kernel kind is kept and reused; reuse never changes a bit."""

    @staticmethod
    def samples(n: int, seed: int) -> SampledFunction:
        vals = np.random.default_rng(seed).standard_normal(n + 1)
        vals[0] = vals[-1] = 0.0  # no base-node kernel term on either side
        return SampledFunction(unit_grid(n), vals)

    @pytest.mark.parametrize("n", [256, 257, 2048, 20000, 65536])
    @pytest.mark.parametrize("name", sorted(PLANNED))
    def test_reused_plans_match_fresh_products(self, name, n):
        op = getattr(operators, name)
        alpha = 0.35
        for side in ("left", "right"):
            u = self.samples(n, n)
            if name == "frac_integral":  # a non-zero base reaches the right-end taps
                u = SampledFunction(u.grid, u.values + 0.75)
            op(self.samples(n, 1), alpha, side)  # fills the slot
            assert core._plans[PLANNED[name]][0] == (alpha, n)
            out = op(u, alpha, side).values
            if side == "left":
                expected = fresh_operator(name, u, alpha)
            else:
                expected = fresh_operator(name, u.reflected(), alpha)[::-1]
            assert np.array_equal(out, expected)

    def test_alternating_orders_give_the_bits_of_fresh_plans(self):
        u = self.samples(3000, 7)
        calls = [(getattr(operators, name), u) for name in sorted(PLANNED)]
        calls.append((marchaud_derivative, SampledFunction(line_grid(12.0, 3000), u.values)))
        for op, v in calls:
            for alpha in (0.3, 0.6, 0.3):
                kept = op(v, alpha).values
                core._plans.clear()
                assert np.array_equal(kept, op(v, alpha).values)

    def test_cached_arrays_are_read_only(self):
        u = self.samples(4096, 3)
        for name in sorted(PLANNED):
            getattr(operators, name)(u, 0.45)
            _, plan = core._plans[PLANNED[name]]
            for array in plan.arrays():
                with pytest.raises(ValueError):
                    array[0] = 1.0

    def test_each_kind_holds_its_last_key(self):
        """Plans are kept at every size, and a new key frees the old plan."""
        core._plans.clear()
        for n in (1 << 16, 1 << 10):
            u = self.samples(n, n)
            for name in sorted(PLANNED):
                for side in ("left", "right"):
                    getattr(operators, name)(u, 0.55, side)
            marchaud_derivative(SampledFunction(line_grid(12.0, n), u.values), 0.55)
            keys = {kind: key for kind, (key, _) in core._plans.items()}
            expected = dict.fromkeys(PLANNED.values(), (0.55, n))
            assert keys == {**expected, operators._marchaud_plan: (0.55, 12.0, n)}
        # every held array owns its buffer: the held bytes are the plans' arrays
        held = [array for _, plan in core._plans.values() for array in plan.arrays()]
        assert all(array.base is None for array in held)
        fresh = [array for kind, (key, _) in core._plans.items() for array in kind(*key).arrays()]
        assert sum(array.nbytes for array in held) == sum(array.nbytes for array in fresh)


def read_only(u):
    """``u`` with a read-only copy of its samples."""
    vals = u.values.copy()
    vals.flags.writeable = False
    return replace(u, values=vals)


def outcome(op, u, side):
    """The bytes of ``op(u, 0.4, side)``, or the error it raises."""
    try:
        out = op(u, 0.4, side)
    except ValueError as err:
        return repr(err)
    if isinstance(out, KernelConstant):
        return repr(out)
    return out.values.tobytes()


class TestInputsStayUntouched:
    """Operators only read their input: a read-only one gives the same bits."""

    @staticmethod
    def inputs():
        g = unit_grid(1024)
        x = g.nodes
        with np.errstate(divide="ignore"):
            singular = 1.5 * x**-0.25 + np.cos(x)
        marker = np.cos(x)  # no decaying power: the base marker is patched
        marker[0] = math.inf
        return [
            SampledFunction(g, 1.0 + np.exp(x) * np.sin(3.0 * x)),
            SampledFunction(g, singular, left_terms=((1.5, -0.25),)),
            SampledFunction(g, singular),
            SampledFunction(g, marker),
        ]

    @pytest.mark.filterwarnings("ignore")
    @pytest.mark.parametrize("side", ["left", "right"])
    @pytest.mark.parametrize(
        "op",
        [frac_integral, rl_derivative, caputo_derivative, gl_derivative, endpoint_constant],
    )
    def test_grid_operators(self, op, side):
        for u in self.inputs():
            if side == "right":
                u = u.reflected()
            before = u.values.tobytes()
            assert outcome(op, read_only(u), side) == outcome(op, u, side)
            assert u.values.tobytes() == before

    @pytest.mark.parametrize("side", ["left", "right"])
    def test_marchaud(self, side):
        u = sample_line(Gaussian(0.3, 1.2), 12.0, 2048)
        before = u.values.tobytes()
        assert outcome(marchaud_derivative, read_only(u), side) == outcome(
            marchaud_derivative, u, side
        )
        assert u.values.tobytes() == before


class TestRlDerivative:
    def test_constant_closed_form(self):
        # D^0.5 of 1 on (0,1) is x^{-1/2}/Gamma(1/2); exact for the interpolant
        g = unit_grid(512)
        u = sample(PowerSum(0.0, ((1.0, 0.0),)), g)
        d = rl_derivative(u, 0.5)
        assert abs(d.values[-1] - INV_GAMMA_HALF) <= 1e-12
        expected = g.nodes[1:] ** -0.5 * INV_GAMMA_HALF
        assert np.max(np.abs(d.values[1:] - expected) / expected) <= 1e-13

    def test_linear_closed_form(self):
        g = unit_grid(1024)
        u = SampledFunction(g, g.nodes.copy())
        d = rl_derivative(u, 0.5)
        assert d.values[-1] == pytest.approx(INV_GAMMA_1P5, rel=1e-12)

    def test_base_node_flagged(self):
        u = sample(Gaussian(0.5, 0.2), unit_grid(64))
        d = rl_derivative(u, 0.3)
        assert not np.isfinite(d.values[0])
        assert np.all(np.isfinite(d.values[1:]))

    def test_kernel_annihilated(self):
        g = unit_grid(256)
        for alpha in (0.3, 0.5, 0.7):
            d = rl_derivative(kappa(alpha, "left", g), alpha)
            assert np.max(np.abs(d.values[1:])) == 0.0

    def test_kernel_annihilated_without_metadata(self):
        g = unit_grid(256)
        bare = SampledFunction(g, kappa(0.5, "left", g).values)
        d = rl_derivative(bare, 0.5)
        assert np.max(np.abs(d.values[1:])) <= 1e-12

    def test_right_side_oracle_agreement(self):
        g = unit_grid(1024)
        f = PowerSum(1.0, ((1.0, 1.3),), orientation=Side.RIGHT)
        d = rl_derivative(sample(f, g), 0.5, "right")
        expected = sample(oracle_frac_derivative(f, 0.5, "right"), g)
        m = np.isfinite(d.values) & np.isfinite(expected.values)
        scale = np.max(np.abs(expected.values[m]))
        assert np.max(np.abs(d.values[m] - expected.values[m])) <= 1e-3 * scale

    def test_step_away_from_jump(self):
        g = unit_grid(1024)
        f = Step(0.5, 1.0)
        d = rl_derivative(sample(f, g), 0.5)
        expected = sample(oracle_frac_derivative(f, 0.5, "left"), g)
        away = (np.abs(g.nodes - 0.5) >= 0.05) & (g.nodes > 0)
        scale = np.max(np.abs(expected.values[away]))
        err = np.max(np.abs(d.values[away] - expected.values[away]))
        assert err <= 1e-2 * scale

    def test_inverts_integral_on_affine(self):
        """The composed rl(I(u)) returns u at interior nodes (rel 1e-6)."""
        g = Grid(0.0, 1.0, 1 << 16)
        u = SampledFunction(g, 1.0 + g.nodes)
        for alpha in (0.3, 0.5):
            back = rl_derivative(frac_integral(u, alpha), alpha)
            lo, hi = g.n // 10, (9 * g.n) // 10
            err = np.max(np.abs(back.values[lo:hi] - u.values[lo:hi]))
            assert err <= 1e-6 * np.max(np.abs(u.values))

    def test_inversion_converges_on_kinked_data(self):
        # piecewise-linear data with interior kinks: first-order recovery
        errs = []
        for n in (1024, 2048, 4096):
            g = unit_grid(n)
            u = SampledFunction(g, np.maximum(0.0, 1.0 - np.abs(g.nodes - 0.5) / 0.25))
            back = rl_derivative(frac_integral(u, 0.5), 0.5)
            lo, hi = n // 10, (9 * n) // 10
            errs.append(np.max(np.abs(back.values[lo:hi] - u.values[lo:hi])))
        orders = [np.log2(errs[i] / errs[i + 1]) for i in range(len(errs) - 1)]
        assert min(orders) >= 0.8


class TestMultiTermRecord:
    """x^-1/2 - 2 x^-1/4: every recorded term is split off and mapped exactly."""

    TERMS = ((1.0, -0.5), (-2.0, -0.25))

    def power(self, side: Side) -> PowerSum:
        return PowerSum(0.0 if side is Side.LEFT else 1.0, self.TERMS, side)

    @staticmethod
    def record(u: SampledFunction, side: Side):
        """The terms recorded at the end ``side`` names, and those at the other end."""
        return (u.left_terms, u.right_terms) if side is Side.LEFT else (u.right_terms, u.left_terms)

    @pytest.mark.parametrize("n", [64, 1024, 16384])
    @pytest.mark.parametrize("side", [Side.LEFT, Side.RIGHT])
    @pytest.mark.parametrize(
        "op, oracle", [(frac_integral, oracle_frac_integral), (rl_derivative, oracle_frac_derivative)]
    )
    def test_matches_the_oracle_next_to_the_base_and_at_the_far_end(self, op, oracle, side, n):
        g, f = unit_grid(n), self.power(side)
        out = op(sample(f, g), 0.5, side).values
        exact = oracle(f, 0.5, side).value(g.nodes)
        for j in (1, n) if side is Side.LEFT else (n - 1, 0):
            assert abs(out[j] / exact[j] - 1.0) <= 1e-13

    @pytest.mark.parametrize("side", [Side.LEFT, Side.RIGHT])
    def test_images_are_recorded(self, side):
        u = sample(self.power(side), unit_grid(64))
        # D^1/2 annihilates x^-1/2 and maps -2 x^-1/4 to c x^-3/4
        (term,), other = self.record(rl_derivative(u, 0.5, side), side)
        assert term[1] == -0.75 and abs(term[0] / NEG2_G34_OVER_G14 - 1.0) <= 1e-15
        assert other == ()
        # I^1/2 maps both to exponents >= 0: nothing is recorded or flagged
        i = frac_integral(u, 0.5, side)
        assert i.left_terms == i.right_terms == ()
        assert np.all(np.isfinite(i.values))

    @pytest.mark.parametrize("side", [Side.LEFT, Side.RIGHT])
    def test_every_singular_image_is_recorded_and_read_back(self, side):
        g = unit_grid(1024)
        u = sample(self.power(side), g)
        i = frac_integral(u, 0.1, side)
        terms, other = self.record(i, side)
        assert [e for _, e in terms] == [-0.4, -0.15] and other == ()
        for (c, _), want in zip(terms, (G05_OVER_G06, NEG2_G075_OVER_G085)):
            assert abs(c / want - 1.0) <= 1e-15
        assert i.values[0 if side is Side.LEFT else -1] == math.inf  # the sign of the leading term
        # D^0.1 I^0.1 is the identity: the record and the samples come back
        d = rl_derivative(i, 0.1, side)
        terms, _ = self.record(d, side)
        assert [e for _, e in terms] == [-0.5, -0.25]
        assert np.allclose([c for c, _ in terms], [1.0, -2.0], rtol=1e-15, atol=0.0)
        inner = slice(1, -1)
        assert np.max(np.abs(d.values[inner] - u.values[inner])) <= 1e-13 * np.max(np.abs(u.values[inner]))


class TestFarEndFlag:
    @pytest.mark.xfail(strict=True, raises=ValueError, reason=(
        "FOUND: right-side operators reject data flagged at their far end (ROADMAP item 15)"))
    @pytest.mark.parametrize("op", [rl_derivative, frac_integral], ids=["rl_derivative", "frac_integral"])
    def test_right_side_reads_a_left_end_flag(self, op):
        # x^-1/4 is flagged at 0, the far end from the right; there the
        # order-0.4 right derivative grows like x^-0.65 and the integral is bounded
        u = sample(PowerSum(0.0, ((1.0, -0.25),)), unit_grid(1000))
        assert np.all(np.isfinite(op(u, 0.4, "right").values[1:-1]))


class TestGlDerivative:
    def test_agrees_with_product_rl_on_bump(self):
        errs = []
        for n in (1024, 2048, 4096):
            g = unit_grid(n)
            u = sample(Bump(0.5, 0.3, 1.0), g)
            gl = gl_derivative(u, 0.5).values
            rl = rl_derivative(u, 0.5).values
            m = np.isfinite(rl)
            m[0] = False
            errs.append(np.max(np.abs(gl[m] - rl[m])) / np.max(np.abs(rl[m])))
        assert errs[1] <= 1e-2
        orders = [np.log2(errs[i] / errs[i + 1]) for i in range(len(errs) - 1)]
        assert min(orders) >= 0.8

    def test_zero_maps_to_zero(self):
        g = unit_grid(64)
        u = SampledFunction(g, np.zeros(65))
        assert np.all(gl_derivative(u, 0.5).values == 0.0)

    def test_integer_limit_is_backward_difference(self):
        g = unit_grid(64)
        u = sample(Gaussian(0.5, 0.2), g)
        d = gl_derivative(u, 1.0)
        expected = np.empty(65)
        expected[0] = u.values[0] / g.h  # zero extension behind the base
        expected[1:] = np.diff(u.values) / g.h
        assert np.max(np.abs(d.values - expected)) == 0.0

    def test_rejects_singular_samples(self):
        k = kappa(0.5, "left", unit_grid(64))
        with pytest.raises(ValueError, match="finite nodal values"):
            gl_derivative(k, 0.5)

    def test_line_function_passthrough(self):
        u = sample_line(Gaussian(0.0, 1.0), 8.0, 256)
        d = gl_derivative(u, 0.5)
        assert d.grid == u.grid


class TestCaputoDerivative:
    def test_constant_maps_to_zero(self):
        u = sample(PowerSum(0.0, ((1.0, 0.0),)), unit_grid(128))
        assert np.all(caputo_derivative(u, 0.5).values == 0.0)

    def test_equals_rl_when_base_value_vanishes(self):
        g = unit_grid(512)
        u = SampledFunction(g, g.nodes.copy())
        c = caputo_derivative(u, 0.5).values
        r = rl_derivative(u, 0.5).values
        assert np.max(np.abs(c[1:] - r[1:])) <= 1e-14

    def test_classical_split_identity(self):
        """caputo = rl - u(a)(x-a)^(-alpha)/Gamma(1-alpha), exactly in discrete form."""
        g = unit_grid(512)
        u = SampledFunction(g, 1.0 + g.nodes)
        c = caputo_derivative(u, 0.5).values
        r = rl_derivative(u, 0.5).values
        kernel = g.nodes[1:] ** -0.5 * INV_GAMMA_HALF
        assert np.max(np.abs(c[1:] + kernel - r[1:])) <= 1e-12
        # and the x=1 spot value: caputo(1) = rl(1) - 1/sqrt(pi)
        assert abs(c[-1] - (r[-1] - INV_GAMMA_HALF)) <= 1e-3

    def test_rejects_singular_samples(self):
        with pytest.raises(ValueError):
            caputo_derivative(kappa(0.5, "left", unit_grid(64)), 0.5)


def gaussian_liouville(x: np.ndarray, alpha: float, side: str = "left") -> np.ndarray:
    """D^alpha of the unit Gaussian g = exp(-x^2/2), by Gauss-Legendre quadrature.

    D^alpha_left g(x) = 1/Gamma(1-alpha) int_0^inf s^-alpha g'(x - s) ds.  With
    s = u^4 and k = 4(1 - alpha) an integer, s^-alpha ds = 4 u^(k-1) du is a
    polynomial weight, and g'(x - s) is below 1e-20 past s = max(x, 0) + 10,
    so 128 nodes on [0, (max(x, 0) + 10)^(1/4)] reach roundoff.  The right
    derivative of the even g is the left one at -x.
    """
    x = np.asarray(x, dtype=float) * (1.0 if side == "left" else -1.0)
    k = 4.0 * (1.0 - alpha)
    assert k == round(k), "needs 4(1 - alpha) to be an integer"
    t, w = np.polynomial.legendre.leggauss(128)
    top = (np.maximum(x, 0.0) + 10.0) ** 0.25
    u = top[:, None] * (t + 1.0) / 2.0
    y = x[:, None] - u**4
    integrand = 4.0 * u ** (k - 1.0) * -y * np.exp(-y * y / 2.0)
    return top / 2.0 * (integrand @ w) / gamma_fn(1.0 - alpha)


# (alpha, x, D^alpha_left exp(-x^2/2) at x), frozen from the closed form
# exp(-x^2/4) D_alpha(-x) of NIST DLMF 12.5, evaluated with mpmath at 30
# digits as mp.exp(-x**2/4) * mp.pcfd(alpha, -x)
GAUSSIAN_LIOUVILLE = (
    (0.25, -3.0, 0.0147567479645923470545096109567),
    (0.25, 0.0, 0.815408844545835224884613114363),
    (0.25, 1.5, -0.0561689045519472940746915733985),
    (0.25, 16.0, -0.0160697084785719730995194836699),
    (0.5, -1.0, 0.655908545986868578972691074731),
    (0.5, 0.5, 0.205846929971409982585912866656),
    (0.5, 2.0, -0.332914583425364481446965812012),
    (0.5, 9.5, -0.0246742137617148177568935687144),
    (0.75, -0.25, 0.495180923312960551911138837606),
    (0.75, 1.0, -0.432004658882616132986072084288),
    (0.75, 4.0, -0.0570636360017315949001725506145),
    (0.75, -16.0, 2.05851902363853332819628296706e-55),
)


class TestGaussianLiouville:
    @pytest.mark.parametrize("alpha, x, exact", GAUSSIAN_LIOUVILLE)
    def test_matches_the_closed_form(self, alpha, x, exact):
        assert abs(gaussian_liouville(np.array([x]), alpha)[0] - exact) <= 1e-14
        # the right derivative of the even Gaussian mirrors the left one
        assert abs(gaussian_liouville(np.array([-x]), alpha, "right")[0] - exact) <= 1e-14


class TestMarchaudDerivative:
    def test_matches_closed_form(self):
        # rel L-inf <= 1e-3 at n=4096, L=16 on a unit Gaussian
        u = sample_line(Gaussian(0.0, 1.0), 16.0, 4096)
        ref = gaussian_liouville(u.x, 0.5, "left")
        d = marchaud_derivative(u, 0.5, "left")
        scale = np.max(np.abs(ref))
        assert np.max(np.abs(d.values - ref)) <= 1e-3 * scale

    def test_other_orders_and_sides(self):
        u = sample_line(Gaussian(0.0, 1.0), 16.0, 4096)
        for alpha, side in ((0.25, "left"), (0.75, "right")):
            ref = gaussian_liouville(u.x, alpha, side)
            d = marchaud_derivative(u, alpha, side)
            scale = np.max(np.abs(ref))
            assert np.max(np.abs(d.values - ref)) <= 2e-4 * scale

    def test_zero_maps_to_zero(self):
        u = SampledFunction(line_grid(8.0, 256), np.zeros(257))
        assert np.all(marchaud_derivative(u, 0.5).values == 0.0)

    def test_even_function_mirror(self):
        u = sample_line(Gaussian(0.0, 1.0), 16.0, 1024)
        left = marchaud_derivative(u, 0.5, "left").values
        right = marchaud_derivative(u, 0.5, "right").values
        assert np.max(np.abs(right - left[::-1])) == 0.0

    def test_sub_grid_bound_covers_model_term(self):
        u = sample_line(Gaussian(0.0, 1.0), 16.0, 4096)
        ref = gaussian_liouville(u.x, 0.5, "left")
        d = marchaud_derivative(u, 0.5, "left")
        bound = marchaud_small_offset_bound(u, 0.5)
        assert bound > 0.0
        assert np.max(np.abs(d.values - ref)) <= bound

    def test_warns_when_tail_visible(self):
        x = np.linspace(-16.0, 16.0, 1025)
        slow = SampledFunction(line_grid(16.0, 1024), 1.0 / (1.0 + x**2))
        with warnings.catch_warnings(record=True) as rec:
            warnings.simplefilter("always")
            marchaud_derivative(slow, 0.5)
        assert any("window-tail" in str(w.message) for w in rec)


def marchaud_offset_loop(u: SampledFunction, alpha: float, side: str = "left") -> np.ndarray:
    """Reference: the Marchaud integral with one ``np.interp`` per offset.

    This is the per-offset form :func:`marchaud_derivative` had before it
    became one Toeplitz product; same offsets, weights and model terms.
    """
    if side == "right":
        flipped = SampledFunction(u.grid, u.values[::-1].copy())
        return marchaud_offset_loop(flipped, alpha)[::-1]
    h = u.grid.h
    x = u.grid.nodes
    t_min, t_max = h / 2.0, 2.0 * u.grid.b
    count = max(8, int(round(80 * math.log10(t_max / t_min))) + 1)
    s = np.linspace(math.log(t_min), math.log(t_max), count)
    ds = s[1] - s[0]
    vals = u.values
    diff_at = np.empty((count, x.size))
    for k, t in enumerate(np.exp(s)):
        diff_at[k] = (vals - u.interp(x - t)) * t**-alpha
    weights = np.full(count, ds)
    weights[0] = weights[-1] = ds / 2.0
    integral = weights @ diff_at
    integral += np.gradient(vals, h, edge_order=2) * t_min ** (1.0 - alpha) / (1.0 - alpha)
    integral += vals * t_max**-alpha / alpha
    return alpha / math.gamma(1.0 - alpha) * integral


class TestMarchaudKernelForm:
    """The one-Toeplitz-product Marchaud against the per-offset loop."""

    @pytest.mark.parametrize("n", [2048, 4096])
    @pytest.mark.parametrize("alpha", [0.25, 0.5, 0.75])
    @pytest.mark.parametrize("side", ["left", "right"])
    def test_matches_the_offset_loop(self, n, alpha, side):
        u = sample_line(Gaussian(0.3, 1.2), 12.0, n)
        got = marchaud_derivative(u, alpha, side).values
        ref = marchaud_offset_loop(u, alpha, side)
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(got))

    @pytest.mark.parametrize("alpha", [0.25, 0.5, 0.75])
    @pytest.mark.parametrize("side", ["left", "right"])
    def test_undecayed_input_keeps_the_zero_fill(self, alpha, side):
        # u[0] and u[n] are far from 0: the taps that read behind the left
        # window edge must see the zero fill np.interp uses, not u[0]
        x = np.linspace(-8.0, 8.0, 2049)
        u = SampledFunction(line_grid(8.0, 2048), 1.0 / (1.0 + x**2) + 0.5 * np.tanh(x) + 0.7)
        with pytest.warns(UserWarning, match="window-tail"):
            got = marchaud_derivative(u, alpha, side).values
        ref = marchaud_offset_loop(u, alpha, side)
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(got))


class TestSpectralDerivative:
    def test_integer_limit_is_first_derivative(self):
        """At alpha = 1 the left symbol is i*xi: the ordinary derivative."""
        u = sample_line(Gaussian(0.0, 1.0), 16.0, 4096).check_decay()
        d = spectral_derivative(u, 1.0, "left")
        expected = -u.x * np.exp(-0.5 * u.x**2)
        assert np.max(np.abs(d.values - expected)) <= 1e-6

    def test_parseval_identity(self):
        # ||spectral D^alpha u||_2 against the weighted spectral integral
        from fracsobolev.core import discrete_fourier

        u = sample_line(Gaussian(0.0, 1.0), 16.0, 4096).check_decay()
        d = spectral_derivative(u, 0.5, "left")
        dx = u.grid.h
        norm_phys = np.sqrt(dx * np.sum(d.values[:-1] ** 2))
        xi, uhat = discrete_fourier(u.values[:-1], u.grid.b)
        dxi = xi[1] - xi[0]
        norm_spec = np.sqrt(np.sum(np.abs(xi) * np.abs(uhat) ** 2) * dxi / (2.0 * np.pi))
        assert abs(norm_phys - norm_spec) <= 1e-10 * norm_spec

    def test_near_monochromatic_pattern(self):
        # sin(3x) under a wide envelope: D^alpha ~ 3^alpha sin(3x + alpha*pi/2)
        envelope = Bump(0.0, 14.0, 1.0)
        x = np.linspace(-16.0, 16.0, 4097)
        u = SampledFunction(line_grid(16.0, 4096), envelope.value(x) * np.sin(3.0 * x)).check_decay()
        d = spectral_derivative(u, 0.5, "left")
        pattern = 3.0**0.5 * np.sin(3.0 * x + 0.25 * np.pi) * envelope.value(x)
        inner = np.abs(x) <= 4.0
        err = np.max(np.abs(d.values[inner] - pattern[inner])) / 3.0**0.5
        assert err <= 2e-2

    def test_aliasing_warning(self):
        x = np.linspace(-16.0, 16.0, 1025)
        rough = SampledFunction(line_grid(16.0, 1024), np.sign(np.sin(5.0 * x)) * np.exp(-0.5 * x**2))
        with warnings.catch_warnings(record=True) as rec:
            warnings.simplefilter("always")
            spectral_derivative(rough, 0.5)
        assert any("aliasing" in str(w.message) for w in rec)

    def test_no_warning_on_resolved_input(self):
        u = sample_line(Gaussian(0.0, 1.0), 16.0, 1024).check_decay()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            spectral_derivative(u, 0.5)

    def test_rejects_non_power_of_two(self):
        u = SampledFunction(line_grid(8.0, 300), np.exp(-np.linspace(-8, 8, 301) ** 2))
        with pytest.raises(ValueError, match="power-of-two"):
            spectral_derivative(u, 0.5)

    def test_residue_message_prints_the_relative_figure(self):
        # exp(-x^2/24.5) on (16, 1024): the residue is 4.1e-9 in absolute
        # terms and 1.1e-8 of the real part, which is what the test compares
        x = np.linspace(-16.0, 16.0, 1025)
        u = SampledFunction(line_grid(16.0, 1024), np.exp(-(x**2) / 24.5))
        with warnings.catch_warnings(), pytest.raises(ValueError, match="residue") as info:
            warnings.simplefilter("ignore")  # the edges have not decayed
            spectral_derivative(u, 0.5)
        figure = float(re.search(r"residue (\S+)", str(info.value)).group(1))
        assert figure > 1e-8


class TestKappa:
    def test_left_spot_value(self):
        g = unit_grid(4)
        k = kappa(0.5, "left", g)
        assert k.values[1] == pytest.approx(2.0, abs=1e-15)  # 0.25^(-1/2)
        assert not np.isfinite(k.values[0])
        assert k.left_power == (1.0, -0.5)

    def test_integer_order_is_constant(self):
        k = kappa(1.0, "left", unit_grid(8))
        assert np.all(k.values == 1.0)

    def test_right_mirrors_left(self):
        g = unit_grid(4)
        left = kappa(0.5, "left", g)
        right = kappa(0.5, "right", g)
        assert right.values[-2] == left.values[1]
        assert right.right_power == (1.0, -0.5)

    @pytest.mark.parametrize("n", [256, 1000])
    @pytest.mark.parametrize("alpha", [0.4, 0.75])
    def test_right_is_the_left_kernel_reflected(self, alpha, n):
        g = unit_grid(n)
        left, right = kappa(alpha, "left", g), kappa(alpha, "right", g)
        assert np.array_equal(right.values, left.values[::-1])
        assert right.right_power == (1.0, alpha - 1.0) and right.left_power is None


class TestEndpointConstant:
    def test_kernel_recovers_unit_coefficient(self):
        k = kappa(0.5, "left", unit_grid(512))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = endpoint_constant(k, 0.5)
        assert isinstance(result, KernelConstant)
        assert abs(result.c_value - 1.0) <= 1e-13
        assert result.residual_estimate <= 1e-13
        assert result.side is Side.LEFT

    def test_smooth_function_has_no_kernel_part(self):
        u = sample(Gaussian(0.5, 0.2), unit_grid(512))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = endpoint_constant(u, 0.5)
        assert abs(result.c_value) <= 1e-3

    def test_mixture_recovers_coefficient(self):
        f = PowerSum(0.0, ((3.0, -0.3),)) + Bump(0.6, 0.25, 1.0)
        u = sample(f, unit_grid(512))
        result = endpoint_constant(u, 0.7)
        assert abs(result.c_value - 3.0) <= 1e-2

    def test_right_side(self):
        k = kappa(0.4, "right", unit_grid(256))
        result = endpoint_constant(k, 0.4, "right")
        assert abs(result.c_value - 1.0) <= 1e-12
        assert result.side is Side.RIGHT

    def test_flags_non_settling_extrapolation(self):
        g = unit_grid(256)
        with np.errstate(divide="ignore"):
            vals = (g.nodes - g.a) ** -0.8  # harder singularity than the probe
        u = SampledFunction(g, vals, left_terms=((1.0, -0.8),))
        with warnings.catch_warnings(record=True) as rec:
            warnings.simplefilter("always")
            endpoint_constant(u, 0.5)
        assert any("did not settle" in str(w.message) for w in rec)

    def test_needs_enough_cells(self):
        u = sample(Gaussian(0.5, 0.2), unit_grid(4))
        with pytest.raises(ValueError, match="8 cells"):
            endpoint_constant(u, 0.5)


class TestDispatcher:
    def test_scheme_routing_and_domain_checks(self):
        g = unit_grid(64)
        u = sample(Gaussian(0.5, 0.2), g)
        line = sample_line(Gaussian(0.0, 1.0), 8.0, 256)
        with pytest.raises(ValueError, match="line functions"):
            frac_derivative(u, 0.5, scheme="marchaud")
        with pytest.raises(ValueError, match="line functions"):
            frac_derivative(u, 0.5, scheme="spectral")
        with pytest.raises(ValueError, match="interval grids"):
            frac_derivative(line, 0.5, scheme="product_rl")
        with pytest.raises(ValueError, match="unknown scheme"):
            frac_derivative(u, 0.5, scheme="midpoint")

    def test_composed_order_above_one(self):
        # D^1.5 x^2 = Gamma(3)/Gamma(1.5) x^0.5 via sigma-derivative then d/dx
        g = unit_grid(512)
        u = SampledFunction(g, g.nodes**2)
        d = frac_derivative(u, 1.5, scheme="product_rl")
        expected = G3_OVER_G15 * np.sqrt(g.nodes)
        m = np.isfinite(d.values)
        interior = slice(5, -5)
        err = np.max(np.abs(d.values[m][interior] - expected[m][interior]))
        assert err <= 1e-3 * G3_OVER_G15

    def test_integer_order_is_nodal_derivative(self):
        g = unit_grid(256)
        u = sample(Gaussian(0.5, 0.1), g)
        d = frac_derivative(u, 1.0)
        expected = nodal_derivative(u)
        assert np.max(np.abs(d.values - expected.values)) == 0.0


def compose_integer(u: SampledFunction, m: int) -> np.ndarray:
    """The composed form of ``m`` integer derivatives, written out once:
    zero-fill every flagged node, take ``m`` gradients, then flag every node
    within ``2 m`` of an originally flagged one."""
    flagged = ~np.isfinite(u.values)
    work = np.where(flagged, 0.0, u.values)
    for _ in range(m):
        work = np.gradient(work, u.grid.h, edge_order=2)
    taint = flagged.copy()
    for _ in range(2 * m):
        taint[1:] |= taint[:-1]
        taint[:-1] |= taint[1:]
    work[taint] = math.inf
    return work


class TestNodalDerivative:
    def test_line_function_is_one_gradient(self):
        line = sample_line(Gaussian(0.5, 1.0), 12.0, 1000)
        d = nodal_derivative(line)
        assert d.grid == line.grid
        assert np.array_equal(d.values, np.gradient(line.values, line.grid.h, edge_order=2))

    @pytest.mark.parametrize("alpha", [1.5, 2.5])
    def test_steps_give_the_bits_of_the_composed_form(self, alpha):
        g = unit_grid(256)
        u = sample(PowerSum(0.0, ((1.0, -0.25), (2.0, 1.5))), g)
        d = frac_derivative(u, alpha)
        sigma_part = rl_derivative(u, 0.5)
        assert np.array_equal(d.values, compose_integer(sigma_part, int(alpha)))
        # an interior flag as well: its band grows by 2 per step
        marked = sigma_part.values.copy()
        marked[100] = math.nan
        w = SampledFunction(g, marked)
        for _ in range(int(alpha)):
            w = nodal_derivative(w)
        assert np.array_equal(w.values, compose_integer(SampledFunction(g, marked), int(alpha)))
        assert np.sum(~np.isfinite(w.values[50:150])) == 4 * int(alpha) + 1

    def test_powers_map_through_the_plain_derivative(self):
        g = unit_grid(32)
        vals = np.linspace(1.0, 2.0, 33)
        vals[0] = vals[-1] = math.inf
        d = nodal_derivative(SampledFunction(g, vals, ((2.0, -0.5),), ((3.0, -0.25),)))
        assert d.left_power == (-1.0, -1.5)  # c e, e - 1
        assert d.right_power == (0.75, -1.25)  # -c e, e - 1
        d = nodal_derivative(SampledFunction(g, vals, ((5.0, 0.0),), ((2.0, 1.0),)))
        assert d.left_power is None  # a constant records none
        assert d.right_power == (-2.0, 0.0)
        assert nodal_derivative(d).right_power is None

    @pytest.mark.parametrize("n", [64, 512])
    @pytest.mark.parametrize(
        "terms, side",
        [(((1.0, 0.0),), "right"), (((1.0, -0.25),), "left")],
        ids=["const-right", "inverse-quarter-power-left"],
    )
    def test_recorded_power_matches_the_nodal_values(self, n, terms, side):
        g = unit_grid(n)
        d = frac_derivative(sample(PowerSum(0.0, terms), g), 1.5, side)
        coeff, exponent = d.left_power if side == "left" else d.right_power
        assert exponent == (-1.5 if side == "right" else -1.75)
        # 8 to 16 nodes from the flagged end
        j = np.arange(8, 17) if side == "left" else np.arange(n - 16, n - 7)
        t = g.nodes[j] - g.a if side == "left" else g.b - g.nodes[j]
        assert np.max(np.abs(d.values[j] / (coeff * t**exponent) - 1.0)) <= 0.02


class TestOperatorProperties:
    @given(
        alpha=st.floats(0.1, 0.9),
        a=st.floats(-2.0, 2.0),
        b=st.floats(-2.0, 2.0),
    )
    @settings(max_examples=25, deadline=None)
    def test_linearity(self, alpha, a, b):
        g = unit_grid(128)
        u = sample(Gaussian(0.4, 0.15), g)
        v = sample(Bump(0.6, 0.3, 1.0), g)
        combo = SampledFunction(g, a * u.values + b * v.values)
        lhs = rl_derivative(combo, alpha).values[1:]
        rhs = a * rl_derivative(u, alpha).values[1:] + b * rl_derivative(v, alpha).values[1:]
        scale = max(np.max(np.abs(lhs)), 1.0)
        assert np.max(np.abs(lhs - rhs)) <= 1e-12 * scale
        # the integral is exact on affine data: I^alpha (a + b y)(1)
        affine = frac_integral(SampledFunction(g, a + b * g.nodes), alpha).values[-1]
        exact = a / gamma_fn(1 + alpha) + b / gamma_fn(2 + alpha)
        assert affine == pytest.approx(exact, abs=1e-11)

    @given(
        alpha=st.floats(0.1, 0.7),
        beta=st.floats(0.1, 0.7),
    )
    @settings(max_examples=20, deadline=None)
    def test_integral_semigroup(self, alpha, beta):
        """I^alpha I^beta u = I^(alpha+beta) u within 1e-3 ||u||_inf at n=1024."""
        if alpha + beta > 1.0:
            return
        g = unit_grid(1024)
        u = sample(Gaussian(0.4, 0.15), g)
        twice = frac_integral(frac_integral(u, beta), alpha).values
        once = frac_integral(u, alpha + beta).values
        assert np.max(np.abs(twice - once)) <= 1e-3 * np.max(np.abs(u.values))

    def test_left_right_duality(self):
        # integral (I^a_left u) v = integral u (I^a_right v) for compact samples
        g = unit_grid(1024)
        u = sample(Bump(0.35, 0.2, 1.0), g)
        v = sample(Bump(0.6, 0.25, 1.0), g)
        for alpha in (0.25, 0.5, 0.75):
            lhs = trapezoid(frac_integral(u, alpha, "left").values * v.values, g.h)
            rhs = trapezoid(u.values * frac_integral(v, alpha, "right").values, g.h)
            assert abs(lhs - rhs) <= 1e-12 * abs(lhs)

    def test_reflection_conjugation_everywhere(self):
        g = unit_grid(128)
        u = sample(Gaussian(0.3, 0.1), g)
        for op in (
            lambda w, s: frac_integral(w, 0.4, s),
            lambda w, s: rl_derivative(w, 0.4, s),
            lambda w, s: gl_derivative(w, 0.4, s),
            lambda w, s: caputo_derivative(w, 0.4, s),
        ):
            right = op(u, "right").values
            mirrored = op(u.reflected(), "left").values[::-1]
            m = np.isfinite(right) & np.isfinite(mirrored)
            assert np.max(np.abs(right[m] - mirrored[m])) == 0.0
        # line operators: right = reflect, left, reflect, on the line grid
        line = sample_line(Gaussian(1.0, 1.0), 16.0, 1024)
        for op in (marchaud_derivative, gl_derivative):
            right = op(line, 0.4, "right")
            mirrored = op(line.reflected(), 0.4, "left").reflected()
            assert right.grid.on_line
            assert np.array_equal(right.values, mirrored.values)
        mirrored_c = replace(endpoint_constant(u.reflected(), 0.4), side=Side.RIGHT)
        assert endpoint_constant(u, 0.4, "right") == mirrored_c

    def test_warnings_name_the_caller_on_both_sides(self):
        x = np.linspace(-16.0, 16.0, 1025)
        slow = SampledFunction(line_grid(16.0, 1024), 1.0 / (1.0 + x**2))
        g = unit_grid(256)
        with np.errstate(divide="ignore"):
            hard = SampledFunction(g, (g.nodes - g.a) ** -0.8, left_terms=((1.0, -0.8),))
        for call, text in (
            (lambda: marchaud_derivative(slow, 0.5, "left"), "window-tail"),
            (lambda: marchaud_derivative(slow, 0.5, "right"), "window-tail"),
            (lambda: endpoint_constant(hard, 0.5, "left"), "did not settle"),
            (lambda: endpoint_constant(hard.reflected(), 0.5, "right"), "did not settle"),
        ):
            with warnings.catch_warnings(record=True) as rec:
                warnings.simplefilter("always")
                call()
            hits = [w for w in rec if text in str(w.message)]
            assert hits and all(w.filename == __file__ for w in hits), text


class TestMetamorphicRelations:
    """One input, moved or stretched, gives the moved or scaled output.

    Each bar is about 4x the largest relative error measured over the
    cases of its test (sides, orders and data), as ``max |a - b| / max |a|``.
    """

    # samples moved by 16 nodes on L = 12, n = 2048, read at nodes 200..1800;
    # measured 2.1e-15, 7.4e-15 and 5.8e-15
    TRANSLATION_BARS = {"marchaud_derivative": 1e-14, "spectral_derivative": 3e-14,
                        "gl_derivative": 2.5e-14}

    @pytest.mark.parametrize("side", ["left", "right"])
    @pytest.mark.parametrize("name", sorted(TRANSLATION_BARS))
    def test_line_operators_commute_with_translation(self, name, side):
        op = getattr(operators, name)
        u = sample_line(Gaussian(0.8, 0.7), 12.0, 2048)
        moved = SampledFunction(line_grid(12.0, 2048), np.roll(u.values, 16))
        for alpha in (0.25, 0.5, 0.75):
            here = op(u, alpha, side).values[200:1801]
            there = op(moved, alpha, side).values[216:1817]
            error = np.max(np.abs(there - here)) / np.max(np.abs(here))
            assert error <= self.TRANSLATION_BARS[name], alpha

    # the same samples on [0, L] and on [0, 1], L = 0.3 and 7, n = 100,
    # 1000, 4096 (both sides of the direct head and the FFT levels);
    # measured 3.1e-16, 8.3e-16, 8.2e-16 and 3.7e-16
    DILATION = {"frac_integral": (1.0, 1.5e-15), "rl_derivative": (-1.0, 3.5e-15),
                "caputo_derivative": (-1.0, 3.5e-15), "gl_derivative": (-1.0, 1.5e-15)}

    @pytest.mark.parametrize("name", sorted(DILATION))
    def test_interval_operators_scale_under_dilation(self, name):
        op = getattr(operators, name)
        sign, bar = self.DILATION[name]
        for n in (100, 1000, 4096):
            for f in (Gaussian(0.4, 0.15), Bump(0.6, 0.3, 1.0)):
                vals = sample(f, unit_grid(n)).values
                one = SampledFunction(unit_grid(n), vals)
                for width in (0.3, 7.0):
                    wide = SampledFunction(Grid(0.0, width, n), vals)
                    for side in ("left", "right"):
                        for alpha in (0.25, 0.5, 0.75):
                            scaled = width ** (sign * alpha) * op(one, alpha, side).values
                            out = op(wide, alpha, side).values
                            # rl_derivative flags the base node of data that do not vanish there
                            m = np.isfinite(scaled)
                            assert np.array_equal(np.isfinite(out), m)
                            error = np.max(np.abs(out[m] - scaled[m]))
                            assert error <= bar * np.max(np.abs(scaled[m])), (n, width, side, alpha)
