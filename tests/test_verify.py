"""Verification-harness checks.

The strategy throughout: every check gets at least one input whose
answer is pinned by an independent route (a closed form, an exact
annihilation, or the transpose structure of the product-integration
weights), one fault from the table in ``faults.py`` under which it must
fail loudly, and one hypothesis-violation that must be rejected before
any numerics run.
"""

from __future__ import annotations

import math
import warnings

import numpy as np
import pytest
from faults import FAULTS, Fault, inject, right_side
from hypothesis import given, settings
from hypothesis import strategies as st

from fracsobolev import spaces, verify
from fracsobolev.core import Grid, SampledFunction, Side, uniform_grid
from fracsobolev.operators import rl_derivative
from fracsobolev.oracle import (
    Bump,
    FunctionSum,
    Gaussian,
    PowerSum,
    Step,
    sample,
)
from fracsobolev.verify import (
    TestBattery,
    VerificationReport,
    canonical_checks,
    check_consistency_w1p,
    check_density,
    check_embedding_trace,
    check_ftwfc,
    check_ibp,
    check_inclusivity,
    check_line_equivalences,
    check_poincare,
    check_sobolev_inequality,
    check_weak_pairing,
    extend_exterior,
    extend_interior,
    extend_trivial,
)


def unit_grid(n: int) -> Grid:
    return Grid(0.0, 1.0, n)


def const(c: float = 1.0) -> PowerSum:
    return PowerSum(0.0, ((c, 0.0),))


def kernel(alpha: float) -> PowerSum:
    """(x - 0)^(alpha - 1), the one-sided derivative's annihilated direction."""
    return PowerSum(0.0, ((1.0, alpha - 1.0),))


def interior_rl_weights(n: int, alpha: float, side: Side) -> np.ndarray:
    """Interior block of the ``rl_derivative`` weight matrix on ``unit_grid(n)``.

    Column ``j`` is the derivative of the ``j``-th interior unit vector,
    read at the interior nodes.
    """
    g = unit_grid(n)
    columns = []
    for j in range(1, n):
        e = np.zeros(n + 1)
        e[j] = 1.0
        columns.append(rl_derivative(SampledFunction(g, e), alpha, side).values[1:-1])
    return np.column_stack(columns)


def assert_rl_weights_are_transposes(alpha: float) -> None:
    # n <= operators._DIRECT_SIZE (256) keeps every convolution output a direct
    # sum; past that the FFT tail rounds differently on the two sides
    for n in (64, 256):
        left = interior_rl_weights(n, alpha, Side.LEFT)
        right = interior_rl_weights(n, alpha, Side.RIGHT)
        assert np.array_equal(left, right.T), (n, alpha)


# ---------------------------------------------------------------------------
# report contract


class TestVerificationReport:
    def test_passed_must_match_residuals(self):
        with pytest.raises(ValueError):
            VerificationReport("t", {}, (2.0,), (1.0,), True, 1.0)

    def test_rejects_empty_residuals(self):
        with pytest.raises(ValueError):
            VerificationReport("t", {}, (), (1.0,), True, 1.0)

    def test_rejects_bad_tolerance(self):
        for tol in (0.0, -1.0, math.inf, math.nan):
            with pytest.raises(ValueError):
                VerificationReport("t", {}, (0.5,), (1.0,), True, tol)

    def test_to_dict_shape(self):
        rep = VerificationReport(
            "t", {"alpha": 0.5}, (0.5,), (1.0,), True, 1.0, "note",
            details={"recovered_c": 2.0},
        )
        d = rep.to_dict()
        for key in ("theorem_id", "inputs", "residuals", "ratios", "tolerance",
                    "passed", "notes", "version"):
            assert key in d
        assert d["recovered_c"] == 2.0
        assert d["residuals"] == [0.5]

    @given(
        st.lists(st.floats(min_value=0.0, max_value=10.0), min_size=1, max_size=6),
        st.floats(min_value=1e-6, max_value=10.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_passed_consistency_property(self, residuals, tol):
        expected = all(r <= tol for r in residuals)
        rep = VerificationReport("t", {}, tuple(residuals), (1.0,), expected, tol)
        assert rep.passed is expected
        with pytest.raises(ValueError):
            VerificationReport("t", {}, tuple(residuals), (1.0,), not expected, tol)


class TestBatteryGeometry:
    def test_default_members_cover_the_families(self):
        batt = TestBattery.default(unit_grid(256))
        labels = list(batt.labels())
        assert len(labels) == 10
        assert any(lab.startswith("gauss") for lab in labels)
        assert any(lab.startswith("step") for lab in labels)
        assert sum(lab.startswith("bump") for lab in labels) == 4

    @given(st.integers(min_value=2, max_value=12))
    @settings(max_examples=12, deadline=None)
    def test_bump_batteries_are_compactly_supported(self, count):
        g = unit_grid(128)
        batt = TestBattery.bumps(g, count)
        assert len(batt.members) == count
        batt.require_compact_support(g)  # must not raise

    def test_compact_support_rejection(self):
        g = unit_grid(128)
        batt = TestBattery((Gaussian(0.5, 0.5),))
        with pytest.raises(ValueError):
            batt.require_compact_support(g)


# ---------------------------------------------------------------------------
# the defining pairing


class TestWeakPairing:
    def test_kernel_of_order_one_half_for_constants(self):
        # the derivative of 1 is x^{-1/2}/Gamma(1/2): a closed form the
        # pairing must confirm against every test bump
        g = unit_grid(2048)
        u = sample(const(1.0), g)
        v = sample(PowerSum(0.0, ((1.0 / math.gamma(0.5), -0.5),)), g)
        rep = check_weak_pairing(u, v, 0.5)
        assert rep.passed
        assert max(rep.residuals) < 1e-6

    def test_annihilated_direction_pairs_to_zero(self):
        # (x-a)^{alpha-1} has vanishing weak derivative of order alpha
        g = unit_grid(2048)
        u = sample(kernel(0.5), g)
        zero = sample(const(0.0), g)
        rep = check_weak_pairing(u, zero, 0.5)
        assert rep.passed

    def test_wrong_candidate_fails_by_an_order_of_magnitude(self):
        g = unit_grid(2048)
        u = sample(const(1.0), g)
        zero = sample(const(0.0), g)
        rep = check_weak_pairing(u, zero, 0.5)
        assert not rep.passed
        assert max(rep.residuals) > 10.0 * rep.tolerance

    def test_product_scheme_is_its_own_weak_derivative(self):
        # v := D^alpha u must satisfy the pairing for every default member,
        # including the singular-kernel and jump members
        g = unit_grid(1024)
        for f in TestBattery.default(g).members:
            u = sample(f, g)
            rep = check_weak_pairing(u, rl_derivative(u, 0.5), 0.5)
            assert rep.passed, rep.inputs["u"]

    def test_every_recorded_term_is_paired_in_closed_form(self):
        # int_0^1 x^-1/2 - 2 x^-1/4 dx = -2/3: the first cell is exact for
        # both terms, and the trapezoid rule past it errs by 1.0e-3
        g = unit_grid(1024)
        u = sample(PowerSum(0.0, ((1.0, -0.5), (-2.0, -0.25))), g)
        one = np.ones(g.n + 1)
        assert abs(verify._pair(u, one) + 2.0 / 3.0) <= 1.1e-3
        # the absolute scale reads the first cell as x^-1/2 + 2 x^-1/4
        h, rest = g.h, np.abs(u.values[1:])
        first = 2.0 * h**0.5 + 8.0 / 3.0 * h**0.75
        scale = first + float(np.sum(0.5 * h * (rest[:-1] + rest[1:])))
        assert abs(verify._pair(u, one, absolute=True) / scale - 1.0) <= 1e-14

    def test_right_sided_variant(self):
        g = unit_grid(1024)
        u = sample(const(1.0), g)
        v = sample(PowerSum(1.0, ((1.0 / math.gamma(0.5), -0.5),), Side.RIGHT), g)
        rep = check_weak_pairing(u, v, 0.5, side=Side.RIGHT)
        assert rep.passed


class TestFundamentalTheorem:
    def test_recovers_the_kernel_coefficient(self):
        g = unit_grid(2048)
        u = sample(FunctionSum((PowerSum(0.0, ((2.0, -0.5),)), Bump(0.5, 0.25))), g)
        rep = check_ftwfc(u, 0.5)
        assert rep.passed
        assert rep.details["recovered_c"] == pytest.approx(2.0, abs=0.02)
        assert rep.residuals[0] < 1e-3

    def test_zero_trace_input_has_no_kernel_part(self):
        g = unit_grid(2048)
        rep = check_ftwfc(sample(Bump(0.5, 0.25), g), 0.5, tolerance=1e-3)
        assert rep.passed
        assert abs(rep.details["recovered_c"]) < 1e-9

    def test_pure_kernel_reconstructs_exactly(self):
        g = unit_grid(2048)
        rep = check_ftwfc(sample(kernel(0.5), g), 0.5)
        assert rep.passed
        assert rep.details["recovered_c"] == pytest.approx(1.0, abs=1e-12)
        assert rep.residuals[0] == 0.0

    def test_scaled_probe_fails(self, monkeypatch):
        g = unit_grid(2048)
        inject(monkeypatch, FAULTS["ftwfc"])
        rep = check_ftwfc(sample(Bump(0.5, 0.25), g), 0.5)
        assert not rep.passed
        assert max(rep.residuals) > 3.0 * rep.tolerance


# ---------------------------------------------------------------------------
# integration by parts


class TestIntegrationByParts:
    def test_interior_bumps_are_exactly_adjoint(self):
        # the product-integration weights of the two one-sided derivatives
        # are exact transposes on the interior nodes, to the last bit
        for alpha in (0.3, 0.5, 0.75):
            assert_rl_weights_are_transposes(alpha)
        # the two sides of the discrete identity are still different sums
        # of n products, formed in different orders, so they round
        # differently: an n-term sum is only guaranteed to within about
        # n u, u = 2^-53 (Higham, Accuracy and Stability of Numerical
        # Algorithms, 3.1), and that bounds the normalized defect, not zero
        g = unit_grid(2048)
        u = sample(Bump(0.4, 0.2), g)
        v = sample(Bump(0.6, 0.25), g)
        rep = check_ibp(u, v, 0.5, variant="one_sided_zero_trace")
        assert rep.passed
        assert max(rep.residuals) <= g.n * 2.0**-53

    def test_symmetric_variant_with_identical_factors(self):
        # both orientations rest on the same exact transposition, and both
        # defects on the same n u rounding bound
        assert_rl_weights_are_transposes(0.75)
        g = unit_grid(2048)
        u = sample(Bump(0.4, 0.2), g)
        rep = check_ibp(u, u, 0.75, variant="symmetric")
        assert rep.passed
        assert max(rep.residuals) <= g.n * 2.0**-53

    @pytest.mark.parametrize("n", [4096, 65536])
    def test_zero_trace_pair_on_large_grids(self, n):
        # the derivatives of these bumps vanish next to the base node, and the
        # convolution's direct head must keep them exact zeros there: FFT
        # roundoff in their place fits as a non-integrable singular power
        g = uniform_grid(0, 1, n)
        u = sample(Bump(0.45, 0.2), g)
        v = sample(Bump(0.55, 0.3), g)
        rep = check_ibp(u, v, 0.5, variant="one_sided_zero_trace")
        assert rep.passed
        assert max(rep.residuals) <= g.n * 2.0**-53

    def test_singular_factor_against_a_zero_trace_one(self):
        g = unit_grid(2048)
        u = sample(kernel(0.5), g)
        v = sample(Bump(0.5, 0.3), g)
        rep = check_ibp(u, v, 0.5, variant="one_sided_zero_trace")
        assert rep.passed

    def test_rejects_non_conjugate_exponents(self):
        g = unit_grid(512)
        u = sample(Bump(0.4, 0.2), g)
        with pytest.raises(ValueError, match="conjugate"):
            check_ibp(u, u, 0.75, p=2.0, q=3.0, variant="symmetric")

    def test_symmetric_variant_needs_integrable_boundary(self):
        # alpha p <= 1 leaves the one-sided derivative outside L^p, so the
        # symmetric form's hypotheses fail before any quadrature runs
        g = unit_grid(512)
        u = sample(Bump(0.4, 0.2), g)
        with pytest.raises(ValueError):
            check_ibp(u, u, 0.5, p=2.0, q=2.0, variant="symmetric")

    def test_zero_trace_variant_rejects_boundary_mass(self):
        g = unit_grid(512)
        u = sample(Bump(0.4, 0.2), g)
        v = sample(const(1.0), g)
        with pytest.raises(ValueError):
            check_ibp(u, v, 0.5, variant="one_sided_zero_trace")

    def test_scaled_probe_fails(self, monkeypatch):
        g = unit_grid(2048)
        u = sample(Bump(0.4, 0.2), g)
        v = sample(Bump(0.6, 0.25), g)
        inject(monkeypatch, (Fault("rl_derivative", "scale", 1.05, right_side),))
        rep = check_ibp(u, v, 0.5, variant="one_sided_zero_trace")
        assert not rep.passed


# ---------------------------------------------------------------------------
# ratio batteries: the inequality checks


class TestPoincare:
    def test_kernel_subtracted_battery(self):
        g = unit_grid(1024)
        rep = check_poincare(TestBattery.default(g), 0.3, 2.0)
        assert rep.passed
        assert rep.details["battery_max"] < 1.0
        assert rep.details["max_ratio_drift"] < 0.10
        assert rep.details["held_out_ratio"] <= 1.5 * rep.details["battery_max"]

    def test_kernel_member_is_annihilated(self):
        # the kernel direction is subtracted before measuring, so its row
        # contributes a zero ratio rather than a spurious infinity
        g = unit_grid(1024)
        batt = TestBattery.default(g)
        rep = check_poincare(batt, 0.3, 2.0)
        kappa_rows = [
            ratio
            for ratio, lab in zip(rep.ratios, batt.labels())
            if "*-0.25" in lab
        ]
        assert kappa_rows == [0.0]

    def test_needs_a_real_family(self):
        g = unit_grid(256)
        with pytest.raises(ValueError, match="family"):
            check_poincare(TestBattery.bumps(g, 4), 0.5, 2.0)

    def test_mathring_variant_rejects_kernel_members(self):
        # x^{-0.25} is singular but kernel-free at order 1/2 and is admitted
        # (with a vacuous ratio); the kernel direction itself must be thrown
        # out, since the mathring space is exactly its complement
        g = unit_grid(256)
        members = TestBattery.bumps(g, 10).members[:9] + (kernel(0.5),)
        with pytest.raises(ValueError, match="kernel"):
            check_poincare(TestBattery(members), 0.5, 2.0, variant="mathring")

    def test_mathring_admits_kernel_free_singular_members(self):
        g = unit_grid(256)
        members = TestBattery.bumps(g, 10).members[:9] + (kernel(0.75),)
        rep = check_poincare(TestBattery(members), 0.5, 2.0, variant="mathring")
        assert rep.passed

    def test_symmetric_variant_needs_p_above_one(self):
        g = unit_grid(256)
        with pytest.raises(ValueError):
            check_poincare(TestBattery.bumps(g, 10), 0.5, 1.0, variant="symmetric")


class TestSobolevInequality:
    def test_interval_subcritical_battery(self):
        g = unit_grid(1024)
        rep = check_sobolev_inequality(TestBattery.default(g), 0.25, 2.0)
        assert rep.passed
        assert rep.details["battery_max"] < 1.0

    def test_critical_line_exponent_is_dilation_stable(self):
        rep = check_sobolev_inequality(
            TestBattery.line_default(), 0.5, 1.5, domain="line", n_line=2048
        )
        assert rep.passed
        # at r = p* the ratio is scale-free; the dilation sweep must agree
        # to well under the 5% bar
        assert rep.details["dilation_drift"] < 0.05

    def test_subcritical_line_exponent_decays_under_dilation(self):
        rep = check_sobolev_inequality(
            TestBattery.line_default(), 0.5, 1.5, domain="line", r=0.7 * 6.0,
            n_line=2048,
        )
        assert rep.passed
        assert rep.residuals[-1] == 0.0

    def test_line_warnings_name_the_caller(self):
        # Gaussian(0, 4) has not decayed at +-12: the decay and window-tail
        # warnings come from inside the check, at two stack depths
        battery = [
            Gaussian(0.1 * i - 0.4, width)
            for i, width in enumerate(np.linspace(0.5, 1.3, 9))
        ] + [Gaussian(0.0, 4.0)]
        with warnings.catch_warnings(record=True) as rec:
            warnings.simplefilter("always")
            check_sobolev_inequality(battery, 0.3, 2.0, domain="line", n_line=1024)
        texts = [str(w.message) for w in rec]
        assert any("has not decayed" in t for t in texts)
        assert any("window-tail" in t for t in texts)
        assert all(w.filename == __file__ for w in rec), [
            (w.filename, w.lineno) for w in rec
        ]

    def test_rejects_supercritical_exponent(self):
        g = unit_grid(256)
        with pytest.raises(ValueError):
            check_sobolev_inequality(TestBattery.default(g), 0.25, 2.0, r=5.0)

    def test_rejects_subcritical_regularity(self):
        g = unit_grid(256)
        with pytest.raises(ValueError):
            check_sobolev_inequality(TestBattery.default(g), 0.6, 2.0)


# ---------------------------------------------------------------------------
# extensions


AMBIENT = Grid(-1.0, 6.5, 15360)


class TestTrivialExtension:
    @pytest.mark.parametrize("alpha", [0.25, 0.5])
    def test_tail_decays_at_the_predicted_rate(self, alpha):
        # |D^alpha(zero-extension)| ~ x^{-(1+alpha)} far from the support:
        # the fitted log-log slope must sit within 0.05 of -(1+alpha)
        g = unit_grid(2048)
        u = sample(Bump(0.2, 0.05), g)
        ext, rep = extend_trivial(u, alpha, 2.0, AMBIENT)
        assert rep.passed
        assert rep.details["tail_slope"] == pytest.approx(-(1.0 + alpha), abs=0.05)
        assert rep.details["pollution_mismatch"] < 1e-2

    def test_norm_ratio_is_finite_and_recorded(self):
        g = unit_grid(2048)
        u = sample(Bump(0.2, 0.05), g)
        ext, rep = extend_trivial(u, 0.5, 2.0, AMBIENT)
        assert rep.ratios[0] == rep.details["norm_ratio"]
        assert 1.0 <= rep.details["norm_ratio"] < 10.0
        assert ext.grid.n == AMBIENT.n

    def test_slope_fit_matches_polyfit_on_the_check_data(self, monkeypatch):
        # the closed-form slope sums without BLAS; on the canonical check's
        # log-log tail it must agree with np.polyfit's lstsq to 1e-12 relative
        fits = []
        fit = verify._fit_slope

        def recorded(x, y):
            fits.append((x, y))
            return fit(x, y)

        monkeypatch.setattr(verify, "_fit_slope", recorded)
        slope = canonical_checks()["extend_trivial"]().details["tail_slope"]
        [(x, y)] = fits
        assert x.size > 100
        assert slope == pytest.approx(float(np.polyfit(x, y, 1)[0]), rel=1e-12)

    def test_zero_function_extends_to_zero(self):
        g = unit_grid(512)
        u = sample(const(0.0), g)
        ext, rep = extend_trivial(u, 0.5, 2.0, Grid(-1.0, 2.0, 1536))
        assert rep.passed
        assert np.all(np.asarray(ext.values) == 0.0)
        assert max(rep.residuals) == 0.0

    def test_rejects_boundary_touching_input(self):
        g = unit_grid(512)
        u = sample(const(1.0), g)
        with pytest.raises(ValueError):
            extend_trivial(u, 0.5, 2.0, Grid(-1.0, 2.0, 1536))

    @pytest.mark.parametrize("ambient", [unit_grid(512), Grid(0.0, 1.01, 517)])
    def test_rejects_an_ambient_window_without_a_tail_to_fit(self, ambient):
        # no node, or too few, in the slope-fit window past the support
        u = sample(Bump(0.2, 0.05), unit_grid(512))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="slope-fit points"):
                extend_trivial(u, 0.5, 2.0, ambient)


class TestInteriorExtension:
    def test_agrees_on_the_inner_window_exactly(self):
        g = unit_grid(1024)
        u = sample(PowerSum(0.0, ((1.0, -0.25),)), g)
        ext, rep = extend_interior(u, 0.75, 2.0, (0.25, 0.75))
        assert rep.passed
        assert rep.residuals[0] <= 1e-12  # window equality
        assert rep.details["norm_ratio"] == pytest.approx(
            rep.details["norm_ratio_coarse"], rel=0.10
        )

    def test_smooth_input(self):
        # alpha p < 1 here: a Gaussian with nonzero base value is only a
        # member of the one-sided space below the critical line
        g = unit_grid(1024)
        u = sample(Gaussian(0.5, 0.2), g)
        ext, rep = extend_interior(u, 0.4, 2.0, (0.3, 0.7))
        assert rep.passed

    def test_ambient_needs_no_room_past_the_domain(self):
        g = unit_grid(1024)
        ext, rep = extend_interior(sample(Gaussian(0.5, 0.2), g), 0.4, 2.0, (0.3, 0.7), ambient=g)
        assert rep.passed
        assert ext.grid == g

    def test_rejects_non_member_input(self):
        # the same Gaussian at alpha p = 1 has a divergent norm: there is
        # nothing to extend and the check must say so
        g = unit_grid(1024)
        u = sample(Gaussian(0.5, 0.2), g)
        with pytest.warns(UserWarning, match="diverges"):
            with pytest.raises(ValueError, match="diverges"):
                extend_interior(u, 0.5, 2.0, (0.3, 0.7))

    def test_rejects_window_touching_the_boundary(self):
        g = unit_grid(512)
        u = sample(Gaussian(0.5, 0.2), g)
        with pytest.raises(ValueError):
            extend_interior(u, 0.5, 2.0, (0.0, 0.5))


class TestExteriorExtension:
    def test_constant_extends_with_order_one_constant(self):
        g = unit_grid(1024)
        u = sample(const(1.0), g)
        ext, rep = extend_exterior(u, 0.25, 2.0, 5.0, Grid(-1.0, 2.0, 3072))
        assert rep.passed
        assert 0.0 < rep.details["measured_constant"] < 10.0

    def test_matches_the_zero_extension_on_interior_support(self):
        # when the support never reaches the collar, the periodic copy is
        # multiplied by an identically-zero taper: the two operators must
        # produce the same samples bit for bit
        g = unit_grid(1024)
        u = sample(Bump(0.4, 0.15), g)
        amb = Grid(-1.0, 2.0, 3072)
        ext_e, rep_e = extend_exterior(u, 0.25, 2.0, 5.0, amb)
        ext_t, _ = extend_trivial(u, 0.25, 2.0, amb)
        assert rep_e.passed
        assert np.array_equal(np.asarray(ext_e.values), np.asarray(ext_t.values))

    @pytest.mark.parametrize("f", [const(1.0), Gaussian(0.7, 0.3)], ids=["const", "gaussian"])
    def test_right_side_mirrors_the_left(self, f):
        # the ambient window is symmetric about the domain's centre
        u = sample(f, unit_grid(1024))
        amb = Grid(-1.0, 2.0, 3072)
        ext_l, rep_l = extend_exterior(u, 0.25, 2.0, 5.0, amb)
        ext_r, rep_r = extend_exterior(u.reflected(), 0.25, 2.0, 5.0, amb, side="right")
        assert rep_r.passed and rep_r.inputs["side"] == "right"
        assert rep_r.ratios == rep_l.ratios and rep_r.residuals == rep_l.residuals
        scale = np.max(np.abs(ext_l.values))
        assert np.max(np.abs(ext_r.values - ext_l.values[::-1])) <= 1e-14 * scale

    def test_right_side_reflects_an_asymmetric_window_about_the_domain(self):
        # the same h as 1024 cells; (-1.5, 2.0) mirrors to (-1.0, 2.5) about 1/2
        u = sample(Gaussian(0.7, 0.3), unit_grid(1024))
        ext_l, rep_l = extend_exterior(u, 0.25, 2.0, 5.0, Grid(-1.0, 2.5, 3584))
        amb = Grid(-1.5, 2.0, 3584)
        ext_r, rep_r = extend_exterior(u.reflected(), 0.25, 2.0, 5.0, amb, side="right")
        assert rep_r.passed and rep_r.inputs["side"] == "right"
        assert rep_r.inputs["ambient"] == [-1.5, 2.0] and ext_r.grid == amb
        assert rep_r.ratios == rep_l.ratios and rep_r.residuals == rep_l.residuals
        assert np.array_equal(ext_r.values, ext_l.values[::-1])

    @pytest.mark.parametrize("f", [const(1.0), Gaussian(0.7, 0.3)], ids=["const", "gaussian"])
    def test_right_side_fails_under_the_canonical_fault(self, f, monkeypatch):
        u = sample(f, unit_grid(1024))
        amb = Grid(-1.0, 2.0, 3072)
        inject(monkeypatch, FAULTS["extend_exterior"])
        _, rep_l = extend_exterior(u, 0.25, 2.0, 5.0, amb)
        _, rep_r = extend_exterior(u.reflected(), 0.25, 2.0, 5.0, amb, side="right")
        assert rep_l.passed is False and rep_r.passed is False

    def test_rejects_supercritical_regularity(self):
        g = unit_grid(512)
        u = sample(const(1.0), g)
        with pytest.raises(ValueError, match="alpha"):
            extend_exterior(u, 0.6, 2.0, 5.0, Grid(-1.0, 2.0, 1536))

    def test_rejects_insufficient_integrability(self):
        # mu must exceed p/(1 - alpha p) = 4 here; equality is not enough
        g = unit_grid(512)
        u = sample(const(1.0), g)
        for mu in (3.0, 4.0):
            with pytest.raises(ValueError):
                extend_exterior(u, 0.25, 2.0, mu, Grid(-1.0, 2.0, 1536))

    def test_rejects_narrow_ambient_window(self):
        g = unit_grid(512)
        u = sample(const(1.0), g)
        with pytest.raises(ValueError):
            extend_exterior(u, 0.25, 2.0, 5.0, Grid(-0.1, 1.1, 1024))

    def test_rejects_singular_samples(self):
        g = unit_grid(512)
        u = sample(kernel(0.75), g)
        with pytest.raises(ValueError):
            extend_exterior(u, 0.25, 2.0, 5.0, Grid(-1.0, 2.0, 1536))


# ---------------------------------------------------------------------------
# embedding, consistency, equivalences


class TestEmbeddingTrace:
    def test_supercritical_family_is_uniformly_holder(self):
        g = unit_grid(1024)
        members = TestBattery.bumps(g, 9).members + (PowerSum(0.0, ((1.0, -0.25),)),)
        rep = check_embedding_trace(members, 0.75, 2.0, g)
        assert rep.passed
        assert math.isfinite(rep.details["max_quotient"])
        assert rep.details["sharpness_growth"] > 1.2

    def test_divergent_member_reports_honest_zeros(self):
        # a constant has unbounded one-sided norm when alpha p > 1, so its
        # quotient/norm and trace/norm ratios are 0/inf = 0: the check must
        # surface that honestly (with the divergence warning) rather than
        # fabricating a finite ratio
        g = unit_grid(1024)
        with pytest.warns(UserWarning, match="diverges"):
            rep = check_embedding_trace([const(1.0)], 0.75, 2.0, g)
        assert rep.passed
        assert rep.details["max_quotient"] == 0.0
        assert rep.details["max_trace_ratio"] == 0.0

    def test_rejects_subcritical_regularity(self):
        g = unit_grid(256)
        with pytest.raises(ValueError):
            check_embedding_trace([Bump(0.5, 0.2)], 0.5, 2.0, g)

    def test_canonical_run_scans_each_window_once(self, monkeypatch):
        # 10 members: the coarse quotient, and the fine one inside trace;
        # then the sharpness probe on both grids.  The fine quotient is
        # the one trace returns, not a second scan of the same window
        scans = []
        original = spaces.holder_quotient

        def counted(u, exponent, subinterval):
            scans.append((u.values.tobytes(), exponent, subinterval))
            return original(u, exponent, subinterval)

        monkeypatch.setattr(spaces, "holder_quotient", counted)
        monkeypatch.setattr(verify, "holder_quotient", counted)
        assert canonical_checks()["embedding_trace"]().passed
        assert len(scans) == 22
        assert len(set(scans)) == 22


class TestW1pConsistency:
    def test_affine_function_matches_the_two_term_form(self):
        rep = check_consistency_w1p(
            PowerSum(0.0, ((1.0, 0.0), (1.0, 1.0))), 0.5, 2.0, unit_grid(2048)
        )
        assert rep.passed
        assert rep.details["residual"] < 1e-6
        assert rep.details["base_value"] == 1.0

    def test_cancelled_exponent_reads_the_base_value_of_x(self):
        # x^-1/4 - x^-1/4 + x is x: u(a) is the sample's base node, the limit 0
        cancelled = PowerSum(0.0, ((1.0, -0.25), (-1.0, -0.25), (1.0, 1.0)))
        rep = check_consistency_w1p(cancelled, 0.5, 2.0)
        plain = check_consistency_w1p(PowerSum(0.0, ((1.0, 1.0),)), 0.5, 2.0)
        assert rep.passed
        assert rep.residuals == plain.residuals
        assert rep.details == plain.details

    def test_zero_trace_input_drops_the_kernel_term(self):
        rep = check_consistency_w1p(Bump(0.5, 0.25), 0.5, 2.0, unit_grid(2048))
        assert rep.passed
        assert rep.details["base_value"] == 0.0

    def test_divergence_probe_confirms_unbounded_norm(self):
        # u(0) = 1 with alpha p > 1: membership must fail, and the check's
        # norm probe asserts exactly that
        rep = check_consistency_w1p(const(1.0), 0.6, 2.0, unit_grid(2048))
        assert rep.passed
        assert max(rep.residuals) == 0.0

    def test_sup_norm_probe_sees_the_kernel_power(self):
        # u(0) = 1 leaves t^-0.5 / sqrt(pi) in the derivative, which is
        # unbounded: the p = inf norm must be +inf
        rep = check_consistency_w1p(
            PowerSum(0.0, ((1.0, 0.0), (1.0, 1.0))), 0.5, math.inf, unit_grid(2048)
        )
        assert rep.passed
        assert rep.details["norm_value"] == math.inf
        assert "with e < 0 it grows without bound" in rep.notes

    def test_rejects_inputs_without_a_classical_derivative(self):
        with pytest.raises(ValueError):
            check_consistency_w1p(Step(0.5, 1.0), 0.5, 2.0, unit_grid(512))

    def test_scaled_probe_fails(self, monkeypatch):
        inject(monkeypatch, FAULTS["w1p_consistency"])
        rep = check_consistency_w1p(
            PowerSum(0.0, ((1.0, 0.0), (1.0, 1.0))), 0.5, 2.0, unit_grid(2048)
        )
        assert not rep.passed


class TestLineEquivalences:
    def test_decaying_family_passes_all_four_blocks(self):
        rep = check_line_equivalences(TestBattery.line_default(), 0.5, n=2048)
        assert rep.passed
        assert rep.details["max_parseval_mismatch"] < 1e-12
        assert rep.details["band_spread"] < 0.02
        assert rep.details["max_bound_ratio"] <= 1.05

    def test_rejects_non_decaying_members(self):
        batt = TestBattery((Gaussian(0.0, 0.5), Step(0.0, 1.0)))
        with pytest.raises(ValueError):
            check_line_equivalences(batt, 0.5, n=1024)

    def test_scaled_probe_fails(self, monkeypatch):
        inject(monkeypatch, FAULTS["line_equivalences"])
        rep = check_line_equivalences(TestBattery.line_default(), 0.5, n=2048)
        assert not rep.passed


class TestDensity:
    def test_mollification_errors_shrink_below_the_bar(self):
        g = unit_grid(2048)
        rep = check_density(sample(Bump(0.5, 0.4), g), 0.5, 2.0, "smooth")
        assert rep.passed
        assert rep.residuals[0] == 0.0  # never increases
        assert rep.details["final_error"] < 1.05e-3
        assert all(b <= a * (1 + 1e-9) for a, b in zip(rep.ratios, rep.ratios[1:]))

    def test_node_aligned_step_projects_exactly(self):
        # a jump on a cell boundary is reproduced by every cell-average
        # projection, so all five stage errors vanish identically
        g = unit_grid(2048)
        rep = check_density(sample(Step(0.5, 1.0), g), 0.3, 2.0, "piecewise_constant")
        assert rep.passed
        assert max(rep.ratios) == 0.0

    def test_smooth_input_decays_at_the_projection_rate(self):
        # cell averages approximate a smooth function at rate h^{1-alpha}
        # in the order-alpha norm; with stages capped at 128 cells a bump
        # cannot reach the 1% bar, and the honest outcome is a failing
        # report whose stage errors shrink by 2^{alpha-1} per doubling
        g = unit_grid(2048)
        rep = check_density(sample(Bump(0.5, 0.3), g), 0.3, 2.0, "piecewise_constant")
        assert not rep.passed
        assert rep.residuals[0] == 0.0  # monotone decrease all the way
        rates = [b / a for a, b in zip(rep.ratios, rep.ratios[1:])]
        for rate in rates:
            assert rate == pytest.approx(2.0 ** (0.3 - 1.0), rel=0.15)

    def test_piecewise_needs_subcritical_regularity(self):
        g = unit_grid(2048)
        with pytest.raises(ValueError):
            check_density(sample(Step(0.5, 1.0), g), 0.5, 2.0, "piecewise_constant")

    def test_piecewise_needs_divisible_grid(self):
        g = Grid(0.0, 1.0, 1000)
        with pytest.raises(ValueError, match="divisible"):
            check_density(sample(Step(0.5, 1.0), g), 0.3, 2.0, "piecewise_constant")

    def test_smooth_mode_rejects_singular_samples(self):
        g = unit_grid(512)
        with pytest.warns(UserWarning, match="diverges"):
            with pytest.raises(ValueError):
                check_density(sample(kernel(0.75), g), 0.5, 2.0, "smooth")

    def test_unknown_mode(self):
        g = unit_grid(256)
        with pytest.raises(ValueError, match="mode"):
            check_density(sample(Bump(0.5, 0.3), g), 0.5, 2.0, "fourier")


class TestOrderInclusion:
    def test_smooth_input(self):
        g = unit_grid(2048)
        rep = check_inclusivity(sample(Bump(0.5, 0.25), g), 0.4, 0.7, grid=g)
        assert rep.passed
        assert rep.residuals[0] < 1e-3

    def test_kernel_of_the_higher_order_is_exact(self):
        # u = x^{beta-1} is annihilated by the beta-derivative, so the
        # two-term identity collapses to the closed-form power derivative;
        # the discrete sides then agree to roundoff
        g = unit_grid(2048)
        rep = check_inclusivity(sample(kernel(0.75), g), 0.4, 0.75, grid=g)
        assert rep.passed
        assert rep.residuals[0] < 1e-12

    def test_orders_close_together(self):
        g = unit_grid(2048)
        rep = check_inclusivity(sample(Bump(0.5, 0.25), g), 0.7 - 1e-3, 0.7, grid=g)
        assert rep.passed
        assert rep.residuals[0] < 1e-3

    def test_rejects_misordered_pair(self):
        g = unit_grid(256)
        u = sample(Bump(0.5, 0.25), g)
        for alpha, beta in ((0.7, 0.4), (0.5, 0.5), (0.4, 1.0)):
            with pytest.raises(ValueError):
                check_inclusivity(u, alpha, beta, grid=g)

    def test_scaled_probe_fails(self, monkeypatch):
        g = unit_grid(2048)
        inject(monkeypatch, FAULTS["inclusivity"])
        rep = check_inclusivity(sample(Bump(0.5, 0.25), g), 0.4, 0.7, grid=g)
        assert not rep.passed
        assert max(rep.residuals) > 3.0 * rep.tolerance


# ---------------------------------------------------------------------------
# the canonical registry


class TestCanonicalRegistry:
    def test_every_check_passes(self):
        reports = {name: runner() for name, runner in canonical_checks().items()}
        failed = [name for name, rep in reports.items() if not rep.passed]
        assert failed == []
        assert len(reports) == 18

    def test_theorem_ids_are_distinct(self):
        reports = [runner() for runner in canonical_checks().values()]
        ids = [rep.theorem_id for rep in reports]
        assert len(set(ids)) == len(ids)

    def test_reports_are_deterministic(self):
        checks = canonical_checks()
        for name in ("weak_pairing", "ftwfc", "sobolev_interval", "extend_trivial"):
            first = checks[name]().to_dict()
            second = checks[name]().to_dict()
            assert first == second

    def test_every_check_has_a_fault(self):
        assert sorted(FAULTS) == sorted(canonical_checks())

    @pytest.mark.parametrize("name", sorted(FAULTS))
    def test_every_check_fails_under_its_fault(self, name, monkeypatch):
        # the clean rerun after the patch is undone must give the same
        # bytes: no fault survives in the kernel-plan cache
        runner = canonical_checks()[name]
        clean = runner().to_dict()
        with monkeypatch.context() as patched:
            inject(patched, FAULTS[name])
            faulted = runner()
        assert faulted.passed is False
        assert runner().to_dict() == clean
