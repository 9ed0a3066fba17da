"""Acceptance gate: fifteen end-to-end properties at desk scale.

Run with ``pytest -v tests/test_acceptance.py`` to get one pass/fail
line per criterion.  Each test states its bound inline; nothing here
adapts to the measured values.
"""

from __future__ import annotations

import json
import math
import time

import numpy as np
import pytest
from golden_report import assert_reproduces_golden
from test_cli import run_cli

from fracsobolev.core import Grid, Side, uniform_grid
from fracsobolev.operators import (
    caputo_derivative,
    frac_integral,
    gl_derivative,
    marchaud_derivative,
    rl_derivative,
    spectral_derivative,
)
from fracsobolev.oracle import (
    Bump,
    FunctionSum,
    Gaussian,
    PowerSum,
    Step,
    UnsupportedFamilyError,
    oracle_frac_derivative,
    sample,
    sample_line,
)
from fracsobolev.spaces import (
    discrete_fourier,
    gagliardo_seminorm,
    lp_norm,
    weighted_spectral_integral,
)
from fracsobolev.verify import (
    TestBattery,
    canonical_checks,
    check_embedding_trace,
    check_ftwfc,
    check_ibp,
    check_inclusivity,
    check_sobolev_inequality,
    check_weak_pairing,
    extend_exterior,
    extend_interior,
    extend_trivial,
)

GAMMA_075 = 1.2254167024651776  # Gamma(0.75), mpmath 30 digits


def test_01_realizations_match_closed_forms_with_order():
    """Interior rel-Linf <= 1e-2 at n=2048 and order >= 0.8 per doubling."""
    started = time.perf_counter()
    members = {
        "one": PowerSum(0.0, ((1.0, 0.0),)),
        "x": PowerSum(0.0, ((1.0, 1.0),)),
        "x^1.3": PowerSum(0.0, ((1.0, 1.3),)),
        "kappa": PowerSum(0.0, ((1.0, -0.5),)),
        "step": Step(0.5, 1.0),
    }
    schemes = {
        "product_rl": (rl_derivative, "rl"),
        "grunwald": (gl_derivative, "rl"),
        "caputo": (caputo_derivative, "caputo"),
    }
    alpha = 0.5

    def interior_error(name: str, f, num_fn, kind: str, n: int) -> float:
        g = Grid(0.0, 1.0, n)
        d = np.asarray(num_fn(sample(f, g), alpha).values, dtype=float)
        with np.errstate(invalid="ignore"):
            o = np.asarray(
                oracle_frac_derivative(f, alpha, "left", kind).value(g.nodes),
                dtype=float,
            )
        mask = g.nodes >= 0.05
        if name == "step":
            mask &= np.abs(g.nodes - 0.5) >= 0.05  # oracle's own singularity
        mask &= np.isfinite(o) & np.isfinite(d)
        scale = max(float(np.max(np.abs(o[mask]))), 1.0)
        return float(np.max(np.abs(d[mask] - o[mask]))) / scale

    defined = 0
    for mname, f in members.items():
        for sname, (num_fn, kind) in schemes.items():
            try:
                errs = [
                    interior_error(mname, f, num_fn, kind, n)
                    for n in (2048, 4096, 8192)
                ]
            except (UnsupportedFamilyError, ValueError):
                continue  # realization not defined for this member
            defined += 1
            assert errs[0] <= 1e-2, (mname, sname, errs)
            if errs[0] > 1e-12:  # below that the scheme is exact here
                orders = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
                assert min(orders) >= 0.8, (mname, sname, errs)
    assert defined == 12  # 5 product-RL + 4 GL + 3 Caputo
    assert time.perf_counter() - started <= 30.0


def test_02_spot_values_on_the_constant():
    """D^.5 1(1) = 1/sqrt(pi) +- 1e-3; I^.5 1(1) = 2/sqrt(pi) +- 1e-12."""
    g = uniform_grid(0.0, 1.0, 1024)
    one = sample(PowerSum(0.0, ((1.0, 0.0),)), g)
    d = rl_derivative(one, 0.5)
    assert abs(float(d.values[-1]) - 1.0 / math.sqrt(math.pi)) <= 1e-3
    i = frac_integral(one, 0.5)
    assert abs(float(i.values[-1]) - 2.0 / math.sqrt(math.pi)) <= 1e-12


def test_03_kernel_coefficient_recovery():
    """c = 2 within 1% on 2*kernel + bump; c = 0 within 1e-3 both-sided."""
    g = uniform_grid(0.0, 1.0, 2048)
    u = sample(FunctionSum((PowerSum(0.0, ((2.0, -0.5),)), Bump(0.5, 0.25))), g)
    rep = check_ftwfc(u, 0.5)
    assert rep.passed and rep.residuals[0] <= 1e-2
    assert abs(rep.details["recovered_c"] - 2.0) <= 0.02

    smooth = Bump(0.5, 0.25)
    for side in (Side.LEFT, Side.RIGHT):
        rep = check_ftwfc(sample(smooth, g), 0.5, side)
        assert abs(rep.details["recovered_c"]) <= 1e-3


def test_04_weak_pairing_battery_and_control():
    """(u, closed-form derivative) residual <= 1e-3; v=0 fails >= 10x."""
    g = uniform_grid(0.0, 1.0, 2048)
    for f in (
        PowerSum(0.0, ((1.0, 0.0),)),
        PowerSum(0.0, ((1.0, 1.0),)),
        PowerSum(0.0, ((1.0, 1.3),)),
        PowerSum(0.0, ((1.0, -0.5),)),
    ):
        u = sample(f, g)
        v = sample(oracle_frac_derivative(f, 0.5, "left"), g)
        rep = check_weak_pairing(u, v, 0.5, tolerance=1e-3)
        assert rep.passed, f

    one = sample(PowerSum(0.0, ((1.0, 0.0),)), g)
    zero = sample(PowerSum(0.0, ((0.0, 0.0),)), g)
    control = check_weak_pairing(one, zero, 0.5)
    assert not control.passed
    assert max(control.residuals) >= 10.0 * control.tolerance


def test_05_integrability_threshold_for_the_kernel_norm():
    """||D^a 1||_p: finite limit for ap < 1, divergence rate for ap > 1."""
    # (0.25, 2): limit ((1-ap)^{-1} / Gamma(1-a)^p)^{1/p} = sqrt(2)/Gamma(.75)
    target = math.sqrt(2.0) / GAMMA_075
    g = uniform_grid(0.0, 1.0, 4096)
    one = sample(PowerSum(0.0, ((1.0, 0.0),)), g)
    d = rl_derivative(one, 0.25)
    value = lp_norm(d, 2.0)
    assert abs(value - target) <= 0.01 * target

    # (0.6, 2): the truncated norm must grow by >= 2^{(ap-1)/p} * 0.9
    # per doubling (the power actually attained is 2^{0.1})
    def truncated_norm(n: int) -> float:
        gn = uniform_grid(0.0, 1.0, n)
        dn = np.asarray(
            rl_derivative(sample(PowerSum(0.0, ((1.0, 0.0),)), gn), 0.6).values
        )[1:]
        return float(math.sqrt(np.trapezoid(dn**2, dx=gn.h)))

    norms = [truncated_norm(n) for n in (1024, 2048, 4096)]
    floor = 2.0 ** ((0.6 * 2 - 1.0) / 2.0) * 0.9
    for a, b in zip(norms, norms[1:]):
        assert b / a >= floor


def test_06_parseval_for_the_multiplier_derivative():
    """||spectral D^a u||_2 matches the weighted frequency moment, 1e-10."""
    for mu, s in ((0.0, 1.0), (0.5, 0.7), (-1.0, 1.3), (2.0, 0.5), (0.0, 2.0)):
        u = sample_line(Gaussian(mu, s), 16.0, 4096)
        d = spectral_derivative(u, 0.5)
        dx = u.grid.h
        lhs = math.sqrt(dx * float(np.sum(d.values[:-1] ** 2)))
        xi, uhat = discrete_fourier(u.values[:-1], u.grid.b)
        dxi = float(xi[1] - xi[0])
        rhs = math.sqrt(
            dxi / (2.0 * math.pi)
            * float(np.sum(np.abs(xi) * np.abs(uhat) ** 2))
        )
        assert abs(lhs - rhs) <= 1e-10 * rhs


def test_07_difference_quotient_to_spectral_ratio_is_constant():
    """Gagliardo^2 over frequency moment: same constant across 5 shapes."""
    shapes = (
        Gaussian(0.0, 1.0),
        Gaussian(0.7, 0.6),
        Gaussian(-0.5, 1.5),
        Bump(0.0, 2.0),
        FunctionSum((Gaussian(-1.0, 0.8), Gaussian(1.0, 0.8))),
    )
    ratios = []
    for f in shapes:
        u = sample_line(f, 16.0, 4096)
        ratios.append(
            gagliardo_seminorm(u, 0.5, 2.0) ** 2
            / weighted_spectral_integral(u, 1.0)
        )
    assert max(ratios) / min(ratios) <= 1.02


def test_08_difference_form_is_dominated_by_the_seminorm():
    """L1 norm of the offset-integral derivative <= (a/Gamma(1-a)) [u] 1.05."""
    alpha = 0.5
    c_alpha = alpha / math.gamma(1.0 - alpha)
    for f in TestBattery.line_default().members:
        u = sample_line(f, 12.0, 4096)
        lhs = lp_norm(marchaud_derivative(u, alpha), 1.0)
        rhs = c_alpha * gagliardo_seminorm(u, alpha, 1.0)
        assert lhs <= rhs * 1.05, f


def test_09_critical_exponent_is_dilation_invariant():
    """r = p*: ratio stable under lambda in {1,2,4,8} within 5%; r = 0.7 p*
    drifts monotonically."""
    rep = check_sobolev_inequality(
        TestBattery.line_default(), 0.5, 1.5, domain="line", n_line=2048
    )
    assert rep.passed
    assert rep.details["dilation_drift"] <= 0.05

    sub = check_sobolev_inequality(
        TestBattery.line_default(), 0.5, 1.5, domain="line", r=0.7 * 6.0,
        n_line=2048,
    )
    assert sub.passed
    assert sub.residuals[-1] == 0.0  # 0 entry == monotone decay confirmed


def test_10_mean_free_norm_dominated_by_the_derivative():
    """Three ratio batteries: bounded, <= 10% drift, held-out <= 1.5x max."""
    checks = canonical_checks()
    for name in ("poincare_kernel_subtracted", "poincare_mathring", "poincare_symmetric"):
        rep = checks[name]()
        assert rep.passed, name
        assert rep.details["max_ratio_drift"] <= 0.10
        assert math.isfinite(rep.details["battery_max"])
        assert rep.details["held_out_ratio"] <= 1.5 * rep.details["battery_max"]


def test_11_extension_operators():
    """Tail slope -(1+a) +- 0.05; interior equality 1e-12; exterior guard."""
    g = uniform_grid(0.0, 1.0, 2048)
    u = sample(Bump(0.2, 0.05), g)
    ambient = Grid(-1.0, 6.5, 15360)
    for alpha in (0.25, 0.5):
        _, rep = extend_trivial(u, alpha, 2.0, ambient)
        assert rep.passed
        assert abs(rep.details["tail_slope"] + (1.0 + alpha)) <= 0.05

    g1k = uniform_grid(0.0, 1.0, 1024)
    w = sample(PowerSum(0.0, ((1.0, -0.25),)), g1k)
    _, rep = extend_interior(w, 0.75, 2.0, (0.25, 0.75))
    assert rep.passed
    assert rep.residuals[0] <= 1e-12

    one = sample(PowerSum(0.0, ((1.0, 0.0),)), g1k)
    with pytest.raises(ValueError):
        extend_exterior(one, 0.6, 2.0, 5.0, Grid(-1.0, 2.0, 3072))
    _, rep = extend_exterior(one, 0.25, 2.0, 5.0, Grid(-1.0, 2.0, 3072))
    assert rep.passed  # norm bound with mu > p/(1 - alpha p)


def test_12_pointwise_control_above_the_critical_line():
    """alpha p > 1: Holder quotients finite and stable, traces bounded;
    alpha p <= 1 rejected."""
    g = uniform_grid(0.0, 1.0, 1024)
    members = TestBattery.bumps(g, 9).members + (PowerSum(0.0, ((1.0, -0.25),)),)
    rep = check_embedding_trace(members, 0.75, 2.0, g)
    assert rep.passed
    assert math.isfinite(rep.details["max_quotient"])
    assert math.isfinite(rep.details["max_trace_ratio"])

    with pytest.raises(ValueError):
        check_embedding_trace(members, 0.5, 2.0, g)


def test_13_integration_by_parts():
    """Residual <= 1e-3 on compliant pairs; violations rejected."""
    g = uniform_grid(0.0, 1.0, 2048)
    u = sample(Bump(0.4, 0.2), g)
    v = sample(Bump(0.6, 0.25), g)
    rep = check_ibp(u, v, 0.5, variant="one_sided_zero_trace")
    assert rep.passed and max(rep.residuals) <= 1e-3
    rep = check_ibp(u, v, 0.75, variant="symmetric")
    assert rep.passed and max(rep.residuals) <= 1e-3

    with pytest.raises(ValueError):
        check_ibp(u, v, 0.75, p=2.0, q=3.0, variant="symmetric")
    with pytest.raises(ValueError):
        check_ibp(u, v, 0.5, variant="symmetric")  # alpha p = 1
    with pytest.raises(ValueError):
        check_ibp(u, sample(PowerSum(0.0, ((1.0, 0.0),)), g), 0.5,
                  variant="one_sided_zero_trace")


def test_14_two_term_reconstruction_from_higher_order_data():
    """Rebuild D^alpha from order-beta data, residual <= 1e-2."""
    g = uniform_grid(0.0, 1.0, 2048)
    rep = check_inclusivity(sample(Bump(0.5, 0.25), g), 0.4, 0.7, grid=g)
    assert rep.passed
    assert rep.residuals[0] <= 1e-2


def test_15_suite_runs_clean_and_reproduces_the_golden_report(tmp_path):
    """suite all: exit 0 in <= 2 minutes, JSON report matching the golden.

    Matching means canonical, schema-valid JSON that equals the golden in
    every check, input, verdict and note, and in every computed number up
    to the roundoff allowance of ``golden_report``.
    """
    out = tmp_path / "suite.json"
    started = time.perf_counter()
    result = run_cli("suite", "all", "--json", str(out))
    elapsed = time.perf_counter() - started
    assert result.returncode == 0, result.stdout + result.stderr
    assert elapsed <= 120.0
    assert_reproduces_golden(out.read_text())
    reports = json.loads(out.read_text())
    assert all(rep["passed"] for rep in reports)
