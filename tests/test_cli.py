"""End-to-end command-line checks, run through subprocesses.

The golden file under ``tests/data`` pins the entire canonical suite:
every check, input, verdict and note exactly, and every computed number
to within the roundoff allowance of ``golden_report``.  Any drift in a
verification number beyond roundoff shows up here first.
"""

from __future__ import annotations

import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from golden_report import GOLDEN, SCHEMA, assert_reproduces_golden

import fracsobolev
from fracsobolev import core, operators, oracle, verify
from fracsobolev.cli import _csv_text, _read_csv, _write_csv, main
from fracsobolev.core import Grid, SampledFunction, Side


def run_python(*args: str, env_extra: dict | None = None) -> subprocess.CompletedProcess:
    """Run a child interpreter that imports the package this process tests."""
    src = str(Path(fracsobolev.__file__).resolve().parents[1])
    env = os.environ.copy()
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    env.update(env_extra or {})
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, timeout=300
    )


def run_cli(*args: str, env_extra: dict | None = None) -> subprocess.CompletedProcess:
    return run_python("-m", "fracsobolev.cli", *args, env_extra=env_extra)


# the one store that keeps the tables of each build function's last key;
# see package_state
KEPT_SLOTS = {("fracsobolev.core", "_plans")}


def package_state() -> dict[tuple[str, str], int]:
    """Size of every module-level container and ``functools`` cache in the
    package, except the kept slots of ``KEPT_SLOTS``, which a first call
    fills, and the interpreter's own ``__dunder__`` bookkeeping (such as
    the warnings registry)."""
    state = {}
    for module_name, module in sorted(sys.modules.items()):
        if not module_name.startswith("fracsobolev"):
            continue
        for attr, value in vars(module).items():
            if attr.startswith("__") or (module_name, attr) in KEPT_SLOTS:
                continue
            if isinstance(value, (dict, list, set)):
                state[module_name, attr] = len(value)
            elif hasattr(value, "cache_info"):
                state[module_name, attr] = value.cache_info().currsize
    return state


def read_rows(path: Path) -> dict[float, str]:
    rows = {}
    for line in path.read_text().splitlines():
        if line.startswith("#") or line == "x,value" or not line:
            continue
        x, _, v = line.partition(",")
        rows[float(x)] = v
    return rows


class TestComputeCommand:
    def test_derivative_of_a_constant(self, tmp_path):
        out = tmp_path / "d.csv"
        r = run_cli(
            "compute", "deriv", "--alpha", "0.5", "--side", "left",
            "--scheme", "rl", "--fn", "const:1", "--grid", "0,1,1024",
            "--out", str(out),
        )
        assert r.returncode == 0, r.stderr
        text = out.read_text()
        assert text.startswith("x,value\n")
        assert "# flagged: 0" in text
        rows = read_rows(out)
        # 1/sqrt(pi x) at x = 1, printed to 17 significant digits
        assert float(rows[1.0]) == pytest.approx(1.0 / math.sqrt(math.pi), abs=1e-3)
        assert rows[0.0] == "inf"
        assert rows[1.0] == "0.56418958354775628"

    def test_order_above_one_carries_the_endpoint_power(self):
        # D^0.5 1 from the right is (1 - x)^-0.5 / sqrt(pi); d/dx gives
        # (1 - x)^-1.5 / (2 sqrt(pi))
        r = run_cli("compute", "deriv", "--alpha", "1.5", "--side", "right",
                    "--fn", "const:1", "--grid", "0,1,64")
        assert r.returncode == 0, r.stderr
        assert "# right_power: 0.28209479177387814,-1.5\n" in r.stdout

    def test_equal_exponents_give_one_function(self, capsys):
        # three spellings of 3 x^-1/4: the integral's exact value at node 1
        # is 3 Gamma(3/4) / Gamma(5/4) h^(1/4) = 0.71698...
        args = ["compute", "integral", "--alpha", "0.5", "--grid", "0,1,1024", "--fn"]
        outs = set()
        for spec in ("pow:a=0;terms=3*-0.25", "pow:a=0;terms=1*-0.25,2*-0.25",
                     "pow:a=0;terms=1*-0.25+pow:a=0;terms=2*-0.25"):
            assert main([*args, spec]) == 0
            outs.add(capsys.readouterr().out)
        assert len(outs) == 1
        assert "\n0.0009765625,0.7169831962291876\n" in outs.pop()

    def test_cancelled_power_records_nothing(self, capsys):
        # x^-1/4 - x^-1/4 + x is x, whose D^0.5 is 2 sqrt(x / pi)
        assert main(["compute", "deriv", "--alpha", "0.5", "--grid", "0,1,1024",
                     "--fn", "pow:a=0;terms=1*-0.25,-1*-0.25,1*1"]) == 0
        out = capsys.readouterr().out
        assert "left_power" not in out
        node = float(out.split("\n0.0009765625,")[1].split("\n")[0])
        assert node == pytest.approx(2.0 * math.sqrt(2.0**-10 / math.pi), rel=1e-13)

    @pytest.mark.parametrize("domain, scheme", [
        (("--grid", "0,1,64"), "rl"),
        (("--line", "12,256"), "spectral"),
    ])
    def test_default_scheme(self, domain, scheme, capsys):
        args = ["compute", "deriv", "--alpha", "0.5", "--fn", "gauss:mu=0;s=1", *domain]
        assert main(args) == 0
        default = capsys.readouterr().out
        assert main([*args, "--scheme", scheme]) == 0
        assert capsys.readouterr().out == default

    def test_integral_of_a_constant(self, tmp_path):
        out = tmp_path / "i.csv"
        r = run_cli(
            "compute", "integral", "--alpha", "0.5", "--fn", "const:1",
            "--grid", "0,1,1024", "--out", str(out),
        )
        assert r.returncode == 0, r.stderr
        rows = read_rows(out)
        # 2 sqrt(x/pi) at x = 1
        assert float(rows[1.0]) == pytest.approx(2.0 / math.sqrt(math.pi), abs=1e-12)

    def test_stdout_matches_file_output(self, tmp_path):
        out = tmp_path / "d.csv"
        args = ("compute", "deriv", "--alpha", "0.5", "--fn", "const:1",
                "--grid", "0,1,64")
        r_file = run_cli(*args, "--out", str(out))
        r_pipe = run_cli(*args)
        assert r_file.returncode == r_pipe.returncode == 0
        assert r_pipe.stdout == out.read_text()

    def test_round_trip_is_bit_identical(self, tmp_path):
        first = tmp_path / "a.csv"
        run_cli("compute", "deriv", "--alpha", "0.5", "--fn", "const:1",
                "--grid", "0,1,256", "--out", str(first))
        u = _read_csv(str(first))
        second = tmp_path / "b.csv"
        _write_csv(str(second), u)
        assert first.read_bytes() == second.read_bytes()
        # and the parsed samples reproduce the original floats exactly
        again = _read_csv(str(second))
        assert np.array_equal(
            np.asarray(u.values), np.asarray(again.values), equal_nan=True
        )
        assert u.left_power == again.left_power

    def test_csv_functions_feed_back_into_compute(self, tmp_path):
        # integrate the computed derivative: I^0.5 D^0.5 1 should return
        # the constant away from the base node
        d = tmp_path / "d.csv"
        run_cli("compute", "deriv", "--alpha", "0.5", "--fn", "const:1",
                "--grid", "0,1,512", "--out", str(d))
        back = tmp_path / "back.csv"
        r = run_cli("compute", "integral", "--alpha", "0.5", "--fn", str(d),
                    "--out", str(back))
        assert r.returncode == 0, r.stderr
        rows = read_rows(back)
        assert float(rows[0.5]) == pytest.approx(1.0, abs=1e-3)
        assert float(rows[1.0]) == pytest.approx(1.0, abs=1e-3)

    def test_marchaud_scheme_on_the_line(self, tmp_path):
        out = tmp_path / "m.csv"
        r = run_cli("compute", "deriv", "--alpha", "0.5", "--scheme", "marchaud",
                    "--fn", "gauss:mu=0;s=1", "--line", "12,2048", "--out", str(out))
        assert r.returncode == 0, r.stderr
        rows = read_rows(out)
        assert len(rows) == 2049

    def test_default_grid_honours_the_environment(self):
        r = run_cli("compute", "deriv", "--alpha", "0.5", "--fn", "const:1",
                    env_extra={"FRAC_DEFAULT_N": "32"})
        assert r.returncode == 0, r.stderr
        data_lines = [
            line for line in r.stdout.splitlines()
            if line and not line.startswith("#") and line != "x,value"
        ]
        assert len(data_lines) == 33

    def test_default_grid_anchors_the_base_point(self, monkeypatch, capsys):
        # const:1 from the right is anchored at b of the grid it is sampled on
        monkeypatch.delenv("FRAC_DEFAULT_N", raising=False)
        args = ["compute", "integral", "--alpha", "0.5", "--side", "right", "--fn", "const:1"]
        assert main(args) == 0
        default = capsys.readouterr().out
        assert main([*args, "--grid", "0,1,2048"]) == 0
        assert capsys.readouterr().out == default


class TestNormCommand:
    def test_gagliardo_norm_of_the_unit_gaussian(self, tmp_path):
        r = run_cli("norm", "--space", "gagliardo", "--alpha", "0.5", "--p", "2",
                    "--fn", "gauss:mu=0;s=1", "--line", "16,4096")
        assert r.returncode == 0, r.stderr
        value = float(r.stdout.strip())
        assert value == pytest.approx(2.8370174165894184, rel=1e-9)
        # exact: (||u||_2^2 + 2 pi)^{1/2} = (sqrt(pi) + 2 pi)^{1/2}; the grid
        # misses the offsets below h/2 (gagliardo_small_offset_bound)
        assert value == pytest.approx(2.838245788878247, rel=5e-4)

    def test_json_sidecar(self, tmp_path):
        out = tmp_path / "norm.json"
        r = run_cli("norm", "--space", "one_sided_left", "--alpha", "0.25",
                    "--fn", "const:1", "--grid", "0,1,512", "--json", str(out))
        assert r.returncode == 0, r.stderr
        payload = json.loads(out.read_text())
        assert payload["space"] == "one_sided_left"
        assert payload["value"] == pytest.approx(float(r.stdout.strip()))

    def test_warnings_name_only_the_command_line(self):
        # s = 3 has not decayed at +-16 (edge about 7e-7 of the peak)
        r = run_cli("norm", "--space", "fourier", "--alpha", "0.5",
                    "--fn", "gauss:mu=0;s=3", "--line", "16,1024")
        assert r.returncode == 0, r.stderr
        named = re.findall(r"^(.+):\d+: \w*Warning: ", r.stderr, flags=re.MULTILINE)
        assert named and all(Path(name).name == "cli.py" for name in named), r.stderr
        assert "<frozen runpy>" not in r.stderr

    def test_divergence_above_order_one_is_a_result(self):
        # x^2 on (0, 1) at order 1.5 from the right: u(1) = 1 leaves t^-1.5
        r = run_cli("norm", "--space", "one_sided_right", "--alpha", "1.5",
                    "--fn", "pow:a=0;terms=1*2", "--grid", "0,1,512")
        assert r.returncode == 0, r.stderr
        assert r.stdout == "inf\n"
        named = re.findall(r"^(.+):\d+: \w*Warning: ", r.stderr, flags=re.MULTILINE)
        assert [Path(name).name for name in named] == ["cli.py"], r.stderr
        assert "diverges" in r.stderr

    def test_unbounded_sup_norm_is_inf(self, capsys):
        # D^0.75 1 = t^-0.75 / Gamma(0.25) has no bound near 0
        with pytest.warns(UserWarning, match="without bound"):
            code = main(["norm", "--space", "one_sided_left", "--alpha", "0.75",
                         "--p", "inf", "--fn", "const:1", "--grid", "0,1,1024"])
        assert code == 0
        assert capsys.readouterr().out == "inf\n"

    def test_a_two_cell_fourier_window_is_a_usage_error(self):
        # the moment of 2 samples came out complex and the command ended in a
        # TypeError traceback, with the exit code of a failed verification
        r = run_cli("norm", "--space", "fourier", "--alpha", "0.5", "--p", "2",
                    "--fn", "gauss:mu=0;s=1", "--line", "16,2")
        assert r.returncode == 2
        assert r.stdout == ""
        assert r.stderr.splitlines() == [
            "frac: Fourier moments need a line window of at least 3 cells, got 2: "
            "their kink correction at xi = 0 reads 3 distinct frequencies"]

    @pytest.mark.xfail(strict=True, reason=(
        "FOUND: right-side operators reject data flagged at their far end (ROADMAP item 15)"))
    def test_symmetric_norm_of_a_left_kernel(self, capsys):
        # x^-1/2 at order 0.4: both derivatives grow like x^-0.9 at 0, which
        # is integrable at p = 1; today the command exits 2
        code = main(["norm", "--space", "symmetric", "--alpha", "0.4", "--p", "1",
                     "--fn", "kappa:alpha=0.5;side=left"])
        assert code == 0, capsys.readouterr().err

    def test_unknown_space_is_a_usage_error(self):
        r = run_cli("norm", "--space", "besov", "--alpha", "0.5",
                    "--fn", "const:1")
        assert r.returncode == 2
        assert "besov" in r.stderr

    def test_explicit_zero_p_is_not_the_default(self, capsys):
        code = main(["norm", "--space", "one_sided_left", "--alpha", "0.3", "--p", "0",
                     "--fn", "const:1", "--grid", "0,1,256"])
        assert code == 2
        assert "p must lie in [1, inf], got 0.0" in capsys.readouterr().err


class TestVerifyCommand:
    def test_named_check_without_overrides(self, tmp_path):
        out = tmp_path / "r.json"
        r = run_cli("verify", "w1p_consistency", "--json", str(out))
        assert r.returncode == 0, r.stderr
        assert r.stdout.startswith("PASS w1p_consistency")
        report = json.loads(out.read_text())
        jsonschema.validate(report, SCHEMA)

    def test_kernel_coefficient_recovery_through_the_cli(self, tmp_path):
        out = tmp_path / "r.json"
        r = run_cli(
            "verify", "ftwfc", "--alpha", "0.5",
            "--fn", "pow:a=0;terms=2*-0.5 + bump:c=0.5;r=0.25",
            "--grid", "0,1,2048", "--json", str(out),
        )
        assert r.returncode == 0, r.stderr
        report = json.loads(out.read_text())
        jsonschema.validate(report, SCHEMA)
        assert report["passed"] is True
        assert report["recovered_c"] == pytest.approx(2.0, rel=0.01)

    def test_kernel_function_spec(self, tmp_path):
        out = tmp_path / "r.json"
        r = run_cli("verify", "ftwfc", "--alpha", "0.5",
                    "--fn", "kappa:alpha=0.5;side=left", "--grid", "0,1,2048",
                    "--json", str(out))
        assert r.returncode == 0, r.stderr
        report = json.loads(out.read_text())
        assert report["recovered_c"] == pytest.approx(1.0, abs=1e-9)

    def test_failed_verification_exits_one(self, tmp_path):
        r = run_cli("verify", "ftwfc", "--alpha", "0.5",
                    "--fn", "bump:c=0.5;r=0.25", "--grid", "0,1,512",
                    "--tolerance", "1e-18")
        assert r.returncode == 1
        assert r.stdout.startswith("FAIL")

    def test_explicit_zero_tolerance_is_not_the_default(self, capsys):
        code = main(["verify", "ftwfc", "--alpha", "0.5", "--fn", "const:1",
                     "--grid", "0,1,256", "--tolerance", "0"])
        assert code == 2
        assert "tolerance must be positive, got 0.0" in capsys.readouterr().err

    def test_json_reports_are_deterministic(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for path in (a, b):
            r = run_cli("verify", "inclusivity", "--alpha", "0.4", "--beta", "0.7",
                        "--fn", "bump:c=0.5;r=0.25", "--grid", "0,1,1024",
                        "--json", str(path))
            assert r.returncode == 0, r.stderr
        assert a.read_bytes() == b.read_bytes()

    def test_unknown_check_is_a_usage_error(self):
        r = run_cli("verify", "bogus_theorem")
        assert r.returncode == 2
        assert "bogus_theorem" in r.stderr

    def test_precondition_violation_is_a_usage_error(self):
        # density in piecewise mode needs alpha p < 1
        r = run_cli("verify", "density", "--alpha", "0.6", "--p", "2",
                    "--mode", "piecewise_constant", "--fn", "step:c=0.5",
                    "--grid", "0,1,512")
        assert r.returncode == 2

    def test_config_file_supplies_defaults(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"alpha": 0.5, "grid": "0,1,1024"}))
        r = run_cli("verify", "ftwfc", "--fn", "kappa:alpha=0.5;side=left",
                    "--config", str(cfg))
        assert r.returncode == 0, r.stderr

    def test_flags_override_the_config(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"tolerance": 1e-18, "alpha": 0.5,
                                   "grid": "0,1,512"}))
        # the config alone would fail; the explicit flag must win
        r = run_cli("verify", "ftwfc", "--fn", "bump:c=0.5;r=0.25",
                    "--config", str(cfg), "--tolerance", "1e-2")
        assert r.returncode == 0, r.stderr

    @pytest.mark.parametrize("flag, value", [
        ("--alpha", "0.5"), ("--p", "3"), ("--side", "right"), ("--grid", "0,1,512"),
        ("--line", "8,512"), ("--beta", "0.7"), ("--mode", "smooth"), ("--tolerance", "1e-9"),
    ])
    def test_canonical_run_rejects_flags_it_does_not_use(self, flag, value, capsys):
        code = main(["verify", "ibp_zero_trace", flag, value])
        assert code == 2
        err = capsys.readouterr().err
        assert f"verify ibp_zero_trace without --fn does not use {flag}\n" in err

    def test_config_keys_are_checked_like_flags(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"tolerance": 1e-9}))
        assert main(["verify", "ibp_zero_trace", "--config", str(cfg)]) == 2
        assert "does not use --tolerance" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, table", [
        (["verify", "ibp_zero_trace"], {"check": "ftwfc", "handler": 1}),
        (["suite", "all"], {"target": "x"}),
    ])
    def test_config_keys_name_long_flags_only(self, argv, table, tmp_path, capsys):
        # a positional or internal attribute is not a flag a config may set
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(table))
        assert main([*argv, "--config", str(cfg)]) == 2
        assert "does not match any flag" in capsys.readouterr().err

    def test_density_rejects_a_tolerance(self, capsys):
        code = main(["verify", "density", "--alpha", "0.5", "--fn", "bump:c=0.5;r=0.3",
                     "--grid", "0,1,512", "--tolerance", "1e-30"])
        assert code == 2
        assert "verify density with --fn does not use --tolerance" in capsys.readouterr().err

    def test_canonical_only_check_does_not_take_a_function(self, capsys):
        code = main(["verify", "poincare_mathring", "--fn", "const:1"])
        assert code == 2
        err = capsys.readouterr().err
        assert "verify 'poincare_mathring' does not take --fn; run it without flags" in err

    def test_density_needs_a_function(self, capsys):
        assert main(["verify", "density"]) == 2
        assert "verify density needs --fn" in capsys.readouterr().err

    def test_missing_config_is_an_io_error(self):
        r = run_cli("verify", "ftwfc", "--fn", "const:1",
                    "--config", "/no/such/config.json")
        assert r.returncode == 3


class TestSuiteCommand:
    def test_all_checks_pass_and_match_the_golden_report(self, tmp_path):
        out = tmp_path / "suite.json"
        r = run_cli("suite", "all", "--json", str(out))
        assert r.returncode == 0, r.stderr
        lines = r.stdout.splitlines()
        assert lines[-1] == "18 passed, 0 failed, 18 total"
        assert all(line.startswith("PASS") for line in lines[:-1])
        assert_reproduces_golden(out.read_text())

    def test_kept_kernel_plans_give_the_bytes_of_fresh_ones(self, tmp_path, monkeypatch):
        """The suite report is the same whether kernel plans, Fourier tables
        and spectral symbols are kept or built afresh for every call, with
        the store cleared before every check; the only state a pass leaves
        behind is the kept store, one key per build function, and each held
        value is a function of its key alone."""
        builds = []
        build = operators._Plan.build.__func__
        canonical = verify.canonical_checks

        def counted(cls, k, n, base=None):
            builds.append(n)
            return build(cls, k, n, base)

        def cleared_checks():
            def cleared(runner):
                def run():
                    core._plans.clear()
                    return runner()
                return run
            return {name: cleared(run) for name, run in canonical().items()}

        monkeypatch.setattr(operators._Plan, "build", classmethod(counted))
        before = package_state()
        reports, counts = [], []
        passes = (
            (cleared_checks, lambda kind, *key: kind(*key)),  # keeps nothing
            (canonical, core._plan),
        )
        for checks, plan in passes:
            monkeypatch.setattr(verify, "canonical_checks", checks)
            monkeypatch.setattr(operators, "_plan", plan)
            monkeypatch.setattr(core, "_plan", plan)
            core._plans.clear()
            builds.clear()
            out = tmp_path / f"{checks.__name__}.json"
            assert main(["suite", "all", "--json", str(out)]) == 0
            reports.append(out.read_bytes())
            counts.append(len(builds))
        assert reports[0] == reports[1]
        # the second pass reused plans, and kept nothing outside the store
        assert counts[1] < counts[0]
        assert package_state() == before
        # one key per plan kind; the Fourier tables and both sides' symbols
        # of one key
        kinds = {operators._product_plan, operators._slope_plan, operators._gl_plan,
                 operators._marchaud_plan, core._fourier_plan, core._symbol_plan}
        assert core._plans and set(core._plans) <= kinds
        fourier_key, tables = core._plans[core._fourier_plan]
        assert len(fourier_key) == 2 and len(tables) == 3
        assert set(core._plans[core._symbol_plan][1]) == set(Side)
        for kind, (key, held) in core._plans.items():
            fresh = kind(*key)
            if isinstance(held, operators._Plan):
                assert [level[:3] for level in held.levels] == [level[:3] for level in fresh.levels]
                held, fresh = held.arrays(), fresh.arrays()
            elif isinstance(held, dict):
                held, fresh = [held[side] for side in Side], [fresh[side] for side in Side]
            pairs = zip(held, fresh, strict=True)
            assert all(np.array_equal(a, b) for a, b in pairs)

    def test_reports_validate_against_the_schema(self):
        reports = json.loads(GOLDEN.read_text())
        assert len(reports) == 18
        for report in reports:
            jsonschema.validate(report, SCHEMA)

    def test_unknown_target_is_a_usage_error(self):
        r = run_cli("suite", "some")
        assert r.returncode == 2


class TestIoBehaviour:
    @pytest.mark.parametrize("argv, command", [
        (["compute", "deriv", "--alpha", "0.5"], "compute deriv"),
        (["norm", "--space", "gagliardo", "--alpha", "0.5"], "norm"),
    ])
    def test_a_missing_function_is_a_usage_error(self, argv, command, capsys):
        assert main(argv) == 2
        assert capsys.readouterr().err == f"frac: {command} needs --fn\n"

    @pytest.mark.parametrize("argv", [
        ["compute", "deriv", "--alpha", "0.5"],
        ["norm", "--space", "one_sided_left", "--alpha", "0.5"],
        ["verify", "ftwfc", "--alpha", "0.5"],
    ])
    def test_a_csv_input_carries_its_own_grid(self, argv, tmp_path, capsys):
        csv = tmp_path / "t16.csv"
        assert main(["compute", "deriv", "--alpha", "0.5", "--fn", "const:1",
                     "--grid", "0,1,16", "--out", str(csv)]) == 0
        assert main([*argv, "--fn", str(csv), "--grid", "0,1,4096"]) == 2
        assert "CSV input carries its own grid; drop --grid/--line" in capsys.readouterr().err

    def test_unwritable_output_exits_three(self):
        r = run_cli("compute", "deriv", "--alpha", "0.5", "--fn", "const:1",
                    "--grid", "0,1,64", "--out", "/no/such/dir/out.csv")
        assert r.returncode == 3
        assert "cannot write" in r.stderr

    def test_missing_csv_input_exits_three(self):
        r = run_cli("compute", "deriv", "--alpha", "0.5",
                    "--fn", "/no/such/input.csv")
        assert r.returncode == 3

    def test_no_temp_files_left_behind(self, tmp_path):
        out = tmp_path / "d.csv"
        run_cli("compute", "deriv", "--alpha", "0.5", "--fn", "const:1",
                "--grid", "0,1,64", "--out", str(out))
        leftovers = [p for p in tmp_path.iterdir() if p.name != "d.csv"]
        assert leftovers == []

    def test_malformed_grid_is_a_usage_error(self):
        for bad in ("0,1", "0,1,abc", "1,0,64"):
            r = run_cli("compute", "deriv", "--alpha", "0.5", "--fn", "const:1",
                        "--grid", bad)
            assert r.returncode == 2, bad

    def test_in_process_entry_point_matches_subprocess(self, tmp_path, capsys):
        # the console script calls main(); exercise it without a subprocess
        code = main(["verify", "ftwfc", "--alpha", "0.5",
                     "--fn", "kappa:alpha=0.5;side=left", "--grid", "0,1,512"])
        assert code == 0
        assert capsys.readouterr().out.startswith("PASS fundamental_theorem")


class TestColdStart:
    """``cli`` imports library modules only inside the commands that run them."""

    @pytest.mark.parametrize("args, code", [
        (("-c", "import fracsobolev.cli"), 0),
        (("-m", "fracsobolev.cli", "--version"), 0),
        (("-m", "fracsobolev.cli", "--help"), 0),
        (("-m", "fracsobolev.cli", "compute", "deriv", "--fn", "const:1"), 2),
    ])
    def test_start_up_and_usage_errors_load_no_numpy(self, args, code):
        r = run_python("-X", "importtime", *args)
        assert r.returncode == code, r.stderr
        imported = re.findall(r"^import time:.*\|\s*(\S+)$", r.stderr, flags=re.MULTILINE)
        assert "fracsobolev" in imported
        assert [m for m in imported if m.partition(".")[0] == "numpy"] == []

    @pytest.mark.parametrize("argv, modules", [
        (["compute", "deriv", "--alpha", "0.5", "--fn", "const:1", "--grid", "0,1,64"],
         ["cli", "core", "operators", "oracle"]),
        (["norm", "--space", "one_sided_left", "--alpha", "0.5", "--fn", "const:1",
          "--grid", "0,1,64"],
         ["cli", "core", "operators", "oracle", "spaces"]),
        (["verify", "ftwfc"], ["cli", "core", "operators", "oracle", "spaces", "verify"]),
    ])
    def test_each_command_loads_the_modules_it_runs(self, argv, modules):
        code = (
            "import sys; from fracsobolev import cli; "
            f"rc = cli.main({argv!r}); "
            "print(rc, sorted(m for m in sys.modules if m.startswith('fracsobolev.')))"
        )
        r = run_python("-c", code)
        assert r.returncode == 0, r.stderr
        assert r.stdout.splitlines()[-1] == f"0 {[f'fracsobolev.{m}' for m in modules]}"

    def test_importing_the_cli_loads_no_scipy(self):
        # the package does not use scipy; importing it at start-up took
        # most of a short command's time
        code = (
            "import fracsobolev.cli, sys; "
            "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
        )
        r = run_python("-c", code)
        assert r.returncode == 0, r.stderr
        assert r.stdout.strip() == "[]"

    def test_a_fourier_norm_loads_no_scipy(self):
        # the zeta function of the kink correction is numpy-only
        code = (
            "import sys; from fracsobolev import cli; "
            "rc = cli.main(['norm', '--space', 'fourier', '--alpha', '0.5', "
            "'--fn', 'gauss:mu=0;s=1', '--line', '8,1024']); "
            "print(rc, sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
        )
        r = run_python("-c", code)
        assert r.returncode == 0, r.stderr
        assert r.stdout.strip().splitlines()[-1] == "0 []"


class TestCsvFormat:
    def test_singular_markers_and_metadata_survive(self, tmp_path):
        g = Grid(0.0, 1.0, 4)
        u = SampledFunction(
            g, np.array([math.inf, 2.0, 3.0, 4.0, 5.0]), ((1.5, -0.5),), ()
        )
        text = _csv_text(u)
        assert text.splitlines()[0] == "x,value"
        assert "# flagged: 0" in text
        assert "# left_power: 1.5,-0.5" in text
        path = tmp_path / "u.csv"
        path.write_text(text)
        v = _read_csv(str(path))
        assert v.left_power == (1.5, -0.5)
        assert math.isinf(v.values[0])
        assert list(v.values[1:]) == [2.0, 3.0, 4.0, 5.0]

    def test_a_single_power_line_reads_as_a_one_term_record(self, tmp_path):
        path = tmp_path / "one.csv"
        path.write_text("x,value\n# flagged: 2\n# right_power: 2,-0.25\n0,1\n0.5,2\n1,inf\n")
        u = _read_csv(str(path))
        assert u.right_terms == ((2.0, -0.25),) and u.left_terms == ()
        assert u.right_power == (2.0, -0.25)

    @pytest.mark.parametrize("n", [1000, 2000])
    @pytest.mark.parametrize("side", [Side.LEFT, Side.RIGHT])
    def test_a_multi_term_record_has_one_answer(self, tmp_path, side, n):
        # x^-1/2 - 2 x^-1/4 as one power sum and as a sum of two, each
        # sampled and read back from its CSV: one record, one set of samples,
        # one output of each operator
        terms = ((1.0, -0.5), (-2.0, -0.25))
        anchor = 0.0 if side is Side.LEFT else 1.0
        parts = tuple(oracle.PowerSum(anchor, (term,), side) for term in terms)
        g = Grid(0.0, 1.0, n)
        samples = []
        for k, f in enumerate((oracle.PowerSum(anchor, terms, side), oracle.FunctionSum(parts))):
            u = oracle.sample(f, g)
            path = tmp_path / f"{k}.csv"
            path.write_text(_csv_text(u))
            assert _csv_text(u).count(f"# {side.value}_power: ") == 2
            samples += [u, _read_csv(str(path))]
        first = samples[0]
        assert (first.left_terms or first.right_terms) == terms
        for u in samples:
            assert (u.left_terms, u.right_terms) == (first.left_terms, first.right_terms)
            assert np.array_equal(u.values, first.values)
            for op in (operators.frac_integral, operators.rl_derivative):
                assert np.array_equal(op(u, 0.5, side).values, op(first, 0.5, side).values)

    def test_nonuniform_spacing_is_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x,value\n0.0,1.0\n0.5,2.0\n0.7,3.0\n")
        with pytest.raises(ValueError, match="uniform"):
            _read_csv(str(path))

    def test_seventeen_significant_digits(self):
        g = Grid(0.0, 1.0, 2)
        u = SampledFunction(g, np.array([0.1, 1.0 / 3.0, 2.0 / 3.0]))
        text = _csv_text(u)
        assert "0.33333333333333331" in text
        assert "0.66666666666666663" in text
