"""Tests of the benchmark itself: names, self-time arithmetic, tracing hygiene."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
for path in (str(ROOT / "src"), str(BENCH)):
    if path not in sys.path:
        sys.path.insert(0, path)

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


class TestNames:
    def test_workloads_match(self):
        assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)

    def test_end_to_end_metrics_match(self):
        declared = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
        assert declared == run.END_TO_END
        assert "setup_s" in declared

    def test_per_layer_metrics_match(self):
        declared = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
        assert declared == run.layer_metrics()

    def test_check_names_are_the_canonical_suite(self):
        from fracsobolev.verify import canonical_checks

        assert tuple(canonical_checks()) == run.CHECKS

    def test_command_and_paths(self):
        assert SPEC["command"] == ["python3", "perfbench/run.py"]
        assert SPEC["paths"] == ["perfbench"]


class _Clock:
    """Deterministic clock: each reading advances by the next scripted step."""

    def __init__(self, steps):
        self.now = 0.0
        self.steps = iter(steps)

    def __call__(self):
        self.now += next(self.steps)
        return self.now


class TestSelfTime:
    def test_union_of_children_is_subtracted(self):
        # parent 0..10; children 1..3 and 2..5 overlap, 7..8 is apart; 12..13 is outside
        spans_ = [
            (0, None, "p", 0.0, 10.0),
            (1, 0, "c", 1.0, 3.0),
            (2, 0, "c", 2.0, 5.0),
            (3, 0, "c", 7.0, 8.0),
            (4, 0, "c", 9.5, 13.0),
        ]
        got = spans.self_times(spans_)
        assert got[0] == pytest.approx(10.0 - (4.0 + 1.0 + 0.5))
        assert got[1] == pytest.approx(2.0)
        assert got[4] == pytest.approx(3.5)

    def test_synthetic_nested_call(self):
        # readings: outer in @1, inner in @3, leaf in @4, leaf out @8,
        # inner out @9, inner in @11, inner out @12, outer out @16
        tracer = spans.Tracer(clock=_Clock([1, 2, 1, 4, 1, 2, 1, 4]))

        def leaf():
            return "leaf"

        leaf_t = tracer.wrap("core", "leaf", leaf)

        def inner(deep):
            return leaf_t() if deep else None

        inner_t = tracer.wrap("operators", "inner", inner)

        def outer():
            inner_t(True)
            inner_t(False)

        tracer.wrap("verify", "outer", outer)()
        self_s = tracer.self_seconds()
        assert self_s["core.leaf"] == pytest.approx(4.0)
        assert self_s["operators.inner"] == pytest.approx((6.0 - 4.0) + 1.0)
        assert self_s["verify.outer"] == pytest.approx(15.0 - 6.0 - 1.0)
        assert sum(self_s.values()) == pytest.approx(15.0)
        assert tracer.calls == {"verify.outer": 1, "operators.inner": 2, "core.leaf": 1}

    def test_recursion_adds_a_span_but_no_call(self):
        tracer = spans.Tracer()
        holder = {}

        def mirrored(values, side):
            return holder["fn"](values, "left") if side == "right" else values

        holder["fn"] = tracer.wrap("operators", "mirrored", mirrored, count_points=True)

        class Sample:
            def __init__(self, size):
                self.values = type("V", (), {"size": size})()

        holder["fn"](Sample(5), "right")
        assert len(tracer.spans) == 2
        assert tracer.calls["operators.mirrored"] == 1
        assert tracer.points["operators.mirrored"] == 5

    def test_raised_counts_each_exception_once_per_module(self):
        tracer = spans.Tracer()

        def bad():
            raise ValueError("no")

        bad_t = tracer.wrap("operators", "bad", bad)
        outer_t = tracer.wrap("operators", "outer", lambda: bad_t())
        with pytest.raises(ValueError):
            outer_t()
        assert tracer.raised == {"operators": 1}


class TestTracingHygiene:
    def test_suite_bytes_identical_and_originals_restored(self):
        import fracsobolev.cli as cli
        import fracsobolev.core as core
        import fracsobolev.operators as operators
        import fracsobolev.spaces as spaces
        import fracsobolev.verify as verify

        before = {
            "verify.frac_integral": verify.frac_integral,
            "spaces.frac_derivative": spaces.frac_derivative,
            "cli.sample": cli.sample,
            "cli.main": cli.main,
            "operators.rl_derivative": operators.rl_derivative,
            "Grid.nodes": core.Grid.__dict__["nodes"],
            "LineFunction.interp": core.LineFunction.__dict__["interp"],
        }
        plain = workloads.run_suite(verify)
        tracer = spans.Tracer()
        with tracer:
            assert verify.frac_integral is not before["verify.frac_integral"]
            assert core.Grid.__dict__["nodes"] is not before["Grid.nodes"]
            traced = workloads.run_suite(verify, tracer)
        after = {
            "verify.frac_integral": verify.frac_integral,
            "spaces.frac_derivative": spaces.frac_derivative,
            "cli.sample": cli.sample,
            "cli.main": cli.main,
            "operators.rl_derivative": operators.rl_derivative,
            "Grid.nodes": core.Grid.__dict__["nodes"],
            "LineFunction.interp": core.LineFunction.__dict__["interp"],
        }
        assert all(after[k] is before[k] for k in before)
        assert traced.blobs == plain.blobs
        assert plain.failed == traced.failed == 0
        assert tracer.calls["core.LineFunction.interp"] > 0
        assert tracer.calls["operators.frac_integral"] > 0


def test_refuses_to_run_without_package_source(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "suite", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
