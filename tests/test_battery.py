"""The Gagliardo battery runner keeps working; its counts are not asserted."""

from __future__ import annotations

import json

import battery


def test_subset_sorts_every_call():
    result = battery.run(ns=(64,), ps=(1.0, 2.0), alphas=(0.25, 0.75))
    totals = result["totals"]
    assert result["calls"] == 15 * 2 * 2
    assert totals["agree"] + totals["inf_where_finite"] + totals["finite_where_inf"] == 60
    assert totals == result["totals_by_n"][64]
    assert len(result["disagree"]) == 60 - totals["agree"]
    assert result["fracsobolev"].endswith("__init__.py")
    assert battery.run(ns=(64,), ps=(1.0, 2.0), alphas=(0.25, 0.75)) == result


def test_main_keeps_the_other_labels(tmp_path, monkeypatch):
    out = tmp_path / "battery.json"
    out.write_text(json.dumps({"parent": {"calls": 1}}))
    monkeypatch.setattr(battery, "run", lambda: {"calls": 2, "totals": {}})
    battery.main(["--label", "change", "--out", str(out)])
    assert json.loads(out.read_text()) == {"parent": {"calls": 1}, "change": {"calls": 2, "totals": {}}}
