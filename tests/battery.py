"""Gagliardo verdicts against theory on a battery of rough and smooth data.

Each call samples one family member on ``Grid(0, 1, n)``, takes
``gagliardo_seminorm(u, alpha, p)`` with every warning recorded, and sorts
the result against theory.  By the Besov characterisation (Di
Nezza-Palatucci-Valdinoci 2012) the seminorm is finite iff ``alpha p < s``,
with ``s`` the exponent of ``omega_p(t)^p = int |u(x+t) - u(x)|^p dx ~ t^s``:

* ``s = 1`` for the step ``Step(0.5, 1)``;
* ``s = p`` for the bump ``Bump(0.5, 0.3)`` and ``sin 3x``;
* ``s = min(p, beta p + 1)`` for the cusps ``|x - 0.43|^beta`` and the base
  powers ``x^beta``.

Every call is one of three outcomes, from the value it returns: ``agree``,
``inf_where_finite`` or ``finite_where_inf``.  ``not_checked`` counts, among
them, the finite values returned with the warning that divergence was not
checked, and ``warned`` those that raised any warning.  The counts per
(family, n, p), their totals and the calls that disagree with theory go
under ``--label`` in the JSON file ``--out``, with the path the package was
imported from; labels already in the file are kept, so one file holds two
source trees side by side::

    PYTHONPATH=src python tests/battery.py --label change
    PYTHONPATH=/path/to/other/src python tests/battery.py --label parent

The full battery is 15 families x 4 n x 4 p x 20 alpha = 4800 calls and
runs in about half a minute; it is deterministic.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import warnings
from collections import Counter
from pathlib import Path

import numpy as np

import fracsobolev
from fracsobolev.core import Grid, SampledFunction
from fracsobolev.oracle import Bump, Step, sample
from fracsobolev.spaces import gagliardo_seminorm

NS = (512, 1022, 1024, 2048)
PS = (1.0, 2.0, 3.0, 6.0)
ALPHAS = tuple(round(0.05 * k, 2) for k in range(1, 21))
BETAS = (0.05, 0.1, 0.2, 0.3, 0.5, 0.7)
OUTCOMES = ("agree", "inf_where_finite", "finite_where_inf", "not_checked", "warned")


def families(g: Grid):
    """``(name, samples, s)`` with ``s(p)`` the theory's decay exponent."""
    x = g.nodes
    yield "step", sample(Step(0.5, 1.0), g), lambda p: 1.0
    yield "bump", sample(Bump(0.5, 0.3), g), lambda p: p
    yield "sin3x", SampledFunction(g, np.sin(3.0 * x)), lambda p: p
    for beta in BETAS:
        s = lambda p, beta=beta: min(p, beta * p + 1.0)
        yield f"cusp{beta:g}", SampledFunction(g, np.abs(x - 0.43) ** beta), s
        yield f"base{beta:g}", SampledFunction(g, x**beta), s


def outcome(value: float, theory_finite: bool) -> str:
    if math.isfinite(value) == theory_finite:
        return "agree"
    return "finite_where_inf" if math.isfinite(value) else "inf_where_finite"


def run(ns=NS, ps=PS, alphas=ALPHAS) -> dict:
    """Counts per ``family/n/p``, their totals over all calls and per ``n``,
    and every call that does not agree with theory."""
    counts: dict[str, Counter] = {}
    disagree = []
    for n in ns:
        for name, u, s in families(Grid(0.0, 1.0, n)):
            for p in ps:
                key = counts.setdefault(f"{name}/n={n}/p={p:g}", Counter())
                for alpha in alphas:
                    with warnings.catch_warnings(record=True) as rec:
                        warnings.simplefilter("always")
                        value = gagliardo_seminorm(u, alpha, p)
                    messages = [str(w.message) for w in rec]
                    verdict = outcome(value, alpha * p < s(p))
                    key[verdict] += 1
                    key["not_checked"] += any("not checked" in m for m in messages)
                    key["warned"] += bool(messages)
                    if verdict != "agree":
                        disagree.append(f"{name} n={n} p={p:g} alpha={alpha:g} {verdict}")
    def totals(keys) -> dict[str, int]:
        total = sum((counts[key] for key in keys), Counter())
        return {k: total[k] for k in OUTCOMES}

    return {
        "fracsobolev": os.path.relpath(fracsobolev.__file__),
        "calls": len(counts) * len(alphas),
        "totals": totals(counts),
        "totals_by_n": {n: totals(k for k in counts if f"/n={n}/" in k) for n in ns},
        "counts": {key: {k: c[k] for k in OUTCOMES} for key, c in counts.items()},
        "disagree": disagree,
    }


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--label", required=True, help="key of this run in the file")
    parser.add_argument("--out", type=Path, default=Path("BATTERY_gagliardo.json"))
    args = parser.parse_args(argv)
    runs = json.loads(args.out.read_text()) if args.out.exists() else {}
    runs[args.label] = run()
    args.out.write_text(json.dumps(runs, indent=1, sort_keys=True) + "\n")
    print(args.label, runs[args.label]["totals"])


if __name__ == "__main__":
    main()
