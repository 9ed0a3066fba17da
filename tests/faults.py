"""Negative controls: one fault per canonical check that must make it fail.

A check that passes is only evidence if the same check can also fail.
:func:`inject` replaces one name in :mod:`fracsobolev.verify`'s namespace
with a wrapper that changes what the name returns by one of three faults:

* ``scale``: multiply the output by ``size``;
* ``shift``: add ``size`` times the output's largest finite magnitude;
* ``floor``: add ``size`` times the first call's output to every later call.

A fault applies only to the calls whose arguments satisfy ``when``, which
receives them bound to the wrapped function's parameter names.  The
library is untouched: the patch lives in a ``monkeypatch`` context and no
check carries a fault parameter.

:data:`FAULTS` gives each name in ``canonical_checks()`` the faults that
make its canonical run report ``passed = False``.  The comment on each row
is the worst residual over its tolerance, clean and then faulted.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from fracsobolev import verify
from fracsobolev.core import Side


@dataclass(frozen=True)
class Fault:
    """Change what ``fracsobolev.verify.<name>`` returns when ``when`` holds."""

    name: str
    kind: str
    size: float
    when: Callable[[dict], bool] = lambda args: True


def _largest(values) -> float:
    v = np.abs(np.asarray(values, dtype=float))
    return float(np.max(v[np.isfinite(v)]))


def _faulty(fault: Fault, original: Callable) -> Callable:
    signature = inspect.signature(original)
    first = []

    def change(values):
        if fault.kind == "scale":
            return fault.size * values
        if fault.kind == "shift":
            return values + fault.size * _largest(values)
        if fault.kind == "floor":
            return values + fault.size * first[0]
        raise ValueError(f"unknown fault kind {fault.kind!r}")

    def wrapper(*args, **kwargs):
        out = original(*args, **kwargs)
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        if not fault.when(bound.arguments):
            return out
        if fault.kind == "floor" and not first:
            first.append(out)
            return out
        if isinstance(out, float):
            return change(out)
        return replace(out, values=change(out.values))

    return wrapper


def inject(monkeypatch, faults: tuple[Fault, ...]) -> None:
    """Replace each fault's name in ``fracsobolev.verify`` with its faulty wrapper."""
    for fault in faults:
        monkeypatch.setattr(verify, fault.name, _faulty(fault, getattr(verify, fault.name)))


def right_side(args: dict) -> bool:
    return Side.parse(args["side"]) is Side.RIGHT


def cells(n: int) -> Callable[[dict], bool]:
    return lambda args: args["u"].grid.n == n


FAULTS: dict[str, tuple[Fault, ...]] = {
    # 7e-5 -> 15
    "weak_pairing": (Fault("frac_derivative", "scale", 1.05),),
    # 2e-3 -> 5; scaling frac_integral alone reads 0.79 and passes
    "ftwfc": (Fault("frac_integral", "scale", 1.05), Fault("kappa", "scale", 1.05)),
    # 1e-13 -> 48
    "ibp_symmetric": (Fault("rl_derivative", "scale", 1.05, right_side),),
    # 0.19 -> 28; a scale cannot fail it, since its left side is exactly 0
    "ibp_zero_trace": (Fault("rl_derivative", "shift", 0.01, right_side),),
    # 0.34-0.66 -> 2.2-2.3 for the four interval ratio batteries; the
    # derivative on the doubled grid only, as scaling lp_norm cancels
    "poincare_kernel_subtracted": (Fault("rl_derivative", "scale", 1.3, cells(2048)),),
    "poincare_mathring": (Fault("rl_derivative", "scale", 1.3, cells(2048)),),
    "poincare_symmetric": (Fault("rl_derivative", "scale", 1.3, cells(2048)),),
    "sobolev_interval": (Fault("rl_derivative", "scale", 1.3, cells(2048)),),
    # 0.67 -> 2.31, the doubled window only
    "sobolev_line": (Fault("marchaud_derivative", "scale", 1.3, cells(4096)),),
    # 0.41 -> 5
    "extend_trivial": (Fault("rl_derivative", "scale", 1.05),),
    # 0.01 -> 3.0, the input's norm at full resolution
    "extend_interior": (Fault("sobolev_norm", "scale", 1.3, cells(1024)),),
    # 0.002 -> 2.3, the extension's norm at full resolution
    "extend_exterior": (Fault("sobolev_norm", "scale", 1.3, cells(3072)),),
    # 5e-4 -> 2.3, the coarse grid only: the doubled grid's quotient is
    # the one trace measured, which this name does not reach
    "embedding_trace": (Fault("holder_quotient", "scale", 1.3, cells(1024)),),
    # 2e-13 -> 20
    "w1p_consistency": (Fault("frac_integral", "scale", 1.05),),
    # 0.37 -> 5e8
    "line_equivalences": (Fault("spectral_derivative", "scale", 1.05),),
    # 0.14 -> 2.1 and 0 -> 2.0: the first call is the norm of u, every
    # later one a stage error; the piecewise errors are exactly 0, so only
    # an additive fault can fail that check
    "density_smooth": (Fault("sobolev_norm", "floor", 0.02),),
    "density_piecewise": (Fault("sobolev_norm", "floor", 0.02),),
    # 0.06 -> 3.8
    "inclusivity": (Fault("frac_integral", "scale", 1.05),),
}
