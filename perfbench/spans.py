"""In-memory span tracer that wraps the public functions of ``fracsobolev``.

The package's modules import functions from each other by name (``verify``
binds ``frac_integral`` from ``operators``, ``cli`` binds ``sample`` from
``oracle``, ...), so patching only the defining module would miss most
calls.  :class:`Tracer` therefore replaces every binding of a wrapped
function in every loaded ``fracsobolev.*`` namespace, plus selected class
properties and methods (``Grid.nodes``, ``*.interp``), and puts the
originals back on :meth:`Tracer.uninstall`.

Each wrapped call records a span ``(name, parent, start, end)``; a span's
self time is its duration minus the part of it that its children cover.
Calls and input sample counts are counted at the same boundary; a direct
recursive call (the right-side operators reflect and call themselves) adds
a span but no extra call or point count.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict

# (module, public function names); the module's short name prefixes metrics
FUNCTIONS = {
    "core": ("product_kernels", "gl_weights", "trapezoid", "discrete_fourier"),
    "oracle": ("sample", "sample_line"),
    "operators": (
        "frac_integral",
        "rl_derivative",
        "caputo_derivative",
        "gl_derivative",
        "marchaud_derivative",
        "spectral_derivative",
    ),
    "spaces": (
        "lp_norm",
        "sobolev_norm",
        "gagliardo_seminorm",
        "holder_quotient",
        "fourier_seminorm",
    ),
    "cli": ("main",),
}
# (module, class, attribute) for properties and methods
MEMBERS = (
    ("core", "Grid", "nodes"),
    ("core", "SampledFunction", "interp"),
    ("core", "LineFunction", "interp"),
)
# layers whose spans also sum the sample count of their first argument
POINT_LAYERS = ("operators", "spaces")
MODULES = ("core", "oracle", "operators", "spaces", "verify", "cli")


def self_times(spans):
    """Self time per span: duration minus the union of its children's spans.

    ``spans`` is a sequence of ``(span_id, parent_id, name, start, end)``;
    returns ``{span_id: self_seconds}``.
    """
    children = defaultdict(list)
    for span_id, parent, _, start, end in spans:
        if parent is not None:
            children[parent].append((start, end))
    out = {}
    for span_id, _, _, start, end in spans:
        covered = 0.0
        reach = start
        for c_start, c_end in sorted(children.get(span_id, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out[span_id] = (end - start) - covered
    return out


class Tracer:
    """Collects spans and counters around wrapped calls.

    :meth:`install` (or ``with tracer:``) patches the package and
    :meth:`uninstall` restores every original; :meth:`call` opens a span
    the benchmark names itself; :meth:`self_seconds` and the ``calls``,
    ``points`` and ``raised`` counters give the totals since :meth:`reset`.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self.stack = []
        self.calls = defaultdict(int)
        self.points = defaultdict(int)
        self.raised = defaultdict(int)
        self._seen_errors = defaultdict(list)
        self._restore = []

    # -- recording --------------------------------------------------------

    def _enter(self, name):
        span_id = len(self.spans)
        parent = self.stack[-1] if self.stack else None
        self.spans.append([span_id, parent, name, self.clock(), None])
        self.stack.append(span_id)
        return span_id, parent

    def _exit(self, span_id):
        self.spans[span_id][4] = self.clock()
        self.stack.pop()

    def _count_error(self, module, exc):
        seen = self._seen_errors[module]
        if not any(e is exc for e in seen):
            seen.append(exc)
            self.raised[module] += 1

    def wrap(self, module, name, fn, count_points=False):
        """Return ``fn`` wrapped in a span named ``<module>.<name>``."""
        label = f"{module}.{name}"
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id, parent = tracer._enter(label)
            if parent is None or tracer.spans[parent][2] != label:
                tracer.calls[label] += 1
                if count_points and args:
                    values = getattr(args[0], "values", None)
                    if values is not None:
                        tracer.points[label] += int(values.size)
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                tracer._count_error(module, exc)
                raise
            finally:
                tracer._exit(span_id)

        return traced

    def call(self, module, name, fn, *args, **kwargs):
        """Run ``fn`` inside a span the benchmark itself names."""
        return self.wrap(module, name, fn)(*args, **kwargs)

    # -- patching ---------------------------------------------------------

    def install(self):
        """Patch every binding of the listed functions, properties and methods."""
        for short in MODULES:
            importlib.import_module(f"fracsobolev.{short}")
        package = {
            name: mod
            for name, mod in list(sys.modules.items())
            if name == "fracsobolev" or name.startswith("fracsobolev.")
        }
        for short, names in FUNCTIONS.items():
            home = package[f"fracsobolev.{short}"]
            for name in names:
                original = getattr(home, name)
                wrapped = self.wrap(short, name, original, short in POINT_LAYERS)
                for mod in package.values():
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._restore.append((mod, attr, original))
                            setattr(mod, attr, wrapped)
        for short, cls_name, attr in MEMBERS:
            cls = getattr(package[f"fracsobolev.{short}"], cls_name)
            original = cls.__dict__[attr]
            label = f"{cls_name}.{attr}"
            if isinstance(original, property):
                replacement = property(self.wrap(short, label, original.fget))
            else:
                replacement = self.wrap(short, label, original)
            self._restore.append((cls, attr, original))
            setattr(cls, attr, replacement)

    def uninstall(self):
        """Put back every original binding, newest patch first."""
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc_info):
        self.uninstall()
        return False

    # -- aggregation ------------------------------------------------------

    def self_seconds(self):
        """Summed self time per span name."""
        per_span = self_times(self.spans)
        out = defaultdict(float)
        for span_id, _, name, _, _ in self.spans:
            out[name] += per_span[span_id]
        return dict(out)

    def reset(self):
        """Drop recorded spans and counters, keeping the patches."""
        self.spans.clear()
        self.stack.clear()
        self.calls.clear()
        self.points.clear()
        self.raised.clear()
        self._seen_errors.clear()
