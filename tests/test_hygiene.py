"""Source hygiene: every name the package defines is used somewhere."""

from __future__ import annotations

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "fracsobolev"
SEARCHED = ("src", "tests", "perfbench")


def test_every_defined_name_is_used():
    """Each function, class and method name under ``src/fracsobolev`` must
    appear, as a whole word, more often in ``src/``, ``tests/`` and
    ``perfbench/`` than it is defined.  Dunder methods are called by the
    language and are exempt."""
    defined: Counter[str] = Counter()
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if not (node.name.startswith("__") and node.name.endswith("__")):
                    defined[node.name] += 1
    # a name is an identifier, so its whole-word occurrences are \w+ tokens
    words: Counter[str] = Counter()
    for top in SEARCHED:
        for path in (ROOT / top).rglob("*.py"):
            words.update(re.findall(r"\w+", path.read_text(encoding="utf-8")))
    unused = sorted(name for name, count in defined.items() if words[name] <= count)
    assert not unused, f"defined but never used: {unused}"


def test_no_blas_least_squares_in_the_package():
    """Verdicts and report values must not change with the BLAS kernel, so
    no code under ``src/fracsobolev`` reaches ``np.polyfit``, ``np.linalg``
    or a ``lstsq`` solve; slopes come from ``core._fit_slope``.  Only code
    is searched: a docstring may name what is avoided."""
    banned = {"polyfit", "linalg", "lstsq"}
    found = []
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                names = [node.id]
            elif isinstance(node, ast.Attribute):
                names = [node.attr]
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                names = [part for alias in node.names for part in alias.name.split(".")]
                names += (getattr(node, "module", None) or "").split(".")
            else:
                continue
            found += [f"{path.name}:{node.lineno} {name}" for name in names if name in banned]
    assert not found, f"BLAS least squares in the package: {found}"


def test_warnings_go_through_core_warn():
    """Every warning the package emits names its caller by one rule, so
    ``warnings.warn`` and the ``stacklevel`` keyword appear under
    ``src/fracsobolev`` only inside ``core._warn``."""
    found = []
    for path in PACKAGE.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        allowed = set()
        if path.name == "core.py":
            for node in tree.body:
                if isinstance(node, ast.FunctionDef) and node.name == "_warn":
                    allowed = {id(sub) for sub in ast.walk(node)}
        for node in ast.walk(tree):
            if id(node) in allowed:
                continue
            if isinstance(node, ast.Attribute) and node.attr == "warn":
                found.append(f"{path.name}:{node.lineno} .warn")
            elif isinstance(node, ast.ImportFrom) and node.module == "warnings":
                found += [f"{path.name}:{node.lineno} from warnings import {a.name}"
                          for a in node.names if a.name == "warn"]
            elif isinstance(node, ast.keyword) and node.arg == "stacklevel":
                found.append(f"{path.name}:{node.value.lineno} stacklevel=")
    assert not found, f"warnings raised outside core._warn: {found}"


def test_one_nodal_derivative():
    """Every first derivative at the nodes takes one path, so flagged nodes
    and endpoint powers are handled by one rule: ``gradient`` is reached
    under ``src/fracsobolev`` only inside ``operators.nodal_derivative``."""
    found = []
    for path in PACKAGE.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        allowed = set()
        if path.name == "operators.py":
            for node in tree.body:
                if isinstance(node, ast.FunctionDef) and node.name == "nodal_derivative":
                    allowed = {id(sub) for sub in ast.walk(node)}
        for node in ast.walk(tree):
            if id(node) in allowed:
                continue
            if isinstance(node, ast.Attribute) and node.attr == "gradient":
                found.append(f"{path.name}:{node.lineno} .gradient")
            elif isinstance(node, ast.Name) and node.id == "gradient":
                found.append(f"{path.name}:{node.lineno} gradient")
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                found += [f"{path.name}:{node.lineno} import {a.name}"
                          for a in node.names if a.name.split(".")[-1] == "gradient"]
    assert not found, f"nodal derivatives outside operators.nodal_derivative: {found}"


def test_one_volterra_product():
    """Every one-sided convolution goes through ``operators._toeplitz``, so
    the direct head, the FFT levels and the skip of zero samples are one
    path: under ``src/fracsobolev`` ``rfft`` and ``irfft`` are reached only
    in ``operators._Plan.build``, ``operators._toeplitz`` and
    ``spaces._square_row_sums`` (the Gagliardo autocorrelation), and
    ``convolve`` only in ``operators._toeplitz``, ``operators.nodal_derivative``
    (the flag dilation) and ``verify.check_density`` (the mollifier)."""
    fft = {("operators.py", "_Plan.build"), ("operators.py", "_toeplitz"),
           ("spaces.py", "_square_row_sums")}
    convolve = {("operators.py", "_toeplitz"), ("operators.py", "nodal_derivative"),
                ("verify.py", "check_density")}
    places = {"rfft": fft, "irfft": fft, "convolve": convolve}
    found = []
    for path in PACKAGE.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        functions = {}
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                functions[node.name] = node
            elif isinstance(node, ast.ClassDef):
                functions.update({f"{node.name}.{sub.name}": sub for sub in node.body
                                  if isinstance(sub, ast.FunctionDef)})
        for name, allowed_in in places.items():
            allowed = {id(sub) for (file, function) in allowed_in if file == path.name
                       for sub in ast.walk(functions[function])}
            for node in ast.walk(tree):
                if id(node) in allowed:
                    continue
                if isinstance(node, ast.Attribute) and node.attr == name:
                    found.append(f"{path.name}:{node.lineno} .{name}")
                elif isinstance(node, ast.Name) and node.id == name:
                    found.append(f"{path.name}:{node.lineno} {name}")
                elif isinstance(node, (ast.Import, ast.ImportFrom)):
                    found += [f"{path.name}:{node.lineno} import {a.name}"
                              for a in node.names if a.name.split(".")[-1] == name]
    assert not found, f"a Volterra product outside operators._toeplitz: {found}"


def test_norms_read_only_the_samples_they_are_given():
    """No norm resamples its input, so every verdict comes from the samples
    the caller passed: ``spaces.py`` builds no ``Grid``, calls no
    ``_coarsened`` and calls no ``.refine(``."""
    banned = {"Grid", "_coarsened", "refine"}
    found = []
    for node in ast.walk(ast.parse((PACKAGE / "spaces.py").read_text(encoding="utf-8"))):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name in banned:
                found.append(f"spaces.py:{node.lineno} {name}(")
    assert not found, f"spaces resamples its input: {found}"


def test_one_lp_rule_for_every_norm_part():
    """Every L^p part of a norm is summed by the one cell rule of
    ``spaces._lp_power_integral``: ``spaces.py`` calls no ``trapezoid``,
    and no function under ``src/fracsobolev`` takes a parameter named
    ``exclude_singular`` or ``analytic_cells``, which picked another rule."""
    found = []
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call) and path.name == "spaces.py":
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name == "trapezoid":
                    found.append(f"spaces.py:{node.lineno} trapezoid(")
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                a = node.args
                found += [f"{path.name}:{node.lineno} {node.name}({arg.arg}=)"
                          for arg in (*a.posonlyargs, *a.args, *a.kwonlyargs)
                          if arg.arg in ("exclude_singular", "analytic_cells")]
    assert not found, f"a second L^p rule: {found}"


def test_right_sides_come_from_reflection():
    """A right side is the left code on mirrored data (``operators._mirrored``),
    so ``spaces.py`` and ``verify.py`` name ``Side.RIGHT`` or compare with a
    ``Side`` member only where a side is parsed or named: the family parse of
    ``spaces._one_sided_norm`` and the orientation pair of ``verify.check_ibp``."""
    named = {("spaces.py", "_one_sided_norm"), ("verify.py", "check_ibp")}
    found = []
    for name in ("spaces.py", "verify.py"):
        tree = ast.parse((PACKAGE / name).read_text(encoding="utf-8"))
        allowed = set()
        for node in tree.body:
            if isinstance(node, ast.FunctionDef) and (name, node.name) in named:
                allowed |= {id(sub) for sub in ast.walk(node)}
        for node in ast.walk(tree):
            if id(node) in allowed:
                continue
            if isinstance(node, ast.Attribute) and ast.unparse(node) == "Side.RIGHT":
                found.append(f"{name}:{node.lineno} Side.RIGHT")
            elif isinstance(node, ast.Compare):
                operands = [ast.unparse(x) for x in (node.left, *node.comparators)]
                if any(x.startswith("Side.") for x in operands):
                    found.append(f"{name}:{node.lineno} {ast.unparse(node)}")
    assert not found, f"a hand-written right side: {found}"


def test_one_kept_slot():
    """Tables kept between calls go through the one store of ``core._plan``,
    so one rule says what is kept: no module-level container under
    ``src/fracsobolev`` is cleared, popped, updated or item-assigned outside
    that function."""
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in PACKAGE.glob("*.py")}
    containers = set()
    for tree in trees.values():
        for node in tree.body:
            if isinstance(node, (ast.Assign, ast.AnnAssign)) and node.value is not None:
                value = node.value
                if isinstance(value, ast.Call) and isinstance(value.func, ast.Name):
                    literal = value.func.id in ("dict", "list", "set")
                else:
                    literal = isinstance(value, (ast.Dict, ast.List, ast.Set, ast.DictComp,
                                                 ast.ListComp, ast.SetComp))
                if literal:
                    targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                    containers |= {t.id for t in targets if isinstance(t, ast.Name)}

    def container(node):
        name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
        return name if name in containers else None

    mutators = {"clear", "pop", "popitem", "update", "setdefault", "append", "extend",
                "insert", "remove", "add", "discard"}
    found = []
    for file, tree in trees.items():
        allowed = set()
        if file == "core.py":
            for node in tree.body:
                if isinstance(node, ast.FunctionDef) and node.name == "_plan":
                    allowed = {id(sub) for sub in ast.walk(node)}
        for node in ast.walk(tree):
            if id(node) in allowed:
                continue
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr in mutators and container(node.func.value)):
                found.append(f"{file}:{node.lineno} {container(node.func.value)}.{node.func.attr}")
            elif (isinstance(node, ast.Subscript) and isinstance(node.ctx, (ast.Store, ast.Del))
                    and container(node.value)):
                found.append(f"{file}:{node.lineno} {container(node.value)}[...]")
    assert containers
    assert not found, f"a module-level container written outside core._plan: {found}"


def test_one_endpoint_power_rule():
    """Endpoint power terms are combined by ``core._endpoint_terms`` alone, and
    ``spaces._lp_power_integral`` decides each recorded power once:
    ``operators.py`` and ``oracle.py`` pick no power by a ``min(``/``max(``
    with a ``key=``, and ``spaces._flagged_powers`` is called only from
    ``_lp_power_integral`` and the p = inf branch of ``gagliardo_seminorm``."""
    found = []
    for name in ("operators.py", "oracle.py"):
        for node in ast.walk(ast.parse((PACKAGE / name).read_text(encoding="utf-8"))):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id in ("min", "max")
                    and any(k.arg == "key" for k in node.keywords)):
                found.append(f"{name}:{node.lineno} {node.func.id}(key=)")
    callers = {"_lp_power_integral", "gagliardo_seminorm"}
    tree = ast.parse((PACKAGE / "spaces.py").read_text(encoding="utf-8"))
    for func in ast.walk(tree):
        if isinstance(func, ast.FunctionDef) and func.name not in callers:
            found += [f"spaces.py:{node.lineno} {func.name} calls _flagged_powers"
                      for node in ast.walk(func) if isinstance(node, ast.Call)
                      and isinstance(node.func, ast.Name) and node.func.id == "_flagged_powers"]
    assert not found, f"a second endpoint power rule: {found}"


def _innermost_functions(tree: ast.AST, predicate) -> list[str]:
    """The innermost function around each node of ``tree`` that satisfies ``predicate``."""
    found = []

    def visit(node: ast.AST, name: str) -> None:
        for child in ast.iter_child_nodes(node):
            if predicate(child):
                found.append(name)
            visit(child, child.name if isinstance(child, ast.FunctionDef) else name)

    visit(tree, "<module>")
    return found


def test_one_endpoint_record():
    """Every endpoint record is built by ``core._endpoint_terms`` and read
    whole in named places only.  ``_leading_power`` is gone.  The raw term
    tuples ``left_terms``/``right_terms`` are read by the ``left_power`` /
    ``right_power`` properties, ``SampledFunction.reflected``,
    ``operators._base_power``, ``nodal_derivative`` (its ``slope``),
    ``cli._csv_text`` and ``spaces._flagged_powers`` (whose end cell
    integrates every term), and ``_base_power``'s terms by
    ``_split_left_singular`` and ``verify._pair``; every other reader takes
    the leading term.  A function that gives a sample a record names
    ``_endpoint_terms``, or maps a record term by term (``reflected``,
    ``nodal_derivative``)."""
    raw = {"left_terms", "right_terms"}

    def named(node: ast.AST, names) -> bool:
        return (isinstance(node, ast.Name) and node.id in names) or (
            isinstance(node, ast.Attribute) and node.attr in names)

    def calls(node: ast.AST, names) -> bool:
        return isinstance(node, ast.Call) and named(node.func, names)

    def gives_a_record(node: ast.AST) -> bool:
        return isinstance(node, ast.Call) and (
            any(k.arg in raw for k in node.keywords) or (named(node.func, {"SampledFunction"})
                                                         and len(node.args) > 2))

    seen: dict[str, set[str]] = {"readers": set(), "base": set(), "summed": set(), "records": set()}
    builders, legacy = set(), []
    for path in PACKAGE.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for key, predicate in (
            ("readers", lambda n: (isinstance(n, ast.Attribute) and n.attr in raw)
             or (isinstance(n, ast.Constant) and n.value in raw)),
            ("base", lambda n: calls(n, {"_base_power"})),
            ("summed", lambda n: calls(n, {"_summed_terms"})),
            ("records", gives_a_record),
        ):
            seen[key] |= {f"{path.stem}.{name}" for name in _innermost_functions(tree, predicate)}
        builders |= {f"{path.stem}.{name}" for name in _innermost_functions(
            tree, lambda n: named(n, {"_endpoint_terms"}))}
        legacy += [f"{path.name}:{n.lineno}" for n in ast.walk(tree)
                   if named(n, {"_leading_power"})
                   or (isinstance(n, ast.FunctionDef) and n.name == "_leading_power")]
    assert not legacy, f"_leading_power is still named: {legacy}"
    assert seen["readers"] == {"core.left_power", "core.right_power", "core.reflected",
                               "operators._base_power", "operators.nodal_derivative",
                               "cli._csv_text", "spaces._flagged_powers"}, seen["readers"]
    assert seen["base"] == {"operators._split_left_singular", "verify._pair"}, seen["base"]
    assert seen["summed"] == {"core._endpoint_terms", "oracle.classical_derivative_values"}
    unbuilt = seen["records"] - builders - {"core.reflected", "operators.nodal_derivative"}
    assert not unbuilt, f"a record made without core._endpoint_terms: {sorted(unbuilt)}"


def test_oracle_keeps_closed_forms_only():
    """The oracle stays independent of the code it checks and states each rule
    once: ``oracle.py`` imports no name of the Fourier layer that
    ``spectral_derivative`` runs and reaches no ``fft``; one function divides
    by a ``gamma_fn`` call a numerator that holds one (the Euler rule); and no
    subscript indexed by a comparison mask is assigned to."""
    fourier = {"discrete_fourier", "inverse_discrete_fourier", "spectral_multiplier",
               "spectral_derivative", "_fourier_plan", "_symbol_plan", "_spectrum", "fft"}

    def calls_gamma(node):
        return any(isinstance(sub, ast.Call) and isinstance(sub.func, ast.Name)
                   and sub.func.id == "gamma_fn" for sub in ast.walk(node))

    tree = ast.parse((PACKAGE / "oracle.py").read_text(encoding="utf-8"))
    masks = {target.id for node in ast.walk(tree)
             if isinstance(node, ast.Assign) and isinstance(node.value, ast.Compare)
             for target in node.targets if isinstance(target, ast.Name)}
    found, euler = [], set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            found += [f"oracle.py:{node.lineno} import {a.name}" for a in node.names
                      if set(a.name.split(".")) & fourier]
        elif isinstance(node, ast.Attribute) and node.attr in fourier:
            found.append(f"oracle.py:{node.lineno} .{node.attr}")
        elif isinstance(node, ast.Name) and node.id in fourier:
            found.append(f"oracle.py:{node.lineno} {node.id}")
        elif isinstance(node, (ast.Assign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            found += [f"oracle.py:{node.lineno} {ast.unparse(t)} =" for t in targets
                      if isinstance(t, ast.Subscript) and (isinstance(t.slice, ast.Compare) or (
                          isinstance(t.slice, ast.Name) and t.slice.id in masks))]
        elif isinstance(node, ast.FunctionDef):
            if any(isinstance(sub, ast.BinOp) and isinstance(sub.op, ast.Div)
                   and isinstance(sub.right, ast.Call) and calls_gamma(sub.right)
                   and calls_gamma(sub.left) for sub in ast.walk(node)):
                euler.add(node.name)
    assert not found, f"the oracle reaches the Fourier layer or scatters by a mask: {found}"
    assert euler == {"_euler_image"}, f"the Euler Gamma ratio is written in {sorted(euler)}"


def test_one_function_reads_a_function_input():
    """The command line turns ``--fn`` into a function in one place:
    exactly one function in ``cli.py`` calls ``_resolve_function``."""
    tree = ast.parse((PACKAGE / "cli.py").read_text(encoding="utf-8"))
    callers = [
        node.name
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef)
        and any(
            isinstance(sub, ast.Call) and getattr(sub.func, "id", None) == "_resolve_function"
            for sub in ast.walk(node)
        )
    ]
    assert len(callers) == 1, callers


def test_one_sample_type():
    """Samples on an interval and on the line are one class, and the line is
    a mark on the grid (``Grid.on_line``).  ``core`` binds ``LineFunction``
    only as an alias of ``SampledFunction``, and the modules that read
    samples neither name ``LineFunction`` nor ask a sample's type with
    ``isinstance``."""
    from fracsobolev import core

    assert core.LineFunction is core.SampledFunction
    core_tree = ast.parse((PACKAGE / "core.py").read_text(encoding="utf-8"))
    assert "LineFunction" not in {n.name for n in core_tree.body if isinstance(n, ast.ClassDef)}
    sample_types = {"SampledFunction", "LineFunction"}
    found = []
    for name in ("operators", "spaces", "verify", "cli", "oracle"):
        path = PACKAGE / f"{name}.py"
        text = path.read_text(encoding="utf-8")
        found += [f"{path.name}: names LineFunction"] if re.search(r"\bLineFunction\b", text) else []
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "isinstance":
                kinds = {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node.args[1])
                         if isinstance(n, (ast.Name, ast.Attribute))}
                if kinds & sample_types:
                    found.append(f"{path.name}:{node.lineno} isinstance on a sample type")
    assert not found, found
