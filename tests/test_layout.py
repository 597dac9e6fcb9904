"""The package's layout: who uses its functions, and what it imports.

A public (no leading underscore) function at module level, or method in a
class body, of ``src/clickwitness`` must be exported by ``__all__``,
referenced by the code in ``src/`` or ``scripts/``, or named by a lookup site
of the benchmark tracer's ``HOOKS``.  Anything else serves only the tests and
belongs in ``tests/``.  A reference is a name or an attribute with the
function's name, wherever it appears; an import alone is none.

Every import in the package is relative, from the standard library, or of
a distribution that ``pyproject.toml`` declares, so that test-only tools
such as mpmath or hypothesis never become runtime dependencies.

Every cap on what the package evaluates is one named constant, compared in
exactly one place; every other site calls the function that holds that
comparison.
"""

import ast
import importlib
import importlib.util
import re
import sys
from pathlib import Path

import pytest

import clickwitness

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "clickwitness"
TRACING = ROOT / "bench" / "tracing.py"

FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)

# Enumerators of the paper that only the tests call today, one reason each.
ALLOWED = {
    "enumerate_pnr_moment_sets":
        "the paper's 2^(K+1) pnr moment-matrix sets; no CLI option selects them yet",
    "mode_class_patterns":
        "the paper's 2^mu multimode class patterns, which label the witness families",
    "IndexSet.class_pattern":
        "the integer/half class of each slot of a set, as the paper names the families",
}


def public_definitions():
    """(module, qualified name) of every public function and method."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, FUNCTIONS) and not node.name.startswith("_"):
                yield path.stem, node.name
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, FUNCTIONS) and not item.name.startswith("_"):
                        yield path.stem, f"{node.name}.{item.name}"


def referenced_names() -> set:
    names = set()
    for path in [*PACKAGE.glob("*.py"), *(ROOT / "scripts").glob("*.py")]:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    return names


@pytest.fixture(scope="module")
def hooked() -> set:
    """The ``attribute`` part of every ``module:attribute`` site of ``HOOKS``."""
    spec = importlib.util.spec_from_file_location("bench_tracing_layout", TRACING)
    module = importlib.util.module_from_spec(spec)
    # read only: no bytecode cache is written next to the tracer
    monkeypatch = pytest.MonkeyPatch()
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    try:
        spec.loader.exec_module(module)
    finally:
        monkeypatch.undo()
    return {site.partition(":")[2] for hook in module.HOOKS for site in hook.sites}


def unused(hooked: set) -> dict:
    """Qualified name -> module of every public function that has no user."""
    referenced = referenced_names()
    kept = set(clickwitness.__all__) | hooked
    return {
        name: module for module, name in public_definitions()
        if name.rpartition(".")[2] not in referenced and name not in kept
    }


def test_every_public_function_has_a_user(hooked):
    flagged = sorted(f"{module}:{name}" for name, module in unused(hooked).items()
                     if name not in ALLOWED)
    assert not flagged, f"only the tests use these; move them to tests/: {flagged}"


def test_the_allowlist_names_only_unused_functions(hooked):
    assert set(unused(hooked)) == set(ALLOWED)


def declared_dependencies() -> set:
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as handle:
        requirements = tomllib.load(handle)["project"]["dependencies"]
    return {re.match(r"[A-Za-z0-9_.-]+", req).group().lower().replace("-", "_")
            for req in requirements}


def test_imports_are_relative_stdlib_or_declared():
    allowed = set(sys.stdlib_module_names) | declared_dependencies()
    foreign = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            foreign += [f"{path.name}: {name}" for name in names
                        if name.partition(".")[0] not in allowed]
    assert "numpy" in allowed
    assert not foreign, f"undeclared imports in the package: {foreign}"


# Each cap on what the package evaluates, and the module that defines it.
CAPS = {
    "MAX_DIM": "numerics",
    "MAX_EXACT_N": "numerics",
    "MAX_MODES": "multimode",
    "MAX_LEVELS": "witnesses",
    "MIN_RESAMPLES": "sampler",
    "_MAX_SHOTS": "sampler",
    "_MAX_OUTCOMES": "detectors",
    "MAX_FACTORIAL": "detectors",
    "LOG_FLOAT_MAX": "detectors",
    "_FOCK_CAP": "states",
}


def comparisons() -> list:
    """(module, line, names, bare numbers) in the operands of every comparison in the package."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Compare):
                operands = (node.left, *node.comparators)
                names = {sub.id if isinstance(sub, ast.Name) else sub.attr
                         for operand in operands for sub in ast.walk(operand)
                         if isinstance(sub, (ast.Name, ast.Attribute))}
                numbers = {operand.value for operand in operands
                           if isinstance(operand, ast.Constant)
                           and not isinstance(operand.value, (bool, str))}
                found.append((path.stem, node.lineno, names, numbers))
    return found


# The float range has two stages: a bound over every quantity of an order
# (fits_range), then each quantity at each grid point (check_range).
STAGES = {"LOG_FLOAT_MAX": 2}


@pytest.mark.parametrize("cap", sorted(CAPS))
def test_each_cap_is_compared_once_in_its_module(cap):
    sites = [(module, line) for module, line, names, _ in comparisons() if cap in names]
    assert len(sites) == STAGES.get(cap, 1), f"{cap} is compared at {sites}"
    assert {module for module, _ in sites} == {CAPS[cap]}
    defined = [node for node in ast.parse((PACKAGE / f"{CAPS[cap]}.py").read_text()).body
               if isinstance(node, ast.Assign)
               and any(isinstance(t, ast.Name) and t.id == cap for t in node.targets)]
    assert len(defined) == 1


def test_no_comparison_holds_a_cap_as_a_bare_number():
    # as the pnr enumerators once held levels > 6; a 2 (MIN_RESAMPLES) is
    # too common a number to tell
    values = {getattr(importlib.import_module(f"clickwitness.{module}"), cap): cap
              for cap, module in CAPS.items() if cap != "MIN_RESAMPLES"}
    bare = [f"{module}:{line} holds {values[number]}"
            for module, line, _, numbers in comparisons() for number in numbers
            if number in values]
    assert not bare, bare
