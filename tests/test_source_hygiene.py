"""Source hygiene of the package: no unused imports, no unreferenced defs.

Every module of ``src/specpred`` except ``__init__.py`` is parsed with
``ast``.  An import whose bound name is never read in its module fails, and
so does a top-level function or class, or a module-level UPPER_CASE
constant, whose name appears nowhere in ``src/``, ``tests/`` or
``specbench/`` apart from its own definition.  The rule for reading an input
file's sections lives in ``errors.py`` alone: no other module builds an
"unknown <section> key" refusal.  Both simulation engines run through one
closed loop: ``sim_engine.py`` builds ``PredictorController`` in one place.
"""

import ast
import functools
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "specpred"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


@functools.cache
def _corpus():
    files = [p for d in ("src", "tests", "specbench")
             for p in sorted((ROOT / d).rglob("*.py"))]
    return {p: p.read_text() for p in files}


def _imported_names(tree):
    """(bound name, line) of every import in the module, at any depth."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text())
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = [f"{name} (line {line})" for name, line in _imported_names(tree)
              if name not in read]
    assert not unused, f"{path.name}: unused imports {unused}"


def _orphans(names):
    """The names that occur only once in the corpus: at their definition."""
    corpus = _corpus()
    orphans = []
    for name in names:
        word = re.compile(rf"\b{re.escape(name)}\b")
        if sum(len(word.findall(text)) for text in corpus.values()) <= 1:
            orphans.append(name)
    return orphans


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_top_level_def_is_referenced(path):
    tree = ast.parse(_corpus()[path])
    defs = [node.name for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))]
    orphans = _orphans(defs)
    assert not orphans, f"{path.name}: defined but never referenced {orphans}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_module_constant_is_referenced(path):
    tree = ast.parse(_corpus()[path])
    targets = [target for node in tree.body
               if isinstance(node, (ast.Assign, ast.AnnAssign))
               for target in (node.targets if isinstance(node, ast.Assign)
                              else [node.target])]
    constants = [t.id for t in targets if isinstance(t, ast.Name)
                 and re.fullmatch(r"_?[A-Z][A-Z0-9_]*", t.id)]
    orphans = _orphans(constants)
    assert not orphans, f"{path.name}: constants never referenced {orphans}"


def _strings(tree):
    """The text of every string literal, an f-string's fields as {}."""
    for node in ast.walk(tree):
        if isinstance(node, ast.JoinedStr):
            yield "".join(part.value if isinstance(part, ast.Constant)
                          else "{}" for part in node.values)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_errors_refuses_an_unknown_section_key(path):
    refusals = [text for text in _strings(ast.parse(_corpus()[path]))
                if re.search(r"unknown \S+ key", text)]
    if path.name == "errors.py":
        assert refusals, "errors.py no longer refuses an unknown key"
    else:
        assert not refusals, f"{path.name} builds its own refusal {refusals}"


def test_sim_engine_builds_one_controller():
    # Both engines run through one closed loop, which builds the controller.
    calls = [node.lineno for node in ast.walk(ast.parse(
        (PACKAGE / "sim_engine.py").read_text()))
        if isinstance(node, ast.Call)
        and getattr(node.func, "id", None) == "PredictorController"]
    assert len(calls) == 1, f"PredictorController built at lines {calls}"
