"""Source hygiene of the package: no unused imports, no unreferenced defs.

Every module of ``src/specpred`` except ``__init__.py`` is parsed with
``ast``.  An import whose bound name is never read in its module fails, and
so does a top-level function or class, or a module-level UPPER_CASE
constant, whose name appears nowhere in ``src/``, ``tests/`` or
``specbench/`` apart from its own definition.  The rule for reading an input
file's sections lives in ``errors.py`` alone: no other module builds an
"unknown <section> key" refusal.  Both simulation engines run through one
closed loop: ``sim_engine.py`` builds ``PredictorController`` in one place.
Cubic history reads go through ``numerics.cubic_reader``: ``src/`` defines
one stencil-offset array, in ``numerics.py``, and no other module applies
``catmull_rom`` to a gathered stencil.  The trajectory file's writer and
reader agree on its cache through one digest helper and one cache-path
helper in ``sim_engine.py``, and only the writer splits its work in two.
``__init__.py`` holds only its docstring and ``__version__``: each name is
imported from the module that defines it, so a re-export cannot count as
the use of an otherwise unreferenced definition.
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


def test_package_init_is_its_docstring_and_version():
    body = ast.parse((PACKAGE / "__init__.py").read_text()).body
    assert len(body) == 2, [ast.unparse(node) for node in body[1:]]
    doc, version = body
    assert isinstance(doc, ast.Expr) and isinstance(doc.value, ast.Constant)
    assert isinstance(doc.value.value, str)
    assert isinstance(version, ast.Assign)
    assert [ast.unparse(t) for t in version.targets] == ["__version__"]
    assert isinstance(version.value, ast.Constant)
    assert isinstance(version.value.value, str)


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


def test_numerics_defines_the_one_stencil_offset_array():
    found = [(path.name, node.lineno) for path in MODULES
             for node in ast.walk(ast.parse(_corpus()[path]))
             if isinstance(node, ast.Assign)
             and "np.arange(4)" in ast.unparse(node.value)]
    assert [name for name, _ in found] == ["numerics.py"], \
        f"stencil-offset arrays defined at {found}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_numerics_applies_catmull_rom_to_a_gathered_stencil(path):
    # The weight form catmull_rom(np.eye(4), w) gathers nothing.
    gathers = [node.lineno for node in ast.walk(ast.parse(_corpus()[path]))
               if isinstance(node, ast.Call)
               and getattr(node.func, "id", None) == "catmull_rom"
               and isinstance(node.args[0], ast.Subscript)]
    if path.name != "numerics.py":
        assert not gathers, f"{path.name} gathers a stencil at {gathers}"


def test_trajectory_io_shares_one_digest_and_one_cache_path():
    tree = ast.parse(_corpus()[PACKAGE / "sim_engine.py"])
    defs = {node.name: node for node in tree.body
            if isinstance(node, ast.FunctionDef)}

    def names(node):
        return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}

    hashing = [name for name, node in defs.items() if "hashlib" in names(node)]
    paths = [name for name, node in defs.items()
             if any(isinstance(n, ast.Constant) and n.value == ".cache"
                    for n in ast.walk(node))]
    assert hashing == ["_digest"], f"SHA-256 taken in {hashing}"
    assert paths == ["_cache_path"], f"cache path built in {paths}"

    def reached(name, seen):
        # The module functions ``name`` calls, directly or through others.
        for callee in names(defs[name]) & defs.keys() - seen:
            seen.add(callee)
            reached(callee, seen)
        return seen

    for entry in ("trajectory_to_csv", "trajectory_from_csv"):
        assert {"_digest", "_cache_path"} <= reached(entry, set()), entry
    calls = [(path.name, node.lineno) for path in MODULES
             for node in ast.walk(ast.parse(_corpus()[path]))
             if isinstance(node, ast.Call)
             and getattr(node.func, "id", None) == "_in_two"]
    assert len(calls) == 1, f"_in_two called at {calls}"
    assert "_in_two" in names(defs["trajectory_to_csv"])
