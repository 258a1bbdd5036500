"""Every module-level import of the package is used (package re-exports in
``__init__.py`` and ``from __future__`` excepted), every private
module-level name and every public module-level constant is read somewhere
in the package outside its definition, every ``__all__`` names only what
its module defines and lists each of its public functions and classes, and
every function or class in an ``__all__`` has a reader in a program (the
package, ``scripts/`` or the benchmark) unless ``TEST_ONLY`` names what
needs it.  Importing ``hymkit.potential`` loads neither ``hymkit.growth``
nor ``hashlib``."""

import ast
import importlib
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "hymkit"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [name for name in bound if name not in used]


def test_detects_an_unused_import():
    src = "from __future__ import annotations\nimport os\nimport sys as s\nfrom a import b\ns.exit(b)\n"
    assert unused_imports(src) == ["os"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_module_imports(path):
    assert unused_imports(path.read_text()) == []


def _reads(node) -> Counter:
    """Names read under ``node``: loaded identifiers and attribute names."""
    return Counter([n.id for n in ast.walk(node)
                    if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)]
                   + [n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)])


def unread_names(source: str, package_reads: Counter) -> list:
    """(name, is_constant) for the module-level functions, classes and
    constants of ``source`` that ``package_reads`` counts no read of outside
    their own definition; dunder names such as ``__all__`` are skipped."""
    unread = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names, constant = [node.name], False
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names, constant = [t.id for t in targets if isinstance(t, ast.Name)], True
        else:
            continue
        own = _reads(node)
        unread += [(name, constant) for name in names if not name.startswith("__")
                   and package_reads[name] - own[name] == 0]
    return unread


def dead_private_names(source: str, package_reads: Counter) -> list:
    """Private module-level functions, classes and constants nothing reads."""
    return [name for name, _ in unread_names(source, package_reads) if name.startswith("_")]


def dead_public_constants(source: str, package_reads: Counter) -> list:
    """Public module-level constants nothing in the package reads."""
    return [name for name, constant in unread_names(source, package_reads)
            if constant and not name.startswith("_")]


def test_detects_a_dead_private_name():
    src = ("_A = 1\n_B = 2\n_C = _B\n__all__ = []\n"
           "def _f():\n    return _f()\n"
           "def _g():\n    return 0\n"
           "class _K:\n    pass\n"
           "def h():\n    return m._g(), _K\n")
    assert dead_private_names(src, _reads(ast.parse(src))) == ["_A", "_C", "_f"]


def test_detects_a_dead_public_constant():
    src = ("A = 1\nB: int = 2\nC = B\n_D = 3\n__all__ = []\n__version__ = '1'\n"
           "def f():\n    return m.C\n"
           "def g():\n    return 0\n")
    assert dead_public_constants(src, _reads(ast.parse(src))) == ["A"]


def _package_reads() -> Counter:
    return sum((_reads(ast.parse(p.read_text())) for p in SRC.glob("*.py")), Counter())


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_dead_private_names(path):
    assert dead_private_names(path.read_text(), _package_reads()) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_dead_public_constants(path):
    assert dead_public_constants(path.read_text(), _package_reads()) == []


PACKAGE = sorted(p for p in SRC.glob("*.py") if p.name != "__main__.py")


def declared_all(source: str):
    """The names of a module's literal ``__all__``, or None without one."""
    for node in ast.parse(source).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return [ast.literal_eval(e) for e in node.value.elts]
    return None


def public_definitions(source: str) -> list:
    """Public module-level functions and classes."""
    return [node.name for node in ast.parse(source).body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not node.name.startswith("_")]


def test_detects_an_unlisted_definition():
    src = "__all__ = ['f']\ndef f():\n    pass\ndef g():\n    pass\nclass _K:\n    pass\n"
    assert declared_all(src) == ["f"]
    assert public_definitions(src) == ["f", "g"]


@pytest.mark.parametrize("path", [p for p in PACKAGE if declared_all(p.read_text())],
                         ids=lambda p: p.name)
def test_all_resolves_and_lists_every_public_definition(path):
    source = path.read_text()
    names = declared_all(source)
    module = importlib.import_module(
        "hymkit" if path.stem == "__init__" else f"hymkit.{path.stem}")
    assert sorted(set(names)) == sorted(names), "a name is listed twice"
    assert [n for n in names if not hasattr(module, n)] == []
    assert [n for n in public_definitions(source) if n not in names] == []


ROOT = SRC.parents[1]
PROGRAM_FILES = (sorted(SRC.glob("*.py")) + sorted((ROOT / "scripts").glob("*.py"))
                 + sorted(p for p in (ROOT / "perfbench").glob("*.py")
                          if not p.name.startswith("test_")))

# exported names that no program reads by name, each with what needs it
TEST_ONLY = {
    "cohomology_frame": "perfbench/tracing.py TARGETS, by its name as a string",
    "fd_mixed_second": ("perfbench/tracing.py TARGETS, by its name as a string; "
                        "test_monads.py, the oracle of DiagPowerMetric.dmixed"),
    "mean_curvature_field": "perfbench/tracing.py TARGETS, by its name as a string",
    "eval_G": ("perfbench/tracing.py TARGETS, by its name as a string; "
               "test_potential.py, the batch of one"),
    "curvature_fd_check": "test_acceptance.py, criterion 3",
    "barrier_check": "test_acceptance.py, criterion 9",
    "attach_barrier_potentials": "test_acceptance.py, criterion 9",
    "lambda_contract": "test_geometry.py",
    "chart_frame": "test_ansatz.py and test_flow.py",
    "validate_monad": "test_monads.py and test_adhm.py",
}


def readerless_exports(source: str, program_reads: Counter) -> list:
    """Functions and classes in the ``__all__`` of ``source`` that
    ``program_reads`` counts no read of outside their own definition."""
    exported = set(declared_all(source) or ())
    return [name for name, constant in unread_names(source, program_reads)
            if not constant and name in exported]


def test_detects_a_readerless_export():
    src = ("__all__ = ['f', 'g', 'K', 'C']\nC = 1\n"
           "def f():\n    return f()\n"
           "def g():\n    return 0\n"
           "def h():\n    return 0\n"
           "class K:\n    pass\n")
    reads = _reads(ast.parse(src)) + _reads(ast.parse("m.g()\nh()\n"))
    assert readerless_exports(src, reads) == ["f", "K"]


def _program_reads() -> Counter:
    return sum((_reads(ast.parse(p.read_text())) for p in PROGRAM_FILES), Counter())


@pytest.mark.parametrize("path", [p for p in PACKAGE if declared_all(p.read_text())],
                         ids=lambda p: p.name)
def test_every_export_has_a_program_reader(path):
    unread = readerless_exports(path.read_text(), _program_reads())
    assert [name for name in unread if name not in TEST_ONLY] == []


def test_test_only_names_have_no_program_reader():
    # an entry whose name gained a program reader, or left the package, goes
    unread = {name for p in PACKAGE
              for name in readerless_exports(p.read_text(), _program_reads())}
    assert sorted(set(TEST_ONLY) - unread) == []


def test_potential_imports_neither_growth_nor_hashlib():
    # the potential's ball nodes live in ansatz, so a fresh interpreter that
    # imports hymkit.potential loads no growth module and no hashlib
    code = ("import sys, hymkit.potential; "
            "print(sorted({'hymkit.growth', 'hashlib'} & set(sys.modules)))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC.parent)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True)
    assert out.stdout.strip() == "[]"
