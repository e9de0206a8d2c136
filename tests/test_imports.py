"""Every name a package module imports is used there (``__init__`` re-exports aside),
the package neither imports nor loads SciPy (it is only the tests' oracle), and
only ``scores`` reads a model's private attributes: every other module reaches a
model through its protocol."""

import ast
import pathlib
import subprocess
import sys

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "fewstep"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"line {line}: {name}" for name, line in imported.items()
                  if name not in used)


def test_scanner_flags_only_unreferenced_names():
    source = ("from __future__ import annotations\nimport os.path\nimport json\n"
              "from math import pi, tau as full\nprint(os.sep, full)\n")
    assert unused_imports(source) == ["line 3: json", "line 4: pi"]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def imported_modules(source: str) -> set:
    """The top-level names of every module an ``import`` statement anywhere in source names."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def test_import_scanner_sees_nested_imports():
    source = "import os.path\ndef f():\n    from scipy.integrate import quad\nfrom . import x\n"
    assert imported_modules(source) == {"os", "scipy"}


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_module_imports_scipy(path):
    assert "scipy" not in imported_modules(path.read_text())


def test_package_import_leaves_scipy_integrate_unloaded():
    # no scipy module at all, not only its integrators
    code = ("import sys, fewstep, fewstep.experiments, fewstep.cli; "
            "loaded = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'); "
            "assert not loaded, loaded")
    subprocess.run([sys.executable, "-c", code], check=True, cwd=SRC.parent,
                   capture_output=True, timeout=120)


def private_model_reads(source: str) -> list:
    """Each read of a private attribute of a model, ``model._x`` or ``<...>.model._x``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Attribute) and node.attr.startswith("_")
                and not node.attr.startswith("__")):
            owner = node.value
            if (owner.id if isinstance(owner, ast.Name) else getattr(owner, "attr", None)) \
                    == "model":
                found.append((node.lineno, node.col_offset, ast.unparse(node)))
    return [f"line {line}: {text}" for line, _, text in sorted(found)]


def test_private_model_scanner_flags_only_private_model_attributes():
    source = ("model._kernel(1)\nx = self.model._basis\nmodel.prepare(at)\n"
              "other._x\nmodel.__class__\n")
    assert private_model_reads(source) == ["line 1: model._kernel", "line 2: self.model._basis"]


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "scores.py"],
                         ids=lambda p: p.name)
def test_only_scores_reads_private_model_attributes(path):
    assert private_model_reads(path.read_text()) == []
