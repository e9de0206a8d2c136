"""Only :mod:`fewstep.artifacts` writes files or loads binary arrays; every other
package module goes through it, so every write is atomic and every load checked."""

import ast
import pathlib
import re

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "fewstep"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "artifacts.py")
NUMPY_IO = {"save", "savez", "savez_compressed", "savetxt", "load", "loadtxt", "fromfile"}
WRITE_METHODS = {"write_bytes", "write_text", "tofile"}
MODE = re.compile(r"[rwxabt+]+")


def _is_write_mode(node) -> bool:
    """A mode argument that opens for writing, or one not known until run time."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return bool(MODE.fullmatch(node.value)) and bool(set(node.value) & set("wxa+"))
    return True


def file_access(source: str) -> list:
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        if name in ("open", "fdopen"):
            # open(path, mode) and module.open(path, mode), or path.open(mode)
            modes = [kw.value for kw in node.keywords if kw.arg == "mode"]
            modes += node.args[1:2]
            if isinstance(func, ast.Attribute):
                modes += [arg for arg in node.args[:1] if isinstance(arg, ast.Constant)]
            if any(_is_write_mode(m) for m in modes):
                found.append((node.lineno, f"{name} for writing"))
        elif name in WRITE_METHODS and isinstance(func, ast.Attribute):
            found.append((node.lineno, name))
        elif (name in NUMPY_IO and isinstance(func, ast.Attribute)
              and isinstance(func.value, ast.Name) and func.value.id in ("np", "numpy")):
            found.append((node.lineno, f"np.{name}"))
    return [f"line {line}: {what}" for line, what in sorted(found)]


def test_scanner_flags_writes_and_numpy_io():
    source = ("import numpy as np\n"
              "open(p)\nopen(p, 'r')\nopen(p, encoding='utf8')\n"
              "open(p, 'w')\nopen(p, mode='ab')\nopen(p, m)\n"
              "Path(p).open('w')\nPath(p).open()\ngzip.open(p, 'wt')\n"
              "Path(p).write_text(s)\np.write_bytes(b)\nnp.save(p, a)\nnp.load(p)\n"
              "np.asarray(a)\nPath(p).read_bytes()\n")
    assert file_access(source) == [
        "line 5: open for writing", "line 6: open for writing", "line 7: open for writing",
        "line 8: open for writing", "line 10: open for writing", "line 11: write_text",
        "line 12: write_bytes", "line 13: np.save", "line 14: np.load"]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_only_the_container_module_writes_files(path):
    assert file_access(path.read_text()) == []
