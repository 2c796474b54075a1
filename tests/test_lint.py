"""Source hygiene checks that need no linter installed."""

import ast
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def unused_imports(source: str) -> list[str]:
    """Names a module imports but never reads.

    ``from __future__`` imports and names listed in ``__all__`` count as
    used; ``import a.b`` binds ``a``.
    """
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            read |= {elt.value for elt in node.value.elts}
    return [f"line {line}: {name}" for name, line in sorted(imported.items(), key=lambda kv: kv[1])
            if name not in read]


def test_unused_imports_are_flagged():
    source = ("from __future__ import annotations\n"
              "import os.path\nimport sys\nfrom json import dumps, loads as ld\n"
              "from re import compile\n__all__ = ['compile']\nprint(os.sep, ld)\n")
    assert unused_imports(source) == ["line 3: sys", "line 4: dumps"]


def test_every_import_is_read():
    found = [f"{path.relative_to(ROOT)} {hit}"
             for top in ("src", "scripts", "tests")
             for path in sorted((ROOT / top).rglob("*.py"))
             for hit in unused_imports(path.read_text())]
    assert found == []


def module_level_names(source: str) -> dict[str, int]:
    """Constants, functions and classes a module defines at its top
    level, with their line numbers; dunder names are left out."""
    names: dict[str, int] = {}
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names[node.name] = node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for sub in ast.walk(target):
                    if isinstance(sub, ast.Name):
                        names[sub.id] = node.lineno
    return {name: line for name, line in names.items() if not name.startswith("__")}


def read_names(source: str) -> set[str]:
    """Names a module reads, bare (``NAME``) or as an attribute (``mod.NAME``)."""
    read = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
    return read


def test_module_level_names_and_reads():
    source = ("X = 1\nY: int = 2\na, b = 3, 4\n__all__ = []\n"
              "def f():\n    return X\nclass C:\n    Z = 5\nprint(m.b)\n")
    assert module_level_names(source) == {"X": 1, "Y": 2, "a": 3, "b": 3, "f": 5, "C": 7}
    assert {"X", "b"} <= read_names(source)
    assert not {"Y", "a", "f", "C", "Z"} & read_names(source)


def test_every_module_level_name_is_read():
    """Every top-level constant, function and class of the package is read
    somewhere in src, scripts or tests, its own definition apart."""
    read = set()
    for top in ("src", "scripts", "tests"):
        for path in sorted((ROOT / top).rglob("*.py")):
            read |= read_names(path.read_text())
    found = [f"{path.relative_to(ROOT)} line {line}: {name}"
             for path in sorted((ROOT / "src" / "profitcover").glob("*.py"))
             for name, line in module_level_names(path.read_text()).items()
             if name not in read]
    assert found == []


def test_no_module_level_name_is_defined_twice():
    """Each top-level constant, function and class of the package is
    defined in one module; another module that needs it imports it."""
    defined: dict[str, list[str]] = {}
    for path in sorted((ROOT / "src" / "profitcover").glob("*.py")):
        for name in module_level_names(path.read_text()):
            defined.setdefault(name, []).append(path.name)
    assert {name: where for name, where in defined.items() if len(where) > 1} == {}


def test_only_qaoa_evolves_states():
    """The simulator's evolution steps are read in ``qaoa`` alone: another
    module that needs an evolved state gets it from ``evolve`` or from
    training, so the circuit has one code path."""
    steps = {"apply_phase", "apply_mixer", "uniform_state"}
    found = {path.name: sorted(steps & read_names(path.read_text()))
             for path in sorted((ROOT / "src" / "profitcover").glob("*.py"))
             if path.name != "qaoa.py"}
    assert {name: hits for name, hits in found.items() if hits} == {}


def dropped_calls(source: str, name: str) -> list[int]:
    """Lines of the expression statements that call ``name``, bare or as
    an attribute, and so drop what it returns."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Call):
            func = node.value.func
            if (func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)) == name:
                found.append(node.lineno)
    return sorted(found)


def test_dropped_calls_are_flagged():
    source = ("apply_mixer(s, 3, 0.1)\ns = apply_mixer(s, 3, 0.1)\n"
              "qaoa.apply_mixer(s, 3, 0.1)\nf(apply_mixer(s, 3, 0.1))\n"
              "def g():\n    apply_mixer(s, 3, 0.1)\n    return apply_mixer(s, 3, 0.1)\n")
    assert dropped_calls(source, "apply_mixer") == [1, 3, 6]


def test_every_mixer_result_is_used():
    """``apply_mixer`` returns whichever of its two buffers its last pass
    wrote, which need not be the array it was given; a caller that drops
    the result goes on with a half-mixed state."""
    found = [f"{path.relative_to(ROOT)} line {line}"
             for top in ("src", "scripts")
             for path in sorted((ROOT / top).rglob("*.py"))
             for line in dropped_calls(path.read_text(), "apply_mixer")]
    assert found == []


def test_the_run_path_imports_no_scipy():
    """scipy is a test dependency only: importing the package, its CLI and
    its pipeline loads none of it."""
    probe = ("import sys\n"
             "import profitcover, profitcover.cli, profitcover.pipeline\n"
             "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, check=True, timeout=60)
    assert out.stdout.strip() == "[]"
