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
