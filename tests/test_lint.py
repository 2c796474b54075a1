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


def functions_reading(source: str, name: str) -> list[str]:
    """Names of the top-level functions and classes that read ``name``,
    bare or as an attribute; ``<module>`` for a read outside them."""
    return [getattr(node, "name", "<module>") for node in ast.parse(source).body
            if name in read_names(ast.unparse(node))]


def test_functions_reading_are_flagged():
    source = ("def f():\n    return g()\ndef h():\n    return m.g + 1\n"
              "def g():\n    return 0\nx = g\n")
    assert functions_reading(source, "g") == ["f", "h", "<module>"]


def test_only_the_memory_check_reads_physical_memory():
    """The memory policy is ``qaoa.peak_bytes``, and ``check_memory`` is
    the one function that holds it against the machine's memory; a
    second reader would be a second policy."""
    found = [f"{path.relative_to(ROOT)} {fn}"
             for top in ("src", "scripts")
             for path in sorted((ROOT / top).rglob("*.py"))
             for fn in functions_reading(path.read_text(), "physical_memory")]
    assert found == ["src/profitcover/qaoa.py check_memory"]


def callee(call: ast.Call) -> str | None:
    """The name a call calls, bare or as an attribute."""
    func = call.func
    return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)


def dropped_calls(source: str, name: str) -> list[int]:
    """Lines of the expression statements that call ``name``, bare or as
    an attribute, and so drop what it returns."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Expr) and isinstance(node.value, ast.Call)
                  and callee(node.value) == name)


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


def unpassed_keywords(module: str, callers: list[str]) -> list[str]:
    """Keyword-only parameters of the public top-level functions of the
    source ``module`` that no call in the sources ``callers`` passes by
    name to a function of that name, as ``function(keyword=)``."""
    passed = {(callee(node), kw.arg) for source in callers for node in ast.walk(ast.parse(source))
              if isinstance(node, ast.Call) for kw in node.keywords}
    return [f"{node.name}({arg.arg}=)" for node in ast.parse(module).body
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
            for arg in node.args.kwonlyargs if (node.name, arg.arg) not in passed]


def test_unpassed_keywords_are_flagged():
    module = ("def f(a, *, b=1, c=2):\n    pass\ndef h(*, e=0):\n    pass\n"
              "def _g(*, d=0):\n    pass\n")
    callers = ["f(1, b=2)\n", "m.f(1, c=3)\nother(e=1)\nh(1, 2)\n"]
    assert unpassed_keywords(module, callers) == ["h(e=)"]


def test_every_simulator_keyword_is_passed():
    """A keyword-only parameter of a public ``profitcover.qaoa`` function
    is passed by some call in the package or its scripts. Buffer keywords
    that only tests passed (``out=``, ``work=``) kept a second way into
    the simulator's buffers alive; one that nothing passes is dead API."""
    callers = [path.read_text() for top in ("src", "scripts")
               for path in sorted((ROOT / top).rglob("*.py"))]
    module = (ROOT / "src" / "profitcover" / "qaoa.py").read_text()
    assert unpassed_keywords(module, callers) == []


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


def scripts_exercised(source: str) -> set[str]:
    """Names a test module gives scripts: the argument of each
    ``_load_script("<stem>")`` call, and each whole string ``"<stem>.py"``.
    A file name inside a longer string, such as a message, is not one."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_load_script"
                and node.args and isinstance(node.args[0], ast.Constant)):
            found.add(node.args[0].value)
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and node.value.endswith(".py")):
            found.add(node.value.removesuffix(".py"))
    return found


def test_scripts_exercised_are_found():
    source = ('a = _load_script("one")\nb = ROOT / "scripts" / "two.py"\n'
              'HINT = "download it with scripts/three.py"\nf"run {x}/four.py"\n')
    assert {"one", "two"} <= scripts_exercised(source)
    assert not {"three", "four"} & scripts_exercised(source)


def test_every_script_is_exercised_by_a_test():
    """Each script under ``scripts/`` is loaded or run by some test, so a
    change that breaks it fails the suite rather than its next user."""
    exercised = set()
    for path in sorted((ROOT / "tests").rglob("*.py")):
        exercised |= scripts_exercised(path.read_text())
    stems = [path.stem for path in sorted((ROOT / "scripts").glob("*.py"))]
    assert [stem for stem in stems if stem not in exercised] == []
