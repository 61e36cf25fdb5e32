"""The package interface: `__all__` is the public names the package imports,
each module imports on its own, the library's checks survive `python -O`, and
the README's library quick start prints what its comments say."""
import ast
import contextlib
import io
import os
import subprocess
import sys
from pathlib import Path
from types import ModuleType

import pytest

import ar_iet

MODULES = sorted(path.stem for path in Path(ar_iet.__file__).parent.glob("*.py")
                 if path.name != "__init__.py")


def test_all_lists_resolvable_public_names_and_no_module():
    names = ar_iet.__all__
    assert len(set(names)) == len(names)
    assert names[-1] == "__version__"
    assert "annotations" not in names
    for name in names:
        assert not isinstance(getattr(ar_iet, name), ModuleType), name
    # one name re-exported from each submodule
    assert {"DomainError", "parse_triple", "sigma9", "Ar6Map", "iterate_induction",
            "Tower", "xi_sequence"} <= set(names)


def test_star_import_gives_every_listed_name():
    namespace: dict = {}
    exec("from ar_iet import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(ar_iet.__all__)


@pytest.mark.parametrize("module", MODULES)
def test_each_module_imports_alone(module):
    # a fresh interpreter has imported nothing yet, so the import runs from
    # scratch; a cycle of module-level imports between two modules fails it
    # whichever of the two the package reaches first
    env = {**os.environ, "PYTHONPATH": str(Path(ar_iet.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-c", f"import ar_iet.{module}"],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr


def test_library_has_no_assert_statements():
    # `python -O` strips assert statements, so an invariant written as one
    # would go unchecked there
    for path in sorted(Path(ar_iet.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
        assert not lines, f"{path.name}: assert statements at lines {lines}"


def _imported_names(tree):
    """Name bound -> line, for each import of a module but the future one."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def _used_names(tree):
    """Every name a module reads, in code and in quoted annotations."""
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            annotations = [arg.annotation for arg in (*args.posonlyargs, *args.args,
                                                      *args.kwonlyargs, args.vararg, args.kwarg)
                           if arg is not None] + [node.returns]
        elif isinstance(node, ast.AnnAssign):
            annotations = [node.annotation]
        else:
            continue
        for annotation in filter(None, annotations):
            for sub in ast.walk(annotation):
                if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                    used |= _used_names(ast.parse(sub.value, mode="eval"))
    return used


def test_library_modules_use_every_name_they_import():
    # the package's __init__ imports names to re-export them
    for path in sorted(Path(ar_iet.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        used = _used_names(tree)
        unused = {name: line for name, line in _imported_names(tree).items() if name not in used}
        assert not unused, f"{path.name}: unused imports (name: line) {unused}"


def test_readme_quick_start_prints_its_comments():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    start = readme.index("```python\n", readme.index("## Library quick start")) + len("```python\n")
    block = readme[start:readme.index("```", start)]
    # each commented print line prints its comment, strings written in quotes
    expected = [line.split("#", 1)[1].strip().replace('"', "")
                for line in block.splitlines() if line.startswith("print(") and "#" in line]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, "README.md", "exec"), {})
    assert out.getvalue().splitlines() == expected
    assert {"17184", "abaca", "abacaba", "True"} <= set(expected)
    assert expected[-1] == "[<Sym.I: 1>] [(1, 1, 1), (2, 2, 1)]"
