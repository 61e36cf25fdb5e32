"""The package interface: `__all__` is the public names the package imports,
and the library's checks survive `python -O`."""
import ast
from pathlib import Path
from types import ModuleType

import ar_iet


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


def test_library_has_no_assert_statements():
    # `python -O` strips assert statements, so an invariant written as one
    # would go unchecked there
    for path in sorted(Path(ar_iet.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
        assert not lines, f"{path.name}: assert statements at lines {lines}"
