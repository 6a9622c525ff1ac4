"""The package depends on numpy alone (scipy is installed but not declared)."""

import ast
import sys
from pathlib import Path

import mfglearn

ALLOWED = set(sys.stdlib_module_names) | {"numpy", "mfglearn"}


def imported_roots(tree: ast.AST):
    """Top-level module of every import in the tree, nested ones included;
    a relative import counts as ``mfglearn``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom):
            root = "mfglearn" if node.level else node.module.split(".")[0]
            yield node.lineno, root


def test_imported_roots_sees_nested_and_relative_imports():
    tree = ast.parse(
        "import os.path\nfrom . import envs\n"
        "def f():\n    from scipy.linalg import solve\n    import numpy as np\n"
    )
    assert list(imported_roots(tree)) == [
        (1, "os"), (2, "mfglearn"), (4, "scipy"), (5, "numpy")
    ]


def test_package_imports_only_the_standard_library_and_numpy():
    sources = sorted(Path(mfglearn.__file__).parent.glob("*.py"))
    assert len(sources) >= 8
    foreign = [
        f"{path.name}:{line} imports {root}"
        for path in sources
        for line, root in imported_roots(ast.parse(path.read_text(), filename=str(path)))
        if root not in ALLOWED
    ]
    assert foreign == []
