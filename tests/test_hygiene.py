"""Source hygiene checks that need no linter: every module of the package
uses each name it imports."""

import ast
import os

import pytest

SRC_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "src",
                       "affinedim")
MODULES = sorted(f for f in os.listdir(SRC_DIR)
                 if f.endswith(".py") and f != "__init__.py")


def unused_imports(source):
    """Names bound by import statements and never read in the module."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted(name for name in imported if name not in used)


def test_checker_finds_an_unused_import():
    src = "import os\nfrom math import pi, tau\nprint(os.sep, tau)\n"
    assert unused_imports(src) == ["pi"]


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_imports(module):
    with open(os.path.join(SRC_DIR, module)) as fh:
        assert unused_imports(fh.read()) == []
