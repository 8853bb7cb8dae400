"""Rules on the package source as a whole, and on what the test fixtures use of it."""

import ast
from pathlib import Path

import gifield as gf


def test_no_module_imports_another_modules_private_names():
    """Modules share public names only: no ``from .x import _y`` and no
    ``from gifield.x import _y`` anywhere in the package."""
    root = Path(gf.__file__).resolve().parent
    bad = []
    for path in sorted(root.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").split(".")[0] == "gifield"
            ):
                bad += [f"{path.relative_to(root)}:{node.lineno}: {alias.name}"
                        for alias in node.names if alias.name.startswith("_")]
    assert bad == []


def test_each_file_format_is_read_and_written_in_one_module():
    """The binary layouts (``struct``, ``json``) live in ``data.py`` and the CSV
    tables in ``harness.py``: no other module imports those libraries."""
    root = Path(gf.__file__).resolve().parent
    home = {"struct": "data.py", "json": "data.py", "csv": "harness.py"}
    bad = []
    for path in sorted(root.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module or ""]
            else:
                continue
            bad += [f"{path.name}:{node.lineno}: {name}" for name in names
                    if home.get(name.split(".")[0], path.name) != path.name]
    assert bad == []


def test_the_test_fixtures_use_no_private_name_of_the_package():
    """``tests/conftest.py`` builds its fixtures from public names only: no
    ``_``-prefixed attribute or import of a ``gifield`` module."""
    path = Path(__file__).with_name("conftest.py")
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    bound, bad = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound |= {alias.asname or alias.name.split(".")[0] for alias in node.names
                      if alias.name.split(".")[0] == "gifield"}
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "gifield":
            bound |= {alias.asname or alias.name for alias in node.names}
            bad += [f"{node.lineno}: {alias.name}" for alias in node.names
                    if alias.name.startswith("_")]
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr.startswith("_"):
            root = node.value
            while isinstance(root, ast.Attribute):
                root = root.value
            if isinstance(root, ast.Name) and root.id in bound:
                bad.append(f"{node.lineno}: {ast.unparse(node)}")
    assert bad == []
