"""Module boundaries inside the package, checked from the source."""

import ast
from pathlib import Path

import quell

PACKAGE = Path(quell.__file__).parent


def imported_modules(path: Path) -> set[str]:
    """Top-level names of every module ``path`` imports, at any depth."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            names.add(node.module.partition(".")[0])
    return names


def test_only_csvio_imports_csv():
    importers = sorted(
        path.name for path in PACKAGE.glob("*.py") if "csv" in imported_modules(path)
    )
    assert importers == ["csvio.py"]
