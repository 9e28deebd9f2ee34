"""Every module the package imports is in the standard library, the package
itself, or a declared dependency in ``pyproject.toml``."""

import ast
import re
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")  # Python 3.11+

ROOT = Path(__file__).resolve().parents[1]


def undeclared_imports(package: Path, pyproject: Path) -> set[str]:
    """Top-level names of the modules ``package/*.py`` import that ``pyproject``
    does not declare in ``[project] dependencies``."""
    requirements = tomllib.loads(pyproject.read_text(encoding="utf-8"))["project"]["dependencies"]
    declared = {re.split(r"[\s<>=!~;\[]", r, maxsplit=1)[0].lower().replace("-", "_")
                for r in requirements}
    imported = set()
    for source in package.glob("*.py"):
        for node in ast.walk(ast.parse(source.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                imported.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    return imported - sys.stdlib_module_names - {package.name} - declared


def test_every_import_of_the_package_is_declared():
    assert undeclared_imports(ROOT / "src" / "hivemem", ROOT / "pyproject.toml") == set()


def test_an_undeclared_import_is_found(tmp_path):
    package = tmp_path / "hivemem"
    package.mkdir()
    (package / "tracefile.py").write_text(
        "import json\nimport numpy.linalg\nimport orjson\nfrom . import errors\n"
        "from hivemem.errors import SchemaError\n"
    )
    pyproject = tmp_path / "pyproject.toml"
    pyproject.write_text('[project]\ndependencies = ["numpy>=1.24", "requests[socks]"]\n')
    assert undeclared_imports(package, pyproject) == {"orjson"}
    pyproject.write_text('[project]\ndependencies = ["numpy>=1.24", "orjson>=3.8"]\n')
    assert undeclared_imports(package, pyproject) == set()


def test_no_package_line_is_longer_than_100_columns():
    long_lines = [
        f"{source.name}:{number}"
        for source in sorted((ROOT / "src" / "hivemem").glob("*.py"))
        for number, line in enumerate(source.read_text(encoding="utf-8").splitlines(), 1)
        if len(line) > 100
    ]
    assert long_lines == []
