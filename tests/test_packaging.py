"""Every module the package imports is in the standard library, the package
itself, or a declared dependency in ``pyproject.toml``; every private
module-level name the package defines is used in it; ``import hivemem``
leaves the HTTP client unloaded; only ``errors`` tests an argument's type."""

import ast
import os
import re
import subprocess
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


def unused_private_names(package: Path) -> set[str]:
    """``module:name`` of each module-level ``_name`` (a function, class or
    assignment, dunders aside) in ``package/*.py`` that no line of the
    package reads, as a name, an attribute or an import."""
    defined, used = set(), set()
    for source in package.glob("*.py"):
        tree = ast.parse(source.read_text(encoding="utf-8"))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                targets = [node.name]
            elif isinstance(node, ast.Assign):
                targets = [t.id for t in node.targets if isinstance(t, ast.Name)]
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                targets = [node.target.id]
            else:
                continue
            defined.update((source.stem, name) for name in targets
                           if name.startswith("_") and not name.startswith("__"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                used.update(alias.name for alias in node.names)
    return {f"{module}:{name}" for module, name in defined if name not in used}


def test_every_private_module_name_is_used():
    assert unused_private_names(ROOT / "src" / "hivemem") == set()


def test_an_unused_private_name_is_found(tmp_path):
    package = tmp_path / "hivemem"
    package.mkdir()
    (package / "sim.py").write_text(
        "import re\n_RE = re.compile('x')\n_LIMIT: int = 3\n__version__ = '0'\n"
        "def _task_spec(task):\n    return task\n"
        "def _scorer(task):\n    return _RE.match(task)\n"
        "class _TeamPlan:\n    pass\n"
        "def run(task):\n    return _scorer(task)\n"
    )
    (package / "cli.py").write_text("from .sim import _TeamPlan\n")
    assert unused_private_names(package) == {"sim:_task_spec", "sim:_LIMIT"}
    (package / "cli.py").write_text("from . import sim\nLIMIT = sim._LIMIT\n")
    assert unused_private_names(package) == {"sim:_task_spec", "sim:_TeamPlan"}


def argument_type_tests(package: Path) -> set[str]:
    """``module:line`` of each ``isinstance(..., bool)`` (a tuple holding
    ``bool`` too) and ``type(...) is int`` (or ``is not``) in ``package/*.py``
    outside ``errors.py``, whose ``require_int`` and ``require_real`` are the
    one argument check."""
    found = set()
    for source in package.glob("*.py"):
        if source.name == "errors.py":
            continue
        for node in ast.walk(ast.parse(source.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id == "isinstance" and len(node.args) == 2):
                kinds = node.args[1].elts if isinstance(node.args[1], ast.Tuple) else [node.args[1]]
                hit = any(isinstance(kind, ast.Name) and kind.id == "bool" for kind in kinds)
            elif isinstance(node, ast.Compare) and isinstance(node.left, ast.Call):
                hit = (isinstance(node.left.func, ast.Name) and node.left.func.id == "type"
                       and isinstance(node.ops[0], (ast.Is, ast.IsNot))
                       and isinstance(node.comparators[0], ast.Name)
                       and node.comparators[0].id == "int")
            else:
                continue
            if hit:
                found.add(f"{source.stem}:{node.lineno}")
    return found


def test_only_errors_tests_an_argument_type():
    assert argument_type_tests(ROOT / "src" / "hivemem") == set()


def test_an_argument_type_test_is_found(tmp_path):
    package = tmp_path / "hivemem"
    package.mkdir()
    (package / "errors.py").write_text("def check(x):\n    return isinstance(x, bool)\n")
    (package / "sim.py").write_text(
        "def check(x, y):\n"
        "    a = isinstance(x, (int, bool))\n"
        "    b = type(y) is not int\n"
        "    c = isinstance(x, float) or type(y) is str\n"
        "    return a, b, c\n"
    )
    assert argument_type_tests(package) == {"sim:2", "sim:3"}


def test_no_package_line_is_longer_than_100_columns():
    long_lines = [
        f"{source.name}:{number}"
        for source in sorted((ROOT / "src" / "hivemem").glob("*.py"))
        for number, line in enumerate(source.read_text(encoding="utf-8").splitlines(), 1)
        if len(line) > 100
    ]
    assert long_lines == []


def test_importing_the_package_leaves_the_http_client_unloaded():
    # ``requests`` costs about as much to import as the rest of the package
    # with numpy; only the CLI's live backend and the endpoint adapter need it
    code = ("import sys, hivemem; "
            "print(sorted({'hivemem.cli', 'hivemem.endpoint', 'requests'} & set(sys.modules)))")
    result = subprocess.run(
        [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        capture_output=True, text=True, timeout=60, check=True,
    )
    assert result.stdout.strip() == "[]"
