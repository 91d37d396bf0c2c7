import ast
import re
import sys
from pathlib import Path
from types import ModuleType

import pytest

import isoprod


def test_export_list_matches_the_package_namespace():
    # a helper deleted from a module must not leave a dangling export, and a
    # public name imported into the package must be exported
    assert len(isoprod.__all__) == len(set(isoprod.__all__))
    for name in isoprod.__all__:
        assert hasattr(isoprod, name), name
    public = {
        name
        for name, value in vars(isoprod).items()
        if not name.startswith("_") and not isinstance(value, ModuleType)
    }
    assert public <= set(isoprod.__all__), sorted(public - set(isoprod.__all__))


def test_runtime_imports_match_the_declared_dependencies():
    # a third-party module imported by the package must be declared, and a
    # declared dependency must still be imported: dropping one means dropping
    # both
    tomllib = pytest.importorskip("tomllib")
    root = Path(__file__).resolve().parents[1]
    project = tomllib.loads((root / "pyproject.toml").read_text())["project"]
    declared = {
        re.match(r"[A-Za-z0-9_.-]+", spec).group(0).lower().replace("-", "_")
        for spec in project["dependencies"]
    }
    imported = set()
    for path in (root / "src" / "isoprod").rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                imported.update(alias.name.partition(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.partition(".")[0])
    assert imported - set(sys.stdlib_module_names) - {"isoprod"} == declared


def test_package_has_no_float_arithmetic():
    # answers are exact: integers and Fractions only, so a float literal, a
    # float() call or true division anywhere in the package is a defect
    root = Path(__file__).resolve().parents[1] / "src" / "isoprod"
    found = []
    for path in sorted(root.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (
                (isinstance(node, ast.Constant) and isinstance(node.value, float))
                or (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name)
                    and node.func.id == "float"
                )
                or (
                    isinstance(node, (ast.BinOp, ast.AugAssign))
                    and isinstance(node.op, ast.Div)
                )
            ):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []
