import ast
import json
import os
import re
import subprocess
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


def test_readme_python_examples_print_what_they_say(capsys):
    # every python block in README runs as written, and prints, line by line,
    # the trailing comments of its print calls
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"^```python\n(.*?)^```", readme, re.S | re.M)
    assert blocks
    for block in blocks:
        expected = re.findall(r"^print\(.*\)\s+# (.*)$", block, re.M)
        assert expected
        exec(compile(block, "README.md", "exec"), {})
        assert capsys.readouterr().out.splitlines() == expected


# the dataclasses module and what it loads: no import of the package pays for them
HEAVY = {"dataclasses", "inspect", "ast", "dis", "tokenize"}

_IMPORT_PROBE = """
import json, sys
before = set(sys.modules)
import isoprod
loaded = {name.partition(".")[0] for name in set(sys.modules) - before}
facts = {
    "document_loaded": sorted(
        name for name in ("jsonschema", "isoprod.document") if name in sys.modules
    ),
    "families_loaded": "isoprod.families" in sys.modules,
    "foreign": sorted(loaded - set(sys.stdlib_module_names) - {"isoprod"}),
    "loaded": sorted(loaded),
}
import isoprod.document
names = ("Document", "emit_document", "parse_document")
facts["same_objects"] = [
    getattr(isoprod, name) is getattr(isoprod.document, name) for name in names
]
family_names = (
    "ConstancyReport", "FamilyStratum", "SmoothingChain",
    "check_constancy", "smooth_node_orbit", "smoothing_chain",
)
# the left getattr loads isoprod.families before the right one reads it
facts["family_same_objects"] = [
    getattr(isoprod, name) is getattr(sys.modules["isoprod.families"], name)
    for name in family_names
]
facts["cached"] = sorted(
    name for name in names + family_names if name in vars(isoprod)
)
star = {}
exec("from isoprod import *", star)
facts["star_missing"] = sorted(set(isoprod.__all__) - set(star))
try:
    isoprod.no_such_name
    facts["missing_name"] = "no error"
except AttributeError as exc:
    facts["missing_name"] = str(exc)
print(json.dumps(facts))
"""


SRC = Path(__file__).resolve().parents[1] / "src"


def _probe(*args: str):
    """The JSON printed by ``python *args`` run in a fresh interpreter on ``src``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        env=env,
        check=False,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_plain_import_leaves_the_document_layer_unloaded():
    # a library caller never parses a document, so ``import isoprod`` must
    # not pay for it; the document names still resolve, to the document
    # module's own objects, on first access, and the families names likewise
    facts = _probe("-c", _IMPORT_PROBE)
    assert facts["document_loaded"] == []
    assert facts["families_loaded"] is False
    assert facts["foreign"] == []
    assert HEAVY.isdisjoint(facts["loaded"])
    assert facts["same_objects"] == [True, True, True]
    assert facts["family_same_objects"] == [True] * 6
    # resolved afresh on each access, never bound into the package
    assert facts["cached"] == []
    assert facts["star_missing"] == []
    assert facts["missing_name"] == "module 'isoprod' has no attribute 'no_such_name'"


def test_cli_import_loads_only_the_standard_library():
    # every CLI run pays for what ``isoprod.cli`` imports: the document
    # checker is the package's own, so nothing outside the standard library;
    # and only check-family and smooth use isoprod.families, which they
    # import when they run
    foreign, loaded, families_loaded = _probe(
        "-c",
        "import json, sys\n"
        "before = set(sys.modules)\n"
        "import isoprod.cli\n"
        "loaded = {name.partition('.')[0] for name in set(sys.modules) - before}\n"
        "print(json.dumps([sorted(loaded - set(sys.stdlib_module_names) - {'isoprod'}),\n"
        "                  sorted(loaded), 'isoprod.families' in sys.modules]))\n"
    )
    assert foreign == []
    assert HEAVY.isdisjoint(loaded)
    assert families_loaded is False


@pytest.mark.parametrize("command", ["check-family", "smooth"])
def test_family_commands_run_in_a_fresh_process(command):
    document = SRC / "isoprod" / "data" / "quartic_node.json"
    items = _probe("-m", "isoprod.cli", command, "--json", str(document))["items"]
    if command == "check-family":
        assert items["node_smoothing"]["verdict"] == "constant"
    else:
        assert [s["label"] for s in items["node_swap"]["strata"]] == ["step0", "step1"]


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


def test_an_index_is_a_plain_int_everywhere():
    # the package's one integer rule is ``type(x) is int``: isinstance(x, int)
    # would also take a bool (True for element 1) or an IntEnum member
    root = Path(__file__).resolve().parents[1] / "src" / "isoprod"
    found = []
    for path in sorted(root.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "isinstance"
                and len(node.args) == 2
                and "int" in {
                    n.id for n in ast.walk(node.args[1]) if isinstance(n, ast.Name)
                }
            ):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_kept_facts_use_the_one_lock_free_helper():
    # _value.kept is the package's one way to keep a fact on an instance:
    # functools.cached_property (imported, or read as an attribute) would
    # bring back its second caching path and, on 3.10 and 3.11, its lock
    root = Path(__file__).resolve().parents[1] / "src" / "isoprod"
    found = []
    for path in sorted(root.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            names = (
                [alias.name for alias in node.names]
                if isinstance(node, (ast.Import, ast.ImportFrom))
                else [node.attr] if isinstance(node, ast.Attribute)
                else [node.id] if isinstance(node, ast.Name)
                else []
            )
            if "cached_property" in names:
                found.append(f"{path.name}:{node.lineno}")
    assert found == []
