"""Every public top-level name in src/sca is used by the program; oracles live in tests/oracles.py.

A name that no code in src/sca references is either a second copy of a job
the program already does or a reference implementation; the references live
in tests/oracles.py, which imports nothing from sca, so an oracle cannot run
the code it checks.
"""

import ast
from pathlib import Path

from sca import cli

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "sca"
ORACLE_FILE = ROOT / "tests" / "oracles.py"


def _parse_modules():
    return {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in SRC.glob("*.py")}


def _public_definitions(modules):
    return {
        f"{name}.{node.name}"
        for name, tree in modules.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
    }


def _referenced_names(modules):
    names = set()
    for tree in modules.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                names.update(alias.name for alias in node.names)
    return names


def test_every_public_name_is_used_or_an_oracle():
    modules = _parse_modules()
    referenced = _referenced_names(modules)
    unused = sorted(
        qualified
        for qualified in _public_definitions(modules)
        if qualified.split(".", 1)[1] not in referenced
    )
    assert unused == []


def test_oracles_import_nothing_from_sca():
    imported = set()
    for node in ast.walk(ast.parse(ORACLE_FILE.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add("." * node.level + (node.module or ""))
    assert sorted(m for m in imported if m.split(".")[0] in ("sca", "")) == []


def test_every_knob_is_in_the_readme():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    spelled = [f"--{k.name.replace('_', '-')}" if k.help else f"`{k.name}`" for k in cli.KNOBS]
    assert [word for word in spelled if word not in readme] == []
