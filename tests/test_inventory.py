"""Every public top-level name in src/sca is used by the program or is a named oracle.

The oracles are the reference implementations that tests compare the
program against; anything else that no code in src/sca references is a
second copy of a job the program already does.
"""

import ast
from pathlib import Path

from sca import cli

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "sca"

ORACLES = (
    "field.context_vector",
    "field.mean_field",
    "field.spectral_project",
    "coherence.sca_loss",
    "coherence.coherence_score",
    "kernel.kernel_eval",
    "embedding.cosine",
    "lm.nll",
    "lm.train_baseline",
)


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
        for qualified in _public_definitions(modules) - set(ORACLES)
        if qualified.split(".", 1)[1] not in referenced
    )
    assert unused == []


def test_oracles_exist():
    assert set(ORACLES) <= _public_definitions(_parse_modules())


def test_every_knob_is_in_the_readme():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    spelled = [f"--{k.name.replace('_', '-')}" if k.help else f"`{k.name}`" for k in cli.KNOBS]
    assert [word for word in spelled if word not in readme] == []
