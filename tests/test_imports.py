"""Every name a package module imports is used in that module, so each
name has one home and no module re-exports another's."""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "kktprec"

# Imported to be imported from here: the root names the config, and
# perfbench/traced.py imports REDUCED_REGULARIZATION from kktprec.kkt.
EXEMPT = {
    "__init__.py": {
        "BDAL_EXACT",
        "BDAL_LUMPED_EXACT",
        "BDAL_LUMPED_INEXACT",
        "REDUCED_REGULARIZATION",
        "ConfigError",
        "ExperimentConfig",
        "load_config",
    },
    "kkt.py": {"REDUCED_REGULARIZATION"},
}


def unused_imports(source: str) -> list[str]:
    """Names bound by an import statement anywhere in source and never read."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported |= {alias.asname or alias.name.split(".")[0] for alias in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_guard_finds_an_unused_import():
    source = "from __future__ import annotations\nimport os.path\nimport numpy as np\nfrom a import b, c\nb(np)\n"
    assert unused_imports(source) == ["c", "os"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda path: path.name)
def test_module_uses_every_name_it_imports(path):
    unused = set(unused_imports(path.read_text())) - EXEMPT.get(path.name, set())
    assert not unused, f"{path.name} imports names it never uses: {sorted(unused)}"
