"""No stale imports: every module-level import in src/visitrep is used in its
module or re-exported through `__all__`. No linter is installed, so this
walks each module's syntax tree instead."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "visitrep"


def unused_imports(source: str) -> list:
    """(line, name) of each module-level import the module never reads."""
    tree = ast.parse(source)
    imported = []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.append((node.lineno, name))
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= {e.value for e in node.value.elts if isinstance(e, ast.Constant)}
    return [(line, name) for line, name in imported if name not in used]


def test_oracle_finds_unused_and_accepts_used_imports():
    source = (
        "from __future__ import annotations\n"
        "import json\n"
        "import os.path\n"
        "from typing import Optional, Sequence\n"
        "from .a import b as c, d\n"
        "__all__ = ['d']\n"
        "def f(x: Optional[int]) -> 'Sequence':\n"
        "    return os.path.join(x)\n"
    )
    assert unused_imports(source) == [(2, "json"), (4, "Sequence"), (5, "c")]


def test_every_module_level_import_is_used():
    found = [
        f"{path.relative_to(PACKAGE.parent)}:{line}: {name}"
        for path in sorted(PACKAGE.rglob("*.py"))
        for line, name in unused_imports(path.read_text(encoding="utf-8"))
    ]
    assert not found, "unused imports:\n" + "\n".join(found)
