"""Configs are checked once, when they are built: `JsonConfig.__post_init__`
is the one place in src/visitrep that calls `.validate()`, so no caller
re-checks a config it was handed. Like tests/test_imports.py, this walks
each module's syntax tree."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "visitrep"
THE_CALLER = "JsonConfig.__post_init__"


def validate_calls(source: str) -> list:
    """(line, enclosing class and function names) of each `.validate()` call."""
    found = []

    def walk(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                walk(child, scope + (child.name,))
                continue
            if (isinstance(child, ast.Call) and isinstance(child.func, ast.Attribute)
                    and child.func.attr == "validate"):
                found.append((child.lineno, ".".join(scope)))
            walk(child, scope)

    walk(ast.parse(source), ())
    return found


def test_oracle_finds_every_call_and_its_scope():
    source = (
        "class JsonConfig:\n"
        "    def __post_init__(self):\n"
        "        self.validate()\n"
        "def train(config):\n"
        "    config.validate()\n"
        "    return [s.validate() for s in config.sections]\n"
        "class Other:\n"
        "    def __post_init__(self):\n"
        "        self.validate()\n"
        "validate()\n"
    )
    assert validate_calls(source) == [
        (3, THE_CALLER), (5, "train"), (6, "train"), (9, "Other.__post_init__"),
    ]


def test_only_the_config_mixin_calls_validate():
    calls = [
        (f"{path.relative_to(PACKAGE.parent)}:{line}", scope)
        for path in sorted(PACKAGE.rglob("*.py"))
        for line, scope in validate_calls(path.read_text(encoding="utf-8"))
    ]
    assert [scope for _, scope in calls] == [THE_CALLER], calls
