"""Public names in src/visitrep that nothing in src/visitrep references.

Each stays for a reader outside the package: the benchmark's traced run
wraps it by name, or the tests use it as an oracle. The set is pinned, so
a new public function, class or method that only tests reach fails here.
A name counts as referenced when it appears as a name or an attribute
anywhere in the package's syntax trees; a definition or an import alone is
no reference."""

import ast
from pathlib import Path

from perfbench.layers import KERNELS, SPANS

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "visitrep"
# Unreferenced name -> the reader that keeps it.
UNREFERENCED = {
    **dict.fromkeys(["concat", "layer_norm", "masked_fill", "shift", "slice_axis"], "KERNELS"),
    **dict.fromkeys(["predict_next_codes", "sentence_matrix"], "SPANS"),
    "max_relative_error": "the tests' gradient checks",
    "code_condition": "the tests' recovery of the synthetic ground truth",
}


def unreferenced(sources) -> set:
    """The public module-level functions and classes, and the public methods
    of those classes, whose names no Name or Attribute node holds."""
    defined, referenced = set(), set()
    for source in sources:
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, ast.ClassDef):
                defined.update(item.name for item in node.body
                               if isinstance(item, ast.FunctionDef))
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.add(node.name)
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
    return {name for name in defined - referenced if not name.startswith("_")}


def test_oracle_finds_definitions_without_a_reference():
    source = """
from os import path
def used(): pass
def unused(): pass
def _private(): pass
class Box:
    def method(self): return used()
    def orphan(self): pass
    def _hidden(self): pass
    def __len__(self): return 0
class Unmade: pass
bound = Box().method
"""
    assert unreferenced([source]) == {"unused", "orphan", "Unmade"}


def test_the_names_only_outside_readers_reach_are_pinned():
    sources = [path.read_text(encoding="utf-8") for path in PACKAGE.rglob("*.py")]
    assert unreferenced(sources) == set(UNREFERENCED)


def test_each_name_kept_for_the_benchmark_is_named_there():
    named = {"KERNELS": set(KERNELS),
             "SPANS": {target.split(":")[1].split(".")[-1] for _, target in SPANS}}
    for name, reader in UNREFERENCED.items():
        if reader in named:
            assert name in named[reader], name
