"""Public names in src/visitrep that nothing in src/visitrep references.

Each stays for a reader outside the package: the benchmark's traced run
wraps it by name, or the tests use it as an oracle. The set is pinned, so
a new public function, class or method that only tests reach fails here.
A name counts as referenced when it appears as a name or an attribute
anywhere in the package's syntax trees; a definition or an import alone is
no reference. A kernel, a public function of numerics/tensor.py, counts
only where the package uses it as one (`numerics_uses`), so `np.tanh` or
`linear`'s `relu=` flag is no reference to the kernel of that name."""

import ast
from pathlib import Path

from perfbench.layers import KERNELS, SPANS

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "visitrep"
KERNEL_HOME = "numerics/tensor.py"
# Unreferenced name -> the reader that keeps it.
UNREFERENCED = {
    **dict.fromkeys(
        ["concat", "layer_norm", "masked_fill", "relu", "shift", "slice_axis", "tanh"], "KERNELS"
    ),
    **dict.fromkeys(["predict_next_codes", "sentence_matrix"], "SPANS"),
    "max_relative_error": "the tests' gradient checks",
    "code_condition": "the tests' recovery of the synthetic ground truth",
}


def package_sources() -> dict:
    """Each module's path under the package, as KERNEL_HOME is written, to
    its text."""
    return {path.relative_to(PACKAGE).as_posix(): path.read_text(encoding="utf-8")
            for path in PACKAGE.rglob("*.py")}


def numerics_uses(tree, in_kernel_home: bool, calls_only: bool = False) -> set:
    """The names a module's syntax tree uses as `numerics` kernels: the
    attributes of `nm` or `numerics`, the names the module imports from
    `.numerics` or `.tensor`, and, inside the kernels' own module, any bare
    call. With `calls_only`, only the called ones."""
    imported = {alias.asname or alias.name: alias.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.level
                and node.module in ("numerics", "tensor") for alias in node.names}
    used = set()
    for node in ast.walk(tree):
        if in_kernel_home and isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            used.add(node.func.id)
        if calls_only:
            if not isinstance(node, ast.Call):
                continue
            node = node.func
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in ("nm", "numerics")):
            used.add(node.attr)
        elif isinstance(node, ast.Name) and node.id in imported:
            used.add(imported[node.id])
    return used


def unreferenced(sources: dict) -> set:
    """The public module-level functions and classes, and the public methods
    of those classes, whose names no Name or Attribute node holds, with the
    kernels of `sources[KERNEL_HOME]` counted only where numerics_uses
    finds them."""
    trees = {path: ast.parse(source) for path, source in sources.items()}
    home = trees[KERNEL_HOME].body if KERNEL_HOME in trees else ()
    kernels = {node.name for node in home if isinstance(node, ast.FunctionDef)}
    defined, referenced, used = set(), set(), set()
    for path, tree in trees.items():
        used |= numerics_uses(tree, path == KERNEL_HOME)
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
    referenced = (referenced - kernels) | used
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
    assert unreferenced({"box.py": source}) == {"unused", "orphan", "Unmade"}


def test_oracle_counts_a_kernel_only_where_it_is_used_as_one():
    kernels = """
def add(a, b): pass
def scale(a, s): pass
def shift(a, s): pass
def tanh(a): pass
def relu(a): pass
def sigmoid(a): pass
def log(a): pass
def linear(x, w, b, relu=False):
    if relu:
        return add(x, w)
"""
    user = """
import numpy as np
from . import numerics as nm
from .numerics import log as natural_log
def run(x, w, b):
    y = np.tanh(nm.sigmoid(nm.linear(x, w, b, relu=True)))
    return natural_log(y), nm.scale
"""
    sources = {KERNEL_HOME: kernels, "user.py": user}
    assert unreferenced(sources) == {"run", "shift", "tanh", "relu"}


def test_the_names_only_outside_readers_reach_are_pinned():
    assert unreferenced(package_sources()) == set(UNREFERENCED)


def test_each_name_kept_for_the_benchmark_is_named_there():
    named = {"KERNELS": set(KERNELS),
             "SPANS": {target.split(":")[1].split(".")[-1] for _, target in SPANS}}
    for name, reader in UNREFERENCED.items():
        if reader in named:
            assert name in named[reader], name
