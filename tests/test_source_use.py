"""Every module-level definition in ``src/relfusion`` is used by the program.

A function or class counts as used when code under ``src/`` refers to it
outside its own body and outside ``__init__.py``, when ``perfbench/``
names it, or when the acceptance suite imports it. Anything else is a
test-only copy: tests call the form the program runs instead.
"""

import ast
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "relfusion"

# Definitions kept with no caller in the program, each with its reason.
KEEP = {
    "bayes_accuracy": "README documents it as the accuracy ceiling of a generated set",
    "load_oracle": "reads gen-synth's oracle.json, which README documents, for bayes_accuracy",
}


def _definitions_and_uses(tree: ast.Module) -> tuple[list[str], list[tuple[str, str | None]]]:
    """The module's top-level function and class names, and each name it refers to
    paired with the top-level definition whose body holds the reference (None: module level)."""
    defs, uses = [], []
    for node in tree.body:
        owner = None
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defs.append(owner := node.name)
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                uses.append((sub.id, owner))
            elif isinstance(sub, ast.Attribute):
                uses.append((sub.attr, owner))
            elif isinstance(sub, ast.ImportFrom):
                uses.extend((alias.name, owner) for alias in sub.names)
    return defs, uses


def _unused_definitions() -> set[str]:
    defs, uses = [], []
    for path in sorted(PACKAGE.glob("*.py")):
        module_defs, module_uses = _definitions_and_uses(ast.parse(path.read_text()))
        defs.extend(module_defs)
        if path.name != "__init__.py":
            uses.extend(module_uses)
    perfbench = "\n".join(p.read_text() for p in sorted((ROOT / "perfbench").glob("*.py")))
    acceptance = {
        alias.name
        for node in ast.walk(ast.parse((ROOT / "tests" / "test_acceptance.py").read_text()))
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    return {
        name for name in defs
        if not any(used == name and owner != name for used, owner in uses)
        and not re.search(rf"\b{name}\b", perfbench)
        and name not in acceptance
    }


def test_only_the_keep_list_lacks_a_program_caller():
    # A kept name that gains a caller leaves the list.
    assert _unused_definitions() == KEEP.keys()
