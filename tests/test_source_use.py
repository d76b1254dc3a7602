"""Every definition in ``src/relfusion`` is used by the program.

A module-level function or class counts as used when code under ``src/``
refers to it outside its own body, when ``perfbench/`` names it, or when
the acceptance suite imports it. A method or property of a class counts
as used when an attribute access under ``src/`` outside its own body
reads it, when ``perfbench/`` reads ``.name``, or when the acceptance
suite reads it; dunders and overrides of a base-class member are called
by the base's callers. Anything else is a test-only copy: tests call the
form the program runs instead. The package root holds only
``__version__``: the program and its users import names from modules.
"""

import ast
import importlib
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "relfusion"

# Definitions kept with no caller in the program, each with its reason.
KEEP = {
    "bayes_accuracy": "README documents it as the accuracy ceiling of a generated set",
    "load_oracle": "reads gen-synth's oracle.json, which README documents, for bayes_accuracy",
}

# A module with each kind of member the member check must tell apart.
SYNTHETIC = '''
import argparse


class Parser(argparse.ArgumentParser):
    def error(self, message):  # an override: argparse calls it
        raise SystemExit(message)

    def __repr__(self):
        return "Parser()"

    def used(self):
        return 1

    def unused(self, n):
        return self.unused(n - 1) if n else self.used()

    @property
    def unused_property(self):
        return 2


def caller(parser):
    return parser.used()
'''


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


def _member_definitions(tree: ast.Module, namespace: dict) -> dict[str, ast.FunctionDef]:
    """Each method and property of the module's classes by ``Class.name``, less dunders
    and overrides of a member of a base in the class's ``namespace`` object's MRO."""
    members = {}
    for node in tree.body:
        if not isinstance(node, ast.ClassDef):
            continue
        bases = namespace[node.name].__mro__[1:]
        for item in node.body:
            if (
                isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                and not (item.name.startswith("__") and item.name.endswith("__"))
                and not any(item.name in vars(base) for base in bases)
            ):
                members[f"{node.name}.{item.name}"] = item
    return members


def _unused_members(modules: list[tuple[ast.Module, dict]], elsewhere: set[str]) -> set[str]:
    """``Class.name`` of each member of the ``(tree, namespace)`` modules that no attribute
    access in them reads outside its own body and whose name ``elsewhere`` lacks."""
    members = {}
    for tree, namespace in modules:
        members.update(_member_definitions(tree, namespace))
    accesses = [node for tree, _ in modules for node in ast.walk(tree)
                if isinstance(node, ast.Attribute)]
    unused = set()
    for qualname, item in members.items():
        own = {id(node) for node in ast.walk(item)}
        if item.name not in elsewhere and not any(
            node.attr == item.name and id(node) not in own for node in accesses
        ):
            unused.add(qualname)
    return unused


def _perfbench_text() -> str:
    return "\n".join(p.read_text() for p in sorted((ROOT / "perfbench").glob("*.py")))


def _acceptance_tree() -> ast.Module:
    return ast.parse((ROOT / "tests" / "test_acceptance.py").read_text())


def _unused_definitions() -> set[str]:
    defs, uses = [], []
    for path in sorted(PACKAGE.glob("*.py")):
        module_defs, module_uses = _definitions_and_uses(ast.parse(path.read_text()))
        defs.extend(module_defs)
        uses.extend(module_uses)
    perfbench = _perfbench_text()
    acceptance = {
        alias.name
        for node in ast.walk(_acceptance_tree())
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    return {
        name for name in defs
        if not any(used == name and owner != name for used, owner in uses)
        and not re.search(rf"\b{name}\b", perfbench)
        and name not in acceptance
    }


def _unused_package_members() -> set[str]:
    modules = [
        (ast.parse(path.read_text()), vars(importlib.import_module(f"relfusion.{path.stem}")))
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "__init__.py"
    ]
    elsewhere = set(re.findall(r"\.(\w+)", _perfbench_text())) | {
        node.attr for node in ast.walk(_acceptance_tree()) if isinstance(node, ast.Attribute)
    }
    return _unused_members(modules, elsewhere)


def test_only_the_keep_list_lacks_a_program_caller():
    # A kept name that gains a caller leaves the list.
    assert _unused_definitions() == KEEP.keys()


def test_every_class_member_has_a_program_reader():
    assert _unused_package_members() == set()


def test_the_member_check_flags_exactly_the_unused_members():
    namespace = {}
    exec(compile(SYNTHETIC, "<synthetic>", "exec"), namespace)
    flagged = _unused_members([(ast.parse(SYNTHETIC), namespace)], set())
    assert flagged == {"Parser.unused", "Parser.unused_property"}
    assert _unused_members([(ast.parse(SYNTHETIC), namespace)], {"unused"}) == {
        "Parser.unused_property"
    }


def test_the_package_root_defines_only_its_version():
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    assert ast.get_docstring(tree) and len(tree.body) == 2, "a docstring and __version__ only"
    version = tree.body[1]
    assert isinstance(version, ast.Assign)
    assert [ast.unparse(target) for target in version.targets] == ["__version__"]
