"""No module of the package imports another module's underscore name.

A name with a leading underscore is private to the module that defines
it; a module that needs another's helper uses its public name.  The scan
is by syntax: every ``from`` import of a package module, at module level
or inside a function, and every attribute read through a module that an
``import`` statement bound.
"""

import ast

from test_no_dead_code import _trees


def _private_imports(tree: ast.Module) -> list[str]:
    """The package-private names ``tree`` takes from other modules, as
    ``module.name``."""
    out = []
    modules = set()  # local names bound to package modules
    for n in ast.walk(tree):
        if isinstance(n, ast.ImportFrom):
            own = n.level > 0 or (n.module or "").split(".")[0] == "omqlab"
            for alias in n.names if own else ():
                if alias.name.startswith("_"):
                    out.append(f"{n.module or '.'}.{alias.name}")
                elif n.module in (None, "omqlab"):
                    modules.add(alias.asname or alias.name)
        elif isinstance(n, ast.Import):
            modules.update(alias.asname or alias.name for alias in n.names
                           if alias.name.split(".")[0] == "omqlab")
    for n in ast.walk(tree):
        if (isinstance(n, ast.Attribute) and n.attr.startswith("_")
                and not n.attr.startswith("__")
                and isinstance(n.value, ast.Name) and n.value.id in modules):
            out.append(f"{n.value.id}.{n.attr}")
    return out


def test_no_module_imports_a_private_name():
    assert {f: names for f, tree in _trees().items()
            if (names := _private_imports(tree))} == {}


def test_the_scan_sees_each_kind_of_private_import():
    src = ("from .evaluation import _x, y\n"
           "from . import entailment\n"
           "import omqlab.chase as ch\n"
           "def f():\n"
           "    from omqlab.pebble import _z\n"
           "    return entailment._w, ch._v, entailment.ok, y._u\n")
    assert sorted(_private_imports(ast.parse(src))) == [
        "ch._v", "entailment._w", "evaluation._x", "omqlab.pebble._z"]
