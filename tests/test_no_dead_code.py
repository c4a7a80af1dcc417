"""Every definition in the package has a user in the package.

The scan is by name: a top-level function or class, or a non-dunder method,
counts as used when its name occurs as a variable or attribute name
anywhere in the package outside its own definition.  So a method that
shares its name with an attribute used elsewhere passes; the test catches
definitions nothing mentions, not every unused one.
"""

import ast
from pathlib import Path

import omqlab

PACKAGE = Path(omqlab.__file__).parent

# Kept although no package code reads them, each for the check named here.
ALLOWED = {
    "unravel1_at": "demos/06_unravelings.py and test_graphalg.test_unravel1_at",
    "Database.concept_facts": "role_facts' sibling; test_chase, test_graphalg",
    "EvalResult.boolean": "demos/03 and demos/06 print Boolean verdicts",
    "TreeDecomposition.validate": "test_graphalg's structural check of decompositions",
    "ChaseDb.restriction": "test_chase.test_chase_restriction",
}


def _definitions(tree: ast.Module):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
            if isinstance(node, ast.ClassDef):
                for m in node.body:
                    if isinstance(m, ast.FunctionDef) and not (
                            m.name.startswith("__") and m.name.endswith("__")):
                        yield f"{node.name}.{m.name}", m


def _unreferenced() -> list[str]:
    trees = {f.name: ast.parse(f.read_text(encoding="utf-8"))
             for f in sorted(PACKAGE.glob("*.py"))}
    uses = []  # (module file, line, name)
    for f, tree in trees.items():
        for n in ast.walk(tree):
            if isinstance(n, ast.Name):
                uses.append((f, n.lineno, n.id))
            elif isinstance(n, ast.Attribute):
                uses.append((f, n.lineno, n.attr))
    out = []
    for f, tree in trees.items():
        for qual, node in _definitions(tree):
            name = qual.rsplit(".", 1)[-1]
            if not any(u == name and not (g == f and node.lineno <= line <= node.end_lineno)
                       for g, line, u in uses):
                out.append(qual)
    return sorted(out)


def test_every_definition_is_referenced_in_the_package():
    assert [q for q in _unreferenced() if q not in ALLOWED] == []


def test_allowlist_is_small_and_current():
    assert len(ALLOWED) <= 8
    assert sorted(ALLOWED) == _unreferenced()
