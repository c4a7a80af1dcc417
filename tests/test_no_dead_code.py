"""Every definition, field and defaulted parameter in the package has a
user in the package.

The scans are by name:

* a top-level function or class, or a non-dunder method, counts as used
  when its name occurs as a variable or attribute name anywhere in the
  package outside its own definition;
* a class-body field, or an attribute a method stores on ``self``, counts
  as read when its name is read as an attribute anywhere in the package;
* a parameter with a default counts as passed when some call in the
  package to a function or method of that name passes it a value other
  than its default, by position or keyword (or through ``*``/``**``); an
  argument that is not a literal counts as another value.  Calls to a
  class count for its ``__init__``, or for its record fields when it is a
  ``model.record`` (or a dataclass) and has no ``__init__``.

So a member that shares its name with one used elsewhere passes; the
tests catch what nothing mentions, not everything unused.
"""

import ast
import functools
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
    "NormalOntology.concepts_of": "demos/02 prints ada's type; tests/oracles",
}

# Fields and self attributes kept although no package code reads them.
ALLOWED_FIELDS: dict = {}

# Defaulted parameters no package call passes, each with its outside caller.
ALLOWED_PARAMS = {
    "cli.main(argv)": "tests and perfbench/worker.py call main(argv)",
}


@functools.cache
def _trees() -> dict:
    return {f.name: ast.parse(f.read_text(encoding="utf-8"))
            for f in sorted(PACKAGE.glob("*.py"))}


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
    trees = _trees()
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


# ---------------------------------------------------------------------------
# Fields and self attributes


def _classes():
    for tree in _trees().values():
        for n in ast.walk(tree):
            if isinstance(n, ast.ClassDef):
                yield n


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _stored_members(cls: ast.ClassDef):
    """Names of ``cls``'s class-body fields and of the attributes its
    methods store on ``self`` (directly or through ``object.__setattr__``)."""
    for st in cls.body:
        if isinstance(st, ast.AnnAssign) and isinstance(st.target, ast.Name):
            yield st.target.id
        elif isinstance(st, ast.Assign):
            yield from (t.id for t in st.targets if isinstance(t, ast.Name))
    for fn in cls.body:
        if not isinstance(fn, ast.FunctionDef):
            continue
        for n in ast.walk(fn):
            if (isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Store)
                    and isinstance(n.value, ast.Name) and n.value.id == "self"):
                yield n.attr
            elif (isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)
                  and n.func.attr == "__setattr__" and len(n.args) >= 2
                  and isinstance(n.args[1], ast.Constant)):
                yield n.args[1].value


def _unread_fields() -> list[str]:
    read = {n.attr for tree in _trees().values() for n in ast.walk(tree)
            if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)}
    out = set()
    for cls in _classes():
        for name in _stored_members(cls):
            if not _is_dunder(name) and name not in read:
                out.add(f"{cls.name}.{name}")
    return sorted(out)


# ---------------------------------------------------------------------------
# Defaulted parameters


def _is_record(cls: ast.ClassDef) -> bool:
    """Is ``cls`` decorated by ``record`` or ``dataclass``, with or without
    arguments, so that its annotated fields are its constructor's
    parameters?"""
    for dec in cls.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        if isinstance(target, ast.Name) and target.id in ("record", "dataclass"):
            return True
    return False


def _signatures():
    """(qualified name, callee name, positional parameters, defaulted
    positional parameters, defaulted keyword-only parameters) for every
    function, method and record constructor of the package; a defaulted
    parameter comes as (name, default expression).  A method's positional
    parameters exclude ``self``/``cls``; an ``__init__``, and a record
    without one, is called by its class's name."""
    def visit(node, prefix: str, in_class: ast.ClassDef | None):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                yield from visit(child, f"{prefix}{child.name}.", child)
                has_init = any(isinstance(m, ast.FunctionDef) and m.name == "__init__"
                               for m in child.body)
                if _is_record(child) and not has_init:
                    fields = [st for st in child.body if isinstance(st, ast.AnnAssign)
                              and isinstance(st.target, ast.Name)]
                    names = [st.target.id for st in fields]
                    defaulted = [(st.target.id, st.value) for st in fields
                                 if st.value is not None]
                    yield f"{prefix}{child.name}", child.name, names, defaulted, []
            elif isinstance(child, ast.FunctionDef):
                a = child.args
                pos = [p.arg for p in a.posonlyargs + a.args]
                static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                             for d in child.decorator_list)
                if in_class is not None and not static:
                    pos = pos[1:]
                defaulted = list(zip(pos[len(pos) - len(a.defaults):], a.defaults))
                kwonly = [(p.arg, dflt) for p, dflt in zip(a.kwonlyargs, a.kw_defaults)
                          if dflt is not None]
                callee = (in_class.name if in_class is not None and child.name == "__init__"
                          else child.name)
                yield f"{prefix}{child.name}", callee, pos, defaulted, kwonly
                yield from visit(child, f"{prefix}{child.name}.", None)
            else:
                yield from visit(child, prefix, in_class)

    for f, tree in _trees().items():
        yield from visit(tree, f"{Path(f).stem}.", None)


def _calls() -> dict:
    """Callee name -> list of (positional arguments, keyword name ->
    argument, splat); a ``*`` or ``**`` splat passes every parameter, and
    a bare decorator ``@f`` on ``def g``/``class g`` is the call ``f(g)``."""
    out: dict = {}
    for tree in _trees().values():
        for n in ast.walk(tree):
            if isinstance(n, (ast.FunctionDef, ast.ClassDef)):
                for dec in n.decorator_list:
                    if isinstance(dec, ast.Name):
                        out.setdefault(dec.id, []).append(([ast.Name(n.name)], {}, False))
            if not isinstance(n, ast.Call):
                continue
            if isinstance(n.func, ast.Name):
                name = n.func.id
            elif isinstance(n.func, ast.Attribute):
                name = n.func.attr
            else:
                continue
            splat = (any(isinstance(a, ast.Starred) for a in n.args)
                     or any(k.arg is None for k in n.keywords))
            kws = {k.arg: k.value for k in n.keywords if k.arg is not None}
            out.setdefault(name, []).append((n.args, kws, splat))
    return out


def _same_literal(a: ast.expr, b: ast.expr) -> bool:
    try:
        x, y = ast.literal_eval(a), ast.literal_eval(b)
    except (ValueError, TypeError, SyntaxError):
        return False
    return type(x) is type(y) and x == y


def _passes_another_value(site: tuple, i, p: str, default: ast.expr) -> bool:
    """Does the call ``site`` pass the parameter ``p``, at position ``i``
    (None when keyword-only), a value other than ``default``?"""
    args, kws, splat = site
    if splat:
        return True
    arg = args[i] if i is not None and i < len(args) else kws.get(p)
    return arg is not None and not _same_literal(arg, default)


def _unpassed_params() -> list[str]:
    calls = _calls()
    out = []
    for qual, callee, pos, defaulted, kwonly in _signatures():
        for p, default in defaulted + kwonly:
            i = pos.index(p) if p in pos else None
            if not any(_passes_another_value(site, i, p, default)
                       for site in calls.get(callee, [])):
                out.append(f"{qual}({p})")
    return sorted(out)


def test_every_definition_is_referenced_in_the_package():
    assert [q for q in _unreferenced() if q not in ALLOWED] == []


def test_allowlist_is_small_and_current():
    assert len(ALLOWED) <= 8
    assert sorted(ALLOWED) == _unreferenced()


def test_every_field_is_read_in_the_package():
    assert [q for q in _unread_fields() if q not in ALLOWED_FIELDS] == []


def test_field_allowlist_is_small_and_current():
    assert len(ALLOWED_FIELDS) <= 8
    assert sorted(ALLOWED_FIELDS) == _unread_fields()


def test_every_defaulted_parameter_is_passed_in_the_package():
    assert [q for q in _unpassed_params() if q not in ALLOWED_PARAMS] == []


def test_parameter_allowlist_is_small_and_current():
    assert len(ALLOWED_PARAMS) <= 8
    assert sorted(ALLOWED_PARAMS) == _unpassed_params()
