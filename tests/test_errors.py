"""Every input omqlab refuses raises an ``OmqlabError``, which carries the
CLI's exit code; ``HomError`` alone stays outside, because it signals a
caller bug and must escape ``main`` with its traceback.

The scan reads each package module's top-level class definitions and
checks the exception classes among them.
"""

import ast
import importlib
from pathlib import Path

import omqlab
from omqlab.model import OmqlabError

PACKAGE = Path(omqlab.__file__).parent


def _exception_classes() -> dict:
    out = {}
    for f in sorted(PACKAGE.glob("*.py")):
        name = "omqlab" if f.stem == "__init__" else f"omqlab.{f.stem}"
        mod = importlib.import_module(name)
        for node in ast.parse(f.read_text(encoding="utf-8")).body:
            if isinstance(node, ast.ClassDef):
                cls = getattr(mod, node.name)
                if issubclass(cls, BaseException):
                    out[node.name] = cls
    return out


def test_every_exception_class_is_an_omqlab_error_except_hom_error():
    classes = _exception_classes()
    assert not issubclass(classes.pop("HomError"), OmqlabError)
    assert sorted(n for n, c in classes.items() if not issubclass(c, OmqlabError)) == []

