"""Every public function, class and method in ``aftx`` (errors aside, see
test_errors.py) is referenced by name somewhere in ``src/aftx`` or in the
benchmark under ``perfbench/``, outside its own definition.  A helper that
only tests call is deleted and comes back with its first caller.  Likewise
every parameter with a default, of a public function or of a public class's
constructor, is passed by some call there: an option that only tests set
becomes a constant, and comes back with its first caller.

Names are matched as written: a function or class by a bare name, an
attribute or an import; a method or property by an attribute access only.
A call passes a parameter by keyword or by position.
"""

import ast
import functools
import importlib
import inspect
from collections import Counter
from pathlib import Path

import pytest

import aftx

PACKAGE = Path(aftx.__file__).parent
SOURCES = sorted(PACKAGE.glob("*.py")) + sorted((PACKAGE.parents[1] / "perfbench").glob("*.py"))

# oracles that tests check product paths against
EXEMPT = (
    "corpus.JudgeScores.validate_schema",   # the schema synthetic and parsed scores must meet
)

# defaulted parameters that no call in aftx or perfbench passes, and why each stays
UNPASSED_EXEMPT = {
    "tensor.Tensor.requires_grad":
        "tests build leaves that require grad; the product sets it through Parameter",
    "corpus.make_folds.speaker_disjoint":
        "the speaker-disjoint folds of the planned end-to-end run and of its "
        "speaker-leakage check (ROADMAP.md)",
}


def _references(tree) -> tuple[Counter, Counter]:
    """Bare names (including imports) and attribute names used under ``tree``."""
    names, attrs = Counter(), Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names[node.id] += 1
        elif isinstance(node, ast.Attribute):
            attrs[node.attr] += 1
        elif isinstance(node, ast.alias):
            names[node.name.rsplit(".", 1)[-1]] += 1
    return names, attrs


def _definitions(path: Path, tree):
    """(qualified name, node, is a method) of each public top-level
    function and class of a module, and of each public method of its classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield f"{path.stem}.{node.name}", node, False
            if isinstance(node, ast.ClassDef):
                for sub in node.body:
                    if isinstance(sub, ast.FunctionDef) and not sub.name.startswith("_"):
                        yield f"{path.stem}.{node.name}.{sub.name}", sub, True


@functools.cache
def _unreferenced() -> list[str]:
    names, attrs = Counter(), Counter()
    definitions = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        found_names, found_attrs = _references(tree)
        names += found_names
        attrs += found_attrs
        if path.parent == PACKAGE and path.name != "errors.py":
            definitions += _definitions(path, tree)
    out = []
    for qualified, node, method in definitions:
        own_names, own_attrs = _references(node)
        uses = attrs[node.name] - own_attrs[node.name]
        if not method:
            uses += names[node.name] - own_names[node.name]
        if uses <= 0:
            out.append(qualified)
    return out


def test_every_public_name_is_reached():
    unreached = [name for name in _unreferenced() if name not in EXEMPT]
    assert not unreached, f"referenced nowhere in aftx or perfbench: {', '.join(unreached)}"


@pytest.mark.parametrize("name", EXEMPT)
def test_exemptions_are_needed(name):
    assert name in _unreferenced()


def _passed(call: ast.Call, index: int | None, name: str) -> bool:
    """Whether ``call`` passes the parameter ``name``, at positional
    ``index`` (None for keyword-only), by keyword or by position."""
    if any(k.arg in (name, None) for k in call.keywords):    # None: a ** mapping
        return True
    return index is not None and (
        len(call.args) > index or any(isinstance(a, ast.Starred) for a in call.args))


@functools.cache
def _unpassed_defaults() -> list[str]:
    calls: dict[str, list[ast.Call]] = {}
    definitions = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                calls.setdefault(name, []).append(node)
        if path.parent == PACKAGE and path.name != "errors.py":
            definitions += [(path.stem, node.name) for node in tree.body
                            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                            and not node.name.startswith("_")]
    out = []
    for module, name in definitions:
        params = list(inspect.signature(getattr(importlib.import_module(f"aftx.{module}"),
                                                name)).parameters.values())
        for index, param in enumerate(params):
            if param.default is inspect.Parameter.empty:
                continue
            position = None if param.kind is param.KEYWORD_ONLY else index
            if not any(_passed(call, position, param.name) for call in calls.get(name, [])):
                out.append(f"{module}.{name}.{param.name}")
    return out


def test_every_default_is_passed():
    unpassed = [name for name in _unpassed_defaults() if name not in UNPASSED_EXEMPT]
    assert not unpassed, f"defaults that aftx and perfbench never pass: {', '.join(unpassed)}"


@pytest.mark.parametrize("name", UNPASSED_EXEMPT)
def test_default_exemptions_are_needed(name):
    assert name in _unpassed_defaults()
