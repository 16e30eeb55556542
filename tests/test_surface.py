"""Every public function, class and method in ``aftx`` (errors aside, see
test_errors.py) is referenced by name somewhere in ``src/aftx`` or in the
benchmark under ``perfbench/``, outside its own definition.  A helper that
only tests call is deleted and comes back with its first caller.

Names are matched as written: a function or class by a bare name, an
attribute or an import; a method or property by an attribute access only.
"""

import ast
import functools
from collections import Counter
from pathlib import Path

import pytest

import aftx

PACKAGE = Path(aftx.__file__).parent
SOURCES = sorted(PACKAGE.glob("*.py")) + sorted((PACKAGE.parents[1] / "perfbench").glob("*.py"))

# oracles that tests check product paths against
EXEMPT = (
    "augment.apply_mask",                   # the eager mask each lazy variant must equal
    "corpus.JudgeScores.validate_schema",   # the schema synthetic and parsed scores must meet
    "tensor.softmax",                       # the reference for the fused attention op
)


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
