"""Every public name in the library has a caller in the library itself.

A public top-level function or class, or a public method, that nothing in
``src/stablechaos`` references outside its own definition is API kept alive
only by tests.  The allowlist holds the names that pin paper properties in
the tests and are kept as specification: the Picard solver (contraction),
the sampled driving path (law of the first big jump, conditional law in M)
and the heavy-tailed CDF (inverse of the quantile function).
"""

import ast
from collections import Counter
from pathlib import Path

import stablechaos

SRC = Path(stablechaos.__file__).resolve().parent
ALLOWED = {"picard_solve", "sample_driving_path", "heavy_cdf"}


def _references(node) -> tuple[Counter, Counter]:
    """(bare names, attribute names) used in ``node``."""
    names, attrs = Counter(), Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            attrs[sub.attr] += 1
    return names, attrs


def _public_definitions(tree):
    """(qualified name, name, definition node, is_method) of public defs and methods."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if isinstance(node, defs) and not node.name.startswith("_"):
            yield node.name, node.name, node, False
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, defs) and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}", item.name, item, True


def _uses(refs, name: str, is_method: bool) -> int:
    """A method is reached only as an attribute; a module-level name either way."""
    names, attrs = refs
    return attrs[name] if is_method else names[name] + attrs[name]


def test_every_public_name_has_a_library_caller():
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    everywhere = Counter(), Counter()
    for tree in trees.values():
        names, attrs = _references(tree)
        everywhere[0].update(names)
        everywhere[1].update(attrs)
    unused = [
        f"{module}: {qualname}"
        for module, tree in trees.items()
        for qualname, name, node, is_method in _public_definitions(tree)
        if name not in ALLOWED
        and _uses(everywhere, name, is_method) <= _uses(_references(node), name, is_method)
    ]
    assert not unused, "public names with no caller in src: " + ", ".join(unused)
