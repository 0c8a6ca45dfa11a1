"""Every definition of the package has a caller, and every import a use.

An AST scan of src/, tests/ and perfbench/ requires a reference, outside
the definition's own body, for each top-level function and class and
each non-dunder method in src/walgebra.  A function or class counts as
referenced by a name, an attribute or an import of it; a method by an
attribute `.name` or by a string constant "Class.name", the form the
benchmark tracer's SPANS use.  Words in docstrings and comments do not
count: a string counts only when it is exactly "Class.name".  A
definition whose only references are in tests/ must be named in
TEST_ONLY, with the reason it is kept; a new test-only API fails until
someone names it, and an entry whose definition gains a caller in src/
or perfbench/, or is deleted, fails until it is removed.

A second scan requires each name an import binds in a file of src/ or
tests/ to be read as a name somewhere in that file, or listed in its
__all__; `from __future__` imports are exempt.
"""

from __future__ import annotations

import ast
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "walgebra"
SCANNED = ("src", "tests", "perfbench")

# src/ definitions referenced only from tests/: test oracles and fixture
# tools, each kept for the reason given
TEST_ONLY = (
    ("bk.chain_sum", "oracle: the written per-chain sum; the benchmark tracer spans it"),
    ("geometry.omega_pairing", "oracle: omega by matrix products, against omega_matrix"),
    ("modules.ModuleElement.from_json", "fixture tool: reads module elements back from JSON"),
    ("modules.transport", "oracle: fuse rebuilt term by term; the benchmark tracer spans it"),
    ("reports.comparison_payload", "fixture tool: reports compared without wall times"),
    ("reports.save_fixture", "fixture tool: writes a report fixture"),
    ("reports.load_fixture", "fixture tool: reads a report fixture"),
)


def _definitions(tree: ast.Module, module: str):
    """(label, name, node, is_method) for each definition under test."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield "%s.%s" % (module, node.name), node.name, node, False
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not (
                    item.name.startswith("__") and item.name.endswith("__")
                ):
                    label = "%s.%s.%s" % (module, node.name, item.name)
                    yield label, "%s.%s" % (node.name, item.name), item, True


def _references(node: ast.AST, enclosing: tuple, out: dict) -> None:
    """out[(kind, text)] gets the enclosing definition nodes of each
    reference."""
    if isinstance(node, ast.Name):
        out[("name", node.id)].append(enclosing)
    elif isinstance(node, ast.Attribute):
        out[("attr", node.attr)].append(enclosing)
    elif isinstance(node, ast.ImportFrom):
        for alias in node.names:
            out[("name", alias.name)].append(enclosing)
    elif isinstance(node, ast.Constant) and isinstance(node.value, str):
        out[("string", node.value)].append(enclosing)
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        enclosing = enclosing + (node,)
    for child in ast.iter_child_nodes(node):
        _references(child, enclosing, out)


def test_every_definition_is_referenced():
    trees = {
        path: ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for top in SCANNED
        for path in sorted((ROOT / top).rglob("*.py"))
    }
    refs = {top: defaultdict(list) for top in SCANNED}
    for path, tree in trees.items():
        _references(tree, (), refs[path.relative_to(ROOT).parts[0]])
    unreferenced = []
    test_only = []
    for path in sorted(PACKAGE.glob("*.py")):
        for label, name, node, is_method in _definitions(trees[path], path.stem):
            if is_method:
                wanted = [("attr", name.split(".")[1]), ("string", name)]
            else:
                wanted = [("name", name), ("attr", name)]
            callers = {
                top
                for top in SCANNED
                if any(node not in where for key in wanted for where in refs[top].get(key, ()))
            }
            if not callers:
                unreferenced.append(label)
            elif callers == {"tests"}:
                test_only.append(label)
    assert unreferenced == []
    assert sorted(test_only) == sorted(label for label, _ in TEST_ONLY)


def _unused_imports(tree: ast.Module):
    bound = []
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names]
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return sorted(set(bound) - used)


def test_every_import_is_used():
    unused = {}
    for top in ("src", "tests"):
        for path in sorted((ROOT / top).rglob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
            names = _unused_imports(tree)
            if names:
                unused[str(path.relative_to(ROOT))] = names
    assert unused == {}
