from __future__ import annotations

import ast
from pathlib import Path

import ivsysid

SRC = Path(ivsysid.__file__).parent

#: Public names that nothing in src/ needs to reference, with the reason.
ALLOWED_UNREFERENCED = {
    # tests/test_acceptance.py imports it to check the clipping map on its
    # own; iv_estimate clips inline, from the SVD it already has
    "clip_singular_values",
}


def _references(tree: ast.AST, skip: ast.AST | None = None) -> set[str]:
    """Names read as a Name or an Attribute anywhere in tree except under skip."""
    found: set[str] = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        stack.extend(ast.iter_child_nodes(node))
    return found


def test_every_public_definition_is_used_in_src():
    # every public function or class in the package is wired into the CLI or
    # the pipeline; code that only the tests call does not belong in src/
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    unused = []
    for name, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if node.name.startswith("_") or node.name in ALLOWED_UNREFERENCED:
                continue
            if not any(node.name in _references(t, skip=node) for t in trees.values()):
                unused.append(f"{name}::{node.name}")
    assert unused == []


def test_package_root_binds_only_the_version():
    # callers import from the submodules; the root re-exports nothing
    body = ast.parse((SRC / "__init__.py").read_text()).body
    assert ast.get_docstring(ast.Module(body=body, type_ignores=[]))
    assert [ast.unparse(node) for node in body[1:]] == ["__version__ = '0.1.0'"]
