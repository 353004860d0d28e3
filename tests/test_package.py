from __future__ import annotations

import ast
from pathlib import Path

import ivsysid

SRC = Path(ivsysid.__file__).parent
SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"

#: Public names that nothing in src/ needs to reference, with the reason.
ALLOWED_UNREFERENCED = {
    # tests/test_acceptance.py imports it to check the clipping map on its
    # own; iv_estimate clips inline, from the SVD it already has
    "clip_singular_values",
}

#: Imports their module never reads, bound only because bench/spans.py wraps
#: them there: module file -> (the module's name in bench/spans.py, names).
#: ROADMAP item 1 deletes them with the spans.py sites that wrap them.
BENCH_BOUND = {
    "cli.py": (
        "cli",
        {"feature_map", "assemble_design", "iv_estimate", "ls_estimate", "excitation_check"},
    ),
    "dynamics.py": ("dyn", {"build_split_bank", "assemble_design", "ls_estimate"}),
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


def test_every_import_is_read_in_its_module():
    # an import left behind when its last reader moved fails here; a
    # BENCH_BOUND name must stay unread in its module and wrapped by the bench
    spans = SPANS.read_text()
    unread = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        imported = {
            alias.asname or alias.name.split(".")[0]
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            and getattr(node, "module", None) != "__future__"
            for alias in node.names
        }
        spans_name, kept = BENCH_BOUND.get(path.name, ("", set()))
        unread += sorted(f"{path.name}::{name}" for name in imported - read - kept)
        assert kept <= imported - read, (path.name, kept & read, kept - imported)
        for name in kept:
            assert f'({spans_name}, "{name}"' in spans, (path.name, name)
    assert unread == []
