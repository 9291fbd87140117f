"""Every module-level import of the package is used in its module, so a
name that the last caller dropped leaves with it."""

from __future__ import annotations

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "adrgnn"

# (module, name) pairs imported without a use, each with its reason
UNUSED_ALLOWED = {
    # perfbench/tracing.py patches adrgnn.training.make_windows by name; the
    # import goes when the benchmark stops patching it (ROADMAP items 3a, 13)
    ("training", "make_windows"),
}


def _unused_imports(tree: ast.Module) -> set[str]:
    bound = set()
    for stmt in tree.body:
        if isinstance(stmt, ast.Import):
            bound |= {(a.asname or a.name).split(".")[0] for a in stmt.names}
        elif isinstance(stmt, ast.ImportFrom) and stmt.module != "__future__":
            bound |= {a.asname or a.name for a in stmt.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return bound - used


def test_every_module_level_import_is_used():
    unused = {(path.stem, name) for path in sorted(PACKAGE.glob("*.py"))
              if path.name != "__init__.py"
              for name in _unused_imports(ast.parse(path.read_text()))}
    assert unused == UNUSED_ALLOWED, (
        f"unused imports: {sorted(unused - UNUSED_ALLOWED)}; "
        f"listed but used or gone: {sorted(UNUSED_ALLOWED - unused)}")
