"""Guards on the public surface, read from the source with the stdlib ast.

Every name that tilelab/__init__.py exports must have a caller: a reference
in src/tilelab outside its own definition, or a `tl.<name>` use in the
release gate.  And no module may import a name it never uses.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "tilelab"
GATE = ROOT / "tests" / "test_acceptance.py"

# The paper's splitting lemmas: unit tests call them, no workload does yet.
# ROADMAP open item 4 wires them into `sweep --check lemmas`.
LEMMA_CHECKS = {"check_translate_splitting", "check_disjoint_sigma",
                "check_local_distribution", "check_aunif"}


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def _modules() -> dict[str, ast.Module]:
    return {p.stem: _parse(p) for p in sorted(PACKAGE.glob("*.py"))}


def _exports() -> set[str]:
    return {alias.asname or alias.name
            for node in _modules()["__init__"].body
            if isinstance(node, ast.ImportFrom) for alias in node.names}


def _loads(tree: ast.AST):
    """Names read as ast.Name or as the attribute of an ast.Attribute."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr


def _src_callers() -> set[str]:
    """Names read in src/tilelab, except inside the top-level definition of
    that same name."""
    seen = set()
    for module, tree in _modules().items():
        if module == "__init__":
            continue
        for stmt in tree.body:
            owner = getattr(stmt, "name", None)
            seen.update(name for name in _loads(stmt) if name != owner)
    return seen


def _gate_uses() -> set[str]:
    return {node.attr for node in ast.walk(_parse(GATE))
            if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name) and node.value.id == "tl"}


def test_every_export_has_a_caller():
    exports = _exports()
    uncalled = exports - _src_callers() - _gate_uses()
    assert LEMMA_CHECKS <= exports
    assert uncalled == LEMMA_CHECKS, sorted(uncalled - LEMMA_CHECKS)


def test_no_module_imports_an_unused_name():
    for module, tree in _modules().items():
        if module == "__init__":
            continue        # its imports are the exports checked above
        used = set(_loads(tree))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    assert bound in used, f"{module}.py imports unused {bound}"
