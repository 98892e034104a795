"""Dead code in src/ckverify: an import a module never uses, or a private
module-level function or class, or a private method of a module-level
class, that nothing refers to; and a package __all__ that has drifted from
the names the package imports."""
from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "ckverify"
TREES = {p.stem: ast.parse(p.read_text(encoding="utf-8"))
         for p in sorted(SRC.glob("*.py"))}


def _names(tree) -> set:
    """Names read in a module, counting a forward reference such as
    "NcPoly" in an annotation."""
    return {n.id if isinstance(n, ast.Name) else n.value
            for n in ast.walk(tree)
            if isinstance(n, ast.Name) or isinstance(n, ast.Constant)
            and isinstance(n.value, str) and n.value.isidentifier()}


def test_every_import_is_used():
    for module, tree in TREES.items():
        if module == "__init__":
            continue
        imported = {(a.asname or a.name).split(".")[0] for node in tree.body
                    if isinstance(node, (ast.Import, ast.ImportFrom))
                    and getattr(node, "module", None) != "__future__"
                    for a in node.names}
        unused = imported - _names(tree)
        assert not unused, f"{module} imports {sorted(unused)} unused"


def test_all_lists_exactly_the_imported_names():
    """ckverify.__all__ names each name the package imports, once."""
    import ckverify
    imported = {a.asname or a.name for node in TREES["__init__"].body
                if isinstance(node, ast.ImportFrom)
                and node.module != "__future__" for a in node.names}
    assert len(ckverify.__all__) == len(set(ckverify.__all__))
    assert set(ckverify.__all__) == imported


def test_every_private_definition_is_referenced():
    used = set().union(*map(_names, TREES.values()))
    for tree in TREES.values():
        used.update(n.attr for n in ast.walk(tree)
                    if isinstance(n, ast.Attribute))
        used.update(a.name for n in ast.walk(tree)
                    if isinstance(n, ast.ImportFrom) for a in n.names)
    for module, tree in TREES.items():
        methods = [node for cls in tree.body if isinstance(cls, ast.ClassDef)
                   for node in cls.body]
        for node in tree.body + methods:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) \
                    and node.name.startswith("_") \
                    and not node.name.startswith("__"):
                assert node.name in used, f"{module}.{node.name} is unused"
