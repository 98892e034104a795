"""Dead code in src/ckverify: an import a module never uses, or a private
module-level function or class, or a private method of a module-level
class, that nothing refers to; a package __all__ that has drifted from
the names the package imports; a read of a Coefficient's storage
outside coeff; a cache without a bound on a function that takes
arguments; and a heavy stdlib module on the import path of the command
line."""
from __future__ import annotations

import ast
import subprocess
import sys
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


def test_coefficient_storage_is_read_only_inside_coeff():
    """No module but coeff reads a Coefficient's storage fields, so that
    how a value is stored stays coeff's own decision."""
    fields = {"_num", "_den", "_idx"}
    for module, tree in TREES.items():
        if module == "coeff":
            continue
        read = sorted({n.attr for n in ast.walk(tree)
                       if isinstance(n, ast.Attribute) and n.attr in fields})
        assert not read, f"{module} reads {read}"
    assert {n.attr for n in ast.walk(TREES["coeff"])
            if isinstance(n, ast.Attribute)} >= fields


def _unbounded_caches(tree) -> dict:
    """Function name -> whether it takes arguments, for each function
    decorated with functools.cache or lru_cache with maxsize None: such a
    cache keeps every distinct call's arguments and result for the life of
    the process."""
    found = {}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for deco in node.decorator_list:
            call = deco if isinstance(deco, ast.Call) else None
            func = deco.func if call else deco
            name = func.attr if isinstance(func, ast.Attribute) \
                else getattr(func, "id", None)
            if name == "lru_cache" and call:
                sizes = call.args[:1] + [k.value for k in call.keywords
                                         if k.arg == "maxsize"]
                unbounded = any(isinstance(s, ast.Constant) and s.value is None
                                for s in sizes)
            else:
                unbounded = name == "cache"
            if unbounded:
                a = node.args
                found[node.name] = bool(a.posonlyargs or a.args
                                        or a.kwonlyargs or a.vararg
                                        or a.kwarg)
    return found


def test_no_unbounded_cache_on_a_function_with_arguments():
    for module, tree in TREES.items():
        for name, takes_arguments in _unbounded_caches(tree).items():
            assert not takes_arguments, \
                f"{module}.{name} has an unbounded cache"
    # what it refuses, what it leaves alone, and the bounded form it accepts
    sample = ast.parse(
        "import functools\nfrom functools import cache, lru_cache\n"
        "@functools.cache\ndef a(x): pass\n"
        "@lru_cache(maxsize=None)\ndef b(*xs): pass\n"
        "@functools.lru_cache(None)\ndef c(self): pass\n"
        "@lru_cache(maxsize=1024)\ndef d(x): pass\n"
        "@lru_cache\ndef e(x): pass\n"
        "@cache\ndef f(): pass\n")
    assert _unbounded_caches(sample) == {"a": True, "b": True, "c": True,
                                         "f": False}


def test_cli_import_leaves_out_dataclasses_and_inspect():
    """Each `ckverify` command is one process, so its start-up counts:
    importing the command line, as a fresh isolated interpreter with src on
    sys.path, pulls in neither dataclasses nor inspect (with its ast, dis
    and tokenize)."""
    code = ("import sys; sys.path.insert(0, sys.argv[1]); "
            "import ckverify.cli; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-I", "-c", code, str(SRC.parent)],
                         capture_output=True, text=True, check=True,
                         timeout=60).stdout
    assert out == "[]\n"


def test_program_imports_only_the_standard_library(tmp_path):
    """ckverify has no runtime dependency: a fresh isolated interpreter
    with src on sys.path that imports the command line and runs a verdict
    and a check-file over a named space (its point pass included) loads no
    top-level module outside the standard library but ckverify.  The
    modules loaded before the import are left out, since site may load a
    third-party .pth module."""
    pres = tmp_path / "p.pres"
    pres.write_text("GENERATORS: x1 x2 x3 x4\nPARAMS: a\n"
                    "INVOLUTION: x1 -> x2; x2 -> x1; x3 -> x4; x4 -> x3\n"
                    "RELATIONS:\n  a*x1*x1 + x4*x4\n  a*x2*x2 + x3*x3\n",
                    encoding="utf-8")
    code = (
        "import contextlib, io, sys\n"
        "before = set(sys.modules)\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "import ckverify.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    codes = [ckverify.cli.main(['verify', 'lemma5', '--b', '7',\n"
        "                                '--format', 'json']),\n"
        "             ckverify.cli.main(['check-file', sys.argv[2],\n"
        "                                '--involution-stability'])]\n"
        "new = {m.partition('.')[0] for m in set(sys.modules) - before}\n"
        "print(codes, sorted(new - set(sys.stdlib_module_names)))\n")
    out = subprocess.run([sys.executable, "-I", "-c", code,
                          str(SRC.parent), str(pres)],
                         capture_output=True, text=True, check=True,
                         timeout=60).stdout
    assert out == "[0, 0] ['ckverify']\n"
