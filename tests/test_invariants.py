import ast
from pathlib import Path

import bnbprice


def test_src_has_no_assert_statements():
    # python -O strips assert statements, so invariant checks must raise
    root = Path(bnbprice.__file__).parent
    found = []
    for path in sorted(root.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Assert):
                found.append("%s:%d" % (path.relative_to(root), node.lineno))
    assert found == []


def test_only_serialize_imports_json():
    # every JSON value is read and written by serialize, checked against annotations
    root = Path(bnbprice.__file__).parent
    found = []
    for path in sorted(root.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            names = ([alias.name for alias in node.names] if isinstance(node, ast.Import)
                     else [node.module] if isinstance(node, ast.ImportFrom) else [])
            if any(name == "json" or name.startswith("json.") for name in names if name):
                found.append("%s:%d" % (path.relative_to(root), node.lineno))
    assert [f for f in found if not f.startswith("serialize.py:")] == []
    assert found, "serialize.py no longer imports json"


def _moves_or_removes(call):
    func = call.func
    if isinstance(func, ast.Name):  # a from-import of one of the names below
        return func.id in {"replace", "rename", "remove", "unlink", "rmtree"}
    if not isinstance(func, ast.Attribute):
        return False
    owner = func.value.id if isinstance(func.value, ast.Name) else None
    return (func.attr in {"rename", "unlink", "rmtree"}
            or (owner == "os" and func.attr in {"replace", "remove"}))


def test_only_cli_moves_or_removes_files():
    # the write policy (stage, then commit) lives in cli._committing alone
    root = Path(bnbprice.__file__).parent
    found = []
    for path in sorted(root.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call) and _moves_or_removes(node):
                found.append("%s:%d" % (path.relative_to(root), node.lineno))
    assert [f for f in found if not f.startswith("cli.py:")] == []
    assert found, "cli.py no longer moves or removes files"
