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
