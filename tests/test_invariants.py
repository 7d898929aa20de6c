import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import bnbprice
from bnbprice.cli import main


def test_src_has_no_assert_statements():
    # python -O strips assert statements, so invariant checks must raise
    root = Path(bnbprice.__file__).parent
    found = []
    for path in sorted(root.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Assert):
                found.append("%s:%d" % (path.relative_to(root), node.lineno))
    assert found == []


def _importers(module):
    """file:line of each import of module, or of one of its submodules, in the package."""
    root = Path(bnbprice.__file__).parent
    found = []
    for path in sorted(root.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            names = ([alias.name for alias in node.names] if isinstance(node, ast.Import)
                     else [node.module] if isinstance(node, ast.ImportFrom) else [])
            if any(name == module or name.startswith(module + ".") for name in names if name):
                found.append("%s:%d" % (path.relative_to(root), node.lineno))
    return found


def test_only_serialize_imports_json():
    # every JSON value is read and written by serialize, checked against annotations
    found = _importers("json")
    assert [f for f in found if not f.startswith("serialize.py:")] == []
    assert found, "serialize.py no longer imports json"


def test_only_the_package_root_imports_numpy():
    # every module reads numpy through bnbprice.np, which imports it on first use
    found = _importers("numpy")
    assert [f for f in found if not f.startswith("__init__.py:")] == []
    assert found, "__init__.py no longer imports numpy"


# the modules benchmark/tracer.py imports before it runs a command
_IMPORT_ALL = """
import sys
from bnbprice import cli, evalreport, geofeat, ingest, serialize, synth, textfeat, transform
from bnbprice.models import registry
codes = [cli.main(["synth", "--n", "150", "--cities", "2", "--seed", "5", "--out", "data"]),
         cli.main(["ingest", "--config", "config.json"])]
print(codes, "numpy" in sys.modules)
"""


def test_synth_and_ingest_run_without_importing_numpy(tmp_path, monkeypatch):
    config = {"cities": {"synthville": {"listings": "data/listings.csv",
                                        "reviews": "data/reviews.csv"}},
              "out": "out", "seed": 1, "k_clusters": 2, "min_df": 1,
              "models": [{"kind": "ridge"}]}
    (tmp_path / "config.json").write_text(json.dumps(config), encoding="utf-8")
    env = dict(os.environ)
    src = str(Path(bnbprice.__file__).parents[1])
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    done = subprocess.run([sys.executable, "-c", _IMPORT_ALL], cwd=tmp_path, env=env,
                          capture_output=True, text=True)
    assert (done.returncode, done.stdout.splitlines()) == (0, ["[0, 0] False"]), done.stderr
    monkeypatch.chdir(tmp_path)
    assert main(["train", "--config", "config.json"]) == 0
    assert (tmp_path / "out" / "model_0_ridge.json").is_file()


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
