import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import fundcast
from fundcast import panel_ingest

# Imports every fundcast module in a fresh interpreter and prints the
# modules it imported and the scipy modules among everything loaded.
PROBE = """
import importlib, json, pkgutil, sys
import fundcast
from fundcast import panel_ingest
names = [m.name for m in pkgutil.iter_modules(fundcast.__path__, "fundcast.")]
for name in names:
    importlib.import_module(name)
print(json.dumps([names, sorted(m for m in sys.modules
                                if m.split(".")[0] == "scipy")]))
"""


def test_no_fundcast_module_imports_scipy():
    # numpy is the one numeric runtime dependency
    src = str(Path(fundcast.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", PROBE], env=env,
                         capture_output=True, text=True, check=True, timeout=120)
    names, scipy_modules = json.loads(out.stdout)
    files = sorted(p.stem for p in Path(fundcast.__file__).parent.glob("*.py"))
    assert sorted(n.split(".")[1] for n in names) == \
        [f for f in files if f != "__init__"]
    assert scipy_modules == []


def test_no_fundcast_module_imports_another_modules_private_name():
    # a _-prefixed name belongs to its module; callers use its public API
    found = []
    for path in sorted(Path(fundcast.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (
                    node.level or (node.module or "").startswith("fundcast")):
                found += [f"{path.stem}: {alias.name}" for alias in node.names
                          if alias.name.startswith("_")]
    assert found == []


def test_panel_ingest_reads_csv_without_csv_reader():
    # one CSV reader, panel_ingest's own; the csv module stays for the writers
    tree = ast.parse(Path(panel_ingest.__file__).read_text(encoding="utf-8"))
    used = {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id == "csv"}
    used |= {alias.name for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom) and node.module == "csv"
             for alias in node.names}
    assert "writer" in used
    assert not used & {"reader", "DictReader", "Sniffer"}
