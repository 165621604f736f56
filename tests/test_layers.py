"""Module layering: each qfd module imports only the layers before it."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import qfd

SRC = Path(qfd.__file__).parent

# the layer order of the package docstring; the leaves may be imported anywhere
LAYERS = ["numerics", "model", "coefficients", "dynamics", "decoherence", "cli"]
LEAVES = ["errors", "g17"]
# (importing module, name): the only _-prefixed names one qfd module takes from another
PRIVATE_IMPORTS = {("decoherence", "_pole_pair"), ("decoherence", "_stationary_readout"),
                   ("decoherence", "_warn_past_small_u")}


def qfd_imports(path: Path) -> set[str]:
    """The qfd modules a source file imports, in function bodies too;
    the package itself counts as ''."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [("qfd." if node.level else "") + (node.module or "")]
        else:
            continue
        for name in names:
            package, _, module = name.partition(".")
            if package == "qfd":
                found.add(module)
    return found


def test_layer_order_is_the_documented_one():
    assert re.findall(r"^``qfd\.(\w+)``$", qfd.__doc__, re.M) == LAYERS
    assert {p.stem for p in SRC.glob("*.py")} == {"__init__", *LAYERS, *LEAVES}


@pytest.mark.parametrize("module", LAYERS + LEAVES)
def test_module_imports_only_earlier_layers(module):
    # a leaf imports no qfd module
    allowed = set()
    if module in LAYERS:
        allowed = {*LAYERS[: LAYERS.index(module)], *LEAVES}
    assert qfd_imports(SRC / f"{module}.py") <= allowed


def test_tdec_never_loads_g17(tmp_path):
    """csv_blocks imports qfd.g17 on its first call, so a run that writes
    no table (tdec) never loads it; loaded at import, it raised gold
    tdec's peak RSS by 0.4 MB.  The first table then loads it."""
    script = f"""
import sys
from qfd.cli import main
from qfd.coefficients import csv_table
assert main(["tdec", "--preset", "nv-nsi", "--u", "0.003", "--out", {str(tmp_path / "t.json")!r}]) == 0
print("qfd.g17" in sys.modules)
csv_table({{"x": [1.0]}})
print("qfd.g17" in sys.modules)
"""
    path = os.pathsep.join(filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")]))
    run = subprocess.run([sys.executable, "-c", script], env={**os.environ, "PYTHONPATH": path},
                         capture_output=True, text=True, check=True)
    assert run.stdout == "False\nTrue\n"


def private_imports(path: Path) -> set[str]:
    """The _-prefixed names a source file imports from qfd modules, in
    function bodies too."""
    return {
        alias.name
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ImportFrom)
        and (node.level or (node.module or "").partition(".")[0] == "qfd")
        for alias in node.names
        if alias.name.startswith("_")
    }


@pytest.mark.parametrize("module", ["__init__", *LAYERS, *LEAVES])
def test_module_imports_no_private_name_of_another(module):
    found = {(module, name) for name in private_imports(SRC / f"{module}.py")}
    assert found <= PRIVATE_IMPORTS


def test_private_import_check_sees_what_it_must(tmp_path):
    source = tmp_path / "probe.py"
    source.write_text(
        "from __future__ import annotations\n"
        "from os import _exit\n"
        "from qfd.decoherence import _pole_pair, angles_of\n"
        "from . import _hidden\n"
        "def f():\n    from qfd import _late\n"
    )
    assert private_imports(source) == {"_pole_pair", "_hidden", "_late"}


def unused_imports(path: Path) -> list[str]:
    """The names a source file imports and never reads, other than
    __future__ features, names it exports in __all__ and names on a line
    marked '# noqa: F401' with a reason after the marker."""
    text = path.read_text()
    tree = ast.parse(text)
    lines = text.splitlines()
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported = set(ast.literal_eval(node.value))
    unused = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            marked = re.search(r"# noqa: F401\s+\S", lines[alias.lineno - 1])
            if name not in used and name not in exported and not marked:
                unused.append(f"{path.name}:{alias.lineno}: {name}")
    return unused


@pytest.mark.parametrize("module", ["__init__", *LAYERS, *LEAVES])
def test_module_imports_no_name_it_never_uses(module):
    assert unused_imports(SRC / f"{module}.py") == []


def test_unused_import_check_sees_what_it_must(tmp_path):
    source = tmp_path / "probe.py"
    source.write_text(
        "from __future__ import annotations\n"
        "import math\n"
        "import numpy as np\n"
        "from os import path, sep  # noqa: F401  read by a caller\n"
        "from sys import argv  # noqa: F401\n"
        "from re import (\n    compile,\n    escape,\n)\n"
        "__all__ = ['escape']\n"
        "x = np.pi\n"
    )
    assert unused_imports(source) == ["probe.py:2: math", "probe.py:5: argv",
                                      "probe.py:7: compile"]
