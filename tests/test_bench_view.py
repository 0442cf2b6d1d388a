"""The library names the benchmark under ``bench/`` reads.

The benchmark's files stay fixed while the library changes, so a move or
rename that breaks them must fail here, not in a traced benchmark run:
``bench/tracing.py`` wraps each function of ``LAYERS`` in the module it
names, and ``bench/worker.py`` calls the package's ``sk.<name>``
attributes.  Both files are read as text (``ast``), never imported.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import strainkp

BENCH = Path(__file__).resolve().parents[1] / "bench"
PIN = ("is read by the benchmark under bench/, which stays fixed "
       "(ROADMAP item 1): keep the name where bench/ finds it")

# run in a fresh process, so sys.modules holds what the worker's own
# imports load and nothing a test imported
_RESOLVE = """
import json, sys
import strainkp, strainkp.cli
layers, names = json.loads(sys.argv[1])

def resolves(obj, dotted, own=False):
    *path, name = dotted.split(".")
    for part in path:
        obj = getattr(obj, part, None)
    if own and path:
        # a Class.method is wrapped from the class's own __dict__
        return name in getattr(obj, "__dict__", {})
    return hasattr(obj, name)

missing = {"modules": [], "layers": [], "worker": []}
for module, functions in layers.items():
    full = "strainkp." + module
    if full not in sys.modules:
        missing["modules"].append(full)
        continue
    missing["layers"] += [f"{full}.{name}" for name in functions
                          if not resolves(sys.modules[full], name, True)]
missing["worker"] = ["strainkp." + name for name in names
                     if not resolves(strainkp, name)]
print(json.dumps(missing))
"""


def _layers() -> dict:
    """``LAYERS`` of bench/tracing.py, a literal dict."""
    tree = ast.parse((BENCH / "tracing.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "LAYERS"
                for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("bench/tracing.py defines no LAYERS")


def _worker_names() -> list[str]:
    """Every ``sk.<a>.<b>...`` chain in bench/worker.py, as "a.b...";
    the inner ``sk.<a>`` of a longer chain is listed too."""
    tree = ast.parse((BENCH / "worker.py").read_text(encoding="utf-8"))
    names = set()
    for node in ast.walk(tree):
        parts = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if parts and isinstance(node, ast.Name) and node.id == "sk":
            names.add(".".join(reversed(parts)))
    return sorted(names)


def test_the_benchmark_finds_every_library_name_it_reads():
    layers, names = _layers(), _worker_names()
    # the parse found what the benchmark is known to read
    assert "kp_bulk" in layers and "RunConfig.load" in layers["cli"]
    assert {"top_valence_doublet", "solve_qw", "cli.main"} <= set(names)
    src = os.path.dirname(os.path.dirname(strainkp.__file__))
    printed = subprocess.run(
        [sys.executable, "-c", _RESOLVE, json.dumps([layers, names])],
        check=True, capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": src}).stdout
    missing = json.loads(printed)
    assert not missing["modules"], \
        f"modules of bench/tracing.py LAYERS not loaded by " \
        f"'import strainkp, strainkp.cli': {missing['modules']} {PIN}"
    assert not missing["layers"], \
        f"functions of bench/tracing.py LAYERS: {missing['layers']} {PIN}"
    assert not missing["worker"], \
        f"names bench/worker.py calls: {missing['worker']} {PIN}"
