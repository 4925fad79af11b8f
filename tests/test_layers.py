"""Every layer function that the benchmark's tracer wraps by name is there
once objred is imported."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# Run in a fresh interpreter: the tracer finds each layer in sys.modules
# after ``import objred``, and this test process imports more of objred.
_RESOLVE = """
import json, sys
import objred
missing = []
for layer, names in json.loads(sys.argv[1]).items():
    module = sys.modules.get("objred." + layer)
    missing += [layer + "." + name for name in names if not callable(getattr(module, name, None))]
print(json.dumps(missing))
"""


def _traced_layers():
    """``LAYERS`` of perfbench/tracer.py, read without importing it."""
    tree = ast.parse((ROOT / "perfbench" / "tracer.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "LAYERS" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/tracer.py defines no LAYERS")


def test_every_traced_layer_function_resolves():
    # The tracer skips a function it cannot find, so its per-layer metrics
    # would vanish from the traced result line with no error.
    layers = _traced_layers()
    assert "simplex" in layers
    path = os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])
    env = {**os.environ, "PYTHONPATH": path}
    argv = [sys.executable, "-c", _RESOLVE, json.dumps(layers)]
    proc = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == []
