"""The package namespace is lazy, and the CLI still loads every layer.

Each check runs in a fresh interpreter, because the test process has long
since imported numpy and every submodule.
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import sdforms

SRC = os.path.dirname(os.path.dirname(sdforms.__file__))
TRACED = Path(__file__).resolve().parent.parent / "perfbench" / "traced.py"


def _fresh(code):
    """Run ``code`` in a fresh interpreter and parse the JSON it prints."""
    env = {**os.environ, "PYTHONPATH": SRC}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True).stdout
    return json.loads(out)


LOADED = "json.dumps(sorted(m for m in sys.modules if m == 'numpy' or m.startswith('sdforms')))"


def test_import_loads_no_submodule_and_no_numpy():
    assert _fresh(f"import json, sys, sdforms; print({LOADED})") == ["sdforms"]


def test_submodule_import_loads_only_its_own_chain():
    assert _fresh(f"import json, sys, sdforms.polys; print({LOADED})") == [
        "numpy", "sdforms", "sdforms.frames", "sdforms.polys"]


def test_public_names_are_the_owners_objects():
    code = """
import json, sdforms
owners = {name: getattr(sdforms, sdforms._OWNER[name]) for name in sdforms.__all__}
print(json.dumps([name for name in sdforms.__all__
                  if getattr(sdforms, name) is not getattr(owners[name], name)]))
"""
    assert _fresh(code) == []
    assert set(sdforms.__all__) <= set(dir(sdforms))
    assert sdforms.make_basis is sdforms.polys.make_basis


def test_submodule_attribute_resolves_without_an_import():
    code = """
import json, sys, sdforms
spectrum = sdforms.spectrum
print(json.dumps([spectrum is sys.modules["sdforms.spectrum"], hasattr(spectrum, "eigh")]))
"""
    assert _fresh(code) == [True, True]


def test_unknown_name_raises_attribute_error_naming_it():
    code = """
import json, sdforms
try:
    sdforms.no_such_name
except AttributeError as exc:
    print(json.dumps([str(exc), hasattr(sdforms, "no_such_name")]))
"""
    assert _fresh(code) == ["module 'sdforms' has no attribute 'no_such_name'", False]


def test_cli_import_loads_every_traced_layer():
    # the benchmark's traced bootstrap wraps the layer functions right after
    # `import sdforms.cli`; a module the CLI imported later would be bound
    # nowhere, so the CLI must load every module LAYERS names at import time
    spec = importlib.util.spec_from_file_location("traced", TRACED)
    traced = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(traced)
    modules = {module for targets in traced.LAYERS.values() for module, _ in targets}
    code = f"import json, sys, sdforms.cli; print({LOADED})"
    assert modules <= set(_fresh(code))
