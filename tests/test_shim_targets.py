"""The benchmark's tracing shim names cmlat modules and methods it wraps.

`clibench/shim.py` imports every module of its ``MODULES`` and replaces every
method of its ``METHODS`` before it runs a traced command, so a name that
goes missing from the package (a module deleted, a method with no caller in
``src/`` removed) makes every traced run fail.  This test loads the shim by
path, which imports only the standard library and runs nothing, and checks
each name.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

SHIM = Path(__file__).resolve().parents[1] / "clibench" / "shim.py"


def _load_shim():
    before = set(sys.modules)
    spec = importlib.util.spec_from_file_location("clibench_shim_under_test", SHIM)
    shim = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(shim)
    assert not {name for name in set(sys.modules) - before if name.startswith("cmlat")}
    return shim


def test_every_shim_module_imports():
    for short in _load_shim().MODULES:
        importlib.import_module(f"cmlat.{short}")


def test_every_shim_method_is_defined_on_its_class():
    for (short, cls, meth), name in _load_shim().METHODS.items():
        klass = getattr(importlib.import_module(f"cmlat.{short}"), cls)
        assert meth in klass.__dict__, name
