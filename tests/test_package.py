"""The package's public names."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

import tinlink

SRC = Path(__file__).resolve().parents[1] / "src"


def test_star_import_gives_every_public_name_once():
    """`from tinlink import *` binds every name in `__all__`, and no name
    is listed twice."""
    names = tinlink.__all__
    assert len(names) == len(set(names))
    namespace = {}
    exec("from tinlink import *", namespace)
    assert set(names) <= namespace.keys()


def test_public_names_are_the_objects_their_modules_define():
    for name in tinlink.__all__:
        if name != "__version__":
            obj = getattr(tinlink, name)
            assert obj.__module__.startswith("tinlink."), name
            assert getattr(sys.modules[obj.__module__], name) is obj, name


def test_import_loads_no_submodule():
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, tinlink; print(sorted(m for m in sys.modules"
         " if m.startswith('tinlink.')))"],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        tinlink.no_such_name
