"""The public surface: every exported name resolves, the README's
library example runs as written, and its module references resolve."""

import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import sierpmat

README = Path(__file__).resolve().parents[1] / "README.md"


@pytest.mark.parametrize("name", ["sierpmat", "sierpmat.ptm", "sierpmat.sierpinski"])
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert not missing, missing


def test_star_import():
    namespace = {}
    exec("from sierpmat import *", namespace)  # AttributeError on a name it cannot find
    assert {"cli", "s_matrix", "__version__"} <= namespace.keys()


def test_readme_python_block_runs():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)
    assert len(blocks) == 1
    exec(blocks[0], {})


def test_readme_module_references_resolve():
    # a backticked `module.name` (call arguments aside) names something in that module
    modules = "|".join(m.name for m in pkgutil.iter_modules(sierpmat.__path__))
    refs = re.findall(rf"`(?:sierpmat\.)?({modules})\.(\w+(?:\.\w+)*)", README.read_text())
    assert refs
    missing = []
    for module, path in refs:
        obj = importlib.import_module(f"sierpmat.{module}")
        for name in path.split("."):
            obj = getattr(obj, name, missing)
        if obj is missing:
            missing.append(f"{module}.{path}")
    assert not missing, missing
