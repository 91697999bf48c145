"""The public surface: every exported name resolves, and the README's
library example runs as written."""

import importlib
import re
from pathlib import Path

import pytest

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
