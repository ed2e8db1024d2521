"""The package's public surface: what a star import binds, and the README's
library quick start run as written."""

import re
import types
from pathlib import Path

import numpy as np

import pdglasso

README = Path(__file__).resolve().parents[1] / "README.md"


def test_star_import_binds_every_exported_name_and_no_module():
    namespace = {}
    exec("from pdglasso import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == pdglasso.__all__
    assert [name for name, value in namespace.items()
            if isinstance(value, types.ModuleType)] == []


def test_readme_python_blocks_run(capsys):
    """Each python block of the README runs on a seeded sample ``Y``."""
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(), re.M | re.S)
    assert blocks
    Y = np.random.default_rng(20240817).standard_normal((50, 8))
    for block in blocks:
        exec(compile(block, str(README), "exec"), {"Y": Y})
    assert capsys.readouterr().out
