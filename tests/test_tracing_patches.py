"""The benchmark's tracer still finds every function it wraps.

`perfbench/tracing.py` patches functions by module and attribute name, so
renaming one of them would break `python3 perfbench/run.py --trace 1`
without failing any other test.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_patches():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.PATCHES


@pytest.mark.parametrize("entry", load_patches(), ids=lambda e: f"{e[0]}.{e[1]}")
def test_patch_target_is_callable(entry) -> None:
    module_name, attr, _span, _counter = entry
    module = importlib.import_module(module_name)
    assert callable(getattr(module, attr, None)), f"{module_name}.{attr} is gone"
