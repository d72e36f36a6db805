"""The benchmark's trace hooks still find what they wrap.

`perfbench/tracing.py` wraps, by name, the public functions its `LAYERS`
table lists, and wraps `GameTree._post_order` as a cached property. A
change to the data model that renamed one of them would break
`perfbench/run.py --trace 1`, which tier-1 does not otherwise run.
"""

from __future__ import annotations

import functools
import importlib
import importlib.util
from pathlib import Path

from nashtree.gametree import GameTree

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_function_exists():
    layers = _tracing().LAYERS
    assert layers
    for module, names in layers.values():
        owner = importlib.import_module(f"nashtree.{module}")
        for name in names:
            assert callable(getattr(owner, name, None)), f"nashtree.{module}.{name}"


def test_post_order_is_a_cached_property():
    assert isinstance(GameTree.__dict__["_post_order"], functools.cached_property)
