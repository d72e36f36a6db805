"""The benchmark still finds every nashtree name it uses.

`perfbench/tracing.py` wraps, by name, the public functions its `LAYERS`
table lists, and wraps `GameTree._post_order` as a cached property. The
workloads and the set-algebra replay call further nashtree functions and
read `SetMap` fields directly. A change that renamed one of them would
break `perfbench/run.py`, which tier-1 does not otherwise run.
"""

from __future__ import annotations

import ast
import dataclasses
import functools
import importlib
import importlib.util
from pathlib import Path

from nashtree.gametree import GameTree
from nashtree.solver import SetMap

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
TRACING = PERFBENCH / "tracing.py"


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


def _nt_module(expr: ast.expr) -> str | None:
    """`m` if `expr` is `nt.m`, the nashtree package's module `m`."""
    if isinstance(expr, ast.Attribute) and isinstance(expr.value, ast.Name):
        return expr.attr if expr.value.id == "nt" else None
    return None


def _benchmark_reads() -> tuple[set[tuple[str, str]], set[str]]:
    """What perfbench's sources read of nashtree: (module, name) pairs, from
    `nt.m.name` and from `alias.name` in a function that binds `alias = nt.m`,
    and the attributes read from a solver set map (`set_map`, `det_map`)."""
    names: set[tuple[str, str]] = set()
    fields: set[str] = set()
    for path in sorted(PERFBENCH.glob("*.py")):
        for func in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(func, ast.FunctionDef):
                continue
            aliases = {
                node.targets[0].id: _nt_module(node.value)
                for node in ast.walk(func)
                if isinstance(node, ast.Assign) and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name) and _nt_module(node.value)
            }
            for node in ast.walk(func):
                if not isinstance(node, ast.Attribute):
                    continue
                owner = node.value
                module = _nt_module(owner)
                if module is None and isinstance(owner, ast.Name):
                    module = aliases.get(owner.id)
                if module is not None:
                    names.add((module, node.attr))
                owner_name = getattr(owner, "id", getattr(owner, "attr", ""))
                if owner_name.endswith("_map"):
                    fields.add(node.attr)
    return names, fields


def test_every_name_the_benchmark_reads_exists():
    names, fields = _benchmark_reads()
    # The scan finds the calls of the workloads, the study-like solve and
    # the replay, and the set-map fields the property counters read.
    assert {
        ("gametree", "binarize"), ("solver", "extract_strategy"),
        ("oracle", "sample_ups_points"), ("experiment", "ExperimentConfig"),
        ("solver", "compute_det_ups_all"), ("ups", "merge_random"),
        ("ups", "merge_ldet"), ("ups", "union"), ("ups", "merge"),
    } <= names
    assert {"by_node", "merges", "flag_ops"} <= fields
    for module, name in sorted(names):
        owner = importlib.import_module(f"nashtree.{module}")
        assert hasattr(owner, name), f"nashtree.{module}.{name}"
    known = {f.name for f in dataclasses.fields(SetMap)}
    assert fields <= known, sorted(fields - known)
