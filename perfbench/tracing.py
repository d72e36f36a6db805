"""Spans around calls into each nashtree module, recorded from outside.

`Tracer.install` swaps every module-global reference to a listed public
function (in every loaded `nashtree` module) for a wrapper that records a
span, and `uninstall` puts the originals back. The post-order pass is a
cached property, so its computation is wrapped on the class. Spans live in
memory as tuples and are written once, when the run ends. Untraced runs
never install anything, so they do no span work at all.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
from time import perf_counter

# Layer name -> (module, public function names). Layers are named after the
# module that owns the function.
LAYERS = {
    "ohoh.build": ("ohoh", ("build_tree",)),
    "gametree.parse": ("gametree", ("parse_game_tree",)),
    "gametree.serialize": ("gametree", ("serialize_game_tree", "serialize_strategy")),
    "gametree.parse_strategy": ("gametree", ("parse_strategy",)),
    "gametree.check_strategy": ("gametree", ("check_strategy",)),
    "gametree.binarize": ("gametree", ("binarize",)),
    "gametree.evaluate": ("gametree", ("evaluate",)),
    "gametree.is_equilibrium": ("gametree", ("is_equilibrium",)),
    "ups.serialize": ("ups", ("serialize_ups",)),
    "solver.any_nash": ("solver", ("any_nash",)),
    "solver.ups": ("solver", ("compute_ups_all",)),
    "solver.det": ("solver", ("compute_det_ups_all",)),
    "solver.select": ("solver", ("select_optimal",)),
    "solver.extract": ("solver", ("extract_strategy",)),
    "solver.best_nash": ("solver", ("best_nash", "best_deterministic_nash")),
    "experiment.solve_hand": ("experiment", ("solve_hand",)),
    "experiment.report_json": ("experiment", ("report_to_json",)),
    "oracle.enumerate": ("oracle", ("enumerate_pure_spe",)),
    "oracle.cross_validate": ("oracle", ("cross_validate",)),
    "cli.main": ("cli", ("main",)),
}
POST_ORDER = "gametree.post_order"


class Tracer:
    def __init__(self):
        # (name, start, end, parent index or -1, item id); start/end in seconds.
        self.spans: list[tuple] = []
        self.item = None
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def _open(self, name: str) -> tuple[int, float]:
        idx = len(self.spans)
        self.spans.append(None)
        self._stack.append(idx)
        return idx, perf_counter()

    def _close(self, name: str, idx: int, start: float) -> None:
        end = perf_counter()
        self._stack.pop()
        parent = self._stack[-1] if self._stack else -1
        self.spans[idx] = (name, start, end, parent, self.item)

    @contextlib.contextmanager
    def span(self, name: str):
        idx, start = self._open(name)
        try:
            yield
        finally:
            self._close(name, idx, start)

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx, start = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(name, idx, start)

        return traced

    def install(self, nt) -> None:
        modules = [m for k, m in sys.modules.items() if k == "nashtree" or k.startswith("nashtree.")]
        for name, (module, functions) in LAYERS.items():
            for fname in functions:
                original = getattr(getattr(nt, module), fname)
                wrapped = self._wrap(name, original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapped)
                            self._undo.append((mod, attr, original))
        cls = nt.gametree.GameTree
        prop = cls.__dict__["_post_order"]
        traced = functools.cached_property(self._wrap(POST_ORDER, prop.func))
        traced.__set_name__(cls, "_post_order")
        setattr(cls, "_post_order", traced)
        self._undo.append((cls, "_post_order", prop))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def self_times(self) -> dict[str, float]:
        """Seconds per span name, each span minus the time its children cover."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals: dict[str, float] = {}
        for (name, start, end, _, _), inner in zip(self.spans, child):
            totals[name] = totals.get(name, 0.0) + (end - start) - inner
        return totals

    def write(self, path, record: dict) -> None:
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"run": record}) + "\n")
            for idx, (name, start, end, parent, item) in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": idx, "name": name, "parent": parent, "item": item,
                    "start_us": round((start - t0) * 1e6, 1),
                    "end_us": round((end - t0) * 1e6, 1),
                }) + "\n")
