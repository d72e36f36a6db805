"""Workload-property counters and the set-algebra replay of a traced run.

Counters are read from the program's text formats (`.gtree`, strategy,
`ups v1` dumps) and from `SetMap.merges` / `SetMap.flag_ops`, so they do
not depend on how the program holds trees in memory. They are computed
for the traced items outside every timing, and repeat exactly for a given
workload, size and seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

# Spans of the replay, one per public ups operator; "ups.merge" times the
# whole merge for ups.us_per_merge.
REPLAY_SPANS = ("ups.merge_random", "ups.merge_ldet", "ups.union")

PROPERTY_UNITS = {
    "gametree.raw_nodes": "count",
    "gametree.bin_nodes": "count",
    "gametree.distinct_ratio": "ratio",
    "ups.grid_n1": "count",
    "ups.grid_n2": "count",
    "ups.root_flags": "count",
    "solver.mixing_nodes": "count",
    "solver.max_prob_den": "count",
}


def parse_nodes(gtree: str) -> tuple[str, dict[str, tuple]]:
    """Root id and id -> ('leaf', p1, p2) or (player, child ids...) of `.gtree` text."""
    root = None
    nodes: dict[str, tuple] = {}
    for line in gtree.splitlines():
        tokens = line.split()
        if not tokens:
            continue
        if tokens[0] == "root":
            root = tokens[1]
        elif tokens[0] == "leaf":
            nodes[tokens[1]] = ("leaf", tokens[3], tokens[4])
        elif tokens[0] == "node":
            nodes[tokens[1]] = (tokens[3], *tokens[5:])
    return root, nodes


@dataclass
class Analysis:
    """What the traced pass inspects of one item."""

    raw_text: str  # `.gtree` text of the item's tree as built
    bin_text: str  # `.gtree` text of the tree the solver works on
    set_map: object  # the solver's SetMap for that tree
    strategies: list[str]  # serialized extracted strategies

    @cached_property
    def bin_nodes(self) -> tuple[str, dict[str, tuple]]:
        return parse_nodes(self.bin_text)


def distinct_subtrees(root: str, nodes: dict[str, tuple]) -> int:
    """Number of structurally distinct subtrees, hashing each bottom-up."""
    canon: dict[str, int] = {}
    ids: dict[tuple, int] = {}
    stack = [(root, False)]
    while stack:
        nid, expanded = stack.pop()
        node = nodes[nid]
        if node[0] == "leaf":
            canon[nid] = ids.setdefault(node, len(ids))
        elif expanded:
            key = (node[0], *(canon[c] for c in node[1:]))
            canon[nid] = ids.setdefault(key, len(ids))
        else:
            stack.append((nid, True))
            stack.extend((c, False) for c in node[1:])
    return len(ids)


def strategy_mixing(strategy: str) -> tuple[int, int]:
    """(nodes choosing more than one child, largest probability denominator)."""
    mixing = 0
    max_den = 1
    for line in strategy.splitlines():
        tokens = line.split()
        if not tokens or tokens[0] != "at":
            continue
        probs = tokens[5::3]
        if len(probs) > 1:
            mixing += 1
        for p in probs:
            max_den = max(max_den, Fraction(p).denominator)
    return mixing, max_den


class Properties:
    """Sums of the property counters over the traced items."""

    def __init__(self):
        self.raw_nodes = self.bin_nodes = self.distinct = 0
        self.n1 = self.n2 = self.root_flags = 0
        self.merges = self.flag_ops = self.cells = 0
        self.mixing = 0
        self.max_den = 1

    def add(self, nt, found: Analysis) -> None:
        root, nodes = found.bin_nodes
        self.raw_nodes += len(parse_nodes(found.raw_text)[1])
        self.bin_nodes += len(nodes)
        self.distinct += distinct_subtrees(root, nodes)
        set_map = found.set_map
        dump = nt.ups.serialize_ups(set_map.by_node[int(root)]).splitlines()
        n1, n2 = len(dump[1].split()) - 1, len(dump[2].split()) - 1
        self.n1 += n1
        self.n2 += n2
        self.root_flags += len(dump) - 3
        self.merges += set_map.merges
        self.flag_ops += set_map.flag_ops
        self.cells += set_map.merges * n1 * n2
        for strategy in found.strategies:
            mixing, max_den = strategy_mixing(strategy)
            self.mixing += mixing
            self.max_den = max(self.max_den, max_den)

    def metrics(self, items: int) -> dict[str, float]:
        return {
            "gametree.raw_nodes": self.raw_nodes / items,
            "gametree.bin_nodes": self.bin_nodes / items,
            "gametree.distinct_ratio": self.distinct / self.bin_nodes,
            "ups.grid_n1": self.n1 / items,
            "ups.grid_n2": self.n2 / items,
            "ups.root_flags": self.root_flags / items,
            "ups.merges": self.merges / items,
            "ups.flag_ops": self.flag_ops / items,
            "ups.flag_ops_per_merge_cell": self.flag_ops / self.cells if self.cells else 0.0,
            "solver.mixing_nodes": self.mixing / items,
            "solver.max_prob_den": self.max_den,
        }


def replay(tracer, nt, found: Analysis) -> None:
    """Time each public ups operator over every internal node's merge.

    Each operator runs on the child sets the solve computed, in one span
    per operator, so their per-item totals can be compared directly.
    """
    ups = nt.ups
    by_node = found.set_map.by_node
    _, nodes = found.bin_nodes
    triples = [
        (by_node[int(node[1])], by_node[int(node[2])], int(node[0]))
        for node in nodes.values() if node[0] != "leaf"
    ]
    with tracer.span("ups.merge_random"):
        mixed = [ups.merge_random(a, b, x) for a, b, x in triples]
    with tracer.span("ups.merge_ldet"):
        kept = [(ups.merge_ldet(a, b, x), ups.merge_ldet(b, a, x)) for a, b, x in triples]
    with tracer.span("ups.union"):
        for m, (ka, kb) in zip(mixed, kept):
            ups.union(m, ups.union(ka, kb))
    with tracer.span("ups.merge"):
        for a, b, x in triples:
            ups.merge(a, b, x)
