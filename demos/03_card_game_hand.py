"""Deal one open-handed Oh Hell! hand and solve it end to end."""

from nashtree import (
    OhohConfig,
    any_nash,
    best_nash,
    binarize,
    build_tree,
    deal,
    serialize_deal,
)

config = OhohConfig(cards_per_player=3, miss_penalty="flat")
dealt = deal(config, seed=28)
print(serialize_deal(dealt))

raw = build_tree(dealt, config)
work = binarize(raw)
print(f"game tree: {len(raw)} nodes raw (depth {raw.depth()}), "
      f"{len(work)} after binarization\n")

baseline = any_nash(work)
print("arbitrary equilibrium value:", baseline.value)

for criterion in ("social", "fair", "best1", "best2"):
    result = best_nash(work, criterion)
    improves = criterion == "social" and (
        result.value.p1 + result.value.p2 > baseline.value.p1 + baseline.value.p2
    )
    marker = "  <- improves on the arbitrary one" if improves else ""
    print(f"best {criterion:>6}: {result.value}{marker}")

# Card trees repeat the same child sets over and over: every internal node
# is combined (merges), but each distinct (controller, left set, right set)
# merge is computed only once (distinct merges).
social = best_nash(work, "social")
print(f"\nsolve stats: {social.stats.merges} merges, "
      f"{social.stats.distinct_merges} distinct merges computed, over a "
      f"{social.root_ups.grid.n1}x{social.root_ups.grid.n2} payoff grid, "
      f"{social.stats.total_ms:.0f} ms")
