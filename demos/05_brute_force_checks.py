"""Cross-checking the solver against brute force on small instances.

The oracle finds every pure equilibrium value subgame by subgame, straight
from the definition, re-derives merge results from their set definitions
with interval geometry, and spot-extracts sampled points. None of it
shares code with the fast paths it checks.
"""

import random

from nashtree import (
    brute_merge,
    cross_validate,
    enumerate_pure_spe,
    merge,
    random_tree,
)
from nashtree.ups import build_grid, singleton_ups

rng = random.Random(7)
tree = random_tree(rng, internal_count=8)

print("== pure equilibria, enumerated subgame by subgame ==")
for value in sorted(enumerate_pure_spe(tree), key=lambda v: (v.p1, v.p2)):
    print("pure equilibrium value:", value)

print("\n== full differential cross-validation ==")
report = cross_validate(tree, seed=1)
print("pure values contained in computed set:", report.containment_ok)
print("deterministic mode matches enumeration:", report.det_equals_oracle)
print("extraction spot checks failed:", len(report.extraction_failures))

print("\n== one merge recomputed from its definition ==")
grid = build_grid(tree)
leaves = [tree.payoffs[i] for i in tree.leaf.values()]
a = singleton_ups(grid, leaves[0])
b = singleton_ups(grid, leaves[1])
fast = merge(a, b, 1)
slow = brute_merge(a, b, 1, "merge")
print("flag-for-flag equal:", fast == slow)
