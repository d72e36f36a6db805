"""The grid-based set algebra underneath the solver, step by step.

Equilibrium payoff sets are unions of points, axis-aligned segments, and
rectangles whose corners come from the distinct leaf payoffs. Four bit
grids represent such a set exactly; merging two child sets for the player
who controls the parent node is a couple of masked bit operations.
"""

from fractions import Fraction

from nashtree import (
    contains,
    merge,
    merge_ldet,
    merge_random,
    min_point,
    saturate,
    serialize_ups,
    singleton_ups,
    ups_from_flags,
)
from nashtree.gametree import PayoffVector
from nashtree.ups import PayoffGrid

grid = PayoffGrid(
    tuple(map(Fraction, (2, 1000))),
    tuple(map(Fraction, (3, 4, 100))),
)

a = singleton_ups(grid, PayoffVector(Fraction(2), Fraction(3)))
b = singleton_ups(grid, PayoffVector(Fraction(2), Fraction(100)))

print("== player 1 is indifferent between (2,3) and (2,100) ==")
column = merge_random(a, b, 1)
print(serialize_ups(column))
print("contains (2, 50):", contains(column, PayoffVector(Fraction(2), Fraction(50))))
print("contains (2, 2): ", contains(column, PayoffVector(Fraction(2), Fraction(2))))

print("\n== committing deterministically keeps only defensible payoffs ==")
c = singleton_ups(grid, PayoffVector(Fraction(1000), Fraction(4)))
print("player 2's worst point in the column:", min_point(column, 2).component(2))
kept = merge_ldet(column, c, 2)
print(serialize_ups(kept))

print("== the full merge for player 2 ==")
print(serialize_ups(merge(column, c, 2)))

print("== saturation: a rectangle implies its edges and corners ==")
cell = ups_from_flags(grid, [("D", 0, 0)])
print(serialize_ups(saturate(cell)))
