from __future__ import annotations

import random
from fractions import Fraction

from nashtree.gametree import PayoffVector
from nashtree.ups import (
    FLAG_KINDS,
    PayoffGrid,
    Ups,
    _flag_dims,
    iter_flags,
    saturate,
    ups_from_flags,
)


def pv(a, b) -> PayoffVector:
    return PayoffVector(Fraction(a), Fraction(b))


def random_grid(rng: random.Random, max_side: int = 6, value_range: int = 12) -> PayoffGrid:
    n1 = rng.randint(1, max_side)
    n2 = rng.randint(1, max_side)
    return _grid(rng, n1, n2, value_range)


def _grid(rng: random.Random, n1: int, n2: int, value_range: int = 12) -> PayoffGrid:
    u1 = tuple(Fraction(v) for v in sorted(rng.sample(range(value_range), n1)))
    u2 = tuple(Fraction(v) for v in sorted(rng.sample(range(value_range), n2)))
    return PayoffGrid(u1, u2)


def random_flags(rng: random.Random, grid: PayoffGrid, density: float = 0.18):
    flags = []
    for kind in FLAG_KINDS:
        rows, cols = _flag_dims(grid, kind)
        for i in range(rows):
            for j in range(cols):
                if rng.random() < density:
                    flags.append((kind, i, j))
    return flags


def random_saturated_ups(rng: random.Random, grid: PayoffGrid, density: float = 0.18):
    return saturate(ups_from_flags(grid, random_flags(rng, grid, density)))


def edge_case_pair(rng: random.Random) -> tuple[Ups, Ups]:
    """Two saturated sets on a grid shaped to stress the lane kernel.

    The grid is 1 x k, k x 1 or random, and each set is random, has all
    its flags in one row or one column (one lane of either player), or
    has every flag set.
    """
    k = rng.randint(1, 7)
    n1, n2 = rng.choice([(1, k), (k, 1), (rng.randint(2, 6), rng.randint(2, 6))])
    grid = _grid(rng, n1, n2)

    def one(mode: str) -> Ups:
        flags = random_flags(rng, grid, 1.0 if mode == "full" else 0.3)
        if mode == "row":
            row = rng.randrange(n1)
            flags = [f for f in flags if f[0] in ("P", "L2") and f[1] == row]
        elif mode == "column":
            column = rng.randrange(n2)
            flags = [f for f in flags if f[0] in ("P", "L1") and f[2] == column]
        return saturate(ups_from_flags(grid, flags))

    modes = ("random", "row", "column", "full")
    return one(rng.choice(modes)), one(rng.choice(modes))


def transpose(a: Ups) -> Ups:
    """The same point set with the two players' axes swapped.

    A flag-by-flag reference for the symmetry checks: the operators
    themselves serve both players without transposing.
    """
    grid = a.grid
    swapped = {"P": "P", "L1": "L2", "L2": "L1", "D": "D"}
    return ups_from_flags(
        PayoffGrid(grid.u2, grid.u1),
        [(swapped[kind], j, i) for kind, i, j in iter_flags(a)],
    )
