"""Differential check: the fast merge operators against the set definitions.

The reference recomputes each operator by exact interval geometry on the
raw flag boxes and decides every basis element by representative-point
membership. A slow but direct transcription of what the operators mean.
"""

import random

import pytest

from nashtree.gametree import PayoffVector
from nashtree.oracle import brute_merge
from nashtree.ups import (
    PayoffGrid,
    is_empty,
    is_single_point,
    iter_flags,
    merge,
    merge_deterministic,
    merge_ldet,
    merge_random,
    min_point,
    singleton_ups,
    ups_from_flags,
)

from .helpers import edge_case_pair, equal_ups, random_grid, random_saturated_ups

# The operators the solver folds with; their one-point results carry
# their grid position.
FOLDS = (("merge", merge), ("deterministic", merge_deterministic))
OPERATORS = (("ldet", merge_ldet), ("random", merge_random)) + FOLDS


def _position_ok(u, fold: bool) -> bool:
    """A carried position names the set's one point, and a fold
    operator's result that is one point carries it."""
    flags = list(iter_flags(u))
    if u.at is not None:
        return flags == [("P", *divmod(u.at, u.grid.n2))]
    return not (fold and len(flags) == 1)


# Seeds from EDGE_SEEDS on draw the lane-kernel edge cases instead.
EDGE_SEEDS = 240


def _check_pair(rng_seed: int) -> list[str]:
    rng = random.Random(rng_seed)
    if rng_seed < EDGE_SEEDS:
        grid = random_grid(rng)
        a = random_saturated_ups(rng, grid)
        b = random_saturated_ups(rng, grid)
    else:
        a, b = edge_case_pair(rng)
    if is_empty(a) or is_empty(b):
        return []
    problems = []
    for x in (1, 2):
        for name, op in OPERATORS:
            algo = op(a, b, x)
            ref = brute_merge(a, b, x, name)
            if not equal_ups(algo, ref):
                problems.append(
                    f"seed={rng_seed} x={x} op={name}: "
                    f"algo={sorted(iter_flags(algo))} ref={sorted(iter_flags(ref))}"
                )
            if not _position_ok(algo, (name, op) in FOLDS):
                problems.append(f"seed={rng_seed} x={x} op={name}: position {algo.at}")
    return problems


@pytest.mark.parametrize("block", range(6))
def test_merge_operators_match_brute_force(block):
    problems = []
    for seed in range(block * 60, (block + 1) * 60):
        problems.extend(_check_pair(seed))
    assert not problems, "\n".join(problems[:5])


@pytest.mark.parametrize("n1, n2", [(1, 3), (3, 1), (3, 3)])
def test_point_merges_match_brute_force(n1, n2):
    # Every pair of points that carry their positions, so the same point,
    # one lane of either player and different lanes all occur.
    grid = PayoffGrid((0, 2, 5)[:n1], (1, 3, 4)[:n2])
    points = [singleton_ups(grid, PayoffVector(v, w)) for v in grid.u1 for w in grid.u2]
    for a in points:
        plain = ups_from_flags(grid, iter_flags(a))
        assert plain.at is None and is_single_point(plain) and is_single_point(a)
        for x in (1, 2):
            assert min_point(a, x) == min_point(plain, x)
        for b in points:
            for x in (1, 2):
                lanes_differ = (a.at // n2 != b.at // n2) if x == 1 else (a.at % n2 != b.at % n2)
                for name, op in FOLDS:
                    ops = grid.work.flag_ops
                    out = op(a, b, x)
                    assert equal_ups(out, brute_merge(a, b, x, name)), (a.at, b.at, x, name)
                    assert _position_ok(out, fold=True), (a.at, b.at, x, name)
                    # Across lanes the higher point is the result, with no flag work.
                    assert (grid.work.flag_ops == ops) == lanes_differ


def test_merge_distributes_over_union_on_samples():
    # merge(a1 U a2, b) == merge(a1, b) U merge(a2, b), per operator algebra.
    from nashtree.ups import union

    rng = random.Random(99)
    for _ in range(40):
        grid = random_grid(rng)
        a1 = random_saturated_ups(rng, grid)
        a2 = random_saturated_ups(rng, grid)
        b = random_saturated_ups(rng, grid)
        if is_empty(a1) or is_empty(a2) or is_empty(b):
            continue
        for x in (1, 2):
            whole = merge(union(a1, a2), b, x)
            split = union(merge(a1, b, x), merge(a2, b, x))
            assert equal_ups(whole, split)
