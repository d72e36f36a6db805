"""Differential check: the fast merge operators against the set definitions.

The reference recomputes each operator by exact interval geometry on the
raw flag boxes and decides every basis element by representative-point
membership. A slow but direct transcription of what the operators mean.
"""

import random

import pytest

from nashtree.oracle import brute_merge
from nashtree.ups import is_empty, iter_flags, merge, merge_ldet, merge_random

from .helpers import edge_case_pair, equal_ups, random_grid, random_saturated_ups

OPERATORS = (("ldet", merge_ldet), ("random", merge_random), ("merge", merge))


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
    return problems


@pytest.mark.parametrize("block", range(6))
def test_merge_operators_match_brute_force(block):
    problems = []
    for seed in range(block * 60, (block + 1) * 60):
        problems.extend(_check_pair(seed))
    assert not problems, "\n".join(problems[:5])


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
