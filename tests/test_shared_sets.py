"""Sharing of equal payoff sets inside one solve.

The solver computes each distinct (controller, left set, right set) merge
and each distinct extraction step once per call. These tests pin the
counters on trees built to share, compare every per-node set against a
memo-free fold, and require serialized strategies to stay byte-identical
to a golden recorded before the sharing existed. The golden's "raw_hands"
and "mary_trees" sections hold strategies solved on m-ary trees (forced
single moves and nodes of up to four children), recorded while the solver
still binarized such trees and folded the strategy back.

Re-record the golden (only when a strategy change is intended and
explained) with ``PYTHONPATH=src python -m tests.test_shared_sets``.
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
import threading

from nashtree.gametree import (
    GameTree,
    binarize,
    parse_game_tree,
    serialize_strategy,
)
from nashtree.ohoh import OhohConfig, build_tree, deal
from nashtree.oracle import random_tree, sample_ups_points
from nashtree.solver import (
    CRITERIA,
    best_deterministic_nash,
    best_nash,
    compute_det_ups_all,
    compute_ups_all,
    extract_strategy,
)
from nashtree.ups import build_grid, merge, merge_deterministic, singleton_ups

from .conftest import DATA
from .helpers import (
    MIXING_SEARCH_TIE_BIAS,
    MIXING_SEARCH_VALUES,
    Internal,
    Leaf,
    equal_ups,
    game_tree,
    nodes_of,
    pv,
)

GOLDEN = DATA / "strategy_digests.json"
HAND_SEEDS = range(40)
TREE_SEEDS = range(100)


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _hand_digests(seed: int, binarized: bool = True) -> dict[str, str]:
    config = OhohConfig(3, "flat")
    tree = build_tree(deal(config, seed), config)
    work = binarize(tree) if binarized else tree
    out = {}
    for criterion in CRITERIA:
        out[criterion] = _digest(serialize_strategy(best_nash(work, criterion).strategy))
        det = best_deterministic_nash(work, criterion)
        out["det_" + criterion] = _digest(serialize_strategy(det.strategy))
    return out


def _tree_digest(seed: int) -> str:
    rng = random.Random(seed)
    tree = random_tree(
        rng, rng.randint(1, 10), MIXING_SEARCH_VALUES, tie_bias=MIXING_SEARCH_TIE_BIAS
    )
    smap = compute_ups_all(tree)
    texts = [
        serialize_strategy(extract_strategy(tree, smap, tree.root, target))
        for target in sample_ups_points(smap.by_node[tree.root], per_element=3, seed=seed)
    ]
    return _digest("".join(texts))


def _mary_tree_digest(seed: int) -> str:
    rng = random.Random(seed)
    tree = random_tree(
        rng,
        rng.randint(1, 10),
        MIXING_SEARCH_VALUES,
        max_arity=4,
        tie_bias=MIXING_SEARCH_TIE_BIAS,
    )
    texts = [serialize_strategy(best_nash(tree, c).strategy) for c in CRITERIA]
    return _digest("".join(texts))


def golden_digests() -> dict:
    return {
        "hands": {str(s): _hand_digests(s) for s in HAND_SEEDS},
        "trees": {str(s): _tree_digest(s) for s in TREE_SEEDS},
        "raw_hands": {str(s): _hand_digests(s, binarized=False) for s in HAND_SEEDS},
        "mary_trees": {str(s): _mary_tree_digest(s) for s in TREE_SEEDS},
    }


def _reference_sets(tree: GameTree, combine) -> dict:
    """Memo-free fold: one `combine` call per internal node, in post-order."""
    grid = build_grid(tree)
    sets = {}
    nodes = nodes_of(tree)
    for nid in tree.post_order():
        node = nodes[nid]
        if isinstance(node, Leaf):
            sets[nid] = singleton_ups(grid, node.payoff)
        else:
            left, right = node.children
            sets[nid] = combine(sets[left], sets[right], node.controller)
    return sets


def _tree(spec) -> GameTree:
    """Build a binary tree from nested (controller, left, right) / (p1, p2)."""
    nodes = {}

    def build(item) -> int:
        nid = len(nodes) + 1
        nodes[nid] = None
        if len(item) == 2:
            nodes[nid] = Leaf(pv(*item))
        else:
            controller, left, right = item
            nodes[nid] = Internal(controller, (build(left), build(right)))
        return nid

    return game_tree(build(spec), nodes)


# Four leaves, with an indifference for player 1 and a tie for player 2.
_SUB = (2, (1, (1, 3), (1, 0)), (1, (2, 2), (0, 2)))
# The same subtree twice under the root: its three merges are computed once.
TWIN = _tree((1, _SUB, _SUB))
# Different subtrees with equal sets: the first player-2 node of each half
# lists its leaves in the other order, but both reduce to {(1, 2)}, so the
# second half's player-1 node reuses the first half's merge.
EQUAL_SETS = _tree((
    2,
    (1, (2, (1, 1), (1, 2)), (2, (0, 0), (3, 3))),
    (1, (2, (1, 2), (1, 1)), (2, (0, 0), (3, 3))),
))


def test_identical_subtrees_merge_once():
    for compute in (compute_ups_all, compute_det_ups_all):
        smap = compute(TWIN)
        assert smap.merges == 7
        assert smap.distinct_merges == 4


def test_equal_sets_from_different_subtrees_merge_once():
    for compute in (compute_ups_all, compute_det_ups_all):
        smap = compute(EQUAL_SETS)
        assert smap.merges == 7
        assert smap.distinct_merges == 5


# Three leaves paying (1, 3): the lower merge yields the leaves' own point,
# so the root's merge is the same (controller, left set, right set).
EQUAL_POINTS = (
    "gtree v1\nroot 1\nnode 1 player 1 children 2 3\nnode 2 player 1 children 4 5\n"
    "leaf 3 payoff 1 3\nleaf 4 payoff 1 3\nleaf 5 payoff 1 3\n"
)


def test_merged_single_point_shares_the_leaf_set():
    # Parsed, the leaves share one payoff entry; built, each has its own.
    for tree in (parse_game_tree(EQUAL_POINTS), _tree((1, (1, (1, 3), (1, 3)), (1, 3)))):
        for compute in (compute_ups_all, compute_det_ups_all):
            smap = compute(tree)
            assert smap.merges == 2
            assert smap.distinct_merges == 1


def test_shared_sets_equal_memo_free_fold():
    rng = random.Random(7)
    trees = [TWIN, EQUAL_SETS]
    trees += [random_tree(rng, rng.randint(1, 12), (0, 1, 2), tie_bias=0.5) for _ in range(60)]
    config = OhohConfig(3, "flat")
    trees += [binarize(build_tree(deal(config, seed), config)) for seed in range(3)]
    for tree in trees:
        for compute, combine in (
            (compute_ups_all, merge),
            (compute_det_ups_all, merge_deterministic),
        ):
            smap = compute(tree)
            reference = _reference_sets(tree, combine)
            assert smap.by_node.keys() == reference.keys()
            for nid, ups in reference.items():
                assert equal_ups(smap.by_node[nid], ups), nid


def test_fewer_distinct_merges_on_card_hands():
    config = OhohConfig(3, "flat")
    work = binarize(build_tree(deal(config, 0), config))
    result = best_nash(work, "social")
    assert result.stats.merges == len(work.internal_ids())
    assert 0 < result.stats.distinct_merges < result.stats.merges


def test_flag_ops_exact_under_threads():
    # Each solve counts on its own grid, so solves that interleave in
    # threads must report exactly their single-threaded work.
    config = OhohConfig(3, "flat")
    trees = [binarize(build_tree(deal(config, seed), config)) for seed in range(4)]
    solo = [compute_ups_all(tree).flag_ops for tree in trees]
    got = [None] * 8

    def solve(k: int) -> None:
        got[k] = compute_ups_all(trees[k % 4]).flag_ops

    threads = [threading.Thread(target=solve, args=(k,)) for k in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert got == [solo[k % 4] for k in range(8)]


def test_strategies_byte_identical_to_golden():
    golden = json.loads(GOLDEN.read_text())
    assert golden_digests() == golden


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(golden_digests(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
