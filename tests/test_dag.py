"""Game DAGs: equal subtrees stored once, solved over their distinct nodes.

A DAG stands for the tree it unfolds to. These tests pin that every walk
visits each distinct node once, that the counts and solutions of a DAG are
those of its tree, that the card-game DAG unfolds to `build_tree`'s tree,
and that extraction keys its work by (node, target): the study's 4-card
flat hands 110 and 360 ask a shared node for two different targets.
"""

from __future__ import annotations

import random

import pytest

from nashtree.gametree import (
    GameTree,
    binarize,
    evaluate,
    is_equilibrium,
    serialize_game_tree,
    tree_sizes,
    unfold,
)
from nashtree.ohoh import OhohConfig, build_dag, build_tree, deal
from nashtree.oracle import random_tree
from nashtree.solver import (
    CRITERIA,
    any_nash,
    best_deterministic_nash,
    best_nash,
    compute_det_ups_all,
    compute_ups_all,
    extract,
    extract_strategy,
    select_optimal,
)

from .helpers import (
    Internal,
    Leaf,
    equal_ups,
    game_tree,
    nodes_of,
    pv,
    random_mary_tree,
    reference_build_dag,
    share,
)

FLAT4 = OhohConfig(4, "flat")

# (config, seeds) of the hands the builder is checked on against the
# builder it replaced: 1-5 cards flat and mirror, plus two 6-card hands.
BUILDER_HANDS = [
    (OhohConfig(cards, mode), range(seeds))
    for cards, seeds in [(1, 6), (2, 6), (3, 6), (4, 4), (5, 2)]
    for mode in ("flat", "mirror")
] + [(OhohConfig(6, "flat"), range(2))]
ON_BUILDER_HANDS = pytest.mark.parametrize(
    "config, seeds", BUILDER_HANDS,
    ids=[f"{c.cards_per_player}-{c.miss_penalty}" for c, _ in BUILDER_HANDS],
)


def _random_trees(count: int, seed: int = 3) -> list[GameTree]:
    rng = random.Random(seed)
    return [random_mary_tree(rng) for _ in range(count)]


def _text(tree: GameTree) -> str:
    return serialize_game_tree(unfold(tree))


# A node reached twice: the root's children are A (id 2) and B (id 3), and
# B is also A's first child. A depth-first preorder that skips repeats,
# reversed, puts A before its child B.
DIAMOND = game_tree(
    1,
    {
        1: Internal(1, (2, 3)),
        2: Internal(2, (3, 4)),
        3: Internal(1, (5, 4)),
        4: Leaf(pv(1, 0)),
        5: Leaf(pv(0, 2)),
    },
)


class TestWalks:
    def test_post_order_visits_each_node_once_children_first(self):
        for dag in [DIAMOND] + [share(t) for t in _random_trees(200)]:
            order = list(dag.post_order())
            nodes = nodes_of(dag)
            assert sorted(order) == sorted(nodes)
            seen = set()
            for nid in order:
                node = nodes[nid]
                if isinstance(node, Internal):
                    assert seen.issuperset(node.children)
                seen.add(nid)

    def test_post_order_on_a_tree_is_unchanged(self):
        tree = build_tree(deal(OhohConfig(2, "flat"), 1), OhohConfig(2, "flat"))
        # Children first to last, then the node: the preorder ids of a tree
        # make that the order in which each subtree is closed.
        expected = []
        nodes = nodes_of(tree)

        def close(nid):
            node = nodes[nid]
            if isinstance(node, Internal):
                for child in node.children:
                    close(child)
            expected.append(nid)

        close(tree.root)
        assert list(tree.post_order()) == expected

    def test_unfold_of_the_diamond(self):
        tree = unfold(DIAMOND)
        assert serialize_game_tree(tree) == (
            "gtree v1\nroot 1\n"
            "node 1 player 1 children 2 7\n"
            "node 2 player 2 children 3 6\n"
            "node 3 player 1 children 4 5\n"
            "leaf 4 payoff 0 2\n"
            "leaf 5 payoff 1 0\n"
            "leaf 6 payoff 1 0\n"
            "node 7 player 1 children 8 9\n"
            "leaf 8 payoff 0 2\n"
            "leaf 9 payoff 1 0\n"
        )

    def test_sharing_keeps_the_unfolded_tree(self):
        shared = 0
        for tree in _random_trees(200):
            dag = share(tree)
            shared += len(dag) < len(tree)
            assert _text(dag) == _text(tree)
        assert shared > 100


class TestCostContract:
    def test_counts_are_those_of_the_tree_and_its_binarization(self):
        chains = 0
        for tree in _random_trees(300):
            expected = (len(tree), len(binarize(tree)))
            assert tree_sizes(tree) == expected
            assert tree_sizes(share(tree)) == expected
            chains += any(
                isinstance(n, Internal) and len(n.children) == 1 for n in nodes_of(tree).values()
            )
        assert chains > 100

    def test_card_hand_merges_once_per_distinct_link(self):
        dag = build_dag(deal(FLAT4, 0), FLAT4)
        links = sum(
            len(n.children) - 1 for n in nodes_of(dag).values() if isinstance(n, Internal)
        )
        set_map = compute_ups_all(dag)
        assert set_map.merges == links
        assert compute_det_ups_all(dag).merges == links
        tree = build_tree(deal(FLAT4, 0), FLAT4)
        assert links < len(binarize(tree).internal_ids())


class TestCardGameDag:
    @pytest.mark.parametrize("mode", ["flat", "mirror"])
    def test_unfolds_to_build_tree(self, mode):
        config = OhohConfig(3, mode)
        for seed in range(5):
            dag = build_dag(deal(config, seed), config)
            assert unfold(dag) == build_tree(deal(config, seed), config)

    @ON_BUILDER_HANDS
    def test_same_dag_as_the_reference_builder(self, config, seeds):
        for seed in seeds:
            hand = deal(config, seed)
            dag, expected = build_dag(hand, config), reference_build_dag(hand, config)
            assert dag.root == expected.root
            assert nodes_of(dag) == nodes_of(expected)
            # Ids are given children first, in the order of a post-order walk.
            ids = tuple(range(1, len(dag) + 1))
            assert tuple(dag.post_order()) == tuple(expected.post_order()) == ids

    @ON_BUILDER_HANDS
    def test_post_order_lists_each_node_once_children_first(self, config, seeds):
        for seed in seeds:
            dag = build_dag(deal(config, seed), config)
            order = list(dag.post_order())
            nodes = nodes_of(dag)
            assert sorted(order) == sorted(nodes)
            assert order[-1] == dag.root
            # The builder hands its order over; a fresh walk reaches every node.
            fresh = GameTree(dag.root, dag.controller, dag.children, dag.leaf, dag.payoffs)
            assert len(list(fresh.post_order())) == len(order)
            seen = set()
            for nid in order:
                node = nodes[nid]
                if isinstance(node, Internal):
                    assert seen.issuperset(node.children)
                seen.add(nid)

    def test_every_node_is_reachable_and_distinct(self):
        for seed in range(5):
            dag = build_dag(deal(FLAT4, seed), FLAT4)
            assert len(list(dag.post_order())) == len(dag)
            assert len(set(nodes_of(dag).values())) == len(dag)
            tree_nodes, _ = tree_sizes(dag)
            assert tree_nodes > 5 * len(dag)


class TestSolvingDags:
    def test_solutions_match_the_tree(self):
        for tree in _random_trees(150, seed=11):
            dag = share(tree)
            assert any_nash(dag).value == any_nash(tree).value
            full_dag, full_tree = compute_ups_all(dag), compute_ups_all(tree)
            assert equal_ups(full_dag.by_node[dag.root], full_tree.by_node[tree.root])
            det_dag, det_tree = compute_det_ups_all(dag), compute_det_ups_all(tree)
            assert equal_ups(det_dag.by_node[dag.root], det_tree.by_node[tree.root])
            assert full_dag.merges == sum(
                len(n.children) - 1 for n in nodes_of(dag).values() if isinstance(n, Internal)
            )
            for criterion in CRITERIA:
                assert best_nash(tree, criterion).value == select_optimal(
                    full_dag.by_node[dag.root], criterion
                )
                assert best_deterministic_nash(tree, criterion).value == select_optimal(
                    det_dag.by_node[dag.root], criterion
                )

    def test_extraction_on_a_tree_splits_nothing(self):
        tree = build_tree(deal(OhohConfig(3, "flat"), 4), OhohConfig(3, "flat"))
        set_map = compute_ups_all(tree)
        social = select_optimal(set_map.by_node[tree.root], "social")
        found = extract(tree, set_map, tree.root, social)
        assert found.game is tree and found.origin == {}
        assert found.strategy == extract_strategy(tree, set_map, tree.root, social)

    @pytest.mark.parametrize("seed", [110, 360])
    def test_shared_node_asked_for_two_targets(self, seed):
        dag = build_dag(deal(FLAT4, seed), FLAT4)
        set_map = compute_ups_all(dag)
        social = select_optimal(set_map.by_node[dag.root], "social")
        found = extract(dag, set_map, dag.root, social)
        values = evaluate(found.game, found.strategy)
        assert values[found.game.root] == social
        check = is_equilibrium(found.game, found.strategy)
        assert check.ok and check.value == social
        # Each copy attains its own target, which differs from the one its
        # node was first asked for.
        assert found.origin
        assert all(values[copy] != values[nid] for copy, nid in found.origin.items())
        assert _text(found.game) == _text(dag)
        # No strategy keyed by node can play both targets.
        with pytest.raises(ValueError, match="two targets"):
            extract_strategy(dag, set_map, dag.root, social)
        # The tree path reaches the same value.
        tree = unfold(dag)
        tree_map = compute_ups_all(tree)
        strategy = extract_strategy(tree, tree_map, tree.root, social)
        assert evaluate(tree, strategy)[tree.root] == social

    def test_random_dag_extractions_attain_their_targets(self):
        # Few payoff values and up to three children make equal subtrees,
        # and shared nodes asked for two targets, common.
        rng = random.Random(5)
        split = 0
        for _ in range(150):
            dag = share(random_tree(rng, rng.randint(5, 40), (0, 1), max_arity=3))
            set_map = compute_ups_all(dag)
            for criterion in CRITERIA:
                target = select_optimal(set_map.by_node[dag.root], criterion)
                found = extract(dag, set_map, dag.root, target)
                split += bool(found.origin)
                check = is_equilibrium(found.game, found.strategy)
                assert check.ok and check.value == target
                assert _text(found.game) == _text(dag)
        assert split > 20
