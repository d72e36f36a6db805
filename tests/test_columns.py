"""Games and strategies stored as id-keyed int columns.

The parsers are checked id for id against the per-node parsers they
replaced (`tests.helpers.reference_parse_game_tree` and
`reference_parse_strategy`), on canonical text and on the same text with
comments and uneven spacing. The collector tests pin the design: a parsed
game keeps no object per node, and its columns hold only untracked values.
"""

from __future__ import annotations

import gc
import random
import tracemalloc
from fractions import Fraction

import pytest

from nashtree.gametree import (
    GameTree,
    PayoffVector,
    Strategy,
    parse_game_tree,
    parse_strategy,
    serialize_game_tree,
    serialize_strategy,
)
from nashtree.ohoh import OhohConfig, build_dag, build_tree, deal
from nashtree.oracle import random_tree
from nashtree.solver import any_nash, best_nash, compute_ups_all, extract, select_optimal

from .conftest import DATA
from .helpers import (
    choices_of,
    random_mary_tree,
    reference_parse_game_tree,
    reference_parse_strategy,
    strategy_of,
)

# (cards, seeds) of the card hands parsed both ways, flat and mirror.
HANDS = [(1, range(6)), (2, range(6)), (3, range(4)), (4, range(2)), (5, range(1))]


def _uneven(text: str, rng: random.Random) -> str:
    """The same content with comments, blank lines and uneven spacing."""
    lines = []
    for line in text.splitlines():
        tokens = line.split()
        lines.append(rng.choice(["  ", "\t", ""]) + "   ".join(tokens) + " # note")
        if rng.random() < 0.1:
            lines.append("# a comment line")
    return "\n".join(lines)


def _assert_same_game(text: str) -> None:
    game, expected = parse_game_tree(text), reference_parse_game_tree(text)
    assert game == expected
    assert (game.leaf, game.payoffs) == (expected.leaf, expected.payoffs)  # the table's layout


def _assert_same_strategy(text: str) -> None:
    strategy = parse_strategy(text)
    assert choices_of(strategy) == reference_parse_strategy(text)
    assert all(len(entries) != 1 or entries[0][1] != 1 for entries in strategy.mixed.values())


class TestParsersAgainstTheReference:
    @pytest.mark.parametrize("mode", ["flat", "mirror"])
    def test_card_hands(self, mode):
        rng = random.Random(mode)
        for cards, seeds in HANDS:
            config = OhohConfig(cards, mode)
            for seed in seeds:
                tree = build_tree(deal(config, seed), config)
                text = serialize_game_tree(tree)
                _assert_same_game(text)
                solved = best_nash(tree, "social") if cards < 5 else any_nash(tree)
                strategy_text = serialize_strategy(solved.strategy)
                _assert_same_strategy(strategy_text)
                if cards < 4:
                    _assert_same_game(_uneven(text, rng))
                    _assert_same_strategy(_uneven(strategy_text, rng))

    def test_random_mary_trees_and_mixed_strategies(self):
        rng = random.Random(15)
        one_child = 0
        for _ in range(300):
            tree = random_mary_tree(rng)
            one_child += any(len(kids) == 1 for kids in tree.children.values())
            text = serialize_game_tree(tree)
            _assert_same_game(text)
            _assert_same_game(_uneven(text, rng))
            choices = {}
            for nid, kids in tree.children.items():
                weights = [rng.randint(0, 2) for _ in kids]
                weights[rng.randrange(len(kids))] += 1
                choices[nid] = tuple(
                    (c, Fraction(w, sum(weights))) for c, w in zip(kids, weights) if w
                )
            strategy_text = serialize_strategy(strategy_of(choices))
            _assert_same_strategy(strategy_text)
            _assert_same_strategy(_uneven(strategy_text, rng))
        assert one_child > 200

    def test_data_files(self):
        for name in ("multi_eq.gtree", "mixing_required.gtree"):
            _assert_same_game((DATA / name).read_text())
        for name in ("best_for_p2.strat", "social_opt.strat"):
            _assert_same_strategy((DATA / name).read_text())


class TestColumns:
    def test_equality_ignores_the_payoff_table_layout(self):
        # Each leaf of a random oracle tree has its own table entry; the
        # parsed copy shares one entry per distinct payoff.
        rng = random.Random(1)
        laid_out_apart = 0
        for _ in range(50):
            tree = random_tree(rng, 6)
            parsed = parse_game_tree(serialize_game_tree(tree))
            laid_out_apart += len(parsed.payoffs) < len(tree.payoffs)
            assert parsed == tree and tree == parsed
            nid, i = next(iter(tree.leaf.items()))
            p = tree.payoffs[i]
            moved = PayoffVector(p.p1 + 1, p.p2)
            leaf = {**tree.leaf, nid: len(tree.payoffs)}
            changed = GameTree(tree.root, tree.controller, tree.children, leaf, (*tree.payoffs, moved))
            assert changed != tree
            controller = {**tree.controller, tree.root: 3 - tree.controller[tree.root]}
            assert GameTree(tree.root, controller, tree.children, tree.leaf, tree.payoffs) != tree
        assert laid_out_apart > 40

    def test_parsing_keeps_no_object_per_node(self):
        config = OhohConfig(4, "flat")
        tree_text = serialize_game_tree(build_tree(deal(config, 0), config))
        gc.collect()
        before = len(gc.get_objects())
        tree = parse_game_tree(tree_text)
        strategy = parse_strategy(serialize_strategy(best_nash(tree, "social").strategy))
        gc.collect()
        assert len(tree) > 10_000 and len(strategy.pure) > 5_000
        assert len(gc.get_objects()) - before < 500

    def test_columns_are_untracked_after_a_collection(self):
        config = OhohConfig(4, "flat")
        tree = parse_game_tree(serialize_game_tree(build_tree(deal(config, 3), config)))
        strategy = parse_strategy(serialize_strategy(best_nash(tree, "social").strategy))
        gc.collect()
        columns = (tree.controller, tree.children, tree.leaf, strategy.pure, strategy.mixed)
        assert [gc.is_tracked(column) for column in columns] == [False] * 5

    def test_pure_choices_are_child_ids(self):
        text = "strategy v1\nat 1 choose 2 prob 1\nat 2 choose 4 prob 1/2 5 prob 1/2\n"
        strategy = parse_strategy(text)
        assert strategy == Strategy({1: 2}, {2: ((4, Fraction(1, 2)), (5, Fraction(1, 2)))})
        assert serialize_strategy(strategy) == text

    def test_huge_sparse_ids_cost_memory_per_line(self):
        big = [999_999_999_999, 500_000_000_000, 7, 123_456_789_012]
        text = (  # canonical: ids ascending after the root line
            f"gtree v1\nroot {big[0]}\nleaf {big[2]} payoff 0 1\n"
            f"leaf {big[3]} payoff 2 2\nleaf {big[1]} payoff 1 0\n"
            f"node {big[0]} player 1 children {big[1]} {big[2]} {big[3]}\n"
        )
        tracemalloc.start()
        try:
            tree = parse_game_tree(text)
            result = best_nash(tree, "social")
            out = serialize_game_tree(tree), serialize_strategy(result.strategy)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert out[0] == text
        assert out[1] == f"strategy v1\nat {big[0]} choose {big[3]} prob 1\n"
        assert peak < 1 << 20


class TestSplitGamePostOrder:
    def test_each_node_once_children_first(self):
        # The study's 4-card flat hands 0, 10, ..., 470: extraction splits
        # a shared node on most of them.
        split = 0
        for seed in range(0, 480, 10):
            dag = build_dag(deal(OhohConfig(4, "flat"), seed), OhohConfig(4, "flat"))
            set_map = compute_ups_all(dag)
            target = select_optimal(set_map.by_node[dag.root], "social")
            game = extract(dag, set_map, dag.root, target).game
            if game is dag:
                continue
            split += 1
            order = list(game.post_order())
            assert sorted(order) == sorted([*game.children, *game.leaf])
            assert order[-1] == game.root
            seen = set()
            for nid in order:
                assert seen.issuperset(game.children.get(nid, ()))
                seen.add(nid)
        assert split > 20
