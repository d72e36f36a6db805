import random
from fractions import Fraction

import pytest

from nashtree.gametree import (
    GtreeParseError,
    MissingStrategyError,
    PayoffVector,
    Strategy,
    binarize,
    check_strategy,
    evaluate,
    is_equilibrium,
    parse_game_tree,
    parse_strategy,
    serialize_game_tree,
    serialize_strategy,
    validate,
)
from nashtree.oracle import random_tree

from .helpers import Internal, Leaf, choices_of, game_tree, nodes_of, pv, strategy_of

HALF = Fraction(1, 2)


class TestParseGameTree:
    def test_demo_file(self, demo_tree):
        assert len(demo_tree) == 5
        assert demo_tree.root == 1
        assert nodes_of(demo_tree)[1] == Internal(2, (2, 3))
        assert nodes_of(demo_tree)[2] == Internal(1, (4, 5))
        assert nodes_of(demo_tree)[4] == Leaf(pv(2, 3))
        assert nodes_of(demo_tree)[5] == Leaf(pv(2, 100))
        assert nodes_of(demo_tree)[3] == Leaf(pv(1000, 4))

    def test_single_leaf(self):
        tree = parse_game_tree("gtree v1\nleaf 1 payoff 0 0\nroot 1\n")
        assert len(tree) == 1
        assert nodes_of(tree)[1] == Leaf(pv(0, 0))

    def test_dangling_child(self):
        text = "gtree v1\nroot 1\nnode 1 player 1 children 2 3\nleaf 2 payoff 0 0\n"
        with pytest.raises(GtreeParseError, match="undeclared child 3"):
            parse_game_tree(text)

    def test_syntax_error_reports_line_and_column(self):
        cases = [
            ("gtree v1\nroot 1\nnode 1 player 7 children 2 3\n", 3, 15),
            # Only ASCII digits are numbers: a superscript two, an id with
            # more digits than int() converts, and an Arabic-Indic three.
            ("gtree v1\nroot 1\nnode 1 player 1 children 2 ²\nleaf 2 payoff 0 0\n", 3, 28),
            ("gtree v1\nroot " + "1" * 5000 + "\nleaf 1 payoff 0 0\n", 2, 6),
            ("gtree v1\nroot 1\nleaf 1 payoff ٣ 0\n", 3, 15),
        ]
        for text, line, column in cases:
            with pytest.raises(GtreeParseError) as err:
                parse_game_tree(text)
            assert (err.value.line, err.value.column) == (line, column)

    def test_duplicate_id(self):
        text = (
            "gtree v1\nroot 1\nnode 1 player 1 children 2 3\n"
            "leaf 2 payoff 0 0\nleaf 3 payoff 0 0\nleaf 2 payoff 1 1\n"
        )
        with pytest.raises(GtreeParseError, match="duplicate id 2"):
            parse_game_tree(text)

    def test_missing_root(self):
        with pytest.raises(GtreeParseError, match="missing root"):
            parse_game_tree("gtree v1\nleaf 1 payoff 0 0\n")

    def test_duplicate_root(self):
        with pytest.raises(GtreeParseError, match="duplicate root"):
            parse_game_tree("gtree v1\nroot 1\nroot 1\nleaf 1 payoff 0 0\n")

    def test_missing_header(self):
        with pytest.raises(GtreeParseError, match="gtree v1"):
            parse_game_tree("root 1\nleaf 1 payoff 0 0\n")

    def test_cycle_detected(self):
        text = (
            "gtree v1\nroot 1\nnode 1 player 1 children 2 3\n"
            "node 2 player 2 children 1 3\nleaf 3 payoff 0 0\n"
        )
        with pytest.raises(GtreeParseError, match="cycle"):
            parse_game_tree(text)

    def test_shared_child_rejected(self):
        text = (
            "gtree v1\nroot 1\nnode 1 player 1 children 2 3\n"
            "node 2 player 2 children 4 5\nnode 3 player 2 children 4 6\n"
            "leaf 4 payoff 0 0\nleaf 5 payoff 1 1\nleaf 6 payoff 2 2\n"
        )
        with pytest.raises(GtreeParseError, match="multiple parents"):
            parse_game_tree(text)

    def test_rational_payoffs_and_comments(self):
        text = (
            "gtree v1  # header\n\n# a comment line\nroot 1\n"
            "leaf 1 payoff -3/2 7/3\n"
        )
        tree = parse_game_tree(text)
        assert nodes_of(tree)[1] == Leaf(PayoffVector(Fraction(-3, 2), Fraction(7, 3)))

    def test_single_child_node_is_accepted(self):
        # Forced moves parse; validate() still reports them.
        text = "gtree v1\nroot 1\nnode 1 player 1 children 2\nleaf 2 payoff 0 0\n"
        tree = parse_game_tree(text)
        assert validate(tree) == ["internal node 1 arity < 2"]


class TestSerializeGameTree:
    def test_round_trip_identity(self, demo_tree):
        assert parse_game_tree(serialize_game_tree(demo_tree)) == demo_tree

    def test_canonicalizes_declaration_order(self, demo_tree):
        shuffled = (
            "gtree v1\nleaf 5 payoff 2 100\nnode 2 player 1 children 4 5\n"
            "leaf 3 payoff 1000 4\nroot 1\nleaf 4 payoff 2 3\n"
            "node 1 player 2 children 2 3\n"
        )
        assert serialize_game_tree(parse_game_tree(shuffled)) == serialize_game_tree(
            demo_tree
        )

    def test_serializes_reduced_rationals(self):
        tree = parse_game_tree("gtree v1\nroot 1\nleaf 1 payoff 4/2 -6/4\n")
        assert "leaf 1 payoff 2 -3/2" in serialize_game_tree(tree)

    def test_child_order_survives_round_trip(self):
        text = (
            "gtree v1\nroot 1\nnode 1 player 1 children 3 2\n"
            "leaf 2 payoff 0 0\nleaf 3 payoff 1 1\n"
        )
        out = serialize_game_tree(parse_game_tree(text))
        assert "node 1 player 1 children 3 2" in out
        assert serialize_game_tree(parse_game_tree(out)) == out


class TestValidate:
    def test_demo_tree_is_clean(self, demo_tree):
        assert validate(demo_tree) == []

    def test_two_rootlike_components(self):
        nodes = {
            1: Internal(1, (2, 3)),
            2: Leaf(pv(0, 0)),
            3: Leaf(pv(1, 1)),
            4: Internal(2, (5, 6)),
            5: Leaf(pv(0, 1)),
            6: Leaf(pv(1, 0)),
        }
        report = validate(game_tree(1, nodes))
        assert any("unreachable" in v for v in report)

    def test_undeclared_root(self):
        report = validate(game_tree(9, {1: Leaf(pv(0, 0))}))
        assert report == ["root 9 is not a declared node"]

    def test_root_with_parent_is_a_cycle(self):
        nodes = {1: Internal(1, (2, 3)), 2: Internal(2, (1, 3)), 3: Leaf(pv(0, 0))}
        report = validate(game_tree(1, nodes))
        assert any("cycle" in v for v in report)
        assert any("multiple parents" in v or "root 1 has a parent" in v for v in report)


class TestBinarize:
    def test_three_children_become_chain_of_two(self):
        nodes = {
            1: Internal(2, (2, 3, 4)),
            2: Leaf(pv(1, 0)),
            3: Leaf(pv(2, 0)),
            4: Leaf(pv(3, 0)),
        }
        out = binarize(game_tree(1, nodes))
        assert nodes_of(out)[1] == Internal(2, (2, 5))
        assert nodes_of(out)[5] == Internal(2, (3, 4))
        assert out.is_binary()
        assert len(out.internal_ids()) == 2

    def test_four_children_become_chain_of_three(self):
        nodes = {1: Internal(1, (2, 3, 4, 5))} | {
            i: Leaf(pv(i, 0)) for i in (2, 3, 4, 5)
        }
        out = binarize(game_tree(1, nodes))
        assert nodes_of(out)[1] == Internal(1, (2, 6))
        assert nodes_of(out)[6] == Internal(1, (3, 7))
        assert nodes_of(out)[7] == Internal(1, (4, 5))

    def test_already_binary_unchanged(self, demo_tree):
        assert binarize(demo_tree) == demo_tree

    def test_single_child_nodes_spliced(self):
        nodes = {
            1: Internal(1, (2, 3)),
            2: Internal(2, (4,)),
            4: Internal(2, (5,)),
            5: Leaf(pv(7, 7)),
            3: Leaf(pv(0, 0)),
        }
        out = binarize(game_tree(1, nodes))
        assert nodes_of(out)[1] == Internal(1, (5, 3))
        assert set(nodes_of(out)) == {1, 3, 5}

    def test_forced_root_spliced(self):
        nodes = {1: Internal(1, (2,)), 2: Leaf(pv(3, 4))}
        out = binarize(game_tree(1, nodes))
        assert out.root == 2
        assert nodes_of(out) == {2: Leaf(pv(3, 4))}

    def test_leaves_preserved_on_random_mary_trees(self):
        for seed in range(30):
            rng = random.Random(seed)
            tree = random_tree(rng, rng.randint(1, 7), max_arity=4)
            out = binarize(tree)
            assert out.is_binary()
            assert validate(out) == []
            before = sorted(
                (n.payoff.p1, n.payoff.p2)
                for n in nodes_of(tree).values()
                if isinstance(n, Leaf)
            )
            after = sorted(
                (n.payoff.p1, n.payoff.p2)
                for n in nodes_of(out).values()
                if isinstance(n, Leaf)
            )
            assert before == after


def _mixed_strategy(node1_p2: Fraction, node2_p5: Fraction) -> Strategy:
    return strategy_of(
        {
            1: ((2, node1_p2), (3, 1 - node1_p2)),
            2: ((4, 1 - node2_p5), (5, node2_p5)),
        }
    )


class TestEvaluate:
    def test_half_half_value(self, demo_tree):
        values = evaluate(demo_tree, _mixed_strategy(HALF, Fraction(1)))
        assert values[demo_tree.root] == pv(501, 52)

    def test_leaves_evaluate_to_their_payoffs(self, demo_tree):
        values = evaluate(demo_tree, _mixed_strategy(HALF, HALF))
        for nid in (3, 4, 5):
            assert values[nid] == nodes_of(demo_tree)[nid].payoff

    def test_pure_commitment_value(self, demo_tree):
        values = evaluate(demo_tree, Strategy({1: 3, 2: 4}))
        assert values[demo_tree.root] == pv(1000, 4)

    def test_missing_entry_raises(self, demo_tree):
        with pytest.raises(MissingStrategyError):
            evaluate(demo_tree, strategy_of({1: ((2, Fraction(1)),)}))

    def test_non_child_raises(self, demo_tree):
        bad = strategy_of({1: ((4, Fraction(1)),), 2: ((4, Fraction(1)),)})
        with pytest.raises(ValueError, match="non-child"):
            evaluate(demo_tree, bad)

    def test_value_is_linear_in_one_node_distribution(self):
        # Replacing the distribution at a single node by a convex combination
        # combines the values the same way, at that node and at the root.
        rng = random.Random(7)
        for _ in range(25):
            tree = random_tree(rng, rng.randint(1, 8))
            base = _random_strategy(rng, tree)
            nid = rng.choice(tree.internal_ids())
            alt_a = dict(choices_of(base))
            alt_b = dict(choices_of(base))
            alt_a[nid] = _random_distribution(rng, tree.children[nid])
            alt_b[nid] = _random_distribution(rng, tree.children[nid])
            lam = Fraction(rng.randint(0, 5), 5)
            mixed = dict(choices_of(base))
            probs_a = dict(alt_a[nid])
            probs_b = dict(alt_b[nid])
            mixed[nid] = tuple(
                (c, lam * probs_a.get(c, Fraction(0)) + (1 - lam) * probs_b.get(c, Fraction(0)))
                for c in tree.children[nid]
            )
            va = evaluate(tree, strategy_of(alt_a))
            vb = evaluate(tree, strategy_of(alt_b))
            vm = evaluate(tree, strategy_of(mixed))
            for probe in (nid, tree.root):
                assert vm[probe].p1 == lam * va[probe].p1 + (1 - lam) * vb[probe].p1
                assert vm[probe].p2 == lam * va[probe].p2 + (1 - lam) * vb[probe].p2

    def test_pure_strategy_value_is_reached_leaf_payoff(self):
        rng = random.Random(11)
        for _ in range(25):
            tree = random_tree(rng, rng.randint(1, 8))
            choice = {nid: rng.choice(tree.children[nid]) for nid in tree.internal_ids()}
            values = evaluate(tree, Strategy(choice))
            nid = tree.root
            while nid in tree.children:
                nid = choice[nid]
            assert values[tree.root] == nodes_of(tree)[nid].payoff


def _random_distribution(rng, children):
    weights = [rng.randint(0, 3) for _ in children]
    if sum(weights) == 0:
        weights[rng.randrange(len(children))] = 1
    total = sum(weights)
    return tuple((c, Fraction(w, total)) for c, w in zip(children, weights))


def _random_strategy(rng, tree) -> Strategy:
    return strategy_of(
        {nid: _random_distribution(rng, tree.children[nid]) for nid in tree.internal_ids()}
    )


def _recheck_local_optimality(tree, strategy):
    # Independent re-derivation of the equilibrium condition, kept separate
    # from is_equilibrium on purpose.
    nodes = nodes_of(tree)

    def value(nid):
        node = nodes[nid]
        if isinstance(node, Leaf):
            return (node.payoff.p1, node.payoff.p2)
        total = (Fraction(0), Fraction(0))
        for child, prob in choices_of(strategy)[nid]:
            v = value(child)
            total = (total[0] + prob * v[0], total[1] + prob * v[1])
        return total

    for nid in tree.internal_ids():
        node = nodes[nid]
        own = value(nid)[node.controller - 1]
        for child in node.children:
            if value(child)[node.controller - 1] > own:
                return False
    return True


class TestIsEquilibrium:
    def test_committed_strategy_is_equilibrium(self, demo_tree):
        check = is_equilibrium(demo_tree, Strategy({1: 2, 2: 5}))
        assert check.ok and check.witness is None
        assert check.value == pv(2, 100)

    def test_root_mixing_without_indifference_fails(self, demo_tree):
        strategy = _mixed_strategy(HALF, Fraction(1))
        check = is_equilibrium(demo_tree, strategy)
        assert not check.ok
        assert check.witness == 1
        assert check.value == evaluate(demo_tree, strategy)[1]

    def test_indifferent_mixing_below_is_equilibrium(self, demo_tree):
        strategy = strategy_of(
            {1: ((2, Fraction(1)),), 2: ((4, HALF), (5, HALF))}
        )
        assert is_equilibrium(demo_tree, strategy).ok

    def test_agrees_with_independent_recheck(self):
        rng = random.Random(23)
        for _ in range(60):
            tree = random_tree(rng, rng.randint(1, 6))
            strategy = _random_strategy(rng, tree)
            assert is_equilibrium(tree, strategy).ok == _recheck_local_optimality(
                tree, strategy
            )

    def test_witness_is_the_first_violation_in_post_order(self):
        rng = random.Random(29)
        witnessed = 0
        for _ in range(200):
            tree = random_tree(rng, rng.randint(1, 12), max_arity=4)
            strategy = _random_strategy(rng, tree)
            values = evaluate(tree, strategy)
            expected = next(
                (
                    nid
                    for nid in tree.internal_ids()
                    if any(
                        values[c].component(tree.controller[nid])
                        > values[nid].component(tree.controller[nid])
                        for c in tree.children[nid]
                    )
                ),
                None,
            )
            check = is_equilibrium(tree, strategy)
            assert (check.ok, check.witness) == (expected is None, expected)
            assert check.value == values[tree.root]
            witnessed += expected is not None
        assert 50 < witnessed < 200


class TestStrategyFormat:
    def test_round_trip(self):
        text = "strategy v1\nat 1 choose 2 prob 1\nat 2 choose 4 prob 48/97 5 prob 49/97\n"
        strategy = parse_strategy(text)
        assert choices_of(strategy)[2] == (
            (4, Fraction(48, 97)),
            (5, Fraction(49, 97)),
        )
        assert serialize_strategy(strategy) == text

    def test_zero_probabilities_omitted_on_output(self):
        strategy = strategy_of({1: ((2, Fraction(0)), (3, Fraction(1)))})
        assert serialize_strategy(strategy) == "strategy v1\nat 1 choose 3 prob 1\n"

    def test_children_sorted_on_output(self):
        strategy = strategy_of({1: ((5, HALF), (2, HALF))})
        assert "choose 2 prob 1/2 5 prob 1/2" in serialize_strategy(strategy)

    def test_matches_entry_by_entry_formatting(self):
        # Shared and equal-but-distinct probability objects, single zero
        # entries and unsorted children, against a line-by-line rendering.
        rng = random.Random(31)
        pool = [Fraction(0), Fraction(1), HALF, Fraction(2, 3), Fraction(-1, 4)]
        choices = {}
        for nid in rng.sample(range(1, 400), 200):
            kids = rng.sample(range(1, 50), rng.choice([1, 1, 2, 3]))
            choices[nid] = tuple(
                (c, rng.choice(pool) if rng.random() < 0.7 else Fraction(rng.randint(0, 3), 3))
                for c in kids
            )
        expected = ["strategy v1"] + [
            f"at {nid} choose "
            + " ".join(f"{c} prob {p}" for c, p in sorted(choices[nid]) if p != 0)
            for nid in sorted(choices)
        ]
        assert serialize_strategy(strategy_of(choices)) == "\n".join(expected) + "\n"

    def test_duplicate_at_rejected(self):
        text = "strategy v1\nat 1 choose 2 prob 1\nat 1 choose 3 prob 1\n"
        with pytest.raises(GtreeParseError, match="duplicate"):
            parse_strategy(text)

    def test_incomplete_group_rejected(self):
        with pytest.raises(GtreeParseError):
            parse_strategy("strategy v1\nat 1 choose 2 prob\n")

    def test_check_strategy_reports_problems(self, demo_tree):
        missing = strategy_of({1: ((2, Fraction(1)),)})
        assert check_strategy(demo_tree, missing) == ["no entry for internal node 2"]
        bad_sum = strategy_of(
            {1: ((2, HALF),), 2: ((4, Fraction(1)),)}
        )
        assert any("sum to 1/2" in p for p in check_strategy(demo_tree, bad_sum))
        stranger = strategy_of(
            {1: ((3, Fraction(1)),), 2: ((3, Fraction(1)),)}
        )
        assert any("not a child" in p for p in check_strategy(demo_tree, stranger))

    def test_purity_predicate(self):
        assert Strategy({1: 2}).is_pure()
        assert not strategy_of({1: ((2, HALF), (3, HALF))}).is_pure()
