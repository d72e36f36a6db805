import random
from fractions import Fraction

import pytest

from nashtree.gametree import binarize, is_equilibrium, parse_game_tree
from nashtree.oracle import (
    _promote_child,
    brute_contains,
    cross_validate,
    enumerate_pure_spe,
    random_tree,
    sample_ups_points,
)
from nashtree.solver import compute_ups_all
from nashtree.ups import PayoffGrid, saturate, singleton_ups, ups_from_flags

from .helpers import (
    MIXING_SEARCH_TIE_BIAS,
    MIXING_SEARCH_VALUES,
    Internal,
    Leaf,
    choices_of,
    nodes_of,
    pv,
    reference_pure_spe,
)


def _reference_corpus():
    """Criterion 4's m-ary trees raw and binarized, criterion 2's binary
    trees, and tie-biased m-ary trees."""
    for seed in range(200):
        rng = random.Random(seed)
        tree = random_tree(rng, rng.randint(1, 8), (0, 1, 2, 3), max_arity=4)
        yield tree
        yield binarize(tree)
    for seed in range(500):
        rng = random.Random(seed)
        yield random_tree(rng, rng.randint(1, 10), (0, 1, 2, 3))
    rng = random.Random(83)
    for _ in range(300):
        yield random_tree(
            rng,
            rng.randint(1, 6),
            MIXING_SEARCH_VALUES,
            max_arity=4,
            tie_bias=MIXING_SEARCH_TIE_BIAS,
        )


class TestEnumeratePureSpe:
    def test_demo_tree(self, demo_tree):
        pure = enumerate_pure_spe(demo_tree)
        assert set(pure) == {pv(1000, 4), pv(2, 100)}
        for value, witness in pure.items():
            assert witness.is_pure()
            assert is_equilibrium(demo_tree, witness).ok

    def test_single_leaf(self):
        tree = parse_game_tree("gtree v1\nroot 1\nleaf 1 payoff 5 5\n")
        assert set(enumerate_pure_spe(tree)) == {pv(5, 5)}

    def test_cap_enforced(self):
        rng = random.Random(0)
        tree = random_tree(rng, 12)
        with pytest.raises(ValueError, match="pure strategies"):
            enumerate_pure_spe(tree, cap=100)

    def test_every_value_is_an_equilibrium_value(self):
        rng = random.Random(5)
        for _ in range(20):
            tree = random_tree(rng, rng.randint(1, 7))
            for value, witness in enumerate_pure_spe(tree).items():
                from nashtree.gametree import evaluate

                assert evaluate(tree, witness)[tree.root] == value

    def test_matches_whole_tree_scan(self):
        checked = 0
        for tree in _reference_corpus():
            try:
                want = set(reference_pure_spe(tree, cap=1 << 12))
            except ValueError:  # too many strategies for the scan
                continue
            checked += 1
            pure = enumerate_pure_spe(tree)
            assert set(pure) == want
            internals = set(tree.internal_ids())
            for value, witness in pure.items():
                assert witness.is_pure() and set(choices_of(witness)) == internals
                check = is_equilibrium(tree, witness)
                assert check.ok and check.value == value
        assert checked > 1000


class TestSamplePoints:
    def test_singleton_yields_single_point(self):
        grid = PayoffGrid((Fraction(1),), (Fraction(2),))
        points = sample_ups_points(singleton_ups(grid, pv(1, 2)), per_element=5, seed=0)
        assert points == [pv(1, 2)]

    def test_segment_endpoints_plus_interior(self):
        grid = PayoffGrid((Fraction(2),), (Fraction(3), Fraction(100)))
        segment = saturate(ups_from_flags(grid, [("L2", 0, 0)]))
        points = sample_ups_points(segment, per_element=2, seed=7)
        assert pv(2, 3) in points and pv(2, 100) in points
        interior = [p for p in points if p.p2 not in (3, 100)]
        assert len(interior) == 2
        for p in interior:
            assert p.p1 == 2 and 3 < p.p2 < 100

    def test_deterministic_for_seed(self, demo_tree):
        root = compute_ups_all(demo_tree).by_node[demo_tree.root]
        assert sample_ups_points(root, 3, seed=42) == sample_ups_points(root, 3, seed=42)
        assert sample_ups_points(root, 3, seed=42) != sample_ups_points(root, 3, seed=43)


class TestBruteContains:
    def test_unsaturated_geometry(self):
        grid = PayoffGrid((Fraction(0), Fraction(2)), (Fraction(0), Fraction(2)))
        cell_only = ups_from_flags(grid, [("D", 0, 0)])
        assert brute_contains(cell_only, pv(1, 1))
        assert brute_contains(cell_only, pv(0, 0))
        assert not brute_contains(cell_only, pv(3, 0))


class TestCrossValidate:
    def test_demo_passes(self, demo_tree):
        report = cross_validate(demo_tree, seed=0)
        assert report.passed
        assert report.pure_values == (pv(2, 100), pv(1000, 4))
        assert report.shrunk is None

    def test_mixing_tree_passes(self, mixing_tree):
        assert cross_validate(mixing_tree, seed=1).passed

    def test_batch_of_random_trees(self):
        rng = random.Random(71)
        for _ in range(40):
            tree = random_tree(rng, rng.randint(1, 8))
            assert cross_validate(tree, seed=3, shrink=False).passed

    def test_mary_trees_pass(self):
        rng = random.Random(73)
        for _ in range(15):
            tree = random_tree(rng, rng.randint(1, 6), max_arity=4)
            assert cross_validate(tree, seed=4, shrink=False).passed


class TestRandomTrees:
    def test_internal_count_and_arity(self):
        rng = random.Random(79)
        for _ in range(30):
            n = rng.randint(1, 9)
            arity = rng.choice((2, 3, 4))
            tree = random_tree(rng, n, max_arity=arity)
            internals = [x for x in nodes_of(tree).values() if isinstance(x, Internal)]
            assert len(internals) == n
            assert all(2 <= len(x.children) <= arity for x in internals)

    def test_deterministic_given_seed(self):
        a = random_tree(random.Random(11), 6)
        b = random_tree(random.Random(11), 6)
        assert a == b

    def test_tie_bias_reuses_values(self):
        rng = random.Random(13)
        tree = random_tree(rng, 12, (0, 1, 2, 3, 4, 5, 6, 7, 8, 9), tie_bias=0.9)
        p1_values = [n.payoff.p1 for n in nodes_of(tree).values() if isinstance(n, Leaf)]
        assert len(set(p1_values)) < len(p1_values)


class TestShrinkSurgery:
    def test_promote_child_replaces_subtree(self, demo_tree):
        shrunk = _promote_child(demo_tree, 2, 5)
        assert nodes_of(shrunk)[1] == Internal(2, (5, 3))
        assert set(nodes_of(shrunk)) == {1, 3, 5}

    def test_promote_root_child(self, demo_tree):
        shrunk = _promote_child(demo_tree, 1, 2)
        assert shrunk.root == 2
        assert set(nodes_of(shrunk)) == {2, 4, 5}

    def test_failures_shrink_to_a_minimal_tree(self, demo_tree, monkeypatch):
        # Inject a fake failure that persists while the (2,100) leaf exists;
        # the shrinker should strip everything else away.
        import nashtree.oracle as oracle_module

        real_checks = oracle_module._run_checks

        def fake_checks(tree, seed, samples):
            report = real_checks(tree, seed, samples)
            poisoned = any(
                isinstance(n, Leaf) and n.payoff == pv(2, 100)
                for n in nodes_of(tree).values()
            )
            if poisoned:
                report.containment_ok = False
            return report

        monkeypatch.setattr(oracle_module, "_run_checks", fake_checks)
        report = cross_validate(demo_tree, seed=0)
        assert not report.passed
        assert report.shrunk == "gtree v1\nroot 5\nleaf 5 payoff 2 100\n"
