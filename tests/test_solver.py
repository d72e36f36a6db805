import dataclasses
import random
import time
import tracemalloc
from fractions import Fraction

import pytest

from nashtree.gametree import (
    GameTree,
    binarize,
    check_strategy,
    evaluate,
    is_equilibrium,
    parse_game_tree,
)
from nashtree.ohoh import OhohConfig, build_tree, deal
from nashtree import solver
from nashtree.oracle import enumerate_pure_spe, random_tree, sample_ups_points
from nashtree.solver import (
    CRITERIA,
    AlgebraInconsistencyError,
    TargetNotInUpsError,
    any_nash,
    best_deterministic_nash,
    best_nash,
    compute_det_ups_all,
    compute_ups_all,
    criterion_value,
    extract,
    extract_strategy,
    select_optimal,
)
from nashtree.ups import (
    PayoffGrid,
    contains,
    iter_flags,
    singleton_ups,
    ups_from_flags,
)

from .helpers import (
    Leaf,
    _distinct_payoff_chain,
    choices_of,
    empty_ups,
    equal_ups,
    game_tree,
    nodes_of,
    pv,
)


class TestAnyNash:
    def test_demo_trace_with_leftmost_ties(self, demo_tree):
        result = any_nash(demo_tree)
        # Player 1 ties at the lower node and takes the left child; player 2
        # then prefers the 4-payoff branch.
        assert choices_of(result.strategy)[2] == ((4, Fraction(1)),)
        assert choices_of(result.strategy)[1] == ((3, Fraction(1)),)
        assert result.value == pv(1000, 4)
        assert is_equilibrium(demo_tree, result.strategy).ok

    def test_strict_preferences_match_oracle(self):
        rng = random.Random(2)
        for _ in range(20):
            n = rng.randint(1, 7)
            # Distinct payoff components per player make every comparison strict.
            p1s = rng.sample(range(100), n + 1)
            p2s = rng.sample(range(100), n + 1)
            tree = random_tree(rng, n)
            leaves = tree.leaf_ids()
            nodes = dict(nodes_of(tree))
            for leaf_id, a, b in zip(leaves, p1s, p2s):
                nodes[leaf_id] = Leaf(pv(a, b))
            tree = game_tree(tree.root, nodes)
            pure = enumerate_pure_spe(tree)
            assert len(pure) == 1
            assert any_nash(tree).value in pure

    def test_single_leaf(self):
        tree = parse_game_tree("gtree v1\nroot 1\nleaf 1 payoff 3 -1/2\n")
        result = any_nash(tree)
        assert result.value == pv(3, Fraction(-1, 2))
        assert choices_of(result.strategy) == {}


class TestComputeSets:
    def test_demo_per_node_sets(self, demo_tree):
        smap = compute_ups_all(demo_tree)
        assert sorted(iter_flags(smap.by_node[2])) == sorted(
            [("P", 0, 0), ("P", 0, 1), ("P", 0, 2), ("L2", 0, 0), ("L2", 0, 1)]
        )
        assert sorted(iter_flags(smap.by_node[3])) == [("P", 1, 1)]
        assert sorted(iter_flags(smap.by_node[1])) == sorted(
            [("P", 0, 1), ("P", 0, 2), ("L2", 0, 1), ("P", 1, 1), ("L1", 0, 1)]
        )

    def test_single_leaf_map(self):
        tree = parse_game_tree("gtree v1\nroot 1\nleaf 1 payoff 0 0\n")
        smap = compute_ups_all(tree)
        assert sorted(iter_flags(smap.by_node[1])) == [("P", 0, 0)]
        assert smap.merges == 0

    def test_one_merge_per_internal_node(self, demo_tree):
        for compute in (compute_ups_all, compute_det_ups_all):
            smap = compute(demo_tree)
            assert smap.merges == len(demo_tree.internal_ids())

    def test_mary_trees_match_binarized(self):
        # m-ary nodes fold in binarize's chain order and single-child nodes
        # pass their set through, so the m-ary tree does the binarized
        # tree's merges exactly.
        forced_root = parse_game_tree(
            "gtree v1\nroot 1\nnode 1 player 2 children 2\n"
            "node 2 player 1 children 3 4 5\nnode 4 player 2 children 6\n"
            "leaf 3 payoff 0 2\nleaf 5 payoff 2 0\nleaf 6 payoff 1 1\n"
        )
        rng = random.Random(61)
        trees = [forced_root]
        trees += [
            random_tree(rng, rng.randint(1, 8), max_arity=4, tie_bias=0.5)
            for _ in range(40)
        ]
        config = OhohConfig(3, "flat")
        trees += [build_tree(deal(config, seed), config) for seed in range(3)]
        for tree in trees:
            binar = binarize(tree)
            for compute in (compute_ups_all, compute_det_ups_all):
                got, want = compute(tree), compute(binar)
                assert equal_ups(got.by_node[tree.root], want.by_node[binar.root])
                assert got.merges == len(binar.internal_ids())
                assert got.distinct_merges == want.distinct_merges
                assert got.flag_ops == want.flag_ops

    def test_pure_values_always_contained(self):
        rng = random.Random(31)
        for _ in range(40):
            tree = random_tree(rng, rng.randint(1, 8))
            smap = compute_ups_all(tree)
            root = smap.by_node[tree.root]
            for value in enumerate_pure_spe(tree):
                assert contains(root, value)
            assert contains(root, any_nash(tree).value)

    def test_wide_all_distinct_chain_stays_small(self):
        # Every set of an all-distinct chain is one point: it holds no flag
        # int of the 2000 x 2000 grid, and its merges and floors build no
        # lane masks (534 MB traced peak when every point held its flags).
        tree = parse_game_tree(_distinct_payoff_chain(2000))
        tracemalloc.start()
        try:
            t0 = time.perf_counter()
            smap = compute_ups_all(tree)
            value = select_optimal(smap.by_node[tree.root], "social")
            found = extract(tree, smap, tree.root, value)
            elapsed = time.perf_counter() - t0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20 and elapsed < 2.0
        assert "lanes" not in smap.grid.__dict__
        assert evaluate(tree, found.strategy)[tree.root] == value


class TestSelectOptimal:
    def test_demo_all_criteria(self, demo_tree):
        root = compute_ups_all(demo_tree).by_node[demo_tree.root]
        assert select_optimal(root, "social") == pv(1000, 4)
        assert select_optimal(root, "fair") == pv(1000, 4)
        assert select_optimal(root, "max") == pv(1000, 4)
        assert select_optimal(root, "best1") == pv(1000, 4)
        assert select_optimal(root, "best2") == pv(2, 100)

    def test_singleton_returns_its_point(self):
        grid = PayoffGrid((Fraction(7),), (Fraction(-2),))
        point = singleton_ups(grid, pv(7, -2))
        for criterion in CRITERIA:
            assert select_optimal(point, criterion) == pv(7, -2)

    def test_tie_break_prefers_larger_p1_then_p2(self):
        grid = PayoffGrid(
            (Fraction(0), Fraction(2), Fraction(4)),
            (Fraction(0), Fraction(2), Fraction(4)),
        )
        a = ups_from_flags(grid, [("P", 0, 2), ("P", 2, 0), ("P", 1, 1)])
        assert select_optimal(a, "social") == pv(4, 0)

    def test_empty_and_unknown_criterion(self, demo_tree):
        root = compute_ups_all(demo_tree).by_node[demo_tree.root]
        with pytest.raises(ValueError):
            select_optimal(empty_ups(root.grid), "social")
        with pytest.raises(ValueError, match="criterion"):
            select_optimal(root, "bogus")

    def test_criterion_values(self):
        v = pv(3, -5)
        assert criterion_value("social", v) == -2
        assert criterion_value("fair", v) == -5
        assert criterion_value("max", v) == 3
        assert criterion_value("best1", v) == 3
        assert criterion_value("best2", v) == -5


class TestExtractStrategy:
    def test_committed_target_with_punishment(self, demo_tree):
        smap = compute_ups_all(demo_tree)
        strategy = extract_strategy(demo_tree, smap, demo_tree.root, pv(1000, 4))
        assert choices_of(strategy)[1] == ((3, Fraction(1)),)
        # The unchosen subtree is pinned to its worst point for player 2.
        assert choices_of(strategy)[2] == ((4, Fraction(1)),)
        assert is_equilibrium(demo_tree, strategy).ok
        assert evaluate(demo_tree, strategy)[1] == pv(1000, 4)

    def test_mixed_target_solves_for_lambda(self, demo_tree):
        smap = compute_ups_all(demo_tree)
        strategy = extract_strategy(demo_tree, smap, demo_tree.root, pv(2, 52))
        assert choices_of(strategy)[1] == ((2, Fraction(1)),)
        assert choices_of(strategy)[2] == ((4, Fraction(48, 97)), (5, Fraction(49, 97)))
        assert is_equilibrium(demo_tree, strategy).ok
        assert evaluate(demo_tree, strategy)[1] == pv(2, 52)

    def test_target_outside_set_rejected(self, demo_tree):
        smap = compute_ups_all(demo_tree)
        with pytest.raises(TargetNotInUpsError):
            extract_strategy(demo_tree, smap, demo_tree.root, pv(0, 0))

    def test_root_set_the_children_cannot_produce_is_an_algebra_fault(self, demo_tree):
        # The target passes the start node's membership check, so a link
        # where no case applies is a fault of the sets, not of the target.
        smap = compute_ups_all(demo_tree)
        target = pv(1000, 100)
        assert not contains(smap.by_node[demo_tree.root], target)
        forged = dataclasses.replace(
            smap, by_node={**smap.by_node, demo_tree.root: singleton_ups(smap.grid, target)}
        )
        with pytest.raises(AlgebraInconsistencyError):
            extract(demo_tree, forged, demo_tree.root, target)

    def test_mixing_steps_bracket_a_target_in_neither_child(self, monkeypatch):
        # A link mixes only when neither commit applies: then the target is
        # in neither child's set, and the two section points it mixes lie
        # strictly on either side of the other player's target value.
        mixes = []
        real_step = solver._extraction_step

        def recorded_step(grid, has, floor, x, ul, ur, want, nid):
            step = real_step(grid, has, floor, x, ul, ur, want, nid)
            if isinstance(step[0], tuple):
                mixes.append((x, ul, ur, want, step))
            return step

        monkeypatch.setattr(solver, "_extraction_step", recorded_step)
        rng = random.Random(22)
        for _ in range(150):
            tree = random_tree(
                rng, rng.randint(2, 9), (0, 1, 2, 3, 4, 5), max_arity=4, tie_bias=0.6
            )
            smap = compute_ups_all(tree)
            for target in sample_ups_points(smap.by_node[tree.root], per_element=2, seed=3):
                extract(tree, smap, tree.root, target)
        assert len(mixes) > 100
        for x, ul, ur, want, (probs, want_left, want_right) in mixes:
            assert not contains(ul, want) and not contains(ur, want)
            w, ys, yt = (v.component(3 - x) for v in (want, want_left, want_right))
            assert min(ys, yt) < w < max(ys, yt)
            assert want_left.component(x) == want_right.component(x) == want.component(x)
            assert 0 < probs[0] < 1 and probs[0] + probs[1] == 1

    def test_every_sampled_point_extracts_exactly(self, demo_tree):
        smap = compute_ups_all(demo_tree)
        root = smap.by_node[demo_tree.root]
        for target in sample_ups_points(root, per_element=3, seed=1):
            strategy = extract_strategy(demo_tree, smap, demo_tree.root, target)
            assert is_equilibrium(demo_tree, strategy).ok
            assert evaluate(demo_tree, strategy)[demo_tree.root] == target

    def test_subtree_extraction(self, demo_tree):
        smap = compute_ups_all(demo_tree)
        strategy = extract_strategy(demo_tree, smap, 2, pv(2, 3))
        assert choices_of(strategy) == {2: ((4, Fraction(1)),)}

    def test_extraction_at_inner_mary_node(self):
        rng = random.Random(67)
        config = OhohConfig(3, "flat")
        trees = [build_tree(deal(config, 0), config)]
        trees += [
            random_tree(rng, rng.randint(2, 8), max_arity=4, tie_bias=0.6)
            for _ in range(30)
        ]
        checked = 0
        for tree in trees:
            smap = compute_ups_all(tree)
            inner = [
                nid for nid in tree.internal_ids()
                if nid != tree.root and len(tree.children[nid]) >= 3
            ]
            for nid in inner[:3]:
                sub = _subtree(tree, nid)
                for target in sample_ups_points(smap.by_node[nid], per_element=2, seed=nid):
                    strategy = extract_strategy(tree, smap, nid, target)
                    assert choices_of(strategy).keys() == set(sub.internal_ids())
                    assert all(p > 0 for e in choices_of(strategy).values() for _, p in e)
                    assert check_strategy(sub, strategy) == []
                    assert is_equilibrium(sub, strategy).ok
                    assert evaluate(sub, strategy)[nid] == target
                    checked += 1
        assert checked > 100


def _subtree(tree: GameTree, nid: int) -> GameTree:
    nodes = {}
    tree_nodes = nodes_of(tree)
    stack = [nid]
    while stack:
        k = stack.pop()
        nodes[k] = tree_nodes[k]
        stack.extend(getattr(nodes[k], "children", ()))
    return game_tree(nid, nodes)


class TestBestNash:
    def test_demo_social_and_best2(self, demo_tree):
        social = best_nash(demo_tree, "social")
        assert social.value == pv(1000, 4)
        assert is_equilibrium(demo_tree, social.strategy).ok
        best2 = best_nash(demo_tree, "best2")
        assert best2.value == pv(2, 100)
        assert evaluate(demo_tree, best2.strategy)[demo_tree.root] == pv(2, 100)

    def test_result_invariants_on_random_trees(self):
        rng = random.Random(43)
        for _ in range(25):
            tree = random_tree(rng, rng.randint(1, 8))
            baseline = any_nash(tree)
            for criterion in CRITERIA:
                result = best_nash(tree, criterion)
                assert is_equilibrium(tree, result.strategy).ok
                assert evaluate(tree, result.strategy)[tree.root] == result.value
                assert contains(result.root_ups, result.value)
                assert criterion_value(criterion, result.value) >= criterion_value(
                    criterion, baseline.value
                )

    def test_equivalence_when_single_point(self):
        rng = random.Random(47)
        from nashtree.ups import is_single_point

        for _ in range(30):
            tree = random_tree(rng, rng.randint(1, 6))
            result = best_nash(tree, "social")
            if is_single_point(result.root_ups):
                assert result.value == any_nash(tree).value

    def test_mixing_required_fixture(self, mixing_tree):
        result = best_nash(mixing_tree, "social")
        assert result.value == pv(4, 5)
        assert any(
            0 < prob < 1 for entry in choices_of(result.strategy).values() for _, prob in entry
        )
        assert is_equilibrium(mixing_tree, result.strategy).ok
        best_pure_social = max(
            v.p1 + v.p2 for v in enumerate_pure_spe(mixing_tree)
        )
        assert result.value.p1 + result.value.p2 > best_pure_social

    def test_mary_tree_strategy_folds_back(self):
        rng = random.Random(53)
        for _ in range(20):
            tree = random_tree(rng, rng.randint(1, 6), max_arity=4)
            for criterion in ("social", "best2"):
                result = best_nash(tree, criterion)
                assert is_equilibrium(tree, result.strategy).ok
                assert evaluate(tree, result.strategy)[tree.root] == result.value
                binar = binarize(tree)
                direct = best_nash(binar, criterion)
                assert direct.value == result.value


class TestDeterministicVariant:
    def test_demo_det_root_set(self, demo_tree):
        det = compute_det_ups_all(demo_tree)
        assert sorted(iter_flags(det.by_node[demo_tree.root])) == sorted(
            [("P", 0, 2), ("P", 1, 1)]
        )

    def test_det_contained_in_full(self):
        rng = random.Random(59)
        for _ in range(60):
            tree = random_tree(rng, rng.randint(1, 8))
            full = compute_ups_all(tree).by_node[tree.root]
            det = compute_det_ups_all(tree).by_node[tree.root]
            assert det.l1 == det.l2 == det.d == 0
            assert det.p & ~full.p == 0

    def test_det_solver_never_mixes(self):
        rng = random.Random(61)
        for _ in range(25):
            tree = random_tree(rng, rng.randint(1, 8))
            for criterion in CRITERIA:
                result = best_deterministic_nash(tree, criterion)
                assert result.strategy.is_pure()
                assert is_equilibrium(tree, result.strategy).ok
                assert evaluate(tree, result.strategy)[tree.root] == result.value

    def test_det_equals_pure_enumeration(self):
        rng = random.Random(67)
        for _ in range(30):
            tree = random_tree(rng, rng.randint(1, 8))
            det = compute_det_ups_all(tree).by_node[tree.root]
            grid = det.grid
            det_points = {
                pv(grid.u1[i], grid.u2[j]) for _, i, j in iter_flags(det)
            }
            assert det_points == set(enumerate_pure_spe(tree))

    def test_mixing_tree_det_social_strictly_below_full(self, mixing_tree):
        full = best_nash(mixing_tree, "social")
        det = best_deterministic_nash(mixing_tree, "social")
        assert det.value == pv(4, 3)
        assert full.value.p1 + full.value.p2 > det.value.p1 + det.value.p2
