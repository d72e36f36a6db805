"""Acceptance suite: one test per criterion, each printing one PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`. Everything here is seeded
and deterministic except wall-clock measurements.
"""

import random
import time
from fractions import Fraction

import pytest

from nashtree.experiment import ExperimentConfig, run_experiment
from nashtree.gametree import binarize, evaluate, is_equilibrium
from nashtree.ohoh import OhohConfig, build_dag, build_tree, deal
from nashtree.oracle import (
    brute_merge,
    cross_validate,
    enumerate_pure_spe,
    random_tree,
)
from nashtree.solver import (
    CRITERIA,
    any_nash,
    best_nash,
    compute_det_ups_all,
    compute_ups_all,
    criterion_value,
    extract_strategy,
    select_optimal,
)
from nashtree.ups import (
    contains,
    is_empty,
    merge,
    merge_ldet,
    merge_random,
    saturate,
    ups_from_flags,
)

from .helpers import (
    choices_of,
    equal_ups,
    find_mixing_required_tree,
    pv,
    random_grid,
    random_saturated_ups,
)


def _verdict(n: int, ok: bool, detail: str) -> None:
    print(f"[criterion {n}] {'PASS' if ok else 'FAIL'} - {detail}")


@pytest.fixture(scope="module")
def ohoh_experiment():
    """The 4-card, 1000-hand flat-penalty study shared by criteria 6 and 8."""
    config = ExperimentConfig(
        cards=4, hands=1000, seed=0, miss_penalty="flat", jobs=2
    )
    return run_experiment(config)


def test_criterion_1_demo_tree_regression(demo_tree):
    start = time.perf_counter()
    smap = compute_ups_all(demo_tree)
    root = smap.by_node[demo_tree.root]
    expected = ups_from_flags(
        root.grid,
        [("P", 0, 1), ("P", 0, 2), ("L2", 0, 1), ("P", 1, 1), ("L1", 0, 1)],
    )
    flag_ok = equal_ups(root, expected) and equal_ups(root, saturate(root))

    expected_values = {
        "social": pv(1000, 4),
        "fair": pv(1000, 4),
        "max": pv(1000, 4),
        "best1": pv(1000, 4),
        "best2": pv(2, 100),
    }
    select_ok = all(
        select_optimal(root, c) == v for c, v in expected_values.items()
    )
    extract_ok = True
    for criterion, value in expected_values.items():
        strategy = extract_strategy(demo_tree, smap, demo_tree.root, value)
        check = is_equilibrium(demo_tree, strategy)
        exact = evaluate(demo_tree, strategy)[demo_tree.root] == value
        extract_ok = extract_ok and check.ok and exact
    elapsed = time.perf_counter() - start
    ok = flag_ok and select_ok and extract_ok and elapsed < 1.0
    _verdict(
        1,
        ok,
        f"root set exact={flag_ok}, selections exact={select_ok}, "
        f"extractions verified={extract_ok}, {elapsed * 1000:.0f} ms",
    )
    assert ok


def test_criterion_2_oracle_equivalence_500_trees():
    failures = []
    for seed in range(500):
        rng = random.Random(seed)
        tree = random_tree(rng, rng.randint(1, 10), (0, 1, 2, 3))
        report = cross_validate(tree, seed=seed, samples=3, shrink=False)
        if not report.passed:
            failures.append(
                (seed, report.containment_ok, report.det_equals_oracle,
                 report.extraction_failures[:2])
            )
    _verdict(2, not failures, f"500 random trees cross-validated, {len(failures)} failures")
    assert not failures, failures[:3]


def test_criterion_3_merge_operator_oracle_1000_pairs():
    operators = (("ldet", merge_ldet), ("random", merge_random), ("merge", merge))
    pairs = 0
    failures = []
    seed = 0
    while pairs < 1000:
        rng = random.Random(seed)
        seed += 1
        grid = random_grid(rng, max_side=6)
        a = random_saturated_ups(rng, grid)
        b = random_saturated_ups(rng, grid)
        if is_empty(a) or is_empty(b):
            continue
        pairs += 1
        x = 1 + (pairs % 2)
        for name, op in operators:
            if not equal_ups(op(a, b, x), brute_merge(a, b, x, name)):
                failures.append((seed - 1, x, name))
    _verdict(3, not failures, f"1000 saturated pairs, all operators flag-exact, {len(failures)} failures")
    assert not failures, failures[:5]


def test_criterion_4_binarization_preserves_pure_values():
    failures = []
    for seed in range(200):
        rng = random.Random(seed)
        tree = random_tree(rng, rng.randint(1, 8), (0, 1, 2, 3), max_arity=4)
        before = set(enumerate_pure_spe(tree))
        after = set(enumerate_pure_spe(binarize(tree)))
        if before != after:
            failures.append(seed)
    _verdict(4, not failures, f"200 m-ary trees, pure value sets preserved, {len(failures)} failures")
    assert not failures, failures


def test_criterion_5_mixing_required_tree_found():
    hit = find_mixing_required_tree(10_000)
    found = hit is not None
    certified = False
    detail = "no tree found in 10000 seeds"
    if found:
        seed, tree = hit
        result = best_nash(tree, "social")
        best_pure = max(v.p1 + v.p2 for v in enumerate_pure_spe(tree))
        strictly_better = result.value.p1 + result.value.p2 > best_pure
        mixes = any(
            0 < p < 1 for entry in choices_of(result.strategy).values() for _, p in entry
        )
        verified = (
            is_equilibrium(tree, result.strategy).ok
            and evaluate(tree, result.strategy)[tree.root] == result.value
        )
        certified = strictly_better and mixes and verified
        detail = (
            f"seed {seed}: social {result.value.p1 + result.value.p2} > best pure "
            f"{best_pure}, mixed={mixes}, verified={verified}"
        )
    ok = found and certified
    _verdict(5, ok, detail)
    assert ok


def test_criterion_6_ohoh_qualitative_reproduction(ohoh_experiment):
    report = ohoh_experiment
    multiple = report.multiple_equilibria_fraction()
    social_improved = report.improvement_fraction("social")
    social_gap = report.social_gap_fraction()
    checks = {
        "multiple-equilibria > 0.10": multiple > Fraction(1, 10),
        "social improvement > 0.05": social_improved > Fraction(1, 20),
        "full-vs-det social gap > 0.005": social_gap > Fraction(1, 200),
    }
    detail = (
        f"multiple={float(multiple):.3f}, improved_social={float(social_improved):.3f}, "
        f"social_gap={float(social_gap):.4f}"
    )
    ok = all(checks.values())
    _verdict(6, ok, detail + " | " + ", ".join(
        f"{name}: {'ok' if passed else 'FAIL'}" for name, passed in checks.items()
    ))
    assert ok, detail


def test_criterion_6_companion_full_and_deterministic_optima_agree():
    # Evidence for the structural zero behind criterion 6's social gap
    # (ROADMAP item 1): on every 1-3-card hand of seeds 0-199, flat and
    # mirror, mixing attains no root optimum that a pure equilibrium misses,
    # under any criterion.
    hands = differ = 0
    for cards in (1, 2, 3):
        for mode in ("flat", "mirror"):
            config = OhohConfig(cards, mode)
            for seed in range(200):
                dag = build_dag(deal(config, seed), config)
                full = compute_ups_all(dag).by_node[dag.root]
                det = compute_det_ups_all(dag).by_node[dag.root]
                hands += 1
                differ += any(
                    select_optimal(full, c) != select_optimal(det, c) for c in CRITERIA
                )
    ok = hands == 1200 and differ == 0
    _verdict(6, ok, f"{hands} hands, full and deterministic optima differ on {differ}")
    assert ok


def test_criterion_7_five_card_scale_and_cost():
    config = OhohConfig(5, "flat")
    raw = build_tree(deal(config, 0), config)
    size_ok = 200_000 <= len(raw) <= 800_000
    start = time.perf_counter()
    work = binarize(raw)
    result = best_nash(work, "social")
    elapsed = time.perf_counter() - start
    internal = len(work.internal_ids())
    merges_ok = result.stats.merges == internal
    grid = result.root_ups.grid
    work_ok = result.stats.flag_ops <= 96 * result.stats.merges * grid.n1 * grid.n2
    ok = size_ok and elapsed < 60.0 and merges_ok and work_ok
    _verdict(
        7,
        ok,
        f"raw {len(raw)} nodes, solve {elapsed:.1f} s, "
        f"merges {result.stats.merges} == internal {internal}: {merges_ok}, "
        f"flag work/merge <= 96*n1*n2: {work_ok}",
    )
    assert ok


def test_criterion_7_companion_raw_tree_solved_in_place():
    """Criterion 7's contract on the unbinarized hand, with a bound per
    computed merge: m-ary and forced nodes are folded in place, one merge
    per link of binarize's chain (89,879 links on this hand)."""
    config = OhohConfig(5, "flat")
    raw = build_tree(deal(config, 0), config)
    result = best_nash(raw, "social")
    assert result.stats.nodes == len(raw)
    assert result.stats.merges == len(binarize(raw).internal_ids())
    grid = result.root_ups.grid
    assert result.stats.flag_ops <= 96 * result.stats.distinct_merges * grid.n1 * grid.n2
    check = is_equilibrium(raw, result.strategy)
    assert check.ok and check.value == result.value


def test_criterion_8_invariant_suite(ohoh_experiment):
    violations = []

    rng = random.Random(1234)
    for _ in range(150):
        grid = random_grid(rng)
        a = random_saturated_ups(rng, grid)
        b = random_saturated_ups(rng, grid)
        if not equal_ups(saturate(a), a):
            violations.append("saturation not idempotent")
        from nashtree.ups import union

        u = union(a, b)
        if not equal_ups(saturate(u), u):
            violations.append("union broke saturation")
        if not is_empty(a) and not is_empty(b):
            for x in (1, 2):
                m = merge(a, b, x)
                if not equal_ups(saturate(m), m):
                    violations.append("merge broke saturation")

    # Canonical equality equals sampled-membership agreement.
    from nashtree.oracle import _rep_points, brute_contains
    from nashtree.ups import FLAG_KINDS, _flag_dims, flag_box

    from .helpers import random_flags

    for _ in range(40):
        grid = random_grid(rng, max_side=5)
        raw_a = ups_from_flags(grid, random_flags(rng, grid, 0.12))
        raw_b = ups_from_flags(grid, random_flags(rng, grid, 0.12))
        agree = True
        for kind in FLAG_KINDS:
            rows, cols = _flag_dims(grid, kind)
            for i in range(rows):
                for j in range(cols):
                    for point in _rep_points(flag_box(grid, kind, i, j)):
                        if brute_contains(raw_a, point) != brute_contains(raw_b, point):
                            agree = False
        if equal_ups(saturate(raw_a), saturate(raw_b)) != agree:
            violations.append("canonical equality vs membership mismatch")

    # anyNash value lies in the root set on random trees.
    for seed in range(60):
        rng2 = random.Random(9000 + seed)
        tree = random_tree(rng2, rng2.randint(1, 8))
        root = compute_ups_all(tree).by_node[tree.root]
        if not contains(root, any_nash(tree).value):
            violations.append(f"anyNash value escaped the root set (seed {seed})")

    # Per-criterion dominance on every experiment hand.
    for record in ohoh_experiment.records:
        for criterion in ohoh_experiment.config.criteria:
            if criterion_value(criterion, record.best_values[criterion]) < criterion_value(
                criterion, record.any_value
            ):
                violations.append(f"dominance violated on seed {record.seed}")
        if record.multiple_equilibria is False and record.any_value != record.best_values["social"]:
            violations.append(f"single-point hand mismatch on seed {record.seed}")

    _verdict(8, not violations, f"{len(violations)} violations across invariant checks")
    assert not violations, violations[:5]
