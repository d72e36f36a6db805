"""Brute-force ground truth for small instances.

Everything here is deliberately naive: pure equilibria are found by
applying the equilibrium definition node by node to every combination of
the children's equilibrium values, set-algebra results are recomputed
from the set definitions by exact interval geometry, and points are
sampled for membership and extraction spot checks. The only solver code
these functions touch is the code under test.
"""

from __future__ import annotations

import itertools
import random
from bisect import bisect_right
from dataclasses import dataclass, field
from fractions import Fraction

from .gametree import GameTree, PayoffVector, Strategy, is_equilibrium, serialize_game_tree
from .solver import compute_det_ups_all, compute_ups_all, extract_strategy
from .ups import (
    FLAG_KINDS,
    PayoffGrid,
    Ups,
    _flag_dims,
    contains,
    flag_box,
    iter_flags,
    ups_from_flags,
)

STRATEGY_CAP = 1 << 20


def enumerate_pure_spe(
    tree: GameTree, cap: int = STRATEGY_CAP
) -> dict[PayoffVector, Strategy]:
    """All root payoffs of pure subgame perfect equilibria, with one witness each.

    One post-order pass applies the definition node by node: every
    combination of one equilibrium value per child, with the node choosing
    any child best for its controller, gives the node an equilibrium value,
    witnessed by that choice plus the children's witnesses. Works on any
    arity; needs a tree, not a DAG. Raises ValueError beyond `cap` pure
    strategies, which bounds the work: a node has no more combinations
    than its subtree has strategies.
    """
    controller, children, leaf, payoffs = tree.controller, tree.children, tree.leaf, tree.payoffs
    total = 1
    for nid in tree.internal_ids():
        total *= len(children[nid])
        if total > cap:
            raise ValueError(f"more than {cap} pure strategies, refusing to enumerate")
    # found[nid]: each equilibrium value of the subtree -> one witness's choices
    found: dict[int, dict[PayoffVector, dict[int, int]]] = {}
    for nid in tree.post_order():
        kids = children.get(nid)
        if kids is None:
            found[nid] = {payoffs[leaf[nid]]: {}}
            continue
        x = controller[nid]
        here = found[nid] = {}
        for combo in itertools.product(*(found[c].items() for c in kids)):
            best = max(v.component(x) for v, _ in combo)
            for child, (v, _) in zip(kids, combo):
                if v not in here and v.component(x) == best:
                    choice = here[v] = {nid: child}
                    for _, below in combo:
                        choice.update(below)
    return {value: Strategy(choice) for value, choice in found[tree.root].items()}


# -- point sampling -------------------------------------------------------------

# Upper bound on interior samples per flagged element accepted from the
# command line. Every sampled point costs one extraction and one check, so
# the bound keeps a hostile value from storming memory; tests, demos and
# the benchmark use 3.
MAX_SAMPLES = 1000


def _random_unit_fraction(rng: random.Random) -> Fraction:
    den = rng.randint(2, 12)
    return Fraction(rng.randint(1, den - 1), den)


def sample_ups_points(a: Ups, per_element: int = 3, seed: int = 0) -> list[PayoffVector]:
    """Corners of every flagged element plus seeded rational interior points.

    Deterministic for a given seed; duplicates (shared corners) are dropped,
    keeping first occurrences.
    """
    rng = random.Random(seed)
    out: list[PayoffVector] = []
    for kind, i, j in iter_flags(a):
        x0, x1, y0, y1 = flag_box(a.grid, kind, i, j)
        for x in (x0, x1):
            for y in (y0, y1):
                out.append(PayoffVector(x, y))
        if x0 == x1 and y0 == y1:
            continue
        for _ in range(per_element):
            x = x0 if x0 == x1 else x0 + _random_unit_fraction(rng) * (x1 - x0)
            y = y0 if y0 == y1 else y0 + _random_unit_fraction(rng) * (y1 - y0)
            out.append(PayoffVector(x, y))
    return list(dict.fromkeys(out))


# -- geometric reference for the set algebra ------------------------------------


class _BruteSet:
    """Union-of-boxes view of a flag set, answering exact interval queries."""

    def __init__(self, a: Ups):
        self.grid = a.grid
        self.boxes = [flag_box(a.grid, k, i, j) for k, i, j in iter_flags(a)]
        self._sections: dict = {}

    def section(self, x: int, v):
        """Merged closed intervals of the other coordinate at slice `v`,
        plus their overall min and max; None if the slice is empty."""
        key = (x, v)
        if key in self._sections:
            return self._sections[key]
        raw = []
        for x0, x1, y0, y1 in self.boxes:
            if x == 1:
                if x0 <= v <= x1:
                    raw.append((y0, y1))
            else:
                if y0 <= v <= y1:
                    raw.append((x0, x1))
        if not raw:
            self._sections[key] = None
            return None
        raw.sort()
        merged = [raw[0]]
        for lo, hi in raw[1:]:
            if lo <= merged[-1][1]:
                if hi > merged[-1][1]:
                    merged[-1] = (merged[-1][0], hi)
            else:
                merged.append((lo, hi))
        result = (merged, merged[0][0], max(hi for _, hi in merged))
        self._sections[key] = result
        return result

    def member(self, pt: PayoffVector) -> bool:
        sec = self.section(1, pt.p1)
        if sec is None:
            return False
        merged, _, _ = sec
        starts = [lo for lo, _ in merged]
        idx = bisect_right(starts, pt.p2) - 1
        return idx >= 0 and merged[idx][1] >= pt.p2

    def min_coord(self, x: int):
        if not self.boxes:
            return None
        return min((b[0] if x == 1 else b[2]) for b in self.boxes)


def brute_contains(a: Ups, point: PayoffVector) -> bool:
    """Membership computed from raw flag geometry; works unsaturated."""
    return _BruteSet(a).member(point)


def _rep_points(box) -> list[PayoffVector]:
    x0, x1, y0, y1 = box
    xs = (x0,) if x0 == x1 else (x0, Fraction(x0 + x1) / 2, x1)
    ys = (y0,) if y0 == y1 else (y0, Fraction(y0 + y1) / 2, y1)
    return [PayoffVector(x, y) for x in xs for y in ys]


def expected_ups(grid: PayoffGrid, member) -> Ups:
    """Flag every basis element whose representative points (corners, edge
    midpoints, center) all satisfy `member`. The result is saturated by
    construction."""
    flags = []
    for kind in FLAG_KINDS:
        rows, cols = _flag_dims(grid, kind)
        for i in range(rows):
            for j in range(cols):
                box = flag_box(grid, kind, i, j)
                if all(member(pt) for pt in _rep_points(box)):
                    flags.append((kind, i, j))
    return ups_from_flags(grid, flags)


def brute_merge(a: Ups, b: Ups, x: int, which: str = "merge") -> Ups:
    """Recompute a merge operator directly from its set definition.

    `which` is one of "ldet" (keep points of `a` no worse for player x
    than the worst of `b`), "random" (convex combinations of x-indifferent
    pairs), "merge" (their union together with the mirrored "ldet"), or
    "deterministic" (the two "ldet"s without "random").
    Evaluated by representative-point membership on every basis element.
    """
    ba, bb = _BruteSet(a), _BruteSet(b)
    min_a, min_b = ba.min_coord(x), bb.min_coord(x)

    def in_ldet_ab(pt: PayoffVector) -> bool:
        return min_b is not None and pt.component(x) >= min_b and ba.member(pt)

    def in_ldet_ba(pt: PayoffVector) -> bool:
        return min_a is not None and pt.component(x) >= min_a and bb.member(pt)

    def in_random(pt: PayoffVector) -> bool:
        v, w = pt.component(x), pt.component(3 - x)
        sa = ba.section(x, v)
        sb = bb.section(x, v)
        if sa is None or sb is None:
            return False
        _, lo_a, hi_a = sa
        _, lo_b, hi_b = sb
        return (hi_a >= w and lo_b <= w) or (hi_b >= w and lo_a <= w)

    if which == "ldet":
        member = in_ldet_ab
    elif which == "random":
        member = in_random
    elif which == "merge":
        member = lambda pt: in_random(pt) or in_ldet_ab(pt) or in_ldet_ba(pt)
    elif which == "deterministic":
        member = lambda pt: in_ldet_ab(pt) or in_ldet_ba(pt)
    else:
        raise ValueError(f"unknown merge kind {which!r}")
    return expected_ups(a.grid, member)


# -- random trees ---------------------------------------------------------------


def random_tree(
    rng: random.Random,
    internal_count: int,
    payoff_values=(0, 1, 2, 3),
    max_arity: int = 2,
    tie_bias: float = 0.0,
) -> GameTree:
    """A random game tree with the given number of internal nodes.

    Binary shapes come from a uniform recursive split of the internal-node
    budget; controllers are uniform; payoffs are drawn (with repetition,
    so ties are common) from a small value set, used as given (whole
    payoffs stay ints). `max_arity > 2` draws each node's arity uniformly
    and scatters the budget across children. With `tie_bias` > 0, each
    payoff component reuses an already-drawn value of the same player with
    that probability, making the exact-tie patterns that stochastic
    equilibria feed on far more frequent.
    """
    controller, children, leaf, payoffs = {}, {}, {}, []
    counter = itertools.count(1)
    pools: tuple[list, list] = ([], [])

    def draw(pool: list) -> int:
        if pool and rng.random() < tie_bias:
            return rng.choice(pool)
        value = rng.choice(payoff_values)
        pool.append(value)
        return value

    def payoff() -> PayoffVector:
        if tie_bias:
            return PayoffVector(draw(pools[0]), draw(pools[1]))
        return PayoffVector(rng.choice(payoff_values), rng.choice(payoff_values))

    def build(budget: int) -> int:
        nid = next(counter)
        if budget == 0:
            leaf[nid] = len(payoffs)
            payoffs.append(payoff())
            return nid
        arity = 2 if max_arity == 2 else rng.randint(2, max_arity)
        if arity == 2:
            left = rng.randint(0, budget - 1)
            budgets = [left, budget - 1 - left]
        else:
            budgets = [0] * arity
            for _ in range(budget - 1):
                budgets[rng.randrange(arity)] += 1
        controller[nid] = rng.randint(1, 2)
        children[nid] = tuple(build(b) for b in budgets)
        return nid

    root = build(internal_count)
    return GameTree(root, controller, children, leaf, tuple(payoffs))


# -- end-to-end differential check ----------------------------------------------


@dataclass
class OracleReport:
    pure_values: tuple[PayoffVector, ...]
    containment_ok: bool
    det_equals_oracle: bool
    extraction_failures: list[tuple[PayoffVector, str]] = field(default_factory=list)
    shrunk: str | None = None

    @property
    def passed(self) -> bool:
        return (
            self.containment_ok
            and self.det_equals_oracle
            and not self.extraction_failures
        )


def _det_points(root_det: Ups) -> set[PayoffVector] | None:
    # Deterministic-mode sets must be pure grid points.
    if root_det.l1 or root_det.l2 or root_det.d:
        return None
    grid = root_det.grid
    return {
        PayoffVector(grid.u1[i], grid.u2[j])
        for kind, i, j in iter_flags(root_det)
    }


def _run_checks(tree: GameTree, seed: int, samples: int) -> OracleReport:
    pure = enumerate_pure_spe(tree)
    full_map = compute_ups_all(tree)
    det_map = compute_det_ups_all(tree)
    root_full = full_map.by_node[tree.root]
    root_det = det_map.by_node[tree.root]

    containment_ok = all(contains(root_full, v) for v in pure)
    det_points = _det_points(root_det)
    det_equals_oracle = det_points is not None and det_points == set(pure)

    failures: list[tuple[PayoffVector, str]] = []
    for target in sample_ups_points(root_full, per_element=samples, seed=seed):
        try:
            strat = extract_strategy(tree, full_map, tree.root, target)
            check = is_equilibrium(tree, strat)
            if not check.ok:
                failures.append((target, f"extracted strategy violates at node {check.witness}"))
                continue
            if check.value != target:
                failures.append((target, f"extracted value {check.value} != target"))
        except Exception as exc:  # noqa: BLE001 - failures belong in the report
            failures.append((target, f"{type(exc).__name__}: {exc}"))
    return OracleReport(
        pure_values=tuple(sorted(pure, key=lambda v: (v.p1, v.p2))),
        containment_ok=containment_ok,
        det_equals_oracle=det_equals_oracle,
        extraction_failures=failures,
    )


def _promote_child(tree: GameTree, nid: int, child: int) -> GameTree:
    """Replace the subtree at `nid` with the subtree at its child."""
    remap = lambda k: child if k == nid else k
    children = {k: tuple(map(remap, kids)) for k, kids in tree.children.items()}
    promoted = GameTree(remap(tree.root), tree.controller, children, tree.leaf, tree.payoffs)
    keep = set(promoted.post_order())  # what the root still reaches
    columns = (tree.controller, children, tree.leaf)
    kept = ({k: v for k, v in column.items() if k in keep} for column in columns)
    return GameTree(promoted.root, *kept, tree.payoffs)


def cross_validate(
    tree: GameTree, seed: int = 0, samples: int = 3, shrink: bool = True
) -> OracleReport:
    """Differential check of the solver pipeline against brute force.

    Verifies that (a) every pure-equilibrium payoff lies in the computed
    root set, (b) the deterministic-mode root set equals the enumerated
    pure payoffs exactly, and (c) sampled points of the root set extract
    to verified equilibria with exactly the target value. On failure, when
    `shrink` is set, greedily promotes child subtrees while the failure
    persists and attaches the serialized minimal failing tree.
    """
    report = _run_checks(tree, seed, samples)
    if report.passed or not shrink:
        return report
    current = tree
    budget = 500
    improved = True
    while improved and budget > 0:
        improved = False
        for nid in sorted(current.children):
            for child in current.children[nid]:
                candidate = _promote_child(current, nid, child)
                budget -= 1
                try:
                    if not _run_checks(candidate, seed, samples).passed:
                        current = candidate
                        improved = True
                        break
                except Exception:  # noqa: BLE001 - a reduction may be degenerate
                    continue
                if budget <= 0:
                    break
            if improved or budget <= 0:
                break
    report.shrunk = serialize_game_tree(current)
    return report
