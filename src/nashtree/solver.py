"""Equilibrium solvers for two-player game trees.

`any_nash` is plain backward induction: it returns one subgame perfect
equilibrium, chosen arbitrarily (leftmost child on ties). `best_nash`
instead computes, bottom-up, the exact set of equilibrium payoff vectors
of every subtree, picks the best point at the root under a chosen
optimality criterion, and extracts a (possibly stochastic) strategy
attaining it exactly. A deterministic-only variant restricts the sets to
payoffs of pure equilibria.
"""

from __future__ import annotations

import itertools
import time
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Callable, NamedTuple

from .gametree import GameTree, PayoffVector, Strategy, _dag_post_order
from .rationals import Rational
from .ups import (
    PayoffGrid,
    Ups,
    build_grid,
    cross_section,
    flag_position,
    holds,
    is_empty,
    merge,
    merge_deterministic,
    min_point,
    singleton_ups,
)

CRITERIA = ("social", "fair", "max", "best1", "best2")


class TargetNotInUpsError(ValueError):
    """Asked to extract a payoff that no equilibrium of the subtree attains."""


class AlgebraInconsistencyError(RuntimeError):
    """The extraction walk hit a state the set algebra says cannot happen."""


def criterion_value(criterion: str, v: PayoffVector) -> Rational:
    """The quantity a criterion maximizes, evaluated at one payoff vector."""
    if criterion == "social":
        return v.p1 + v.p2
    if criterion == "fair":
        return min(v.p1, v.p2)
    if criterion == "max":
        return max(v.p1, v.p2)
    if criterion == "best1":
        return v.p1
    if criterion == "best2":
        return v.p2
    raise ValueError(f"unknown criterion {criterion!r}")


@dataclass(frozen=True)
class SolveStats:
    """Work and time of one solve; the counters are those of its `SetMap`
    (on a game DAG, `merges` sums m - 1 over the distinct internal nodes),
    and `nodes` counts the tree or the DAG's distinct nodes as given,
    which are solved in place."""

    nodes: int
    merges: int = 0
    distinct_merges: int = 0
    flag_ops: int = 0
    ups_ms: float = 0.0
    extract_ms: float = 0.0
    total_ms: float = 0.0


@dataclass(frozen=True)
class SolveResult:
    value: PayoffVector
    strategy: Strategy
    root_ups: Ups | None
    stats: SolveStats


@dataclass(frozen=True)
class SetMap:
    """Per-node equilibrium payoff sets of a game tree or DAG, on a shared grid.

    Equal sets are one shared object. `merges` counts binary merges, one
    per link of each node's m-ary chain, so m - 1 per m-ary node; on a
    game DAG it sums m - 1 over the distinct internal nodes, since each is
    folded once. `merged` maps each distinct (controller, left set id,
    right set id) to its merge, `distinct_merges` counts those, and
    `flag_ops` is their flag work.
    """

    grid: PayoffGrid
    by_node: dict[int, Ups]
    merged: dict[tuple[int, int, int], Ups]
    merges: int
    distinct_merges: int
    flag_ops: int


def any_nash(tree: GameTree) -> SolveResult:
    """Backward induction with leftmost tie-breaking; returns a pure equilibrium."""
    t0 = time.perf_counter()
    controller, children, leaf, payoffs = tree.controller, tree.children, tree.leaf, tree.payoffs
    values: dict[int, PayoffVector] = {}
    choices: dict[int, int] = {}
    for nid in tree.post_order():
        kids = children.get(nid)
        if kids is None:
            values[nid] = payoffs[leaf[nid]]
            continue
        x = controller[nid]
        best = choices[nid] = max(kids, key=lambda c: values[c].component(x))  # leftmost of ties
        values[nid] = values[best]
    total_ms = (time.perf_counter() - t0) * 1000.0
    return SolveResult(
        value=values[tree.root],
        strategy=Strategy(choices),
        root_ups=None,
        stats=SolveStats(nodes=len(tree), total_ms=total_ms),
    )


def _compute_sets(tree: GameTree, combine: Callable[[Ups, Ups, int], Ups]) -> SetMap:
    """Fold `combine` up the tree, computing each distinct merge once.

    A node's children c0 .. c(m-1) fold right to left as an m-ary chain of
    m - 1 links, combine(S(c0), combine(S(c1), ... S(c(m-1)))), link k
    combining ck with the merged set of the later children; one child
    passes its set through.

    Saturated flags are a canonical form, so sets are interned by their
    four flag ints and equal sets share one `Ups` object; a merge is then
    keyed by (controller, left object, right object). A single point is
    interned by its grid position instead, the only thing it holds, and a
    merge that returns one of its operands returns an interned set. Keys hold
    ints and object ids only, never payoffs: a `PayoffVector` hashes in
    Python code, and interning by position already shares equal leaf sets.
    """
    grid = build_grid(tree)
    controller, children, leaf, payoffs = tree.controller, tree.children, tree.leaf, tree.payoffs
    interned: dict[tuple[int, int, int, int] | int, Ups] = {}
    leaves: dict[int, Ups] = {}  # by payoff index
    merged: dict[tuple[int, int, int], Ups] = {}
    by_node: dict[int, Ups] = {}
    merges = 0

    def intern(ups: Ups) -> Ups:
        key = (ups.p, ups.l1, ups.l2, ups.d) if ups.at is None else ups.at
        return interned.setdefault(key, ups)

    for nid in tree.post_order():
        kids = children.get(nid)
        if kids is None:
            index = leaf[nid]
            ups = leaves.get(index)
            if ups is None:
                ups = leaves[index] = intern(singleton_ups(grid, payoffs[index]))
            by_node[nid] = ups
            continue
        x = controller[nid]
        k = len(kids) - 1
        merges += k
        acc = by_node[kids[k]]
        while k:
            k -= 1
            a = by_node[kids[k]]
            key = (x, id(a), id(acc))
            ups = merged.get(key)
            if ups is None:
                ups = combine(a, acc, x)
                if ups is not a and ups is not acc:  # an operand is interned
                    ups = intern(ups)
                merged[key] = ups
            acc = ups
        by_node[nid] = acc
    return SetMap(
        grid=grid,
        by_node=by_node,
        merged=merged,
        merges=merges,
        distinct_merges=len(merged),
        flag_ops=grid.work.flag_ops,
    )


def compute_ups_all(tree: GameTree) -> SetMap:
    """Equilibrium payoff set of every subtree (m - 1 merges per m-ary node)."""
    return _compute_sets(tree, merge)


def compute_det_ups_all(tree: GameTree) -> SetMap:
    """Pure-equilibrium payoff sets: the merge never mixes, so every set is a
    finite collection of grid points."""
    return _compute_sets(tree, merge_deterministic)


def select_optimal(root_ups: Ups, criterion: str) -> PayoffVector:
    """Best point of a set under a criterion.

    All supported criteria are coordinate-wise nondecreasing, so the
    optimum over every flagged element is attained at its upper-right
    corner, and in a saturated set that corner is itself a flagged point;
    the scan checks the points only. Ties are broken toward the larger
    player-1 payoff, then the larger player-2 payoff.
    """
    if criterion not in CRITERIA:
        raise ValueError(f"unknown criterion {criterion!r}")
    if is_empty(root_ups):
        raise ValueError("cannot select from an empty set")
    if root_ups.at is not None:  # one point, read from its position
        return min_point(root_ups, 1)
    grid = root_ups.grid
    points = []
    pts = root_ups.p
    while pts:
        low = pts & -pts
        pts ^= low
        i, j = divmod(low.bit_length() - 1, grid.n2)
        points.append(PayoffVector(grid.u1[i], grid.u2[j]))
    return max(points, key=lambda v: (criterion_value(criterion, v), v.p1, v.p2))


def _point_on_axis(x: int, v: Rational, other: Rational) -> PayoffVector:
    return PayoffVector(v, other) if x == 1 else PayoffVector(other, v)


# Extraction decisions that commit to one side of a link; a mixing decision
# is the pair of side probabilities instead.
_LEFT, _RIGHT = "left", "right"


class Extraction(NamedTuple):
    """A strategy attaining a target, on the game split by target.

    Extraction asks every node for a target payoff. In a game DAG a shared
    node can be asked for two; the later (node, target) pair then becomes
    a copy of the node with a fresh id above the game's, and its parent
    points to the copy. `game` is the split game (the given game itself
    when nothing was split), `strategy` is keyed by its ids, and `origin`
    maps each copy's id to the node it copies. The split game unfolds to
    the same tree as the game, so evaluate() and is_equilibrium() check
    the strategy on it directly.
    """

    game: GameTree
    strategy: Strategy
    origin: dict[int, int]


def extract_strategy(
    tree: GameTree, set_map: SetMap, node: int, target: PayoffVector
) -> Strategy:
    """A strategy for the subtree at `node` whose value there is exactly
    `target` and which is locally optimal everywhere in the subtree; see
    `extract`. Raises ValueError on a DAG whose extraction asks a shared
    node for two targets: no strategy keyed by node attains the target."""
    found = extract(tree, set_map, node, target)
    if found.origin:
        copy, nid = next(iter(found.origin.items()))
        raise ValueError(
            f"node {nid} is asked for two targets; extract() splits it (copy {copy})"
        )
    return found.strategy


def extract(tree: GameTree, set_map: SetMap, node: int, target: PayoffVector) -> Extraction:
    """A strategy for the subtree at `node` whose value there is exactly
    `target` and which is locally optimal everywhere in the subtree, on
    the game split by target (see `Extraction`).

    Walk top-down, each node as the chain of links its set was folded
    from: link k chooses between child k and the merged set of the later
    children (`set_map.merged`). At each link, prefer committing left, then
    right, and mix only when the target is attainable solely as a
    combination of controller-indifferent payoffs. The unchosen side is
    sent to its own worst payoff for the controller (the punishment that
    makes the chosen branch locally optimal); mixing goes on into both
    sides with the two endpoint payoffs. A child is played with the
    probability of reaching its link and going left; zeros are left out.

    Each (node, target) pair is visited once; on a tree each node has one.
    A link whose merge kept one side's set whole commits to that side with
    no floor test (left first, if the target is in both): a link's target
    lies in its merged set, and no point of a kept set lies below the other
    set's floor for the controller. Any other link's decision depends only
    on (controller, left set, right set, target), so it is made once per
    distinct tuple and reused.

    Raises TargetNotInUpsError if `target` is not in the node's set; past
    that check, a link where no case applies is an AlgebraInconsistencyError.
    """
    by_node, merged, grid = set_map.by_node, set_map.merged, set_map.grid
    controller, children, leaf, payoffs = tree.controller, tree.children, tree.leaf, tree.payoffs
    # The caches are keyed by object ids, never by payoffs: a PayoffVector,
    # and a mixed target's Fractions, hash in Python code. Sets are interned
    # by the solve, a punishment point is one object per set, and a reused
    # step hands out its stored child targets, so repeated work meets
    # repeated ids. Each step keeps its own target alive and the tree keeps
    # its payoff table alive, so no id is recycled during the walk.
    floors: dict[tuple[int, int], PayoffVector] = {}
    places: dict[int, tuple[str, int]] = {}
    steps: dict[tuple[int, int, int, int], tuple] = {}
    leaves_paid: set[tuple[int, int]] = set()

    def floor(u: Ups, x: int) -> PayoffVector:
        key = (id(u), x)
        point = floors.get(key)
        if point is None:
            point = floors[key] = min_point(u, x)
        return point

    def has(u: Ups, point: PayoffVector) -> bool:
        """`ups.contains`, placing each point object on the grid once."""
        where = places.get(id(point))
        if where is None:
            where = places[id(point)] = flag_position(grid, point)
        return holds(u, *where)

    if not has(by_node[node], target):
        raise TargetNotInUpsError(f"target {target} is not attainable at node {node}")
    # The first target each node is asked for; a node asked again for
    # another value is copied, once per (node, value).
    asked: dict[int, PayoffVector] = {node: target}
    copy_of: dict[tuple[int, PayoffVector], int] = {}
    origin: dict[int, int] = {}
    moved: dict[int, list[int]] = {}  # the child ids of each parent of copies
    last_id = 0  # the id of the latest copy, once there is one

    def split(parent: int, position: int, child: int, want: PayoffVector) -> int:
        nonlocal last_id
        key = (child, want)
        cid = copy_of.get(key)
        if cid is None:
            last_id = cid = copy_of[key] = (last_id or max(itertools.chain(children, leaf))) + 1
            origin[cid] = child
            push((cid, child, want))
        moved.setdefault(parent, list(children[origin.get(parent, parent)]))[position] = cid
        return cid

    pure: dict[int, int] = {}
    mixed: dict[int, tuple[tuple[int, Rational], ...]] = {}
    stack: list[tuple[int, int, PayoffVector]] = [(node, node, target)]
    push = stack.append
    while stack:
        gid, nid, want = stack.pop()
        kids = children.get(nid)
        if kids is None:
            paid = (leaf[nid], id(want))
            if paid not in leaves_paid:
                if payoffs[paid[0]] != want:
                    raise AlgebraInconsistencyError(
                        f"leaf {nid} pays {payoffs[paid[0]]}, extraction wanted {want}"
                    )
                leaves_paid.add(paid)
            continue
        x = controller[nid]
        last = len(kids) - 1
        # The first link's right-hand set, and (m > 2) the later links'.
        ur, rights = by_node[kids[last]], None
        if last > 1:
            rights = []
            for child in kids[last - 1:0:-1]:
                rights.append(ur)
                ur = merged[(x, id(by_node[child]), id(ur))]
        entries = ()
        reach = 1  # None once an earlier link has committed left
        k = 0
        while k < last:
            child = kids[k]
            k += 1
            ul = by_node[child]
            kept = merged[(x, id(ul), id(ur))]  # a side kept whole commits
            if kept is ul:
                probs, want_left, want = _LEFT, want, floor(ur, x)
            elif kept is ur and not has(ul, want):
                probs, want_left = _RIGHT, floor(ul, x)
            else:
                key = (x, id(ul), id(ur), id(want))
                step = steps.get(key)
                if step is None:
                    step = steps[key] = (
                        want, *_extraction_step(grid, has, floor, x, ul, ur, want, nid)
                    )
                _, probs, want_left, want = step
            if rights:
                ur = rights.pop()
            first = asked.get(child)
            if first is None:
                asked[child] = want_left
                push((child, child, want_left))
            elif first is not want_left and first != want_left:
                child = split(gid, k - 1, child, want_left)
            if reach is not None and probs is not _RIGHT:
                entries += ((child, reach if probs is _LEFT else reach * probs[0]),)
                reach = None if probs is _LEFT else reach * probs[1]
        child = kids[last]
        first = asked.get(child)
        if first is None:
            asked[child] = want
            push((child, child, want))
        elif first is not want and first != want:
            child = split(gid, last, child, want)
        if reach is not None:
            entries += ((child, reach),)
        # A lone entry has probability one; a mix leaves two or more.
        if len(entries) == 1:
            pure[gid] = entries[0][0]
        else:
            mixed[gid] = entries
    strategy = Strategy(pure, mixed)
    if not origin:
        game = tree if node == tree.root else replace(tree, root=node)
        return Extraction(game, strategy, origin)
    # The split game: each node asked for one target keeps its id, each
    # copy has its own, and parents point to the copies they were given.
    source = {gid: origin.get(gid, gid) for gid in itertools.chain(asked, origin)}
    links = {gid: children[s] for gid, s in source.items() if s in children}
    links.update((gid, tuple(kids)) for gid, kids in moved.items())
    leaves = {gid: leaf[s] for gid, s in source.items() if s in leaf}
    game = GameTree(node, {gid: controller[source[gid]] for gid in links}, links, leaves, payoffs)
    game.__dict__["_post_order"] = _dag_post_order(links, node)  # GameTree's cached walk
    return Extraction(game, strategy, origin)


def _extraction_step(grid, has, floor, x, ul, ur, want, nid):
    """One extraction decision at a link of node `nid`: (_LEFT, _RIGHT or the
    mixing probabilities, left target, right target). `has(u, point)` is
    set membership and `floor(u, x)` the set's minimal point for player x,
    the punishment target."""
    want_x = want.component(x)
    if has(ul, want) and want_x >= floor(ur, x).component(x):
        return _LEFT, want, floor(ur, x)
    if has(ur, want) and want_x >= floor(ul, x).component(x):
        return _RIGHT, floor(ul, x), want
    # Mixed case. A mix needs both children to offer the controller exactly
    # want_x, so each one's floor for x is at most want_x, and the target
    # lies in neither child's set, or committing to that child would have
    # applied. Under saturation a segment's ends are flagged points, so the
    # section values nearest to the other player's target w are points: mix
    # the lowest one strictly above w on one side with the highest strictly
    # below it on the other (so the two never meet), left above first.
    w = want.component(3 - x)
    axis = grid.u2 if x == 1 else grid.u1
    below = (1 << bisect_left(axis, w)) - 1
    above = -1 << bisect_right(axis, w)
    lp = cross_section(ul, x, want_x)[0]
    rp = cross_section(ur, x, want_x)[0]
    la, lb, ra, rb = lp & above, lp & below, rp & above, rp & below
    if la and rb:
        ys, yt = axis[(la & -la).bit_length() - 1], axis[rb.bit_length() - 1]
    elif lb and ra:
        ys, yt = axis[lb.bit_length() - 1], axis[(ra & -ra).bit_length() - 1]
    else:
        raise AlgebraInconsistencyError(f"no extraction case applies at node {nid} for {want}")
    lam = Fraction(w - yt) / (ys - yt)
    return (lam, 1 - lam), _point_on_axis(x, want_x, ys), _point_on_axis(x, want_x, yt)


def _solve(tree: GameTree, criterion: str, deterministic: bool) -> SolveResult:
    t0 = time.perf_counter()
    set_map = compute_det_ups_all(tree) if deterministic else compute_ups_all(tree)
    t1 = time.perf_counter()
    root_ups = set_map.by_node[tree.root]
    value = select_optimal(root_ups, criterion)
    strategy = extract_strategy(tree, set_map, tree.root, value)
    t2 = time.perf_counter()
    return SolveResult(
        value=value,
        strategy=strategy,
        root_ups=root_ups,
        stats=SolveStats(
            nodes=len(tree),
            merges=set_map.merges,
            distinct_merges=set_map.distinct_merges,
            flag_ops=set_map.flag_ops,
            ups_ms=(t1 - t0) * 1000.0,
            extract_ms=(t2 - t1) * 1000.0,
            total_ms=(t2 - t0) * 1000.0,
        ),
    )


def best_nash(tree: GameTree, criterion: str) -> SolveResult:
    """Optimal equilibrium under `criterion`, solved on the tree as given.

    The strategy may mix at any node; an m-ary node's distribution lists
    only the children it plays with positive probability. On a game DAG
    whose extraction asks a shared node for two targets, this raises
    ValueError, as extract_strategy does; `extract` splits such nodes.
    """
    return _solve(tree, criterion, deterministic=False)


def best_deterministic_nash(tree: GameTree, criterion: str) -> SolveResult:
    """Optimal pure equilibrium under `criterion`."""
    return _solve(tree, criterion, deterministic=True)
