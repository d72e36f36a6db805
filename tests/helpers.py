from __future__ import annotations

import hashlib
import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Union

from nashtree.experiment import ExperimentConfig, HandRecord
from nashtree.gametree import (
    GameTree,
    GtreeParseError,
    PayoffVector,
    Strategy,
    _error,
    _hard_violations,
    _is_tree,
    _positive_int,
    _rational,
    binarize,
    evaluate,
    validate,
)
from nashtree.ohoh import Deal, OhohConfig, build_tree, deal, legal_cards, score, trick_winner
from nashtree.oracle import STRATEGY_CAP, random_tree
from nashtree.solver import (
    any_nash,
    compute_det_ups_all,
    compute_ups_all,
    extract_strategy,
    select_optimal,
)
from nashtree.ups import (
    FLAG_KINDS,
    PayoffGrid,
    Ups,
    _flag_dims,
    _same_grid,
    is_single_point,
    iter_flags,
    min_point,
    saturate,
    singleton_ups,
    ups_from_flags,
)

ONE = Fraction(1)


# -- per-node vocabulary for hand-built and inspected games ---------------------


@dataclass(frozen=True, slots=True)
class Internal:
    controller: int
    children: tuple[int, ...]


@dataclass(frozen=True, slots=True)
class Leaf:
    payoff: PayoffVector


Node = Union[Internal, Leaf]


def game_tree(root: int, nodes: dict[int, Node]) -> GameTree:
    """The GameTree of {id: Internal | Leaf}; leaves holding one payoff
    object share one payoff index."""
    controller: dict[int, int] = {}
    children: dict[int, tuple[int, ...]] = {}
    leaf: dict[int, int] = {}
    index: dict[int, int] = {}
    payoffs: list[PayoffVector] = []
    for nid, node in nodes.items():
        if isinstance(node, Internal):
            controller[nid] = node.controller
            children[nid] = node.children
        else:
            i = index.get(id(node.payoff))
            if i is None:
                i = index[id(node.payoff)] = len(payoffs)
                payoffs.append(node.payoff)
            leaf[nid] = i
    return GameTree(root, controller, children, leaf, tuple(payoffs))


def nodes_of(tree: GameTree) -> dict[int, Node]:
    """{id: Internal | Leaf} of a GameTree, ids ascending; a Leaf holds the
    tree's own payoff object."""
    nodes: dict[int, Node] = {}
    for nid in sorted(tree.children.keys() | tree.leaf.keys()):
        kids = tree.children.get(nid)
        if kids is None:
            nodes[nid] = Leaf(tree.payoffs[tree.leaf[nid]])
        else:
            nodes[nid] = Internal(tree.controller[nid], kids)
    return nodes


def strategy_of(choices: dict[int, tuple[tuple[int, Fraction], ...]]) -> Strategy:
    """The Strategy of {node: ((child, probability), ...)}: a lone entry
    with probability one is a pure choice."""
    pure: dict[int, int] = {}
    mixed: dict[int, tuple[tuple[int, Fraction], ...]] = {}
    for nid, entries in choices.items():
        if len(entries) == 1 and entries[0][1] == 1:
            pure[nid] = entries[0][0]
        else:
            mixed[nid] = entries
    return Strategy(pure, mixed)


def choices_of(strategy: Strategy) -> dict[int, tuple[tuple[int, Fraction], ...]]:
    """{node: ((child, probability), ...)} of a Strategy; a pure choice is
    one entry with probability one."""
    return {nid: ((child, ONE),) for nid, child in strategy.pure.items()} | strategy.mixed


def pv(a, b) -> PayoffVector:
    return PayoffVector(Fraction(a), Fraction(b))


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def random_mary_tree(rng: random.Random) -> GameTree:
    """A valid m-ary tree: random recursive shape, shuffled gappy ids.

    Random recursive trees have many one-child nodes, so arity-1 chains
    are common; payoffs come from a 3 x 3 grid, so equal subtrees are too.
    """
    return game_tree(*random_mary_nodes(rng))


def random_mary_nodes(rng: random.Random) -> tuple[int, dict[int, Node]]:
    """`random_mary_tree`'s root and {id: Internal | Leaf}, in the order drawn."""
    size = rng.randint(1, 30)
    parent = [None] + [rng.randrange(i) for i in range(1, size)]
    ids = rng.sample(range(1, 3 * size + 1), size)
    kids: list[list[int]] = [[] for _ in range(size)]
    for i in range(1, size):
        kids[parent[i]].append(ids[i])
    nodes = {
        ids[i]: Internal(rng.randint(1, 2), tuple(kids[i]))
        if kids[i]
        else Leaf(pv(rng.randrange(3), rng.randrange(3)))
        for i in range(size)
    }
    return ids[0], nodes


def share(tree: GameTree) -> GameTree:
    """The tree as a game DAG: equal subtrees become one node (hash-consing)."""
    ids: dict[Node, int] = {}
    dag_id: dict[int, int] = {}
    nodes = nodes_of(tree)
    for nid in tree.post_order():
        node = nodes[nid]
        if isinstance(node, Internal):
            node = Internal(node.controller, tuple(dag_id[c] for c in node.children))
        dag_id[nid] = ids.setdefault(node, len(ids) + 1)
    return game_tree(dag_id[tree.root], {i: node for node, i in ids.items()})


def _distinct_payoff_chain(leaves: int) -> str:
    """`.gtree` text of a chain whose leaves all pay distinct values, so
    the payoff grid is leaves x leaves."""
    lines = ["gtree v1", "root 1"]
    for k in range(1, leaves - 1):
        lines.append(f"node {k} player {k % 2 + 1} children {k + 1} {leaves + k}")
    lines.append(f"node {leaves - 1} player 1 children {leaves} {2 * leaves - 1}")
    lines += [f"leaf {leaves + k} payoff {k} {leaves - 1 - k}" for k in range(leaves)]
    return "\n".join(lines) + "\n"


def random_grid(rng: random.Random, max_side: int = 6, value_range: int = 12) -> PayoffGrid:
    n1 = rng.randint(1, max_side)
    n2 = rng.randint(1, max_side)
    return _grid(rng, n1, n2, value_range)


def _grid(rng: random.Random, n1: int, n2: int, value_range: int = 12) -> PayoffGrid:
    u1 = tuple(Fraction(v) for v in sorted(rng.sample(range(value_range), n1)))
    u2 = tuple(Fraction(v) for v in sorted(rng.sample(range(value_range), n2)))
    return PayoffGrid(u1, u2)


def random_flags(rng: random.Random, grid: PayoffGrid, density: float = 0.18):
    flags = []
    for kind in FLAG_KINDS:
        rows, cols = _flag_dims(grid, kind)
        for i in range(rows):
            for j in range(cols):
                if rng.random() < density:
                    flags.append((kind, i, j))
    return flags


def random_saturated_ups(rng: random.Random, grid: PayoffGrid, density: float = 0.18):
    return saturate(ups_from_flags(grid, random_flags(rng, grid, density)))


def edge_case_pair(rng: random.Random) -> tuple[Ups, Ups]:
    """Two saturated sets on a grid shaped to stress the lane kernel.

    The grid is 1 x k, k x 1 or random, and each set is random, has all
    its flags in one row or one column (one lane of either player), has
    every flag set, or is one point that carries its grid position
    (`singleton_ups`). A second point is drawn afresh, or shares the
    first one's row, its column or both, each a quarter of the time.
    """
    k = rng.randint(1, 7)
    n1, n2 = rng.choice([(1, k), (k, 1), (rng.randint(2, 6), rng.randint(2, 6))])
    grid = _grid(rng, n1, n2)
    points: list[tuple[int, int]] = []

    def one(mode: str) -> Ups:
        if mode == "point":
            i, j = rng.randrange(n1), rng.randrange(n2)
            if points:
                i, j = rng.choice([(i, j), (points[0][0], j), (i, points[0][1]), points[0]])
            points.append((i, j))
            return singleton_ups(grid, PayoffVector(grid.u1[i], grid.u2[j]))
        flags = random_flags(rng, grid, 1.0 if mode == "full" else 0.3)
        if mode == "row":
            row = rng.randrange(n1)
            flags = [f for f in flags if f[0] in ("P", "L2") and f[1] == row]
        elif mode == "column":
            column = rng.randrange(n2)
            flags = [f for f in flags if f[0] in ("P", "L1") and f[2] == column]
        return saturate(ups_from_flags(grid, flags))

    modes = ("random", "row", "column", "full", "point")
    return one(rng.choice(modes)), one(rng.choice(modes))


def transpose(a: Ups) -> Ups:
    """The same point set with the two players' axes swapped.

    A flag-by-flag reference for the symmetry checks: the operators
    themselves serve both players without transposing.
    """
    grid = a.grid
    swapped = {"P": "P", "L1": "L2", "L2": "L1", "D": "D"}
    return ups_from_flags(
        PayoffGrid(grid.u2, grid.u1),
        [(swapped[kind], j, i) for kind, i, j in iter_flags(a)],
    )


def empty_ups(grid: PayoffGrid) -> Ups:
    return Ups(grid, 0, 0, 0, 0)


def equal_ups(a: Ups, b: Ups) -> bool:
    """Flag-grid equality; decides point-set equality for saturated values."""
    _same_grid(a, b)
    return a.p == b.p and a.l1 == b.l1 and a.l2 == b.l2 and a.d == b.d


def min_value_for_player(a: Ups, x: int) -> Fraction:
    """Minimum player-x coordinate over the represented set."""
    return min_point(a, x).component(x)


# Search distribution for trees whose social optimum needs randomization:
# moderate depth plus heavily tied payoffs. The instances are rare, so the
# parameters are pinned; the first hit under them is at seed 8203.
MIXING_SEARCH_VALUES = (0, 1, 2, 3, 4, 5)
MIXING_SEARCH_TIE_BIAS = 0.6


def find_mixing_required_tree(max_seeds: int = 10_000):
    """Seeded search for a tree where stochastic equilibria strictly beat
    every pure one on social welfare.

    Draws trees of 5..12 internal nodes from the tie-biased distribution
    and compares the full social optimum against the deterministic-only
    one. Returns (seed, tree) for the first strict improvement, or None.
    """
    for seed in range(max_seeds):
        rng = random.Random(seed)
        tree = random_tree(
            rng,
            rng.randint(5, 12),
            MIXING_SEARCH_VALUES,
            tie_bias=MIXING_SEARCH_TIE_BIAS,
        )
        full = compute_ups_all(tree)
        det = compute_det_ups_all(tree)
        best = select_optimal(full.by_node[tree.root], "social")
        best_det = select_optimal(det.by_node[tree.root], "social")
        if best.p1 + best.p2 > best_det.p1 + best_det.p2:
            return seed, tree
    return None


def reference_hand_record(config: ExperimentConfig, seed: int) -> HandRecord:
    """One study hand solved on the binarized tree, the way the study did
    before it solved game DAGs; `timings_ms` is left empty."""
    ohoh_config = OhohConfig(config.cards, config.miss_penalty)
    raw = build_tree(deal(ohoh_config, seed), ohoh_config)
    work = binarize(raw)
    set_map = compute_ups_all(work)
    root = set_map.by_node[work.root]
    best_values = {c: select_optimal(root, c) for c in config.criteria}
    best_values.setdefault("social", select_optimal(root, "social"))
    det_map = compute_det_ups_all(work)
    social_target = best_values["social"]
    strategy = extract_strategy(work, set_map, work.root, social_target)
    assert evaluate(work, strategy)[work.root] == social_target
    return HandRecord(
        seed=seed,
        tree_nodes=len(raw),
        solved_nodes=len(work),
        n1=set_map.grid.n1,
        n2=set_map.grid.n2,
        any_value=any_nash(work).value,
        best_values=best_values,
        det_social_value=select_optimal(det_map.by_node[work.root], "social"),
        multiple_equilibria=not is_single_point(root),
        timings_ms={},
    )


def reference_pure_spe(
    tree: GameTree, cap: int = STRATEGY_CAP
) -> dict[PayoffVector, Strategy]:
    """All root payoffs of pure subgame perfect equilibria, with one witness each.

    Enumerates every pure strategy (the product of child choices over all
    internal nodes) and keeps those that are locally optimal at every node.
    Works on any arity. Raises ValueError beyond `cap` strategies.
    """
    order = list(tree.post_order())
    nodes = nodes_of(tree)
    internals = [nid for nid in order if isinstance(nodes[nid], Internal)]
    child_lists = [nodes[nid].children for nid in internals]
    total = 1
    for kids in child_lists:
        total *= len(kids)
        if total > cap:
            raise ValueError(f"more than {cap} pure strategies, refusing to enumerate")
    found: dict[PayoffVector, Strategy] = {}
    for combo in itertools.product(*child_lists):
        choice = dict(zip(internals, combo))
        values: dict[int, PayoffVector] = {}
        for nid in order:
            node = nodes[nid]
            values[nid] = node.payoff if isinstance(node, Leaf) else values[choice[nid]]
        ok = True
        for nid in internals:
            node = nodes[nid]
            own = values[nid].component(node.controller)
            if any(
                values[c].component(node.controller) > own for c in node.children
            ):
                ok = False
                break
        if ok:
            value = values[tree.root]
            if value not in found:
                found[value] = Strategy(choice)
    return found


def reference_build_dag(deal_: Deal, config: OhohConfig) -> GameTree:
    """The card game of a deal as a DAG, built the way `ohoh.build_dag` did
    before it derived the card play once per hand: the play from each lead
    is memoised on (button, both hands, the remaining outcome vector) and
    interned as Internal and Leaf objects as it is made."""
    k = config.cards_per_player
    if len(deal_.hand1) != k or len(deal_.hand2) != k:
        raise ValueError("deal does not match the configured hand size")
    trump = deal_.trump
    mode = config.miss_penalty
    ids: dict[Internal | Leaf, int] = {}
    states: dict[tuple, int] = {}

    def intern(node: Internal | Leaf) -> int:
        return ids.setdefault(node, len(ids) + 1)

    def lead(button: int, hands: tuple, outcomes: tuple) -> int:
        """The node where `button` leads a trick, its replies below it;
        `outcomes[w]` is the payoff pair if player 1 takes w of the tricks
        still to play. A reply's state (the lead's, less the led card, plus
        that card) follows from its lead's, so only leads are memoised."""
        state = (button, hands, outcomes)
        nid = states.get(state)
        if nid is not None:
            return nid
        hand = hands[button - 1]
        if not hand:
            s1, s2 = outcomes[0]
            nid = states[state] = intern(Leaf(PayoffVector(Fraction(s1), Fraction(s2))))
            return nid
        other = 3 - button
        other_hand = hands[other - 1]
        replies = []
        for i, led in enumerate(hand):
            rest = hand[:i] + hand[i + 1:]
            answers = []
            for card in legal_cards(other_hand, led.suit):
                j = other_hand.index(card)
                other_rest = other_hand[:j] + other_hand[j + 1:]
                winner = button if trick_winner(led, card, trump) else other
                answers.append(lead(
                    winner,
                    (rest, other_rest) if button == 1 else (other_rest, rest),
                    outcomes[1:] if winner == 1 else outcomes[:-1],
                ))
            replies.append(intern(Internal(other, tuple(answers))))
        nid = states[state] = intern(Internal(button, tuple(replies)))
        return nid

    hands = (deal_.hand1, deal_.hand2)
    contract1_children = []
    for c1 in range(k + 1):
        bid2_children = []
        for c2 in range(k + 1):
            if c1 + c2 != k:
                outcomes = tuple(
                    (score(c1, w, mode), score(c2, k - w, mode)) for w in range(k + 1)
                )
                bid2_children.append(lead(1, hands, outcomes))
        contract1_children.append(intern(Internal(2, tuple(bid2_children))))
    root = intern(Internal(1, tuple(contract1_children)))
    return game_tree(root, {nid: node for node, nid in ids.items()})


def _content(lines: list[str]) -> Iterator[tuple[int, str, list[str]]]:
    """(line number, line without its comment, tokens) of each non-blank line."""
    for lineno, raw in enumerate(lines, start=1):
        body = raw.partition("#")[0]
        tokens = body.split()
        if tokens:
            yield lineno, body, tokens


def reference_parse_game_tree(text: str) -> GameTree:
    """`.gtree` text parsed the way `parse_game_tree` did before games were
    stored as columns: Internal and Leaf objects, made into a GameTree last.

    Raises GtreeParseError on syntax problems, duplicate ids, a missing or
    repeated root declaration, dangling child references, shared or cyclic
    children, and unreachable nodes. Single-child internal nodes are
    accepted here; validate() still reports them.

    Parsing takes time linear in the text: one pass over its tokens and a
    linear structural check, with validate() run only to word an error.
    Leaves whose payoff tokens are equal share one Leaf and PayoffVector,
    and equal rational tokens share one Fraction, as in generated trees.
    """
    lines = text.splitlines()
    content = _content(lines)
    header = next(content, None)
    if header is None:
        raise GtreeParseError("empty input, expected header 'gtree v1'", 1, 1)
    lineno, body, tokens = header
    if tokens != ["gtree", "v1"]:
        raise _error("expected header 'gtree v1'", lineno, body)
    nodes: dict[int, Node] = {}
    root: int | None = None
    rationals: dict[str, Fraction] = {}
    leaves: dict[tuple[str, str], Leaf] = {}
    for lineno, body, tokens in content:
        word = tokens[0]
        if word == "node":
            if len(tokens) < 6 or tokens[2] != "player" or tokens[4] != "children":
                raise _error(
                    "expected 'node <id> player <1|2> children <id> [...]'", lineno, body
                )
            nid = _positive_int(tokens, 1, "node id", lineno, body)
            if nid in nodes:
                raise _error(f"duplicate id {nid}", lineno, body, 1)
            player = tokens[3]
            if player != "1" and player != "2":
                raise _error(f"player must be 1 or 2, got {player!r}", lineno, body, 3)
            children = tuple(
                [_positive_int(tokens, k, "child id", lineno, body) for k in range(5, len(tokens))]
            )
            nodes[nid] = Internal(int(player), children)
        elif word == "leaf":
            if len(tokens) != 5 or tokens[2] != "payoff":
                raise _error("expected 'leaf <id> payoff <rat> <rat>'", lineno, body)
            nid = _positive_int(tokens, 1, "leaf id", lineno, body)
            if nid in nodes:
                raise _error(f"duplicate id {nid}", lineno, body, 1)
            key = (tokens[3], tokens[4])
            leaf = leaves.get(key)
            if leaf is None:
                p1 = _rational(tokens, 3, rationals, lineno, body)
                p2 = _rational(tokens, 4, rationals, lineno, body)
                leaf = leaves[key] = Leaf(PayoffVector(p1, p2))
            nodes[nid] = leaf
        elif word == "root":
            if len(tokens) != 2:
                raise _error("expected 'root <id>'", lineno, body)
            if root is not None:
                raise _error("duplicate root declaration", lineno, body)
            root = _positive_int(tokens, 1, "root id", lineno, body)
        else:
            raise _error(f"unknown directive {word!r}", lineno, body)
    if root is None:
        raise GtreeParseError("missing root declaration", len(lines) or 1, 1)
    tree = game_tree(root, nodes)
    if not _is_tree(tree):
        hard = _hard_violations(validate(tree))
        raise GtreeParseError("; ".join(hard), len(lines) or 1, 1)
    return tree


def reference_parse_strategy(text: str) -> dict[int, tuple[tuple[int, Fraction], ...]]:
    """Strategy text parsed the way `parse_strategy` did before pure
    choices were stored as child ids: every node's (child, probability)
    entries.

    Like parse_game_tree, one pass over the tokens; equal probability
    tokens share one Fraction.
    """
    content = _content(text.splitlines())
    header = next(content, None)
    if header is None:
        raise GtreeParseError("empty input, expected header 'strategy v1'", 1, 1)
    lineno, body, tokens = header
    if tokens != ["strategy", "v1"]:
        raise _error("expected header 'strategy v1'", lineno, body)
    choices: dict[int, tuple[tuple[int, Fraction], ...]] = {}
    rationals: dict[str, Fraction] = {}
    for lineno, body, tokens in content:
        if tokens[0] != "at":
            raise _error(f"expected 'at', got {tokens[0]!r}", lineno, body)
        if len(tokens) < 6 or tokens[2] != "choose":
            raise _error(
                "expected 'at <id> choose <child> prob <rat> [<child> prob <rat> ...]'",
                lineno,
                body,
            )
        nid = _positive_int(tokens, 1, "node id", lineno, body)
        if nid in choices:
            raise _error(f"duplicate 'at {nid}' line", lineno, body)
        if len(tokens) % 3:
            raise _error("incomplete '<child> prob <rat>' group", lineno, body)
        entries = []
        for k in range(3, len(tokens), 3):
            if tokens[k + 1] != "prob":
                raise _error(f"expected 'prob', got {tokens[k + 1]!r}", lineno, body, k + 1)
            child = _positive_int(tokens, k, "child id", lineno, body)
            entries.append((child, _rational(tokens, k + 2, rationals, lineno, body)))
        choices[nid] = tuple(entries)
    return choices
