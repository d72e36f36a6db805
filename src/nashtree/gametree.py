"""Two-player game trees with exact rational payoffs.

A tree is a rooted structure whose internal nodes are controlled by
player 1 or player 2 and whose leaves carry one exact payoff per player.
A game DAG is the same structure with equal subtrees stored once, so a
node may have several parents; it stands for the tree it unfolds to.
This module owns the data model, the `.gtree` and strategy text formats,
structural validation, binarization to two-child form, unfolding,
expected-value computation for (possibly stochastic) strategies, and the
local-optimality check that defines a subgame perfect equilibrium.

A game is stored as columns keyed by node id that hold only ints, tuples
of ints and indices into one table of shared payoff objects; a strategy
stores each probability-one choice as a child id. Parsing, rewriting and
walking a game keep no object per node, and once the cyclic collector
has passed over the columns it no longer tracks them.

All values are exact `Rational`s (`int` when whole, `fractions.Fraction`
otherwise, never `float`); ties between payoffs are meaningful and must
be exact, so no floating point is used anywhere.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterator, NamedTuple

from .rationals import Rational, format_rational, parse_rational


class GtreeParseError(ValueError):
    """Malformed `.gtree` or strategy text; carries a 1-based line/column."""

    def __init__(self, message: str, line: int, column: int = 1):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


class MissingStrategyError(KeyError):
    """A strategy lacks an entry for an internal node it must cover."""


@dataclass(frozen=True, slots=True)
class PayoffVector:
    """One exact payoff per player."""

    p1: Rational
    p2: Rational

    def component(self, player: int) -> Rational:
        if player == 1:
            return self.p1
        if player == 2:
            return self.p2
        raise ValueError(f"player index must be 1 or 2, got {player}")

    def __str__(self) -> str:
        return f"{format_rational(self.p1)} {format_rational(self.p2)}"


@dataclass(frozen=True, eq=False)
class GameTree:
    """A game as columns keyed by node id, plus a designated root id.

    Node ids are positive integers. An internal node has its player (1 or
    2) in `controller` and its child ids in `children`; a leaf has, in
    `leaf`, the index of its payoff in `payoffs`, which leaves with equal
    payoffs may share. Child order is significant: the first child is the
    "left" one everywhere (binarization, tie-breaking). Nodes may share
    children (a game DAG); parsing and validate() require a tree. Columns
    are dicts, so sparse or huge ids cost no more than small ones; they
    are not changed once made, and games made from others share them.
    """

    root: int
    controller: dict[int, int]
    children: dict[int, tuple[int, ...]]
    leaf: dict[int, int]
    payoffs: tuple[PayoffVector, ...]

    def __len__(self) -> int:
        """The number of nodes."""
        return len(self.children) + len(self.leaf)

    def __eq__(self, other: object) -> bool:
        """Same root, controllers, children and leaf payoffs, however each
        game lays out its payoff table."""
        if not isinstance(other, GameTree):
            return NotImplemented
        mine, theirs, their_leaf = self.payoffs, other.payoffs, other.leaf
        return (
            self.root == other.root
            and self.controller == other.controller
            and self.children == other.children
            and self.leaf.keys() == their_leaf.keys()
            and all(mine[i] == theirs[their_leaf[nid]] for nid, i in self.leaf.items())
        )

    @cached_property
    def _post_order(self) -> tuple[int, ...]:
        # On a tree, a preorder that takes children last to first, reversed,
        # is the post-order that takes them first to last. A shared node
        # makes the walk longer than the node count; it then stops, and the
        # DAG gets a depth-first walk that emits each node once.
        children = self.children
        order: list[int] = []
        stack = [self.root]
        for _ in range(len(self)):
            if not stack:
                break
            nid = stack.pop()
            order.append(nid)
            kids = children.get(nid)
            if kids:
                stack.extend(kids)
        if stack:
            return _dag_post_order(children, self.root)
        order.reverse()
        return tuple(order)

    def post_order(self) -> Iterator[int]:
        """Yield each node id reachable from the root once, children first
        (first to last); requires a tree or a DAG (no cycles)."""
        return iter(self._post_order)

    def internal_ids(self) -> list[int]:
        return [i for i in self._post_order if i in self.children]

    def leaf_ids(self) -> list[int]:
        return [i for i in self._post_order if i in self.leaf]

    def is_binary(self) -> bool:
        return all(len(kids) == 2 for kids in self.children.values())

    def depth(self) -> int:
        """Longest root-to-leaf path, counted in edges."""
        depths: dict[int, int] = {}
        for nid in self._post_order:
            kids = self.children.get(nid)
            depths[nid] = 0 if kids is None else 1 + max(depths[c] for c in kids)
        return depths[self.root]


def _dag_post_order(children: dict[int, tuple[int, ...]], root: int) -> tuple[int, ...]:
    order: list[int] = []
    seen: set[int] = set()
    stack: list[tuple[int, bool]] = [(root, False)]
    while stack:
        nid, expanded = stack.pop()
        if expanded:
            order.append(nid)
        elif nid not in seen:
            seen.add(nid)
            kids = children.get(nid)
            if kids is None:
                order.append(nid)
            else:
                stack.append((nid, True))
                stack.extend((c, False) for c in reversed(kids))
    return tuple(order)


@dataclass(frozen=True)
class Strategy:
    """A move per internal node.

    `pure[node]` is the child a node plays with probability one, and
    `mixed[node]` lists the (child, probability) pairs of a node that
    plays otherwise; probabilities are exact and should sum to one per
    node. Zero-probability children may be listed but are dropped when
    serializing.
    """

    pure: dict[int, int]
    mixed: dict[int, tuple[tuple[int, Rational], ...]] = field(default_factory=dict)

    def is_pure(self) -> bool:
        return all(
            sum(1 for _, pr in entries if pr != 0) == 1
            and all(pr in (0, 1) for _, pr in entries)
            for entries in self.mixed.values()
        )


# -- validation ---------------------------------------------------------------


def validate(tree: GameTree) -> list[str]:
    """Return all structural violations; an empty list means the tree is valid.

    Checks: declared root, no dangling child references, single parenthood,
    acyclicity, reachability of every declared node, and internal arity >= 2.
    """
    violations: list[str] = []
    children = tree.children
    declared = children.keys() | tree.leaf.keys()
    if tree.root not in declared:
        violations.append(f"root {tree.root} is not a declared node")
        return violations

    parents: dict[int, int] = {}
    for nid in sorted(children):
        kids = children[nid]
        if len(kids) < 2:
            violations.append(f"internal node {nid} arity < 2")
        for child in kids:
            if child not in declared:
                violations.append(f"node {nid} references undeclared child {child}")
            elif child in parents:
                violations.append(
                    f"node {child} has multiple parents ({parents[child]} and {nid})"
                )
            else:
                parents[child] = nid

    # Cycle check over the child graph (independent of the parent map so a
    # broken tree still gets a precise report), on each node's declared
    # children, listed once so that a wide node is not re-filtered per step.
    WHITE, GRAY, BLACK = 0, 1, 2
    color = dict.fromkeys(declared, WHITE)
    declared_kids = {
        nid: tuple(c for c in kids if c in declared) for nid, kids in children.items()
    }
    for start in sorted(declared):
        if color[start] != WHITE:
            continue
        stack: list[tuple[int, int]] = [(start, 0)]
        color[start] = GRAY
        while stack:
            nid, idx = stack[-1]
            kids = declared_kids.get(nid, ())
            if idx == len(kids):
                color[nid] = BLACK
                stack.pop()
                continue
            stack[-1] = (nid, idx + 1)
            child = kids[idx]
            if color[child] == GRAY:
                violations.append(f"cycle detected involving node {child}")
                color[child] = BLACK
            elif color[child] == WHITE:
                color[child] = GRAY
                stack.append((child, 0))

    if not any(v.startswith("cycle") for v in violations):
        reachable = set()
        frontier = [tree.root]
        while frontier:
            nid = frontier.pop()
            if nid in reachable or nid not in declared:
                continue
            reachable.add(nid)
            frontier.extend(children.get(nid, ()))
        for nid in sorted(declared):
            if nid not in reachable:
                violations.append(f"node {nid} unreachable from root {tree.root}")
    if tree.root in parents:
        violations.append(f"root {tree.root} has a parent ({parents[tree.root]})")
    return violations


def _hard_violations(violations: list[str]) -> list[str]:
    # Arity-1 nodes are tolerated at parse time: generated trees may contain
    # forced single moves, which the solvers pass through.
    return [v for v in violations if "arity < 2" not in v]


# -- .gtree text format -------------------------------------------------------
#
# Both text formats are read in one pass over each line's `str.split()`
# tokens, which checks them and writes the columns. A token's column is
# worked out only when an error is raised, by re-scanning its line.


_TOKEN_RE = re.compile(r"\S+")


def _content(lines: list[str], kind: str) -> Iterator[tuple[int, str, list[str]]]:
    """(line number, line, tokens before any comment) of each non-blank line
    after the `<kind> v1` header."""
    content = (
        (lineno, raw, tokens)
        for lineno, raw in enumerate(lines, start=1)
        if (tokens := raw.partition("#")[0].split() if "#" in raw else raw.split())
    )
    header = next(content, None)
    if header is None:
        raise GtreeParseError(f"empty input, expected header '{kind} v1'", 1, 1)
    if header[2] != [kind, "v1"]:
        raise _error(f"expected header '{kind} v1'", header[0], header[1])
    return content


def _error(message: str, lineno: int, line: str, k: int = 0) -> GtreeParseError:
    """An error located at the k-th token of a line; a trailing comment does
    not move the tokens before it."""
    match = next(itertools.islice(_TOKEN_RE.finditer(line), k, None))
    return GtreeParseError(message, lineno, match.start() + 1)


def _positive_int(tokens: list[str], k: int, what: str, lineno: int, body: str) -> int:
    token = tokens[k]
    if token.isdigit() and token.isascii():
        try:
            value = int(token)
        except ValueError as exc:  # more digits than int() converts
            raise _error(f"{what}: {exc}", lineno, body, k) from None
        if value:
            return value
    raise _error(f"{what} must be a positive integer, got {token!r}", lineno, body, k)


def _rational(
    tokens: list[str], k: int, interned: dict[str, Rational], lineno: int, body: str
) -> Rational:
    """The k-th token as a rational; equal tokens share one value."""
    token = tokens[k]
    value = interned.get(token)
    if value is None:
        try:
            value = interned[token] = parse_rational(token)
        except ValueError as exc:
            raise _error(str(exc), lineno, body, k) from None
    return value


def _is_tree(tree: GameTree) -> bool:
    """Linear-time test that validate() reports no hard violation.

    If every child is declared, no child is listed twice, there are n - 1
    child references and the root is not among them, every other node has
    exactly one parent. The post-order walk from the root, which the tree
    keeps, then rules out cycles by reaching all n nodes.
    """
    children, leaf = tree.children, tree.leaf
    kids = list(itertools.chain.from_iterable(children.values()))
    distinct = set(kids)
    if (
        (tree.root not in children and tree.root not in leaf)
        or tree.root in distinct
        or len(kids) != len(tree) - 1
        or len(distinct) != len(kids)
        or distinct.difference(children).difference(leaf)
    ):
        return False
    return len(tree._post_order) == len(tree)


def parse_game_tree(text: str) -> GameTree:
    """Parse `.gtree` text into a validated GameTree.

    Raises GtreeParseError on syntax problems, duplicate ids, a missing or
    repeated root declaration, dangling child references, shared or cyclic
    children, and unreachable nodes. Single-child internal nodes are
    accepted here; validate() still reports them.

    Parsing takes time linear in the text: one pass over its tokens and a
    linear structural check, with validate() run only to word an error.
    Leaves whose payoff tokens are equal share one payoff index, in order
    of first appearance, and equal rational tokens share one value.
    """
    lines = text.splitlines()
    controller: dict[int, int] = {}
    children: dict[int, tuple[int, ...]] = {}
    leaf: dict[int, int] = {}
    index: dict[tuple[str, str], int] = {}
    payoffs: list[PayoffVector] = []
    root: int | None = None
    rationals: dict[str, Rational] = {}
    for lineno, body, tokens in _content(lines, "gtree"):
        word = tokens[0]
        if word == "node":
            if len(tokens) < 6 or tokens[2] != "player" or tokens[4] != "children":
                raise _error(
                    "expected 'node <id> player <1|2> children <id> [...]'", lineno, body
                )
            nid = _positive_int(tokens, 1, "node id", lineno, body)
            if nid in children or nid in leaf:
                raise _error(f"duplicate id {nid}", lineno, body, 1)
            player = tokens[3]
            if player != "1" and player != "2":
                raise _error(f"player must be 1 or 2, got {player!r}", lineno, body, 3)
            controller[nid] = 1 if player == "1" else 2
            children[nid] = tuple(
                [_positive_int(tokens, k, "child id", lineno, body) for k in range(5, len(tokens))]
            )
        elif word == "leaf":
            if len(tokens) != 5 or tokens[2] != "payoff":
                raise _error("expected 'leaf <id> payoff <rat> <rat>'", lineno, body)
            nid = _positive_int(tokens, 1, "leaf id", lineno, body)
            if nid in children or nid in leaf:
                raise _error(f"duplicate id {nid}", lineno, body, 1)
            key = (tokens[3], tokens[4])
            i = index.get(key)
            if i is None:
                p1 = _rational(tokens, 3, rationals, lineno, body)
                p2 = _rational(tokens, 4, rationals, lineno, body)
                i = index[key] = len(payoffs)
                payoffs.append(PayoffVector(p1, p2))
            leaf[nid] = i
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
    tree = GameTree(root, controller, children, leaf, tuple(payoffs))
    if not _is_tree(tree):
        hard = _hard_violations(validate(tree))
        raise GtreeParseError("; ".join(hard), len(lines) or 1, 1)
    return tree


def serialize_game_tree(tree: GameTree) -> str:
    """Render canonical `.gtree` text: header, root, then nodes ascending by id.

    Each entry of the payoff table is formatted once, however many leaves
    share it.
    """
    out = ["gtree v1", f"root {tree.root}"]
    controller, children, leaf = tree.controller, tree.children, tree.leaf
    payoffs = [str(p) for p in tree.payoffs]
    for nid in sorted(itertools.chain(children, leaf)):
        kids = children.get(nid)
        if kids is None:
            out.append(f"leaf {nid} payoff {payoffs[leaf[nid]]}")
        else:
            out.append(f"node {nid} player {controller[nid]} children {' '.join(map(str, kids))}")
    return "\n".join(out) + "\n"


# -- strategy text format -----------------------------------------------------


def parse_strategy(text: str) -> Strategy:
    """Parse strategy text (`strategy v1`, then one `at` line per node).

    A single child with probability one is stored as a pure choice. Like
    parse_game_tree, one pass over the tokens; equal probability tokens
    share one value.
    """
    lines = text.splitlines()
    pure: dict[int, int] = {}
    mixed: dict[int, tuple[tuple[int, Rational], ...]] = {}
    rationals: dict[str, Rational] = {}
    for lineno, body, tokens in _content(lines, "strategy"):
        if tokens[0] != "at":
            raise _error(f"expected 'at', got {tokens[0]!r}", lineno, body)
        if len(tokens) < 6 or tokens[2] != "choose":
            raise _error(
                "expected 'at <id> choose <child> prob <rat> [<child> prob <rat> ...]'",
                lineno,
                body,
            )
        nid = _positive_int(tokens, 1, "node id", lineno, body)
        if nid in pure or nid in mixed:
            raise _error(f"duplicate 'at {nid}' line", lineno, body)
        if len(tokens) % 3:
            raise _error("incomplete '<child> prob <rat>' group", lineno, body)
        if len(tokens) == 6 and tokens[4] == "prob" and tokens[5] == "1":
            pure[nid] = _positive_int(tokens, 3, "child id", lineno, body)
            continue
        entries = []
        for k in range(3, len(tokens), 3):
            if tokens[k + 1] != "prob":
                raise _error(f"expected 'prob', got {tokens[k + 1]!r}", lineno, body, k + 1)
            child = _positive_int(tokens, k, "child id", lineno, body)
            entries.append((child, _rational(tokens, k + 2, rationals, lineno, body)))
        if len(entries) == 1 and entries[0][1] == 1:
            pure[nid] = entries[0][0]
        else:
            mixed[nid] = tuple(entries)
    return Strategy(pure, mixed)


def serialize_strategy(strategy: Strategy) -> str:
    """Canonical strategy text: nodes ascending, children ascending, zeros dropped."""
    out = ["strategy v1"]
    pure, mixed = strategy.pure, strategy.mixed
    for nid in sorted(pure.keys() | mixed.keys()):
        child = pure.get(nid)
        if child is not None:
            out.append(f"at {nid} choose {child} prob 1")
            continue
        parts = []
        for child, p in sorted(mixed[nid]):
            t = format_rational(p)
            if t != "0":
                parts.append(f"{child} prob {t}")
        out.append(f"at {nid} choose " + " ".join(parts))
    return "\n".join(out) + "\n"


def check_strategy(tree: GameTree, strategy: Strategy) -> list[str]:
    """Report problems that make a strategy unusable for this tree."""
    problems = []
    children = tree.children
    pure, mixed = strategy.pure, strategy.mixed
    for nid in tree.internal_ids():
        kids = children[nid]
        child = pure.get(nid)
        if child is not None:
            if child not in kids:
                problems.append(f"node {nid}: {child} is not a child")
            continue
        entries = mixed.get(nid)
        if entries is None:
            problems.append(f"no entry for internal node {nid}")
            continue
        total = 0
        for child, prob in entries:
            if child not in kids:
                problems.append(f"node {nid}: {child} is not a child")
            if prob < 0:
                problems.append(f"node {nid}: negative probability for child {child}")
            total += prob
        if total != 1:
            problems.append(f"node {nid}: probabilities sum to {total}, not 1")
    return problems


# -- binarization -------------------------------------------------------------


def binarize(tree: GameTree) -> GameTree:
    """Rewrite the tree so every internal node has exactly two children.

    A node with m >= 3 children becomes a left-leaning chain of m - 1
    two-child nodes with the same controller: the original node keeps its id
    and its first child; each fresh chain node takes the next child on the
    left, and the last chain node holds the final two. Fresh ids are assigned
    contiguously above the existing maximum, following ascending original-id
    order. Single-child nodes (forced moves) are spliced out entirely. The
    leaves, and their columns, are the tree's own.
    """
    controller, children = tree.controller, tree.children

    def resolve(nid: int) -> int:
        # Follow forced single-child chains down to a real choice or a leaf.
        seen = set()
        while True:
            kids = children.get(nid)
            if kids is None or len(kids) != 1:
                return nid
            if nid in seen:
                raise ValueError(f"cycle of single-child nodes at {nid}")
            seen.add(nid)
            nid = kids[0]

    new_controller, new_children = {}, {}
    next_id = max(itertools.chain(children, tree.leaf)) + 1
    for nid in sorted(children):
        kids = children[nid]
        if len(kids) == 1:
            continue  # spliced
        x = controller[nid]
        kids = [resolve(c) for c in kids]
        head = nid
        while len(kids) > 2:
            chain = next_id
            next_id += 1
            new_controller[head] = x
            new_children[head] = (kids[0], chain)
            head = chain
            kids = kids[1:]
        new_controller[head] = x
        new_children[head] = tuple(kids)
    return GameTree(resolve(tree.root), new_controller, new_children, tree.leaf, tree.payoffs)


# -- unfolding ------------------------------------------------------------------


def _unfolded_sizes(game: GameTree) -> dict[int, tuple[int, int]]:
    """Per node, the node and leaf counts of the tree it unfolds to."""
    children = game.children
    sizes: dict[int, tuple[int, int]] = {}
    for nid in game.post_order():
        kids = children.get(nid)
        if kids is None:
            sizes[nid] = (1, 1)
            continue
        nodes, leaves = 1, 0
        for child in kids:
            n, k = sizes[child]
            nodes += n
            leaves += k
        sizes[nid] = (nodes, leaves)
    return sizes


def tree_sizes(game: GameTree) -> tuple[int, int]:
    """`len(tree)` and `len(binarize(tree))` of the tree that a game (a
    tree or a DAG) unfolds to, counted over its distinct nodes in one walk.

    binarize() splices out one-child nodes and leaves every other internal
    node binary, so a tree of k leaves binarizes to 2k - 1 nodes.
    """
    nodes, leaves = _unfolded_sizes(game)[game.root]
    return nodes, 2 * leaves - 1


def unfold(game: GameTree) -> GameTree:
    """The tree a game DAG stands for: one node per path from the root.

    Ids run 1, 2, ... in preorder, children first to last; leaves keep the
    game's payoff indices and table.
    """
    g_controller, g_children, g_leaf = game.controller, game.children, game.leaf
    sizes = {nid: nodes for nid, (nodes, _) in _unfolded_sizes(game).items()}
    controller, children, leaf = {}, {}, {}
    stack = [(game.root, 1)]
    pop, push = stack.pop, stack.append
    while stack:
        source, nid = pop()
        kids = g_children.get(source)
        if kids is None:
            leaf[nid] = g_leaf[source]
            continue
        ids = []
        nxt = nid + 1
        for child in kids:
            ids.append(nxt)
            push((child, nxt))
            nxt += sizes[child]
        controller[nid] = g_controller[source]
        children[nid] = tuple(ids)
    return GameTree(1, controller, children, leaf, game.payoffs)


# -- strategy value and equilibrium check -------------------------------------


def evaluate(tree: GameTree, strategy: Strategy) -> dict[int, PayoffVector]:
    """Exact expected payoff vector of every node's subtree under `strategy`.

    A leaf's value is its payoff; an internal node's value is the
    probability-weighted sum of its children's values. A pure choice
    passes its child's value through unchanged. Raises
    MissingStrategyError if the strategy lacks an entry for some internal
    node, and ValueError if an entry names a non-child.
    """
    children, leaf, payoffs = tree.children, tree.leaf, tree.payoffs
    pure, mixed = strategy.pure, strategy.mixed
    values: dict[int, PayoffVector] = {}
    for nid in tree.post_order():
        kids = children.get(nid)
        if kids is None:
            values[nid] = payoffs[leaf[nid]]
            continue
        child = pure.get(nid)
        if child is not None:
            if child not in kids:
                raise ValueError(f"strategy at node {nid} names non-child {child}")
            values[nid] = values[child]
            continue
        entries = mixed.get(nid)
        if entries is None:
            raise MissingStrategyError(f"strategy has no entry for internal node {nid}")
        p1 = p2 = 0
        for child, prob in entries:
            if child not in kids:
                raise ValueError(f"strategy at node {nid} names non-child {child}")
            if prob == 0:
                continue
            v = values[child]
            p1 += prob * v.p1
            p2 += prob * v.p2
        values[nid] = PayoffVector(p1, p2)
    return values


class EquilibriumCheck(NamedTuple):
    ok: bool
    witness: int | None  # deepest violating node in post-order, if any
    value: PayoffVector  # the strategy's value at the root


def is_equilibrium(tree: GameTree, strategy: Strategy) -> EquilibriumCheck:
    """Check local optimality at every node.

    The controller of node i must not be able to improve their own component
    of the node's value by deviating to any single child, i.e.
    value(i) >= value(j) for every child j, in the controller's component.
    Returns the deepest violating node (post-order) as witness on failure,
    and the root value either way.
    """
    values = evaluate(tree, strategy)
    value = values[tree.root]
    controller, children = tree.controller, tree.children
    for nid in tree.post_order():
        kids = children.get(nid)
        if kids is None:
            continue
        x = controller[nid]
        mine = values[nid]
        own = mine.p1 if x == 1 else mine.p2
        for child in kids:
            v = values[child]
            # The child whose value object is the node's own cannot beat it.
            if v is not mine and (v.p1 if x == 1 else v.p2) > own:
                return EquilibriumCheck(False, nid, value)
    return EquilibriumCheck(True, None, value)
