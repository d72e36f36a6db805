"""Two-player game trees with exact rational payoffs.

A tree is a rooted structure whose internal nodes are controlled by
player 1 or player 2 and whose leaves carry one exact payoff per player.
This module owns the data model, the `.gtree` and strategy text formats,
structural validation, binarization to two-child form, expected-value
computation for (possibly stochastic) strategies, and the local-optimality
check that defines a subgame perfect equilibrium.

All arithmetic is done with `fractions.Fraction`; ties between payoffs
are meaningful and must be exact, so no floating point is used anywhere.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterator, NamedTuple, Union

from .rationals import format_rational, parse_rational

ONE = Fraction(1)


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

    p1: Fraction
    p2: Fraction

    def component(self, player: int) -> Fraction:
        if player == 1:
            return self.p1
        if player == 2:
            return self.p2
        raise ValueError(f"player index must be 1 or 2, got {player}")

    def __str__(self) -> str:
        return f"{format_rational(self.p1)} {format_rational(self.p2)}"


@dataclass(frozen=True, slots=True)
class Internal:
    controller: int
    children: tuple[int, ...]


@dataclass(frozen=True, slots=True)
class Leaf:
    payoff: PayoffVector


Node = Union[Internal, Leaf]


@dataclass(frozen=True)
class GameTree:
    """An indexed node collection plus a designated root id.

    Node ids are positive integers. Child order is significant: the first
    child is the "left" one everywhere (binarization, tie-breaking).
    """

    root: int
    nodes: dict[int, Node]

    @cached_property
    def _post_order(self) -> tuple[int, ...]:
        # A preorder that takes children last to first, reversed, is the
        # post-order that takes them first to last.
        nodes = self.nodes
        order: list[int] = []
        stack = [self.root]
        while stack:
            nid = stack.pop()
            order.append(nid)
            node = nodes[nid]
            if isinstance(node, Internal):
                stack.extend(node.children)
        order.reverse()
        return tuple(order)

    def post_order(self) -> Iterator[int]:
        """Yield node ids children-first; requires a validated tree."""
        return iter(self._post_order)

    def internal_ids(self) -> list[int]:
        return [i for i in self._post_order if isinstance(self.nodes[i], Internal)]

    def leaf_ids(self) -> list[int]:
        return [i for i in self._post_order if isinstance(self.nodes[i], Leaf)]

    def is_binary(self) -> bool:
        return all(
            len(n.children) == 2
            for n in self.nodes.values()
            if isinstance(n, Internal)
        )

    def depth(self) -> int:
        """Longest root-to-leaf path, counted in edges."""
        depths: dict[int, int] = {}
        for nid in self._post_order:
            node = self.nodes[nid]
            if isinstance(node, Leaf):
                depths[nid] = 0
            else:
                depths[nid] = 1 + max(depths[c] for c in node.children)
        return depths[self.root]


@dataclass(frozen=True)
class Strategy:
    """Per-internal-node probability distribution over children.

    `choices[node]` lists (child, probability) pairs; probabilities are
    exact and should sum to one per node. Zero-probability children may be
    listed but are dropped when serializing.
    """

    choices: dict[int, tuple[tuple[int, Fraction], ...]]

    def is_pure(self) -> bool:
        return all(
            sum(1 for _, pr in entries if pr != 0) == 1
            and all(pr in (0, ONE) for _, pr in entries)
            for entries in self.choices.values()
        )


def pure_strategy(choice_per_node: dict[int, int]) -> Strategy:
    return Strategy({nid: ((child, ONE),) for nid, child in choice_per_node.items()})


# -- validation ---------------------------------------------------------------


def validate(tree: GameTree) -> list[str]:
    """Return all structural violations; an empty list means the tree is valid.

    Checks: declared root, no dangling child references, single parenthood,
    acyclicity, reachability of every declared node, and internal arity >= 2.
    """
    violations: list[str] = []
    nodes = tree.nodes
    if tree.root not in nodes:
        violations.append(f"root {tree.root} is not a declared node")
        return violations

    parents: dict[int, int] = {}
    for nid, node in sorted(nodes.items()):
        if not isinstance(node, Internal):
            continue
        if len(node.children) < 2:
            violations.append(f"internal node {nid} arity < 2")
        for child in node.children:
            if child not in nodes:
                violations.append(f"node {nid} references undeclared child {child}")
            elif child in parents:
                violations.append(
                    f"node {child} has multiple parents ({parents[child]} and {nid})"
                )
            else:
                parents[child] = nid

    # Cycle check over the child graph (independent of the parent map so a
    # broken tree still gets a precise report).
    WHITE, GRAY, BLACK = 0, 1, 2
    color = {nid: WHITE for nid in nodes}
    for start in sorted(nodes):
        if color[start] != WHITE:
            continue
        stack: list[tuple[int, int]] = [(start, 0)]
        color[start] = GRAY
        while stack:
            nid, idx = stack[-1]
            node = nodes[nid]
            children = node.children if isinstance(node, Internal) else ()
            children = tuple(c for c in children if c in nodes)
            if idx == len(children):
                color[nid] = BLACK
                stack.pop()
                continue
            stack[-1] = (nid, idx + 1)
            child = children[idx]
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
            if nid in reachable or nid not in nodes:
                continue
            reachable.add(nid)
            node = nodes[nid]
            if isinstance(node, Internal):
                frontier.extend(node.children)
        for nid in sorted(nodes):
            if nid not in reachable:
                violations.append(f"node {nid} unreachable from root {tree.root}")
    if tree.root in parents:
        violations.append(f"root {tree.root} has a parent ({parents[tree.root]})")
    return violations


def _hard_violations(violations: list[str]) -> list[str]:
    # Arity-1 nodes are tolerated at parse time: generated trees may contain
    # forced single moves, which binarize() later splices out.
    return [v for v in violations if "arity < 2" not in v]


# -- .gtree text format -------------------------------------------------------
#
# Both parsers make one pass over `str.split()` tokens. A token's column is
# worked out only when an error is raised, by re-scanning its line.


_TOKEN_RE = re.compile(r"\S+")


def _content(lines: list[str]) -> Iterator[tuple[int, str, list[str]]]:
    """(line number, line without its comment, tokens) of each non-blank line."""
    for lineno, raw in enumerate(lines, start=1):
        body = raw.partition("#")[0]
        tokens = body.split()
        if tokens:
            yield lineno, body, tokens


def _error(message: str, lineno: int, body: str, k: int = 0) -> GtreeParseError:
    """An error located at the k-th token of a line."""
    match = next(itertools.islice(_TOKEN_RE.finditer(body), k, None))
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
    tokens: list[str], k: int, interned: dict[str, Fraction], lineno: int, body: str
) -> Fraction:
    """The k-th token as a rational; equal tokens share one Fraction."""
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
    nodes = tree.nodes
    children = [c for node in nodes.values() if isinstance(node, Internal) for c in node.children]
    distinct = set(children)
    if (
        tree.root not in nodes
        or tree.root in distinct
        or len(children) != len(nodes) - 1
        or len(distinct) != len(children)
        or not nodes.keys() >= distinct
    ):
        return False
    return len(tree._post_order) == len(nodes)


def parse_game_tree(text: str) -> GameTree:
    """Parse `.gtree` text into a validated GameTree.

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
    tree = GameTree(root, nodes)
    if not _is_tree(tree):
        hard = _hard_violations(validate(tree))
        raise GtreeParseError("; ".join(hard), len(lines) or 1, 1)
    return tree


def serialize_game_tree(tree: GameTree) -> str:
    """Render canonical `.gtree` text: header, root, then nodes ascending by id.

    Each payoff object is formatted once, however many leaves share it.
    """
    out = ["gtree v1", f"root {tree.root}"]
    nodes = tree.nodes
    payoffs: dict[int, str] = {}
    for nid in sorted(nodes):
        node = nodes[nid]
        if isinstance(node, Internal):
            kids = " ".join(map(str, node.children))
            out.append(f"node {nid} player {node.controller} children {kids}")
        else:
            payoff = payoffs.get(id(node.payoff))
            if payoff is None:
                payoff = payoffs[id(node.payoff)] = str(node.payoff)
            out.append(f"leaf {nid} payoff {payoff}")
    return "\n".join(out) + "\n"


# -- strategy text format -----------------------------------------------------


def parse_strategy(text: str) -> Strategy:
    """Parse strategy text (`strategy v1`, then one `at` line per node).

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
    return Strategy(choices)


def serialize_strategy(strategy: Strategy) -> str:
    """Canonical strategy text: nodes ascending, children ascending, zeros dropped."""
    out = ["strategy v1"]
    for nid in sorted(strategy.choices):
        entries = sorted((c, p) for c, p in strategy.choices[nid] if p != 0)
        parts = " ".join(f"{c} prob {format_rational(p)}" for c, p in entries)
        out.append(f"at {nid} choose {parts}")
    return "\n".join(out) + "\n"


def check_strategy(tree: GameTree, strategy: Strategy) -> list[str]:
    """Report problems that make a strategy unusable for this tree."""
    problems = []
    for nid in tree.internal_ids():
        entries = strategy.choices.get(nid)
        if entries is None:
            problems.append(f"no entry for internal node {nid}")
            continue
        node = tree.nodes[nid]
        if len(entries) == 1 and entries[0][1] == 1:
            if entries[0][0] not in node.children:
                problems.append(f"node {nid}: {entries[0][0]} is not a child")
            continue
        total = Fraction(0)
        for child, prob in entries:
            if child not in node.children:
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
    order. Single-child nodes (forced moves) are spliced out entirely.
    """
    nodes = tree.nodes

    def resolve(nid: int) -> int:
        # Follow forced single-child chains down to a real choice or a leaf.
        seen = set()
        while True:
            node = nodes[nid]
            if not isinstance(node, Internal) or len(node.children) != 1:
                return nid
            if nid in seen:
                raise ValueError(f"cycle of single-child nodes at {nid}")
            seen.add(nid)
            nid = node.children[0]

    new_nodes: dict[int, Node] = {}
    next_id = max(nodes) + 1
    for nid in sorted(nodes):
        node = nodes[nid]
        if isinstance(node, Leaf):
            new_nodes[nid] = node
            continue
        if len(node.children) == 1:
            continue  # spliced
        kids = [resolve(c) for c in node.children]
        head = nid
        while len(kids) > 2:
            chain = next_id
            next_id += 1
            new_nodes[head] = Internal(node.controller, (kids[0], chain))
            head = chain
            kids = kids[1:]
        new_nodes[head] = Internal(node.controller, tuple(kids))
    return GameTree(resolve(tree.root), new_nodes)


# -- strategy value and equilibrium check -------------------------------------


def evaluate(tree: GameTree, strategy: Strategy) -> dict[int, PayoffVector]:
    """Exact expected payoff vector of every node's subtree under `strategy`.

    A leaf's value is its payoff; an internal node's value is the
    probability-weighted sum of its children's values. A single entry with
    probability one passes its child's value through unchanged. Raises
    MissingStrategyError if the strategy lacks an entry for some internal
    node, and ValueError if an entry names a non-child.
    """
    values: dict[int, PayoffVector] = {}
    for nid in tree.post_order():
        node = tree.nodes[nid]
        if isinstance(node, Leaf):
            values[nid] = node.payoff
            continue
        entries = strategy.choices.get(nid)
        if entries is None:
            raise MissingStrategyError(f"strategy has no entry for internal node {nid}")
        if len(entries) == 1 and entries[0][1] == 1:
            child = entries[0][0]
            if child not in node.children:
                raise ValueError(f"strategy at node {nid} names non-child {child}")
            values[nid] = values[child]
            continue
        p1 = Fraction(0)
        p2 = Fraction(0)
        for child, prob in entries:
            if child not in node.children:
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

    The controller of node i must not be able to improve her own component
    of the node's value by deviating to any single child, i.e.
    value(i) >= value(j) for every child j, in the controller's component.
    Returns the deepest violating node (post-order) as witness on failure,
    and the root value either way.
    """
    values = evaluate(tree, strategy)
    value = values[tree.root]
    for nid in tree.post_order():
        node = tree.nodes[nid]
        if isinstance(node, Leaf):
            continue
        own = values[nid].component(node.controller)
        for child in node.children:
            if values[child].component(node.controller) > own:
                return EquilibriumCheck(False, nid, value)
    return EquilibriumCheck(True, None, value)
