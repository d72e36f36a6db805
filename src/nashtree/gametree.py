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
        order: list[int] = []
        stack: list[tuple[int, bool]] = [(self.root, False)]
        while stack:
            nid, expanded = stack.pop()
            if expanded:
                order.append(nid)
                continue
            stack.append((nid, True))
            node = self.nodes[nid]
            if isinstance(node, Internal):
                for child in reversed(node.children):
                    stack.append((child, False))
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


_TOKEN_RE = re.compile(r"\S+")


def _tokenize(text: str) -> list[list[tuple[str, int, int]]]:
    lines = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0]
        lines.append(
            [(m.group(0), lineno, m.start() + 1) for m in _TOKEN_RE.finditer(body)]
        )
    return lines


_DIGITS_RE = re.compile(r"[0-9]+")


def _parse_positive_int(token: str, lineno: int, col: int, what: str) -> int:
    try:
        value = int(token) if _DIGITS_RE.fullmatch(token) else 0
    except ValueError as exc:  # more digits than int() converts
        raise GtreeParseError(f"{what}: {exc}", lineno, col) from None
    if value <= 0:
        raise GtreeParseError(f"{what} must be a positive integer, got {token!r}", lineno, col)
    return value


def parse_game_tree(text: str) -> GameTree:
    """Parse `.gtree` text into a validated GameTree.

    Raises GtreeParseError on syntax problems, duplicate ids, a missing or
    repeated root declaration, dangling child references, shared or cyclic
    children, and unreachable nodes. Single-child internal nodes are
    accepted here; validate() still reports them.
    """
    lines = _tokenize(text)
    nodes: dict[int, Node] = {}
    root: int | None = None
    seen_header = False
    for tokens in lines:
        if not tokens:
            continue
        word, lineno, col = tokens[0]
        if not seen_header:
            if word != "gtree" or len(tokens) != 2 or tokens[1][0] != "v1":
                raise GtreeParseError("expected header 'gtree v1'", lineno, col)
            seen_header = True
            continue
        if word == "root":
            if len(tokens) != 2:
                raise GtreeParseError("expected 'root <id>'", lineno, col)
            if root is not None:
                raise GtreeParseError("duplicate root declaration", lineno, col)
            root = _parse_positive_int(tokens[1][0], tokens[1][1], tokens[1][2], "root id")
        elif word == "node":
            if len(tokens) < 6 or tokens[2][0] != "player" or tokens[4][0] != "children":
                raise GtreeParseError(
                    "expected 'node <id> player <1|2> children <id> [...]'", lineno, col
                )
            nid = _parse_positive_int(tokens[1][0], tokens[1][1], tokens[1][2], "node id")
            if nid in nodes:
                raise GtreeParseError(f"duplicate id {nid}", tokens[1][1], tokens[1][2])
            ptok, plin, pcol = tokens[3]
            if ptok not in ("1", "2"):
                raise GtreeParseError(f"player must be 1 or 2, got {ptok!r}", plin, pcol)
            children = tuple(
                _parse_positive_int(t, ln, c, "child id") for t, ln, c in tokens[5:]
            )
            nodes[nid] = Internal(int(ptok), children)
        elif word == "leaf":
            if len(tokens) != 5 or tokens[2][0] != "payoff":
                raise GtreeParseError("expected 'leaf <id> payoff <rat> <rat>'", lineno, col)
            nid = _parse_positive_int(tokens[1][0], tokens[1][1], tokens[1][2], "leaf id")
            if nid in nodes:
                raise GtreeParseError(f"duplicate id {nid}", tokens[1][1], tokens[1][2])
            payoffs = []
            for t, ln, c in tokens[3:5]:
                try:
                    payoffs.append(parse_rational(t))
                except ValueError as exc:
                    raise GtreeParseError(str(exc), ln, c) from None
            nodes[nid] = Leaf(PayoffVector(payoffs[0], payoffs[1]))
        else:
            raise GtreeParseError(f"unknown directive {word!r}", lineno, col)
    if not seen_header:
        raise GtreeParseError("empty input, expected header 'gtree v1'", 1, 1)
    if root is None:
        raise GtreeParseError("missing root declaration", len(lines) or 1, 1)
    tree = GameTree(root, nodes)
    hard = _hard_violations(validate(tree))
    if hard:
        raise GtreeParseError("; ".join(hard), len(lines) or 1, 1)
    return tree


def serialize_game_tree(tree: GameTree) -> str:
    """Render canonical `.gtree` text: header, root, then nodes ascending by id."""
    out = ["gtree v1", f"root {tree.root}"]
    for nid in sorted(tree.nodes):
        node = tree.nodes[nid]
        if isinstance(node, Internal):
            kids = " ".join(str(c) for c in node.children)
            out.append(f"node {nid} player {node.controller} children {kids}")
        else:
            out.append(f"leaf {nid} payoff {node.payoff}")
    return "\n".join(out) + "\n"


# -- strategy text format -----------------------------------------------------


def parse_strategy(text: str) -> Strategy:
    """Parse strategy text (`strategy v1`, then one `at` line per node)."""
    lines = _tokenize(text)
    choices: dict[int, tuple[tuple[int, Fraction], ...]] = {}
    seen_header = False
    for tokens in lines:
        if not tokens:
            continue
        word, lineno, col = tokens[0]
        if not seen_header:
            if word != "strategy" or len(tokens) != 2 or tokens[1][0] != "v1":
                raise GtreeParseError("expected header 'strategy v1'", lineno, col)
            seen_header = True
            continue
        if word != "at":
            raise GtreeParseError(f"expected 'at', got {word!r}", lineno, col)
        if len(tokens) < 6 or tokens[2][0] != "choose":
            raise GtreeParseError(
                "expected 'at <id> choose <child> prob <rat> [<child> prob <rat> ...]'",
                lineno,
                col,
            )
        nid = _parse_positive_int(tokens[1][0], tokens[1][1], tokens[1][2], "node id")
        if nid in choices:
            raise GtreeParseError(f"duplicate 'at {nid}' line", lineno, col)
        rest = tokens[3:]
        if len(rest) % 3 != 0:
            raise GtreeParseError("incomplete '<child> prob <rat>' group", lineno, col)
        entries = []
        for k in range(0, len(rest), 3):
            ctok, clin, ccol = rest[k]
            kw, klin, kcol = rest[k + 1]
            rtok, rlin, rcol = rest[k + 2]
            if kw != "prob":
                raise GtreeParseError(f"expected 'prob', got {kw!r}", klin, kcol)
            child = _parse_positive_int(ctok, clin, ccol, "child id")
            try:
                prob = parse_rational(rtok)
            except ValueError as exc:
                raise GtreeParseError(str(exc), rlin, rcol) from None
            entries.append((child, prob))
        choices[nid] = tuple(entries)
    if not seen_header:
        raise GtreeParseError("empty input, expected header 'strategy v1'", 1, 1)
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
