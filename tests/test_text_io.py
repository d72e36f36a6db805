"""The `.gtree` and strategy text formats: error positions, validation, sharing.

`tests/data/parse_errors.json` holds malformed inputs for every raise
site of `parse_game_tree` and `parse_strategy` with the exact message,
line and column they produced when the golden was recorded; the parsers
must keep reproducing them. Re-record it (only when a message change is
intended and explained) with ``PYTHONPATH=src python -m tests.test_text_io``.

The parser's linear structural check must accept and reject exactly the
trees `validate()` finds hard violations in, and parsed trees must share
payoff objects the way generated ones do.
"""

from __future__ import annotations

import json
import random

import pytest

from nashtree.gametree import (
    GameTree,
    GtreeParseError,
    Internal,
    Leaf,
    _hard_violations,
    _is_tree,
    parse_game_tree,
    parse_strategy,
    serialize_game_tree,
    serialize_strategy,
    validate,
)
from nashtree.ohoh import OhohConfig, build_tree, deal
from nashtree.solver import CRITERIA, best_nash

from .conftest import DATA
from .helpers import pv

GOLDEN = DATA / "parse_errors.json"
PARSERS = {"gtree": parse_game_tree, "strategy": parse_strategy}

LONG = "9" * 5000  # more digits than int() converts

_G = "gtree v1\nroot 1\n"
_LEAVES = "leaf 2 payoff 0 0\nleaf 3 payoff 1 1\n"

GTREE_CASES = [
    # header and empty input
    "",
    "\n\n   \n",
    "# only a comment\n\t\n",
    "gtree v2\nroot 1\nleaf 1 payoff 0 0\n",
    "gtree\nroot 1\n",
    "gtree v1 extra\nroot 1\n",
    "  root 1\nleaf 1 payoff 0 0\n",
    "\t\tgtree\tv2\n",
    "GTREE v1\n",
    # root
    "gtree v1\nroot\nleaf 1 payoff 0 0\n",
    "gtree v1\nroot 1 2\nleaf 1 payoff 0 0\n",
    "gtree v1\nroot 1\nroot 1\nleaf 1 payoff 0 0\n",
    "gtree v1\nroot 1\nleaf 1 payoff 0 0\n  root 2\n",
    "gtree v1\nroot 0\n",
    "gtree v1\nroot 000\n",
    "gtree v1\nroot -1\n",
    "gtree v1\nroot +1\n",
    "gtree v1\nroot 1.0\n",
    "gtree v1\nroot 1_0\n",
    "gtree v1\nroot x\n",
    "gtree v1\nroot ²\n",
    "gtree v1\nroot ١\n",
    "gtree v1\nroot １\n",
    "gtree v1\nroot " + LONG + "\nleaf 1 payoff 0 0\n",
    "gtree v1\n root    " + "1" * 5000 + "\nleaf 1 payoff 0 0\n",
    # node lines
    _G + "node 1 player 1 children\n",
    _G + "node 1 player 1\n",
    _G + "node\n",
    _G + "node 1 player 1 kids 2 3\n",
    _G + "node 1 plyer 1 children 2 3\n",
    _G + "node 0 player 1 children 2 3\n",
    _G + "node x player 9 children y\n",
    _G + "node " + LONG + " player 1 children 2 3\n",
    _G + "node 1 player 3 children 2 3\n",
    _G + "node 1 player 01 children 2 3\n",
    _G + "node 1 player ١ children 2 3\n",
    _G + "node 1 player 9 children x\n",
    _G + "node 1 player 1 children 2 0\n",
    _G + "node 1 player 1 children 2 -3\n",
    _G + "node 1 player 1 children 2 +3\n",
    _G + "node 1 player 1 children 2 ٣\n",
    _G + "node 1 player 1 children 2 ²\nleaf 2 payoff 0 0\n",
    _G + "node 1 player 1 children 2 " + LONG + "\n",
    _G + "node 1 player 1 children 0 x " + LONG + "\n",
    _G + "leaf 2 payoff 0 0\nnode 2 player 1 children 3 4\n",
    _G + "node 1 player 1 children 2 3\nnode 1 player 2 children 4 5\n",
    # leaf lines
    _G + "leaf 1 payoff 0\n",
    _G + "leaf 1 payoff 0 0 0\n",
    _G + "leaf 1 pay 0 0\n",
    _G + "leaf\n",
    _G + "leaf 0 payoff 0 0\n",
    _G + "leaf -1 payoff x y\n",
    _G + "leaf " + LONG + " payoff 0 0\n",
    _G + "leaf 1 payoff 0 0\nleaf 1 payoff 1 1\n",
    _G + "leaf 1 payoff x 0\n",
    _G + "leaf 1 payoff 0 y\n",
    _G + "leaf 1 payoff 0 1/0\n",
    _G + "leaf 1 payoff 1/0 x\n",
    _G + "leaf 1 payoff 0.5 0\n",
    _G + "leaf 1 payoff 1/-2 0\n",
    _G + "leaf 1 payoff 1/ 0\n",
    _G + "leaf 1 payoff /2 0\n",
    _G + "leaf 1 payoff ٣ 0\n",
    _G + "leaf 1 payoff 0 ١/2\n",
    _G + "leaf 1 payoff 1 2/²\n",
    _G + "leaf 1 payoff " + LONG + " 1/" + LONG + "0\n",
    # unknown directives
    _G + "edge 1 2\n",
    _G + "Node 1 player 1 children 2 3\n",
    _G + "\xa0\xa0nodé 1\n",
    # comments and tabs
    "gtree v1\nroot 1\n\tnode 1\tplayer\t7 children 2 3 # bad player\n",
    "gtree v1 # header\nroot 1 # the root\n  node\t1 player 2 children 2 3#x\n"
    "leaf 2 payoff 0 0#y\nleaf 3 payoff 0#z 0\n",
    "gtree v1\nroot 1\nnode 1 player 1 children 2 # 3\nleaf 2 payoff 0 0\nleaf 3 payoff 0 0\n",
    "gtree v1\nroot 1 # root 2\nleaf 1 payoff 0 0\t#\tleaf 1 payoff 0 0\nleaf 1 payoff 1 1\n",
    "#\n#\ngtree v1\n#\n\t#\nroot 1#\n\t\tleaf 1 payoff\t1/0 0\n",
    # CRLF, CR and other line separators
    "gtree v1\r\nroot 1\r\nnode 1 player 5 children 2 3\r\n",
    "gtree v1\r\nleaf 1 payoff 0 0\r\n",
    "gtree v1\rroot 1\rnode 1 player 1 children 2 3\rleaf 2 payoff 0 0\r",
    "gtree v1\r\n\r\nroot 1\r\nleaf 1 payoff 0 1/0\r\n",
    "gtree v1\u2028root 1\u2029leaf 1 payoff 0 x\x85",
    "gtree v1\x0croot 1\x1cleaf 1\x0bpayoff 0 0\x1dleaf 1 payoff 0 0\x1e",
    "gtree v1\u2028leaf 1 payoff 0 0\u2028\u2028",
    # Unicode whitespace inside lines
    "gtree v1\nroot\xa01\nnode\u30001 player\u2003 9 children 2 3\n",
    "gtree\u2009v1\nroot\x1f1\nleaf\u202f1 payoff\u205f0 \u1680zero\n",
    "gtree v1\nroot 1\nleaf 1\u200bpayoff 0 0\n",
    "\ufeffgtree v1\nroot 1\n",
    # validation, where several violations and their order matter
    _G + "node 1 player 1 children 2 3\nleaf 2 payoff 0 0\n",
    _G + "node 1 player 1 children 2 3\nnode 2 player 2 children 4 5\n"
    "node 3 player 2 children 4 6\nleaf 4 payoff 0 0\nleaf 5 payoff 1 1\n",
    _G + "node 1 player 1 children 2 3\nnode 2 player 2 children 1 3\nleaf 3 payoff 0 0\n",
    _G + "node 1 player 1 children 2 3\n" + _LEAVES
    + "node 4 player 2 children 5 6\nleaf 5 payoff 0 1\nleaf 6 payoff 1 0\n",
    "gtree v1\nroot 9\nleaf 1 payoff 0 0\n",
    "gtree v1\nroot 9\nnode 1 player 1 children 2 7\nnode 2 player 1 children 2 2\n",
    _G + "node 1 player 1 children 2 2\nleaf 2 payoff 0 0\n",
    _G + "node 1 player 1 children 2 3\n" + _LEAVES + "node 4 player 1 children 4 5\n"
    "leaf 5 payoff 0 0\n",
    _G + "node 1 player 1 children 2 3\n" + _LEAVES + "node 7 player 2 children 8 9\n"
    "node 8 player 1 children 9 7\nnode 9 player 1 children 7 8\n",
    _G + "node 1 player 1 children 2\nleaf 2 payoff 0 0\nleaf 3 payoff 0 0\n",
    _G + "node 1 player 1 children 2\nnode 2 player 2 children 3\nnode 3 player 1 children 1\n",
    "gtree v1\nroot 3\nnode 1 player 1 children 2 3\nleaf 2 payoff 0 0\nleaf 3 payoff 0 0\n",
    _G + "node 5 player 1 children 6 2\nnode 1 player 2 children 5 3\nleaf 6 payoff 0 0\n"
    "node 3 player 1 children 2 6 11\nleaf 2 payoff 0 0\n# trailing\n\n",
    _G + "node 1 player 1 children 1 2\nleaf 2 payoff 0 0\n",
    # missing root after other content
    "gtree v1\nleaf 1 payoff 0 0\n",
    "gtree v1\nleaf 1 payoff 0 0\n\n# end\n\n",
    "gtree v1",
]

_S = "strategy v1\n"

STRATEGY_CASES = [
    # header and empty input
    "",
    "\n  \n# nothing\n",
    "strategy v2\nat 1 choose 2 prob 1\n",
    "strategy\n",
    "strategy v1 v1\n",
    "at 1 choose 2 prob 1\n",
    "\t strategy v0\n",
    "gtree v1\n",
    # line shape
    _S + "foo 1 choose 2 prob 1\n",
    _S + "AT 1 choose 2 prob 1\n",
    _S + "at 1 choose 2 prob\n",
    _S + "at 1 choose 2\n",
    _S + "at\n",
    _S + "at 1 pick 2 prob 1\n",
    _S + "at 1 choose 2 prob 1 3\n",
    _S + "at 1 choose 2 prob 1 3 prob\n",
    _S + "at 1 choose 2 prob 1/2 3 p 1/2\n",
    _S + "at 1 choose 2 prob 1/2 3 prob 1/2 4 Prob 0\n",
    _S + "at 1 choose 2 PROB 1\n",
    # ids
    _S + "at 0 choose 2 prob 1\n",
    _S + "at x choose y prob z\n",
    _S + "at -4 choose 2 prob 1\n",
    _S + "at ١ choose 2 prob 1\n",
    _S + "at " + LONG + " choose 2 prob 1\n",
    _S + "at 1 choose 2 prob 1\nat 1 choose 3 prob 1\n",
    _S + "at 1 choose 0 prob 1\n",
    _S + "at 1 choose ² prob 1\n",
    _S + "at 1 choose 2 prob 1/2 " + LONG + " prob 1/2\n",
    _S + "at 1 choose 2 prob 1/2 +3 prob 1/2\n",
    # probabilities
    _S + "at 1 choose 2 prob x\n",
    _S + "at 1 choose 2 prob 1/0\n",
    _S + "at 1 choose 2 prob 0.5 3 prob 0.5\n",
    _S + "at 1 choose 2 prob 1/2 3 prob ٣/6\n",
    _S + "at 1 choose 2 prob 1/2 3 prob 1/2/2\n",
    _S + "at 1 choose 2 prob " + LONG + "/1\n",
    # comments, tabs, line separators and Unicode whitespace
    _S + "\tat 1\tchoose 2 prob 1 # fine\nat 2 choose 3 prob 1/0 # bad\n",
    _S + "at 1 choose 2 prob 1/2 3 # prob 1/2\n",
    _S + "at 1 choose 2 prob 1#\n\t\tat 1 choose 3 prob 1\n",
    "strategy v1\r\nat 1 choose 2 prob 1\r\nat 2 choose 3 prob -\r\n",
    "strategy v1\rat 1 choose 2 prob 1\rat 1 choose 2 prob 1\r",
    "strategy v1\u2028at 1 choose 2 prob 1\x85at 2\xa0choose\u30003 prob y\u2029",
    "strategy\u2003v1\nat\x1f1 choose 2\u2009prob 1 3 prob\n",
    "strategy v1\nat 1 choose 2\u200bprob 1\n",
]


def _outcome(parser: str, text: str) -> dict:
    try:
        PARSERS[parser](text)
    except GtreeParseError as exc:
        return {"message": str(exc), "line": exc.line, "column": exc.column}
    return {"accepted": True}


def golden_entries() -> list[dict]:
    cases = [("gtree", t) for t in GTREE_CASES] + [("strategy", t) for t in STRATEGY_CASES]
    return [{"parser": p, "text": t, **_outcome(p, t)} for p, t in cases]


def test_parse_errors_match_golden():
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert len(golden) == len(GTREE_CASES) + len(STRATEGY_CASES)
    for entry in golden:
        assert "accepted" not in entry, entry["text"]
        outcome = _outcome(entry["parser"], entry["text"])
        expected = {k: entry[k] for k in ("message", "line", "column")}
        assert outcome == expected, entry["text"]


# -- linear validation against validate() ---------------------------------------


def _random_tree(rng: random.Random) -> GameTree:
    """A valid m-ary tree: random recursive shape, shuffled gappy ids.

    Random recursive trees have many one-child nodes, so arity-1 chains
    are common.
    """
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
    return GameTree(ids[0], nodes)


def _unused(tree: GameTree) -> int:
    return max(tree.nodes) + 1


def _ancestors(tree: GameTree, nid: int) -> list[int]:
    parent = {c: p for p, n in tree.nodes.items() if isinstance(n, Internal) for c in n.children}
    out = []
    while nid in parent and parent[nid] not in out:  # earlier mutations may loop
        nid = parent[nid]
        out.append(nid)
    return out


def _retarget(tree: GameTree, rng: random.Random, choose) -> GameTree:
    """Point one child slot of a random internal node at `choose(tree, node id)`."""
    internal = [nid for nid, n in tree.nodes.items() if isinstance(n, Internal)]
    if not internal:
        return tree
    nid = rng.choice(internal)
    node = tree.nodes[nid]
    kids = list(node.children)
    kids[rng.randrange(len(kids))] = choose(tree, nid)
    return GameTree(tree.root, {**tree.nodes, nid: Internal(node.controller, tuple(kids))})


def _dangling(tree, rng):
    return _retarget(tree, rng, lambda t, nid: _unused(t) + rng.randrange(3))


def _shared(tree, rng):
    def choose(t, nid):
        return rng.choice([i for i in t.nodes if i != t.root] or [nid])

    return _retarget(tree, rng, choose)


def _cycle_below_root(tree, rng):
    # The last ancestor of a node in a valid tree is the root.
    return _retarget(tree, rng, lambda t, nid: rng.choice([nid] + _ancestors(t, nid)[:-1]))


def _root_with_parent(tree, rng):
    return _retarget(tree, rng, lambda t, nid: t.root)


def _unreachable(tree, rng):
    base = _unused(tree)
    extra = _random_tree(rng)
    shift = {nid: nid + base for nid in extra.nodes}
    nodes = dict(tree.nodes)
    for nid, node in extra.nodes.items():
        if isinstance(node, Internal):
            node = Internal(node.controller, tuple(shift[c] for c in node.children))
        nodes[shift[nid]] = node
    return GameTree(tree.root, nodes)


def _undeclared_root(tree, rng):
    return GameTree(_unused(tree) + rng.randrange(3), tree.nodes)


def _chain(tree, rng):
    # Splice a run of one-child nodes above a random node; above the root,
    # the run's top becomes the root.
    above = rng.choice(list(tree.nodes))
    top = base = _unused(tree)
    length = rng.randint(1, 4)
    nodes = dict(tree.nodes)
    for k in range(length):
        nodes[base + k] = Internal(rng.randint(1, 2), (base + k + 1 if k + 1 < length else above,))
    for nid, node in tree.nodes.items():
        if isinstance(node, Internal) and above in node.children:
            kids = tuple(top if c == above else c for c in node.children)
            nodes[nid] = Internal(node.controller, kids)
    root = top if above == tree.root else tree.root
    return GameTree(root, nodes)


MUTATIONS = (
    _dangling,
    _shared,
    _cycle_below_root,
    _root_with_parent,
    _unreachable,
    _undeclared_root,
    _chain,
)


def test_linear_check_agrees_with_validate():
    rng = random.Random(8)
    rejected = accepted = 0
    for _ in range(300):
        tree = _random_tree(rng)
        variants = [tree] + [mutate(tree, rng) for mutate in MUTATIONS]
        for _ in range(3):
            mixed = tree
            for mutate in rng.sample(MUTATIONS, rng.randint(2, 4)):
                mixed = mutate(mixed, rng)
            variants.append(mixed)
        for variant in variants:
            hard = _hard_violations(validate(variant))
            assert _is_tree(variant) == (not hard)
            text = serialize_game_tree(variant)
            if hard:
                rejected += 1
                with pytest.raises(GtreeParseError) as err:
                    parse_game_tree(text)
                line = len(text.splitlines())
                assert str(err.value) == f"line {line}, column 1: " + "; ".join(hard)
            else:
                accepted += 1
                assert parse_game_tree(text) == variant
    assert rejected > 1000 and accepted > 300


# -- payoff sharing ---------------------------------------------------------------


def test_parsed_card_tree_shares_payoffs_and_solves_identically():
    config = OhohConfig(3, "flat")
    for seed in range(3):
        generated = build_tree(deal(config, seed), config)
        parsed = parse_game_tree(serialize_game_tree(generated))
        assert parsed == generated
        payoffs = [n.payoff for n in parsed.nodes.values() if isinstance(n, Leaf)]
        assert len({id(p) for p in payoffs}) == len(set(payoffs)) < len(payoffs)
        for criterion in CRITERIA:
            assert serialize_strategy(best_nash(parsed, criterion).strategy) == (
                serialize_strategy(best_nash(generated, criterion).strategy)
            )


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(golden_entries(), indent=1) + "\n", encoding="utf-8")
