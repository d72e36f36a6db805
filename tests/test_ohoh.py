"""Deals, card rules and game trees of open-handed Oh Hell.

`build_tree_digests.json` holds digests of the `.gtree` text of generated
trees. Re-record it (only when a tree change is intended and explained)
with ``PYTHONPATH=src python -m tests.test_ohoh``.
"""

import json
from collections import Counter
from fractions import Fraction

import pytest

from nashtree.gametree import (
    GtreeParseError,
    binarize,
    serialize_game_tree,
    validate,
)
from nashtree.ohoh import (
    Card,
    OhohConfig,
    build_tree,
    card_token,
    deal,
    legal_cards,
    parse_card,
    parse_deal,
    score,
    serialize_deal,
    trick_winner,
)
from nashtree.ups import build_grid

from .conftest import DATA
from .helpers import Internal, Leaf, digest, nodes_of

CFG4 = OhohConfig(4, "flat")
BUILD_GOLDEN = DATA / "build_tree_digests.json"
# Hand seeds per hand size whose trees are pinned, under both scorings.
BUILD_SEEDS = {1: range(10), 2: range(10), 3: range(10), 4: range(6), 5: range(1)}

# Golden deal pinning the RNG (Mersenne Twister, randrange trump, partial
# Fisher-Yates draw); regenerating it differently is a breaking change.
GOLDEN_DEAL_42 = (
    "deal v1\n"
    "seed 42\n"
    "trump C\n"
    "hand 1 3C 7D 8D JS\n"
    "hand 2 5C AC 2D KS\n"
)


class TestDeal:
    def test_deterministic(self):
        assert deal(CFG4, 123) == deal(CFG4, 123)

    def test_eight_distinct_cards(self):
        d = deal(CFG4, 5)
        cards = d.hand1 + d.hand2
        assert len(cards) == 8
        assert len(set(cards)) == 8

    def test_golden_deal(self):
        assert serialize_deal(deal(CFG4, 42)) == GOLDEN_DEAL_42

    def test_trump_roughly_uniform(self):
        counts = Counter(deal(OhohConfig(1), seed).trump for seed in range(10_000))
        for suit in "CDHS":
            assert 0.23 <= counts[suit] / 10_000 <= 0.27

    def test_deal_round_trip(self):
        d = deal(OhohConfig(3), 9)
        assert parse_deal(serialize_deal(d)) == d

    def test_parse_deal_errors(self):
        with pytest.raises(GtreeParseError):
            parse_deal("deal v1\nseed 1\ntrump X\nhand 1 2C\nhand 2 3C\n")
        with pytest.raises(GtreeParseError, match="incomplete"):
            parse_deal("deal v1\nseed 1\n")

    def test_card_tokens(self):
        assert card_token(Card(14, "S")) == "AS"
        assert parse_card("TD") == Card(10, "D")
        with pytest.raises(ValueError):
            parse_card("1H")

    def test_config_validation(self):
        with pytest.raises(ValueError):
            OhohConfig(0)
        with pytest.raises(ValueError):
            OhohConfig(8)
        with pytest.raises(ValueError):
            OhohConfig(4, "harsh")


class TestRules:
    def test_leader_may_play_anything(self):
        hand = (Card(2, "H"), Card(9, "S"))
        assert legal_cards(hand, None) == hand

    def test_follow_suit_forced(self):
        hand = (Card(2, "H"), Card(9, "S"))
        assert legal_cards(hand, "H") == (Card(2, "H"),)

    def test_void_allows_anything(self):
        hand = (Card(2, "C"), Card(9, "S"))
        assert legal_cards(hand, "H") == hand

    def test_same_suit_higher_rank_wins(self):
        assert not trick_winner(Card(9, "H"), Card(12, "H"), trump="S")
        assert trick_winner(Card(12, "H"), Card(9, "H"), trump="S")

    def test_lone_trump_wins(self):
        assert not trick_winner(Card(12, "H"), Card(2, "S"), trump="S")

    def test_offsuit_nontrump_loses_to_leader(self):
        assert trick_winner(Card(12, "H"), Card(14, "C"), trump="S")

    def test_score_met(self):
        assert score(3, 3) == 13

    def test_score_missed_mirror(self):
        assert score(2, 3, "mirror") == -12

    def test_score_missed_flat(self):
        assert score(2, 3, "flat") == -10


class TestBuildTree:
    def test_depth_four_cards(self):
        tree = build_tree(deal(CFG4, 0), CFG4)
        assert tree.depth() == 10

    def test_depth_five_cards(self):
        cfg = OhohConfig(5, "flat")
        tree = build_tree(deal(cfg, 0), cfg)
        assert tree.depth() == 12

    def test_all_paths_play_every_card(self):
        # Uniform path length: two contract plies plus 2k card plies.
        cfg = OhohConfig(3, "flat")
        tree = build_tree(deal(cfg, 11), cfg)
        depths = {}
        leaf_depths = set()
        order = [(tree.root, 0)]
        nodes = nodes_of(tree)
        while order:
            nid, depth = order.pop()
            node = nodes[nid]
            if isinstance(node, Leaf):
                leaf_depths.add(depth)
            else:
                order.extend((c, depth + 1) for c in node.children)
        assert leaf_depths == {2 + 2 * cfg.cards_per_player}

    def test_size_band_over_seeds(self):
        # Typical 4-card trees run around 15k raw nodes; rare dominated deals
        # (forced follows everywhere) dip to ~2.6k, so the band is checked on
        # the distribution rather than per deal.
        sizes = [len(build_tree(deal(CFG4, seed), CFG4)) for seed in range(100)]
        assert 3_000 <= sum(sizes) / len(sizes) <= 50_000
        assert max(sizes) <= 50_000
        assert sum(1 for s in sizes if s >= 3_000) >= 95

    def test_contract_structure(self):
        cfg = OhohConfig(2, "flat")
        tree = build_tree(deal(cfg, 3), cfg)
        nodes = nodes_of(tree)
        root = nodes[tree.root]
        assert isinstance(root, Internal) and root.controller == 1
        assert len(root.children) == cfg.cards_per_player + 1
        for second_bid in root.children:
            node = nodes[second_bid]
            assert node.controller == 2
            # One contract (the one summing to k) is excluded.
            assert len(node.children) == cfg.cards_per_player

    def test_no_leaf_pays_both_players_positive(self):
        for mode in ("flat", "mirror"):
            cfg = OhohConfig(3, mode)
            tree = build_tree(deal(cfg, 17), cfg)
            for node in nodes_of(tree).values():
                if isinstance(node, Leaf):
                    assert not (node.payoff.p1 > 0 and node.payoff.p2 > 0)

    def test_reproducible_and_binarizable(self):
        cfg = OhohConfig(3, "mirror")
        d = deal(cfg, 23)
        a = build_tree(d, cfg)
        b = build_tree(d, cfg)
        assert a == b
        work = binarize(a)
        assert work.is_binary()
        assert validate(work) == []

    def test_forced_moves_keep_their_plies(self):
        # Final-trick plays are forced, so raw trees have single-child nodes
        # that validate() reports and binarize() splices.
        tree = build_tree(deal(CFG4, 0), CFG4)
        report = validate(tree)
        assert report and all("arity < 2" in line for line in report)

    def test_flat_grid_is_square_and_caps_at_six(self):
        sizes = set()
        for seed in range(30):
            grid = build_grid(build_tree(deal(CFG4, seed), CFG4))
            assert grid.n1 == grid.n2
            sizes.add(grid.n1)
        assert max(sizes) <= 6

    def test_flat_full_range_deal(self):
        # Seed 66 is the first deal where every contract is makeable by both
        # players, giving the full six-value payoff range each.
        grid = build_grid(build_tree(deal(CFG4, 66), CFG4))
        assert (grid.n1, grid.n2) == (6, 6)
        assert grid.u1 == tuple(map(Fraction, (-10, 10, 11, 12, 13, 14)))

    def test_mirror_grid_spreads_penalties(self):
        cfg = OhohConfig(4, "mirror")
        grid = build_grid(build_tree(deal(cfg, 66), cfg))
        assert Fraction(-14) in grid.u1 or Fraction(-13) in grid.u1


def build_tree_digests() -> dict[str, str]:
    out = {}
    for cards, seeds in BUILD_SEEDS.items():
        for mode in ("flat", "mirror"):
            cfg = OhohConfig(cards, mode)
            for seed in seeds:
                text = serialize_game_tree(build_tree(deal(cfg, seed), cfg))
                out[f"{cards}-{mode}-{seed}"] = digest(text)
    return out


def test_build_tree_text_matches_golden():
    assert build_tree_digests() == json.loads(BUILD_GOLDEN.read_text())


if __name__ == "__main__":
    BUILD_GOLDEN.write_text(json.dumps(build_tree_digests(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {BUILD_GOLDEN}")
