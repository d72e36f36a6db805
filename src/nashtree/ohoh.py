"""Open-handed two-player "Oh Hell!" deals and their game trees.

Both players see both hands. Each is dealt k cards from one standard
pack and a trump suit is chosen. Player 1 declares a contract (a trick
count, 0..k), then player 2 declares any contract except the one that
would make the two contracts sum to k, so at least one player must miss.
The button (player 1 at first) leads any card; the opponent must follow
the led suit when possible; the trick goes to the higher card of the led
suit unless trumped, and the winner leads next. Meeting your contract
pays 10 plus the contract; missing it pays minus (10 plus the contract)
in "mirror" scoring or a flat -10 in "flat" scoring.

Deals are a deterministic function of (config, seed): a Mersenne Twister
(`random.Random(seed)`) picks the trump via `randrange(4)` and then deals
2k cards by a partial Fisher-Yates shuffle over the suit-major deck using
`randrange(i, 52)`. Golden deal files in the test suite pin this choice.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterable, NamedTuple

from .gametree import GameTree, GtreeParseError, PayoffVector, tree_sizes, unfold

SUITS = "CDHS"
RANKS = range(2, 15)  # 14 is the ace; deuce is lowest
RANK_CHARS = "23456789TJQKA"
MISS_PENALTY_MODES = ("mirror", "flat")


class Card(NamedTuple):
    rank: int
    suit: str


def card_token(card: Card) -> str:
    return RANK_CHARS[card.rank - 2] + card.suit


def parse_card(token: str) -> Card:
    if len(token) != 2 or token[0] not in RANK_CHARS or token[1] not in SUITS:
        raise ValueError(f"malformed card token {token!r}")
    return Card(RANK_CHARS.index(token[0]) + 2, token[1])


def _card_key(card: Card) -> tuple[int, int]:
    return (SUITS.index(card.suit), card.rank)


DECK = tuple(Card(rank, suit) for suit in SUITS for rank in RANKS)


@dataclass(frozen=True)
class OhohConfig:
    cards_per_player: int
    miss_penalty: str = "mirror"

    def __post_init__(self):
        if not 1 <= self.cards_per_player <= 7:
            raise ValueError("cards per player must be between 1 and 7")
        if self.miss_penalty not in MISS_PENALTY_MODES:
            raise ValueError(f"miss penalty must be one of {MISS_PENALTY_MODES}")


@dataclass(frozen=True)
class Deal:
    seed: int
    trump: str
    hand1: tuple[Card, ...]
    hand2: tuple[Card, ...]


def deal(config: OhohConfig, seed: int) -> Deal:
    """Deterministic deal for a seed; see the module docstring for the RNG."""
    rng = random.Random(seed)
    trump = SUITS[rng.randrange(4)]
    k = config.cards_per_player
    deck = list(DECK)
    for i in range(2 * k):
        j = rng.randrange(i, 52)
        deck[i], deck[j] = deck[j], deck[i]
    hand1 = tuple(sorted(deck[:k], key=_card_key))
    hand2 = tuple(sorted(deck[k : 2 * k], key=_card_key))
    return Deal(seed=seed, trump=trump, hand1=hand1, hand2=hand2)


def legal_cards(hand: Iterable[Card], led_suit: str | None) -> tuple[Card, ...]:
    """The leader may play anything; a follower must follow suit if able."""
    cards = tuple(hand)
    if led_suit is None:
        return cards
    following = tuple(c for c in cards if c.suit == led_suit)
    return following or cards


def trick_winner(button_card: Card, reply_card: Card, trump: str) -> bool:
    """True if the button's (led) card wins the trick.

    Same suit: higher rank wins. Otherwise a lone trump wins; with no
    trump involved, the led suit wins by default.
    """
    if button_card.suit == reply_card.suit:
        return button_card.rank > reply_card.rank
    if reply_card.suit == trump:
        return False
    return True


def score(contract: int, tricks_won: int, mode: str = "mirror") -> int:
    """Payoff for one player given her contract and actual tricks."""
    if tricks_won == contract:
        return 10 + contract
    if mode == "mirror":
        return -(10 + contract)
    if mode == "flat":
        return -10
    raise ValueError(f"miss penalty must be one of {MISS_PENALTY_MODES}")


def build_dag(deal_: Deal, config: OhohConfig) -> GameTree:
    """The game of a deal as a DAG that stores each distinct subtree once.

    Player 1 picks a contract (k+1 children), player 2 picks any contract
    whose sum with it differs from k, then 2k card plays alternate between
    the current button and the opponent. Forced plays (a single legal
    card) still get a node, so every root-to-leaf path has 2 + 2k
    decisions; the solvers pass those forced moves straight through.
    Children are ordered by ascending contract and by (suit C<D<H<S, then
    rank) for cards.

    Two passes build it. The first derives the card play once per lead
    state (button, both remaining hands), storing each led card's replies
    as (player 1 takes the trick, next state). The second re-interns the
    play per contract pair on int keys: an outcome window (the payoffs the
    remaining tricks can still produce, by how many of them player 1
    takes) is numbered once with its shifts after a trick won or lost, and
    the play from a lead is memoised on (state, window). Nodes are interned
    by (controller, children), leaves by payoff, and written to the game's
    columns last. Ids are given children first, so ids 1..n are a
    post-order of every node; the game returned keeps it as its walk.
    """
    k = config.cards_per_player
    if len(deal_.hand1) != k or len(deal_.hand2) != k:
        raise ValueError("deal does not match the configured hand size")
    trump = deal_.trump
    mode = config.miss_penalty
    state_ids: dict[tuple, int] = {}
    # Per state: None once the hands are empty, else (button, replier, one
    # tuple per led card of its replies as (player 1 takes, next state)).
    plays: list[tuple | None] = []

    def derive(button: int, hands: tuple) -> int:
        sid = state_ids.get((button, hands))
        if sid is not None:
            return sid
        hand = hands[button - 1]
        play = None
        if hand:
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
                    answers.append((winner == 1, derive(
                        winner, (rest, other_rest) if button == 1 else (other_rest, rest)
                    )))
                replies.append(tuple(answers))
            play = (button, other, tuple(replies))
        sid = state_ids[(button, hands)] = len(plays)
        plays.append(play)
        return sid

    start = derive(1, (deal_.hand1, deal_.hand2))
    states = len(plays)
    window_ids: dict[tuple, int] = {}
    # Per window: its first payoff pair (a leaf's, once one trick count is
    # left), then the windows after a trick player 1 takes and loses.
    windows: list[tuple] = []

    def window(outcomes: tuple) -> int:
        wid = window_ids.get(outcomes)
        if wid is None:
            shifts = (window(outcomes[1:]), window(outcomes[:-1])) if len(outcomes) > 1 else ()
            wid = window_ids[outcomes] = len(windows)
            windows.append((outcomes[0], *shifts))
        return wid

    # Nodes by (controller, children) or, for a leaf, its payoffs (s1, s2).
    ids: dict[tuple, int] = {}
    memo: dict[int, int] = {}  # wid * states + sid -> node id

    def intern(node: tuple) -> int:
        return ids.setdefault(node, len(ids) + 1)

    def lead(sid: int, wid: int) -> int:
        """The node where a trick is led in state `sid` with outcome window
        `wid`, its replies below it; callers look it up in `memo` first."""
        play = plays[sid]
        if play is None:
            node = windows[wid][0]
        else:
            button, other, replies = play
            _, won, lost = windows[wid]
            kids = []
            for answers in replies:
                reply = []
                for p1, nxt in answers:
                    w = won if p1 else lost
                    reply.append(memo.get(w * states + nxt) or lead(nxt, w))
                kids.append(intern((other, tuple(reply))))
            node = (button, tuple(kids))
        nid = memo[wid * states + sid] = intern(node)
        return nid

    contract1_children = []
    for c1 in range(k + 1):
        bid2_children = []
        for c2 in range(k + 1):
            if c1 + c2 != k:
                outcomes = tuple(
                    (score(c1, w, mode), score(c2, k - w, mode)) for w in range(k + 1)
                )
                # Each contract pair has its own window, so nothing to look up.
                bid2_children.append(lead(start, window(outcomes)))
        contract1_children.append(intern((2, tuple(bid2_children))))
    root = intern((1, tuple(contract1_children)))
    internal = {nid: node for node, nid in ids.items() if type(node[1]) is tuple}
    leaves = {nid: node for node, nid in ids.items() if type(node[1]) is not tuple}
    payoffs = tuple(PayoffVector(a, b) for a, b in leaves.values())
    controller = {nid: x for nid, (x, _) in internal.items()}
    children = {nid: kids for nid, (_, kids) in internal.items()}
    game = GameTree(root, controller, children, dict(zip(leaves, range(len(payoffs)))), payoffs)
    game.__dict__["_post_order"] = tuple(ids.values())  # GameTree's cached walk
    return game


# Most nodes `build_tree` unfolds: 5-card hands have up to 1.7M (seeds 0-199),
# 6-card ones up to 5.6M and 7-card ones 34M or more; their DAGs stay small.
TREE_NODE_BUDGET = 4_000_000


def build_tree(deal_: Deal, config: OhohConfig) -> GameTree:
    """The full game tree of a deal: `build_dag`'s game unfolded.

    Node ids are assigned in preorder from 1 at the root; leaves with
    equal payoffs share one payoff index. Raises ValueError when the tree
    would have more than TREE_NODE_BUDGET nodes.
    """
    dag = build_dag(deal_, config)
    nodes = tree_sizes(dag)[0]
    if nodes > TREE_NODE_BUDGET:
        raise ValueError(f"tree of {nodes} nodes exceeds the budget of {TREE_NODE_BUDGET}")
    return unfold(dag)


# -- deal text format -----------------------------------------------------------


def serialize_deal(deal_: Deal) -> str:
    lines = [
        "deal v1",
        f"seed {deal_.seed}",
        f"trump {deal_.trump}",
        "hand 1 " + " ".join(card_token(c) for c in deal_.hand1),
        "hand 2 " + " ".join(card_token(c) for c in deal_.hand2),
    ]
    return "\n".join(lines) + "\n"


def parse_deal(text: str) -> Deal:
    seed = trump = hand1 = hand2 = None
    seen_header = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        tokens = raw.split("#", 1)[0].split()
        if not tokens:
            continue
        word = tokens[0]
        try:
            if not seen_header:
                if word != "deal" or tokens[1:] != ["v1"]:
                    raise ValueError("expected header 'deal v1'")
                seen_header = True
            elif word == "seed":
                seed = int(tokens[1])
            elif word == "trump":
                if tokens[1] not in SUITS:
                    raise ValueError(f"unknown suit {tokens[1]!r}")
                trump = tokens[1]
            elif word == "hand":
                cards = tuple(parse_card(t) for t in tokens[2:])
                if tokens[1] == "1":
                    hand1 = cards
                elif tokens[1] == "2":
                    hand2 = cards
                else:
                    raise ValueError("hand index must be 1 or 2")
            else:
                raise ValueError(f"unknown directive {word!r}")
        except (IndexError, ValueError) as exc:
            raise GtreeParseError(str(exc), lineno) from None
    if seed is None or trump is None or hand1 is None or hand2 is None:
        raise GtreeParseError("incomplete deal (need seed, trump, both hands)", 1)
    return Deal(seed=seed, trump=trump, hand1=hand1, hand2=hand2)
