"""Exact values: whole payoffs are ints, all other values Fractions, never floats.

Every payoff the program reads or generates is whole and stored as an
int; only values that need not be whole (mixing probabilities, mixed
targets, the oracle's interior samples and midpoints) are Fractions.
Dividing two ints gives a float, so these tests look at every value the
solver and the oracle hand out, on trees that need mixing.
"""

from __future__ import annotations

import random
import re
from fractions import Fraction

import pytest

from nashtree import solver
from nashtree.cli import main
from nashtree.gametree import (
    PayoffVector,
    evaluate,
    is_equilibrium,
    parse_game_tree,
    parse_strategy,
    serialize_strategy,
)
from nashtree.oracle import _rep_points, random_tree, sample_ups_points
from nashtree.rationals import parse_rational
from nashtree.solver import CRITERIA, best_nash, compute_ups_all, extract
from nashtree.ups import flag_box, iter_flags, serialize_ups

from .conftest import DATA
from .helpers import (
    MIXING_SEARCH_TIE_BIAS,
    MIXING_SEARCH_VALUES,
    Leaf,
    game_tree,
    nodes_of,
)


def _exact(value) -> bool:
    return type(value) is int or type(value) is Fraction


def _exact_point(point: PayoffVector) -> bool:
    return _exact(point.p1) and _exact(point.p2)


@pytest.mark.parametrize(
    ("token", "kind", "value"),
    [
        ("3", int, 3),
        ("6/2", int, 3),
        ("-0", int, 0),
        ("1/2", Fraction, Fraction(1, 2)),
        ("-3/4", Fraction, Fraction(-3, 4)),
    ],
)
def test_parse_rational_is_int_when_whole(token, kind, value):
    parsed = parse_rational(token)
    assert type(parsed) is kind
    assert parsed == value


def _exactness_corpus(mixing_tree):
    yield mixing_tree
    rng = random.Random(20)
    for _ in range(40):
        yield random_tree(
            rng,
            rng.randint(2, 7),
            MIXING_SEARCH_VALUES,
            max_arity=3,
            tie_bias=MIXING_SEARCH_TIE_BIAS,
        )


def test_no_float_in_solver_or_oracle(mixing_tree, monkeypatch):
    steps = []
    real_step = solver._extraction_step

    def recorded_step(*args):
        step = real_step(*args)
        steps.append(step)
        return step

    monkeypatch.setattr(solver, "_extraction_step", recorded_step)
    probabilities = []
    for tree in _exactness_corpus(mixing_tree):
        assert all(_exact_point(p) for p in tree.payoffs)
        for criterion in CRITERIA:
            strategy = best_nash(tree, criterion).strategy
            probabilities += [pr for entries in strategy.mixed.values() for _, pr in entries]
            assert all(_exact_point(v) for v in evaluate(tree, strategy).values())
        set_map = compute_ups_all(tree)
        root_ups = set_map.by_node[tree.root]
        for target in sample_ups_points(root_ups, per_element=3, seed=5):
            assert _exact_point(target)
            found = extract(tree, set_map, tree.root, target)
            probabilities += [
                pr for entries in found.strategy.mixed.values() for _, pr in entries
            ]
            assert all(_exact_point(v) for v in evaluate(found.game, found.strategy).values())
        for kind, i, j in iter_flags(root_ups):
            assert all(_exact_point(p) for p in _rep_points(flag_box(root_ups.grid, kind, i, j)))
    for probs, want_left, want_right in steps:
        assert _exact_point(want_left) and _exact_point(want_right)
        if isinstance(probs, tuple):
            probabilities += probs
    assert all(_exact(pr) for pr in probabilities)
    # The corpus mixes, so the probabilities above include λ = 4/5 and more.
    assert Fraction(4, 5) in probabilities
    assert any(type(pr) is Fraction for pr in probabilities)


def test_int_and_fraction_payoffs_mix(mixing_tree, tmp_path, capsys):
    """One tree written with `6/2`-style payoffs, with `3`-style payoffs,
    and built from Fraction payoffs solves, dumps and verifies alike."""
    whole = (DATA / "mixing_required.gtree").read_text()
    halves = re.sub(
        r"payoff (-?\d+) (-?\d+)",
        lambda m: f"payoff {2 * int(m[1])}/2 {2 * int(m[2])}/2",
        whole,
    )
    assert halves != whole
    fraction_tree = game_tree(
        mixing_tree.root,
        {
            nid: Leaf(PayoffVector(Fraction(n.payoff.p1), Fraction(n.payoff.p2)))
            if isinstance(n, Leaf)
            else n
            for nid, n in nodes_of(mixing_tree).items()
        },
    )
    assert all(type(p.p1) is Fraction for p in fraction_tree.payoffs)
    assert parse_game_tree(halves) == parse_game_tree(whole) == fraction_tree

    outputs = []
    for text in (whole, halves):
        path = tmp_path / "tree.gtree"
        path.write_text(text)
        assert main(["solve", "--input", str(path), "--criterion", "social",
                     "--emit-strategy", "--emit-ups"]) == 0
        solved = capsys.readouterr().out
        strategy_text = solved.split("\n", 1)[1].split("ups v1")[0]
        (tmp_path / "s.strat").write_text(strategy_text)
        assert main(["verify", "--input", str(path), "--strategy", str(tmp_path / "s.strat")]) == 0
        outputs.append((solved, capsys.readouterr().out))
    # The Fraction-built tree has no text of its own, so it goes through
    # the calls that the two commands make.
    result = best_nash(fraction_tree, "social")
    strategy_text = serialize_strategy(result.strategy)
    check = is_equilibrium(fraction_tree, parse_strategy(strategy_text))
    assert check.ok
    outputs.append((
        f"value {result.value}\n{strategy_text}{serialize_ups(result.root_ups)}",
        f"equilibrium: yes, value {check.value}\n",
    ))
    assert outputs[0] == outputs[1] == outputs[2]
    assert "prob 4/5" in outputs[0][0]
    assert outputs[0][1] == "equilibrium: yes, value 4 5\n"


def test_int_and_fraction_payoff_vectors_are_one_key():
    whole, fraction = PayoffVector(3, 4), PayoffVector(Fraction(3), Fraction(4))
    assert whole == fraction
    assert hash(whole) == hash(fraction)
    assert {whole: "found"}[fraction] == "found"
