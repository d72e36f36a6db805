import dataclasses
import json
import random
import time
from fractions import Fraction

import pytest

from nashtree import cli, experiment
from nashtree.cli import _build_parser, main
from nashtree.gametree import PayoffVector, parse_game_tree, serialize_game_tree
from nashtree.ohoh import TREE_NODE_BUDGET, parse_deal
from nashtree.oracle import MAX_SAMPLES, STRATEGY_CAP, random_tree
from nashtree.ups import GRID_BUDGET, build_grid

from .conftest import DATA
from .helpers import _distinct_payoff_chain

DEMO = str(DATA / "multi_eq.gtree")


class TestSolve:
    def test_solve_prints_value_strategy_and_dump(self, capsys):
        rc = main(
            ["solve", "--input", DEMO, "--criterion", "social",
             "--emit-strategy", "--emit-ups"]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert out.splitlines()[0] == "value 1000 4"
        assert "strategy v1" in out
        assert "at 1 choose 3 prob 1" in out
        assert "ups v1" in out
        assert "L1 1 2" in out

    def test_solve_best2(self, capsys):
        assert main(["solve", "--input", DEMO, "--criterion", "best2"]) == 0
        assert capsys.readouterr().out == "value 2 100\n"

    def test_solve_deterministic_only(self, capsys):
        rc = main(
            ["solve", "--input", DEMO, "--criterion", "best2",
             "--deterministic-only", "--emit-ups"]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert out.splitlines()[0] == "value 2 100"
        assert "L1" not in out and "L2" not in out and "D" not in out

    def test_solve_out_file(self, tmp_path, capsys):
        target = tmp_path / "result.txt"
        rc = main(
            ["solve", "--input", DEMO, "--criterion", "social", "--out", str(target)]
        )
        assert rc == 0
        assert capsys.readouterr().out == ""
        assert target.read_text() == "value 1000 4\n"


class TestGridBudget:
    def test_grid_over_budget_is_input_error(self, tmp_path, capsys):
        # 3000 distinct leaf payoffs on a 3000 x 3000 grid: 2.7e10 flag bits.
        path = tmp_path / "wide.gtree"
        path.write_text(_distinct_payoff_chain(3000))
        assert main(["solve", "--input", str(path), "--criterion", "social"]) == 2
        err = capsys.readouterr().err
        assert "3000 distinct leaf payoffs on a 3000 x 3000 grid" in err
        assert f"27000000000 flag bits, over the budget of {GRID_BUDGET}" in err

    def test_grid_under_budget_builds(self):
        # 2000 leaves need 8e9 bits; only the grid is built here, no sets.
        grid = build_grid(parse_game_tree(_distinct_payoff_chain(2000)))
        assert (grid.n1, grid.n2) == (2000, 2000)
        assert 2000 * grid.n1 * grid.n2 <= GRID_BUDGET

    def test_repeated_payoff_entries_count_once(self):
        # 5000 leaves, each with its own table entry, but only 2000 distinct
        # payoffs: 2000 x 2000 x 2000 bits are within the budget.
        leaves = 5000
        parsed = parse_game_tree(_distinct_payoff_chain(leaves))
        payoffs = tuple(PayoffVector(k % 2000, 1999 - k % 2000) for k in range(leaves))
        tree = dataclasses.replace(parsed, payoffs=payoffs)
        assert leaves * 2000 * 2000 > GRID_BUDGET
        grid = build_grid(tree)
        assert (grid.n1, grid.n2) == (2000, 2000)


class TestVerify:
    def test_equilibrium_yes(self, capsys):
        rc = main(
            ["verify", "--input", DEMO, "--strategy", str(DATA / "best_for_p2.strat")]
        )
        assert rc == 0
        assert capsys.readouterr().out == "equilibrium: yes, value 2 100\n"

    def test_equilibrium_yes_social(self, capsys):
        rc = main(
            ["verify", "--input", DEMO, "--strategy", str(DATA / "social_opt.strat")]
        )
        assert rc == 0
        assert capsys.readouterr().out == "equilibrium: yes, value 1000 4\n"

    def test_equilibrium_no_with_witness(self, tmp_path, capsys):
        # Mixing at the root without indifference: profitable deviation there.
        strat = tmp_path / "bad.strat"
        strat.write_text(
            "strategy v1\nat 1 choose 2 prob 1/2 3 prob 1/2\nat 2 choose 5 prob 1\n"
        )
        rc = main(["verify", "--input", DEMO, "--strategy", str(strat)])
        assert rc == 0
        assert capsys.readouterr().out == "equilibrium: no, witness 1, value 501 52\n"

    def test_incomplete_strategy_is_input_error(self, tmp_path, capsys):
        strat = tmp_path / "partial.strat"
        strat.write_text("strategy v1\nat 1 choose 2 prob 1\n")
        rc = main(["verify", "--input", DEMO, "--strategy", str(strat)])
        assert rc == 2
        assert "no entry for internal node 2" in capsys.readouterr().err


class TestGenOhoh:
    def test_writes_tree_and_deal(self, tmp_path, capsys):
        out = tmp_path / "hand.gtree"
        rc = main(
            ["gen-ohoh", "--cards", "2", "--seed", "7", "--miss-penalty", "flat",
             "--emit-deal", "--out", str(out)]
        )
        assert rc == 0
        deal = parse_deal(capsys.readouterr().out)
        assert deal.seed == 7
        tree = parse_game_tree(out.read_text())
        assert tree.depth() == 6

    def test_deterministic_output(self, tmp_path):
        a, b = tmp_path / "a.gtree", tmp_path / "b.gtree"
        for path in (a, b):
            assert main(["gen-ohoh", "--cards", "2", "--seed", "9", "--out", str(path)]) == 0
        assert a.read_text() == b.read_text()

    def test_tree_over_node_budget_is_input_error(self, tmp_path, capsys):
        # The 7-card seed-0 hand unfolds to about 34M nodes; its DAG is small.
        out = tmp_path / "hand.gtree"
        assert main(["gen-ohoh", "--cards", "7", "--seed", "0", "--out", str(out)]) == 2
        assert f"exceeds the budget of {TREE_NODE_BUDGET}" in capsys.readouterr().err
        assert not out.exists()


class TestExperimentCommand:
    def test_report_written_and_summary_printed(self, tmp_path, capsys):
        report = tmp_path / "report.json"
        rc = main(
            ["experiment", "--cards", "2", "--hands", "6", "--seed", "0",
             "--miss-penalty", "flat", "--report", str(report)]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "hands 6" in out
        assert "multiple-equilibria" in out
        doc = json.loads(report.read_text())
        assert doc["hands"] == 6
        assert len(doc["per_hand"]) == 6

    def test_six_card_hand(self, tmp_path):
        report = tmp_path / "report.json"
        rc = main(
            ["experiment", "--cards", "6", "--hands", "1", "--seed", "0",
             "--miss-penalty", "flat", "--report", str(report)]
        )
        assert rc == 0
        (hand,) = json.loads(report.read_text())["per_hand"]
        assert hand["seed"] == 0

        def welfare(pair):
            return sum(Fraction(x) for x in pair)

        assert welfare(hand["best"]["social"]) >= welfare(hand["det_social"])

    def test_hand_failure_exits_3_naming_the_seed(self, tmp_path, capsys, monkeypatch):
        def solve(config, seed):
            raise ValueError(f"cannot solve {seed}")

        monkeypatch.setattr(experiment, "solve_hand", solve)
        rc = main(
            ["experiment", "--cards", "2", "--hands", "3", "--seed", "7",
             "--report", str(tmp_path / "report.json")]
        )
        assert rc == 3
        assert "hand seed 7 failed" in capsys.readouterr().err


class TestEndToEnd:
    def test_generated_hand_solves_and_verifies(self, tmp_path, capsys):
        tree_path = tmp_path / "hand.gtree"
        assert main(
            ["gen-ohoh", "--cards", "3", "--seed", "28", "--miss-penalty", "flat",
             "--out", str(tree_path)]
        ) == 0
        # The raw tree is m-ary with forced single moves; solve handles both.
        rc = main(
            ["solve", "--input", str(tree_path), "--criterion", "social",
             "--emit-strategy"]
        )
        out = capsys.readouterr().out
        assert rc == 0
        value_line, *strategy_lines = out.splitlines()
        assert value_line == "value 13 -10"
        strat_path = tmp_path / "solved.strat"
        strat_path.write_text("\n".join(strategy_lines) + "\n")
        rc = main(["verify", "--input", str(tree_path), "--strategy", str(strat_path)])
        assert rc == 0
        assert capsys.readouterr().out == "equilibrium: yes, value 13 -10\n"


class TestOracleCommand:
    def test_demo_tree_passes(self, capsys):
        rc = main(["oracle", "--input", DEMO])
        out = capsys.readouterr().out
        assert rc == 0
        assert "pure-spe 1000 4" in out
        assert "pure-spe 2 100" in out
        assert "containment: ok" in out
        assert "deterministic-match: ok" in out
        assert "extraction: ok" in out

    def test_tree_over_strategy_cap_is_input_error(self, tmp_path, capsys):
        # 21 binary internal nodes have 2**21 pure strategies.
        path = tmp_path / "big.gtree"
        path.write_text(serialize_game_tree(random_tree(random.Random(0), 21)))
        assert main(["oracle", "--input", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"input error: more than {STRATEGY_CAP} pure strategies, refusing to enumerate\n"
        )


class TestExitCodes:
    def test_usage_error_unknown_criterion(self, capsys):
        assert main(["solve", "--input", DEMO, "--criterion", "nope"]) == 1
        assert "usage error" in capsys.readouterr().err

    def test_usage_error_unknown_command(self, capsys):
        assert main(["conquer"]) == 1

    def test_usage_error_bad_seed(self, capsys):
        assert main(["gen-ohoh", "--cards", "2", "--seed", "-1", "--out", "x"]) == 1

    def test_samples_above_bound_is_usage_error(self, capsys, monkeypatch):
        # Only argument parsing may run: no value here reaches the oracle.
        def no_oracle(*args, **kwargs):
            pytest.fail("oracle started")

        monkeypatch.setattr(cli, "cross_validate", no_oracle)
        for value in (str(MAX_SAMPLES + 1), "9" * 30):
            assert main(["oracle", "--input", DEMO, "--samples", value]) == 1
            assert f"samples must be <= {MAX_SAMPLES}" in capsys.readouterr().err
        args = ["oracle", "--input", DEMO, "--samples", str(MAX_SAMPLES)]
        assert _build_parser().parse_args(args).samples == MAX_SAMPLES

    def test_missing_file_is_input_error(self, capsys):
        assert main(["solve", "--input", "/no/such.gtree", "--criterion", "social"]) == 2
        assert "input error" in capsys.readouterr().err

    def test_malformed_tree_is_input_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.gtree"
        bad.write_text("gtree v1\nroot 1\nnode 1 player 1 children 2 3\n")
        assert main(["solve", "--input", str(bad), "--criterion", "social"]) == 2
        err = capsys.readouterr().err
        assert "input error" in err and "undeclared child" in err

    def test_wide_tree_with_unreachable_node_is_input_error_in_linear_time(
        self, tmp_path, capsys
    ):
        # A malformed tree is worded by validate(), whose cycle walk must not
        # re-filter a wide node's children at every step.
        width = 30_000
        kids = " ".join(str(k) for k in range(2, width + 2))
        leaves = "".join(f"leaf {k} payoff 0 0\n" for k in range(2, width + 3))
        bad = tmp_path / "wide.gtree"
        bad.write_text(f"gtree v1\nroot 1\nnode 1 player 1 children {kids}\n{leaves}")
        start = time.perf_counter()
        assert main(["solve", "--input", str(bad), "--criterion", "social"]) == 2
        elapsed = time.perf_counter() - start
        err = capsys.readouterr().err
        assert f"node {width + 2} unreachable from root 1" in err
        assert elapsed < 5.0, elapsed

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert main(["solve", "--help"]) == 0
