"""Command-line interface.

Exit codes: 0 success, 1 usage error, 2 input error, 3 internal
invariant failure. `verify` exits 0 whether or not the strategy is an
equilibrium; the verdict is its output.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .experiment import (
    ExperimentConfig,
    HandFailedError,
    report_to_json,
    run_experiment,
)
from .gametree import (
    GtreeParseError,
    check_strategy,
    is_equilibrium,
    parse_game_tree,
    parse_strategy,
    serialize_game_tree,
    serialize_strategy,
)
from .ohoh import MISS_PENALTY_MODES, OhohConfig, build_tree, deal, serialize_deal
from .oracle import MAX_SAMPLES, cross_validate
from .rationals import format_rational
from .solver import (
    CRITERIA,
    AlgebraInconsistencyError,
    best_deterministic_nash,
    best_nash,
)
from .ups import serialize_ups


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _u64(text: str) -> int:
    value = int(text)
    if not 0 <= value < 1 << 64:
        raise argparse.ArgumentTypeError("seed must fit in an unsigned 64-bit integer")
    return value


def _nonneg(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("count must be >= 0")
    return value


def _samples(text: str) -> int:
    value = _nonneg(text)
    if value > MAX_SAMPLES:
        raise argparse.ArgumentTypeError(f"samples must be <= {MAX_SAMPLES}")
    return value


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="nashtree",
        description="Optimal subgame-perfect equilibria for two-player game trees.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "solve",
        help="compute an optimal equilibrium of a .gtree file",
        description="Ties between optimal payoff vectors are broken toward the "
        "larger player-1 payoff, then the larger player-2 payoff.",
    )
    p.add_argument("--input", required=True, help=".gtree file")
    p.add_argument("--criterion", required=True, choices=CRITERIA)
    p.add_argument(
        "--deterministic-only",
        action="store_true",
        help="restrict to pure equilibria",
    )
    p.add_argument("--emit-strategy", action="store_true")
    p.add_argument("--emit-ups", action="store_true")
    p.add_argument("--out", help="write the report to a file instead of stdout")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("verify", help="check a strategy file against a tree")
    p.add_argument("--input", required=True, help=".gtree file")
    p.add_argument("--strategy", required=True, help="strategy file")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("gen-ohoh", help="deal a card-game hand and write its tree")
    p.add_argument("--cards", required=True, type=int, choices=range(1, 8))
    p.add_argument("--seed", required=True, type=_u64)
    p.add_argument("--miss-penalty", choices=MISS_PENALTY_MODES, default="mirror")
    p.add_argument("--emit-deal", action="store_true", help="print the deal to stdout")
    p.add_argument("--out", required=True, help="output .gtree path")
    p.set_defaults(func=_cmd_gen_ohoh)

    p = sub.add_parser("experiment", help="solve many seeded hands and aggregate")
    p.add_argument("--cards", required=True, type=int, choices=range(1, 8))
    p.add_argument("--hands", required=True, type=_nonneg)
    p.add_argument("--seed", type=_u64, default=0)
    p.add_argument("--miss-penalty", choices=MISS_PENALTY_MODES, default="mirror")
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--report", required=True, help="output JSON path")
    p.set_defaults(func=_cmd_experiment)

    p = sub.add_parser("oracle", help="brute-force cross-check a small tree")
    p.add_argument("--input", required=True, help=".gtree file")
    p.add_argument("--seed", type=_u64, default=0)
    p.add_argument("--samples", type=_samples, default=3, help="interior samples per element")
    p.set_defaults(func=_cmd_oracle)
    return parser


def _read(path: str) -> str:
    return Path(path).read_text(encoding="utf-8")


def _cmd_solve(args) -> int:
    tree = parse_game_tree(_read(args.input))
    solve = best_deterministic_nash if args.deterministic_only else best_nash
    result = solve(tree, args.criterion)
    parts = [f"value {result.value}"]
    if args.emit_strategy:
        parts.append(serialize_strategy(result.strategy).rstrip("\n"))
    if args.emit_ups:
        parts.append(serialize_ups(result.root_ups).rstrip("\n"))
    output = "\n".join(parts) + "\n"
    if args.out:
        Path(args.out).write_text(output, encoding="utf-8")
    else:
        print(output, end="")
    return 0


def _cmd_verify(args) -> int:
    tree = parse_game_tree(_read(args.input))
    strategy = parse_strategy(_read(args.strategy))
    problems = check_strategy(tree, strategy)
    if problems:
        for problem in problems:
            print(f"input error: {problem}", file=sys.stderr)
        return 2
    check = is_equilibrium(tree, strategy)
    if check.ok:
        print(f"equilibrium: yes, value {check.value}")
    else:
        print(f"equilibrium: no, witness {check.witness}, value {check.value}")
    return 0


def _cmd_gen_ohoh(args) -> int:
    config = OhohConfig(args.cards, args.miss_penalty)
    dealt = deal(config, args.seed)
    tree = build_tree(dealt, config)
    Path(args.out).write_text(serialize_game_tree(tree), encoding="utf-8")
    if args.emit_deal:
        print(serialize_deal(dealt), end="")
    return 0


def _cmd_experiment(args) -> int:
    config = ExperimentConfig(
        cards=args.cards,
        hands=args.hands,
        seed=args.seed,
        miss_penalty=args.miss_penalty,
        jobs=max(1, args.jobs),
    )
    report = run_experiment(config)
    Path(args.report).write_text(report_to_json(report), encoding="utf-8")
    print(f"hands {report.hands}")
    print(f"multiple-equilibria {format_rational(report.multiple_equilibria_fraction())}")
    for criterion in config.criteria:
        print(f"improved {criterion} {format_rational(report.improvement_fraction(criterion))}")
    print(f"social-gap {format_rational(report.social_gap_fraction())}")
    return 0


def _cmd_oracle(args) -> int:
    tree = parse_game_tree(_read(args.input))
    report = cross_validate(tree, seed=args.seed, samples=args.samples)
    for value in report.pure_values:
        print(f"pure-spe {value}")
    print(f"containment: {'ok' if report.containment_ok else 'FAIL'}")
    print(f"deterministic-match: {'ok' if report.det_equals_oracle else 'FAIL'}")
    if report.extraction_failures:
        print(f"extraction: FAIL ({len(report.extraction_failures)} failures)")
        for target, reason in report.extraction_failures[:10]:
            print(f"  target {target}: {reason}")
    else:
        print("extraction: ok")
    if report.passed:
        return 0
    if report.shrunk:
        print("minimal failing tree:", file=sys.stderr)
        sys.stderr.write(report.shrunk)
    return 3


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (GtreeParseError, OSError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except (AlgebraInconsistencyError, AssertionError, HandFailedError) as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
