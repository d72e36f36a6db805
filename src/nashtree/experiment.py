"""Batch study harness: solve many seeded deals and aggregate the results.

For every seed the harness deals a hand, builds its game as a DAG that
stores each distinct subtree once, and on that DAG runs backward
induction, computes the full and the deterministic-only equilibrium
payoff sets, reads off the optimal value per criterion, and extracts one
optimal strategy for timing. Aggregates are exact ratios of counts; only
the timing fields vary between runs.
"""

from __future__ import annotations

import json
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from fractions import Fraction
from typing import ClassVar

from .gametree import PayoffVector, evaluate, tree_sizes
from .ohoh import OhohConfig, build_dag, deal
from .rationals import format_rational
from .solver import (
    CRITERIA,
    any_nash,
    compute_det_ups_all,
    compute_ups_all,
    criterion_value,
    extract,
    select_optimal,
)
from .ups import is_single_point


@dataclass(frozen=True)
class ExperimentConfig:
    cards: int
    hands: int
    seed: int = 0
    miss_penalty: str = "mirror"
    jobs: int = 1
    # Every study scores all criteria; the report lists them.
    criteria: ClassVar[tuple[str, ...]] = CRITERIA


@dataclass(frozen=True)
class HandRecord:
    seed: int
    tree_nodes: int
    solved_nodes: int
    n1: int
    n2: int
    any_value: PayoffVector
    best_values: dict[str, PayoffVector]
    det_social_value: PayoffVector
    multiple_equilibria: bool
    timings_ms: dict[str, float]


@dataclass(frozen=True)
class ExperimentReport:
    config: ExperimentConfig
    records: list[HandRecord] = field(default_factory=list)

    @property
    def hands(self) -> int:
        return len(self.records)

    def _share(self, count: int) -> Fraction:
        """`count` as a fraction of the hands; 0 for an empty study."""
        return Fraction(count, self.hands) if self.hands else Fraction(0)

    def multiple_equilibria_fraction(self) -> Fraction:
        return self._share(sum(1 for r in self.records if r.multiple_equilibria))

    def improvement_fraction(self, criterion: str) -> Fraction:
        """How often the optimal equilibrium strictly beats the arbitrary one."""
        return self._share(sum(
            1
            for r in self.records
            if criterion_value(criterion, r.best_values[criterion])
            > criterion_value(criterion, r.any_value)
        ))

    def social_gap_fraction(self) -> Fraction:
        """How often mixing strictly beats every pure equilibrium on welfare."""
        return self._share(sum(
            1
            for r in self.records
            if criterion_value("social", r.best_values["social"])
            > criterion_value("social", r.det_social_value)
        ))

    def timing_summary(self) -> dict[str, float]:
        if not self.records:
            return {"mean_total": 0.0, "max_total": 0.0}
        totals = [r.timings_ms["total"] for r in self.records]
        return {
            "mean_total": sum(totals) / len(totals),
            "max_total": max(totals),
        }


def solve_hand(config: ExperimentConfig, seed: int) -> HandRecord:
    """Deal, build, and solve one hand; deterministic given inputs."""
    ohoh_config = OhohConfig(config.cards, config.miss_penalty)
    t0 = time.perf_counter()
    # The build derives the card play once per (button, hands) and then
    # re-interns it per outcome window on int keys. Every walk below visits
    # each distinct node once, m-ary and one-child nodes as they are: a
    # 4-card hand has about 15k tree nodes but a few hundred distinct ones.
    game = build_dag(deal(ohoh_config, seed), ohoh_config)
    t1 = time.perf_counter()
    any_result = any_nash(game)
    t2 = time.perf_counter()
    set_map = compute_ups_all(game)
    root = set_map.by_node[game.root]
    best_values = {c: select_optimal(root, c) for c in config.criteria}
    t3 = time.perf_counter()
    det_map = compute_det_ups_all(game)
    det_social = select_optimal(det_map.by_node[game.root], "social")
    t4 = time.perf_counter()
    # One real extraction per hand keeps the timing honest and re-verifies
    # that the selected optimum is actually attained. A shared node may be
    # asked for two targets, so the check runs on the game split by target.
    social_target = best_values["social"]
    found = extract(game, set_map, game.root, social_target)
    if evaluate(found.game, found.strategy)[found.game.root] != social_target:
        raise AssertionError(f"extraction value mismatch on seed {seed}")
    t5 = time.perf_counter()
    tree_nodes, solved_nodes = tree_sizes(game)
    return HandRecord(
        seed=seed,
        tree_nodes=tree_nodes,
        solved_nodes=solved_nodes,
        n1=set_map.grid.n1,
        n2=set_map.grid.n2,
        any_value=any_result.value,
        best_values=best_values,
        det_social_value=det_social,
        multiple_equilibria=not is_single_point(root),
        timings_ms={
            "build": (t1 - t0) * 1000.0,
            "any_nash": (t2 - t1) * 1000.0,
            "ups": (t3 - t2) * 1000.0,
            "det": (t4 - t3) * 1000.0,
            "extract": (t5 - t4) * 1000.0,
            "total": (t5 - t0) * 1000.0,
        },
    )


class HandFailedError(RuntimeError):
    """Solving one hand of a study raised; names the hand's seed."""

    def __init__(self, seed: int, cause: BaseException):
        super().__init__(f"hand seed {seed} failed: {type(cause).__name__}: {cause}")
        self.seed = seed


def run_experiment(config: ExperimentConfig) -> ExperimentReport:
    """Solve hands for seeds base..base+N-1 and collect per-hand records.

    With jobs > 1 the hands are solved in a process pool of at most one
    worker per CPU and per hand; records are folded in seed order either
    way, so everything except timings is byte-identical across job counts.
    A hand that raises stops the study with HandFailedError.
    """
    # Bad settings are the caller's error, not a failure of any one hand.
    OhohConfig(config.cards, config.miss_penalty)
    seeds = range(config.seed, config.seed + config.hands)
    workers = min(config.jobs, os.cpu_count() or 1, config.hands)
    records = []
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(solve_hand, config, s) for s in seeds]
            for seed, future in zip(seeds, futures):
                try:
                    records.append(future.result())
                except Exception as exc:  # any worker failure ends the study
                    for pending in futures:
                        pending.cancel()
                    raise HandFailedError(seed, exc) from exc
    else:
        for seed in seeds:
            try:
                records.append(solve_hand(config, seed))
            except Exception as exc:  # any hand failure ends the study
                raise HandFailedError(seed, exc) from exc
    return ExperimentReport(config=config, records=records)


# -- report JSON ----------------------------------------------------------------


def _payoff_json(v: PayoffVector) -> list[str]:
    return [format_rational(v.p1), format_rational(v.p2)]


def report_to_json(report: ExperimentReport) -> str:
    """Render the report; rationals are reduced `p` / `p/q` strings."""
    cfg = report.config
    doc = {
        "config": {
            "cards": cfg.cards,
            "hands": cfg.hands,
            "seed": cfg.seed,
            "miss_penalty": cfg.miss_penalty,
            "criteria": list(cfg.criteria),
            "jobs": cfg.jobs,
        },
        "hands": report.hands,
        "per_hand": [
            {
                "seed": r.seed,
                "tree_nodes": r.tree_nodes,
                "solved_nodes": r.solved_nodes,
                "grid": [r.n1, r.n2],
                "any_nash": _payoff_json(r.any_value),
                "best": {c: _payoff_json(v) for c, v in r.best_values.items()},
                "det_social": _payoff_json(r.det_social_value),
                "multiple_equilibria": r.multiple_equilibria,
                "timings_ms": {k: round(v, 3) for k, v in r.timings_ms.items()},
            }
            for r in report.records
        ],
        "aggregates": {
            "multiple_equilibria": format_rational(
                report.multiple_equilibria_fraction()
            ),
            "improved": {
                c: format_rational(report.improvement_fraction(c))
                for c in cfg.criteria
            },
            "social_gap": format_rational(report.social_gap_fraction()),
            "runtime_ms": report.timing_summary(),
        },
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"
