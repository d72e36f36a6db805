"""The study harness: reports, aggregates, job pools and report goldens.

`report_digests.json` holds digests of whole experiment reports with every
timing value zeroed (the timing keys stay). Re-record it (only when a
report change is intended and explained) with
``PYTHONPATH=src python -m tests.test_experiment``.
"""

import dataclasses
import json
from concurrent.futures import Future
from fractions import Fraction

import pytest

from nashtree import experiment
from nashtree.experiment import (
    ExperimentConfig,
    HandFailedError,
    report_to_json,
    run_experiment,
    solve_hand,
)
from nashtree.solver import criterion_value

from .conftest import DATA
from .helpers import digest, reference_hand_record

GOLDEN = DATA / "report_digests.json"
# (cards, miss penalty, hands) of each recorded study; seeds start at 0.
GOLDEN_STUDIES = (
    *((cards, penalty, 40) for cards in (1, 2, 3) for penalty in ("flat", "mirror")),
    (4, "flat", 48),
    (4, "mirror", 20),
)


def _strip_timings(doc: dict) -> dict:
    doc = json.loads(json.dumps(doc))
    for record in doc["per_hand"]:
        record.pop("timings_ms")
    doc["aggregates"].pop("runtime_ms")
    return doc


class TestRunExperiment:
    def test_empty_run_has_zero_aggregates(self):
        report = run_experiment(ExperimentConfig(cards=2, hands=0))
        assert report.hands == 0
        assert report.multiple_equilibria_fraction() == 0
        assert report.social_gap_fraction() == 0
        for criterion in report.config.criteria:
            assert report.improvement_fraction(criterion) == 0
        assert report.timing_summary() == {"mean_total": 0.0, "max_total": 0.0}

    def test_deterministic_across_runs(self):
        config = ExperimentConfig(cards=2, hands=10, seed=5, miss_penalty="flat")
        a = json.loads(report_to_json(run_experiment(config)))
        b = json.loads(report_to_json(run_experiment(config)))
        assert _strip_timings(a) == _strip_timings(b)

    def test_jobs_do_not_change_results(self):
        base = ExperimentConfig(cards=2, hands=8, seed=3, miss_penalty="mirror")
        parallel = ExperimentConfig(
            cards=2, hands=8, seed=3, miss_penalty="mirror", jobs=2
        )
        a = _strip_timings(json.loads(report_to_json(run_experiment(base))))
        b = _strip_timings(json.loads(report_to_json(run_experiment(parallel))))
        b["config"]["jobs"] = 1
        assert a == b

    def test_aggregates_recomputable_from_records(self):
        config = ExperimentConfig(cards=3, hands=12, seed=0, miss_penalty="flat")
        report = run_experiment(config)
        multiple = sum(1 for r in report.records if r.multiple_equilibria)
        assert report.multiple_equilibria_fraction() == Fraction(multiple, 12)
        for criterion in config.criteria:
            improved = sum(
                1
                for r in report.records
                if criterion_value(criterion, r.best_values[criterion])
                > criterion_value(criterion, r.any_value)
            )
            assert report.improvement_fraction(criterion) == Fraction(improved, 12)

    def test_best_dominates_any_on_every_hand(self):
        config = ExperimentConfig(cards=3, hands=15, seed=7, miss_penalty="flat")
        report = run_experiment(config)
        for record in report.records:
            for criterion in config.criteria:
                assert criterion_value(
                    criterion, record.best_values[criterion]
                ) >= criterion_value(criterion, record.any_value)
            social_full = criterion_value("social", record.best_values["social"])
            social_det = criterion_value("social", record.det_social_value)
            assert social_full >= social_det

    def test_hand_record_fields(self):
        record = solve_hand(ExperimentConfig(cards=2, hands=1, seed=0), 4)
        assert record.seed == 4
        assert record.tree_nodes >= record.solved_nodes > 0
        assert record.n1 >= 1 and record.n2 >= 1
        assert set(record.timings_ms) == {
            "build",
            "any_nash",
            "ups",
            "det",
            "extract",
            "total",
        }


class _InlinePool:
    """Stands in for ProcessPoolExecutor: records its size, runs each task
    in this process when submitted, and starts no worker."""

    sizes: list[int] = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, *args):
        future = Future()
        try:
            future.set_result(fn(*args))
        except Exception as exc:  # delivered through the future, as a pool does
            future.set_exception(exc)
        return future


class TestJobs:
    @pytest.fixture
    def pool(self, monkeypatch):
        monkeypatch.setattr(experiment, "ProcessPoolExecutor", _InlinePool)
        _InlinePool.sizes = []
        return _InlinePool

    @pytest.mark.parametrize(
        "jobs, cpus, hands, size",
        [
            (10**9, 4, 3, 3),  # never more workers than hands
            (10**9, 4, 8, 4),  # never more workers than CPUs
            (3, 4, 8, 3),
            (10**9, None, 8, None),  # unknown CPU count: one worker, no pool
            (1, 4, 8, None),
        ],
    )
    def test_pool_size_is_clamped(self, pool, monkeypatch, jobs, cpus, hands, size):
        monkeypatch.setattr(experiment.os, "cpu_count", lambda: cpus)
        config = ExperimentConfig(cards=1, hands=hands, seed=2, jobs=jobs)
        report = run_experiment(config)
        assert pool.sizes == ([] if size is None else [size])
        assert [r.seed for r in report.records] == list(range(2, 2 + hands))
        assert json.loads(report_to_json(report))["config"]["jobs"] == jobs

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_hand_failure_names_its_seed(self, pool, monkeypatch, jobs):
        monkeypatch.setattr(experiment.os, "cpu_count", lambda: 2)

        def solve(config, seed):
            if seed == 5:
                raise ValueError("boom")
            return solve_hand(config, seed)

        monkeypatch.setattr(experiment, "solve_hand", solve)
        config = ExperimentConfig(cards=1, hands=4, seed=3, jobs=jobs)
        with pytest.raises(HandFailedError, match="hand seed 5 failed: ValueError: boom") as info:
            run_experiment(config)
        assert info.value.seed == 5

    def test_bad_config_is_rejected_before_any_hand(self):
        with pytest.raises(ValueError, match="cards per player"):
            run_experiment(ExperimentConfig(cards=9, hands=0))


class TestReportJson:
    def test_schema_and_rational_strings(self):
        config = ExperimentConfig(cards=2, hands=4, seed=1, miss_penalty="flat")
        doc = json.loads(report_to_json(run_experiment(config)))
        assert doc["hands"] == 4
        assert doc["config"]["miss_penalty"] == "flat"
        assert len(doc["per_hand"]) == 4
        first = doc["per_hand"][0]
        assert isinstance(first["any_nash"], list) and len(first["any_nash"]) == 2
        int(first["any_nash"][0])  # payoffs here are integers rendered as strings
        aggregate = doc["aggregates"]["multiple_equilibria"]
        assert isinstance(aggregate, str)
        assert set(doc["aggregates"]["improved"]) == set(config.criteria)


def _report_digest(report) -> str:
    doc = json.loads(report_to_json(report))
    for record in doc["per_hand"]:
        record["timings_ms"] = dict.fromkeys(record["timings_ms"], 0)
    doc["aggregates"]["runtime_ms"] = dict.fromkeys(doc["aggregates"]["runtime_ms"], 0)
    return digest(json.dumps(doc, indent=2, sort_keys=True))


def report_digests() -> dict[str, str]:
    return {
        f"{cards}-{penalty}-{hands}": _report_digest(
            run_experiment(ExperimentConfig(cards=cards, hands=hands, miss_penalty=penalty))
        )
        for cards, penalty, hands in GOLDEN_STUDIES
    }


def test_reports_match_golden():
    assert report_digests() == json.loads(GOLDEN.read_text())


@pytest.mark.parametrize(
    "cards, penalty, seeds",
    [
        (1, "flat", range(10)),
        (2, "mirror", range(10)),
        (3, "flat", range(10)),
        (3, "mirror", range(10)),
        (4, "flat", (0, 66, 110, 360)),
        (4, "mirror", (0, 5)),
    ],
)
def test_records_match_binarized_reference(cards, penalty, seeds):
    config = ExperimentConfig(cards=cards, hands=1, miss_penalty=penalty)
    for seed in seeds:
        record = dataclasses.replace(solve_hand(config, seed), timings_ms={})
        assert record == reference_hand_record(config, seed), seed


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(report_digests(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
