"""The four benchmark workloads: their inputs, their items and their outputs.

A workload turns a run seed into an ordered list of items drawn from a
fixed pool whose outputs were recorded as goldens (see record_goldens.py).
Each item is solved and then verified; `run_item` returns the two phase
times and an outputs dict that must equal the item's golden entry.

Inputs reach the program only through its stable formats: hand seeds for
the study, `.gtree` text for everything else. The benchmark's own tree
generator makes the random trees, so a change to `nashtree.oracle` cannot
move the inputs.

Nothing here imports nashtree at module level: the package is imported
afresh during each set-up repetition, so every function takes the package
object `nt` that the run finally kept.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from dataclasses import dataclass
from pathlib import Path

from analysis import Analysis

CRITERIA = ("social", "fair", "max", "best1", "best2")


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def random_gtree(rng: random.Random, internal: int, values: int, tie_bias: float) -> str:
    """`.gtree` text of a random binary tree with `internal` internal nodes.

    Shapes come from a uniform split of the internal-node budget,
    controllers are uniform, and each payoff component is an integer in
    [0, values). With probability `tie_bias` a component instead repeats a
    value already drawn for that player, which makes exact ties (and so
    mixing) more frequent.
    """
    pools: tuple[list[int], list[int]] = ([], [])

    def draw(player: int) -> int:
        pool = pools[player]
        if pool and rng.random() < tie_bias:
            return rng.choice(pool)
        value = rng.randrange(values)
        pool.append(value)
        return value

    lines = ["gtree v1", "root 1"]
    next_id = 2
    stack = [(1, internal)]
    while stack:
        nid, budget = stack.pop()
        if budget == 0:
            lines.append(f"leaf {nid} payoff {draw(0)} {draw(1)}")
            continue
        left = rng.randrange(budget)
        lines.append(f"node {nid} player {rng.randint(1, 2)} children {next_id} {next_id + 1}")
        stack.append((next_id + 1, budget - 1 - left))
        stack.append((next_id, left))
        next_id += 2
    return "\n".join(lines) + "\n"


def _solve_like_study(nt, tree):
    """The study's per-hand solve on an already binary tree."""
    solver = nt.solver
    any_value = solver.any_nash(tree).value
    set_map = solver.compute_ups_all(tree)
    root = set_map.by_node[tree.root]
    best = {c: solver.select_optimal(root, c) for c in CRITERIA}
    det_map = solver.compute_det_ups_all(tree)
    det_social = solver.select_optimal(det_map.by_node[tree.root], "social")
    return any_value, set_map, best, det_social


def _value_outputs(any_value, best, det_social) -> dict:
    return {
        "any": str(any_value),
        "best": {c: str(v) for c, v in best.items()},
        "det_social": str(det_social),
    }


@dataclass(frozen=True)
class Item:
    key: int  # pool key: hand seed or tree seed
    payload: object  # what the program receives: a seed, a path or `.gtree` text


class Workload:
    name: str
    why: str
    sizes: dict[str, dict]
    setup_reps: int  # set-up repetitions whose median is setup_s

    def __init__(self, size: str):
        self.params = self.sizes[size]

    @property
    def trace_items(self) -> int:
        """Items in the traced pass; also the least number any run measures."""
        return self.params["trace_items"]

    @property
    def round_size(self) -> int:
        """A run ends only after a whole round of items."""
        return 1

    def pool(self) -> list[int]:
        """Keys of every item that has a golden entry."""
        raise NotImplementedError

    def order(self, seed: int, goldens: dict) -> list[int]:
        """Item keys in the order a run with this seed measures them."""
        keys = self.pool()
        random.Random(f"{self.name}/{seed}").shuffle(keys)
        return keys

    def setup(self, nt, keys: list[int], workdir: Path) -> list[Item]:
        raise NotImplementedError

    def run_item(self, nt, item: Item, clock) -> tuple[float, float, dict]:
        raise NotImplementedError

    def analyse(self, nt, item: Item) -> Analysis:
        """Recompute what the traced pass inspects, outside every timing."""
        raise NotImplementedError


class Study4(Workload):
    name = "study4"
    why = ("paper's headline study: mid-sized card trees on tiny grids with heavy "
           "subtree sharing, so tree-object layers dominate")
    sizes = {
        "full": {"cards": 4, "miss_penalty": "flat", "pool_hands": 480, "strata": 48,
                 "trace_items": 48},
        "small": {"cards": 3, "miss_penalty": "flat", "pool_hands": 24, "strata": 4,
                  "trace_items": 4},
    }
    setup_reps = 15

    @property
    def round_size(self) -> int:
        return self.params["strata"]

    def pool(self):
        return list(range(self.params["pool_hands"]))

    def order(self, seed: int, goldens: dict) -> list[int]:
        # Hand cost spans 20x and follows tree size, so hands are drawn
        # round-robin from equal-count size strata: every whole round has the
        # same mix of small and large hands, whatever the seed.
        rng = random.Random(f"{self.name}/{seed}")
        by_size = sorted(self.pool(), key=lambda h: (goldens[str(h)]["solved_nodes"], h))
        k = self.params["strata"]
        per = len(by_size) // k
        strata = [by_size[i * per:(i + 1) * per] for i in range(k)]
        for stratum in strata:
            rng.shuffle(stratum)
        return [stratum[r] for r in range(per) for stratum in strata]

    def setup(self, nt, keys, workdir):
        return [Item(k, k) for k in keys]

    def _config(self, nt, hand: int):
        return nt.experiment.ExperimentConfig(
            cards=self.params["cards"], hands=1, seed=hand,
            miss_penalty=self.params["miss_penalty"], jobs=1,
        )

    def run_item(self, nt, item, clock):
        t0 = clock()
        report = nt.experiment.run_experiment(self._config(nt, item.payload))
        text = nt.experiment.report_to_json(report)
        t1 = clock()
        doc = json.loads(text)
        hand = doc["per_hand"][0]
        outputs = {
            "any": " ".join(hand["any_nash"]),
            "best": {c: " ".join(v) for c, v in hand["best"].items()},
            "det_social": " ".join(hand["det_social"]),
            "tree_nodes": hand["tree_nodes"],
            "solved_nodes": hand["solved_nodes"],
        }
        outputs["report"] = digest(_report_without_timings(doc))
        return t1 - t0, clock() - t1, outputs

    def analyse(self, nt, item):
        cfg = nt.ohoh.OhohConfig(self.params["cards"], self.params["miss_penalty"])
        raw = nt.ohoh.build_tree(nt.ohoh.deal(cfg, item.payload), cfg)
        work = nt.gametree.binarize(raw)
        set_map = nt.solver.compute_ups_all(work)
        social = nt.solver.select_optimal(set_map.by_node[work.root], "social")
        strategy = nt.solver.extract_strategy(work, set_map, work.root, social)
        return Analysis(
            raw_text=nt.gametree.serialize_game_tree(raw),
            bin_text=nt.gametree.serialize_game_tree(work),
            set_map=set_map,
            strategies=[nt.gametree.serialize_strategy(strategy)],
        )


def _report_without_timings(doc: dict) -> str:
    # Timings are the only report fields allowed to differ between runs.
    for hand in doc["per_hand"]:
        del hand["timings_ms"]
    del doc["aggregates"]["runtime_ms"]
    return json.dumps(doc, sort_keys=True)


class Hand5Cli(Workload):
    name = "hand5-cli"
    why = ("one 5-card hand through the CLI as a user runs it: text parse and "
           "serialize, validation, strategy folding and m-ary verify at 383k nodes")
    # Deal seeds whose 5-card flat tree has within 3% of the 383,017 raw nodes
    # of seed 0 (seeds 0..399 scanned), so every run times a like-sized hand.
    sizes = {
        "full": {"cards": 5, "miss_penalty": "flat", "criterion": "social",
                 "hands": (0, 20, 25, 126, 145, 211, 226, 271, 304), "trace_items": 1},
        "small": {"cards": 3, "miss_penalty": "flat", "criterion": "social",
                  "hands": (0, 1, 2), "trace_items": 1},
    }
    setup_reps = 3

    def pool(self):
        return list(self.params["hands"])

    def order(self, seed, goldens):
        hands = self.pool()
        return [hands[random.Random(f"{self.name}/{seed}").randrange(len(hands))]]

    def setup(self, nt, keys, workdir):
        cfg = nt.ohoh.OhohConfig(self.params["cards"], self.params["miss_penalty"])
        items = []
        for hand in keys:
            tree = nt.ohoh.build_tree(nt.ohoh.deal(cfg, hand), cfg)
            path = workdir / f"hand{hand}.gtree"
            path.write_text(nt.gametree.serialize_game_tree(tree), encoding="utf-8")
            del tree
            items.append(Item(hand, path))
        return items

    def run_item(self, nt, item, clock):
        gtree = item.payload
        solved = gtree.with_suffix(".solve")
        strategy_path = gtree.with_suffix(".strat")
        t0 = clock()
        rc = nt.cli.main([
            "solve", "--input", str(gtree), "--criterion", self.params["criterion"],
            "--emit-strategy", "--emit-ups", "--out", str(solved),
        ])
        t1 = clock()
        if rc != 0:
            raise RuntimeError(f"solve exited {rc}")
        text = solved.read_text(encoding="utf-8")
        value_line, rest = text.split("\n", 1)
        strategy_text, ups_text = rest.split("ups v1\n", 1)
        strategy_path.write_text(strategy_text, encoding="utf-8")
        del text, rest, strategy_text
        out = io.StringIO()
        t2 = clock()
        with contextlib.redirect_stdout(out):
            rc = nt.cli.main(["verify", "--input", str(gtree), "--strategy", str(strategy_path)])
        t3 = clock()
        if rc != 0:
            raise RuntimeError(f"verify exited {rc}")
        outputs = {
            "value": value_line,
            "ups": digest("ups v1\n" + ups_text),
            "verify": out.getvalue().strip(),
        }
        return t1 - t0, t3 - t2, outputs

    def analyse(self, nt, item):
        raw_text = item.payload.read_text(encoding="utf-8")
        work = nt.gametree.binarize(nt.gametree.parse_game_tree(raw_text))
        set_map = nt.solver.compute_ups_all(work)
        strategy_text = item.payload.with_suffix(".strat").read_text(encoding="utf-8")
        return Analysis(
            raw_text=raw_text,
            bin_text=nt.gametree.serialize_game_tree(work),
            set_map=set_map,
            strategies=[strategy_text],
        )


class _TreeWorkload(Workload):
    """Items are seeded random trees handed to the program as `.gtree` text."""

    setup_reps = 15

    def tree_text(self, key: int) -> str:
        p = self.params
        rng = random.Random(f"{self.name}/tree/{key}")
        internal = p["internal"] if isinstance(p["internal"], int) else rng.randint(*p["internal"])
        return random_gtree(rng, internal, p["values"], p["tie_bias"])

    def pool(self):
        return list(range(self.params["pool_trees"]))

    def setup(self, nt, keys, workdir):
        count = min(len(keys), self.params["setup_trees"])
        return [Item(k, self.tree_text(k)) for k in keys[:count]]


class WideGrid(_TreeWorkload):
    name = "wide-grid"
    why = ("random binary trees with ~120x120 payoff grids and little sharing, "
           "so the set-algebra kernel dominates")
    sizes = {
        "full": {"internal": 8000, "values": 120, "tie_bias": 0.5, "pool_trees": 64,
                 "setup_trees": 12, "trace_items": 2},
        "small": {"internal": 300, "values": 20, "tie_bias": 0.5, "pool_trees": 8,
                  "setup_trees": 8, "trace_items": 1},
    }
    setup_reps = 7

    def run_item(self, nt, item, clock):
        t0 = clock()
        tree = nt.gametree.parse_game_tree(item.payload)
        any_value, set_map, best, det_social = _solve_like_study(nt, tree)
        strategy = nt.solver.extract_strategy(tree, set_map, tree.root, best["social"])
        t1 = clock()
        outputs = _value_outputs(any_value, best, det_social)
        outputs["ups"] = digest(nt.ups.serialize_ups(set_map.by_node[tree.root]))
        outputs["is_equilibrium"] = nt.gametree.is_equilibrium(tree, strategy).ok
        outputs["evaluate"] = nt.gametree.evaluate(tree, strategy)[tree.root] == best["social"]
        return t1 - t0, clock() - t1, outputs

    def analyse(self, nt, item):
        tree = nt.gametree.parse_game_tree(item.payload)
        set_map = nt.solver.compute_ups_all(tree)
        social = nt.solver.select_optimal(set_map.by_node[tree.root], "social")
        strategy = nt.solver.extract_strategy(tree, set_map, tree.root, social)
        return Analysis(
            raw_text=item.payload,
            bin_text=item.payload,
            set_map=set_map,
            strategies=[nt.gametree.serialize_strategy(strategy)],
        )


class TinyOracle(_TreeWorkload):
    name = "tiny-oracle"
    why = ("hundreds of 1-10 node trees checked by the brute-force oracle, so "
           "per-call fixed costs dominate; the only workload that runs the oracle")
    sizes = {
        "full": {"internal": (1, 10), "values": 4, "tie_bias": 0.0, "samples": 3,
                 "pool_trees": 2048, "setup_trees": 2048, "trace_items": 400},
        "small": {"internal": (1, 10), "values": 4, "tie_bias": 0.0, "samples": 3,
                  "pool_trees": 64, "setup_trees": 64, "trace_items": 16},
    }

    def run_item(self, nt, item, clock):
        t0 = clock()
        tree = nt.gametree.parse_game_tree(item.payload)
        any_value, set_map, best, det_social = _solve_like_study(nt, tree)
        t1 = clock()
        outputs = _value_outputs(any_value, best, det_social)
        outputs["ups"] = digest(nt.ups.serialize_ups(set_map.by_node[tree.root]))
        report = nt.oracle.cross_validate(
            tree, seed=item.key, samples=self.params["samples"], shrink=False)
        outputs["cross_validate"] = report.passed
        return t1 - t0, clock() - t1, outputs

    def analyse(self, nt, item):
        tree = nt.gametree.parse_game_tree(item.payload)
        set_map = nt.solver.compute_ups_all(tree)
        root = set_map.by_node[tree.root]
        # The oracle extracts one strategy per sampled point of the root set.
        strategies = [
            nt.gametree.serialize_strategy(
                nt.solver.extract_strategy(tree, set_map, tree.root, target))
            for target in nt.oracle.sample_ups_points(
                root, per_element=self.params["samples"], seed=item.key)
        ]
        return Analysis(
            raw_text=item.payload,
            bin_text=item.payload,
            set_map=set_map,
            strategies=strategies,
        )


WORKLOADS = {w.name: w for w in (Study4, Hand5Cli, WideGrid, TinyOracle)}
