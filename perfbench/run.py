"""nashtree benchmark: one workload per run, measured end to end or traced.

Run from the repository root:

    python3 perfbench/run.py --workload study4 --seed 0 --seconds 15 --trace 0

Load is a closed loop from this one process: a single caller hands the
program one item at a time and sends the next only when the previous one
is solved and verified (jobs=1, no pool, no threads). Each item's outputs
are checked against goldens recorded by record_goldens.py; any mismatch or
error counts as a failure and makes the run exit 1. The failure ratio is
printed with the metrics and carried by `attempted` and `failed` in the
JSON line; it is not a metric there, because it is 0 for a correct program.

Every item has a solve phase and a verify phase, timed as solve_ms and
verify_ms: on hand5-cli the `solve` and `verify` commands, elsewhere the
library calls that produce the outputs and those that check them.

With `--trace 0` the last line of output is a JSON object holding the
end-to-end metrics. With `--trace 1` the same measured loop runs, then its
first items run again with spans around every call into a nashtree module,
and the last line holds the per-layer metrics instead; the spans go to
`.perfbench-out/spans-<workload>-<seed>.jsonl`. Set-up (importing nashtree
and generating the inputs) is repeated and its median reported.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

import analysis
from tracing import LAYERS, POST_ORDER, Tracer
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
GOLDENS = Path(__file__).resolve().parent / "goldens"

# The modules the benchmark calls into; each names a layer.
MODULES = ("ohoh", "gametree", "ups", "solver", "experiment", "oracle", "cli")

END_TO_END = {
    "setup_s": "s",
    "items_per_s": "1/s",
    "item_ms_p50": "ms",
    "item_ms_tail": "ms",
    "solve_ms": "ms",
    "verify_ms": "ms",
    "peak_rss_mb": "MB",
}


def per_layer_units() -> dict[str, str]:
    units = {f"{name}_ms": "ms" for name in LAYERS if name != "cli.main"}
    units.update({f"{name}_ms": "ms" for name in (POST_ORDER, *analysis.REPLAY_SPANS)})
    units.update({
        "ups.us_per_merge": "us",
        "ups.merges": "count",
        "ups.flag_ops": "count",
        "ups.flag_ops_per_merge_cell": "ratio",
        "oracle.targets": "count",
        "cli.overhead_ms": "ms",
        "trace.overhead_ratio": "ratio",
    })
    units.update(analysis.PROPERTY_UNITS)
    return units


PER_LAYER = per_layer_units()


def import_nashtree():
    """Import nashtree from this checkout's sources, afresh."""
    for name in [k for k in sys.modules if k == "nashtree" or k.startswith("nashtree.")]:
        del sys.modules[name]
    nt = importlib.import_module("nashtree")
    for module in MODULES:
        importlib.import_module(f"nashtree.{module}")
    if Path(nt.__file__).resolve().parent != SRC / "nashtree":
        raise ImportError(f"nashtree imported from {nt.__file__}, not from {SRC}")
    return nt


def commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "nashtree").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def tail(samples: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest sample with at least ten beyond it.

    Below 20 samples that sample would not even reach the median, so the
    maximum is given instead.
    """
    s = sorted(samples)
    n = len(s)
    if n < 20:
        return s[-1], 100.0
    return s[n - 11], 100.0 * (n - 10) / n


class Runner:
    def __init__(self, workload, goldens: dict, workdir: Path):
        self.wl = workload
        self.goldens = goldens
        self.workdir = workdir
        self.failed = 0
        self.attempted = 0

    def run_checked(self, nt, item):
        """(solve_s, verify_s) of one item, or None if it failed."""
        self.attempted += 1
        try:
            solve_s, verify_s, outputs = self.wl.run_item(nt, item, perf_counter)
        except Exception:  # noqa: BLE001 - a failed item is counted and reported
            traceback.print_exc(file=sys.stderr)
            self.failed += 1
            return None
        expected = self.goldens.get(str(item.key))
        if outputs != expected:
            print(f"golden mismatch on item {item.key}: got {outputs}, want {expected}",
                  file=sys.stderr)
            self.failed += 1
            return None
        return solve_s, verify_s

    def setup(self, keys):
        times = []
        for _ in range(self.wl.setup_reps):
            # Each repetition starts with no garbage left by the one before.
            gc.collect()
            t0 = perf_counter()
            nt = import_nashtree()
            items = self.wl.setup(nt, keys, self.workdir)
            times.append(perf_counter() - t0)
        return nt, items, statistics.median(times), times

    def measure(self, nt, items, seconds: float):
        """Closed loop over the items until `seconds` have passed, in whole rounds."""
        wl = self.wl
        least = max(wl.trace_items, wl.round_size)
        samples: list[tuple[float, float] | None] = []
        gc.collect()
        start = perf_counter()
        while True:
            samples.append(self.run_checked(nt, items[len(samples) % len(items)]))
            n = len(samples)
            if n >= least and n % wl.round_size == 0 and perf_counter() - start >= seconds:
                break
        return samples, perf_counter() - start

    def traced(self, nt, keys, items, untraced):
        """Re-run the first items with spans; returns the per-layer metrics."""
        k = self.wl.trace_items
        tracer = Tracer()
        tracer.install(nt)
        traced_s = 0.0
        try:
            tracer.item = "setup"
            with tracer.span("setup"):
                self.wl.setup(nt, keys, self.workdir)
            for j in range(k):
                tracer.item = j
                with tracer.span("item"):
                    result = self.run_checked(nt, items[j % len(items)])
                if result is not None:
                    traced_s += sum(result)
        finally:
            tracer.uninstall()
        base_s = sum(sum(s) for s in untraced[:k] if s is not None)
        props = analysis.Properties()
        for j in range(k):
            tracer.item = j
            found = self.wl.analyse(nt, items[j % len(items)])
            props.add(nt, found)
            analysis.replay(tracer, nt, found)
        return tracer, layer_metrics(tracer, k, props, traced_s / base_s if base_s else 0.0)


def layer_metrics(tracer: Tracer, items: int, props, overhead: float) -> dict[str, float]:
    self_s = tracer.self_times()
    out = {}
    for name in (*LAYERS, POST_ORDER, *analysis.REPLAY_SPANS):
        if name != "cli.main":
            out[f"{name}_ms"] = self_s.get(name, 0.0) * 1000.0 / items
    out["cli.overhead_ms"] = self_s.get("cli.main", 0.0) * 1000.0 / items
    out["ups.us_per_merge"] = (
        self_s.get("ups.merge", 0.0) * 1e6 / props.merges if props.merges else 0.0
    )
    targets = sum(
        1 for name, _, _, parent, _ in tracer.spans
        if name == "solver.extract" and parent >= 0
        and tracer.spans[parent][0] == "oracle.cross_validate"
    )
    out["oracle.targets"] = targets / items
    out["trace.overhead_ratio"] = overhead
    out.update(props.metrics(items))
    return out


def summarise(samples, wall: float, setup_s: float):
    """End-to-end metrics of the measured loop, the tail's percentile and sample count."""
    completed = [s for s in samples if s is not None]
    ok = completed or [(0.0, 0.0)]
    item_ms = [(a + b) * 1000.0 for a, b in ok]
    tail_ms, tail_pct = tail(item_ms)
    metrics = {
        "setup_s": setup_s,
        "items_per_s": len(completed) / wall,
        "item_ms_p50": statistics.median(item_ms),
        "item_ms_tail": tail_ms,
        "solve_ms": statistics.median(a * 1000.0 for a, _ in ok),
        "verify_ms": statistics.median(b * 1000.0 for _, b in ok),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return metrics, tail_pct, len(completed)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "small"), default="full",
                        help="small runs every workload at its smallest size (self-test)")
    args = parser.parse_args(argv)

    if not (SRC / "nashtree" / "__init__.py").is_file():
        print(f"error: no nashtree sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    wl = WORKLOADS[args.workload](args.size)
    golden_path = GOLDENS / f"{wl.name}-{args.size}.json"
    goldens = json.loads(golden_path.read_text(encoding="utf-8"))
    keys = wl.order(args.seed, goldens)
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir()
    try:
        runner = Runner(wl, goldens, workdir)
        nt, items, setup_s, setup_reps = runner.setup(keys)
        samples, wall = runner.measure(nt, items, args.seconds)
        tracer = layers = None
        if args.trace:
            tracer, layers = runner.traced(nt, keys, items, samples)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    end_to_end, tail_pct, completed = summarise(samples, wall, setup_s)
    record = {
        "workload": wl.name,
        "why": wl.why,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "size_params": wl.params,
        "load": "closed loop, 1 caller, 1 item at a time, jobs=1, no pool",
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": commit(),
        "src_sha256": src_digest(),
        "items": len(samples),
        "tail_percentile": round(tail_pct, 2),
        "tail_samples": completed,
        "setup_reps_s": setup_reps,
        "fail_ratio": runner.failed / runner.attempted,
    }
    print("run " + json.dumps(record, sort_keys=True))
    print(f"fail_ratio {runner.failed / runner.attempted} ratio "
          f"({runner.failed} of {runner.attempted} items)")
    for name, unit in END_TO_END.items():
        print(f"{name} {end_to_end[name]} {unit}")
    metrics = {name: {"value": end_to_end[name], "unit": unit} for name, unit in END_TO_END.items()}
    if layers is not None:
        for name, unit in PER_LAYER.items():
            print(f"{name} {layers[name]} {unit}")
        metrics = {name: {"value": layers[name], "unit": unit} for name, unit in PER_LAYER.items()}
        tracer.write(OUT / f"spans-{wl.name}-{args.seed}.jsonl", record)
    correct = runner.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
