"""Record the golden outputs of every pool item of the benchmark's workloads.

Run from the repository root, at the commit whose outputs become the
reference:

    python3 perfbench/record_goldens.py [--workload NAME] [--size full|small]

Writes `perfbench/goldens/<workload>-<size>.json`, mapping each pool key
(hand or tree seed) to the outputs `run_item` returns for it. Refuses to
record an item whose own verdicts fail, so the goldens only hold outputs
that were verified: equilibrium checks, exact values and the oracle.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
from time import perf_counter

from run import GOLDENS, OUT, SRC, import_nashtree
from workloads import WORKLOADS, Hand5Cli, TinyOracle, WideGrid


def verdicts_hold(workload, outputs: dict) -> bool:
    if isinstance(workload, Hand5Cli):
        value = outputs["value"].removeprefix("value ")
        return outputs["verify"] == f"equilibrium: yes, value {value}"
    if isinstance(workload, WideGrid):
        return outputs["is_equilibrium"] and outputs["evaluate"]
    if isinstance(workload, TinyOracle):
        return outputs["cross_validate"]
    return True  # the study raises on an extraction that misses its target


def record(name: str, size: str) -> None:
    wl = WORKLOADS[name](size)
    nt = import_nashtree()
    workdir = OUT / "record"
    workdir.mkdir(parents=True, exist_ok=True)
    goldens = {}
    t0 = perf_counter()
    try:
        for key in wl.pool():
            (item,) = wl.setup(nt, [key], workdir)
            _, _, outputs = wl.run_item(nt, item, perf_counter)
            if not verdicts_hold(wl, outputs):
                raise SystemExit(f"{name} item {key}: verdict failed: {outputs}")
            goldens[str(key)] = outputs
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    path = GOLDENS / f"{name}-{size}.json"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("{\n")
        fh.write(",\n".join(
            f"{json.dumps(k)}: {json.dumps(v, sort_keys=True)}" for k, v in goldens.items()
        ))
        fh.write("\n}\n")
    print(f"{path.name}: {len(goldens)} items in {perf_counter() - t0:.1f} s", flush=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--size", choices=("full", "small"))
    args = parser.parse_args(argv)
    sys.path.insert(0, str(SRC))
    GOLDENS.mkdir(exist_ok=True)
    OUT.mkdir(exist_ok=True)
    for name in [args.workload] if args.workload else sorted(WORKLOADS):
        for size in [args.size] if args.size else ("small", "full"):
            record(name, size)
    return 0


if __name__ == "__main__":
    sys.exit(main())
