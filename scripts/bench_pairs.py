#!/usr/bin/env python3
"""Benchmark a change against its parent in alternating pairs of runs.

    python3 scripts/bench_pairs.py PARENT_DIR CHANGE_DIR --out BENCH_<n>.json

PARENT_DIR and CHANGE_DIR are checkouts of the two commits.  For each
of PAIRS pairs and each `--trace` setting, `bench/run.py --workload all
--seconds SECONDS` runs in both, the parent first in odd pairs and the
change first in even ones; the final JSON line of every run is kept.
A run that reports `correct: false` or any failed row stops the script.
The file also holds, per trace setting and metric:

- `median`: the median over the pairs on both sides, and the median
  over the pairs of change / parent;
- `quartiles`: the first and third quartile on both sides (the
  exclusive method of `statistics.quantiles`);
- `wins`: the number of pairs in which the change was better, in the
  direction BENCHMARK.json gives as `better` (ties count for neither).

A gain may be claimed when the change wins at least 9 of 10 pairs and
the medians differ by more than the parent's quartile distance.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

PAIRS = 10
SECONDS = 12


def run(checkout: Path, trace: int) -> dict:
    cmd = [sys.executable, "bench/run.py", "--workload", "all",
           "--seconds", str(SECONDS), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=checkout, check=True, capture_output=True,
                         text=True).stdout
    result = json.loads(out.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        raise RuntimeError(f"{checkout} --trace {trace}: correct="
                           f"{result['correct']}, failed={result['failed']}")
    return result


def summary(pairs: list, better: dict) -> dict:
    values = {side: {} for side in ("parent", "change", "ratio")}
    wins = {}
    for pair in pairs:
        if pair["change"]["metrics"].keys() != pair["parent"]["metrics"].keys():
            raise ValueError("parent and change report different metrics")
        for name, metric in pair["change"]["metrics"].items():
            old = pair["parent"]["metrics"][name]["value"]
            new = metric["value"]
            values["parent"].setdefault(name, []).append(old)
            values["change"].setdefault(name, []).append(new)
            if old:
                values["ratio"].setdefault(name, []).append(new / old)
            # metric names are <workload>.<benchmark metric>
            sign = {"higher": 1, "lower": -1}[better[name.split(".", 1)[1]]]
            wins[name] = wins.get(name, 0) + (sign * (new - old) > 0)
    return {
        "median": {side: {name: statistics.median(v)
                          for name, v in sorted(m.items())}
                   for side, m in values.items()},
        "quartiles": {side: {name: statistics.quantiles(v, n=4)[::2]
                             for name, v in sorted(values[side].items())}
                      for side in ("parent", "change")},
        "wins": dict(sorted(wins.items())),
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--out", required=True)
    args = ap.parse_args()
    declared = json.loads((args.change / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"]
              for m in declared["end_to_end"] + declared["per_layer"]}

    record = {"command": f"bench/run.py --workload all --seconds {SECONDS} "
                         f"--trace <0|1>",
              "order": "parent first in odd pairs, change first in even"}
    for trace in (0, 1):
        pairs = []
        for i in range(PAIRS):
            order = ("parent", "change")[::1 if i % 2 == 0 else -1]
            pair = {side: run(getattr(args, side), trace) for side in order}
            pairs.append(pair)
            print(f"trace {trace} pair {i + 1}/{PAIRS} done", flush=True)
        record[f"trace{trace}"] = {**summary(pairs, better), "pairs": pairs}
    with open(args.out, "w") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
