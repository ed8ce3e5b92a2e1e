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
  direction BENCHMARK.json gives as `better` (ties count for neither);
- `regressions`: every end-to-end metric, per workload, whose change
  median is worse than the parent's by more than its BENCHMARK.json
  `bound`, relative to the parent's median;
- `unresolved`: every end-to-end metric, per workload, whose parent
  quartile distance, relative to the parent's median, exceeds its
  `bound`, unless every change run reads better than every parent run.
  Within such a spread a median inside the bound does not show that
  the metric held, so it is reported as unresolved, not as unchanged.
- `claims`: for every metric, whether a gain may be claimed on it:
  true when the change wins at least 9 of every 10 pairs and its median
  is better than the parent's by more than the parent's quartile
  distance.

After the pairs, `bench/run.py --workload all --seed 3 --seconds 0.01
--trace 1` runs once in each checkout: one traced round on seeds the
pairs do not use.  Its per-layer metrics are kept under `counts`, so
that the per-cell counts of both sides can be compared without taking
them from medians over time-bounded runs.

`checkouts` names what was compared: each side's `git rev-parse HEAD`
and whether its tree differs from that commit (`git status
--porcelain`, untracked files included), read before the first run;
both are null for a directory that is not a git checkout.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

PAIRS = 10
SECONDS = 12
# the one traced round whose per-layer counts the record keeps
COUNTS_SEED, COUNTS_SECONDS = 3, 0.01
# +1 where a larger value of a metric is better, -1 where a smaller one is
SIGN = {"higher": 1, "lower": -1}


def run(checkout: Path, trace: int, seed: int = 0,
        seconds: float = SECONDS) -> dict:
    cmd = [sys.executable, "bench/run.py", "--workload", "all",
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=checkout, check=True, capture_output=True,
                         text=True).stdout
    result = json.loads(out.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        raise RuntimeError(f"{checkout} --trace {trace}: correct="
                           f"{result['correct']}, failed={result['failed']}")
    return result


def checkout_state(checkout: Path) -> dict:
    """The commit `checkout` holds and whether its tree is dirty."""
    def git(*args):
        # the ceiling keeps git from reporting a repository above checkout
        env = {**os.environ,
               "GIT_CEILING_DIRECTORIES": str(checkout.resolve().parent)}
        out = subprocess.run(["git", "-C", str(checkout), *args], env=env,
                             capture_output=True, text=True)
        return out.stdout.strip() if out.returncode == 0 else None

    head = git("rev-parse", "HEAD")
    if head is None:
        return {"head": None, "dirty": None}
    return {"head": head, "dirty": git("status", "--porcelain") != ""}


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
            sign = SIGN[better[name.split(".", 1)[1]]]
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


def end_to_end(names, declared: dict):
    """(name, sign, bound) for each of `names` (<workload>.<benchmark
    metric>) whose metric `declared` lists as end to end."""
    limits = {m["name"]: (SIGN[m["better"]], m["bound"])
              for m in declared["end_to_end"]}
    for name in names:
        metric = name.split(".", 1)[1]
        if metric in limits:
            yield (name, *limits[metric])


def regressions(medians: dict, declared: dict) -> list:
    """End-to-end metrics of `summary`'s medians that break their bound."""
    found = []
    for name, sign, bound in end_to_end(medians["parent"], declared):
        old, new = medians["parent"][name], medians["change"][name]
        if sign * (new - old) < -bound * abs(old):
            found.append({"metric": name, "parent": old, "change": new,
                          "bound": bound})
    return found


def unresolved(stats: dict, pairs: list, declared: dict) -> list:
    """End-to-end metrics whose parent runs spread wider than their bound."""
    found = []
    quartiles = stats["quartiles"]["parent"]
    for name, sign, bound in end_to_end(quartiles, declared):
        (q1, q3), old = quartiles[name], stats["median"]["parent"][name]
        if q3 - q1 <= bound * abs(old):
            continue
        runs = {side: [sign * pair[side]["metrics"][name]["value"]
                       for pair in pairs] for side in ("parent", "change")}
        if min(runs["change"]) > max(runs["parent"]):
            continue
        found.append({"metric": name, "parent": old, "quartiles": [q1, q3],
                      "bound": bound})
    return found


def claims(stats: dict, n_pairs: int, better: dict) -> dict:
    """Per metric of `summary`'s stats: may a gain be claimed on it?"""
    out = {}
    for name, (q1, q3) in stats["quartiles"]["parent"].items():
        sign = SIGN[better[name.split(".", 1)[1]]]
        gap = sign * (stats["median"]["change"][name]
                      - stats["median"]["parent"][name])
        out[name] = 10 * stats["wins"][name] >= 9 * n_pairs and gap > q3 - q1
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--out", required=True)
    args = ap.parse_args()
    declared = json.loads((args.change / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"]
              for m in declared["end_to_end"] + declared["per_layer"]}

    per_layer = {m["name"] for m in declared["per_layer"]}

    record = {"command": f"bench/run.py --workload all --seed 0 "
                         f"--seconds {SECONDS} --trace <0|1>",
              "order": "parent first in odd pairs, change first in even",
              "checkouts": {side: checkout_state(getattr(args, side))
                            for side in ("parent", "change")}}
    for trace in (0, 1):
        pairs = []
        for i in range(PAIRS):
            order = ("parent", "change")[::1 if i % 2 == 0 else -1]
            pair = {side: run(getattr(args, side), trace) for side in order}
            pairs.append(pair)
            print(f"trace {trace} pair {i + 1}/{PAIRS} done", flush=True)
        stats = summary(pairs, better)
        record[f"trace{trace}"] = {
            **stats, "regressions": regressions(stats["median"], declared),
            "unresolved": unresolved(stats, pairs, declared),
            "claims": claims(stats, len(pairs), better), "pairs": pairs}
    record["counts"] = {"command": f"bench/run.py --workload all --seed "
                                   f"{COUNTS_SEED} --seconds {COUNTS_SECONDS}"
                                   f" --trace 1"}
    for side in ("parent", "change"):
        metrics = run(getattr(args, side), 1, COUNTS_SEED,
                      COUNTS_SECONDS)["metrics"]
        # metric names are <workload>.<benchmark metric>
        record["counts"][side] = {
            name: metric for name, metric in metrics.items()
            if name.split(".", 1)[1] in per_layer}
    with open(args.out, "w") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
