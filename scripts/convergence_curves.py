#!/usr/bin/env python3
"""Rate-vs-iteration curves for every channel model / training pairing.

Runs each variant through `harness.run_experiment` on the scale's
defaults and writes one CSV row per (variant, seed, iteration), from the
cells' iteration records, so the convergence of the alternating
optimizer can be plotted per model.  Desk scale by default; pass --scale
paper for the full-size layout (seconds).  A failed cell is printed to
standard error and makes the script exit 1 once the CSV is written.
"""

import argparse
import csv
import sys

from risbeam import harness
from risbeam.cli import open_output, seed_count


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--scale", choices=harness.SCALES, default="desk")
    ap.add_argument("--seeds", type=seed_count, default=10)
    ap.add_argument("--out", default="convergence.csv")
    args = ap.parse_args()

    # the scale's defaults parse for every variant
    variants = harness.variant_configs("", args.scale, args.seeds)
    failed = 0
    with open_output(args.out) as fh:
        writer = csv.writer(fh)
        writer.writerow(["variant", "seed", "iteration", "rate_bps_hz", "gamma"])
        for name, cfg in variants.items():
            result = harness.run_experiment(cfg)
            for row in result.rows:
                for rec in row.records:
                    writer.writerow([name, row.seed, rec.t,
                                     f"{rec.rate:.12g}", f"{rec.gamma:.6g}"])
            for err in result.errors:
                print(f"error: {name}: failed cell: {err}", file=sys.stderr)
            failed += len(result.errors)
            print(f"{name}: {len(result.errors)} failed cells"
                  if result.errors else f"{name}: done")
    print(f"wrote {args.out}")
    if failed:
        sys.exit(1)


if __name__ == "__main__":
    main()
