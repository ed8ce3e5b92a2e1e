#!/usr/bin/env python3
"""Rate-vs-iteration curves for every channel model / training pairing.

Writes one CSV row per (variant, seed, iteration) so the convergence of
the alternating optimizer can be plotted per model.  Desk scale by
default; pass --scale paper for the full-size layout (seconds).
"""

import argparse
import csv
from dataclasses import replace

from risbeam import harness
from risbeam.cli import seed_count


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--scale", choices=("desk", "paper"), default="desk")
    ap.add_argument("--seeds", type=seed_count, default=10)
    ap.add_argument("--out", default="convergence.csv")
    args = ap.parse_args()

    cfg = harness.parse_config("", scale=args.scale)
    with open(args.out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["variant", "seed", "iteration", "rate_bps_hz", "gamma"])
        for name, tag, scheme in harness.VARIANTS:
            for seed in range(args.seeds):
                state = harness.solve_cell(
                    replace(cfg, model=tag, training=scheme), seed)
                for rec in state.records:
                    writer.writerow([name, seed, rec.t, f"{rec.rate:.12g}",
                                     f"{rec.gamma:.6g}"])
            print(f"{name}: done")
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
