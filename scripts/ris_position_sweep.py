#!/usr/bin/env python3
"""Achievable rate as the RIS moves along one axis, per channel model.

Runs the harness once per (model, training) variant with a ris_z or
ris_x sweep and merges the per-variant summaries into a single CSV.
"""

import argparse
import csv
from dataclasses import replace

from risbeam import harness


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--scale", choices=("desk", "paper"), default="desk")
    ap.add_argument("--axis", choices=("ris_z", "ris_x"), default="ris_z")
    ap.add_argument("--values", default=None,
                    help="comma-separated positions in meters")
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--out", default="ris_position.csv")
    args = ap.parse_args()

    if args.values:
        values = [float(v) for v in args.values.split(",")]
    elif args.scale == "desk":
        values = [0.02, 0.04, 0.06, 0.08, 0.10]
    else:
        values = [2.0, 4.0, 6.0, 8.0, 10.0]
    sweep = f"sweep: {args.axis} in [{', '.join(str(v) for v in values)}]"
    base = harness.parse_config(sweep, scale=args.scale)

    with open(args.out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["variant", args.axis, "mean_rate_bps_hz",
                         "std_rate_bps_hz", "n"])
        for name, tag, scheme in harness.VARIANTS:
            cfg = replace(base, model=tag, training=scheme,
                          seeds=tuple(range(args.seeds)))
            result = harness.run_experiment(cfg)
            for _, value, _, mean, std, n in result.summary:
                writer.writerow([name, f"{value:.6g}", f"{mean:.12g}",
                                 f"{std:.12g}", n])
            print(f"{name}: done")
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
