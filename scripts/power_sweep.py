#!/usr/bin/env python3
"""Achievable rate versus transmit power budget, per channel model."""

import argparse
import csv
from dataclasses import replace

from risbeam import harness


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--scale", choices=("desk", "paper"), default="desk")
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--out", default="power_sweep.csv")
    args = ap.parse_args()

    center = -50.0 if args.scale == "desk" else 30.0
    values = [center + delta for delta in (-10, -5, 0, 5, 10)]
    sweep = f"sweep: power_dbm in [{', '.join(str(v) for v in values)}]"
    base = harness.parse_config(sweep, scale=args.scale)

    with open(args.out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["variant", "power_dbm", "mean_rate_bps_hz",
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
