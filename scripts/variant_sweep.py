#!/usr/bin/env python3
"""Achievable rate over a config's sweep, per channel model / training pairing.

Runs the harness on CONFIG once per harness.VARIANTS entry, with that
entry's model and training scheme and seeds 0..N-1, and merges the
per-variant summaries into one CSV.  The sweep comes from the config:

    python3 scripts/variant_sweep.py configs/desk_power_sweep.cfg
    python3 scripts/variant_sweep.py configs/paper_ris_height.cfg --scale paper

A cell that raises is left out of its row's mean, std and n, as in the
summary `risbeam run` writes (a value whose cells all raise reads nan,
nan, 0).  Each failed cell is printed to standard error, and the script
exits with status 1 once the CSV is written.
"""

import argparse
import csv
import sys
from dataclasses import replace

from risbeam import harness


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("config", help="sweep config file")
    ap.add_argument("--scale", choices=("desk", "paper"), default="desk")
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--out", default="variant_sweep.csv")
    args = ap.parse_args()

    base = harness.load_config(args.config, scale=args.scale)
    failed = 0
    with open(args.out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["variant", base.sweep_param, "mean_rate_bps_hz",
                         "std_rate_bps_hz", "n"])
        for name, tag, scheme in harness.VARIANTS:
            cfg = replace(base, model=tag, training=scheme,
                          seeds=tuple(range(args.seeds)))
            result = harness.run_experiment(cfg)
            for _, value, _, mean, std, n in result.summary:
                writer.writerow([name, f"{value:.6g}", f"{mean:.12g}",
                                 f"{std:.12g}", n])
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
