#!/usr/bin/env python3
"""Achievable rate over a config's sweep, per channel model / training pairing.

Runs the harness on CONFIG once per harness.VARIANTS entry, with that
entry's model and training scheme and seeds 0..N-1, and merges the
per-variant summaries into one CSV.  The sweep comes from the config:

    python3 scripts/variant_sweep.py configs/desk_power_sweep.cfg
    python3 scripts/variant_sweep.py configs/paper_ris_height.cfg --scale paper

Each variant's config is CONFIG's text with that variant's `model:`,
`training:` and `seeds:` lines appended (`harness.variant_configs`), so
the parse-time checks see the variant's model and scheme.  A variant
whose config is refused gets nan, nan, 0 rows and one `config rejected`
line on standard error; a file that cannot be read, or that every
variant refuses, ends as `risbeam run` ends on it, with status 2 and
nothing written.

A cell that raises is left out of its row's mean, std and n, as in the
summary `risbeam run` writes (a value whose cells all raise reads nan,
nan, 0), and is printed to standard error.  A refused variant or a
failed cell makes the script exit with status 1 once the CSV is written.
"""

import argparse
import csv
import sys

from risbeam import harness
from risbeam.cli import open_output, seed_count


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("config", help="sweep config file")
    ap.add_argument("--scale", choices=harness.SCALES, default="desk")
    ap.add_argument("--seeds", type=seed_count, default=10)
    ap.add_argument("--out", default="variant_sweep.csv")
    args = ap.parse_args()

    try:
        text = harness.config_text(args.config)
    except harness.ConfigError as exc:
        ap.exit(2, f"error: {args.config}: {exc}\n")
    # name: its config, or the ConfigError refusing it
    variants = harness.variant_configs(text, args.scale, args.seeds)
    parsed = [cfg for cfg in variants.values()
              if isinstance(cfg, harness.ExperimentConfig)]
    if not parsed:          # the file fails whatever the variant
        ap.exit(2, f"error: {args.config}: {next(iter(variants.values()))}\n")
    # every variant has the file's sweep
    sweep_param, sweep_values = parsed[0].sweep_param, parsed[0].sweep_values

    failed = 0
    with open_output(args.out) as fh:
        writer = csv.writer(fh)
        writer.writerow(["variant", sweep_param, "mean_rate_bps_hz",
                         "std_rate_bps_hz", "n"])
        for name, cfg in variants.items():
            if isinstance(cfg, harness.ConfigError):
                print(f"error: {name}: config rejected: {cfg}",
                      file=sys.stderr)
                writer.writerows([name, f"{value:.6g}", "nan", "nan", 0]
                                 for value in sweep_values)
                failed += 1
                print(f"{name}: config rejected")
                continue
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
