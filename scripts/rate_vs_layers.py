#!/usr/bin/env python3
"""Hierarchical-training rate versus layer count, with flat-search marks.

For the all-spherical channel, runs one layered descent per seed to
--max-layers and reads each depth's row from its layer records: the best
rate of the layers so far and the running evaluation count, which are
the best rate and count of a descent stopped at that depth.  Also
evaluates exhaustive search over 8- and 16-point-per-direction flat
grids on the same ranges, which the layered scheme should match at 2 and
3 layers respectively.
"""

import argparse
import csv
from dataclasses import replace

import numpy as np

from risbeam import harness
from risbeam.channel import cascade
from risbeam.codebook import build_nn_codebook
from risbeam.optimizer import default_stream_count, initial_precoder
from risbeam.training import exhaustive_search, hierarchical_nn


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--scale", choices=("desk", "paper"), default="desk")
    ap.add_argument("--seeds", type=int, default=20)
    ap.add_argument("--max-layers", type=int, default=8)
    ap.add_argument("--out", default="rate_vs_layers.csv")
    args = ap.parse_args()

    cfg = replace(harness.parse_config("", scale=args.scale), model="NN",
                  ue_jitter_frac=0.15)

    rows = []
    for seed in range(args.seeds):
        geometry, real, gb, gu = harness.cell_setup(cfg, seed)
        q = default_stream_count("NN", geometry, cfg.paths_bs, cfg.paths_ue)
        w = initial_precoder(cascade(real, np.ones(geometry.m)), q,
                             cfg.p_max_w)
        trace = [] if args.max_layers < 1 else hierarchical_nn(
            real, w, cfg.noise_w, gb, gu, args.max_layers,
            geometry).layer_trace
        best = -np.inf
        for rec in trace:
            best = max(best, rec.best_rate)
            rows.append((f"layered-L{rec.layer}", seed, rec.layer, best,
                         rec.evaluations_total))
        for pts in (8, 16):
            book = build_nn_codebook(replace(gb, s_x=pts, s_y=pts),
                                     replace(gu, s_x=pts, s_y=pts), geometry)
            rep = exhaustive_search(real, w, cfg.noise_w, book)
            rows.append((f"flat-{pts}", seed, 0, rep.best_rate,
                         rep.evaluations))

    with open(args.out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["variant", "seed", "layers", "rate_bps_hz",
                         "evaluations"])
        for variant, seed, layers, rate, evals in rows:
            writer.writerow([variant, seed, layers, f"{rate:.12g}", evals])
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
