#!/usr/bin/env python3
"""Training-overhead comparison as a function of the sampling step size.

All numbers come from the closed-form counters.  The step size is the
final sampled spacing in multiples of the element pitch d:

    step = full_range / (2**layers * s_x)

so sweeping the layer count at a fixed range sweeps the step.  Layered
overheads are compared against the flat-search baselines of matching
accuracy; the last column is their ratio.
"""

import argparse
import csv

from risbeam import harness
from risbeam.cli import config_flag, open_output
from risbeam.training import (
    es_overhead_hybrid,
    es_overhead_nn,
    hierarchical_overhead,
    two_stage_overhead,
)


def main():
    # the defaults are the paper-scale config's
    paper = harness.parse_config("", scale="paper")
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--range-d", type=config_flag("range_halfwidth_wl", float),
                    default=2 * paper.range_halfwidth_wl
                    / paper.spacing_wavelengths,
                    help="full sampling range in multiples of d")
    ap.add_argument("--s", type=config_flag("s_x", int), default=paper.s_x,
                    help="samples per direction")
    ap.add_argument("--m", type=config_flag("m_x", int),
                    default=paper.m_x * paper.m_y, help="RIS elements")
    ap.add_argument("--max-layers", type=config_flag("layers", int),
                    default=paper.layers)
    ap.add_argument("--out", default="overhead.csv")
    args = ap.parse_args()

    with open_output(args.out) as fh:
        writer = csv.writer(fh)
        writer.writerow(["layers", "step_d", "hierarchical", "flat_nn",
                         "hier_ratio", "two_stage", "flat_hybrid",
                         "two_stage_ratio"])
        for layers in range(1, args.max_layers + 1):
            step = args.range_d / (2 ** layers * args.s)
            hier = hierarchical_overhead(layers, args.s, args.s)
            flat_nn = es_overhead_nn(layers, args.s, args.s)
            two = two_stage_overhead(args.m, layers, args.s, args.s)
            flat_hy = es_overhead_hybrid(args.m, layers, args.s, args.s)
            writer.writerow([layers, f"{step:.6g}", hier, flat_nn,
                             f"{hier / flat_nn:.6g}", two, flat_hy,
                             f"{two / flat_hy:.6g}"])
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
