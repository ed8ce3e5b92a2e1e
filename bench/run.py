"""risbeam benchmark: sweep cells per second on three workloads.

Run from the root of a checkout:

    python3 bench/run.py --workload paper_nn --seed 1 --seconds 30 --trace 0

`--workload` is one of desk_nn, paper_nn, paper_mix, or `all`.  With
`--trace 0` the run reports the end-to-end metrics named in
BENCHMARK.json; with `--trace 1` it reports the per-layer metrics from a
traced replay of its own cells.  The last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics.  The
program is imported from the checkout's `src/`; without it the run exits
with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
BLAS_THREADS = 1


class ProgramMissing(RuntimeError):
    pass


def pin_blas_threads() -> None:
    """Fix the BLAS pool size; effective only before numpy is imported."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)


def load_program() -> None:
    """Put the checkout's `src/` first on the path and import risbeam."""
    src = (ROOT / "src").resolve()
    if not (src / "risbeam" / "__init__.py").is_file():
        raise ProgramMissing(f"no risbeam package under {src}")
    if not (ROOT / "BENCHMARK.json").is_file():
        raise ProgramMissing(f"no BENCHMARK.json in {ROOT}")
    sys.path.insert(0, str(src))
    import risbeam
    if not Path(risbeam.__file__).resolve().is_relative_to(src):
        raise ProgramMissing(f"risbeam imported from {risbeam.__file__}, "
                             f"not from {src}")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    p.add_argument("--workload", required=True,
                   choices=("desk_nn", "paper_nn", "paper_mix", "all"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--write-reference", action="store_true",
                   help="record the default seed's check rows as the "
                        "reference and exit")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    pin_blas_threads()
    try:
        load_program()
    except ProgramMissing as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    import measure
    return measure.main(args)


if __name__ == "__main__":
    sys.exit(main())
