"""The benchmark's workloads, one round of cells each, and the output checks.

A round is what a user runs: for every experiment config of the workload,
`harness.parse_config` -> `harness.run_experiment` -> `harness.emit_results`
into a temporary directory, over one list of cell seeds.  Every row is
checked against the paper's closed-form evaluation counts and read back
from the emitted CSV; the exit status of `risbeam run` is not relied on.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass, field
from pathlib import Path

from risbeam import harness
from risbeam.training import (hierarchical_overhead, sweep_overhead,
                              two_stage_overhead)

AUTO_SCHEME = {"FF": "angular", "NN": "hierarchical",
               "NF": "two_stage", "FN": "two_stage"}

# Reordered floating-point sums move a rerun's rates far less than this;
# a larger relative change means some cell adopted a different codeword.
REFERENCE_REL_TOL = 1e-3


@dataclass(frozen=True)
class Workload:
    """BENCHMARK.json gives each workload's reason."""

    name: str
    scale: str
    configs: tuple          # config documents, one experiment each per round
    seeds_per_round: int


def workloads(root: Path) -> dict:
    configs = root / "configs"
    mix = tuple(f"model: {model}\ntraining: {scheme}\n"
                for model, scheme in (("NN", "angular"), ("NF", "auto"),
                                      ("FN", "auto"), ("FF", "auto")))
    found = [
        Workload("desk_nn", "desk",
                 ((configs / "desk_nn.cfg").read_text(),), 20),
        Workload("paper_nn", "paper",
                 ((configs / "paper_nn.cfg").read_text(),), 5),
        Workload("paper_mix", "paper", mix, 10),
    ]
    return {w.name: w for w in found}


def cell_seeds(seed: int):
    """Endless stream of distinct cell seeds picked by the workload seed."""
    rng = random.Random(seed)
    seen = set()
    while True:
        s = rng.randrange(1 << 31)
        if s not in seen:
            seen.add(s)
            yield s


def config_text(base: str, seeds, out: Path) -> str:
    return (f"{base}\nworkers: 1\n"
            f"seeds: [{', '.join(str(s) for s in seeds)}]\nout: {out}\n")


def closed_form(cfg) -> int:
    """Evaluations per AO iteration for the config's training scheme."""
    scheme = AUTO_SCHEME[cfg.model] if cfg.training == "auto" else cfg.training
    if scheme == "angular":
        return sweep_overhead(cfg.m_x, cfg.m_y)
    if scheme == "hierarchical":
        return hierarchical_overhead(cfg.layers, cfg.s_x, cfg.s_y)
    return two_stage_overhead(cfg.m_x * cfg.m_y, cfg.layers, cfg.s_x, cfg.s_y)


@dataclass
class Round:
    """One round's counts and rows; `seconds` covers parse, run and emit."""

    seeds: tuple
    seconds: float = 0.0
    cells: int = 0
    evaluations: int = 0
    iterations: int = 0
    rates: dict = field(default_factory=dict)       # (config, seed) -> rate
    failures: list = field(default_factory=list)
    emitted: bytes = b""


def _row_failures(cfg, result, emitted_rows) -> list:
    per_iter = closed_form(cfg)
    failed_seeds = {int(e.split()[0].removeprefix("seed="))
                    for e in result.errors}
    out = []
    for k, row in enumerate(result.rows):
        back = emitted_rows[k] if k < len(emitted_rows) else None
        where = f"{cfg.model} seed={row.seed}"
        if back is None:
            out.append(f"{where}: missing from the emitted CSV")
        elif row.seed in failed_seeds:
            out.append(f"{where}: cell raised")
        elif not math.isfinite(row.rate_bps_hz) or row.iterations < 1:
            out.append(f"{where}: rate {row.rate_bps_hz}, "
                       f"{row.iterations} iterations")
        elif row.evaluations != row.iterations * per_iter:
            out.append(f"{where}: {row.evaluations} evaluations != "
                       f"{row.iterations} x {per_iter}")
        elif (back.seed, back.evaluations, back.iterations) != \
                (row.seed, row.evaluations, row.iterations) or \
                not math.isclose(back.rate_bps_hz, row.rate_bps_hz,
                                 rel_tol=1e-11):
            out.append(f"{where}: emitted row {back} differs from {row}")
    return out


def run_round(wl: Workload, seeds, out_dir: Path) -> Round:
    """Parse, run and emit every experiment of the workload over `seeds`."""
    rnd = Round(seeds=tuple(seeds))
    for i, base in enumerate(wl.configs):
        out = out_dir / f"{wl.name}-{i}.csv"
        text = config_text(base, seeds, out)
        t0 = time.perf_counter()
        cfg = harness.parse_config(text, scale=wl.scale)
        result = harness.run_experiment(cfg)
        harness.emit_results(result, cfg.out)
        rnd.seconds += time.perf_counter() - t0
        rnd.emitted += out.read_bytes()
        rnd.emitted += out.with_suffix(".summary.csv").read_bytes()
        rnd.failures += _row_failures(cfg, result,
                                      harness.parse_result_csv(out))
        for row in result.rows:
            rnd.cells += 1
            rnd.evaluations += row.evaluations
            rnd.iterations += row.iterations
            rnd.rates[(i, row.seed)] = row.rate_bps_hz
    return rnd


def reference_errors(rnd: Round, reference: dict) -> list:
    """Relative rate error of every row that has a reference rate."""
    return [abs(rate - reference[key]) / abs(reference[key])
            for key, rate in rnd.rates.items() if key in reference]
