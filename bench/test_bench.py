"""Steadiness self-check of the benchmark.

    python3 -m pytest bench

Each workload runs a short round twice with tracing on.  Counts (cells,
evaluations, iterations), rates and the sequence of span names must
repeat exactly, and the traced rows must match an untraced run byte for
byte.  One short benchmark run checks that the metrics it reports are the
ones BENCHMARK.json declares.
"""

import pytest

import run

run.pin_blas_threads()
run.load_program()

import measure  # noqa: E402
import workloads as wls  # noqa: E402
from tracer import Tracer  # noqa: E402

SHORT_ROUND = 4     # cell seeds per run of the steadiness check


def traced_round(wl, seeds, out_dir):
    tracer = Tracer()
    with tracer.installed():
        rnd = wls.run_round(wl, seeds, out_dir)
    return rnd, [span[2] for span in tracer.spans]


@pytest.mark.parametrize("name", ["desk_nn", "paper_nn", "paper_mix"])
def test_short_runs_repeat(name, tmp_path):
    wl = wls.workloads(run.ROOT)[name]
    seeds = next(measure.rounds_from(1, SHORT_ROUND))
    (a, names_a), (b, names_b) = (traced_round(wl, seeds, tmp_path)
                                  for _ in range(2))
    assert a.failures == [] and b.failures == []
    assert a.cells == len(wl.configs) * SHORT_ROUND
    assert (a.cells, a.evaluations, a.iterations) == \
        (b.cells, b.evaluations, b.iterations)
    assert a.rates == b.rates
    assert names_a == names_b
    assert {n.split(".", 1)[0] for n in names_a} >= {
        "harness", "channel", "geometry", "codebook", "training",
        "rate_kernel", "solves", "ao_loop"}
    assert wls.run_round(wl, seeds, tmp_path).emitted == a.emitted


@pytest.mark.parametrize("trace", [False, True])
def test_reported_metrics_match_spec(trace, tmp_path):
    wl = wls.workloads(run.ROOT)["paper_mix"]
    doc = measure.measure(wl, seed=1, seconds=0.01, trace=trace,
                          out_dir=tmp_path)
    declared = measure.spec()["per_layer" if trace else "end_to_end"]
    assert set(doc["metrics"]) == {m["name"] for m in declared}
    assert doc["correct"], doc["problems"]
    assert doc["failed"] == 0
