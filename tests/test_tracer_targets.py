"""The span tracer of `bench/` wraps names looked up in `src/risbeam`.

`bench/tracer.py` replaces each entry of its TARGETS with
`owner.__dict__[attr]`, so a name dropped from a module namespace (an
import that only the tracer needs, say) breaks every traced benchmark
run.  Its attribute hooks read fields of what the wrapped calls return,
and its per-layer figures need spans that every workload makes, so one
traced round of each workload must yield every declared figure.  These
checks read `bench/` and change nothing there.
"""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "bench"
# per-layer figures that the benchmark adds after `layer_metrics`
ADDED_AFTER = {"trace.overhead_frac", "check.rate_rel_err_max",
               "check.failed_cell_frac"}


@pytest.fixture(scope="module")
def bench():
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(BENCH))
        import tracer
        import workloads
        yield tracer, workloads


def test_every_traced_name_resolves_in_its_owner(bench):
    tracer, _ = bench
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr, _, _ in tracer.TARGETS
               if attr not in owner.__dict__]
    assert missing == []


@pytest.mark.parametrize("name", ["desk_nn", "paper_nn", "paper_mix"])
def test_one_traced_round_yields_every_declared_figure(bench, name,
                                                       tmp_path):
    tracer, workloads = bench
    wl = workloads.workloads(ROOT)[name]
    spans = tracer.Tracer()
    with spans.installed():
        rnd = workloads.run_round(wl, [next(workloads.cell_seeds(1))],
                                  tmp_path)
    assert rnd.failures == []
    metrics, _ = tracer.layer_metrics(spans.spans, rnd.cells, rnd.seconds)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    assert set(metrics) == {m["name"] for m in declared} - ADDED_AFTER
    # the hooks read what the rows count
    assert round(metrics["training.evaluations"] * rnd.cells) == \
        rnd.evaluations
    assert round(metrics["ao_loop.iterations"] * rnd.cells) == rnd.iterations
    assert 0.0 <= metrics["ao_loop.retrain_adopted_ratio"] <= 1.0
