"""Span recording from outside the program, and the per-layer figures.

A Tracer replaces looked-up names (module attributes and one method) with
wrappers that record a span per call: id, parent id, name, start, end and
a few attributes taken from the arguments or the return value.  Spans
stay in memory; `write_jsonl` dumps them when the run ends, one JSON
array per line after a header line naming the fields.  Nothing in
`src/risbeam` is edited: the wrappers are installed on entry to
`Tracer.installed()` and the original objects are put back on exit.

Span names are `<layer>.<function>`; the layer is the text before the
first dot.  A span's self time is its duration minus the time its child
spans cover.  Calls on one thread nest strictly, so the children of a
span are disjoint and that time is the sum of their durations.
"""

from __future__ import annotations

import json
import statistics
import time
from contextlib import contextmanager

from risbeam import codebook, harness, optimizer, training
from risbeam.geometry import SystemGeometry

LAYERS = ("harness", "channel", "geometry", "codebook", "training",
          "rate_kernel", "solves", "ao_loop")

_COMPLEX_BYTES = 16
_REAL_BYTES = 8


def _kernel_attrs(args, kwargs, out):
    realization, phis, w = args[0], args[1], args[2]
    k, m = phis.shape
    n_ue = realization.g_ris_ue.shape[0]
    n_bs = realization.g_bs_ris.shape[1]
    return {"k": k, "m": m, "n_ue": n_ue, "n_bs": n_bs, "q": w.shape[1]}


def _book_attrs(args, kwargs, out):
    return {"words": out.words.shape[0], "m": out.words.shape[1],
            "tags": len(out.provenance)}


def _report_attrs(args, kwargs, out):
    return {"evaluations": out.evaluations}


def _ao_attrs(args, kwargs, out):
    return {"iterations": out.iterations,
            "regressions": out.training_regressions}


def _cell_attrs(args, kwargs, out):
    return {"seed": out.seed}


# (owner, attribute, span name, attribute hook).  Owners are the namespaces
# the callers look the names up in, so each call is wrapped exactly once.
TARGETS = (
    (harness, "parse_config", "harness.parse_config", None),
    (harness, "run_experiment", "harness.run_experiment", None),
    (harness, "run_cell", "harness.run_cell", _cell_attrs),
    (harness, "emit_results", "harness.emit_results", None),
    (harness, "synthesize_channel", "channel.synthesize_channel", None),
    (optimizer, "cascade", "channel.cascade", None),
    (harness, "ao_loop", "ao_loop.ao_loop", _ao_attrs),
    (training, "angular_sweep", "training.angular_sweep", _report_attrs),
    (training, "hierarchical_nn", "training.hierarchical_nn", _report_attrs),
    (training, "two_stage_hybrid", "training.two_stage_hybrid",
     _report_attrs),
    (training, "rates_for_phase_batch", "rate_kernel.rates_for_phase_batch",
     _kernel_attrs),
    (training, "build_ff_codebook", "codebook.build_ff_codebook",
     _book_attrs),
    (codebook, "build_ff_codebook", "codebook.build_ff_codebook",
     _book_attrs),
    (training, "build_angular_component", "codebook.build_angular_component",
     None),
    (training, "build_distance_component",
     "codebook.build_distance_component", _book_attrs),
    (training, "star", "codebook.star", _book_attrs),
    (training, "subdivide_range", "codebook.subdivide_range", None),
    (codebook, "ff_steering", "codebook.ff_steering", None),
    (codebook.Codebook, "__getitem__", "codebook.Codebook.__getitem__", None),
    (optimizer, "optimal_combiner", "solves.optimal_combiner", None),
    (optimizer, "mse_matrix", "solves.mse_matrix", None),
    (optimizer, "weight_update", "solves.weight_update", None),
    (optimizer, "solve_precoder", "solves.solve_precoder", None),
    (optimizer, "achievable_rate", "solves.achievable_rate", None),
    (SystemGeometry, "element_positions", "geometry.element_positions", None),
)


class Tracer:
    """Records spans as [id, parent, name, start, end, attrs] lists."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name, fn, hook=None):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            rec = [len(spans), stack[-1] if stack else None, name, clock(),
                   None, None]
            spans.append(rec)
            stack.append(rec[0])
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[4] = clock()
                stack.pop()
            if hook is not None:
                rec[5] = hook(args, kwargs, out)
            return out

        return traced

    @contextmanager
    def installed(self):
        saved = []
        try:
            for owner, attr, name, hook in TARGETS:
                original = owner.__dict__[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(name, original, hook))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def write_jsonl(self, path) -> None:
        with open(path, "w") as fh:
            fh.write(json.dumps(["id", "parent", "name", "start", "end",
                                 "attrs"]) + "\n")
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")


def self_times(spans) -> list[float]:
    """Duration minus the time covered by direct children, per span."""
    own = [end - start for _, _, _, start, end, _ in spans]
    for _, parent, _, start, end, _ in spans:
        if parent is not None:
            own[parent] -= end - start
    return own


def layer_metrics(spans, cells: int, wall_s: float):
    """Per-layer figures of a traced phase, normalised per cell.

    `wall_s` is the traced phase's wall time; the share of it that no
    span's self time covers is reported as `trace.unattributed_frac`.
    Returns the metrics and each layer's self time in ms per cell.
    """
    own = self_times(spans)
    layer_ms = dict.fromkeys(LAYERS, 0.0)
    by_name: dict[str, list] = {}
    self_by_name: dict[str, float] = {}
    for rec, t in zip(spans, own):
        name = rec[2]
        layer_ms[name.split(".", 1)[0]] += t * 1e3
        by_name.setdefault(name, []).append(rec)
        self_by_name[name] = self_by_name.get(name, 0.0) + t * 1e3

    def calls(name):
        return len(by_name.get(name, ()))

    def attrs(name):
        return [rec[5] for rec in by_name.get(name, ())]

    def durations_ms(name):
        return [(r[4] - r[3]) * 1e3 for r in by_name[name]]

    def per_cell(x):
        return x / cells

    kernel = attrs("rate_kernel.rates_for_phase_batch")
    candidates = sum(a["k"] for a in kernel)
    # complex MACs of G_bs_ris @ W plus the per-candidate cascade product
    macs = sum(a["m"] * a["n_bs"] * a["q"] + a["k"] * a["n_ue"] * a["m"] * a["q"]
               for a in kernel)
    # phis, both channel matrices, W, the (K, n_ue, q) product, K real rates
    kernel_bytes = sum(
        _COMPLEX_BYTES * (a["k"] * a["m"] + a["n_ue"] * a["m"]
                          + a["m"] * a["n_bs"] + a["n_bs"] * a["q"]
                          + a["k"] * a["n_ue"] * a["q"])
        + _REAL_BYTES * a["k"] for a in kernel)

    books = [a for name in ("codebook.build_ff_codebook",
                            "codebook.build_distance_component",
                            "codebook.star") for a in attrs(name)]
    words = sum(a["words"] for a in books)
    tags = sum(a["tags"] for a in books)
    codebook_calls = sum(len(v) for n, v in by_name.items()
                         if n.startswith("codebook."))

    reports = [a["evaluations"] for name in ("training.angular_sweep",
                                             "training.hierarchical_nn",
                                             "training.two_stage_hybrid")
               for a in attrs(name)]
    ao = attrs("ao_loop.ao_loop")
    iterations = sum(a["iterations"] for a in ao)
    regressions = sum(a["regressions"] for a in ao)
    cell_ms = durations_ms("harness.run_cell")
    solve_names = [n for n in by_name if n.startswith("solves.")]
    attributed = sum(own)

    metrics = {
        "rate_kernel.calls": per_cell(len(kernel)),
        "rate_kernel.candidates": per_cell(candidates),
        "rate_kernel.batch_p50": statistics.median(a["k"] for a in kernel),
        "rate_kernel.ms": per_cell(layer_ms["rate_kernel"]),
        "rate_kernel.us_per_candidate":
            layer_ms["rate_kernel"] * 1e3 / candidates,
        "rate_kernel.macs_computed": per_cell(macs),
        "rate_kernel.mb_moved_computed": per_cell(kernel_bytes / 1e6),
        "codebook.calls": per_cell(codebook_calls),
        "codebook.ms": per_cell(layer_ms["codebook"]),
        "codebook.words_built": per_cell(words),
        "codebook.mb_built_computed": per_cell(
            sum(a["words"] * a["m"] for a in books) * _COMPLEX_BYTES / 1e6),
        "codebook.ff_rebuilds": per_cell(calls("codebook.build_ff_codebook")),
        "codebook.tags_built": per_cell(tags),
        "codebook.tags_used_ratio":
            calls("codebook.Codebook.__getitem__") / tags,
        "geometry.element_positions_calls":
            per_cell(calls("geometry.element_positions")),
        "geometry.ms": per_cell(layer_ms["geometry"]),
        "training.calls": per_cell(len(reports)),
        "training.evaluations": per_cell(sum(reports)),
        "training.self_ms": per_cell(layer_ms["training"]),
        "solves.calls": per_cell(sum(calls(n) for n in solve_names)),
        "solves.ms": per_cell(layer_ms["solves"]),
        "solves.precoder_ms": per_cell(
            self_by_name.get("solves.solve_precoder", 0.0)),
        "channel.synthesize_calls":
            per_cell(calls("channel.synthesize_channel")),
        "channel.synthesize_ms": per_cell(
            self_by_name.get("channel.synthesize_channel", 0.0)),
        "channel.cascade_ms": per_cell(
            self_by_name.get("channel.cascade", 0.0)),
        "ao_loop.iterations": per_cell(iterations),
        "ao_loop.retrain_adopted_ratio":
            (iterations - regressions) / iterations,
        "ao_loop.self_ms": per_cell(layer_ms["ao_loop"]),
        "harness.parse_ms":
            statistics.median(durations_ms("harness.parse_config")),
        "harness.cell_ms_p50": statistics.median(cell_ms),
        "harness.cell_ms_max": max(cell_ms),
        "harness.emit_ms":
            statistics.median(durations_ms("harness.emit_results")),
        "harness.self_ms": per_cell(layer_ms["harness"]),
        "trace.spans": per_cell(len(spans)),
        "trace.unattributed_frac": (wall_s - attributed) / wall_s,
    }
    return metrics, {layer: per_cell(ms) for layer, ms in layer_ms.items()}
