"""Beam training: angular sweep, hierarchical refinement, two-stage search.

Every scheme scores candidate codewords by the achievable rate of the
cascaded channel under the current precoder, keeps the best codeword seen
anywhere during the run, and counts every scored codeword exactly once.
Closed forms for the counts (with L layers, s_x*s_y samples per direction
pair and M RIS elements):

    angular sweep          m_x * m_y
    hierarchical           16 * L * (s_x*s_y)^2
    two-stage              M + 4 * L * s_x * s_y
    exhaustive baseline    size of the supplied codebook

Ties are broken toward the lowest codeword index, so reports are
deterministic functions of (channel, precoder, grids, layer count).
The refining schemes take s_x and s_y from the grids they are given.

What does not depend on the precoder is computed once and kept in two
one-entry slots of this module.  The angular codebook depends on the
array alone, so every cell on the same array shares it (`angular_book`).
A refinement layer's quadrants and distance words depend on its input
ranges and the geometry, so they are kept per geometry object
(`_layer_work`); each cell builds its own geometry, so they live for one
cell and serve all of its training calls.  `drop_memos` empties both
slots, which `harness.run_experiment` does before each experiment.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import reduce

import numpy as np

from .channel import ChannelRealization
from .codebook import (
    NEAR_SIDE,
    SIDE_BS,
    SIDE_UE,
    Codebook,
    Codeword,
    SamplingGrid,
    build_angular_component,  # resolvable here for the span tracer of bench/
    build_distance_component,
    build_ff_codebook,
    distance_words,
    quadrant_bounds,
    sample_grid,
    star,
    subdivide_range,  # resolvable here for the span tracer of bench/
)
from .geometry import SystemGeometry
from .optimizer import rates_for_phase_batch


@dataclass(frozen=True)
class LayerRecord:
    """One selection step: layer index, chosen indices, best rate so far
    in that layer, and the cumulative evaluation count."""

    layer: int
    choice: tuple
    best_rate: float
    evaluations_total: int


# The two slots of precoder-independent work:
#   _ANGULAR = ((m_x, m_y, spacing_m, wavelength_m), angular codebook)
#   _LAYERS = (geometry, {layer input ranges: (quadrants, word stacks)})
# Each is read and replaced as one tuple, so a thread never pairs a key
# with another key's value; two threads that miss together only compute
# the same thing twice.  Their arrays are read-only.
_ANGULAR = None
_LAYERS = None


def drop_memos() -> None:
    """Empty both slots, so the next training calls compute afresh."""
    global _ANGULAR, _LAYERS
    _ANGULAR = _LAYERS = None


def angular_book(geometry: SystemGeometry) -> Codebook:
    """The angular codebook of `geometry`'s array.

    It is taken from the slot when the slot's key (m_x, m_y, spacing_m,
    wavelength_m), the values `build_ff_codebook` reads, matches;
    otherwise it is built, made read-only and replaces the slot's one
    book.  A sweep changes the key only between its values, so each
    value of an experiment builds the book at most once per process.
    """
    global _ANGULAR
    key = (geometry.m_x, geometry.m_y, geometry.spacing_m,
           geometry.wavelength_m)
    entry = _ANGULAR
    if entry is None or entry[0] != key:
        book = build_ff_codebook(geometry)
        book.words.flags.writeable = False
        entry = _ANGULAR = key, book
    return entry[1]


def _layer_work(geometry: SystemGeometry) -> dict:
    """The layer dict of this geometry object (not of an equal one); a
    new geometry replaces the slot's dict, so it never grows."""
    global _LAYERS
    entry = _LAYERS
    if entry is None or entry[0] is not geometry:
        entry = _LAYERS = geometry, {}
    return entry[1]


@dataclass
class TrainingReport:
    best_codeword: Codeword
    best_rate: float
    evaluations: int
    layer_trace: list[LayerRecord]


def sweep_overhead(m_x: int, m_y: int) -> int:
    return m_x * m_y


def hierarchical_overhead(layers: int, s_x: int, s_y: int) -> int:
    return 16 * layers * (s_x * s_y) ** 2


def two_stage_overhead(m: int, layers: int, s_x: int, s_y: int) -> int:
    return m + 4 * layers * s_x * s_y


def es_overhead_nn(layers: int, s_x: int, s_y: int) -> int:
    """Flat-search cost quoted for the hierarchical scheme's accuracy."""
    return 4 ** (layers + 1) * (s_x * s_y) ** 2


def es_overhead_hybrid(m: int, layers: int, s_x: int, s_y: int) -> int:
    """Flat-search cost quoted for the two-stage scheme's accuracy."""
    return m * 4 * layers * s_x * s_y


def exhaustive_search(realization: ChannelRealization, w: np.ndarray,
                      noise_var: float, codebook: Codebook) -> TrainingReport:
    """Flat scan of a prebuilt codebook; the baseline for everything else."""
    if len(codebook) == 0:
        raise ValueError("empty codebook")
    rates = rates_for_phase_batch(realization, codebook.words, w, noise_var)
    k = int(np.argmax(rates))
    rec = LayerRecord(layer=0, choice=(k,), best_rate=float(rates[k]),
                      evaluations_total=len(codebook))
    return TrainingReport(best_codeword=codebook[k], best_rate=float(rates[k]),
                          evaluations=len(codebook), layer_trace=[rec])


def _sweep(realization: ChannelRealization, w: np.ndarray, noise_var: float,
           book: Codebook) -> TrainingReport:
    """Flat scan of an angular codebook, recording the (ix, iy) grid pick."""
    report = exhaustive_search(realization, w, noise_var, book)
    tag = report.best_codeword.provenance
    report.layer_trace[0] = replace(report.layer_trace[0],
                                    choice=(tag.ix, tag.iy))
    return report


def angular_sweep(realization: ChannelRealization, w: np.ndarray,
                  noise_var: float, geometry: SystemGeometry) -> TrainingReport:
    """Score every angular codeword; m_x*m_y evaluations."""
    return _sweep(realization, w, noise_var, angular_book(geometry))


def _descend(realization: ChannelRealization, w: np.ndarray,
             noise_var: float, geometry: SystemGeometry, ranges: list,
             layers: int, report: TrainingReport,
             prefix: Codebook | None = None) -> TrainingReport:
    """Layered quadrant refinement shared by the refining schemes.

    `ranges` lists (grid, side) pairs in choice order.  A range descends
    as its plain-float bounds; its grid fixes the sample counts and the
    height.  Each layer splits every range with `quadrant_bounds` (which
    raises what `subdivide_range` would), places the quadrants' samples
    with `sample_grid`, and turns the (4, S, 3) points of all ranges,
    joined along the sample axis, into words with one `distance_words`
    call.  It forms the candidates of all quadrant combinations (first
    range slowest) as one broadcast product of plain arrays: the fixed
    `prefix` row times the sample of the last range, ..., times the first,
    in the row and multiplication order of `reduce(star, ...)`.  It scores
    them in one batch and descends into the winning combination.  Only the
    best layer's winning bounds and row are kept; after the last layer the
    winner is named once, by `star` over the `build_distance_component`
    lists of grids with those bounds (so hierarchical codewords carry the
    user-side sample as their first operand).  Evaluations, layer records
    and the best codeword accumulate into `report`, which is returned.

    A layer's quadrant bounds and word stacks depend only on its input
    ranges and the geometry, so they are kept in the geometry's layer
    dict (`_layer_work`) under those ranges.  A later call on the same
    geometry that reaches the same ranges, usually under another
    precoder, takes them from there and goes straight to the candidate
    product; a layer not seen before is computed, and raises, as above.
    """
    if layers < 0:
        raise ValueError("max_layers must be >= 0")
    memo = _layer_work(geometry)
    bounds = [grid.bounds for grid, _ in ranges]
    # each range's (4, S, M) words, split off the sample axis
    splits = np.cumsum([grid.s_x * grid.s_y for grid, _ in ranges])[:-1]
    winner = None
    for layer in range(1, layers + 1):
        key = tuple((b, grid.s_x, grid.s_y, grid.fixed_z)
                    for b, (grid, _) in zip(bounds, ranges))
        work = memo.get(key)
        if work is None:
            quads = [quadrant_bounds(*b, grid.fixed_z)
                     for b, (grid, _) in zip(bounds, ranges)]
            points = np.concatenate(
                [sample_grid(q, grid.s_x, grid.s_y, grid.fixed_z)
                 for q, (grid, _) in zip(quads, ranges)], axis=1)
            words = distance_words(points, geometry)
            words.flags.writeable = False   # the split views inherit it
            work = memo[key] = quads, np.split(words, splits, axis=1)
        quads, stacks = work
        # (combination, row, M): each range adds the slowest quadrant
        # axis and the fastest sample axis
        cands = None if prefix is None else prefix.words[None]
        for stack in stacks[::-1]:
            cands = stack if cands is None else (
                cands[None, :, :, None] * stack[:, None, None]).reshape(
                    4 * len(cands), -1, stack.shape[-1])
        rates = rates_for_phase_batch(
            realization, cands.reshape(-1, cands.shape[-1]), w, noise_var)
        report.evaluations += rates.size
        k = int(np.argmax(rates))
        *picks, s = (int(i) for i in np.unravel_index(
            k, (4,) * len(ranges) + cands.shape[1:2]))
        layer_best = float(rates[k])
        report.layer_trace.append(LayerRecord(
            layer=layer, choice=tuple(q + 1 for q in picks),
            best_rate=layer_best, evaluations_total=report.evaluations))
        bounds = [quad[q] for quad, q in zip(quads, picks)]
        if layer_best > report.best_rate:
            report.best_rate = layer_best
            winner = bounds, s
    if winner is not None:
        best_bounds, row = winner
        head = [] if prefix is None else [prefix]
        parts = [build_distance_component(
                     replace(grid, x_min=x0, x_max=x1, y_min=y0, y_max=y1),
                     side, geometry)
                 for (x0, x1, y0, y1), (grid, side) in zip(best_bounds,
                                                           ranges)]
        report.best_codeword = reduce(star, head + parts[::-1])[row]
    return report


def hierarchical_nn(realization: ChannelRealization, w: np.ndarray,
                    noise_var: float, grid_bs: SamplingGrid,
                    grid_ue: SamplingGrid, layers: int,
                    geometry: SystemGeometry) -> TrainingReport:
    """Layered search over both sample ranges.

    Each layer quadrisects the current BS and user ranges, scores all 16
    sub-codebooks (4 BS quadrants x 4 user quadrants, (s_x*s_y)^2 words
    each), and descends into the winning quadrant pair.  The grids supply
    the ranges, heights and sample counts.
    """
    if layers < 1:
        raise ValueError("hierarchical training requires max_layers >= 1")
    empty = TrainingReport(best_codeword=None, best_rate=-np.inf,
                           evaluations=0, layer_trace=[])
    return _descend(realization, w, noise_var, geometry,
                    [(grid_bs, SIDE_BS), (grid_ue, SIDE_UE)], layers, empty)


def two_stage_hybrid(realization: ChannelRealization, w: np.ndarray,
                     noise_var: float, grid: SamplingGrid, layers: int,
                     side: str, geometry: SystemGeometry) -> TrainingReport:
    """Angular sweep first, then layered distance refinement on one side.

    side "NF" refines the BS-side range, "FN" the user-side range; the
    winning angular codeword stays fixed throughout stage two, where each
    layer scores 4 quadrant sub-codebooks of s_x*s_y samples each.
    Total evaluations: M + 4 * layers * s_x * s_y, with s_x and s_y
    from the grid.
    """
    if side not in NEAR_SIDE:
        raise ValueError(f"side must be 'NF' or 'FN', got {side!r}")
    report = _sweep(realization, w, noise_var, angular_book(geometry))
    win = report.best_codeword
    fixed = Codebook(words=win.coeffs[None, :], provenance=(win.provenance,))
    return _descend(realization, w, noise_var, geometry,
                    [(grid, NEAR_SIDE[side])], layers, report, prefix=fixed)
