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

Training keeps the work that repeats across scoring calls in this
module.  What does not depend on the precoder is computed once and kept
in two process slots, keyed by value on what it reads.  The angular
codebook depends on the array alone, so every cell on the same array
shares it (`angular_book`).  A refinement layer's quadrants and distance
words depend on its input ranges and on the RIS element positions and
wavelength, not on the channel, the precoder or the user position, so
every cell and sweep value of an experiment on one RIS array shares
them (`_layer_work`).  That slot is a least-recently-used store bounded
by the bytes of its words (`LAYER_SLOT_BYTES`).  `drop_memos` empties
both slots, which `harness.run_experiment` does before each experiment.
What depends on the precoder but not on the candidates is kept per
thread by the rate kernel `rates_for_phase_batch`: its operand C, built
once for a run of calls under one (realization, w, noise_var), and the
work arrays its batches are written into, reused while the batch shape
repeats.  A refining scheme names its winner from the row it scored.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
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
    PointTag,
    SamplingGrid,
    build_angular_component,  # resolvable here for the span tracer of bench/
    build_distance_component,  # resolvable here for the span tracer of bench/
    build_ff_codebook,
    distance_words,
    quadrant_bounds,
    sample_grid,
    star,
    subdivide_range,  # resolvable here for the span tracer of bench/
)
from .geometry import SystemGeometry


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
#   _LAYERS = {(RIS array key, layer key): (quadrants, word stacks)},
#             least recently used first
# _ANGULAR is read and replaced as one tuple, so a thread never pairs a
# key with another key's value; _LAYERS is read, reordered and trimmed
# under _LAYERS_LOCK.  Two threads that miss together only compute the
# same thing twice.  The kept arrays are read-only.
_ANGULAR = None
_LAYERS = OrderedDict()
_LAYERS_LOCK = threading.Lock()
_LAYERS_BYTES = 0      # the bytes of _LAYERS' word stacks, a running count
# The bytes of word stacks _LAYERS may keep.  2 MiB holds every layer of
# a desk NN experiment (1.3 MB at 20 cells, 1.9 MB at 80) and more than
# one paper NN cell's (1.2 MB); unbounded, the paper NN experiment's
# cells, whose descents part early, would keep 14.4 MB and raise its
# peak memory by 13 MB.
LAYER_SLOT_BYTES = 2 * 2**20
# rates_for_phase_batch's kept operand and work arrays, one set per thread
_WORK = threading.local()
# The batches rates_for_phase_batch screens: K >= _SCREEN_MIN_K candidates
# with q >= 2 and n_ue * q^2 <= _SCREEN_MAX_NQQ.  There numpy's per-matrix
# zgemm and zgetrf calls cost more than the screen's fixed count of array
# operations.  Alternating in-process timings of the log-det part on
# random candidates (2 shared cores, OPENBLAS_NUM_THREADS=1), screened /
# exact: K = 256 with n_ue = q = 4 (desk NN) 0.59, K = 160 0.80, K = 128
# 1.24; at K = 256, q = 1 1.2-1.5, n_ue * q^2 = 128 0.80, 200 1.8 and
# 512 1.8 (1.1-1.4 on paper NN's own batches).  Every paper-scale batch
# of the shipped configs (K = 256 with n_ue * q^2 = 512, K <= 120
# otherwise) keeps the exact path.
_SCREEN_MIN_K = 256
_SCREEN_MAX_NQQ = 64


def drop_memos() -> None:
    """Empty both slots, so the next training calls compute afresh."""
    global _ANGULAR, _LAYERS_BYTES
    _ANGULAR = None
    with _LAYERS_LOCK:
        _LAYERS.clear()
        _LAYERS_BYTES = 0


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


def _ris_key(geometry: SystemGeometry) -> tuple:
    """What `distance_words` reads of `geometry`, as plain values: the
    fields that place the RIS elements, and the wavelength."""
    return (tuple(geometry.ris_mid.tolist()), geometry.m_x, geometry.m_y,
            geometry.spacing_m, geometry.wavelength_m)


def _layer_work(key: tuple):
    """The (quadrants, word stacks) kept under `key`, or None.

    `key` is (`_ris_key(geometry)`, the layer's input ranges), the values
    its words are made from, so every cell and sweep value on one RIS
    array finds the layers any of them made.  A layer stays kept until
    `drop_memos` empties the slot before the next experiment, or until
    `_keep_layer_work` drops it as the least recently used; a hit makes
    it the most recently used.
    """
    with _LAYERS_LOCK:
        work = _LAYERS.get(key)
        if work is not None:
            _LAYERS.move_to_end(key)
        return work


def _keep_layer_work(key: tuple, work: tuple) -> tuple:
    """Keep `work` under `key`, then drop the least recently used entries
    until the kept word stacks, counted in `_LAYERS_BYTES`, take at most
    `LAYER_SLOT_BYTES` (so work larger than that alone is not kept);
    returns `work`."""
    global _LAYERS_BYTES
    with _LAYERS_LOCK:
        # a key another thread kept meanwhile is replaced in its place
        _, old = _LAYERS.get(key, ((), ()))
        _LAYERS_BYTES += (sum(a.nbytes for a in work[1])
                          - sum(a.nbytes for a in old))
        _LAYERS[key] = work
        while _LAYERS_BYTES > LAYER_SLOT_BYTES:
            _, (_, stacks) = _LAYERS.popitem(last=False)
            _LAYERS_BYTES -= sum(a.nbytes for a in stacks)
    return work


def _operand(realization: ChannelRealization, w: np.ndarray,
             noise_var: float) -> np.ndarray:
    """This thread's kernel operand C for (realization, w, noise_var).

    C is kept with its key: the realization object itself (compared with
    `is`), w's shape, dtype and bytes, and noise_var with its type.  A
    call under the same key takes C as it is, so the scoring calls of one
    training call, whatever their batch size, build it once; any other
    key rebuilds it, into the same array while the shape holds.  The
    rebuild rejects a noise_var that is not positive.
    """
    key = (w.shape, w.dtype, w.tobytes(), type(noise_var), noise_var)
    held = getattr(_WORK, "operand", None)
    if held is not None and held[0] is realization and held[1] == key:
        return held[2]
    if not noise_var > 0:                   # NaN included
        raise ValueError("noise_var must be positive")
    t = realization.g_bs_ris @ w / np.sqrt(noise_var)           # (M, q)
    m, q = t.shape
    n_ue = realization.g_ris_ue.shape[0]
    if held is not None and held[2].shape == (m, n_ue, q):
        c = held[2]
    else:
        # C is laid out as numpy lays out g_ris_ue.T * t for C-ordered
        # channels and as the GEMM then reads it: an F-ordered (M, n_ue)
        # view for q = 1, C-ordered otherwise; the same BLAS path then
        # gives the same bits
        c = (np.empty((n_ue, m, q), dtype=complex).transpose(1, 0, 2)
             if q == 1 else np.empty((m, n_ue, q), dtype=complex))
    np.multiply(realization.g_ris_ue.T[:, :, None], t[:, None, :], out=c)
    _WORK.operand = realization, key, c
    return c


def _batch_arrays(k: int, n_ue: int, q: int) -> tuple:
    """This thread's (B, conj B, Gram, I_q) for K candidates, reused while
    the shape repeats and replaced when it changes; I_q is read-only."""
    key = (k, n_ue, q)
    held = getattr(_WORK, "batch", None)
    if held is None or held[0] != key:
        eye = np.eye(q)
        eye.flags.writeable = False
        held = _WORK.batch = key, (np.empty((k, n_ue, q), dtype=complex),
                                   np.empty((k, n_ue, q), dtype=complex),
                                   np.empty((k, q, q), dtype=complex), eye)
    return held[1]


def _screen(b: np.ndarray):
    """(ln det(I_q + B^H B) of each candidate B of the (K, n_ue, q) stack
    `b`, slack), with no per-candidate call: the lower triangle of every
    Gram matrix, then an LDL^H, each step one array operation across the
    candidates; None out of the screen's range.

    I + B^H B >= I, so its pivots are at least 1.  Both this and the
    kernel's exact path (GEMM Gram, LU `slogdet`) are backward stable,
    so while that rounding is small against 1 each is within a small
    multiple of n_ue q^2 2^-53 (q + tr B^H B) of the true log-det; the
    slack, 2^-30 (q + the batch's largest trace), is more than 10^4 times
    that at the screened sizes, and where the rounding is not small it
    exceeds any spread of the values.  The range: a largest trace below
    2^500 and every pivot at least 1/2, which also excludes overflow and
    NaN.
    """
    k, n_ue, q = b.shape
    bt = np.ascontiguousarray(b.transpose(1, 2, 0))     # (n_ue, q, K)
    btc = np.conjugate(bt)
    g = np.empty((q, q, k), dtype=complex)
    add = np.add.reduce
    with np.errstate(all="ignore"):
        for i in range(q):
            add(btc[:, i, None] * bt[:, :i + 1], axis=0, out=g[i, :i + 1])
        d = g.real.reshape(q * q, k)[::q + 1].copy()       # the pivots
        top = float(add(d, axis=0).max())
        d += 1.0
        for j in range(q - 1):
            col = g[j + 1:, j]
            lj = col * (1.0 / d[j])
            cj = np.conjugate(col)
            d[j + 1:] -= (lj * cj).real
            for i in range(j + 2, q):
                g[i, j + 1:i] -= lj[i - j - 1] * cj[:i - j - 1]
    if not (top < 2.0 ** 500 and d.min() >= 0.5):
        return None
    return add(np.log(d), axis=0), 2.0 ** -30 * (q + top)


def _screened_rates(b: np.ndarray, eye: np.ndarray):
    """The kernel's rates of the stack `b`, exact where a row can be the
    batch maximum and -inf where `_screen` proves it below; None out of
    the screen's range.

    A row is kept when its screened value is within the slack of the
    largest.  A row left out is below the kept row with the largest
    screened value by more than the slack less both paths' rounding, so
    each row equal to the batch maximum is kept.  Kept rows go through
    the exact path's conj, matmul, add and `slogdet`, which treat each
    candidate alone, so they are bit for bit the rows of the full batch.
    """
    screen = _screen(b)
    if screen is None:
        return None
    value, slack = screen
    keep = np.flatnonzero(value >= value.max() - slack)
    kept = b[keep]
    gram = np.matmul(np.conjugate(kept).swapaxes(1, 2), kept)
    np.add(eye, gram, out=gram)
    exact = np.linalg.slogdet(gram)[1]
    if not np.isfinite(exact).all():
        raise ValueError("non-finite rate operands")
    rates = np.full(len(b), -np.inf)
    rates[keep] = exact / np.log(2.0)
    return rates


def rates_for_phase_batch(realization: ChannelRealization, phis: np.ndarray,
                          w: np.ndarray, noise_var: float) -> np.ndarray:
    """Achievable rate for each row of `phis` applied as RIS coefficients.

    One GEMM phis @ C, C[m, (u, q)] = G_ris_ue[u, m] (G_bs_ris W)[m, q] / s
    with s = sqrt(noise_var), gives each candidate's B = HW / s; its rate is
    the q x q log-det log2 det(I_q + B^H B).  A non-finite exact rate
    raises.  A 1-D `phis` is one candidate.

    A batch of at least _SCREEN_MIN_K candidates whose matrices are small
    (q >= 2, n_ue q^2 <= _SCREEN_MAX_NQQ) is screened (`_screened_rates`):
    the rows that can be the batch maximum hold their exact rates, and the
    rows proven below it hold -inf, so the argmax and the maximum are
    those of the full exact batch.  Every other batch holds all its exact
    rates.

    C depends on the precoder but not on the candidates, so it is kept per
    thread and built once for a run of calls under one (realization, w,
    noise_var) (`_operand`); the realization's matrices must not change in
    place while it is in use.  B, conj B and the Gram stack are written
    into per-thread arrays, with the identity added to the Gram stack,
    reused while the batch shape repeats, so
    paper-scale batches do not fault in fresh pages per call; the returned
    rates are always a fresh array.
    """
    phis = np.asarray(phis)
    c = _operand(realization, w, noise_var)
    m, n_ue, q = c.shape
    k = phis.shape[0] if phis.ndim == 2 else 1
    b, bc, gram, eye = _batch_arrays(k, n_ue, q)
    np.matmul(phis, c.reshape(m, -1), out=b.reshape(phis.shape[:-1] + (-1,)))
    if k >= _SCREEN_MIN_K and q >= 2 and n_ue * q * q <= _SCREEN_MAX_NQQ:
        rates = _screened_rates(b, eye)
        if rates is not None:
            return rates
    np.conjugate(b, out=bc)
    np.matmul(bc.swapaxes(1, 2), b, out=gram)
    np.add(eye, gram, out=gram)
    rates = np.linalg.slogdet(gram)[1]
    if not np.all(np.isfinite(rates)):
        raise ValueError("non-finite rate operands")
    return rates / np.log(2.0)


@dataclass
class TrainingReport:
    best_codeword: Codeword
    best_rate: float
    layer_trace: list[LayerRecord]

    @property
    def evaluations(self) -> int:
        """Codewords scored: the last layer record's running total."""
        return self.layer_trace[-1].evaluations_total if self.layer_trace else 0


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
                          layer_trace=[rec])


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
    them in one batch and descends into the winning combination.  A layer
    that sets a new best keeps its bounds, its sample row and each range's
    winning stack; after the last layer the winner is named from them, with
    no words built, by `star` over one-row books tagged with the samples'
    points, so it has the scored row's coefficients and the tags of
    `reduce(star, ...)` over full components (hierarchical codewords carry
    the user-side sample as their first operand).  The layer records, each
    with the running evaluation total, and the best codeword accumulate
    into `report`.

    A layer's quadrant bounds and word stacks depend only on its input
    ranges and on what `distance_words` reads of the geometry, the RIS
    element positions and the wavelength, so they are kept in the layer
    slot (`_layer_work`) under both.  A later call that reaches the same
    ranges on the same RIS array, under another precoder or in another
    cell, takes them from there and goes straight to the candidate
    product; a layer not kept is computed, and raises, as above.
    """
    if layers < 0:
        raise ValueError("max_layers must be >= 0")
    ris = _ris_key(geometry)
    bounds = [grid.bounds for grid, _ in ranges]
    # each range's (4, S, M) words are a slice of the sample axis
    ends = np.cumsum([0] + [grid.s_x * grid.s_y for grid, _ in ranges])
    winner = None
    for layer in range(1, layers + 1):
        key = ris, tuple((b, grid.s_x, grid.s_y, grid.fixed_z)
                         for b, (grid, _) in zip(bounds, ranges))
        work = _layer_work(key)
        if work is None:
            quads = [quadrant_bounds(*b, grid.fixed_z)
                     for b, (grid, _) in zip(bounds, ranges)]
            points = np.concatenate(
                [sample_grid(q, grid.s_x, grid.s_y, grid.fixed_z)
                 for q, (grid, _) in zip(quads, ranges)], axis=1)
            words = distance_words(points, geometry)
            words.flags.writeable = False   # the sliced views inherit it
            work = _keep_layer_work(key, (quads, [
                words[:, a:b] for a, b in zip(ends, ends[1:])]))
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
        k = int(np.argmax(rates))
        combo, s = divmod(k, cands.shape[1])
        # the combination's quadrant digits, first range slowest
        picks = [combo // 4 ** i % 4 for i in range(len(ranges))][::-1]
        layer_best = float(rates[k])
        report.layer_trace.append(LayerRecord(
            layer=layer, choice=tuple(q + 1 for q in picks),
            best_rate=layer_best,
            evaluations_total=report.evaluations + rates.size))
        bounds = [quad[q] for quad, q in zip(quads, picks)]
        if layer_best > report.best_rate:
            report.best_rate = layer_best
            winner = bounds, s, [stack[q] for stack, q in zip(stacks, picks)]
    if winner is not None:
        best_bounds, s, samples = winner
        parts = []
        for b, (grid, side), words in zip(best_bounds, ranges, samples):
            s, i = divmod(s, grid.s_x * grid.s_y)   # first range fastest
            x, y, _ = sample_grid([b], grid.s_x, grid.s_y,
                                  grid.fixed_z)[0, i].tolist()
            tag = PointTag(side=side, x=x, y=y)
            parts.append(Codebook(words=words[i:i + 1], provenance=(tag,)))
        head = [] if prefix is None else [prefix]
        report.best_codeword = reduce(star, head + parts[::-1])[0]
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
                           layer_trace=[])
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
