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
in one process store (`_kept`), keyed by value on what it reads.  The
angular codebook depends on the array alone, so every cell on the same
array shares it (`angular_book`).  A range's quadrants and their
distance words depend on the range and on the RIS element positions and
wavelength, not on the channel, the precoder, the user position or the
other range of the layer, so every cell and sweep value of an
experiment on one RIS array shares them.  The store is least recently
used first and bounded by the bytes of its words (`KEPT_BYTES`).
`drop_memos` empties it, which `harness.run_experiment` does before
each experiment.
What depends on the precoder but not on the candidates is kept per
thread by the rate kernel `rates_for_phase_batch`: its operand C, built
once for a run of calls under one (realization, w, noise_var), and its
screen's operand (`_projection`), C projected on the two leading right
singular vectors of T with a bound on the rest, taken on the first
screened batch.  The screen runs before the kernel's GEMM, which then
runs only on the rows that can hold the batch maximum.  A refining
scheme names its winner from the row it scored.
"""

from __future__ import annotations

import math
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


# The precoder-independent work training keeps: {key: (value, bytes)},
# least recently used first, read, reordered and trimmed under
# _KEPT_LOCK.  A key is made of the plain values its work reads; the
# angular codebook's key starts with "angular", a range's with its RIS
# key.  Two threads that miss together only compute the same thing
# twice.  The kept arrays are read-only.
_KEPT = OrderedDict()
_KEPT_LOCK = threading.Lock()
# The bytes of words _KEPT may keep.  2 MiB holds every entry of a desk
# NN experiment (0.98 MB at 20 cells, 1.24 MB at 80) and of one paper NN
# cell (0.77 MB at seed 1, 1.23 MB at seed 0); unbounded, the 20-cell
# paper NN experiment, whose cells' descents part early, would keep
# 13.4 MB.
KEPT_BYTES = 2 * 2**20
# rates_for_phase_batch's kept operand, T and screen operand, per thread
_WORK = threading.local()
# The batches rates_for_phase_batch screens: K >= _SCREEN_MIN_K, q >= 2.
# On the near rank-one channels the screen keeps its floor of 2 rows in
# most batches (the shipped NN configs, 20 seeds each: 2 in each of desk
# NN's 444 batches, 2 in 587 of paper NN's 624 and at most 14; no operand
# took the full-rank fallback).  Kernel time with the screen over without
# it, on the batches of 3-seed desk NN and paper NN, NN-angular and NF
# runs (in process, 2 shared cores, OPENBLAS_NUM_THREADS=1): K = 256,
# n_ue = q = 4 (desk NN) 0.69, n_ue = q = 8 (paper NN) 0.27; K = 120 1.15
# at q = 3 and 0.80 at q = 8; K = 16 1.9.  Gate 120 ran paper_mix at 111
# against 117 cells/s (medians of 4 alternating pairs, 1 won) with
# +0.1-0.4 MB peak RSS, so sweeps and two-stage layers stay exact.
_SCREEN_MIN_K = 256


def drop_memos() -> None:
    """Empty the store, so the next training calls compute afresh."""
    with _KEPT_LOCK:
        _KEPT.clear()


def _kept(key: tuple, build):
    """The value kept under `key`, made the most recently used; on a
    miss, `build()` gives (value, the bytes of its words), and the value
    is kept with its bytes.  The least recently used entries are then
    dropped until the kept words take at most `KEPT_BYTES` or only the
    new entry is left, so a value larger than the budget stays until the
    next keep.  A key another thread kept meanwhile is replaced."""
    with _KEPT_LOCK:
        entry = _KEPT.get(key)
        if entry is not None:
            _KEPT.move_to_end(key)
            return entry[0]
    value, size = build()
    with _KEPT_LOCK:
        _KEPT.pop(key, None)
        _KEPT[key] = value, size
        total = sum(n for _, n in _KEPT.values())
        while total > KEPT_BYTES and len(_KEPT) > 1:
            total -= _KEPT.popitem(last=False)[1][1]
    return value


def angular_book(geometry: SystemGeometry) -> Codebook:
    """The angular codebook of `geometry`'s array.

    It is kept under (m_x, m_y, spacing_m, wavelength_m), the values
    `build_ff_codebook` reads, so every cell on the same array shares it;
    a sweep changes the key only between its values.  A miss builds it
    and makes its words read-only.
    """
    def build():
        book = build_ff_codebook(geometry)
        book.words.flags.writeable = False
        return book, book.words.nbytes
    return _kept(("angular", geometry.m_x, geometry.m_y, geometry.spacing_m,
                  geometry.wavelength_m), build)


def _ris_key(geometry: SystemGeometry) -> tuple:
    """What `distance_words` reads of `geometry`, as plain values: the
    fields that place the RIS elements, and the wavelength."""
    return (tuple(geometry.ris_mid.tolist()), geometry.m_x, geometry.m_y,
            geometry.spacing_m, geometry.wavelength_m)


def _operand(realization: ChannelRealization, w: np.ndarray,
             noise_var: float) -> np.ndarray:
    """This thread's kernel operand C for (realization, w, noise_var).

    C is kept with its key: the realization object itself (compared with
    `is`), w's shape, dtype and bytes, and noise_var with its type.  A
    call under the same key takes C as it is, so the scoring calls of one
    training call, whatever their batch size, build it once; any other
    key builds C afresh, and rejects a noise_var that is not positive.
    """
    key = (w.shape, w.dtype, w.tobytes(), type(noise_var), noise_var)
    held = getattr(_WORK, "operand", None)
    if held is not None and held[0] is realization and held[1] == key:
        return held[2]
    if not noise_var > 0:                   # NaN included
        raise ValueError("noise_var must be positive")
    t = realization.g_bs_ris @ w / np.sqrt(noise_var)           # (M, q)
    # laid out as the GEMM reads it: for q = 1 the F-ordered (M, n_ue)
    # matrix numpy makes of g_ris_ue.T * t, whose layout a K = 1 product's
    # bits depend on; otherwise C-ordered, as numpy's default order would
    # follow g_ris_ue.T and make the kernel's reshape copy C on every call
    c = np.multiply(realization.g_ris_ue.T[:, :, None], t[:, None, :],
                    order="F" if t.shape[1] == 1 else "C")
    _WORK.operand = realization, key, c
    _WORK.t, _WORK.screen = t, None
    return c


def _slack(q: int, s2: float) -> float | None:
    """The screen's slack for candidates of q columns whose traces are at
    most `s2`, None out of the screen's range (s2 not below 2^500, NaN
    included); see `rates_for_phase_batch`."""
    return 2.0 ** -30 * (q + s2) if s2 < 2.0 ** 500 else None


def _projection():
    """This thread's screen operand (C_V, r, slack) for its C, taken on
    the first screened batch after `_operand` builds C and kept until the
    next; False where the screen is out of range or could drop no row.

    C_V = C [v_1 v_2] holds the (M, 2, n_ue) projections, flattened as
    the GEMM reads them; r = M |C V_perp|_F^2 and s2 = M |C|_F^2 bound
    |B V_perp|_F^2 and |B|_F^2 for every unit-modulus row.  s2 is in
    range, so C and T are finite, before T's SVD is taken.  Every lower
    bound is at most 2 ln(1 + s2/2), so where r reaches that every row
    would be kept, and the batch takes the plain exact path instead.
    """
    if _WORK.screen is None:
        c = _WORK.operand[2]
        m, n_ue, q = c.shape
        flat = c.reshape(-1, q)
        _WORK.screen = False
        with np.errstate(all="ignore"):
            s2 = m * float(np.einsum("ij,ij->", flat.view(float),
                                     flat.view(float)))
            slack = _slack(q, s2)
            if slack is None:
                return False
            vh = np.linalg.svd(_WORK.t, full_matrices=False)[2]
            proj = flat @ vh.conj().T                 # C [V V_perp]
            rest = proj[:, 2:].view(float)
            r = m * float(np.einsum("ij,ij->", rest, rest))
        if r < 2.0 * math.log1p(s2 / 2.0):
            c_v = proj[:, :2].reshape(m, n_ue, 2).transpose(0, 2, 1)
            _WORK.screen = c_v.reshape(m, -1), r, slack   # a C-ordered copy
    return _WORK.screen


def _lower_bounds(p: np.ndarray) -> np.ndarray:
    """ln D for each candidate of the (K, 2, n_ue) stack `p` of its
    projections p_1 = B v_1, p_2 = B v_2: with a = |p_1|^2, d = |p_2|^2
    and c = p_1^H p_2, D = (1 + a)(1 + d) - |c|^2 = det(I_2 + [p_1 p_2]^H
    [p_1 p_2]), kept >= 1 + max(a, d), its own lower bound, against
    cancellation.  NaN where p is not finite."""
    with np.errstate(all="ignore"):
        flat = p.view(float)
        a, d = np.einsum("kji,kji->jk", flat, flat)
        c = np.einsum("ku,ku->k", np.conjugate(p[:, 0]), p[:, 1])
        det = np.maximum((1.0 + a) * (1.0 + d) - (c.real ** 2 + c.imag ** 2),
                         1.0 + np.maximum(a, d))
        return np.log(det)


def _keep(lower: np.ndarray, r: float, slack: float) -> np.ndarray | None:
    """The rows whose upper bound lower + r reaches the cut, the smaller
    of the largest lower bound less `slack` and the second largest lower
    bound, so at least 2 rows; None where a lower bound is NaN."""
    top = int(np.argmax(lower))                     # the first NaN, if any
    first = lower[top]
    second = max(lower[:top].max(initial=-np.inf),
                 lower[top + 1:].max(initial=-np.inf))
    cut = min(first - slack, second)
    if np.isnan(cut):
        return None
    return np.flatnonzero(lower + r >= cut)


def _rates(b: np.ndarray) -> np.ndarray:
    """The exact rates of the (K, n_ue, q) stack `b`: conj, matmul, add
    and `slogdet`, which treat each candidate alone.  A non-finite rate
    raises."""
    q = b.shape[2]
    gram = np.matmul(np.conjugate(b).swapaxes(1, 2), b)
    gram.reshape(-1, q * q)[:, ::q + 1] += 1.0      # I_q + Gram, in place
    rates = np.linalg.slogdet(gram)[1] / np.log(2.0)
    if not np.isfinite(rates).all():
        raise ValueError("non-finite rate operands")
    return rates


def rates_for_phase_batch(realization: ChannelRealization, phis: np.ndarray,
                          w: np.ndarray, noise_var: float) -> np.ndarray:
    """Achievable rate for each row of `phis` applied as RIS coefficients.

    One GEMM phis @ C, C[m, (u, q)] = G_ris_ue[u, m] (G_bs_ris W)[m, q] / s
    with s = sqrt(noise_var), gives each candidate's B = HW / s; its rate is
    the q x q log-det log2 det(I_q + B^H B) (`_rates`).  A non-finite exact
    rate raises.  A 1-D `phis` is one candidate.

    A batch of K >= _SCREEN_MIN_K unit-modulus rows with q >= 2 is
    screened before that GEMM.  The screen works along v_1 and v_2, the
    two leading right singular vectors of T = G_bs_ris W / s; V = [v_1
    v_2], and V_perp holds the other q - 2.  Per operand (`_projection`)
    it keeps C_V = C V and r = M |C V_perp|_F^2.  Since B V_perp =
    sum_m phi_m C_m V_perp, Cauchy-Schwarz gives |B V_perp|_F^2 <= M |C
    V_perp|_F^2 = r for a row with every |phi_m| = 1, and |B|_F^2 <= s2 =
    M |C|_F^2 likewise.  Per batch it takes P = phis @ C_V, 2/q of the
    GEMM's columns, and from P = B V the lower bound ln D
    (`_lower_bounds`).  Then ln D <= ln det(I_q + B^H B) <= ln D + r:
    below by the Schur complement of the leading 2 x 2 block in the basis
    (V, V_perp), which is I + R^H (I + P P^H)^-1 R >= I with R = B V_perp;
    above by Fischer's inequality and ln det(I + R^H R) <= |R|_F^2.  Only
    the rows `_keep` keeps go through the GEMM and the exact tail: they
    hold their exact rates, the other rows -inf, so the argmax and the
    maximum are those of the full exact batch.  At least 2 rows are
    kept: a GEMM of 2 or more rows gives each row the bits of the full
    GEMM's row, while a 1-row product takes numpy's GEMV path and gives
    other bits (a property of the BLAS, pinned by a test).  Other
    batches, and a batch whose P has a non-finite row, hold all exact
    rates.

    The slack.  A row left out has an upper bound below the largest
    lower bound less the slack, so it is below the row of that lower
    bound as long as the slack covers the rounding of both bounds and of
    both exact rates.  Against ln det of the true B = phis @ C, with
    u = 2^-53, S^2 = s2 and a change of X moving ln det(I + X^H X) by at
    most sqrt(q) |dX|_F (its gradient X (I + X^H X)^-1 has singular
    values <= 1/2):
    - the GEMM's B and the computed P are within M u S and (M + q) u S
      of B and B V in Frobenius norm, which moves the exact rate and
      ln D by at most (M + q) u (q + s2), as S <= (q + s2) / (2 sqrt(q));
      P is not the exact path's B times V bit for bit, so this term is
      new to this screen;
    - D's formula and its log, and the exact tail's Gram and LU
      `slogdet`, are within a small multiple of n_ue q^2 u (q + s2);
    - the SVD's V is orthonormal, and r's sum of M n_ue (q - 2) squares
      exact, to within a few M n_ue q u s2.
    At n_ue, q <= 8 and M <= 128 their sum is below 2^-36 (q + s2), and
    the slack, 2^-30 (q + s2), is 64 times that.  It keeps every row once
    it passes 2 ln(1 + s2/2), long before rounding can break the exact
    path.  In range: s2 below 2^500, so no overflow or NaN.

    C and the screen operand depend on the precoder but not on the
    candidates, so they are kept per thread and built once for a run of
    calls under one (realization, w, noise_var) (`_operand`); the
    realization's matrices must not change in place while it is in use.
    Every other array of a call is its own.
    """
    c = _operand(realization, w, noise_var)
    m, n_ue, q = c.shape
    screen = (phis.ndim == 2 and len(phis) >= _SCREEN_MIN_K and q >= 2
              and _projection())
    keep = None
    if screen:
        c_v, r, slack = screen
        p = np.matmul(phis, c_v).reshape(-1, 2, n_ue)
        keep = _keep(_lower_bounds(p), r, slack)
    kept = phis if keep is None else phis[keep]
    rates = _rates(np.matmul(kept, c.reshape(m, -1)).reshape(-1, n_ue, q))
    if keep is None:
        return rates
    full = np.full(len(phis), -np.inf)
    full[keep] = rates
    return full


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
    height.  Each layer takes each range's quadrant bounds, split by
    `quadrant_bounds` (which raises what `subdivide_range` would), and
    the words of the quadrants' (4, S, 3) samples from `sample_grid`, as
    one `distance_words` call per range.  It forms the candidates of all
    quadrant combinations (first range slowest) as one broadcast product
    of plain arrays: the fixed `prefix` row times the sample of the last
    range, ..., times the first, in the row and multiplication order of
    `reduce(star, ...)`.  It scores them in one batch and descends into
    the winning combination.  A layer that sets a new best keeps its
    bounds, its sample row and each range's winning stack; after the last
    layer the winner is named from them, with no words built, by `star`
    over one-row books tagged with the samples' points, so it has the
    scored row's coefficients and the tags of `reduce(star, ...)` over
    full components (hierarchical codewords carry the user-side sample as
    their first operand).  The layer records, each with the running
    evaluation total, and the best codeword accumulate into `report`.

    A range's quadrant bounds and words depend only on the range and on
    what `distance_words` reads of the geometry, the RIS element
    positions and the wavelength, so they are kept in the store under
    both.  A later call that reaches the same range on the same RIS
    array, under another precoder, beside another range or in another
    cell, takes them from there; a range not kept is computed, and
    raises, as above, in range order.
    """
    if layers < 0:
        raise ValueError("max_layers must be >= 0")
    ris = _ris_key(geometry)

    def work(b, grid):
        """The quadrant bounds of the range `b` of `grid` and its (4, S, M)
        words, kept per range."""
        def build():
            quads = quadrant_bounds(*b, grid.fixed_z)
            words = distance_words(
                sample_grid(quads, grid.s_x, grid.s_y, grid.fixed_z), geometry)
            words.flags.writeable = False
            return (quads, words), words.nbytes
        return _kept((ris, b, grid.s_x, grid.s_y, grid.fixed_z), build)

    bounds = [grid.bounds for grid, _ in ranges]
    winner = None
    for layer in range(1, layers + 1):
        quads, stacks = zip(*[work(b, grid)
                              for b, (grid, _) in zip(bounds, ranges)])
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
