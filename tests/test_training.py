import statistics
import sys
import threading
from collections import OrderedDict

import numpy as np
import pytest
from dataclasses import replace
from functools import reduce
from hypothesis import given, settings
from hypothesis import strategies as st

from risbeam import codebook, harness, training
from risbeam.channel import (
    ChannelRealization,
    FarFieldSpec,
    PathSpec,
    cascade,
    far_channel,
)
from risbeam.codebook import (
    Codebook,
    SamplingGrid,
    angular_grid_values,
    build_distance_component,
    build_ff_codebook,
    build_nn_codebook,
    quadrant_bounds,
    sample_grid,
    star,
    subdivide_range,
)
from risbeam.geometry import LINK_BS_RIS, LINK_RIS_UE, SystemGeometry
from risbeam.harness import VARIANTS, cell_setup, parse_config, solve_cell
from risbeam.optimizer import achievable_rate
from risbeam.training import (
    TrainingReport,
    _descend,
    angular_sweep,
    es_overhead_hybrid,
    es_overhead_nn,
    exhaustive_search,
    hierarchical_nn,
    hierarchical_overhead,
    rates_for_phase_batch,
    sweep_overhead,
    two_stage_hybrid,
    two_stage_overhead,
)

from conftest import (
    DESK_LAYOUT,
    cell_centres,
    desk_cell,
    desk_geometry,
    desk_grids,
    nn_realization,
    rand_matrix,
)

NOISE = 10 ** (-13.5)


def matched_precoder(real, g, p_max=1e-8, q=None):
    h0 = cascade(real, np.ones(g.m))
    q = q or min(g.n_bs, g.n_ue)
    w = h0.conj().T[:, :q]
    return w * np.sqrt(p_max) / np.linalg.norm(w)


class TestOverheadCounters:
    def test_closed_forms(self):
        assert sweep_overhead(60, 2) == 120
        assert hierarchical_overhead(1, 2, 2) == 256
        assert hierarchical_overhead(12, 2, 2) == 3072
        assert two_stage_overhead(120, 12, 2, 2) == 312
        assert es_overhead_nn(2, 2, 2) == 1024
        assert es_overhead_hybrid(120, 12, 2, 2) == 23040

    def test_sweep_counter(self):
        g = desk_geometry()
        real = nn_realization(g)
        rep = angular_sweep(real, matched_precoder(real, g), NOISE, g)
        assert rep.evaluations == g.m_x * g.m_y == 32

    @pytest.mark.parametrize("layers,s", [(1, 2), (3, 2), (2, 4)])
    def test_hierarchical_counter(self, layers, s):
        g = desk_geometry()
        real = nn_realization(g)
        gb, gu = desk_grids(g, s=s)
        rep = hierarchical_nn(real, matched_precoder(real, g), NOISE, gb, gu,
                              layers, g)
        assert rep.evaluations == hierarchical_overhead(layers, s, s)

    @pytest.mark.parametrize("layers,s", [(0, 2), (1, 2), (4, 3)])
    def test_two_stage_counter(self, layers, s):
        g = desk_geometry()
        real = nn_realization(g)
        gb, _ = desk_grids(g, s=s)
        rep = two_stage_hybrid(real, matched_precoder(real, g), NOISE, gb,
                               layers,
                               "NF", g)
        assert rep.evaluations == two_stage_overhead(g.m, layers, s, s)

    def test_hierarchical_requires_layers(self):
        g, real, gb, gu = desk_cell()
        with pytest.raises(ValueError, match="max_layers"):
            hierarchical_nn(real, matched_precoder(real, g), NOISE, gb, gu,
                            0, g)

    def test_flat_search_ratio_at_documented_operating_point(self):
        # the layered scheme needs about 2% of the flat-search cost when
        # the equivalent flat grid has 2^L * s points per direction (L=5)
        ratio = hierarchical_overhead(5, 2, 2) / es_overhead_nn(5, 2, 2)
        assert ratio == pytest.approx(5 / 256)
        assert abs(ratio - 0.02) < 0.005


class TestAngularSweep:
    def test_single_codeword_grid(self):
        g = desk_geometry(n_bs=2, n_ue=2, m_x=1, m_y=1)
        real = nn_realization(g)
        rep = angular_sweep(real, matched_precoder(real, g), NOISE, g)
        assert rep.evaluations == 1
        np.testing.assert_allclose(rep.best_codeword.coeffs, [1.0])

    def test_recovers_planted_grid_pair(self):
        g = desk_geometry()
        betas = angular_grid_values(g.m_x)
        beta_g, delta_g = betas[11], 0.5   # grid point (12, 2)
        ux, uy = beta_g * delta_g, delta_g
        el = np.arccos(uy)
        az = np.arcsin(ux / np.sin(el))
        p_br = PathSpec(gain=1.0, azimuth_aoa=az, elevation_aoa=el,
                        azimuth_aod=0.3, elevation_aod=np.pi / 2)
        p_ru = PathSpec(gain=1.0, azimuth_aoa=0.2, elevation_aoa=np.pi / 2,
                        azimuth_aod=0.0, elevation_aod=np.pi / 2)
        real = ChannelRealization(
            g_bs_ris=far_channel(FarFieldSpec(LINK_BS_RIS, (p_br,)), g),
            g_ris_ue=far_channel(FarFieldSpec(LINK_RIS_UE, (p_ru,)), g),
            model_tag="FF")
        rep = angular_sweep(real, matched_precoder(real, g, q=1), NOISE, g)
        tag = rep.best_codeword.provenance
        assert (tag.ix, tag.iy) == (12, 2)
        assert rep.layer_trace[0].choice == (12, 2)


class TestHierarchical:
    @pytest.mark.parametrize("path", [(2, 0, 3), (0, 1, 2), (3, 3, 0), (1, 2, 1)])
    def test_point_source_recovery(self, path):
        # identifiability caveat: only the sum of the two sampled distance
        # profiles enters the codeword, so the user point is recoverable
        # only when the other side's box is tight around its true node
        g0 = desk_geometry()
        lam = g0.wavelength_m
        gb = SamplingGrid(x_min=-lam, x_max=lam, y_min=-lam, y_max=lam,
                          s_x=2, s_y=2, fixed_z=0.0)
        _, gu = desk_grids(g0)
        cell = gu
        for idx in path:
            cell = subdivide_range(cell)[idx]
        cx = 0.5 * (cell.x_min + cell.x_max)
        cy = 0.5 * (cell.y_min + cell.y_max)
        g = desk_geometry(ue_mid=(cx, cy, 0.0))
        real = nn_realization(g)
        layers = 3
        rep = hierarchical_nn(real, matched_precoder(real, g), NOISE,
                              gb, gu, layers, g0)
        ue_tag = rep.best_codeword.provenance.first
        assert ue_tag.side == "U"
        half_cell = (gu.x_max - gu.x_min) / 2 ** 4
        assert abs(ue_tag.x - cx) <= half_cell + 1e-12
        assert abs(ue_tag.y - cy) <= half_cell + 1e-12

    @pytest.mark.parametrize("s", [1, 2, 3])
    def test_layer_choices_match_direct_scan(self, s):
        g = desk_geometry(ue_mid=(0.26, 0.01, 0.0))
        real = nn_realization(g)
        gb, gu = desk_grids(g, s=s)
        w = matched_precoder(real, g)
        layers = 2
        rep = hierarchical_nn(real, w, NOISE, gb, gu, layers, g)

        cur_bs, cur_ue = gb, gu
        winners = []
        for rec in rep.layer_trace:
            subs_bs = subdivide_range(cur_bs)
            subs_ue = subdivide_range(cur_ue)
            best_rate, best_pair = -np.inf, None
            for i, sb in enumerate(subs_bs):
                for j, su in enumerate(subs_ue):
                    book = build_nn_codebook(sb, su, g)
                    rates = rates_for_phase_batch(real, book.words, w, NOISE)
                    if rates.max() > best_rate:
                        best_rate, best_pair = float(rates.max()), (i + 1, j + 1)
                        best_word = book[int(np.argmax(rates))]
            assert rec.choice == best_pair
            assert rec.best_rate == pytest.approx(best_rate, rel=1e-12)
            winners.append(best_word)
            cur_bs = subs_bs[rec.choice[0] - 1]
            cur_ue = subs_ue[rec.choice[1] - 1]
        # the kept codeword is the winner of the first layer reaching its rate
        first = [rec.best_rate for rec in rep.layer_trace].index(rep.best_rate)
        assert rep.best_codeword.coeffs.tobytes() == \
            winners[first].coeffs.tobytes()
        assert rep.best_codeword.provenance == winners[first].provenance

    def test_reports_are_deterministic(self):
        g, real, gb, gu = desk_cell(ue_mid=(0.25, -0.005, 0.0))
        w = matched_precoder(real, g)
        layers = 2
        a = hierarchical_nn(real, w, NOISE, gb, gu, layers, g)
        b = hierarchical_nn(real, w, NOISE, gb, gu, layers, g)
        np.testing.assert_array_equal(a.best_codeword.coeffs,
                                      b.best_codeword.coeffs)
        assert a.best_rate == b.best_rate
        assert [r.choice for r in a.layer_trace] == [r.choice for r in b.layer_trace]

    def test_degenerate_range_aborts(self):
        g, real, gb, gu = desk_cell()
        tiny = replace(gu, x_min=0.0, x_max=float(np.nextafter(0.0, 1.0)),
                       y_min=0.0, y_max=1.0)
        with pytest.raises(ValueError, match="degenerate"):
            hierarchical_nn(nn_realization(g), matched_precoder(real, g), NOISE,
                            gb, tiny, 3, g)


class TestTwoStage:
    def test_zero_layers_degenerates_to_sweep(self):
        g = desk_geometry()
        real = nn_realization(g)
        w = matched_precoder(real, g)
        gb, _ = desk_grids(g)
        two = two_stage_hybrid(real, w, NOISE, gb, 0, "NF", g)
        sweep = angular_sweep(real, w, NOISE, g)
        assert two.evaluations == g.m
        assert two.best_rate == pytest.approx(sweep.best_rate, rel=1e-12)
        np.testing.assert_allclose(two.best_codeword.coeffs,
                                   sweep.best_codeword.coeffs)

    @pytest.mark.parametrize("s", [1, 2, 3])
    def test_side_selects_refined_grid(self, s):
        # reconstruct layer 1 by hand and pin which side's distances were
        # combined with the fixed angular codeword
        g = desk_geometry()
        gb, gu = desk_grids(g, s=s)
        layers = 1
        real = nn_realization(g)
        w = matched_precoder(real, g)
        angular = build_ff_codebook(g)
        stage1 = rates_for_phase_batch(real, angular.words, w, NOISE)
        k1 = int(np.argmax(stage1))
        fixed = Codebook(words=angular.words[k1:k1 + 1],
                         provenance=(angular.provenance[k1],))
        for side, grid, letter in (("NF", gb, "B"), ("FN", gu, "U")):
            rep = two_stage_hybrid(real, w, NOISE, grid, layers, side, g)
            assert rep.layer_trace[0].choice == (
                angular.provenance[k1].ix, angular.provenance[k1].iy)
            best = -np.inf
            for sub in subdivide_range(grid):
                book = star(fixed, build_distance_component(sub, letter, g))
                assert all(t.second.side == letter for t in book.provenance)
                rates = rates_for_phase_batch(real, book.words, w, NOISE)
                if rates.max() > best:
                    best, winner = float(rates.max()), book[int(np.argmax(rates))]
            assert rep.layer_trace[1].best_rate == pytest.approx(best, rel=1e-12)
            # a layer's winner is kept only when it beats the sweep
            kept = winner if best > stage1[k1] else angular[k1]
            assert rep.best_codeword.coeffs.tobytes() == kept.coeffs.tobytes()
            # from an empty report, layer 1 always names its winner
            empty = TrainingReport(best_codeword=None, best_rate=-np.inf,
                                   layer_trace=[])
            named = _descend(real, w, NOISE, g, [(grid, letter)], 1, empty,
                             prefix=fixed).best_codeword
            assert named.coeffs.tobytes() == winner.coeffs.tobytes()
            assert named.provenance == winner.provenance

    def test_bad_side_rejected(self):
        g = desk_geometry()
        real = nn_realization(g)
        with pytest.raises(ValueError):
            two_stage_hybrid(real, matched_precoder(real, g), NOISE,
                             desk_grids(g)[0], 1, "NN", g)

    def test_stage_records(self):
        g = desk_geometry()
        real = nn_realization(g)
        gb, _ = desk_grids(g)
        rep = two_stage_hybrid(real, matched_precoder(real, g), NOISE, gb,
                               3, "NF", g)
        assert rep.layer_trace[0].layer == 0
        assert len(rep.layer_trace[0].choice) == 2
        assert [r.layer for r in rep.layer_trace[1:]] == [1, 2, 3]
        assert all(1 <= r.choice[0] <= 4 for r in rep.layer_trace[1:])


class TestExhaustiveSearch:
    def test_single_codeword(self):
        g = desk_geometry()
        real = nn_realization(g)
        book = build_ff_codebook(g)
        sub = type(book)(words=book.words[:1], provenance=book.provenance[:1])
        rep = exhaustive_search(real, matched_precoder(real, g), NOISE, sub)
        assert rep.evaluations == 1
        np.testing.assert_array_equal(rep.best_codeword.coeffs, book.words[0])

    def test_empty_codebook_rejected(self):
        g = desk_geometry()
        real = nn_realization(g)
        book = build_ff_codebook(g)
        empty = type(book)(words=book.words[:0], provenance=())
        with pytest.raises(ValueError, match="empty"):
            exhaustive_search(real, matched_precoder(real, g), NOISE, empty)

    def test_layer2_samples_lie_on_the_flat_8_point_grid(self):
        # two layers of halving with 2 samples per direction sample the
        # same lattice as a flat 8-point-per-direction grid
        grid = SamplingGrid(x_min=0.0, x_max=1.0, y_min=0.0, y_max=1.0,
                            s_x=2, s_y=2, fixed_z=0.0)
        flat = {round(x, 12)
                for x, _ in cell_centres(replace(grid, s_x=8, s_y=8))}
        for q1 in subdivide_range(grid):
            for q2 in subdivide_range(q1):
                for x, y in cell_centres(q2):
                    assert round(x, 12) in flat and round(y, 12) in flat

    def test_flat_search_bounds_final_layer(self):
        # flat search over the depth-2 effective grid (8 points per
        # direction) is the argmax over a superset of the layer-2 codewords
        g, real, gb, gu = desk_cell(ue_mid=(0.255, 0.003, 0.0))
        w = matched_precoder(real, g)
        rep = hierarchical_nn(real, w, NOISE, gb, gu, 2, g)
        book = build_nn_codebook(replace(gb, s_x=8, s_y=8),
                                 replace(gu, s_x=8, s_y=8), g)
        es = exhaustive_search(real, w, NOISE, book)
        assert es.evaluations == len(book) == 4096
        assert es.best_rate >= rep.layer_trace[-1].best_rate - 1e-12


class TestScaleInvariance:
    @pytest.mark.parametrize("scale", [1e-3, 1e3])
    def test_selection_invariant_under_channel_scaling_single_stream(self, scale):
        g = desk_geometry(ue_mid=(0.235, 0.004, 0.0))
        real = nn_realization(g)
        scaled = ChannelRealization(g_bs_ris=scale * real.g_bs_ris,
                                    g_ris_ue=real.g_ris_ue, model_tag="NN")
        w = matched_precoder(real, g, q=1)
        a = angular_sweep(real, w, NOISE, g)
        b = angular_sweep(scaled, w, NOISE, g)
        assert a.best_codeword.provenance == b.best_codeword.provenance

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_selection_invariant_multi_stream_seeded(self, seed):
        rng = np.random.default_rng(seed)
        off = rng.uniform(-0.01, 0.01, 2)
        g = desk_geometry(ue_mid=(0.24 + off[0], off[1], 0.0))
        real = nn_realization(g)
        scaled = ChannelRealization(g_bs_ris=37.0 * real.g_bs_ris,
                                    g_ris_ue=real.g_ris_ue, model_tag="NN")
        w = matched_precoder(real, g, q=2)
        a = angular_sweep(real, w, NOISE, g)
        b = angular_sweep(scaled, w, NOISE, g)
        assert a.best_codeword.provenance == b.best_codeword.provenance


def test_layer_trace_records_every_layer():
    g, real, gb, gu = desk_cell()
    rep = hierarchical_nn(real, matched_precoder(real, g), NOISE, gb, gu, 2, g)
    assert [rec.layer for rec in rep.layer_trace] == [1, 2]
    for rec in rep.layer_trace:
        assert len(rec.choice) == 2 and set(rec.choice) <= {1, 2, 3, 4}
        assert rec.evaluations_total == hierarchical_overhead(rec.layer, 2, 2)
    assert max(rec.best_rate for rec in rep.layer_trace) == rep.best_rate


class TestArrayNativeDescent:
    """Layers score plain arrays; the winner is named from its scored row."""

    @staticmethod
    def capture_phis(monkeypatch):
        batches = []

        def spy(realization, phis, w, noise_var):
            batches.append(phis.copy())
            return rates_for_phase_batch(realization, phis, w, noise_var)

        monkeypatch.setattr(training, "rates_for_phase_batch", spy)
        return batches

    @staticmethod
    def sweep_winner(real, w, g):
        angular = build_ff_codebook(g)
        k = int(np.argmax(rates_for_phase_batch(real, angular.words, w,
                                                NOISE)))
        return Codebook(words=angular.words[k:k + 1],
                        provenance=(angular.provenance[k],))

    def test_hierarchical_layer1_phis_are_star_rows(self, monkeypatch):
        g, real, gb, gu = desk_cell(ue_mid=(0.26, 0.01, 0.0))
        gu = replace(gu, s_x=3)
        batches = self.capture_phis(monkeypatch)
        hierarchical_nn(real, matched_precoder(real, g), NOISE, gb, gu, 1, g)
        # BS quadrant slowest, then user quadrant, then star(user, BS) rows
        expected = np.concatenate([
            star(build_distance_component(su, "U", g),
                 build_distance_component(sb, "B", g)).words
            for sb in subdivide_range(gb) for su in subdivide_range(gu)])
        assert len(batches) == 1
        assert batches[0].tobytes() == expected.tobytes()

    @pytest.mark.parametrize("side", ["NF", "FN"])
    def test_two_stage_layer1_phis_are_star_rows(self, monkeypatch, side):
        g = desk_geometry()
        real = nn_realization(g)
        w = matched_precoder(real, g)
        gb, gu = desk_grids(g, s=3)
        grid, letter = (gb, "B") if side == "NF" else (gu, "U")
        fixed = self.sweep_winner(real, w, g)
        batches = self.capture_phis(monkeypatch)
        two_stage_hybrid(real, w, NOISE, grid, 1, side, g)
        expected = np.concatenate([
            star(fixed, build_distance_component(q, letter, g)).words
            for q in subdivide_range(grid)])
        assert len(batches) == 2     # the sweep, then layer 1
        assert batches[1].tobytes() == expected.tobytes()

    @pytest.mark.parametrize("bs, ue", [
        ((2, 2, 0.0), (2, 2, 0.03)),
        ((2, 3, 0.0), (3, 2, 0.03)),
        ((1, 2, 0.01), (3, 2, 0.0)),
    ], ids=["heights", "transposed", "unequal-counts"])
    def test_unequal_sides_layer_phis_match_nn_codebooks(self, monkeypatch,
                                                         bs, ue):
        g, real, gb, gu = desk_cell(ue_mid=(0.26, 0.01, 0.0))
        gb = replace(gb, s_x=bs[0], s_y=bs[1], fixed_z=bs[2])
        gu = replace(gu, s_x=ue[0], s_y=ue[1], fixed_z=ue[2])
        batches = self.capture_phis(monkeypatch)
        rep = hierarchical_nn(real, matched_precoder(real, g), NOISE, gb, gu,
                              3, g)
        assert len(batches) == 3
        for rec, phis in zip(rep.layer_trace, batches):
            subs_bs, subs_ue = subdivide_range(gb), subdivide_range(gu)
            expected = np.concatenate([build_nn_codebook(sb, su, g).words
                                       for sb in subs_bs for su in subs_ue])
            assert phis.tobytes() == expected.tobytes()
            gb, gu = subs_bs[rec.choice[0] - 1], subs_ue[rec.choice[1] - 1]

    def test_range_degenerate_at_layer_two_aborts_after_one_batch(
            self, monkeypatch):
        g, real, gb, gu = desk_cell()
        # two ulps wide: halves at layer 1, cannot be halved at layer 2
        narrow = replace(gu, x_min=0.0, x_max=2 * float(np.nextafter(0, 1)))
        batches = self.capture_phis(monkeypatch)
        with pytest.raises(ValueError, match="degenerate sampling range"):
            hierarchical_nn(real, matched_precoder(real, g), NOISE, gb,
                            narrow, 3, g)
        assert len(batches) == 1

    @pytest.mark.parametrize("scheme", ["NN", "NF", "FN"])
    def test_replayed_trace_names_the_kept_codeword(self, scheme):
        g = desk_geometry(ue_mid=(0.26, 0.01, 0.0))
        real = nn_realization(g)
        w = matched_precoder(real, g)
        gb, gu = desk_grids(g)
        layers = 4
        if scheme == "NN":
            ranges, head = [(gb, "B"), (gu, "U")], []
            rep = hierarchical_nn(real, w, NOISE, gb, gu, layers, g)
        else:
            # from an empty report every layer may name the kept codeword,
            # so stage two's winner is named even when the sweep beats it
            ranges = [(gb, "B")] if scheme == "NF" else [(gu, "U")]
            head = [self.sweep_winner(real, w, g)]
            empty = TrainingReport(best_codeword=None, best_rate=-np.inf,
                                   layer_trace=[])
            rep = _descend(real, w, NOISE, g, ranges, layers, empty,
                           prefix=head[0])
        rates = [rec.best_rate for rec in rep.layer_trace]
        best = rates.index(rep.best_rate)
        if scheme == "NN":
            # this cell peaks at layer 3 of 4: the kept codeword is not
            # the last layer's
            assert best == 2
        grids = [grid for grid, _ in ranges]
        for rec in rep.layer_trace[:best + 1]:
            grids = [subdivide_range(grid)[q - 1]
                     for grid, q in zip(grids, rec.choice)]
        parts = [build_distance_component(grid, letter, g)
                 for grid, (_, letter) in zip(grids, ranges)]
        book = reduce(star, head + parts[::-1])
        replayed = rates_for_phase_batch(real, book.words, w, NOISE)
        s = int(np.argmax(replayed))
        assert replayed[s] == pytest.approx(rep.best_rate, rel=1e-12)
        assert rep.best_codeword.coeffs.tobytes() == book[s].coeffs.tobytes()
        assert rep.best_codeword.provenance == book[s].provenance


def rebuilt_winner(ranges, choices, head, geometry, row):
    """The codeword at `row` of the layer reached by `choices`, named by
    rebuilding that layer's full components: each range's grid split by
    its 1-based quadrant choices, its `build_distance_component`, and
    `star` over the prefix and the ranges, last range first."""
    grids = [grid for grid, _ in ranges]
    for choice in choices:
        grids = [subdivide_range(grid)[q - 1]
                 for grid, q in zip(grids, choice)]
    parts = [build_distance_component(grid, side, geometry)
             for grid, (_, side) in zip(grids, ranges)]
    return reduce(star, head + parts[::-1])[row]


class TestNamedWinner:
    """The kept codeword is named from the row it was scored as: the same
    coefficients, the tags of the full components' `star`, no words."""

    @staticmethod
    def cell(scale, scheme, seed=3):
        """A harness cell's channel and matched precoder, the ranges of
        `scheme` and its fixed prefix, and a call of `_descend` from an
        empty report, so that every layer may name the kept codeword."""
        cfg = harness.parse_config("", scale=scale)
        g, real, gb, gu = harness.cell_setup(cfg, seed)
        w = matched_precoder(real, g)
        if scheme == "NN":
            ranges, head = [(gb, "B"), (gu, "U")], []
        else:
            ranges = [(gb, "B")] if scheme == "NF" else [(gu, "U")]
            head = [TestArrayNativeDescent.sweep_winner(real, w, g)]

        def train():
            empty = TrainingReport(best_codeword=None, best_rate=-np.inf,
                                   layer_trace=[])
            return _descend(real, w, NOISE, g, ranges, cfg.layers, empty,
                            prefix=head[0] if head else None)
        return g, ranges, head, train

    @staticmethod
    def scored(monkeypatch):
        """Every batch `_descend` scores, with its rates."""
        batches = []

        def spy(realization, phis, w, noise_var):
            rates = rates_for_phase_batch(realization, phis, w, noise_var)
            batches.append((phis.copy(), rates))
            return rates

        monkeypatch.setattr(training, "rates_for_phase_batch", spy)
        return batches

    @pytest.mark.usefixtures("empty_slots")
    @pytest.mark.parametrize("scale", ["desk", "paper"])
    @pytest.mark.parametrize("scheme", ["NN", "NF", "FN"])
    def test_named_codeword_is_the_scored_row(self, monkeypatch, scale,
                                              scheme):
        g, ranges, head, train = self.cell(scale, scheme)
        batches = self.scored(monkeypatch)
        rep = train()
        best = [rec.best_rate for rec in rep.layer_trace].index(rep.best_rate)
        phis, rates = batches[best]
        k = int(np.argmax(rates))
        assert rates[k] == rep.best_rate
        assert rep.best_codeword.coeffs.tobytes() == phis[k].tobytes()
        # the row within the winning combination's block of candidates
        rows = len(phis) // 4 ** len(ranges)
        choices = [rec.choice for rec in rep.layer_trace[:best + 1]]
        old = rebuilt_winner(ranges, choices, head, g, k % rows)
        assert rep.best_codeword.provenance == old.provenance
        assert rep.best_codeword.coeffs.tobytes() == old.coeffs.tobytes()

    @pytest.mark.usefixtures("empty_slots")
    @pytest.mark.parametrize("scheme", ["NN", "NF", "FN"])
    def test_words_are_made_only_for_missed_layers(self, monkeypatch, scheme):
        g, ranges, head, train = self.cell("desk", scheme)
        made = []
        # the ranges' words, and any made in `codebook` (naming, say)
        for owner in (training, codebook):
            def spy(points, geometry, words=owner.distance_words):
                made.append(points.shape)
                return words(points, geometry)
            monkeypatch.setattr(owner, "distance_words", spy)
        layers = harness.parse_config("", scale="desk").layers
        want = report_bytes(train())
        # one call per range of each layer
        assert len(made) == layers * len(ranges)
        made.clear()
        assert report_bytes(train()) == want
        assert made == []
        # a store whose deepest layers were dropped misses only those
        for missed in (1, 3):
            drop_kept_ranges(monkeypatch)
            train()
            for _ in range(missed * len(ranges)):
                training._KEPT.popitem()
            made.clear()
            assert report_bytes(train()) == want
            assert len(made) == missed * len(ranges)


def report_bytes(rep):
    return (rep.best_codeword.coeffs.tobytes(), rep.best_codeword.provenance,
            repr(rep.best_rate), rep.evaluations, repr(rep.layer_trace))


def is_book(key):
    """Whether a key of the store is an angular codebook's; the others
    are ranges'."""
    return key[0] == "angular"


def empty_store(monkeypatch):
    monkeypatch.setattr(training, "_KEPT", OrderedDict())


def drop_kept_ranges(monkeypatch):
    """Swap in a store that holds only the kept angular codebooks."""
    monkeypatch.setattr(training, "_KEPT", OrderedDict(
        (key, entry) for key, entry in training._KEPT.items()
        if is_book(key)))


def kept_words():
    """Every kept word array, angular codebooks' and ranges'."""
    return [value.words if is_book(key) else value[1]
            for key, (value, _) in training._KEPT.items()]


def kept_bytes():
    """The bytes the store recorded for its entries, checked against the
    bytes of the words it holds."""
    recorded = sum(size for _, size in training._KEPT.values())
    assert recorded == sum(a.nbytes for a in kept_words())
    return recorded


def spoil_kept_words():
    """Zero every kept range's words: a read of them changes the report."""
    for key, (value, size) in list(training._KEPT.items()):
        if not is_book(key):
            quads, words = value
            training._KEPT[key] = (quads, np.zeros_like(words)), size


@pytest.fixture
def empty_slots(monkeypatch):
    """Start from an empty store."""
    empty_store(monkeypatch)


def run_threads(train, n=4):
    """Run `train(i)` on n threads with a tiny switch interval."""
    threads = [threading.Thread(target=train, args=(i,)) for i in range(n)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)


@pytest.mark.usefixtures("empty_slots")
class TestLayerSlot:
    """Each range's words are kept for the RIS array they were made on,
    whatever geometry object carries it and whatever range is beside it;
    the angular codebook is kept in the same store."""

    SCHEMES = ("angular_sweep", "hierarchical_nn", "two_stage_hybrid")

    @staticmethod
    def count_work(monkeypatch):
        """Counts of `distance_words` calls and angular codebook builds
        made through the names `training` looks up."""
        counts = {"words": 0, "angular": 0}

        def counted(name, key):
            original = getattr(training, name)

            def spy(*args, **kwargs):
                counts[key] += 1
                return original(*args, **kwargs)
            monkeypatch.setattr(training, name, spy)

        counted("distance_words", "words")
        counted("build_ff_codebook", "angular")
        counted("build_angular_component", "angular")
        return counts

    @pytest.mark.parametrize("scale", ["desk", "paper"])
    @pytest.mark.parametrize("label, model, scheme", harness.VARIANTS,
                             ids=[v[0] for v in harness.VARIANTS])
    def test_cell_replay_matches_empty_slots(self, monkeypatch, scale, label,
                                             model, scheme):
        cfg = replace(harness.parse_config("", scale=scale), model=model,
                      training=scheme)
        calls = []

        def recorder(name):
            original = getattr(training, name)

            def spy(*args, **kwargs):
                rep = original(*args, **kwargs)
                calls.append((original, args, kwargs, report_bytes(rep)))
                return rep
            monkeypatch.setattr(training, name, spy)

        for name in self.SCHEMES:
            recorder(name)
        counts = self.count_work(monkeypatch)
        harness.solve_cell(cfg, seed=1)
        shared = dict(counts)
        assert len(calls) >= 2
        # every call trained on the cell's one geometry object
        assert len({id(args[-1]) for _, args, *_ in calls}) == 1
        for original, args, kwargs, got in calls:
            empty_store(monkeypatch)
            assert got == report_bytes(original(*args, **kwargs))
        fresh_work = {k: counts[k] - shared[k] for k in counts}
        # the cell reused work: each training call starts at the same
        # ranges; the angular codebook was built at most once, in the
        # cell's first call, while every replay from an empty store built it
        assert shared["angular"] == (scheme == "angular" or model != "NN")
        assert fresh_work["angular"] == len(calls) * shared["angular"]
        if model != "FF" and scheme != "angular":
            assert shared["words"] < fresh_work["words"]

    @pytest.mark.parametrize("scheme", ["NN", "NF", "FN", "angular"])
    def test_second_call_on_the_same_path_makes_no_words(self, monkeypatch,
                                                         scheme):
        g = desk_geometry(ue_mid=(0.26, 0.01, 0.0))
        real = nn_realization(g)
        w = matched_precoder(real, g)
        gb, gu = desk_grids(g)

        def train():
            if scheme == "NN":
                return hierarchical_nn(real, w, NOISE, gb, gu, 4, g)
            if scheme == "angular":
                return angular_sweep(real, w, NOISE, g)
            return two_stage_hybrid(real, w, NOISE, gb if scheme == "NF"
                                    else gu, 4, scheme, g)

        counts = self.count_work(monkeypatch)
        first = report_bytes(train())
        # one call per range of each of the 4 layers
        words = {"NN": 8, "angular": 0}.get(scheme, 4)
        angular = 0 if scheme == "NN" else 1
        assert counts == {"words": words, "angular": angular}
        counts.update(words=0, angular=0)
        assert report_bytes(train()) == first
        assert counts == {"words": 0, "angular": 0}
        # a store without the ranges makes their words again, but the
        # angular codebook is still kept
        drop_kept_ranges(monkeypatch)
        assert report_bytes(train()) == first
        assert counts == {"words": words, "angular": 0}
        counts.update(words=0, angular=0)
        empty_store(monkeypatch)
        assert report_bytes(train()) == first
        assert counts == {"words": words, "angular": angular}

    @pytest.mark.parametrize("change", [
        {"fixed_z": 0.03}, {"s_x": 3}, {"s_y": 1}, {"x_max": 0.25}])
    def test_layers_are_keyed_on_bounds_counts_and_height(self, monkeypatch,
                                                          change):
        g = desk_geometry(ue_mid=(0.26, 0.01, 0.0))
        real = nn_realization(g)
        w = matched_precoder(real, g)
        gb, gu = desk_grids(g)
        moved = replace(gu, **change)
        runs = [(two_stage_hybrid, (grid, 3, side))
                for side, grid in (("FN", gu), ("FN", moved), ("NF", moved))]
        runs += [(hierarchical_nn, (gb, gu, 3)),
                 (hierarchical_nn, (gb, moved, 3))]
        fresh = []
        for scheme, args in runs:
            empty_store(monkeypatch)
            fresh.append(report_bytes(scheme(real, w, NOISE, *args, g)))
        empty_store(monkeypatch)
        for (scheme, args), want in zip(runs, fresh):
            assert report_bytes(scheme(real, w, NOISE, *args, g)) == want

    def test_a_bs_range_under_two_user_ranges_is_made_once(self,
                                                          monkeypatch):
        g, real, gb, gu = desk_cell()
        w = matched_precoder(real, g)
        grids = [gu, replace(gu, x_min=gu.x_min + 0.01,
                             x_max=gu.x_max + 0.01)]
        want = []
        for grid in grids:
            empty_store(monkeypatch)
            want.append(report_bytes(
                hierarchical_nn(real, w, NOISE, gb, grid, 1, g)))
        empty_store(monkeypatch)
        made = []
        words = training.distance_words

        def spy(points, geometry):
            made.append({tuple(p) for p in points.reshape(-1, 3).tolist()})
            return words(points, geometry)
        monkeypatch.setattr(training, "distance_words", spy)
        assert [report_bytes(hierarchical_nn(real, w, NOISE, gb, grid, 1, g))
                for grid in grids] == want
        # the BS range's words, then each user range's
        bs = {tuple(p) for p in sample_grid(
            quadrant_bounds(*gb.bounds, gb.fixed_z), gb.s_x, gb.s_y,
            gb.fixed_z).reshape(-1, 3).tolist()}
        assert len(made) == 3
        assert [bs <= points for points in made] == [True, False, False]

    @staticmethod
    def trainers(gb, gu):
        """Hierarchical and NF two-stage training on fixed grids, with the
        number of ranges each refines."""
        return ((lambda real, w, geo: hierarchical_nn(real, w, NOISE, gb, gu,
                                                      2, geo), 2),
                (lambda real, w, geo: two_stage_hybrid(real, w, NOISE, gb, 2,
                                                       "NF", geo), 1))

    def test_other_user_position_reads_the_kept_words(self, monkeypatch):
        g = desk_geometry()
        moved = desk_geometry(ue_mid=(0.26, 0.01, 0.0))    # same RIS array
        real = nn_realization(moved)
        w = matched_precoder(real, moved)
        for train, _ in self.trainers(*desk_grids(g)):
            empty_store(monkeypatch)
            want = report_bytes(train(real, w, moved))
            empty_store(monkeypatch)
            # the same channel descends the same path on g's object
            train(real, w, g)
            counts = self.count_work(monkeypatch)
            assert report_bytes(train(real, w, moved)) == want
            assert counts["words"] == 0

    @pytest.mark.parametrize("change", [
        {"ris_mid": (0.12, 0.01, 0.1)}, {"m_x": 8}, {"m_y": 1},
        {"spacing_m": 0.25 * 0.01}, {"carrier_hz": 28e9}],
        ids=["ris_mid", "m_x", "m_y", "spacing", "carrier"])
    def test_each_ris_field_rebuilds_and_never_reads_the_first_words(
            self, monkeypatch, change):
        desk = DESK_LAYOUT | {"spacing_m": 0.5 * 0.01}
        g = SystemGeometry(**desk)
        other = SystemGeometry(**desk | change)
        real = nn_realization(other)
        w = matched_precoder(real, other)
        for train, ranges in self.trainers(*desk_grids(g)):
            empty_store(monkeypatch)
            want = report_bytes(train(real, w, other))
            empty_store(monkeypatch)
            first = nn_realization(g)
            train(first, matched_precoder(first, g), g)
            spoil_kept_words()
            counts = self.count_work(monkeypatch)
            assert report_bytes(train(real, w, other)) == want
            # every range of both layers was made again
            assert counts["words"] == 2 * ranges

    def test_cached_arrays_are_read_only(self):
        g = desk_geometry()
        real = nn_realization(g)
        w = matched_precoder(real, g)
        gb, gu = desk_grids(g)
        hierarchical_nn(real, w, NOISE, gb, gu, 2, g)
        two_stage_hybrid(real, w, NOISE, gu, 2, "FN", g)
        words = kept_words()
        # 2 layers of 2 ranges, the FN call's layer-2 user range (its
        # layer-1 range is the hierarchical call's), and the book
        assert len(words) == 6
        angular = training.angular_book(g)
        assert any(a is angular.words for a in words)
        for a in words:
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a[0] = 1.0

    def test_warm_slot_still_raises_at_the_degenerate_layer(self,
                                                            monkeypatch):
        g = desk_geometry()
        real = nn_realization(g)
        w = matched_precoder(real, g)
        gb, gu = desk_grids(g)
        # two ulps wide: halves at layer 1, cannot be halved at layer 2
        narrow = replace(gu, x_min=0.0, x_max=2 * float(np.nextafter(0, 1)))
        with pytest.raises(ValueError) as cold:
            hierarchical_nn(real, w, NOISE, gb, narrow, 3, g)
        empty_store(monkeypatch)
        hierarchical_nn(real, w, NOISE, gb, narrow, 1, g)
        counts = self.count_work(monkeypatch)
        batches = TestArrayNativeDescent.capture_phis(monkeypatch)
        with pytest.raises(ValueError, match="degenerate sampling range") as warm:
            hierarchical_nn(real, w, NOISE, gb, narrow, 3, g)
        assert str(warm.value) == str(cold.value)
        # layer 1 came from the store and was scored; at layer 2 the BS
        # range's words were made, then the user range raised
        assert len(batches) == 1 and counts["words"] == 1

    # one desk range keeps 4*4*32 words of 16 bytes, a hierarchical layer
    # two of them; the small bound keeps three
    @pytest.mark.parametrize("moved, bound", [
        ({"ris_mid": (0.12, 0.01, 0.1)}, training.KEPT_BYTES),
        ({"ue_mid": (0.26, 0.01, 0.0)}, 3 * 2**13)],
        ids=["ris_moved", "same_ris_evicting"])
    def test_threads_on_alternating_geometries_match_the_serial_run(
            self, monkeypatch, moved, bound):
        geos = [desk_geometry(), desk_geometry(**moved)]
        cells = []
        for g in geos:
            real = nn_realization(g)
            cells.append((real, matched_precoder(real, g), *desk_grids(g), g))

        def train(k):
            real, w, gb, gu, g = cells[k % 2]
            return report_bytes(hierarchical_nn(real, w, NOISE, gb, gu, 3, g))

        want = []
        for k in (0, 1):
            empty_store(monkeypatch)
            want.append(train(k))
        monkeypatch.setattr(training, "KEPT_BYTES", bound)
        counts = self.count_work(monkeypatch)
        wrong, raised = [], []

        def worker(start):
            try:
                for k in range(start, start + 20):
                    if train(k) != want[k % 2]:
                        wrong.append(k)
            except Exception as exc:    # reported below, in the test thread
                raised.append(exc)

        run_threads(worker)
        assert wrong == [] and raised == []
        assert kept_bytes() <= bound
        if bound < training.KEPT_BYTES:
            # 80 calls of 3 layers over at most 12 distinct ranges: the
            # bound made them rebuild dropped ones
            assert counts["words"] > 12


@pytest.mark.usefixtures("empty_slots")
class TestLayerSlotBound:
    """The store drops its least recently used entries until its words
    take at most KEPT_BYTES or only the newest entry is left; what it
    drops is rebuilt."""

    LAYER = 2 * 4 * 4 * 32 * 16    # bytes of one desk hierarchical layer

    @staticmethod
    def cells(n):
        """n desk cells on one RIS array, each with its own user position
        and channel, so their descents part after the first layer."""
        out = []
        for i in range(n):
            g = desk_geometry(ue_mid=(0.24 + 0.004 * i, 0.002 * i, 0.0))
            real = nn_realization(g)
            out.append((real, matched_precoder(real, g), *desk_grids(g), g))
        return out

    @pytest.mark.parametrize("layers_kept", [0, 1, 3])
    def test_kept_bytes_never_exceed_the_bound(self, monkeypatch,
                                               layers_kept):
        bound = layers_kept * self.LAYER + self.LAYER // 2
        monkeypatch.setattr(training, "KEPT_BYTES", bound)
        built, over, kept = [], [], training._kept

        def checked(key, build):
            def counted():
                built.append(key)
                return build()
            out = kept(key, counted)
            # after the keep and its drops the newest entry stays; the
            # words fit unless it is left alone
            assert list(training._KEPT)[-1] == key
            if kept_bytes() > bound:
                assert len(training._KEPT) == 1
                over.append(key)
            return out
        monkeypatch.setattr(training, "_kept", checked)
        for real, w, gb, gu, g in self.cells(4):
            hierarchical_nn(real, w, NOISE, gb, gu, 4, g)
            two_stage_hybrid(real, w, NOISE, gu, 3, "FN", g)
        # only the desk angular codebook, two ranges' bytes, is past the
        # half-layer bound
        assert all(is_book(key) for key in over)
        assert bool(over) == (layers_kept == 0)
        # the store dropped entries: it keeps fewer than were built
        assert len(training._KEPT) < len(built)
        training.drop_memos()
        assert kept_bytes() == 0 and not training._KEPT

    def test_a_key_kept_again_is_replaced_as_the_newest(self, monkeypatch):
        # two threads that miss one key together both keep it
        monkeypatch.setattr(training, "KEPT_BYTES", 3 * 64)

        def racing(key, value, size):
            def build():
                # another thread keeps `key` while this one builds it
                training._kept(key, lambda: ("first", 64))
                return value, size
            return build

        for key in "bc":
            training._kept(key, lambda: ("old", 64))
        assert training._kept("a", racing("a", "again", 128)) == "again"
        # "a" is kept with the bytes of its new value as the newest entry:
        # 4 * 64 bytes are past the bound, so "b", the least recent, goes
        assert list(training._KEPT.items()) == [("c", ("old", 64)),
                                                ("a", ("again", 128))]
        training._kept("d", racing("d", "new", 64))
        assert list(training._KEPT.items()) == [("a", ("again", 128)),
                                                ("d", ("new", 64))]

    def test_evicted_layers_rebuild_bit_identically(self, monkeypatch):
        cells = self.cells(2)
        built = []
        words = training.distance_words

        def recorded(points, geometry):
            out = words(points, geometry)
            built.append(out.tobytes())
            return out
        monkeypatch.setattr(training, "distance_words", recorded)

        def run(cell):
            real, w, gb, gu, g = cell
            return report_bytes(hierarchical_nn(real, w, NOISE, gb, gu, 3, g))

        want = []
        for cell in cells:
            empty_store(monkeypatch)
            want.append(run(cell))
        fresh = list(built)
        empty_store(monkeypatch)
        # room for one layer's two ranges: each range drops the one two
        # before it
        monkeypatch.setattr(training, "KEPT_BYTES", self.LAYER)
        built.clear()
        assert [run(cell) for cell in cells] == want
        assert len(training._KEPT) == 2
        # every range was rebuilt, word for word as from an empty store
        assert built == fresh and len(built) == 12

    @pytest.mark.parametrize("bound", [0, 3 * LAYER])
    def test_experiment_output_does_not_depend_on_the_bound(
            self, monkeypatch, tmp_path, bound):
        cfg = harness.parse_config("seeds: [0, 1, 2]\nmax_iters: 2\n"
                                   "sweep: power_dbm in [10, 20]")

        def emitted():
            out = tmp_path / "res.csv"
            harness.emit_results(harness.run_experiment(cfg), out)
            return out.read_bytes(), out.with_suffix(".summary.csv").read_bytes()

        want = emitted()
        monkeypatch.setattr(training, "KEPT_BYTES", bound)
        assert emitted() == want


@pytest.mark.usefixtures("empty_slots")
class TestAngularSlot:
    """One shared angular codebook per key of what its build reads, kept
    in the store, that each experiment starts without."""

    @pytest.mark.parametrize("scale", ["desk", "paper"])
    def test_shared_book_equals_a_fresh_build(self, scale):
        g = harness.geometry_from(harness.parse_config("", scale=scale))
        fresh = build_ff_codebook(g)
        book = training.angular_book(g)
        assert training.angular_book(g) is book
        assert book.words.shape == fresh.words.shape
        assert book.words.tobytes() == fresh.words.tobytes()
        assert book.provenance == fresh.provenance

    @pytest.mark.parametrize("moved", [
        {"bs_mid": (0.05, 0.02, 0)}, {"ris_mid": (0.12, 0.01, 0.1)},
        {"ue_mid": (0.26, 0.01, 0)}])
    def test_positions_share_the_book_without_a_build(self, monkeypatch,
                                                      moved):
        book = training.angular_book(desk_geometry())
        counts = TestLayerSlot.count_work(monkeypatch)
        g = desk_geometry(**moved)
        assert training.angular_book(g) is book
        real = nn_realization(g)
        w = matched_precoder(real, g)
        angular_sweep(real, w, NOISE, g)
        two_stage_hybrid(real, w, NOISE, desk_grids(g)[1], 1, "FN", g)
        assert counts["angular"] == 0

    @pytest.mark.parametrize("change", [
        {"m_x": 8}, {"m_y": 1}, {"spacing_wavelengths": 0.25},
        {"carrier_hz": 28e9}])
    def test_each_key_field_builds_its_own_book(self, monkeypatch, change):
        g0 = desk_geometry()
        g1 = desk_geometry(**change)
        counts = TestLayerSlot.count_work(monkeypatch)
        first = training.angular_book(g0)
        other = training.angular_book(g1)
        assert counts["angular"] == 2
        assert other.words.tobytes() == build_ff_codebook(g1).words.tobytes()
        # the store keeps both books, each under what its build reads
        keys = [("angular", g.m_x, g.m_y, g.spacing_m, g.wavelength_m)
                for g in (g0, g1)]
        assert list(training._KEPT) == keys
        assert training._KEPT[keys[1]][0] is other
        assert training.angular_book(g0) is first
        assert counts["angular"] == 2

    def test_shared_words_are_read_only(self):
        g = desk_geometry()
        training.angular_book(g)
        book = training.angular_book(g)
        assert not book.words.flags.writeable
        for target in (book.words, book[0].coeffs):
            with pytest.raises(ValueError):
                target[0] = 1.0

    def test_a_book_past_the_budget_is_built_once_and_shared(self,
                                                            monkeypatch):
        g = desk_geometry()
        monkeypatch.setattr(training, "KEPT_BYTES", 64)
        counts = TestLayerSlot.count_work(monkeypatch)
        book = training.angular_book(g)
        assert book.words.nbytes > training.KEPT_BYTES
        real = nn_realization(g)
        w = matched_precoder(real, g)
        angular_sweep(real, w, NOISE, g)
        assert training.angular_book(g) is book
        assert counts["angular"] == 1
        assert list(training._KEPT) == [
            ("angular", g.m_x, g.m_y, g.spacing_m, g.wavelength_m)]

    def test_m_x_sweep_matches_each_value_run_alone(self, monkeypatch,
                                                    tmp_path):
        def emitted(values):
            cfg = harness.parse_config("model: FF\nseeds: [0, 1]\n"
                                       f"max_iters: 2\nsweep: m_x in {values}")
            out = tmp_path / "res.csv"
            harness.emit_results(harness.run_experiment(cfg), out)
            return (out.read_bytes().splitlines(),
                    out.with_suffix(".summary.csv").read_bytes().splitlines())

        counts = TestLayerSlot.count_work(monkeypatch)
        rows, summary = emitted([8, 16, 8])
        # one build per key: the cells of a value share the book, and the
        # second m_x 8 takes the book the first one kept
        assert counts["angular"] == 2
        for i, value in enumerate((8, 16, 8)):
            counts["angular"] = 0
            alone_rows, alone_summary = emitted([value])
            assert rows[1 + 2 * i:3 + 2 * i] == alone_rows[1:]
            assert summary[1 + i] == alone_summary[1]
            # each experiment starts without the book, even when the one
            # before it left the same key in the store (m_x 8 here)
            assert counts["angular"] == 1

    def test_threads_on_alternating_keys_get_their_own_book(self):
        geos = [desk_geometry(),
                desk_geometry(m_x=8)]
        want = [build_ff_codebook(g).words.tobytes() for g in geos]
        wrong = []

        def train(start):
            for k in range(start, start + 40):
                book = training.angular_book(geos[k % 2])
                if book.words.tobytes() != want[k % 2]:
                    wrong.append(k)

        run_threads(train)
        assert wrong == []


class TestRateKernel:
    @settings(max_examples=40, deadline=None)
    @given(tag=st.sampled_from(["FF", "NF", "FN", "NN"]),
           scale=st.sampled_from(["desk", "paper"]),
           seed=st.integers(0, 2**32 - 1), k=st.sampled_from([1, 16, 256]),
           data=st.data())
    def test_rows_match_scalar_rate_at_both_scales(self, tag, scale, seed, k,
                                                   data):
        cfg = parse_config(f"model: {tag}", scale=scale)
        geometry, real, _, _ = cell_setup(cfg, seed)
        # q = 1 and the square case q = n_ue are both in range
        q = data.draw(st.integers(1, min(geometry.n_bs, geometry.n_ue)),
                      label="q")
        rng = np.random.default_rng(seed)
        w = rand_matrix(rng, (geometry.n_bs, q))
        w *= np.sqrt(cfg.p_max_w) / np.linalg.norm(w)
        phis = np.exp(-1j * rng.uniform(0, 2 * np.pi, (k, geometry.m)))
        batch = rates_for_phase_batch(real, phis, w, cfg.noise_w)
        singles = np.array([achievable_rate(cascade(real, p), w, cfg.noise_w)
                            for p in phis])
        assert batch.shape == (k,)
        kept = assert_kernel_rows(batch, reference_rates(real, phis, w,
                                                         cfg.noise_w))
        assert kept.all() or screened(k, q)
        # both sides round 1 + x for a tiny x, so a row's error floor is a
        # few ulps of 1 in absolute terms (rates reach 1e-6 bit at desk FF)
        np.testing.assert_allclose(batch[kept], singles[kept], rtol=1e-10,
                                   atol=1e-14)
        assert np.all(singles[~kept] < singles.max())

    @pytest.mark.parametrize("q", [1, 2])
    @pytest.mark.parametrize("operand", ["phis", "w"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_nonfinite_operand_rejected(self, bad, operand, q):
        g, real, _, _ = desk_cell()
        rng = np.random.default_rng(9)
        w = rand_matrix(rng, (g.n_bs, q)) * 1e-5
        phis = np.exp(-1j * rng.uniform(0, 2 * np.pi, (4, g.m)))
        if operand == "phis":
            phis[1, 3] = bad
        else:
            w[2, 0] = bad
        with np.errstate(invalid="ignore"), \
                pytest.raises(ValueError, match="non-finite"):
            rates_for_phase_batch(real, phis, w, 1e-13)

    @pytest.mark.parametrize("noise_var", [0.0, -1e-12, np.nan])
    def test_nonpositive_noise_rejected(self, noise_var):
        g, real, _, _ = desk_cell()
        rng = np.random.default_rng(9)
        w = rand_matrix(rng, (g.n_bs, 2)) * 1e-5
        phis = np.exp(-1j * rng.uniform(0, 2 * np.pi, (4, g.m)))
        rates_for_phase_batch(real, phis, w, 1e-13)    # operand now held
        with pytest.raises(ValueError, match="noise_var must be positive"):
            rates_for_phase_batch(real, phis, w, noise_var)


def reference_rates(real, phis, w, noise_var):
    """The kernel's steps in its order, each product a fresh array."""
    t = real.g_bs_ris @ w / np.sqrt(noise_var)
    c = real.g_ris_ue.T[:, :, None] * t[:, None, :]
    b = (phis @ c.reshape(len(c), -1)).reshape(-1, *c.shape[1:])
    gram = np.eye(t.shape[1]) + b.conj().swapaxes(1, 2) @ b
    return np.linalg.slogdet(gram)[1] / np.log(2.0)


def screened(k, q):
    """Whether the kernel screens a batch of K candidates with q columns."""
    return k >= training._SCREEN_MIN_K and q >= 2


def assert_kernel_rows(got, want):
    """The kernel's batch `got` against `want`, the exact rate of every
    row: each finite row is bit-equal to its exact rate, every other row
    is -inf with an exact rate strictly below the batch maximum, at least
    2 rows are finite (or every row of a smaller batch), and the argmax
    is the same; returns the finite rows' mask."""
    kept = np.isfinite(got)
    assert kept.sum() >= min(2, len(got))
    assert np.array_equal(got[kept], want[kept])
    assert np.all(got[~kept] == -np.inf)
    assert np.all(want[~kept] < want.max())
    assert np.argmax(got) == np.argmax(want)
    return kept


def kernel_cases():
    """(realization, phis, w, noise) for K in {1, 16, 256}, q in {1, n_ue},
    at desk and paper scale; shuffled, then again in reverse, so that all
    but one call change the shape."""
    rng = np.random.default_rng(11)
    cases = []
    for scale in ("desk", "paper"):
        cfg = parse_config("model: NN", scale=scale)
        geometry, real, _, _ = cell_setup(cfg, 5)
        for q in (1, geometry.n_ue):
            for k in (1, 16, 256):
                w = rand_matrix(rng, (geometry.n_bs, q))
                w *= np.sqrt(cfg.p_max_w) / np.linalg.norm(w)
                phis = np.exp(-1j * rng.uniform(0, 2 * np.pi, (k, geometry.m)))
                cases.append((real, phis, w, cfg.noise_w))
    order = rng.permutation(len(cases))
    return [cases[i] for i in np.concatenate([order, order[::-1]])]


class TestRateKernelFreshArrays:
    """The kernel keeps only its operand per thread; every call, in any
    order of shapes and threads, gives the rates of fresh arrays."""

    def test_interleaved_shapes_match_fresh_arrays_bit_for_bit(self):
        for real, phis, w, noise in kernel_cases():
            got = rates_for_phase_batch(real, phis, w, noise)
            kept = assert_kernel_rows(got, reference_rates(real, phis, w,
                                                           noise))
            assert kept.all() or screened(len(phis), w.shape[1])

    def test_returned_rates_survive_later_calls(self):
        cases = kernel_cases()
        real, phis, w, noise = cases[0]
        first = rates_for_phase_batch(real, phis, w, noise)
        kept = first.copy()
        rates_for_phase_batch(real, phis[::-1].copy(), w, noise)  # same shape
        for case in cases[1:4]:
            rates_for_phase_batch(*case)
        assert np.array_equal(first, kept)

    def test_threads_scoring_at_once_get_the_serial_rates(self):
        # the paper-scale K = 256, q = n_ue shape twice with other phases,
        # one other shape and a screened desk batch
        cases = kernel_cases()
        real, phis, w, noise = max(cases, key=lambda c: c[1].size * c[2].size)
        desk = next(c for c in cases if c[0].g_ris_ue.shape[0] == 4
                    and screened(len(c[1]), c[2].shape[1]))
        cases = [(real, phis, w, noise), (real, phis.conj(), w, noise),
                 cases[0], desk]
        serial = [rates_for_phase_batch(*case) for case in cases]
        start = threading.Barrier(len(cases), timeout=30)
        got = [[] for _ in cases]

        def score(i):
            start.wait()
            for _ in range(25):
                got[i].append(rates_for_phase_batch(*cases[i]))

        threads = [threading.Thread(target=score, args=(i,))
                   for i in range(len(cases))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        for want, runs in zip(serial, got):
            assert len(runs) == 25
            assert all(np.array_equal(r, want) for r in runs)

    def test_one_dimensional_phis_is_one_candidate(self):
        for real, phis, w, noise in kernel_cases()[:6]:
            got = rates_for_phase_batch(real, phis[0], w, noise)
            assert got.shape == (1,)
            assert np.array_equal(got, reference_rates(real, phis[0], w, noise))


def exact_log_dets(b):
    """ln det(I + B^H B) of every row of the stack `b` by the kernel's
    exact path: conj, matmul, add and `slogdet` over the whole stack."""
    gram = np.conjugate(b).swapaxes(1, 2) @ b
    np.add(np.eye(b.shape[2]), gram, out=gram)
    return np.linalg.slogdet(gram)[1]


def adversarial_stack(seed, k, n_ue, q, exponent, tail):
    """K random candidates R_k F sharing the right factor F = diag(tail^j)
    Q, Q unitary (nearly rank one for a small `tail`, as the kernel's
    candidates are), scaled by 10^exponent, then copies of the best row
    (exact ties), duplicates of others, and rows one ulp away from the
    best and from others."""
    rng = np.random.default_rng(seed)
    unitary = np.linalg.qr(rand_matrix(rng, (q, q)))[0]
    factor = tail ** np.arange(q)[:, None] * unitary
    b = rand_matrix(rng, (k, n_ue, q)) @ factor * 10.0 ** exponent
    best = int(np.argmax(exact_log_dets(b)))
    rows = rng.permutation(k)
    b[rows[:3]] = b[best]                                # ties at the top
    b[rows[3:6]] = b[rows[6:9]]                          # other duplicates
    for r, source in ((rows[9], best), (rows[10], best), (rows[11], rows[12])):
        x = b[source].view(float).copy()
        b[r].view(float)[...] = np.nextafter(x, np.inf if r % 2 else -np.inf)
    return b


# (geometry, realization) of an NN cell at each scale, for the screen's
# bit checks
SCREEN_CELLS = {scale: cell_setup(parse_config("model: NN", scale=scale),
                                  5)[:2]
                for scale in ("desk", "paper")}


class TestRateKernelScreen:
    """A screened batch holds exact rates where a row can be the maximum
    and -inf where the screen proves it below."""

    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), k=st.sampled_from([256, 300]),
           n_ue=st.integers(1, 8), q=st.integers(1, 8),
           exponent=st.floats(-150.0, 150.0),
           tail=st.sampled_from([1.0, 1e-2, 1e-5]),
           along=st.sampled_from(["own", "orthogonal", "random", None]))
    def test_screened_rows_are_the_exact_rows_that_can_win(
            self, seed, k, n_ue, q, exponent, tail, along):
        # the screen driven from the stack rather than from phis and C:
        # P = B v_j, r the largest |B V_perp|_F^2 of a row and s2 the
        # largest trace, which bound every row as the kernel's r and s2 do
        b = adversarial_stack(seed, k, n_ue, q, exponent, tail)
        exact_ln = exact_log_dets(b)
        exact = exact_ln / np.log(2.0)
        traces = np.sum(np.abs(b) ** 2, axis=(1, 2))
        trace = traces.max()
        slack = None                            # along None: no screen
        if along is not None:
            # any orthonormal pair must be safe: the stack's own two
            # leading right singular vectors, its least one (orthogonal to
            # its own direction) beside a zero row, or a random pair; at
            # q = 1 the second row is zero
            basis = np.linalg.svd(b.reshape(-1, q) / np.abs(b).max(),
                                  full_matrices=False)[2].conj()
            pair = np.linalg.qr(rand_matrix(np.random.default_rng(seed + 1),
                                            (q, 2)))[0].T
            v = {"own": basis[:2], "orthogonal": basis[-1:],
                 "random": pair}[along]
            v = np.vstack([v, np.zeros((2 - len(v), q))])
            slack = training._slack(q, trace)
            # out of range only past the stated trace
            assert trace > 2.0 ** 499 if slack is None else trace < 2.0 ** 501
        if slack is None:
            def rates():
                return training._rates(b)
        else:
            p = np.einsum("kui,ji->kju", b, v)
            with np.errstate(all="ignore"):
                r = max(0.0, float(np.max(traces - np.sum(np.abs(p) ** 2,
                                                          axis=(1, 2)))))
            lower = training._lower_bounds(p)
            keep = training._keep(lower, r, slack)
            assert len(keep) >= 2

            def rates():
                got = np.full(k, -np.inf)
                got[keep] = training._rates(b[keep])
                return got
        if not np.isfinite(exact).all():
            # where rounding breaks the exact path, the kernel raises too
            with pytest.raises(ValueError, match="non-finite"):
                rates()
            return
        got = rates()
        if slack is None:
            # unscreened, every row is the exact path's
            assert np.array_equal(got, exact)
            return
        assert_kernel_rows(got, exact)
        assert got.max() == exact.max()
        assert np.sum(got == got.max()) == np.sum(exact == exact.max())
        assert np.all(lower <= exact_ln + slack)
        assert np.all(lower + r >= exact_ln - slack)

    @settings(max_examples=60, deadline=None)
    @given(scale=st.sampled_from(["desk", "paper"]), q=st.integers(2, 8),
           size=st.integers(2, 255), seed=st.integers(0, 2**32 - 1))
    def test_gemm_of_kept_rows_is_bit_equal_to_the_full_gemm(
            self, scale, q, size, seed):
        # the kernel rates only the kept rows, by a GEMM of those rows
        # alone; this BLAS gives each row of a product of 2 or more rows
        # the bits of the full K = 256 GEMM's row (a 1-row product takes
        # numpy's GEMV path, which the screen never takes)
        cfg = parse_config("model: NN", scale=scale)
        geometry, real = SCREEN_CELLS[scale]
        rng = np.random.default_rng(seed)
        c = training._operand(real, rand_matrix(rng, (geometry.n_bs, q)),
                              cfg.noise_w)
        flat = c.reshape(geometry.m, -1)
        phis = np.exp(-1j * rng.uniform(0, 2 * np.pi, (256, geometry.m)))
        keep = np.sort(rng.choice(256, size, replace=False))
        full = np.matmul(phis, flat)
        assert np.matmul(phis[keep], flat).tobytes() == full[keep].tobytes()

    @settings(max_examples=60, deadline=None)
    @given(lower=st.lists(st.floats(0.0, 50.0) | st.sampled_from([0.0, 7.0]),
                          min_size=2, max_size=300),
           r=st.floats(0.0, 10.0) | st.just(0.0),
           slack=st.floats(0.0, 1.0) | st.just(0.0))
    def test_kept_set_has_at_least_two_rows(self, lower, r, slack):
        lower = np.array(lower)
        keep = training._keep(lower, r, slack)
        assert len(keep) >= 2
        assert np.all(np.diff(keep) > 0)              # rows in batch order
        # the two largest lower bounds, and every row whose upper bound
        # reaches the largest lower bound less the slack
        assert set(np.argsort(-lower, kind="stable")[:2]) <= set(keep)
        assert set(np.flatnonzero(lower + r >= lower.max() - slack)) \
            <= set(keep)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_nonfinite_candidate_in_a_screened_batch_rejected(self, bad):
        # a lower bound that is not finite sends the batch to the exact
        # path, which raises
        real, phis, w, noise = next(
            case for case in kernel_cases()
            if len(case[1]) == 256 and case[2].shape[1] == 8)
        phis = phis.copy()
        phis[37, 5] = bad
        with np.errstate(invalid="ignore"), \
                pytest.raises(ValueError, match="non-finite"):
            rates_for_phase_batch(real, phis, w, noise)

    def test_full_rank_channel_takes_the_exact_path(self, monkeypatch):
        # on a random full-rank T, r = M |C V_perp|_F^2 reaches the ceiling
        # 2 ln(1 + s2/2) of every lower bound, so the operand's one
        # comparison sends each of its batches to the plain exact path
        rng = np.random.default_rng(17)
        m, n_bs, n_ue, q = 120, 16, 8, 8
        real = ChannelRealization(g_bs_ris=rand_matrix(rng, (m, n_bs)),
                                  g_ris_ue=rand_matrix(rng, (n_ue, m)),
                                  model_tag="NN")
        w = rand_matrix(rng, (n_bs, q))
        assert np.linalg.matrix_rank(real.g_bs_ris @ w) == q
        svd, svds = np.linalg.svd, []
        monkeypatch.setattr(np.linalg, "svd",
                            lambda *a, **k: svds.append(1) or svd(*a, **k))
        for _ in range(3):
            phis = np.exp(-1j * rng.uniform(0, 2 * np.pi, (256, m)))
            got = rates_for_phase_batch(real, phis, w, 1.0)
            assert training._WORK.screen is False
            assert got.tobytes() == \
                reference_rates(real, phis, w, 1.0).tobytes()
        assert len(svds) == 1

    def test_kernel_falls_back_past_the_screen_range(self):
        # traces past 2^500 take the exact path, which rates every row
        real, phis, w, noise = next(
            case for case in kernel_cases()
            if len(case[1]) == 256 and case[2].shape[1] == 4
            and case[0].g_ris_ue.shape[0] == 4)
        w = w * 2.0 ** 260
        got = rates_for_phase_batch(real, phis, w, noise)
        assert np.array_equal(got, reference_rates(real, phis, w, noise))

    @pytest.mark.parametrize("name,model,scheme", VARIANTS)
    def test_cells_match_the_unscreened_kernel(self, monkeypatch, name,
                                               model, scheme):
        # desk seeds 0-4 and paper seeds 0-1, whose NN hierarchical
        # batches are the paper's K = 256, n_ue = q = 8
        cells = [(parse_config(f"model: {model}\ntraining: {scheme}",
                               scale=scale), seed)
                 for scale, seeds in (("desk", 5), ("paper", 2))
                 for seed in range(seeds)]
        screened = [solve_cell(cfg, seed) for cfg, seed in cells]
        monkeypatch.setattr(training, "_SCREEN_MIN_K", 2**62)
        for (cfg, seed), state in zip(cells, screened):
            exact = solve_cell(cfg, seed)
            assert state.records == exact.records
            assert state.phi.tobytes() == exact.phi.tobytes()

    def test_paper_nn_batches_keep_few_rows(self, monkeypatch):
        # the paper-scale channels are close to rank one, so the bounds
        # along their two leading directions leave few rows of a K = 256
        # batch that can win
        kept = []

        def spy(*args):
            rates = kernel(*args)
            if len(rates) == 256:
                kept.append(int(np.isfinite(rates).sum()))
            return rates

        kernel = training.rates_for_phase_batch
        monkeypatch.setattr(training, "rates_for_phase_batch", spy)
        cfg = parse_config("model: NN", scale="paper")
        for seed in range(3):
            solve_cell(cfg, seed)
        assert len(kept) > 30
        assert statistics.median(kept) <= 4

    def test_nonfinite_screened_batch_rejected(self):
        # the screen declines a batch that is not finite before it takes
        # any direction, and the exact path raises
        real, phis, w, noise = next(
            case for case in kernel_cases()
            if len(case[1]) == 256 and case[2].shape[1] == 8)
        w = w.copy()
        w[2, 0] = np.nan
        with np.errstate(invalid="ignore"), \
                pytest.raises(ValueError, match="non-finite"):
            rates_for_phase_batch(real, phis, w, noise)


class TestRateKernelOperand:
    """C is kept per thread under (realization, w, noise_var); every call
    must still give the rates of fresh arrays."""

    @staticmethod
    def paper_case(k_values=(120, 16)):
        cfg = parse_config("model: NF", scale="paper")
        geometry, real, _, _ = cell_setup(cfg, 3)
        rng = np.random.default_rng(21)
        w = rand_matrix(rng, (geometry.n_bs, 3))
        w *= np.sqrt(cfg.p_max_w) / np.linalg.norm(w)
        batches = [np.exp(-1j * rng.uniform(0, 2 * np.pi, (k, geometry.m)))
                   for k in k_values]
        return real, w, cfg.noise_w, batches

    def test_w_mutated_in_place_between_calls(self):
        real, w, noise, (phis, _) = self.paper_case()
        first = rates_for_phase_batch(real, phis, w, noise)
        w[2, 1] *= -1.0
        w *= 1.5
        got = rates_for_phase_batch(real, phis, w, noise)
        assert np.array_equal(got, reference_rates(real, phis, w, noise))
        assert not np.array_equal(got, first)

    def test_other_realization_objects(self):
        real, w, noise, (phis, _) = self.paper_case()
        rates_for_phase_batch(real, phis, w, noise)
        equal = ChannelRealization(g_bs_ris=real.g_bs_ris.copy(),
                                   g_ris_ue=real.g_ris_ue.copy(),
                                   model_tag=real.model_tag)
        other = ChannelRealization(g_bs_ris=real.g_bs_ris[:, ::-1].copy(),
                                   g_ris_ue=real.g_ris_ue,
                                   model_tag=real.model_tag)
        for r in (equal, other, real):
            assert np.array_equal(rates_for_phase_batch(r, phis, w, noise),
                                  reference_rates(r, phis, w, noise))

    def test_noise_var_changes(self):
        real, w, noise, (phis, _) = self.paper_case()
        rates_for_phase_batch(real, phis, w, noise)
        # np.float32(2**-45) == 2**-45, near the paper noise power, but
        # its square root is a float32
        for n in (2 * noise, noise, 2.0**-45, np.float32(2.0**-45), 2.0**-45):
            assert np.array_equal(rates_for_phase_batch(real, phis, w, n),
                                  reference_rates(real, phis, w, n))

    def test_directions_taken_once_on_the_first_screened_batch(self):
        real, w, noise, (sweep, layer) = self.paper_case((120, 256))
        rates_for_phase_batch(real, sweep, w, noise)
        assert training._WORK.screen is None     # no screen, no directions
        rates_for_phase_batch(real, layer, w, noise)
        screen = training._WORK.screen
        c_v, r, slack = screen
        # C_V = C [v_1 v_2] and r = M |C V_perp|_F^2 along the right
        # singular vectors of T
        c = training._operand(real, w, noise)
        m, n_ue, q = c.shape
        t = real.g_bs_ris @ w / np.sqrt(noise)
        vh = np.linalg.svd(t, full_matrices=False)[2]
        proj = np.einsum("mui,ji->mju", c, vh.conj())
        scale = np.abs(c).max()
        np.testing.assert_allclose(c_v.reshape(m, 2, n_ue), proj[:, :2],
                                   rtol=0, atol=1e-12 * scale)
        np.testing.assert_allclose(r, m * np.sum(np.abs(proj[:, 2:]) ** 2),
                                   rtol=1e-9, atol=1e-20 * m * scale ** 2)
        assert slack == pytest.approx(
            training._slack(q, m * np.sum(np.abs(c) ** 2)), rel=1e-12)
        assert c_v.flags.c_contiguous
        rates_for_phase_batch(real, layer[::-1].copy(), w, noise)
        assert training._WORK.screen is screen
        rates_for_phase_batch(real, layer, 2 * w, noise)
        assert training._WORK.screen is not screen

    @pytest.mark.parametrize("q", [1, 2, 8])
    def test_fortran_ordered_channels_give_the_same_rates(self, q):
        cfg = parse_config("model: NN", scale="paper")
        geometry, real, _, _ = cell_setup(cfg, 2)
        fortran = ChannelRealization(
            g_bs_ris=np.asfortranarray(real.g_bs_ris),
            g_ris_ue=np.asfortranarray(real.g_ris_ue), model_tag="NN")
        rng = np.random.default_rng(q)
        w = rand_matrix(rng, (geometry.n_bs, q))
        w *= np.sqrt(cfg.p_max_w) / np.linalg.norm(w)
        for k in (16, 256):
            phis = np.exp(-1j * rng.uniform(0, 2 * np.pi, (k, geometry.m)))
            want = rates_for_phase_batch(real, phis, w, cfg.noise_w)
            got = rates_for_phase_batch(fortran, phis, w, cfg.noise_w)
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("q", [1, 2, 8])
    def test_kernel_reads_the_operand_without_a_copy(self, q):
        cfg = parse_config("model: NN", scale="paper")
        geometry, real, _, _ = cell_setup(cfg, 2)
        w = rand_matrix(np.random.default_rng(q), (geometry.n_bs, q))
        c = training._operand(real, w, cfg.noise_w)
        assert np.shares_memory(c.reshape(geometry.m, -1), c)

    def test_alternating_batch_sizes_share_one_operand(self):
        # a two-stage call: a K = 120 sweep, then K = 16 layers
        real, w, noise, batches = self.paper_case()
        rates_for_phase_batch(real, batches[0], w, noise)
        held = training._WORK.operand
        for phis in batches * 3:
            got = rates_for_phase_batch(real, phis, w.copy(), noise)
            assert np.array_equal(got, reference_rates(real, phis, w, noise))
        assert training._WORK.operand is held
        rates_for_phase_batch(real, batches[1], 2 * w, noise)
        assert training._WORK.operand is not held
