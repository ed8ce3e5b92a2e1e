import sys
import threading
from collections import OrderedDict

import numpy as np
import pytest
from dataclasses import replace
from functools import reduce

from risbeam import harness, training
from risbeam.channel import (
    ChannelRealization,
    FarFieldSpec,
    PathSpec,
    cascade,
    far_channel,
    near_channel,
)
from risbeam.codebook import (
    Codebook,
    SamplingGrid,
    angular_grid_values,
    build_distance_component,
    build_ff_codebook,
    build_nn_codebook,
    star,
    subdivide_range,
)
from risbeam.geometry import LINK_BS_RIS, LINK_RIS_UE, SystemGeometry
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

from conftest import config_args

NOISE = 10 ** (-13.5)


def desk_geometry(ue=(0.24, 0.0, 0.0)):
    return SystemGeometry.build(30e9, n_bs=8, n_ue=4, m_x=16, m_y=2,
                                bs_mid=(0, 0, 0), ue_mid=ue,
                                ris_mid=(0.1, 0, 0.08),
                                **config_args(SystemGeometry.build))


def desk_grids(g, halfwidth_wl=10.0, s=2):
    half = halfwidth_wl * g.wavelength_m
    def mk(cx, cy, z):
        return SamplingGrid(x_min=cx - half, x_max=cx + half,
                            y_min=cy - half, y_max=cy + half,
                            s_x=s, s_y=s, fixed_z=z)
    return mk(0.0, 0.0, 0.0), mk(0.24, 0.0, 0.0)


def cell_centres(grid):
    """(x, y) samples of `grid` by the cell-centre formula
    lo + (s - 1/2)(hi - lo)/S, y sample fastest, in plain floats."""
    def axis(lo, hi, n):
        return [lo + (s - 0.5) * (hi - lo) / n for s in range(1, n + 1)]
    return [(x, y) for x in axis(grid.x_min, grid.x_max, grid.s_x)
            for y in axis(grid.y_min, grid.y_max, grid.s_y)]


def nn_realization(g):
    return ChannelRealization(g_bs_ris=near_channel(LINK_BS_RIS, g),
                              g_ris_ue=near_channel(LINK_RIS_UE, g),
                              model_tag="NN")


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
        g = desk_geometry()
        real = nn_realization(g)
        gb, gu = desk_grids(g)
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
        g = SystemGeometry.build(30e9, n_bs=2, n_ue=2, m_x=1, m_y=1,
                                 bs_mid=(0, 0, 0), ue_mid=(0.24, 0, 0),
                                 ris_mid=(0.1, 0, 0.08),
                                 **config_args(SystemGeometry.build))
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
        g = desk_geometry(ue=(cx, cy, 0.0))
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
        g = desk_geometry(ue=(0.26, 0.01, 0.0))
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
        g = desk_geometry(ue=(0.25, -0.005, 0.0))
        real = nn_realization(g)
        gb, gu = desk_grids(g)
        w = matched_precoder(real, g)
        layers = 2
        a = hierarchical_nn(real, w, NOISE, gb, gu, layers, g)
        b = hierarchical_nn(real, w, NOISE, gb, gu, layers, g)
        np.testing.assert_array_equal(a.best_codeword.coeffs,
                                      b.best_codeword.coeffs)
        assert a.best_rate == b.best_rate
        assert [r.choice for r in a.layer_trace] == [r.choice for r in b.layer_trace]

    def test_degenerate_range_aborts(self):
        g = desk_geometry()
        real = nn_realization(g)
        gb, gu = desk_grids(g)
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
                                   evaluations=0, layer_trace=[])
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
        g = desk_geometry(ue=(0.255, 0.003, 0.0))
        real = nn_realization(g)
        gb, gu = desk_grids(g)
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
        g = desk_geometry(ue=(0.235, 0.004, 0.0))
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
        g = desk_geometry(ue=(0.24 + off[0], off[1], 0.0))
        real = nn_realization(g)
        scaled = ChannelRealization(g_bs_ris=37.0 * real.g_bs_ris,
                                    g_ris_ue=real.g_ris_ue, model_tag="NN")
        w = matched_precoder(real, g, q=2)
        a = angular_sweep(real, w, NOISE, g)
        b = angular_sweep(scaled, w, NOISE, g)
        assert a.best_codeword.provenance == b.best_codeword.provenance


def test_layer_trace_records_every_layer():
    g = desk_geometry()
    real = nn_realization(g)
    gb, gu = desk_grids(g)
    rep = hierarchical_nn(real, matched_precoder(real, g), NOISE, gb, gu, 2, g)
    assert [rec.layer for rec in rep.layer_trace] == [1, 2]
    for rec in rep.layer_trace:
        assert len(rec.choice) == 2 and set(rec.choice) <= {1, 2, 3, 4}
        assert rec.evaluations_total == hierarchical_overhead(rec.layer, 2, 2)
    assert rep.layer_trace[-1].evaluations_total == rep.evaluations
    assert max(rec.best_rate for rec in rep.layer_trace) == rep.best_rate


class TestArrayNativeDescent:
    """Layers score plain arrays; the public builders name the winner."""

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
        g = desk_geometry(ue=(0.26, 0.01, 0.0))
        real = nn_realization(g)
        gb, gu = desk_grids(g)
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
        g = desk_geometry(ue=(0.26, 0.01, 0.0))
        real = nn_realization(g)
        gb, gu = desk_grids(g)
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
        g = desk_geometry()
        real = nn_realization(g)
        gb, gu = desk_grids(g)
        # two ulps wide: halves at layer 1, cannot be halved at layer 2
        narrow = replace(gu, x_min=0.0, x_max=2 * float(np.nextafter(0, 1)))
        batches = self.capture_phis(monkeypatch)
        with pytest.raises(ValueError, match="degenerate sampling range"):
            hierarchical_nn(real, matched_precoder(real, g), NOISE, gb,
                            narrow, 3, g)
        assert len(batches) == 1

    @pytest.mark.parametrize("scheme", ["NN", "NF", "FN"])
    def test_replayed_trace_names_the_kept_codeword(self, scheme):
        g = desk_geometry(ue=(0.26, 0.01, 0.0))
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
                                   evaluations=0, layer_trace=[])
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


def report_bytes(rep):
    return (rep.best_codeword.coeffs.tobytes(), rep.best_codeword.provenance,
            repr(rep.best_rate), rep.evaluations, repr(rep.layer_trace))


def empty_layer_slot(monkeypatch):
    monkeypatch.setattr(training, "_LAYERS", OrderedDict())


def empty_both_slots(monkeypatch):
    monkeypatch.setattr(training, "_ANGULAR", None)
    empty_layer_slot(monkeypatch)


def kept_bytes():
    return sum(a.nbytes for _, stacks in training._LAYERS.values()
               for a in stacks)


def spoil_kept_words():
    """Zero every kept word stack: a read of them changes the report."""
    for key, (quads, stacks) in list(training._LAYERS.items()):
        training._LAYERS[key] = quads, [np.zeros_like(a) for a in stacks]


@pytest.fixture
def empty_slots(monkeypatch):
    """Start from empty angular and layer slots."""
    empty_both_slots(monkeypatch)


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
    """Each layer's words are kept for the RIS array they were made on,
    whatever geometry object carries it; the angular codebook comes from
    its own slot."""

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
            empty_both_slots(monkeypatch)
            assert got == report_bytes(original(*args, **kwargs))
        fresh_work = {k: counts[k] - shared[k] for k in counts}
        # the cell reused work: each training call starts at the same
        # ranges; the angular codebook was built at most once, in the
        # cell's first call, while every replay from empty slots built it
        assert shared["angular"] == (scheme == "angular" or model != "NN")
        assert fresh_work["angular"] == len(calls) * shared["angular"]
        if model != "FF" and scheme != "angular":
            assert shared["words"] < fresh_work["words"]

    @pytest.mark.parametrize("scheme", ["NN", "NF", "FN", "angular"])
    def test_second_call_on_the_same_path_makes_no_words(self, monkeypatch,
                                                         scheme):
        g = desk_geometry(ue=(0.26, 0.01, 0.0))
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
        words = 0 if scheme == "angular" else 4
        angular = 0 if scheme == "NN" else 1
        assert counts == {"words": words, "angular": angular}
        counts.update(words=0, angular=0)
        assert report_bytes(train()) == first
        assert counts == {"words": 0, "angular": 0}
        # an empty layer slot makes the layers' words again, but the
        # angular codebook still comes from its slot
        empty_layer_slot(monkeypatch)
        assert report_bytes(train()) == first
        assert counts == {"words": words, "angular": 0}
        counts.update(words=0, angular=0)
        empty_both_slots(monkeypatch)
        assert report_bytes(train()) == first
        assert counts == {"words": words, "angular": angular}

    @pytest.mark.parametrize("change", [
        {"fixed_z": 0.03}, {"s_x": 3}, {"s_y": 1}, {"x_max": 0.25}])
    def test_layers_are_keyed_on_bounds_counts_and_height(self, monkeypatch,
                                                          change):
        g = desk_geometry(ue=(0.26, 0.01, 0.0))
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
            empty_both_slots(monkeypatch)
            fresh.append(report_bytes(scheme(real, w, NOISE, *args, g)))
        empty_both_slots(monkeypatch)
        for (scheme, args), want in zip(runs, fresh):
            assert report_bytes(scheme(real, w, NOISE, *args, g)) == want

    @staticmethod
    def trainers(gb, gu):
        """Hierarchical and NF two-stage training on fixed grids."""
        return (lambda real, w, geo: hierarchical_nn(real, w, NOISE, gb, gu,
                                                     2, geo),
                lambda real, w, geo: two_stage_hybrid(real, w, NOISE, gb, 2,
                                                      "NF", geo))

    def test_other_user_position_reads_the_kept_words(self, monkeypatch):
        g = desk_geometry()
        moved = desk_geometry(ue=(0.26, 0.01, 0.0))    # same RIS array
        real = nn_realization(moved)
        w = matched_precoder(real, moved)
        for train in self.trainers(*desk_grids(g)):
            empty_both_slots(monkeypatch)
            want = report_bytes(train(real, w, moved))
            empty_both_slots(monkeypatch)
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
        desk = dict(carrier_hz=30e9, spacing_m=0.5 * 0.01, n_bs=8, n_ue=4,
                    m_x=16, m_y=2, bs_mid=(0, 0, 0), ue_mid=(0.24, 0, 0),
                    ris_mid=(0.1, 0, 0.08))
        g = SystemGeometry(**desk)
        other = SystemGeometry(**desk | change)
        real = nn_realization(other)
        w = matched_precoder(real, other)
        for train in self.trainers(*desk_grids(g)):
            empty_both_slots(monkeypatch)
            want = report_bytes(train(real, w, other))
            empty_both_slots(monkeypatch)
            first = nn_realization(g)
            train(first, matched_precoder(first, g), g)
            spoil_kept_words()
            counts = self.count_work(monkeypatch)
            assert report_bytes(train(real, w, other)) == want
            assert counts["words"] == 2

    def test_cached_arrays_are_read_only(self):
        g = desk_geometry()
        real = nn_realization(g)
        w = matched_precoder(real, g)
        gb, gu = desk_grids(g)
        hierarchical_nn(real, w, NOISE, gb, gu, 2, g)
        two_stage_hybrid(real, w, NOISE, gu, 2, "FN", g)
        kept = training._LAYERS
        stacks = [a for _, per_range in kept.values() for a in per_range]
        assert len(kept) == 4 and len(stacks) == 6
        angular = training.angular_book(g)
        for a in stacks + [angular.words]:
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
        empty_both_slots(monkeypatch)
        hierarchical_nn(real, w, NOISE, gb, narrow, 1, g)
        counts = self.count_work(monkeypatch)
        batches = TestArrayNativeDescent.capture_phis(monkeypatch)
        with pytest.raises(ValueError, match="degenerate sampling range") as warm:
            hierarchical_nn(real, w, NOISE, gb, narrow, 3, g)
        assert str(warm.value) == str(cold.value)
        # layer 1 came from the slot and was scored; layer 2 raised
        assert len(batches) == 1 and counts["words"] == 0

    # one desk layer of hierarchical training keeps 2*4*4*32 words of
    # 16 bytes; the small bound keeps one and a half of them
    @pytest.mark.parametrize("moved, bound", [
        ({"ris_mid": (0.12, 0.01, 0.1)}, training.LAYER_SLOT_BYTES),
        ({"ue_mid": (0.26, 0.01, 0.0)}, 3 * 2**13)],
        ids=["ris_moved", "same_ris_evicting"])
    def test_threads_on_alternating_geometries_match_the_serial_run(
            self, monkeypatch, moved, bound):
        desk = dict(carrier_hz=30e9, n_bs=8, n_ue=4, m_x=16, m_y=2,
                    bs_mid=(0, 0, 0), ue_mid=(0.24, 0, 0),
                    ris_mid=(0.1, 0, 0.08),
                    **config_args(SystemGeometry.build))
        geos = [SystemGeometry.build(**desk),
                SystemGeometry.build(**desk | moved)]
        cells = []
        for g in geos:
            real = nn_realization(g)
            cells.append((real, matched_precoder(real, g), *desk_grids(g), g))

        def train(k):
            real, w, gb, gu, g = cells[k % 2]
            return report_bytes(hierarchical_nn(real, w, NOISE, gb, gu, 3, g))

        want = []
        for k in (0, 1):
            empty_both_slots(monkeypatch)
            want.append(train(k))
        monkeypatch.setattr(training, "LAYER_SLOT_BYTES", bound)
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
        if bound < training.LAYER_SLOT_BYTES:
            # 80 calls of 3 layers over at most 6 distinct layers: the
            # bound made them rebuild evicted ones
            assert counts["words"] > 6


@pytest.mark.usefixtures("empty_slots")
class TestLayerSlotBound:
    """The layer slot drops its least recently used layers to keep its
    word stacks within LAYER_SLOT_BYTES; what it drops is rebuilt."""

    LAYER = 2 * 4 * 4 * 32 * 16    # bytes of one desk hierarchical layer

    @staticmethod
    def cells(n):
        """n desk cells on one RIS array, each with its own user position
        and channel, so their descents part after the first layer."""
        out = []
        for i in range(n):
            g = desk_geometry(ue=(0.24 + 0.004 * i, 0.002 * i, 0.0))
            real = nn_realization(g)
            out.append((real, matched_precoder(real, g), *desk_grids(g), g))
        return out

    @pytest.mark.parametrize("layers_kept", [0, 1, 3])
    def test_kept_bytes_never_exceed_the_bound(self, monkeypatch,
                                               layers_kept):
        bound = layers_kept * self.LAYER + self.LAYER // 2
        monkeypatch.setattr(training, "LAYER_SLOT_BYTES", bound)
        seen, keep = [], training._keep_layer_work

        def checked(key, work):
            out = keep(key, work)
            seen.append(kept_bytes())
            return out
        monkeypatch.setattr(training, "_keep_layer_work", checked)
        for real, w, gb, gu, g in self.cells(4):
            hierarchical_nn(real, w, NOISE, gb, gu, 4, g)
            two_stage_hybrid(real, w, NOISE, gu, 3, "FN", g)
        assert max(seen) <= bound
        # the slot dropped layers: it keeps fewer than were built
        assert len(training._LAYERS) < len(seen)

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
            empty_both_slots(monkeypatch)
            want.append(run(cell))
        fresh = list(built)
        empty_both_slots(monkeypatch)
        # room for one layer: each layer evicts the one before it
        monkeypatch.setattr(training, "LAYER_SLOT_BYTES", self.LAYER)
        built.clear()
        assert [run(cell) for cell in cells] == want
        assert len(training._LAYERS) == 1
        # every layer was rebuilt, word for word as from an empty slot
        assert built == fresh and len(built) == 6

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
        monkeypatch.setattr(training, "LAYER_SLOT_BYTES", bound)
        assert emitted() == want


@pytest.mark.usefixtures("empty_slots")
class TestAngularSlot:
    """One shared angular codebook, keyed on what its build reads, that
    each experiment starts without."""

    DESK = dict(carrier_hz=30e9, n_bs=8, n_ue=4, m_x=16, m_y=2,
                bs_mid=(0, 0, 0), ue_mid=(0.24, 0, 0), ris_mid=(0.1, 0, 0.08),
                **config_args(SystemGeometry.build))

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
        book = training.angular_book(SystemGeometry.build(**self.DESK))
        counts = TestLayerSlot.count_work(monkeypatch)
        g = SystemGeometry.build(**self.DESK | moved)
        assert training.angular_book(g) is book
        real = nn_realization(g)
        w = matched_precoder(real, g)
        angular_sweep(real, w, NOISE, g)
        two_stage_hybrid(real, w, NOISE, desk_grids(g)[1], 1, "FN", g)
        assert counts["angular"] == 0

    @pytest.mark.parametrize("change", [
        {"m_x": 8}, {"m_y": 1}, {"spacing_wavelengths": 0.25},
        {"carrier_hz": 28e9}])
    def test_each_key_field_rebuilds_and_replaces_the_entry(self, monkeypatch,
                                                            change):
        g0 = SystemGeometry.build(**self.DESK)
        g1 = SystemGeometry.build(**self.DESK | change)
        counts = TestLayerSlot.count_work(monkeypatch)
        first = training.angular_book(g0)
        other = training.angular_book(g1)
        assert counts["angular"] == 2
        assert other.words.tobytes() == build_ff_codebook(g1).words.tobytes()
        # the slot holds one book: g1's replaced g0's
        key = (g1.m_x, g1.m_y, g1.spacing_m, g1.wavelength_m)
        assert training._ANGULAR == (key, other)
        again = training.angular_book(g0)
        assert counts["angular"] == 3 and again is not first
        assert again.words.tobytes() == first.words.tobytes()
        assert again.provenance == first.provenance

    def test_shared_words_are_read_only(self):
        g = desk_geometry()
        training.angular_book(g)
        book = training.angular_book(g)
        assert not book.words.flags.writeable
        for target in (book.words, book[0].coeffs):
            with pytest.raises(ValueError):
                target[0] = 1.0

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
        # one build per sweep value: the cells of a value share the book
        assert counts["angular"] == 3
        for i, value in enumerate((8, 16, 8)):
            counts["angular"] = 0
            alone_rows, alone_summary = emitted([value])
            assert rows[1 + 2 * i:3 + 2 * i] == alone_rows[1:]
            assert summary[1 + i] == alone_summary[1]
            # each experiment starts without the book, even when the one
            # before it left the same key in the slot (m_x 8 here)
            assert counts["angular"] == 1

    def test_threads_on_alternating_keys_get_their_own_book(self):
        geos = [SystemGeometry.build(**self.DESK),
                SystemGeometry.build(**self.DESK | {"m_x": 8})]
        want = [build_ff_codebook(g).words.tobytes() for g in geos]
        wrong = []

        def train(start):
            for k in range(start, start + 40):
                book = training.angular_book(geos[k % 2])
                if book.words.tobytes() != want[k % 2]:
                    wrong.append(k)

        run_threads(train)
        assert wrong == []
