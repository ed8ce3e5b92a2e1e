import csv

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from risbeam.channel import (
    ChannelRealization,
    FarFieldSpec,
    PathSpec,
    far_channel,
    upa_response,
)
from risbeam.codebook import (
    AngleTag,
    Codebook,
    Codeword,
    ComboTag,
    PointTag,
    SamplingGrid,
    angular_grid_values,
    build_distance_component,
    build_ff_codebook,
    build_hybrid_codebook,
    build_nn_codebook,
    distance_words,
    ff_steering,
    sample_grid,
    star,
    subdivide_range,
)
from risbeam.geometry import NODE_RIS, SystemGeometry

from conftest import cell_centres, config_args


def geom(**kw):
    args = dict(carrier_hz=30e9, n_bs=4, n_ue=2, m_x=4, m_y=2,
                bs_mid=(0, 0, 0), ue_mid=(24, 0, 0), ris_mid=(10, 0, 8),
                **config_args(SystemGeometry.build))
    args.update(kw)
    return SystemGeometry.build(**args)


def unit_grid(s_x=2, s_y=2, z=0.0):
    return SamplingGrid(x_min=0.0, x_max=1.0, y_min=0.0, y_max=1.0,
                        s_x=s_x, s_y=s_y, fixed_z=z)


def grid_points(grid):
    """`sample_grid`'s (x, y) samples of `grid`, as a list of pairs."""
    pts = sample_grid([grid.bounds], grid.s_x, grid.s_y, grid.fixed_z)
    return [(x, y) for x, y, _ in pts[0].tolist()]


class TestAngularSteering:
    def test_zero_angles_give_all_ones(self):
        cw = ff_steering(0.0, 0.0, 3, 2, geom())
        np.testing.assert_allclose(cw.coeffs, np.ones(6))

    def test_single_element(self):
        np.testing.assert_allclose(ff_steering(0.5, -0.5, 1, 1, geom()).coeffs,
                                   [1.0])

    def test_two_element_half_wavelength(self):
        cw = ff_steering(1.0, 1.0, 2, 1, geom())
        np.testing.assert_allclose(cw.coeffs, [1.0, np.exp(-1j * np.pi)],
                                   atol=1e-12)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            ff_steering(1.5, 0.0, 2, 2, geom())

    @settings(max_examples=25, deadline=None)
    @given(beta=st.floats(-1, 1), delta=st.floats(-1, 1),
           m_x=st.integers(1, 6), m_y=st.integers(1, 4))
    def test_unit_modulus(self, beta, delta, m_x, m_y):
        cw = ff_steering(beta, delta, m_x, m_y, geom())
        np.testing.assert_allclose(np.abs(cw.coeffs), 1.0, atol=1e-12)


class TestAngularCodebook:
    def test_size_is_grid_product(self):
        book = build_ff_codebook(geom(m_x=60, m_y=2))
        assert len(book) == 120

    def test_degenerate_single_codeword(self):
        book = build_ff_codebook(geom(m_x=1, m_y=1))
        assert len(book) == 1
        np.testing.assert_allclose(book.words[0], [1.0])

    def test_grid_values(self):
        np.testing.assert_allclose(angular_grid_values(4),
                                   [-0.75, -0.25, 0.25, 0.75])

    def test_codewords_are_conjugated_steering(self, desk, table2):
        for g in (geom(m_x=3, m_y=2), desk, table2):
            book = build_ff_codebook(g)
            for k in range(len(book)):
                tag = book.provenance[k]
                raw = ff_steering(tag.beta, tag.delta, g.m_x, g.m_y, g)
                assert book.words[k].tobytes() == raw.coeffs.conj().tobytes()

    def test_ordering_y_fastest(self):
        book = build_ff_codebook(geom(m_x=3, m_y=2))
        pairs = [(t.ix, t.iy) for t in book.provenance]
        assert pairs == [(1, 1), (1, 2), (2, 1), (2, 2), (3, 1), (3, 2)]


class TestDistanceSteering:
    def test_single_element_phase(self):
        g = geom(m_x=1, m_y=1, ris_mid=(3, 0, 4))
        coeffs = distance_words(np.array([0.0, 0.0, 0.0]), g).conj()
        expected = np.exp(-2j * np.pi * 5.0 / g.wavelength_m)
        assert coeffs[0] == pytest.approx(expected, rel=1e-12)

    def test_boresight_symmetry(self):
        g = geom(m_x=2, m_y=2, ris_mid=(10, 0, 8))
        # on the RIS axis
        coeffs = distance_words(np.array([10.0, 0.0, 2.0]), g).conj()
        np.testing.assert_allclose(coeffs, coeffs[0], atol=1e-12)

    def test_adjacent_phase_differences_flatten_with_distance(self):
        g = geom(m_x=8, m_y=1, ris_mid=(0, 0, 0))
        aperture = g.aperture(NODE_RIS)
        spreads = []
        for mult in range(2, 101, 7):
            coeffs = distance_words(np.array([0.0, 0.0, -mult * aperture]),
                                    g).conj()
            dphi = np.angle(coeffs[1:] / coeffs[:-1])
            spreads.append(np.max(np.abs(dphi)))
        assert all(a > b for a, b in zip(spreads, spreads[1:]))

    def test_coincident_point_rejected(self):
        g = geom(m_x=1, m_y=1, ris_mid=(1, 2, 3))
        with pytest.raises(ValueError):
            distance_words(np.array([1.0, 2.0, 3.0]), g)


class TestDistanceWords:
    def test_stacked_quadrants_match_components_bitwise(self):
        g = geom()
        quads = subdivide_range(unit_grid(3, 2, z=0.5))
        xyz = np.array([[(x, y, q.fixed_z) for x, y in cell_centres(q)]
                        for q in quads])
        words = distance_words(xyz, g)
        assert words.shape == (4, 6, g.m)
        for q, row in zip(quads, words):
            book = build_distance_component(q, "U", g)
            assert row.tobytes() == book.words.tobytes()
        assert distance_words(xyz[2, 1], g).shape == (g.m,)
        assert distance_words(xyz[2, 1], g).tobytes() == words[2, 1].tobytes()

    @pytest.mark.parametrize("layout", ["desk", "table2"])
    def test_words_match_the_norm_expression_bytewise(self, layout, request):
        g = request.getfixturevalue(layout)
        pos = g.element_positions(NODE_RIS)
        centre = pos.mean(axis=0)
        size = g.aperture(NODE_RIS)
        rng = np.random.default_rng(2024)
        near = centre + rng.uniform(-3.0, 3.0, (300, 3)) * size
        on_plane = near[:100] * [1.0, 1.0, 0.0] + [0.0, 0.0, centre[2]]
        at_zero = near[100:200] * [1.0, 1.0, 0.0]
        far = centre + rng.standard_normal((100, 3)) * 1e5 * size
        xyz = np.concatenate([near, on_plane, at_zero, far]).reshape(
            6, 100, 3)
        oracle = np.exp(2j * np.pi * np.linalg.norm(
            xyz[..., None, :] - pos, axis=-1) / g.wavelength_m)
        words = distance_words(xyz, g)
        assert words.shape == (6, 100, g.m)
        assert words.tobytes() == oracle.tobytes()

    def test_nan_point_rejected(self):
        xyz = np.array([[0.0, 0.0, 0.0], [np.nan, 0.0, 0.0]])
        with pytest.raises(ValueError, match="finite"):
            distance_words(xyz, geom())

    def test_point_on_element_rejected(self):
        g = geom()
        xyz = np.stack([np.zeros(3), g.element_positions(NODE_RIS)[3]])
        with pytest.raises(ValueError, match="coincides"):
            distance_words(xyz, g)

    @staticmethod
    def modulus_checked_words(xyz, g):
        """distance_words with its former check: the modulus of every word."""
        pos = g.element_positions(NODE_RIS)
        dx, dy, dz = (xyz[..., i, None] - pos[:, i] for i in range(3))
        r = np.sqrt(dx * dx + dy * dy + dz * dz)
        if np.any(r <= 0.0):
            raise ValueError("sample point coincides with a RIS element")
        words = np.exp(1j * ((2.0 * np.pi * r) * (1.0 / g.wavelength_m)))
        if not np.all(np.abs(np.abs(words) - 1.0) <= 1e-12):
            raise ValueError("sample points must be finite")
        return words

    @staticmethod
    def outcome(fn, xyz, g):
        with np.errstate(over="ignore", invalid="ignore"):
            try:
                return fn(xyz, g).tobytes()
            except ValueError as err:
                return str(err)

    BAD = [(c, v) for c in range(3) for v in (np.nan, np.inf, -np.inf)]
    # squares that overflow, alone or only in their sum, and huge finite r
    HUGE = [(c, v) for c in range(3) for v in (1e200, -1e300, 1e150, -1e154)]

    @pytest.mark.parametrize("coord, value", BAD + HUGE)
    def test_phase_check_accepts_and_rejects_as_the_modulus_check(
            self, coord, value):
        g = geom()
        xyz = np.array([[0.0, 0.0, 0.0], [0.3, -0.2, 0.1], [1.0, 2.0, 3.0]])
        xyz[1, coord] = value
        new = self.outcome(distance_words, xyz, g)
        assert new == self.outcome(self.modulus_checked_words, xyz, g)
        if not np.isfinite(value) or abs(value) > 1e154:
            assert new == "sample points must be finite"
        else:
            assert isinstance(new, bytes)

    def test_phase_check_on_a_sum_of_squares_that_overflows(self):
        g = geom()
        for v in (7e153, 1e154):   # 3*v*v finite, then it overflows
            xyz = np.full((2, 3), v)
            new = self.outcome(distance_words, xyz, g)
            assert new == self.outcome(self.modulus_checked_words, xyz, g)
        assert isinstance(self.outcome(distance_words, np.full(3, 7e153), g),
                          bytes)
        assert self.outcome(distance_words, np.full(3, 1e154), g) == (
            "sample points must be finite")


class TestStar:
    def book(self, rows):
        words = np.asarray(rows, dtype=complex)
        return Codebook(words=words, provenance=tuple(range(len(rows))))

    def test_single_hadamard_product(self):
        out = star(self.book([[1, 1]]), self.book([[1, -1]]))
        np.testing.assert_allclose(out.words, [[1, -1]])

    def test_ordering_left_slowest(self):
        a = self.book([[1, 1], [1j, 1j], [-1, -1]])
        b = self.book([[1, 1], [1, -1], [-1, 1], [-1, -1]])
        out = star(a, b)
        assert len(out) == 12
        k = 0
        for ta in a.provenance:
            for tb in b.provenance:
                assert out.provenance[k] == ComboTag(first=ta, second=tb)
                np.testing.assert_allclose(
                    out.words[k], a.words[ta] * b.words[tb], atol=1e-15)
                k += 1

    def test_all_ones_is_identity(self):
        a = self.book([[1j, -1j], [1, -1]])
        out = star(a, self.book([[1, 1]]))
        np.testing.assert_allclose(out.words, a.words)

    def test_associative_up_to_ordering(self):
        rng = np.random.default_rng(0)
        def rand_book(n):
            return self.book(np.exp(1j * rng.uniform(0, 2 * np.pi, (n, 3))))
        a, b, c = rand_book(2), rand_book(3), rand_book(2)
        left = star(star(a, b), c).words
        right = star(a, star(b, c)).words
        np.testing.assert_allclose(left, right, atol=1e-12)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            star(self.book([[1, 1]]), self.book([[1, 1, 1]]))


class TestSamplingGrid:
    def test_sample_grid_cell_centers(self):
        grid = unit_grid(s_x=2, s_y=2)
        expected = [(0.25, 0.25), (0.25, 0.75), (0.75, 0.25), (0.75, 0.75)]
        assert cell_centres(grid) == expected
        assert grid_points(grid) == expected

    def test_sample_grid_formula(self):
        grid = SamplingGrid(x_min=-2.0, x_max=4.0, y_min=1.0, y_max=2.0,
                            s_x=3, s_y=1, fixed_z=0.0)
        assert grid_points(grid) == cell_centres(grid)
        xs = sorted({p[0] for p in grid_points(grid)})
        np.testing.assert_allclose(xs, [-1.0, 1.0, 3.0])
        assert all(p[1] == 1.5 for p in grid_points(grid))

    def test_degenerate_range_rejected(self):
        with pytest.raises(ValueError, match="degenerate"):
            SamplingGrid(x_min=0, x_max=0, y_min=0, y_max=1, s_x=1, s_y=1,
                         fixed_z=0)

    @pytest.mark.parametrize("bad", [dict(x_min=-np.inf), dict(y_max=np.inf),
                                     dict(fixed_z=np.nan)],
                             ids=["x_min", "y_max", "fixed_z"])
    def test_non_finite_bounds_rejected(self, bad):
        args = dict(x_min=0.0, x_max=1.0, y_min=0.0, y_max=1.0, s_x=2, s_y=2,
                    fixed_z=0.0)
        with pytest.raises(ValueError, match="finite"):
            SamplingGrid(**{**args, **bad})

    def test_subdivide_quadrant_order(self):
        quads = subdivide_range(unit_grid())
        boxes = [(q.x_min, q.x_max, q.y_min, q.y_max) for q in quads]
        assert boxes == [(0, 0.5, 0, 0.5), (0.5, 1, 0, 0.5),
                         (0.5, 1, 0.5, 1), (0, 0.5, 0.5, 1)]

    def test_subdivide_preserves_area(self):
        for q in subdivide_range(unit_grid()):
            assert (q.x_max - q.x_min) * (q.y_max - q.y_min) == pytest.approx(0.25)

    def test_subdividing_twice_tiles_sixteen_cells(self):
        cells = [c for q in subdivide_range(unit_grid())
                 for c in subdivide_range(q)]
        assert len(cells) == 16
        corners = sorted({(c.x_min, c.y_min) for c in cells})
        expected = sorted((x / 4, y / 4) for x in range(4) for y in range(4))
        np.testing.assert_allclose(corners, expected)


class TestCompositeCodebooks:
    def test_nn_size(self):
        g = geom(m_x=4, m_y=2)
        book = build_nn_codebook(unit_grid(2, 2, z=0.0), unit_grid(2, 2, z=0.1), g)
        assert len(book) == 16

    def test_nn_single_sample_is_product_of_conjugates(self):
        g = geom(m_x=4, m_y=2)
        gb, gu = unit_grid(1, 1, z=0.0), unit_grid(1, 1, z=0.1)
        book = build_nn_codebook(gb, gu, g)
        (xb, yb), = cell_centres(gb)
        (xu, yu), = cell_centres(gu)
        expected = (distance_words(np.array([xu, yu, 0.1]), g)
                    * distance_words(np.array([xb, yb, 0.0]), g))
        assert len(book) == 1
        np.testing.assert_allclose(book.words[0], expected, atol=1e-12)

    def test_nn_user_side_varies_slowest(self):
        g = geom(m_x=2, m_y=2)
        book = build_nn_codebook(unit_grid(2, 1, 0.0), unit_grid(2, 1, 0.1), g)
        tags = book.provenance
        assert all(t.first.side == "U" and t.second.side == "B" for t in tags)
        # first |B-list| entries share the first user point
        assert tags[0].first == tags[1].first
        assert tags[0].second != tags[1].second

    def test_hybrid_size(self, table2):
        book = build_hybrid_codebook("NF", unit_grid(4, 4, z=0.0), table2)
        assert len(book) == 120 * 16

    def test_hybrid_single_sample_overlays_constant_profile(self):
        g = geom(m_x=4, m_y=2)
        grid = unit_grid(1, 1, z=0.0)
        book = build_hybrid_codebook("NF", grid, g)
        angular = build_ff_codebook(g)
        (x, y), = cell_centres(grid)
        overlay = distance_words(np.array([x, y, 0.0]), g)
        assert len(book) == len(angular)
        np.testing.assert_allclose(book.words, angular.words * overlay[None, :],
                                   atol=1e-12)

    def test_hybrid_sides_differ_only_in_sampled_side(self):
        g = geom(m_x=4, m_y=2)
        grid = unit_grid(2, 2, z=0.3)
        nf = build_hybrid_codebook("NF", grid, g)
        fn = build_hybrid_codebook("FN", grid, g)
        np.testing.assert_allclose(nf.words, fn.words, atol=1e-15)
        assert all(t.second.side == "B" for t in nf.provenance)
        assert all(t.second.side == "U" for t in fn.provenance)

    def test_bad_side_tag_rejected(self):
        with pytest.raises(ValueError):
            build_hybrid_codebook("XX", unit_grid(), geom())

    def test_every_codeword_unit_modulus(self, desk):
        gb = unit_grid(2, 2, z=0.0)
        gu = unit_grid(2, 2, z=0.0)
        for book in (build_ff_codebook(desk),
                     build_nn_codebook(gb, gu, desk),
                     build_hybrid_codebook("FN", gu, desk)):
            np.testing.assert_allclose(np.abs(book.words), 1.0, atol=1e-12)


class TestOnGridAlignment:
    def test_best_codeword_reaches_coherent_gain(self):
        # plant a single far-field path whose optimal compensation lies
        # exactly on the beam grid: departure-side direction cosines zero,
        # arrival-side cosines equal to a (beta*delta, delta) grid pair
        g = geom(m_x=16, m_y=2, n_bs=8, n_ue=4)
        betas = angular_grid_values(16)
        beta_g, delta_g = betas[11], 0.5
        ux, uy = beta_g * delta_g, delta_g
        el_a = np.arccos(uy)
        az_a = np.arcsin(ux / np.sin(el_a))
        p_br = PathSpec(gain=1.0, azimuth_aoa=az_a, elevation_aoa=el_a,
                        azimuth_aod=0.3, elevation_aod=np.pi / 2)
        p_ru = PathSpec(gain=1.0, azimuth_aoa=0.2, elevation_aoa=np.pi / 2,
                        azimuth_aod=0.0, elevation_aod=np.pi / 2)
        real = ChannelRealization(
            g_bs_ris=far_channel(FarFieldSpec("BS_RIS", (p_br,)), g),
            g_ris_ue=far_channel(FarFieldSpec("RIS_UE", (p_ru,)), g),
            model_tag="FF")
        book = build_ff_codebook(g)
        a_arr = upa_response(az_a, el_a, 16, 2, g) * np.sqrt(g.m)
        a_dep = upa_response(0.0, np.pi / 2, 16, 2, g) * np.sqrt(g.m)
        gains = np.abs((book.words * a_arr[None, :] * a_dep.conj()[None, :]).sum(axis=1))
        assert gains.max() >= 0.99 * g.m
        best = book.provenance[int(np.argmax(gains))]
        assert (best.beta, best.delta) == (pytest.approx(beta_g),
                                           pytest.approx(delta_g))


class TestExport:
    def test_csv_layout(self, tmp_path, desk):
        book = build_ff_codebook(desk)
        out = tmp_path / "book.csv"
        book.to_csv(out)
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0][:2] == ["index", "provenance"]
        assert len(rows) == len(book) + 1
        assert len(rows[1]) == 2 + desk.m
        phases = np.array([float(v) for v in rows[1][2:]])
        assert np.all((phases >= 0) & (phases < 2 * np.pi))
        rebuilt = np.exp(-1j * phases)
        np.testing.assert_allclose(rebuilt, book.words[0], atol=1e-9)


def test_codeword_rejects_non_unit_entries():
    with pytest.raises(ValueError):
        Codeword(coeffs=np.array([1.0, 0.7]), provenance=None)


def test_codeword_rejects_nan_entries():
    with pytest.raises(ValueError, match="unit modulus"):
        Codeword(coeffs=np.array([1.0, np.nan]), provenance=None)


def test_codebook_rejects_nan_entries():
    with pytest.raises(ValueError, match="unit modulus"):
        Codebook(words=np.array([[1.0, complex(np.nan, 0.0)]]),
                 provenance=(None,))
