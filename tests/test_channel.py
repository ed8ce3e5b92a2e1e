import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from risbeam import channel
from risbeam.channel import (
    ChannelRealization,
    FarFieldSpec,
    PathSpec,
    cascade,
    dump_channel_json,
    exact_distances,
    far_channel,
    load_channel_json,
    near_channel,
    synthesize_channel,
    taylor_distances,
    ula_response,
    upa_response,
)
from risbeam.geometry import LINK_BS_RIS, LINK_RIS_UE, SystemGeometry

from conftest import config_args, desk_geometry, nn_realization, rand_matrix


def geom(**kw):
    args = dict(carrier_hz=30e9, n_bs=8, n_ue=4, m_x=4, m_y=2,
                bs_mid=(0, 0, 0), ue_mid=(24, 0, 0), ris_mid=(10, 0, 8),
                **config_args(SystemGeometry.build))
    args.update(kw)
    return SystemGeometry.build(**args)


def path(gain=1.0, aoa=(0.1, 1.2), aod=(0.3, 1.0)):
    return PathSpec(gain=gain, azimuth_aoa=aoa[0], elevation_aoa=aoa[1],
                    azimuth_aod=aod[0], elevation_aod=aod[1])


class TestSteeringVectors:
    def test_ula_single_element(self):
        g = geom()
        np.testing.assert_allclose(ula_response(0.7, 1, g), [1.0])

    def test_ula_boresight_is_uniform(self):
        g = geom()
        np.testing.assert_allclose(ula_response(0.0, 4, g), 0.5 * np.ones(4))

    def test_ula_endfire_alternates_sign(self):
        g = geom()  # half-wavelength spacing
        got = ula_response(np.pi / 2, 4, g)
        np.testing.assert_allclose(got, 0.5 * np.array([1, -1, 1, -1]),
                                   atol=1e-12)

    def test_ula_unit_norm(self):
        g = geom()
        assert np.linalg.norm(ula_response(0.43, 9, g)) == pytest.approx(1.0)

    def test_upa_single_element(self):
        g = geom()
        np.testing.assert_allclose(upa_response(0.3, 0.8, 1, 1, g), [1.0])

    def test_upa_null_direction_cosines(self):
        # sin(az)*sin(el) = 0 and cos(el) = 0 -> flat phase
        g = geom()
        got = upa_response(0.0, np.pi / 2, 3, 2, g)
        np.testing.assert_allclose(got, np.ones(6) / np.sqrt(6), atol=1e-12)

    def test_upa_2x2_endfire(self):
        g = geom()
        got = upa_response(np.pi / 2, np.pi / 2, 2, 2, g)
        np.testing.assert_allclose(got, 0.5 * np.array([1, 1, -1, -1]),
                                   atol=1e-12)

    def test_upa_kronecker_ordering_matches_ris_enumeration(self):
        g = geom(m_x=3, m_y=2)
        az, el = 0.4, 1.1
        got = upa_response(az, el, 3, 2, g)
        step = 2 * np.pi * g.spacing_m / g.wavelength_m
        ux, uy = np.sin(az) * np.sin(el), np.cos(el)
        manual = np.array([np.exp(-1j * step * (ix * ux + iy * uy))
                           for ix in range(3) for iy in range(2)]) / np.sqrt(6)
        np.testing.assert_allclose(got, manual, atol=1e-12)


class TestFarChannel:
    def test_single_path_is_rank_one(self):
        g = geom(m_x=4, m_y=4)
        spec = FarFieldSpec(link=LINK_BS_RIS, paths=(path(),))
        s = np.linalg.svd(far_channel(spec, g), compute_uv=False)
        assert s[1] / s[0] < 1e-10

    def test_three_paths_have_rank_three(self):
        g = geom(m_x=8, m_y=2)  # M=16, n_bs=8
        paths = (path(1.0, (0.1, 1.2), (0.3, 1.0)),
                 path(0.5, (-0.7, 0.9), (0.9, 1.3)),
                 path(0.25j, (1.1, 1.8), (-1.2, 0.6)))
        s = np.linalg.svd(far_channel(FarFieldSpec(LINK_BS_RIS, paths), g),
                          compute_uv=False)
        assert s[2] / s[0] > 1e-10
        assert s[3] / s[0] < 1e-10

    def test_single_path_frobenius_normalization(self):
        g = geom(m_x=4, m_y=4)
        spec = FarFieldSpec(link=LINK_BS_RIS, paths=(path(gain=1.0),))
        h = far_channel(spec, g)
        assert np.linalg.norm(h, "fro") ** 2 == pytest.approx(g.m * g.n_bs)

    def test_ris_ue_shape(self):
        g = geom(m_x=4, m_y=2)
        spec = FarFieldSpec(link=LINK_RIS_UE, paths=(path(),))
        assert far_channel(spec, g).shape == (g.n_ue, g.m)

    def test_nonfinite_gain_rejected(self):
        with pytest.raises(ValueError):
            path(gain=complex(np.nan, 0))


class TestNearChannel:
    def test_point_to_point_entry(self):
        g = geom(n_bs=1, n_ue=1, m_x=1, m_y=1, ris_mid=(3, 0, 4))
        got = near_channel(LINK_BS_RIS, g)
        lam = g.wavelength_m
        r = 5.0
        expected = lam / (4 * np.pi * r) * np.exp(-2j * np.pi * r / lam)
        assert got.shape == (1, 1)
        assert got[0, 0] == pytest.approx(expected, rel=1e-12)

    def test_magnitude_bounds_table2(self, table2):
        d = exact_distances(LINK_BS_RIS, table2)
        h = near_channel(LINK_BS_RIS, table2)
        lam = table2.wavelength_m
        lo = lam / (4 * np.pi * d.max())
        hi = lam / (4 * np.pi * d.min())
        mags = np.abs(h)
        assert mags.min() >= lo - 1e-18 and mags.max() <= hi + 1e-18

    def test_taylor_expansion_close_to_exact(self, table2):
        for link in (LINK_BS_RIS, LINK_RIS_UE):
            exact = exact_distances(link, table2)
            approx = taylor_distances(link, table2)
            assert np.max(np.abs(approx - exact) / exact) < 1e-4

    def test_coincident_elements_rejected(self):
        g = geom(n_ue=1, m_x=1, m_y=1, ue_mid=(10, 0, 8), ris_mid=(10, 0, 8))
        with pytest.raises(ValueError, match="coincident"):
            near_channel(LINK_RIS_UE, g)

    def test_shapes(self, desk):
        assert near_channel(LINK_BS_RIS, desk).shape == (desk.m, desk.n_bs)
        assert near_channel(LINK_RIS_UE, desk).shape == (desk.n_ue, desk.m)


class TestCascade:
    def test_zero_phases_give_plain_product(self, desk):
        real = nn_realization(desk)
        h = cascade(real, np.ones(desk.m, dtype=complex))
        np.testing.assert_allclose(h, real.g_ris_ue @ real.g_bs_ris, rtol=1e-12)

    def test_single_element_ris_is_scalar_weighting(self):
        g = geom(m_x=1, m_y=1)
        real = nn_realization(g)
        phi = np.exp(-1j * 0.7)
        h = cascade(real, np.array([phi]))
        expected = phi * np.outer(real.g_ris_ue[:, 0], real.g_bs_ris[0, :])
        np.testing.assert_allclose(h, expected, rtol=1e-12)

    def test_far_field_single_path_cascade_rank_one(self):
        g = geom(m_x=6, m_y=2)
        real = ChannelRealization(
            g_bs_ris=far_channel(FarFieldSpec(LINK_BS_RIS, (path(),)), g),
            g_ris_ue=far_channel(FarFieldSpec(LINK_RIS_UE, (path(),)), g),
            model_tag="FF")
        rng = np.random.default_rng(0)
        for _ in range(3):
            phi = np.exp(-1j * rng.uniform(0, 2 * np.pi, g.m))
            s = np.linalg.svd(cascade(real, phi), compute_uv=False)
            assert s[1] / s[0] < 1e-10

    @settings(max_examples=15, deadline=None)
    @given(l_b=st.integers(1, 3), l_u=st.integers(1, 3), seed=st.integers(0, 99))
    def test_far_field_cascade_rank_bounded_by_path_counts(self, l_b, l_u, seed):
        g = geom(m_x=8, m_y=2)
        rng = np.random.default_rng(seed)
        def rand_paths(n):
            return tuple(path(gain=complex(*rng.standard_normal(2)),
                              aoa=(rng.uniform(-1.2, 1.2), rng.uniform(0.3, 2.6)),
                              aod=(rng.uniform(-1.2, 1.2), rng.uniform(0.3, 2.6)))
                         for _ in range(n))
        real = ChannelRealization(
            g_bs_ris=far_channel(FarFieldSpec(LINK_BS_RIS, rand_paths(l_b)), g),
            g_ris_ue=far_channel(FarFieldSpec(LINK_RIS_UE, rand_paths(l_u)), g),
            model_tag="FF")
        phi = np.exp(-1j * rng.uniform(0, 2 * np.pi, g.m))
        s = np.linalg.svd(cascade(real, phi), compute_uv=False)
        r = min(l_b, l_u)
        if r < len(s):
            assert s[r] / s[0] < 1e-9

    def test_near_near_rank_matches_antenna_minimum(self):
        # 1/100-scale layout, 4/2 ULAs, 8x2 RIS: rank = min(4, 2, 16) = 2
        g = desk_geometry(n_bs=4, n_ue=2, m_x=8)
        real = nn_realization(g)
        s = np.linalg.svd(cascade(real, np.ones(g.m)), compute_uv=False)
        assert np.sum(s > 1e-8 * s[0]) == 2

    def test_cascade_linear_in_link_matrix(self, desk):
        real = nn_realization(desk)
        scaled = ChannelRealization(g_bs_ris=3.7 * real.g_bs_ris,
                                    g_ris_ue=real.g_ris_ue, model_tag="NN")
        phi = np.exp(-1j * np.linspace(0, 3, desk.m))
        np.testing.assert_allclose(cascade(scaled, phi),
                                   3.7 * cascade(real, phi), rtol=1e-13)

    def test_phase_vector_length_mismatch(self, desk):
        real = nn_realization(desk)
        with pytest.raises(ValueError, match="length"):
            cascade(real, np.ones(desk.m + 1))


class TestSynthesis:
    def test_los_gain_magnitudes_per_mode(self, desk):
        rng = np.random.default_rng(1)
        for mode, expected in (
                ("friis", desk.wavelength_m / (4 * np.pi * desk.link_distance(LINK_BS_RIS))),
                ("matched", np.sqrt(3.0) * desk.wavelength_m / (4 * np.pi * desk.link_distance(LINK_BS_RIS))),
                ("unit", 1.0)):
            spec = channel.random_far_spec(
                LINK_BS_RIS, desk, rng,
                **config_args(channel.random_far_spec, n_paths=3,
                              gain_mode=mode))
            assert abs(spec.paths[0].gain) == pytest.approx(expected, rel=1e-12)
            assert len(spec.paths) == 3

    def test_unknown_gain_mode_rejected(self, desk):
        with pytest.raises(ValueError):
            channel.random_far_spec(
                LINK_BS_RIS, desk, np.random.default_rng(0),
                **config_args(channel.random_far_spec, gain_mode="qux"))

    def test_tags_select_models(self, desk):
        rng = np.random.default_rng(2)
        nn = synthesize_channel("NN", desk, rng,
                                **config_args(synthesize_channel))
        np.testing.assert_array_equal(nn.g_bs_ris, near_channel(LINK_BS_RIS, desk))
        nf = synthesize_channel("NF", desk, np.random.default_rng(2),
                                **config_args(synthesize_channel))
        np.testing.assert_array_equal(nf.g_bs_ris, near_channel(LINK_BS_RIS, desk))
        assert not np.array_equal(nf.g_ris_ue, nn.g_ris_ue)

    def test_synthesis_deterministic_per_seed(self, desk):
        a = synthesize_channel("FF", desk, np.random.default_rng(7),
                               **config_args(synthesize_channel))
        b = synthesize_channel("FF", desk, np.random.default_rng(7),
                               **config_args(synthesize_channel))
        np.testing.assert_array_equal(a.g_bs_ris, b.g_bs_ris)
        np.testing.assert_array_equal(a.g_ris_ue, b.g_ris_ue)

    def test_los_angles_match_geometry(self, desk):
        p = channel.los_path(LINK_BS_RIS, desk, 1.0)
        v = (desk.ris_mid - desk.bs_mid)
        v = v / np.linalg.norm(v)
        assert np.sin(p.azimuth_aoa) * np.sin(p.elevation_aoa) == pytest.approx(v[0], abs=1e-12)
        assert np.cos(p.elevation_aoa) == pytest.approx(v[1], abs=1e-12)
        assert np.sin(p.azimuth_aod) == pytest.approx(v[0], abs=1e-12)


class TestSerialization:
    def test_roundtrip_preserves_matrices(self, desk, tmp_path):
        real = synthesize_channel("NF", desk, np.random.default_rng(3),
                                  **config_args(synthesize_channel))
        out = tmp_path / "chan.json"
        dump_channel_json(real, out)
        back = load_channel_json(out)
        np.testing.assert_array_equal(back.g_bs_ris, real.g_bs_ris)
        np.testing.assert_array_equal(back.g_ris_ue, real.g_ris_ue)
        assert back.model_tag == "NF"

    def test_dump_schema(self, desk, tmp_path):
        real = synthesize_channel("NN", desk, np.random.default_rng(4),
                                  **config_args(synthesize_channel))
        out = tmp_path / "chan.json"
        dump_channel_json(real, out)
        doc = json.loads(out.read_text())
        assert doc["format"] == "risbeam-channel-v1"
        assert doc["g_bs_ris"]["shape"] == [desk.m, desk.n_bs]
        assert len(doc["g_bs_ris"]["data"]) == desk.m * desk.n_bs
        assert len(doc["g_bs_ris"]["data"][0]) == 2

    def test_bad_format_rejected(self, tmp_path):
        out = tmp_path / "bad.json"
        out.write_text(json.dumps({"format": "other"}))
        with pytest.raises(ValueError, match="format"):
            load_channel_json(out)


@pytest.mark.parametrize("layout", ["transposed", "fortran"])
def test_realization_takes_any_memory_order(layout):
    rng = np.random.default_rng(6)

    def matrix(rows, cols):
        if layout == "transposed":
            return rand_matrix(rng, (cols, rows)).T
        return np.asfortranarray(rand_matrix(rng, (rows, cols)))

    g1, g2 = matrix(6, 4), matrix(3, 6)
    real = ChannelRealization(g_bs_ris=g1, g_ris_ue=g2, model_tag="NN")
    for held, given in ((real.g_bs_ris, g1), (real.g_ris_ue, g2)):
        assert np.array_equal(held, given) and held.flags.c_contiguous
    g2[0, 1] = np.inf
    with pytest.raises(ValueError, match="non-finite"):
        ChannelRealization(g_bs_ris=g1, g_ris_ue=g2, model_tag="NN")


def test_realization_validates_shapes():
    with pytest.raises(ValueError):
        ChannelRealization(g_bs_ris=np.ones((4, 2)), g_ris_ue=np.ones((2, 5)),
                           model_tag="NN")
    with pytest.raises(ValueError):
        ChannelRealization(g_bs_ris=np.ones((4, 2)), g_ris_ue=np.ones((2, 4)),
                           model_tag="XY")
