from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from risbeam.geometry import (
    FAR_FIELD,
    LINK_BS_RIS,
    LINK_RIS_UE,
    NEAR_FIELD,
    NODE_BS,
    NODE_RIS,
    NODE_UE,
    SPEED_OF_LIGHT,
    SystemGeometry,
)


def make(carrier=30e9, d=None, n_bs=4, n_ue=2, m_x=4, m_y=2,
         bs=(0, 0, 0), ue=(24, 0, 0), ris=(10, 0, 8)):
    lam = SPEED_OF_LIGHT / carrier
    return SystemGeometry(carrier_hz=carrier, spacing_m=d if d else lam / 2,
                          n_bs=n_bs, n_ue=n_ue, m_x=m_x, m_y=m_y,
                          bs_mid=np.array(bs, float), ue_mid=np.array(ue, float),
                          ris_mid=np.array(ris, float))


def test_wavelength_derived_from_carrier():
    g = make(carrier=30e9)
    assert g.wavelength_m == pytest.approx(SPEED_OF_LIGHT / 30e9, rel=1e-15)


def test_inconsistent_wavelength_rejected():
    with pytest.raises(ValueError, match="wavelength"):
        SystemGeometry(carrier_hz=30e9, spacing_m=0.005, n_bs=1, n_ue=1,
                       m_x=1, m_y=1, wavelength_m=0.011)


@pytest.mark.parametrize("field,value", [("n_bs", 0), ("m_x", 0),
                                         ("spacing_m", -1.0), ("carrier_hz", 0)])
def test_invalid_parameters_rejected(field, value):
    kwargs = dict(carrier_hz=30e9, spacing_m=0.005, n_bs=2, n_ue=2, m_x=2, m_y=2)
    kwargs[field] = value
    with pytest.raises(ValueError):
        SystemGeometry(**kwargs)


def test_single_bs_element_sits_at_midpoint():
    g = make(n_bs=1, bs=(1.5, -2.0, 0.5))
    pos = g.element_positions(NODE_BS)
    assert pos.shape == (1, 3)
    np.testing.assert_allclose(pos[0], [1.5, -2.0, 0.5], rtol=0, atol=0)


def test_two_bs_elements_symmetric_about_midpoint():
    g = make(n_bs=2, d=0.005, bs=(0, 0, 0))
    pos = g.element_positions(NODE_BS)
    np.testing.assert_allclose(pos, [[-0.0025, 0, 0], [0.0025, 0, 0]], atol=1e-18)


def test_ris_2x2_grid_positions_and_ordering():
    g = make(m_x=2, m_y=2, d=0.005, ris=(10, 0, 8))
    pos = g.element_positions(NODE_RIS)
    # row-major with the y index fastest: (-,-), (-,+), (+,-), (+,+)
    expected = np.array([[10 - 0.0025, -0.0025, 8.0],
                         [10 - 0.0025, +0.0025, 8.0],
                         [10 + 0.0025, -0.0025, 8.0],
                         [10 + 0.0025, +0.0025, 8.0]])
    np.testing.assert_allclose(pos, expected, atol=1e-15)


def test_ris_positions_computed_once_and_read_only():
    g = make(m_x=3, m_y=2)
    pos = g.element_positions(NODE_RIS)
    assert g.element_positions(NODE_RIS) is pos
    with pytest.raises(ValueError):
        pos[0, 0] = 0.0
    # a copy with a new midpoint gets its own layout
    moved = replace(g, ris_mid=g.ris_mid + [1.0, 0.0, 0.0])
    np.testing.assert_allclose(moved.element_positions(NODE_RIS),
                               pos + [1.0, 0.0, 0.0], rtol=0, atol=1e-12)


@settings(max_examples=30, deadline=None)
@given(n_bs=st.integers(1, 9), n_ue=st.integers(1, 7),
       m_x=st.integers(1, 8), m_y=st.integers(1, 5))
def test_element_midpoints_match_stored_midpoints(n_bs, n_ue, m_x, m_y):
    g = make(n_bs=n_bs, n_ue=n_ue, m_x=m_x, m_y=m_y,
             bs=(0.3, -0.2, 1.0), ue=(5.0, 2.0, 0.7), ris=(2.0, 0.1, 3.0))
    for node, mid in ((NODE_BS, g.bs_mid), (NODE_UE, g.ue_mid),
                      (NODE_RIS, g.ris_mid)):
        center = g.element_positions(node).mean(axis=0)
        np.testing.assert_allclose(center, mid, rtol=1e-12, atol=1e-12)


def test_pairwise_spacing_along_axes_equals_d():
    g = make(n_bs=6, m_x=5, m_y=3)
    bs = g.element_positions(NODE_BS)
    np.testing.assert_allclose(np.diff(bs[:, 0]), g.spacing_m, rtol=1e-12)
    ris = g.element_positions(NODE_RIS)
    # y-fastest: consecutive elements within a row step in y
    row = ris[:g.m_y]
    np.testing.assert_allclose(np.diff(row[:, 1]), g.spacing_m, rtol=1e-12)
    # x steps between rows
    np.testing.assert_allclose(ris[g.m_y, 0] - ris[0, 0], g.spacing_m, rtol=1e-12)


def test_rayleigh_zero_for_point_arrays():
    g = make(n_bs=1, n_ue=1, m_x=1, m_y=1)
    assert g.rayleigh_boundary(LINK_BS_RIS) == 0.0
    assert g.rayleigh_boundary(LINK_RIS_UE) == 0.0


def test_rayleigh_table2_closed_form(table2):
    # independent arithmetic: [(N_B-1) + sqrt((M_x-1)^2+(M_y-1)^2)]^2 * lam / 2
    lam = SPEED_OF_LIGHT / 30e9
    expected = ((15 + np.sqrt(59.0 ** 2 + 1.0 ** 2)) ** 2) * lam / 2.0
    assert table2.rayleigh_boundary(LINK_BS_RIS) == pytest.approx(expected, rel=1e-12)
    expected_ue = ((7 + np.sqrt(59.0 ** 2 + 1.0 ** 2)) ** 2) * lam / 2.0
    assert table2.rayleigh_boundary(LINK_RIS_UE) == pytest.approx(expected_ue, rel=1e-12)


def test_rayleigh_halves_when_wavelength_doubles():
    # fixed apertures in meters, carrier halved -> wavelength doubled
    g1 = make(carrier=30e9, d=0.005, n_bs=8, m_x=6, m_y=2)
    g2 = make(carrier=15e9, d=0.005, n_bs=8, m_x=6, m_y=2)
    assert g2.rayleigh_boundary(LINK_BS_RIS) == pytest.approx(
        g1.rayleigh_boundary(LINK_BS_RIS) / 2.0, rel=1e-12)


@settings(max_examples=30, deadline=None)
@given(n_bs=st.integers(1, 10), m_x=st.integers(1, 10), m_y=st.integers(1, 6),
       bump=st.sampled_from(["n_bs", "m_x", "m_y"]))
def test_rayleigh_monotone_in_array_sizes(n_bs, m_x, m_y, bump):
    g = make(n_bs=n_bs, m_x=m_x, m_y=m_y)
    grown = make(n_bs=n_bs + (bump == "n_bs"), m_x=m_x + (bump == "m_x"),
                 m_y=m_y + (bump == "m_y"))
    assert grown.rayleigh_boundary(LINK_BS_RIS) >= g.rayleigh_boundary(LINK_BS_RIS)


def test_classification_against_boundary():
    g = make(n_bs=8, m_x=8, m_y=2)
    b = g.rayleigh_boundary(LINK_BS_RIS)
    near = make(n_bs=8, m_x=8, m_y=2, ris=(0.999 * b, 0, 0))
    far = make(n_bs=8, m_x=8, m_y=2, ris=(2.0 * b, 0, 0))
    assert near.classify_link(LINK_BS_RIS) == NEAR_FIELD
    assert far.classify_link(LINK_BS_RIS) == FAR_FIELD


def test_tie_classifies_near():
    # exact tie without float rounding: point arrays, coincident midpoints
    g = make(n_bs=1, n_ue=1, m_x=1, m_y=1, ris=(10, 0, 8), ue=(10, 0, 8))
    assert g.link_distance(LINK_RIS_UE) == 0.0
    assert g.rayleigh_boundary(LINK_RIS_UE) == 0.0
    assert g.classify_link(LINK_RIS_UE) == NEAR_FIELD


def test_table2_links_are_near_field(table2):
    assert table2.classify_link(LINK_BS_RIS) == NEAR_FIELD
    assert table2.classify_link(LINK_RIS_UE) == NEAR_FIELD
    # sanity: distances are sqrt(164) and sqrt(260)
    assert table2.link_distance(LINK_BS_RIS) == pytest.approx(np.sqrt(164.0))
    assert table2.link_distance(LINK_RIS_UE) == pytest.approx(np.sqrt(260.0))


@settings(max_examples=40, deadline=None)
@given(n_bs=st.integers(1, 12), m_x=st.integers(1, 12), m_y=st.integers(1, 4),
       dist_scale=st.floats(0.05, 4.0))
def test_classification_grid_matches_independent_rule(n_bs, m_x, m_y, dist_scale):
    g0 = make(n_bs=n_bs, m_x=m_x, m_y=m_y)
    # independent recomputation from element coordinates
    bs = g0.element_positions(NODE_BS)
    ris = g0.element_positions(NODE_RIS)
    d_b = np.linalg.norm(bs[-1] - bs[0])
    d_r = np.linalg.norm(ris[-1] - ris[0])
    boundary = 2.0 * (d_b + d_r) ** 2 / g0.wavelength_m
    dist = dist_scale * max(boundary, 1.0)
    g = make(n_bs=n_bs, m_x=m_x, m_y=m_y, ris=(dist, 0, 0))
    expected = NEAR_FIELD if dist <= boundary else FAR_FIELD
    assert g.classify_link(LINK_BS_RIS) == expected


def test_unknown_node_and_link_rejected():
    g = make()
    with pytest.raises(ValueError):
        g.element_positions("RELAY")
    with pytest.raises(ValueError):
        g.rayleigh_boundary("BS_UE")
