import pytest

from risbeam.geometry import SystemGeometry


@pytest.fixture(scope="session")
def table2():
    """Full-scale reference layout: 16/8 ULAs, 60x2 RIS, 30 GHz."""
    return SystemGeometry.build(30e9, n_bs=16, n_ue=8, m_x=60, m_y=2,
                                bs_mid=(0, 0, 0), ue_mid=(24, 0, 0),
                                ris_mid=(10, 0, 8))


@pytest.fixture(scope="session")
def desk():
    """CI-sized layout: the reference shrunk 1/100 with 8/4 ULAs, 16x2 RIS."""
    return SystemGeometry.build(30e9, n_bs=8, n_ue=4, m_x=16, m_y=2,
                                bs_mid=(0, 0, 0), ue_mid=(0.24, 0, 0),
                                ris_mid=(0.1, 0, 0.08))
