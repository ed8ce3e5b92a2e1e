"""Array geometry for the BS / RIS / user layout.

Everything is in SI units (meters, Hz, radians).  The BS and the user
carry uniform linear arrays parallel to the x-axis; the RIS is a uniform
planar array parallel to the XY-plane.  RIS elements are enumerated
row-major with the y index fastest (element m = ix * m_y + iy), which is
the ordering assumed by the steering vectors and every codebook builder.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

SPEED_OF_LIGHT = 299792458.0

NODE_BS = "BS"
NODE_UE = "UE"
NODE_RIS = "RIS"

LINK_BS_RIS = "BS_RIS"
LINK_RIS_UE = "RIS_UE"

FAR_FIELD = "FarField"
NEAR_FIELD = "NearField"


def centered_offsets(n: int, spacing: float) -> np.ndarray:
    """Offsets k*spacing with k = i - (n-1)/2 for i = 0..n-1 (midpoint at 0)."""
    return (np.arange(n) - (n - 1) / 2.0) * spacing


def check_layout(carrier_hz, n_bs, n_ue, m_x, m_y, bs_mid, ue_mid, ris_mid,
                 spacing_wavelengths) -> None:
    """Raise ValueError if a link of this layout cannot carry a channel.

    Takes the arguments of `SystemGeometry.build` and places the elements
    as `SystemGeometry.element_positions` does, but reads only each
    array's coordinates along its own axes: it costs O(n_bs + n_ue + m_x +
    m_y), so `harness.parse_config` can run it on every layout of a config
    before any geometry is built.  A link whose two midpoints coincide has
    zero length: no direction and no free-space gain, so its far-field
    model fails.  A BS or user element on a RIS element leaves the
    near-field entry of that pair undefined.
    """
    spacing = spacing_wavelengths * (SPEED_OF_LIGHT / carrier_hz)
    ris = np.asarray(ris_mid, dtype=float)
    # coordinates that overflow to inf or nan match nothing, so need no warning
    with np.errstate(over="ignore", invalid="ignore"):
        ris_x = ris[0] + centered_offsets(m_x, spacing)
        ris_y = ris[1] + centered_offsets(m_y, spacing)
        for link, node, n, mid in ((LINK_BS_RIS, NODE_BS, n_bs, bs_mid),
                                   (LINK_RIS_UE, NODE_UE, n_ue, ue_mid)):
            mid = np.asarray(mid, dtype=float)
            if np.linalg.norm(mid - ris) == 0.0:
                raise ValueError(f"zero-length {link} link: the {node} and RIS "
                                 f"midpoints coincide at {mid.tolist()}")
            ula_x = mid[0] + centered_offsets(n, spacing)
            if mid[2] == ris[2] and np.any(ris_y == mid[1]) \
                    and np.intersect1d(ula_x, ris_x).size:
                raise ValueError(f"coincident {node} and RIS elements")


@dataclass(frozen=True)
class SystemGeometry:
    """Immutable spatial layout of one BS / RIS / user deployment.

    Attributes:
        carrier_hz: carrier frequency in Hz.
        wavelength_m: carrier wavelength c/carrier_hz, derived, not passed.
        spacing_m: element spacing, identical for all three arrays.
        n_bs, n_ue: BS / user ULA sizes.
        m_x, m_y: RIS grid sizes along x and y (M = m_x * m_y elements).
        bs_mid, ue_mid, ris_mid: array midpoints in meters.
    """

    carrier_hz: float
    spacing_m: float
    n_bs: int
    n_ue: int
    m_x: int
    m_y: int
    bs_mid: np.ndarray = field(default_factory=lambda: np.zeros(3))
    ue_mid: np.ndarray = field(default_factory=lambda: np.zeros(3))
    ris_mid: np.ndarray = field(default_factory=lambda: np.zeros(3))
    wavelength_m: float = field(init=False)
    _ris_positions: np.ndarray = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        if self.carrier_hz <= 0:
            raise ValueError("carrier_hz must be positive")
        if self.spacing_m <= 0:
            raise ValueError("spacing_m must be positive")
        for name in ("n_bs", "n_ue", "m_x", "m_y"):
            if int(getattr(self, name)) < 1:
                raise ValueError(f"{name} must be a positive integer")
        object.__setattr__(self, "wavelength_m",
                           SPEED_OF_LIGHT / self.carrier_hz)
        for name in ("bs_mid", "ue_mid", "ris_mid"):
            vec = np.asarray(getattr(self, name), dtype=float)
            if vec.shape != (3,):
                raise ValueError(f"{name} must be a 3-vector")
            object.__setattr__(self, name, vec)
        ris = np.tile(self.ris_mid, (self.m, 1))
        ris[:, 0] += np.repeat(centered_offsets(self.m_x, self.spacing_m),
                               self.m_y)
        ris[:, 1] += np.tile(centered_offsets(self.m_y, self.spacing_m),
                             self.m_x)
        ris.flags.writeable = False
        object.__setattr__(self, "_ris_positions", ris)

    @classmethod
    def build(cls, carrier_hz, n_bs, n_ue, m_x, m_y, bs_mid, ue_mid, ris_mid,
              spacing_wavelengths) -> "SystemGeometry":
        """Construct with spacing given as a multiple of the wavelength."""
        lam = SPEED_OF_LIGHT / carrier_hz
        return cls(carrier_hz=carrier_hz, spacing_m=spacing_wavelengths * lam,
                   n_bs=n_bs, n_ue=n_ue, m_x=m_x, m_y=m_y,
                   bs_mid=np.asarray(bs_mid, dtype=float),
                   ue_mid=np.asarray(ue_mid, dtype=float),
                   ris_mid=np.asarray(ris_mid, dtype=float))

    @property
    def m(self) -> int:
        return self.m_x * self.m_y

    def midpoint(self, node: str) -> np.ndarray:
        return {NODE_BS: self.bs_mid, NODE_UE: self.ue_mid,
                NODE_RIS: self.ris_mid}[node]

    def n_elements(self, node: str) -> int:
        """Element count of the node's array (M for the RIS)."""
        counts = {NODE_BS: self.n_bs, NODE_UE: self.n_ue, NODE_RIS: self.m}
        if node not in counts:
            raise ValueError(f"unknown node {node!r}")
        return counts[node]

    def element_positions(self, node: str) -> np.ndarray:
        """Element coordinates as an (N, 3) array.

        BS and user elements run along the x-axis through the array
        midpoint.  RIS elements sit in the plane z = ris_mid[2], ordered
        row-major with the y index fastest, in a read-only array built once.
        """
        if node == NODE_RIS:
            return self._ris_positions
        n = self.n_elements(node)
        out = np.tile(self.midpoint(node), (n, 1))
        out[:, 0] += centered_offsets(n, self.spacing_m)
        return out

    def aperture(self, node: str) -> float:
        """Physical aperture: (N-1)d for the ULAs, planar diagonal for the RIS."""
        d = self.spacing_m
        if node == NODE_RIS:
            return float(np.hypot((self.m_x - 1) * d, (self.m_y - 1) * d))
        return (self.n_elements(node) - 1) * d

    def link_endpoints(self, link: str) -> tuple[str, str]:
        if link == LINK_BS_RIS:
            return NODE_BS, NODE_RIS
        if link == LINK_RIS_UE:
            return NODE_RIS, NODE_UE
        raise ValueError(f"unknown link {link!r}")

    def link_distance(self, link: str) -> float:
        """Distance between the two array midpoints of the link."""
        a, b = self.link_endpoints(link)
        return float(np.linalg.norm(self.midpoint(a) - self.midpoint(b)))

    def rayleigh_boundary(self, link: str) -> float:
        """Rayleigh distance 2*(D_a + D_b)^2 / wavelength for the link."""
        a, b = self.link_endpoints(link)
        s = self.aperture(a) + self.aperture(b)
        return 2.0 * s * s / self.wavelength_m

    def classify_link(self, link: str) -> str:
        """Near field iff midpoint distance <= Rayleigh boundary (ties near)."""
        if self.link_distance(link) <= self.rayleigh_boundary(link):
            return NEAR_FIELD
        return FAR_FIELD
