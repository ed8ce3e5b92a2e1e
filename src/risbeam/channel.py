"""Channel synthesis for the RIS-assisted downlink.

Two propagation models per link:

* far-field: multipath sum of planar-wave steering-vector outer products,
  normalized by sqrt(M * N / L);
* near-field: LoS-only spherical-wave matrix built from exact per-element
  distances, with free-space amplitude wavelength / (4*pi*d) per entry.

The cascaded user channel is G_ris_ue @ diag(phi) @ G_bs_ris where phi are
the unit-modulus RIS reflection coefficients exp(-1j * theta).

Model tags name which side uses which model: "FF", "NF" (BS-RIS near),
"FN" (RIS-user near), "NN".
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .geometry import (
    LINK_BS_RIS,
    LINK_RIS_UE,
    NODE_RIS,
    SystemGeometry,
    centered_offsets,
)

MODEL_TAGS = ("FF", "NF", "FN", "NN")
GAIN_MODES = ("friis", "matched", "unit")

# which links use the spherical-wave model, per tag
NEAR_LINKS = {
    "FF": (),
    "NF": (LINK_BS_RIS,),
    "FN": (LINK_RIS_UE,),
    "NN": (LINK_BS_RIS, LINK_RIS_UE),
}


@dataclass(frozen=True)
class PathSpec:
    """One propagation path of a far-field link.

    For the BS-RIS link the arrival angles are at the RIS (azimuth and
    elevation) and the departure azimuth is at the BS ULA.  For the
    RIS-user link the arrival azimuth is at the user ULA and the departure
    angles are at the RIS.  Unused elevation slots are ignored.
    """

    gain: complex
    azimuth_aoa: float
    elevation_aoa: float
    azimuth_aod: float
    elevation_aod: float

    def __post_init__(self):
        if not np.isfinite(self.gain):
            raise ValueError("path gain must be finite")
        for name in ("azimuth_aoa", "azimuth_aod"):
            if not -np.pi <= getattr(self, name) <= np.pi:
                raise ValueError(f"{name} out of [-pi, pi]")
        for name in ("elevation_aoa", "elevation_aod"):
            if not 0.0 <= getattr(self, name) <= np.pi:
                raise ValueError(f"{name} out of [0, pi]")


@dataclass(frozen=True)
class FarFieldSpec:
    """Ordered path list for one link; index 0 is the LoS path."""

    link: str
    paths: tuple[PathSpec, ...]

    def __post_init__(self):
        if self.link not in (LINK_BS_RIS, LINK_RIS_UE):
            raise ValueError(f"unknown link {self.link!r}")
        if len(self.paths) < 1:
            raise ValueError("at least one path required")
        object.__setattr__(self, "paths", tuple(self.paths))


@dataclass(frozen=True)
class ChannelRealization:
    """One draw of both link matrices plus the model tag.

    g_bs_ris has shape (M, n_bs); g_ris_ue has shape (n_ue, M).  Both are
    held C-ordered, so results do not depend on the memory order given.
    """

    g_bs_ris: np.ndarray
    g_ris_ue: np.ndarray
    model_tag: str

    def __post_init__(self):
        g1 = np.ascontiguousarray(self.g_bs_ris, dtype=complex)
        g2 = np.ascontiguousarray(self.g_ris_ue, dtype=complex)
        if g1.ndim != 2 or g2.ndim != 2 or g1.shape[0] != g2.shape[1]:
            raise ValueError("link matrices must share the RIS dimension M")
        if not (np.all(np.isfinite(g1)) and np.all(np.isfinite(g2))):
            raise ValueError("non-finite channel entries")
        if self.model_tag not in MODEL_TAGS:
            raise ValueError(f"unknown model tag {self.model_tag!r}")
        object.__setattr__(self, "g_bs_ris", g1)
        object.__setattr__(self, "g_ris_ue", g2)

    @property
    def m(self) -> int:
        return self.g_bs_ris.shape[0]


def ula_response(angle: float, n_elems: int, geometry: SystemGeometry) -> np.ndarray:
    """Planar-wave ULA response, entry n = exp(-1j*n*k*d*sin(angle))/sqrt(N)."""
    if n_elems < 1:
        raise ValueError("n_elems must be >= 1")
    step = 2.0 * np.pi * geometry.spacing_m / geometry.wavelength_m
    n = np.arange(n_elems)
    return np.exp(-1j * n * step * np.sin(angle)) / np.sqrt(n_elems)


def upa_response(azimuth: float, elevation: float, m_x: int, m_y: int,
                 geometry: SystemGeometry) -> np.ndarray:
    """Planar-wave UPA response as the Kronecker product of an x factor
    (phase per index: sin(az)*sin(el)) and a y factor (phase: cos(el)),
    scaled by 1/sqrt(m_x*m_y).  Ordering matches the RIS enumeration."""
    if m_x < 1 or m_y < 1:
        raise ValueError("m_x and m_y must be >= 1")
    step = 2.0 * np.pi * geometry.spacing_m / geometry.wavelength_m
    ux = np.sin(azimuth) * np.sin(elevation)
    uy = np.cos(elevation)
    ax = np.exp(-1j * np.arange(m_x) * step * ux)
    ay = np.exp(-1j * np.arange(m_y) * step * uy)
    return np.outer(ax, ay).ravel() / np.sqrt(m_x * m_y)


def _response(node: str, azimuth: float, elevation: float,
              geometry: SystemGeometry) -> np.ndarray:
    """Planar-wave response at a node: the UPA at the RIS, the ULA elsewhere
    (which ignores the elevation)."""
    if node == NODE_RIS:
        return upa_response(azimuth, elevation, geometry.m_x, geometry.m_y,
                            geometry)
    return ula_response(azimuth, geometry.n_elements(node), geometry)


def far_channel(spec: FarFieldSpec, geometry: SystemGeometry) -> np.ndarray:
    """Multipath planar-wave link matrix.

    sqrt(N_rx*N_tx/L) * sum_l gain_l * a_rx(aoa) a_tx(aod)^H with shape
    (N_rx, N_tx): (M, n_bs) for BS-RIS, (n_ue, M) for RIS-user.
    """
    tx, rx = geometry.link_endpoints(spec.link)
    n_rx, n_tx = geometry.n_elements(rx), geometry.n_elements(tx)
    out = np.zeros((n_rx, n_tx), dtype=complex)
    for p in spec.paths:
        a_rx = _response(rx, p.azimuth_aoa, p.elevation_aoa, geometry)
        a_tx = _response(tx, p.azimuth_aod, p.elevation_aod, geometry)
        out += p.gain * np.outer(a_rx, a_tx.conj())
    return np.sqrt(n_rx * n_tx / len(spec.paths)) * out


def exact_distances(link: str, geometry: SystemGeometry) -> np.ndarray:
    """All element-pair distances of a link, shape (N_rx, N_tx).

    BS-RIS returns shape (M, n_bs); RIS-user returns (n_ue, M), matching
    the near-field matrix layouts.
    """
    tx, rx = geometry.link_endpoints(link)
    rx_pos = geometry.element_positions(rx)
    tx_pos = geometry.element_positions(tx)
    return np.linalg.norm(rx_pos[:, None, :] - tx_pos[None, :, :], axis=-1)


def taylor_distances(link: str, geometry: SystemGeometry) -> np.ndarray:
    """Second-order expansion of the element-pair distances.

    d ~= r - t*u + t^2 (1 - u^2) / (2r), where r is the distance from the
    ULA midpoint to the RIS element, t the signed ULA element offset and
    u the x direction cosine of the RIS element seen from the midpoint.
    Validation aid only; the channel itself uses exact_distances.
    """
    tx, rx = geometry.link_endpoints(link)
    ula = tx if rx == NODE_RIS else rx
    rel = geometry.element_positions(NODE_RIS) - geometry.midpoint(ula)[None, :]
    r = np.linalg.norm(rel, axis=1)
    u = rel[:, 0] / r
    t = centered_offsets(geometry.n_elements(ula), geometry.spacing_m)
    approx = (r[:, None] - np.outer(u, t)
              + np.outer(1.0 - u * u, t * t) / (2.0 * r[:, None]))
    return approx if rx == NODE_RIS else approx.T


def near_channel(link: str, geometry: SystemGeometry) -> np.ndarray:
    """LoS spherical-wave link matrix from exact element distances.

    Entry = wavelength/(4*pi*d) * exp(-1j * 2*pi/wavelength * d).
    """
    d = exact_distances(link, geometry)
    if np.any(d <= 0.0):
        raise ValueError("coincident transmit/receive elements")
    lam = geometry.wavelength_m
    return lam / (4.0 * np.pi * d) * np.exp(-2j * np.pi * d / lam)


def cascade(realization: ChannelRealization, phi) -> np.ndarray:
    """Cascaded channel G_ris_ue @ diag(phi) @ G_bs_ris, shape (n_ue, n_bs),
    for the length-M complex coefficient vector phi."""
    coeffs = np.asarray(phi, dtype=complex).ravel()
    if coeffs.shape[0] != realization.m:
        raise ValueError(
            f"phase vector length {coeffs.shape[0]} != M={realization.m}")
    return (realization.g_ris_ue * coeffs[None, :]) @ realization.g_bs_ris


def _link_direction_cosines(link: str, geometry: SystemGeometry):
    """(ux, uy) direction cosines of the propagation direction of the link."""
    a, b = geometry.link_endpoints(link)
    v = geometry.midpoint(b) - geometry.midpoint(a)
    v = v / np.linalg.norm(v)
    return float(v[0]), float(v[1])


def _angles_from_cosines(ux: float, uy: float) -> tuple[float, float]:
    """Invert (sin(az)*sin(el), cos(el)) = (ux, uy) into (az, el)."""
    uy = float(min(max(uy, -1.0), 1.0))
    el = float(np.arccos(uy))
    s = np.sin(el)
    az = 0.0 if s < 1e-15 else float(np.arcsin(min(max(ux / s, -1.0), 1.0)))
    return az, el


def _path(link: str, gain: complex, az_ris: float, el_ris: float,
          az_ula: float) -> PathSpec:
    """PathSpec with the RIS angles at the RIS end of the link and the ULA
    azimuth (broadside elevation) at the other end."""
    ris, ula = (az_ris, el_ris), (az_ula, np.pi / 2)
    aoa, aod = (ris, ula) if link == LINK_BS_RIS else (ula, ris)
    return PathSpec(gain=gain, azimuth_aoa=aoa[0], elevation_aoa=aoa[1],
                    azimuth_aod=aod[0], elevation_aod=aod[1])


def los_path(link: str, geometry: SystemGeometry, gain: complex) -> PathSpec:
    """LoS PathSpec with the geometric angles of the link."""
    ux, uy = _link_direction_cosines(link, geometry)
    return _path(link, gain, *_angles_from_cosines(ux, uy),
                 float(np.arcsin(min(max(ux, -1.0), 1.0))))


def random_far_spec(link: str, geometry: SystemGeometry, rng: np.random.Generator,
                    n_paths: int, nlos_rel_power: float,
                    gain_mode: str) -> FarFieldSpec:
    """LoS path at the geometric angles plus n_paths-1 random NLoS paths.

    gain_mode picks the large-scale amplitude of the LoS gain:

    * "friis": wavelength/(4*pi*link_distance), the free-space
      amplitude, applied under the sqrt(M*N/L) multipath normalization.
    * "matched": friis * sqrt(n_paths), cancelling the sqrt(1/L) split so
      the LoS term carries exactly the power of the spherical-wave model
      of the same link; an alternative normalization for cross-model
      rate comparisons.
    * "unit": 1, the bare textbook form.

    NLoS gains are complex Gaussian with variance
    nlos_rel_power * |LoS gain|^2; NLoS angles are drawn uniformly over
    the valid direction-cosine ranges.
    """
    friis = geometry.wavelength_m / (4.0 * np.pi * geometry.link_distance(link))
    if gain_mode not in GAIN_MODES:
        raise ValueError(f"unknown gain_mode {gain_mode!r}")
    amp = {"friis": friis, "matched": friis * np.sqrt(n_paths),
           "unit": 1.0}[gain_mode]
    los_gain = amp * np.exp(2j * np.pi * rng.random())
    paths = [los_path(link, geometry, los_gain)]
    sigma = np.sqrt(nlos_rel_power / 2.0) * amp
    for _ in range(n_paths - 1):
        g = sigma * (rng.standard_normal() + 1j * rng.standard_normal())
        # RIS-side direction drawn uniformly on the unit disc of (ux, uy)
        while True:
            ux, uy = rng.uniform(-1.0, 1.0, size=2)
            if ux * ux + uy * uy <= 1.0:
                break
        az_ris, el_ris = _angles_from_cosines(ux, uy)
        paths.append(_path(link, g, az_ris, el_ris,
                           float(np.arcsin(rng.uniform(-1.0, 1.0)))))
    return FarFieldSpec(link=link, paths=tuple(paths))


def synthesize_channel(tag: str, geometry: SystemGeometry,
                       rng: np.random.Generator, n_paths_bs: int,
                       n_paths_ue: int, nlos_rel_power: float,
                       gain_mode: str) -> ChannelRealization:
    """Draw one ChannelRealization for the given model tag; callers pass
    the config's paths_bs, paths_ue, nlos_rel_power and gain_mode."""
    if tag not in MODEL_TAGS:
        raise ValueError(f"unknown model tag {tag!r}")
    g_br, g_ru = [
        near_channel(link, geometry) if link in NEAR_LINKS[tag]
        else far_channel(random_far_spec(link, geometry, rng, n_paths,
                                         nlos_rel_power, gain_mode), geometry)
        for link, n_paths in ((LINK_BS_RIS, n_paths_bs),
                              (LINK_RIS_UE, n_paths_ue))]
    return ChannelRealization(g_bs_ris=g_br, g_ris_ue=g_ru, model_tag=tag)


# ---------------------------------------------------------------------------
# serialization: shape header plus row-major [re, im] pairs


def _matrix_to_json(g: np.ndarray) -> dict:
    flat = g.ravel()
    return {"shape": list(g.shape),
            "data": [[float(z.real), float(z.imag)] for z in flat]}


def _matrix_from_json(obj: dict) -> np.ndarray:
    data = np.asarray(obj["data"], dtype=float)
    return (data[:, 0] + 1j * data[:, 1]).reshape(obj["shape"])


def dump_channel_json(realization: ChannelRealization, path) -> None:
    doc = {
        "format": "risbeam-channel-v1",
        "model": realization.model_tag,
        "m": int(realization.m),
        "n_bs": int(realization.g_bs_ris.shape[1]),
        "n_ue": int(realization.g_ris_ue.shape[0]),
        "g_bs_ris": _matrix_to_json(realization.g_bs_ris),
        "g_ris_ue": _matrix_to_json(realization.g_ris_ue),
    }
    with open(path, "w") as fh:
        json.dump(doc, fh)


def load_channel_json(path) -> ChannelRealization:
    with open(path) as fh:
        doc = json.load(fh)
    if doc.get("format") != "risbeam-channel-v1":
        raise ValueError(f"unrecognized channel dump format in {path}")
    return ChannelRealization(g_bs_ris=_matrix_from_json(doc["g_bs_ris"]),
                              g_ris_ue=_matrix_from_json(doc["g_ris_ue"]),
                              model_tag=doc["model"])
