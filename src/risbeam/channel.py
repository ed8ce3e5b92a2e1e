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
from dataclasses import dataclass, field

import numpy as np

from .geometry import (
    LINK_BS_RIS,
    LINK_RIS_UE,
    NODE_BS,
    NODE_RIS,
    NODE_UE,
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
class PhaseShiftVector:
    """RIS phase shifts theta (radians); coefficients are exp(-1j*theta)."""

    phases: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "phases",
                           np.asarray(self.phases, dtype=float).ravel())

    @property
    def coefficients(self) -> np.ndarray:
        return np.exp(-1j * self.phases)

    @classmethod
    def from_coefficients(cls, coeffs) -> "PhaseShiftVector":
        coeffs = np.asarray(coeffs, dtype=complex).ravel()
        mag = np.abs(coeffs)
        if np.any(np.abs(mag - 1.0) > 1e-12):
            raise ValueError("coefficients must be unit modulus")
        return cls(phases=np.mod(-np.angle(coeffs), 2.0 * np.pi))


@dataclass(frozen=True)
class ChannelRealization:
    """One draw of both link matrices plus the model tag.

    g_bs_ris has shape (M, n_bs); g_ris_ue has shape (n_ue, M).
    """

    g_bs_ris: np.ndarray
    g_ris_ue: np.ndarray
    model_tag: str

    def __post_init__(self):
        g1 = np.asarray(self.g_bs_ris, dtype=complex)
        g2 = np.asarray(self.g_ris_ue, dtype=complex)
        if g1.ndim != 2 or g2.ndim != 2 or g1.shape[0] != g2.shape[1]:
            raise ValueError("link matrices must share the RIS dimension M")
        if not (np.all(np.isfinite(g1.view(float))) and
                np.all(np.isfinite(g2.view(float)))):
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
    return np.kron(ax, ay) / np.sqrt(m_x * m_y)


def far_channel(spec: FarFieldSpec, geometry: SystemGeometry) -> np.ndarray:
    """Multipath planar-wave link matrix.

    BS-RIS: sqrt(M*n_bs/L) * sum_l gain_l * a_ris(aoa) a_bs(aod)^H,
    shape (M, n_bs).  RIS-user: sqrt(M*n_ue/L) * sum_l gain_l *
    a_ue(aoa) a_ris(aod)^H, shape (n_ue, M).
    """
    m_x, m_y = geometry.m_x, geometry.m_y
    n_paths = len(spec.paths)
    if spec.link == LINK_BS_RIS:
        scale = np.sqrt(geometry.m * geometry.n_bs / n_paths)
        out = np.zeros((geometry.m, geometry.n_bs), dtype=complex)
        for p in spec.paths:
            a_ris = upa_response(p.azimuth_aoa, p.elevation_aoa, m_x, m_y, geometry)
            a_bs = ula_response(p.azimuth_aod, geometry.n_bs, geometry)
            out += p.gain * np.outer(a_ris, a_bs.conj())
    else:
        scale = np.sqrt(geometry.m * geometry.n_ue / n_paths)
        out = np.zeros((geometry.n_ue, geometry.m), dtype=complex)
        for p in spec.paths:
            a_ue = ula_response(p.azimuth_aoa, geometry.n_ue, geometry)
            a_ris = upa_response(p.azimuth_aod, p.elevation_aod, m_x, m_y, geometry)
            out += p.gain * np.outer(a_ue, a_ris.conj())
    return scale * out


def exact_distances(link: str, geometry: SystemGeometry) -> np.ndarray:
    """All element-pair distances of a link.

    BS-RIS returns shape (M, n_bs); RIS-user returns (n_ue, M), matching
    the near-field matrix layouts.
    """
    if link == LINK_BS_RIS:
        rx = geometry.element_positions(NODE_RIS)
        tx = geometry.element_positions(NODE_BS)
    elif link == LINK_RIS_UE:
        rx = geometry.element_positions(NODE_UE)
        tx = geometry.element_positions(NODE_RIS)
    else:
        raise ValueError(f"unknown link {link!r}")
    return np.linalg.norm(rx[:, None, :] - tx[None, :, :], axis=-1)


def taylor_distances(link: str, geometry: SystemGeometry) -> np.ndarray:
    """Second-order expansion of the element-pair distances.

    d ~= r - t*u + t^2 (1 - u^2) / (2r), where r is the distance from the
    ULA midpoint to the RIS element, t the signed ULA element offset and
    u the x direction cosine of the RIS element seen from the midpoint.
    Validation aid only; the channel itself uses exact_distances.
    """
    ris = geometry.element_positions(NODE_RIS)
    if link == LINK_BS_RIS:
        mid, n = geometry.bs_mid, geometry.n_bs
    elif link == LINK_RIS_UE:
        mid, n = geometry.ue_mid, geometry.n_ue
    else:
        raise ValueError(f"unknown link {link!r}")
    rel = ris - mid[None, :]
    r = np.linalg.norm(rel, axis=1)
    u = rel[:, 0] / r
    t = centered_offsets(n, geometry.spacing_m)
    approx = (r[:, None] - np.outer(u, t)
              + np.outer(1.0 - u * u, t * t) / (2.0 * r[:, None]))
    return approx if link == LINK_BS_RIS else approx.T


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
    """Cascaded channel G_ris_ue @ diag(phi) @ G_bs_ris, shape (n_ue, n_bs).

    phi may be a PhaseShiftVector or a length-M complex coefficient vector.
    """
    if isinstance(phi, PhaseShiftVector):
        coeffs = phi.coefficients
    else:
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
    uy = float(np.clip(uy, -1.0, 1.0))
    el = float(np.arccos(uy))
    s = np.sin(el)
    az = 0.0 if s < 1e-15 else float(np.arcsin(np.clip(ux / s, -1.0, 1.0)))
    return az, el


def los_path(link: str, geometry: SystemGeometry, gain: complex) -> PathSpec:
    """LoS PathSpec with the geometric angles of the link."""
    ux, uy = _link_direction_cosines(link, geometry)
    az_ris, el_ris = _angles_from_cosines(ux, uy)
    if link == LINK_BS_RIS:
        # departure at the BS ULA, arrival at the RIS
        az_ula = float(np.arcsin(np.clip(ux, -1.0, 1.0)))
        return PathSpec(gain=gain, azimuth_aoa=az_ris, elevation_aoa=el_ris,
                        azimuth_aod=az_ula, elevation_aod=np.pi / 2)
    # departure at the RIS, arrival at the user ULA
    az_ula = float(np.arcsin(np.clip(ux, -1.0, 1.0)))
    return PathSpec(gain=gain, azimuth_aoa=az_ula, elevation_aoa=np.pi / 2,
                    azimuth_aod=az_ris, elevation_aod=el_ris)


def random_far_spec(link: str, geometry: SystemGeometry, rng: np.random.Generator,
                    n_paths: int = 3, nlos_rel_power: float = 0.01,
                    gain_mode: str = "friis") -> FarFieldSpec:
    """LoS path at the geometric angles plus n_paths-1 random NLoS paths.

    gain_mode picks the large-scale amplitude of the LoS gain:

    * "friis" (default): wavelength/(4*pi*link_distance), the free-space
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
    if gain_mode == "matched":
        amp = friis * np.sqrt(n_paths)
    elif gain_mode == "friis":
        amp = friis
    elif gain_mode == "unit":
        amp = 1.0
    else:
        raise ValueError(f"unknown gain_mode {gain_mode!r}")
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
        az_ula = float(np.arcsin(rng.uniform(-1.0, 1.0)))
        if link == LINK_BS_RIS:
            paths.append(PathSpec(gain=g, azimuth_aoa=az_ris,
                                  elevation_aoa=el_ris, azimuth_aod=az_ula,
                                  elevation_aod=np.pi / 2))
        else:
            paths.append(PathSpec(gain=g, azimuth_aoa=az_ula,
                                  elevation_aoa=np.pi / 2, azimuth_aod=az_ris,
                                  elevation_aod=el_ris))
    return FarFieldSpec(link=link, paths=tuple(paths))


def synthesize_channel(tag: str, geometry: SystemGeometry,
                       rng: np.random.Generator, n_paths_bs: int = 3,
                       n_paths_ue: int = 3, nlos_rel_power: float = 0.01,
                       gain_mode: str = "friis") -> ChannelRealization:
    """Draw one ChannelRealization for the given model tag."""
    if tag not in MODEL_TAGS:
        raise ValueError(f"unknown model tag {tag!r}")
    if LINK_BS_RIS in NEAR_LINKS[tag]:
        g_br = near_channel(LINK_BS_RIS, geometry)
    else:
        spec = random_far_spec(LINK_BS_RIS, geometry, rng, n_paths_bs,
                               nlos_rel_power, gain_mode)
        g_br = far_channel(spec, geometry)
    if LINK_RIS_UE in NEAR_LINKS[tag]:
        g_ru = near_channel(LINK_RIS_UE, geometry)
    else:
        spec = random_far_spec(LINK_RIS_UE, geometry, rng, n_paths_ue,
                               nlos_rel_power, gain_mode)
        g_ru = far_channel(spec, geometry)
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
