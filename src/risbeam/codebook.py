"""RIS codebooks: angular, distance-sampled, and combined families.

Every codeword is a length-M vector of unit-modulus reflection
coefficients, stored ready to apply in the cascaded channel (the
conjugation of the underlying steering vectors happens at build time).
Builders return a Codebook whose rows follow the documented orderings:
angular grids run with the y index fastest, sample grids with the y
sample fastest, and the combine operator varies its left operand slowest.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .geometry import NODE_RIS, SystemGeometry

SIDE_BS = "B"
SIDE_UE = "U"

# the side whose distances a one-sided near-field model tag samples
NEAR_SIDE = {"NF": SIDE_BS, "FN": SIDE_UE}

_UNIT_TOL = 1e-12


class AngleTag(NamedTuple):
    """Angular-grid provenance: 1-based grid indices plus (beta, delta)."""
    ix: int
    iy: int
    beta: float
    delta: float

    def __str__(self):
        return f"angle<{self.ix},{self.iy}|{self.beta:.9g},{self.delta:.9g}>"


class PointTag(NamedTuple):
    """Distance-sample provenance: side (B or U) and the sample point."""
    side: str
    x: float
    y: float

    def __str__(self):
        return f"point<{self.side}|{self.x:.9g},{self.y:.9g}>"


class ComboTag(NamedTuple):
    first: object
    second: object

    def __str__(self):
        return f"combo<{self.first}*{self.second}>"


@dataclass(frozen=True)
class Codeword:
    coeffs: np.ndarray
    provenance: object

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=complex).ravel()
        if not np.all(np.abs(np.abs(c) - 1.0) <= _UNIT_TOL):   # NaN fails
            raise ValueError("codeword entries must be unit modulus")
        object.__setattr__(self, "coeffs", c)


@dataclass(frozen=True)
class Codebook:
    """Ordered codeword collection: rows of `words` are the codewords."""

    words: np.ndarray
    provenance: tuple

    def __post_init__(self):
        w = np.asarray(self.words, dtype=complex)
        if w.ndim != 2:
            raise ValueError("words must be a (K, M) array")
        if len(self.provenance) != w.shape[0]:
            raise ValueError("one provenance entry per codeword required")
        if not np.all(np.abs(np.abs(w) - 1.0) <= _UNIT_TOL):   # NaN fails
            raise ValueError("codebook entries must be unit modulus")
        object.__setattr__(self, "words", w)
        object.__setattr__(self, "provenance", tuple(self.provenance))

    def __len__(self):
        return self.words.shape[0]

    def __getitem__(self, k: int) -> Codeword:
        return Codeword(coeffs=self.words[k], provenance=self.provenance[k])

    def to_csv(self, path) -> None:
        """Write (index, provenance, M phase values in radians)."""
        m = self.words.shape[1]
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["index", "provenance"]
                            + [f"phase_{i}" for i in range(m)])
            for k in range(len(self)):
                phases = np.mod(-np.angle(self.words[k]), 2.0 * np.pi)
                writer.writerow([k, str(self.provenance[k])]
                                + [f"{p:.12g}" for p in phases])


def _check_range(x_min, x_max, y_min, y_max, fixed_z) -> None:
    if not all(map(math.isfinite, (x_min, x_max, y_min, y_max, fixed_z))):
        raise ValueError("sampling range and height must be finite")
    if not (x_min < x_max and y_min < y_max):
        raise ValueError("degenerate sampling range")


@dataclass(frozen=True)
class SamplingGrid:
    """Rectangular XY sampling range at a fixed height.

    s_x * s_y points are placed at the cell-center offsets
    (s - 1/2) / S of the range in each direction, y sample fastest.
    """

    x_min: float
    x_max: float
    y_min: float
    y_max: float
    s_x: int
    s_y: int
    fixed_z: float

    def __post_init__(self):
        _check_range(self.x_min, self.x_max, self.y_min, self.y_max,
                     self.fixed_z)
        if self.s_x < 1 or self.s_y < 1:
            raise ValueError("s_x and s_y must be positive")

    @property
    def bounds(self) -> tuple:
        return self.x_min, self.x_max, self.y_min, self.y_max

    def sample_points(self) -> list[tuple[float, float]]:
        pts = sample_grid(self.bounds, self.s_x, self.s_y, self.fixed_z)
        return [(x, y) for x, y, _ in pts.tolist()]


def sample_grid(bounds, s_x: int, s_y: int, fixed_z: float) -> np.ndarray:
    """Sample points of ranges `bounds` (..., 4), each row (x_min, x_max,
    y_min, y_max), as an (..., s_x*s_y, 3) array at height `fixed_z`:
    lo + (s - 1/2) * (hi - lo) / S per direction, y sample fastest."""
    b = np.array(bounds, dtype=float)
    x0, x1, y0, y1 = (b[..., i, None] for i in range(4))
    pts = np.empty(b.shape[:-1] + (s_x, s_y, 3))
    # arange(0.5, S) is s - 1/2 for s = 1..S exactly
    pts[..., 0] = (x0 + np.arange(0.5, s_x) * (x1 - x0) / s_x)[..., :, None]
    pts[..., 1] = (y0 + np.arange(0.5, s_y) * (y1 - y0) / s_y)[..., None, :]
    pts[..., 2] = fixed_z
    return pts.reshape(b.shape[:-1] + (s_x * s_y, 3))


def quadrant_bounds(x_min: float, x_max: float, y_min: float, y_max: float,
                    fixed_z: float) -> tuple:
    """The (x_min, x_max, y_min, y_max) of the range's quadrants, in the
    order SW, SE, NE, NW, checked as `SamplingGrid` checks a range.

    Every quadrant bound is a bound of SW or of NE, and only the
    midpoints can fail to be finite, so checking SW and then NE raises
    what the first failing quadrant grid would raise.
    """
    x_mid = x_min + 0.5 * (x_max - x_min)
    y_mid = y_min + 0.5 * (y_max - y_min)
    sw, ne = (x_min, x_mid, y_min, y_mid), (x_mid, x_max, y_mid, y_max)
    _check_range(*sw, fixed_z)
    _check_range(*ne, fixed_z)
    return sw, (x_mid, x_max, y_min, y_mid), ne, (x_min, x_mid, y_mid, y_max)


def subdivide_range(grid: SamplingGrid) -> tuple[SamplingGrid, ...]:
    """Quadrisect the range; quadrant order: SW, SE, NE, NW."""
    return tuple(replace(grid, x_min=x0, x_max=x1, y_min=y0, y_max=y1)
                 for x0, x1, y0, y1 in quadrant_bounds(*grid.bounds,
                                                       grid.fixed_z))


def angular_grid_values(n: int) -> np.ndarray:
    """Grid (2k - n - 1) / n for k = 1..n, symmetric inside (-1, 1)."""
    return (2.0 * np.arange(1, n + 1) - n - 1) / n


def ff_steering(beta: float, delta: float, m_x: int, m_y: int,
                geometry: SystemGeometry) -> Codeword:
    """Angular steering vector: x-phase index*beta*delta, y-phase index*delta."""
    if not (-1.0 <= beta <= 1.0 and -1.0 <= delta <= 1.0):
        raise ValueError("beta and delta must lie in [-1, 1]")
    step = 2.0 * np.pi * geometry.spacing_m / geometry.wavelength_m
    ax = np.exp(-1j * np.arange(m_x) * step * beta * delta)
    ay = np.exp(-1j * np.arange(m_y) * step * delta)
    return Codeword(coeffs=np.kron(ax, ay), provenance=None)


def build_ff_codebook(geometry: SystemGeometry) -> Codebook:
    """All m_x*m_y conjugated angular steering vectors on the beam grid.

    Word (ix, iy) is the x phase ramp of beta_ix*delta_iy times the y ramp
    of delta_iy, as in `ff_steering`, formed for every grid pair at once.
    """
    betas = angular_grid_values(geometry.m_x)
    deltas = angular_grid_values(geometry.m_y)
    step = 2.0 * np.pi * geometry.spacing_m / geometry.wavelength_m
    ax = np.exp(-1j * np.arange(geometry.m_x) * step * betas[:, None, None]
                * deltas[None, :, None])    # (ix, iy, x index)
    ay = np.exp(-1j * np.arange(geometry.m_y) * step * deltas[:, None])
    words = (ax[:, :, :, None] * ay[None, :, None, :]).conj()
    tags = tuple(AngleTag(ix=ix, iy=iy, beta=float(beta), delta=float(delta))
                 for ix, beta in enumerate(betas, start=1)
                 for iy, delta in enumerate(deltas, start=1))
    return Codebook(words=words.reshape(len(tags), -1), provenance=tags)


def distance_words(xyz: np.ndarray, geometry: SystemGeometry) -> np.ndarray:
    """Conjugated spherical-wave steering words, shape (..., M), for the
    points `xyz` of shape (..., 3): exp(+2j*pi*r/lambda) per RIS element."""
    pos = geometry.element_positions(NODE_RIS)
    # the squares summed in the order of np.linalg.norm(..., axis=-1)
    dx, dy, dz = (xyz[..., i, None] - pos[:, i] for i in range(3))
    r = np.sqrt(dx * dx + dy * dy + dz * dz)
    if np.any(r <= 0.0):
        raise ValueError("sample point coincides with a RIS element")
    # numpy divides a complex array by a real scalar as a product with its
    # reciprocal, so this real phase is that of 2j*pi*r/lambda bit for bit
    phase = (2.0 * np.pi * r) * (1.0 / geometry.wavelength_m)
    # exp(1j*x) of a finite real x is unit modulus; a NaN or infinite
    # coordinate, or an r that overflows, leaves a non-finite phase
    if not np.isfinite(phase).all():
        raise ValueError("sample points must be finite")
    return np.exp(1j * phase)


def star(a: Codebook, b: Codebook) -> Codebook:
    """Elementwise-product combination: output row i*|b|+j = a_i * b_j."""
    if a.words.shape[1] != b.words.shape[1]:
        raise ValueError("codeword lengths differ")
    words = (a.words[:, None, :] * b.words[None, :, :]).reshape(
        -1, a.words.shape[1])
    tags = tuple(ComboTag(first=ta, second=tb)
                 for ta in a.provenance for tb in b.provenance)
    return Codebook(words=words, provenance=tags)


def build_nn_codebook(grid_bs: SamplingGrid, grid_ue: SamplingGrid,
                      geometry: SystemGeometry) -> Codebook:
    """Doubly-sampled codebook: user-side samples combined with BS-side ones."""
    return star(build_distance_component(grid_ue, SIDE_UE, geometry),
                build_distance_component(grid_bs, SIDE_BS, geometry))


def build_angular_component(geometry: SystemGeometry) -> Codebook:
    """First hybrid component; identical to the full angular codebook."""
    return build_ff_codebook(geometry)


def build_distance_component(grid: SamplingGrid, side: str,
                             geometry: SystemGeometry) -> Codebook:
    """Second hybrid component: `distance_words` at the grid sample points
    of one side, tagged with the side and the point."""
    if side not in (SIDE_BS, SIDE_UE):
        raise ValueError(f"side must be {SIDE_BS!r} or {SIDE_UE!r}")
    xyz = sample_grid(grid.bounds, grid.s_x, grid.s_y, grid.fixed_z)
    tags = tuple(PointTag(side=side, x=x, y=y) for x, y, _ in xyz.tolist())
    return Codebook(words=distance_words(xyz, geometry), provenance=tags)


def build_hybrid_codebook(side_tag: str, grid: SamplingGrid,
                          geometry: SystemGeometry) -> Codebook:
    """Combined angular-distance codebook of size M * s_x * s_y.

    side_tag "NF" samples distances on the BS side, "FN" on the user side;
    identical grids therefore differ only in which side's distances enter
    the second component.
    """
    if side_tag not in NEAR_SIDE:
        raise ValueError(f"side_tag must be 'NF' or 'FN', got {side_tag!r}")
    return star(build_angular_component(geometry),
                build_distance_component(grid, NEAR_SIDE[side_tag], geometry))
