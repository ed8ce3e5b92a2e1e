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
        if not all(map(math.isfinite, (self.x_min, self.x_max, self.y_min,
                                        self.y_max, self.fixed_z))):
            raise ValueError("sampling range and height must be finite")
        if not (self.x_min < self.x_max and self.y_min < self.y_max):
            raise ValueError("degenerate sampling range")
        if self.s_x < 1 or self.s_y < 1:
            raise ValueError("s_x and s_y must be positive")

    def sample_points(self) -> list[tuple[float, float]]:
        xs = [self.x_min + (s - 0.5) * (self.x_max - self.x_min) / self.s_x
              for s in range(1, self.s_x + 1)]
        ys = [self.y_min + (s - 0.5) * (self.y_max - self.y_min) / self.s_y
              for s in range(1, self.s_y + 1)]
        return [(x, y) for x in xs for y in ys]


def subdivide_range(grid: SamplingGrid) -> tuple[SamplingGrid, ...]:
    """Quadrisect the range; quadrant order: SW, SE, NE, NW."""
    x_half = 0.5 * (grid.x_max - grid.x_min)
    y_half = 0.5 * (grid.y_max - grid.y_min)
    x_mid = grid.x_min + x_half
    y_mid = grid.y_min + y_half
    return (
        replace(grid, x_max=x_mid, y_max=y_mid),
        replace(grid, x_min=x_mid, y_max=y_mid),
        replace(grid, x_min=x_mid, y_min=y_mid),
        replace(grid, x_max=x_mid, y_min=y_mid),
    )


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
    r = np.linalg.norm(xyz[..., None, :] - pos, axis=-1)
    if np.any(r <= 0.0):
        raise ValueError("sample point coincides with a RIS element")
    words = np.exp(2j * np.pi * r / geometry.wavelength_m)
    if not np.all(np.abs(np.abs(words) - 1.0) <= _UNIT_TOL):   # NaN fails
        raise ValueError("sample points must be finite")
    return words


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
    pts = grid.sample_points()
    words = distance_words(np.array([[x, y, grid.fixed_z] for x, y in pts]),
                           geometry)
    tags = tuple(PointTag(side=side, x=x, y=y) for x, y in pts)
    return Codebook(words=words, provenance=tags)


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
