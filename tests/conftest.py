import warnings

import pytest

# Once a property test fails, hypothesis's pytest plugin imports its
# failing-example patch writer, whose libcst import warns that
# mypy_extensions.TypedDict is deprecated.  Raised as an error inside a
# report hook, that warning would end the whole run with INTERNALERROR,
# so the writer is imported here, once, with only that warning ignored.
with warnings.catch_warnings():
    warnings.filterwarnings("ignore", category=DeprecationWarning,
                            message="mypy_extensions.TypedDict is deprecated")
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:     # without libcst the plugin writes no patch
        pass

from risbeam.channel import (
    ChannelRealization,
    near_channel,
    random_far_spec,
    synthesize_channel,
)
from risbeam.codebook import SamplingGrid
from risbeam.geometry import LINK_BS_RIS, LINK_RIS_UE, SystemGeometry
from risbeam.harness import geometry_from, parse_config
from risbeam.optimizer import ao_loop, default_stream_count


def config_args(fn, **overrides):
    """The keyword arguments of library function `fn` that config keys
    declare, at their desk defaults, with `overrides` on top.

    The library restates no config default, so a test takes each model
    value from its one declaration in `harness.ExperimentConfig` here;
    `ao_loop`'s q, which depends on the model and the geometry, comes
    from `default_stream_count` with the `default_stream_count` arguments.
    """
    cfg = parse_config("")
    far = dict(nlos_rel_power=cfg.nlos_rel_power, gain_mode=cfg.gain_mode)
    args = {
        SystemGeometry.build: dict(
            spacing_wavelengths=cfg.spacing_wavelengths),
        random_far_spec: dict(n_paths=cfg.paths_bs, **far),   # BS-RIS link
        synthesize_channel: dict(n_paths_bs=cfg.paths_bs,
                                 n_paths_ue=cfg.paths_ue, **far),
        default_stream_count: dict(l_b=cfg.paths_bs, l_u=cfg.paths_ue),
        ao_loop: dict(max_iters=cfg.max_iters, tol=cfg.tol,
                      scheme=cfg.training),
    }[fn]
    return args | overrides


@pytest.fixture(scope="session")
def table2():
    """Full-scale reference layout: 16/8 ULAs, 60x2 RIS, 30 GHz."""
    return geometry_from(parse_config("", "paper"))


@pytest.fixture(scope="session")
def desk():
    """CI-sized layout: the reference shrunk 1/100 with 8/4 ULAs, 16x2 RIS."""
    return geometry_from(parse_config("", "desk"))


# The desk cell: 8/4 ULAs and a 16x2 RIS at 30 GHz, the user 24 cm from
# the BS and the RIS 8 cm above the line between them.
DESK_LAYOUT = dict(carrier_hz=30e9, n_bs=8, n_ue=4, m_x=16, m_y=2,
                   bs_mid=(0, 0, 0), ue_mid=(0.24, 0, 0),
                   ris_mid=(0.1, 0, 0.08))


def desk_geometry(**changes):
    """The desk layout at the config's element spacing, with `changes` to
    its `SystemGeometry.build` arguments."""
    return SystemGeometry.build(
        **DESK_LAYOUT | config_args(SystemGeometry.build) | changes)


def nn_realization(g):
    """The all-spherical channel of `g`: both links near-field."""
    return ChannelRealization(g_bs_ris=near_channel(LINK_BS_RIS, g),
                              g_ris_ue=near_channel(LINK_RIS_UE, g),
                              model_tag="NN")


def desk_grids(g, s=2):
    """BS and user sampling grids 10 wavelengths to each side of the desk
    nodes, s x s samples each."""
    half = 10 * g.wavelength_m
    def mk(cx, cy, z):
        return SamplingGrid(x_min=cx - half, x_max=cx + half,
                            y_min=cy - half, y_max=cy + half,
                            s_x=s, s_y=s, fixed_z=z)
    return mk(0.0, 0.0, 0.0), mk(0.24, 0.0, 0.0)


def desk_cell(**changes):
    """(geometry, NN realization, BS grid, user grid) of the desk cell,
    as `harness.cell_setup` returns a cell."""
    g = desk_geometry(**changes)
    return g, nn_realization(g), *desk_grids(g)


def rand_matrix(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def cell_centres(grid):
    """(x, y) samples of `grid` by the cell-centre formula
    lo + (s - 1/2)(hi - lo)/S, y sample fastest, in plain floats."""
    def axis(lo, hi, n):
        return [lo + (s - 0.5) * (hi - lo) / n for s in range(1, n + 1)]
    return [(x, y) for x in axis(grid.x_min, grid.x_max, grid.s_x)
            for y in axis(grid.y_min, grid.y_max, grid.s_y)]
