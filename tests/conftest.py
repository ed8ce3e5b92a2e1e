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

from risbeam.channel import random_far_spec, synthesize_channel
from risbeam.geometry import SystemGeometry
from risbeam.harness import geometry_from, parse_config
from risbeam.optimizer import ao_loop, default_stream_count


def config_args(fn, scale="desk", **overrides):
    """The keyword arguments of library function `fn` that config keys
    declare, at their `scale` defaults, with `overrides` on top.

    The library restates no config default, so a test takes each model
    value from its one declaration in `harness.ExperimentConfig` here;
    `ao_loop`'s q, which depends on the model and the geometry, comes
    from `default_stream_count` with the `default_stream_count` arguments.
    """
    cfg = parse_config("", scale)
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
