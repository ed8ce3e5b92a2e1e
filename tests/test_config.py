"""Config declarations against the README, parse-time validation, and the
run exit status."""

import math
import re
from dataclasses import fields, replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from risbeam import cli, harness
from risbeam.channel import near_channel
from risbeam.geometry import LINK_BS_RIS, SPEED_OF_LIGHT, check_layout
from risbeam.harness import (
    CONFIG_SCHEMA,
    SWEEPABLE,
    ConfigError,
    ExperimentConfig,
    parse_config,
    parse_result_csv,
    run_experiment,
)

README = Path(__file__).resolve().parent.parent / "README.md"
CONFIGS = README.parent / "configs"


def readme_rows():
    """(key, unit column, desk text, paper text) per key in the README table."""
    text = README.read_text()
    table = text[text.index("| key | unit / form |"):].split("\n\n", 1)[0]
    rows = []
    for line in table.splitlines()[2:]:
        cells = [c.strip() for c in re.split(r"(?<!\\)\|", line)[1:-1]]
        keys = re.findall(r"`(\w+)`", cells[0])
        desk, paper = ([v.strip("` ") for v in cell.split(", ")]
                       if len(keys) > 1 else [cell.strip("`")]
                       for cell in cells[2:4])
        rows += [(k, cells[1], d, p) for k, d, p in zip(keys, desk, paper)]
    return rows


def test_readme_table_lists_every_key_once():
    keys = [row[0] for row in readme_rows()]
    assert sorted(keys) == sorted(CONFIG_SCHEMA)
    assert len(keys) == len(set(keys))


@pytest.mark.parametrize("key,unit,desk,paper", readme_rows())
def test_readme_defaults_and_choices_match_declaration(key, unit, desk, paper):
    spec = CONFIG_SCHEMA[key]
    for scale, text, declared in (("desk", desk, spec.desk),
                                  ("paper", paper, spec.paper)):
        if text == "none":
            assert declared is None
            continue
        documented = getattr(parse_config(f"{key}: {text}", scale=scale), key)
        assert documented == getattr(parse_config("", scale=scale), key)
    allowed = unit.strip("`").split("\\|") if "\\|" in unit else None
    choices = getattr(spec.check, "choices", None)
    if choices is not None:
        assert allowed == list(choices)
    for value in allowed or ():
        parse_config(f"{key}: {value}")


def test_gain_mode_matched_parses_and_runs():
    text = "model: FF\nseeds: [0]\nmax_iters: 3\nlayers: 1\n"
    matched = parse_config(text + "gain_mode: matched\n")
    assert matched.gain_mode == "matched"
    result = run_experiment(matched)
    assert not result.errors
    rate = result.rows[0].rate_bps_hz
    assert math.isfinite(rate) and rate > 0
    # the planar LoS gain grows by sqrt(paths), so the rate must move
    assert rate != run_experiment(parse_config(text)).rows[0].rate_bps_hz


@pytest.mark.parametrize("text", [
    "carrier_hz: nan",
    "power_dbm: inf",
    "noise_dbm: -inf",
    "tol: nan",
    "ris_pos_m: [0.1, nan, 0.08]",
    "sweep: power_dbm in [-50, nan]",
    "sweep: ris_z in [inf]",
    # finite in dBm, but 10 ** 397 W overflows and 10 ** -403 W is 0.0
    "power_dbm: 4000",
    "noise_dbm: -4000",
    "power_dbm: -4000",
    "sweep: power_dbm in [0, 5000]",
    "sweep: noise_dbm in [-4000]",
])
def test_non_finite_numbers_rejected_at_parse(text):
    with pytest.raises(ConfigError, match="line 1: .*finite"):
        parse_config(text)


@pytest.mark.parametrize("text,match", [
    ("m_x: 4.5", "m_x must be an integer"),
    ("sweep: m_x in [4.5]", "m_x must be an integer"),
    ("sweep: layers in [1, 2.5]", "layers must be an integer"),
    ("sweep: n_bs in [0, 4]", "n_bs must be >= 1"),
    ("n_bs: true", "n_bs must be an integer"),
])
def test_integer_keys_checked_at_parse(text, match):
    with pytest.raises(ConfigError, match=match):
        parse_config(text)


@pytest.mark.parametrize("text", [
    "seeds: 3\nout: a.csv\nmodel: FF\nseeds: [4, 5]\nout: b.csv",
    # a shipped config that sets both, with the two lines appended
    (CONFIGS / "desk_nn.cfg").read_text() + "seeds: [4, 5]\nout: b.csv\n",
], ids=["inline", "shipped"])
def test_repeated_key_takes_its_last_value(text):
    cfg = parse_config(text)
    assert cfg.seeds == (4, 5) and cfg.out == "b.csv"


def test_repeated_sweep_rejected_with_its_line():
    with pytest.raises(ConfigError,
                       match="line 3: multiple sweep parameters"):
        parse_config("sweep: m_x in [8]\nseeds: 2\nsweep: m_x in [16]")


def test_zero_layer_sweep_stays_legal():
    assert parse_config("sweep: layers in [0, 1]").sweep_values == (0.0, 1.0)


@pytest.mark.parametrize("text", [
    "layers: 0",
    "model: NN\ntraining: auto\nlayers: 0",
    "model: FF\nlayers: 0\ntraining: hierarchical",
    "layers: 0\nsweep: power_dbm in [-50, -45]",
])
def test_zero_layers_under_hierarchical_training_rejected_at_parse(text):
    line = text.split("\n").index("layers: 0") + 1
    with pytest.raises(ConfigError, match=f"line {line}: layers 0 fails every "
                       "cell: hierarchical training requires layers >= 1"):
        parse_config(text)


@pytest.mark.parametrize("text", [
    "model: NF\nlayers: 0",
    "model: FF\nlayers: 0",
    "model: NN\ntraining: angular\nlayers: 0",
    "model: NN\ntraining: two_stage\nlayers: 0",
    "layers: 0\nsweep: layers in [0, 2]",
])
def test_zero_layers_stay_legal_without_hierarchical_cells(text):
    assert parse_config(text).layers == 0


def unchecked(text: str, **layout) -> ExperimentConfig:
    """The config of `text` with `layout` set past the parse-time checks."""
    return replace(parse_config(text), **layout)


@pytest.mark.parametrize("model", ["FF", "FN"])
def test_zero_length_link_that_fails_far_cells_rejected_at_parse(model):
    # the RIS on the BS midpoint: the far BS-RIS link has no length
    with pytest.raises(ConfigError, match=r"line 3: layout rejected: "
                       r"zero-length BS_RIS link: the BS and RIS midpoints "
                       r"coincide at \[0.0, 0.0, 0.0\]"):
        parse_config(f"model: {model}\nseeds: 2\nris_pos_m: [0, 0, 0]")
    # what each cell of the layout did before: its far-field gain divides
    # by the link length
    cfg = unchecked(f"model: {model}\nmax_iters: 2", ris_pos_m=(0.0, 0.0, 0.0))
    with pytest.raises(ZeroDivisionError):
        harness.run_cell(cfg, 0, 0.0)


@pytest.mark.parametrize("model", ["NF", "NN"])
def test_zero_length_link_that_near_cells_run_through_rejected_at_parse(model):
    with pytest.raises(ConfigError, match="line 2: layout rejected: "
                       "zero-length BS_RIS link"):
        parse_config(f"model: {model}\nris_pos_m: [0, 0, 0]")
    # before, the near-field model ran the layout and reported a rate
    cfg = unchecked(f"model: {model}\nmax_iters: 2", ris_pos_m=(0.0, 0.0, 0.0))
    assert math.isfinite(harness.run_cell(cfg, 0, 0.0).rate_bps_hz)


def test_coincident_elements_rejected_at_parse():
    # 3-element BS and 3 x 1 RIS, one spacing apart on the x-axis: two
    # BS elements sit on RIS elements although the midpoints differ
    d = 0.5 * (SPEED_OF_LIGHT / 30e9)
    text = f"n_bs: 3\nm_x: 3\nm_y: 1\nris_pos_m: [{d!r}, 0, 0]"
    with pytest.raises(ConfigError, match="line 4: layout rejected: "
                       "coincident BS and RIS elements"):
        parse_config(text)
    geometry = harness.geometry_from(
        unchecked("n_bs: 3\nm_x: 3\nm_y: 1", ris_pos_m=(d, 0.0, 0.0)))
    with pytest.raises(ValueError, match="coincident"):   # the channel's guard
        near_channel(LINK_BS_RIS, geometry)
    # raised above the x-axis, the RIS passes
    parse_config(text.replace(", 0, 0]", ", 0, 0.01]"))


@pytest.mark.parametrize("ris,link", [("[0, 0, 0.08]", "BS_RIS"),
                                      ("[0.24, 0, 0.08]", "RIS_UE")])
def test_sweep_value_on_a_node_rejected_with_the_sweep_line(ris, link):
    text = f"ris_pos_m: {ris}\nseeds: 2\nsweep: ris_z in [0.08, 0.0]\n"
    with pytest.raises(ConfigError, match=f"line 3: sweep value 0 for ris_z: "
                       f"zero-length {link} link"):
        parse_config(text)
    assert parse_config(text.replace("0.0]", "0.04]")).sweep_values == (
        0.08, 0.04)
    # the base layout is checked too, although the sweep moves the RIS
    with pytest.raises(ConfigError, match="line 1: layout rejected"):
        parse_config("ris_pos_m: [0, 0, 0]\nsweep: ris_z in [0.08]")


@pytest.mark.parametrize("path", sorted(CONFIGS.glob("*.cfg")),
                         ids=lambda path: path.stem)
def test_shipped_configs_parse_at_their_scale(path):
    scale = "paper" if path.stem.startswith("paper_") else "desk"
    harness.load_config(path, scale=scale)   # raises ConfigError on a bad line


@pytest.mark.parametrize("name,sweep", [
    ("paper_power_sweep", ("power_dbm", (20.0, 25.0, 30.0, 35.0, 40.0))),
    ("paper_ris_height", ("ris_z", (2.0, 4.0, 6.0, 8.0, 10.0))),
])
def test_paper_sweep_configs_hold_the_reference_tables(name, sweep):
    cfg = harness.load_config(CONFIGS / f"{name}.cfg", scale="paper")
    assert cfg.sweep == sweep


def test_run_exits_nonzero_when_a_cell_fails(tmp_path, capsys):
    # 60 layers shrink the desk ranges until a layer's quadrants degenerate
    cfg = tmp_path / "deep.cfg"
    cfg.write_text("model: NN\nlayers: 60\nseeds: [0]\n")
    out = tmp_path / "res.csv"
    assert cli.main(["run", str(cfg), "--out", str(out)]) != 0
    assert "failed cell" in capsys.readouterr().err
    assert len(parse_result_csv(out)) == 1    # the row is still written


FINITE = st.floats(allow_nan=False, allow_infinity=False)


def value_strategy(check):
    """Raw config values (as read from text) that `check` accepts."""
    if hasattr(check, "choices"):
        return st.sampled_from(check.choices)
    simple = {
        harness._number: FINITE,
        harness._dbm: st.floats(-3000.0, 3000.0),
        harness._positive: st.floats(min_value=0.0, exclude_min=True,
                                     allow_infinity=False),
        harness._nonnegative: st.floats(min_value=0.0, allow_infinity=False),
        harness._point: st.lists(FINITE, min_size=3, max_size=3),
        harness._seeds: st.integers(1, 50) | st.lists(st.integers(0, 2**40),
                                                      min_size=1, max_size=5),
        harness._sweep: st.none() | sweep_text(),
        # ".csv" keeps the path from reading as a number or a bool
        str: st.from_regex(r"[a-z][a-z0-9_]{0,8}(/[a-z0-9_]{1,8}){0,2}\.csv",
                           fullmatch=True),
    }
    if check in simple:
        return simple[check]
    minimum = next(n for n in (0, 1) if accepts(check, n))   # _integer(n)
    return st.integers(minimum, minimum + 10**6)


def accepts(check, value) -> bool:
    try:
        check(value)
    except ValueError:
        return False
    return True


@st.composite
def sweep_text(draw):
    name = draw(st.sampled_from(SWEEPABLE))
    check = harness._number if name in harness._RIS_AXES \
        else CONFIG_SCHEMA[name].check
    values = draw(st.lists(value_strategy(check), min_size=1, max_size=4))
    return f"{name} in {render_value(values)}"


def render_value(value) -> str:
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(render_value(v) for v in value) + "]"
    return repr(value) if isinstance(value, float) else str(value)


def render(cfg: ExperimentConfig) -> str:
    """Config text with one line per declared field of `cfg`."""
    lines = []
    for f in fields(ExperimentConfig):
        value = getattr(cfg, f.name)
        if f.name == "sweep":
            if cfg.sweep_param == "none":
                continue
            value = f"{cfg.sweep_param} in {render_value(cfg.sweep_values)}"
        lines.append(f"{f.name}: {render_value(value)}")
    return "\n".join(lines) + "\n"


@st.composite
def configs(draw):
    return ExperimentConfig(**{key: spec.check(draw(value_strategy(spec.check),
                                                    label=key))
                               for key, spec in CONFIG_SCHEMA.items()})


@settings(max_examples=100, deadline=None)
@given(cfg=configs(), scale=st.sampled_from(["desk", "paper"]))
def test_config_round_trips_through_its_rendered_text(cfg, scale):
    # a layout that `check_layout` rejects, in the base config or at a
    # sweep value, is refused whole; every other config round-trips
    try:
        for value in cfg.sweep_values:
            cell = harness.apply_sweep(cfg, value)
            check_layout(cell.carrier_hz, cell.n_bs, cell.n_ue, cell.m_x,
                         cell.m_y, cell.bs_pos_m, cell.ue_pos_m,
                         cell.ris_pos_m, cell.spacing_wavelengths)
        check_layout(cfg.carrier_hz, cfg.n_bs, cfg.n_ue, cfg.m_x, cfg.m_y,
                     cfg.bs_pos_m, cfg.ue_pos_m, cfg.ris_pos_m,
                     cfg.spacing_wavelengths)
    except ValueError:
        with pytest.raises(ConfigError, match="layout rejected|sweep value"):
            parse_config(render(cfg), scale=scale)
        return
    # so is a non-swept 0 layers under hierarchical training
    if (cfg.layers == 0 and cfg.sweep_param != "layers"
            and (cfg.training == "hierarchical"
                 or (cfg.training, cfg.model) == ("auto", "NN"))):
        with pytest.raises(ConfigError, match="layers 0 fails every cell"):
            parse_config(render(cfg), scale=scale)
        return
    assert parse_config(render(cfg), scale=scale) == cfg
