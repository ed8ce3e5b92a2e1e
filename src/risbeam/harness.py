"""Experiment harness: config parsing, seeded sweeps, and result emission.

Configs are plain ``key: value`` text (``#`` starts a comment).  Each key
is declared once, as a field of ExperimentConfig carrying its check, unit
and desk/paper defaults; parsing, validation, the scale defaults and
sweeps all derive from those declarations, so a bad value is rejected at
parse time with its line number.  All randomness is drawn from
counter-based generators keyed by the seed alone, so a run is a pure
function of (config, seeds) regardless of worker count, and every value
of a sweep sees the same draws for a given seed (a paired comparison).

See the schema table in the README (or CONFIG_SCHEMA below) for every
key, its unit, and the desk/paper defaults.
"""

from __future__ import annotations

import csv
import json
import math
import time
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import training
from .channel import GAIN_MODES, MODEL_TAGS, synthesize_channel
from .codebook import SamplingGrid
from .geometry import SPEED_OF_LIGHT, SystemGeometry, check_layout
from .optimizer import AOState, ao_loop, default_stream_count

TRAINING_SCHEMES = ("auto", "angular", "hierarchical", "two_stage")

_RIS_AXES = ("ris_x", "ris_y", "ris_z")
# the keys that place the array elements
_LAYOUT_KEYS = ("carrier_hz", "spacing_wavelengths", "n_bs", "n_ue", "m_x",
                "m_y", "bs_pos_m", "ue_pos_m", "ris_pos_m")

SWEEPABLE = ("power_dbm", "noise_dbm", *_RIS_AXES,
             "m_x", "m_y", "n_bs", "n_ue", "layers", "s_x", "s_y",
             "range_halfwidth_wl")

# (label, model, training): the model/scheme pairings the experiment
# scripts compare
VARIANTS = (("NN-hierarchical", "NN", "auto"),
            ("NF-two-stage", "NF", "auto"),
            ("FN-two-stage", "FN", "auto"),
            ("NN-angular", "NN", "angular"),
            ("FF-angular", "FF", "auto"))

RESULT_HEADER = ("seed", "sweep_param", "sweep_value", "model",
                 "rate_bps_hz", "evaluations", "iterations", "ms")


class ConfigError(ValueError):
    pass


class Key(NamedTuple):
    """One config key: the check that parses it, its unit and defaults."""

    check: Callable
    unit: str
    desk: object
    paper: object


def _key(check, unit, desk, paper):
    return field(metadata={"key": Key(check, unit, desk, paper)})


# Checks take a value as read from config text (bool, int, float, str or
# list) and return it coerced to its field's type, or raise ValueError
# saying what the key must be.

def _number(value) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)) \
            or not math.isfinite(value):
        raise ValueError("must be a finite number")
    return float(value)


def _positive(value) -> float:
    x = _number(value)
    if x <= 0:
        raise ValueError("must be a positive number")
    return x


def _dbm(value) -> float:
    x = _number(value)
    try:
        if dbm_to_watts(x) > 0.0:    # overflow raises; it never gives inf
            return x
    except OverflowError:
        pass
    raise ValueError("must be a level whose power in watts is a finite "
                     "positive float (about -3200 to 3100 dBm)")


def _nonnegative(value) -> float:
    x = _number(value)
    if x < 0:
        raise ValueError("must be >= 0")
    return x


def _integer(minimum: int):
    def check(value) -> int:
        if isinstance(value, bool) or not isinstance(value, (int, float)) \
                or not float(value).is_integer():
            raise ValueError("must be an integer")
        if value < minimum:
            raise ValueError(f"must be >= {minimum}")
        return int(value)
    return check


def _one_of(*choices):
    def check(value):
        if value not in choices:
            raise ValueError(f"must be one of {', '.join(choices)}")
        return value
    check.choices = choices
    return check


def _point(value) -> tuple:
    if not isinstance(value, list) or len(value) != 3:
        raise ValueError("must be [x, y, z]")
    return tuple(_number(v) for v in value)


def _seeds(value) -> tuple:
    if isinstance(value, list):
        if not value:
            raise ValueError("must list at least one seed")
        return tuple(_integer(0)(s) for s in value)
    return tuple(range(_integer(1)(value)))


def _sweep(value) -> tuple:
    """'<name> in [v1, v2, ...]' as (name, values); no sweep is one cell."""
    if value is None:
        return "none", (0.0,)
    name, sep, rest = str(value).partition(" in ")
    if not sep:
        raise ValueError("must look like '<name> in [v1, v2, ...]'")
    values = _parse_list(rest)
    if not values:
        raise ValueError("needs at least one value")
    name = name.strip()
    return name, tuple(float(_swept(name, v)) for v in values)


def _swept(name: str, value):
    """`value` checked as the value the sweep gives parameter `name`."""
    if name not in SWEEPABLE:
        raise ValueError(f"names an unknown sweep parameter {name!r}; "
                         f"choose one of {', '.join(SWEEPABLE)}")
    check = _number if name in _RIS_AXES else CONFIG_SCHEMA[name].check
    try:
        return check(value)
    except ValueError as exc:
        raise ValueError(f"value {value} for {name} {exc}") from None


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment; every field is a config key declared as
    `_key(check, unit, desk default, paper default)`.

    Desk defaults shrink the reference layout by 1/100 and drop the
    transmit power by the 80 dB of cascaded gain that the shorter links
    add, keeping the operating SNR (and therefore rates and convergence
    behavior) comparable to the reference scale while runs finish in CI
    time.  Defaults are written as config values and pass through their
    key's check like any parsed value.
    """

    carrier_hz: float = _key(_positive, "Hz", 30e9, 30e9)
    spacing_wavelengths: float = _key(_positive, "multiples of the wavelength",
                                      0.5, 0.5)
    n_bs: int = _key(_integer(1), "antennas", 8, 16)
    n_ue: int = _key(_integer(1), "antennas", 4, 8)
    m_x: int = _key(_integer(1), "elements", 16, 60)
    m_y: int = _key(_integer(1), "elements", 2, 2)
    bs_pos_m: tuple = _key(_point, "m, [x,y,z]",
                           [0.0, 0.0, 0.0], [0.0, 0.0, 0.0])
    ue_pos_m: tuple = _key(_point, "m, [x,y,z]",
                           [0.24, 0.0, 0.0], [24.0, 0.0, 0.0])
    ris_pos_m: tuple = _key(_point, "m, [x,y,z]",
                            [0.1, 0.0, 0.08], [10.0, 0.0, 8.0])
    model: str = _key(_one_of(*MODEL_TAGS), "channel model", "NN", "NN")
    training: str = _key(_one_of(*TRAINING_SCHEMES), "training scheme",
                         "auto", "auto")
    layers: int = _key(_integer(0), "refinement layers", 6, 12)
    s_x: int = _key(_integer(1), "samples per direction", 2, 2)
    s_y: int = _key(_integer(1), "samples per direction", 2, 2)
    range_halfwidth_wl: float = _key(_positive, "multiples of the wavelength",
                                     10.0, 1000.0)
    ue_jitter_frac: float = _key(_nonnegative,
                                 "fraction of the range halfwidth", 0.05, 0.05)
    power_dbm: float = _key(_dbm, "dBm", -50.0, 30.0)
    noise_dbm: float = _key(_dbm, "dBm", -105.0, -105.0)
    paths_bs: int = _key(_integer(1), "paths incl. LoS", 3, 3)
    paths_ue: int = _key(_integer(1), "paths incl. LoS", 3, 3)
    nlos_rel_power: float = _key(_positive, "relative to LoS power",
                                 0.01, 0.01)
    gain_mode: str = _key(_one_of(*GAIN_MODES), "LoS gain scale",
                          "friis", "friis")
    q: int = _key(_integer(0), "streams, 0 = auto", 0, 0)
    max_iters: int = _key(_integer(1), "iterations", 20, 20)
    tol: float = _key(_positive, "relative rate change", 1e-4, 1e-4)
    seeds: tuple = _key(_seeds, "list, or a count expanded to 0..n-1",
                        20, 20)
    workers: int = _key(_integer(1), "processes", 1, 1)
    sweep: tuple = _key(_sweep, "'<name> in [v1, v2, ...]'", None, None)
    out: str = _key(str, "output CSV path", "results.csv", "results.csv")

    @property
    def p_max_w(self) -> float:
        return dbm_to_watts(self.power_dbm)

    @property
    def noise_w(self) -> float:
        return dbm_to_watts(self.noise_dbm)

    @property
    def sweep_param(self) -> str:
        return self.sweep[0]

    @property
    def sweep_values(self) -> tuple:
        return self.sweep[1]


CONFIG_SCHEMA = {f.name: f.metadata["key"] for f in fields(ExperimentConfig)}


@dataclass(frozen=True)
class ResultRow:
    seed: int
    sweep_param: str
    sweep_value: float
    model: str
    rate_bps_hz: float
    evaluations: int
    iterations: int
    ms: float


@dataclass
class ExperimentResult:
    rows: list[ResultRow]
    summary: list[tuple]          # (sweep_param, sweep_value, model, mean, std, n)
    errors: list[str]


def dbm_to_watts(dbm: float) -> float:
    return 10.0 ** ((dbm - 30.0) / 10.0)


def rng_for(seed: int) -> np.random.Generator:
    """Counter-based stream keyed by the seed; scheduling independent."""
    key = np.array([np.uint64(seed), np.uint64(0)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _parse_scalar(text: str):
    text = text.strip()
    low = text.lower()
    if low in ("true", "false"):
        return low == "true"
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        return text


def _parse_list(text: str) -> list:
    text = text.strip()
    if not (text.startswith("[") and text.endswith("]")):
        raise ValueError(f"expects a [..] list, got {text!r}")
    body = text[1:-1].strip()
    if not body:
        return []
    return [_parse_scalar(tok) for tok in body.split(",")]


def scale_defaults(scale: str) -> dict:
    if scale not in ("desk", "paper"):
        raise ConfigError(f"unknown scale {scale!r}; use 'desk' or 'paper'")
    return {key: getattr(spec, scale) for key, spec in CONFIG_SCHEMA.items()}


def parse_config(text: str, scale: str = "desk") -> ExperimentConfig:
    """Parse a key/value config document on top of the scale's defaults."""
    values = {key: CONFIG_SCHEMA[key].check(default)
              for key, default in scale_defaults(scale).items()}
    given = {}                                   # key: line it was last set on
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if ":" not in line:
            raise ConfigError(f"line {lineno}: expected 'key: value', got {raw!r}")
        key, _, val = line.partition(":")
        key, val = key.strip(), val.strip()
        if key not in CONFIG_SCHEMA:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key == "sweep" and key in given:
            raise ConfigError(
                f"line {lineno}: multiple sweep parameters; only one allowed")
        given[key] = lineno
        try:
            parsed = _parse_list(val) if val.startswith("[") \
                else _parse_scalar(val)
            values[key] = CONFIG_SCHEMA[key].check(parsed)
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: {key} {exc}") from None
    cfg = ExperimentConfig(**values)
    _check_layouts(cfg, given)
    return cfg


def _check_layouts(cfg: ExperimentConfig, given: dict) -> None:
    """Reject a nominal layout that fails every cell (see
    `geometry.check_layout`): the base config's, named by the last line
    that set a layout key, and each sweep value's, named by the sweep
    line."""
    lines = [given[k] for k in _LAYOUT_KEYS if k in given]
    cells = [(cfg, (f"line {max(lines)}: " if lines else "")
              + "layout rejected")]
    if cfg.sweep_param in _LAYOUT_KEYS + _RIS_AXES:
        cells += [(apply_sweep(cfg, value), f"line {given['sweep']}: sweep "
                   f"value {value:g} for {cfg.sweep_param}")
                  for value in cfg.sweep_values]
    for cell, where in cells:
        try:
            check_layout(cell.carrier_hz, cell.n_bs, cell.n_ue, cell.m_x,
                         cell.m_y, cell.bs_pos_m, cell.ue_pos_m,
                         cell.ris_pos_m, cell.spacing_wavelengths)
        except ValueError as exc:
            raise ConfigError(f"{where}: {exc}") from None


def load_config(path, scale: str = "desk") -> ExperimentConfig:
    return parse_config(Path(path).read_text(), scale=scale)


def apply_sweep(cfg: ExperimentConfig, value: float) -> ExperimentConfig:
    """Override the swept parameter with one sweep value."""
    name = cfg.sweep_param
    if name == "none":
        return cfg
    try:
        value = _swept(name, value)
    except ValueError as exc:
        raise ConfigError(f"sweep {exc}") from None
    if name in _RIS_AXES:
        pos = list(cfg.ris_pos_m)
        pos[_RIS_AXES.index(name)] = value
        return replace(cfg, ris_pos_m=tuple(pos))
    return replace(cfg, **{name: value})


def geometry_from(cfg: ExperimentConfig,
                  ue_offset=(0.0, 0.0)) -> SystemGeometry:
    ue = np.asarray(cfg.ue_pos_m, dtype=float)
    ue = ue + np.array([ue_offset[0], ue_offset[1], 0.0])
    return SystemGeometry.build(
        carrier_hz=cfg.carrier_hz, n_bs=cfg.n_bs, n_ue=cfg.n_ue,
        m_x=cfg.m_x, m_y=cfg.m_y, bs_mid=cfg.bs_pos_m, ue_mid=ue,
        ris_mid=cfg.ris_pos_m, spacing_wavelengths=cfg.spacing_wavelengths)


def grids_from(cfg: ExperimentConfig, geometry: SystemGeometry):
    """Sample grids centered at the nominal node positions.

    The user grid is centered at the configured (pre-jitter) position:
    training must not see the realized location.
    """
    half = cfg.range_halfwidth_wl * geometry.wavelength_m
    def grid(center):
        return SamplingGrid(x_min=center[0] - half, x_max=center[0] + half,
                            y_min=center[1] - half, y_max=center[1] + half,
                            s_x=cfg.s_x, s_y=cfg.s_y, fixed_z=center[2])
    return grid(cfg.bs_pos_m), grid(cfg.ue_pos_m)


def cell_setup(cfg: ExperimentConfig, seed: int):
    """Geometry, channel realization and sample grids of one cell.

    The seed's stream first jitters the user position uniformly by up to
    ue_jitter_frac of the range halfwidth in x and y, then draws the
    channel.  How many numbers are drawn depends only on the model and
    the path counts, which no sweep changes, so every value of a sweep
    sees the same draws, array sweeps (m_x, n_bs, ...) included.  A
    swept value can still change what a draw means: range_halfwidth_wl
    scales the jitter, and m_x or n_bs change the arrays that the drawn
    paths illuminate.  Returns (geometry, realization, grid_bs, grid_ue).
    """
    rng = rng_for(seed)
    jitter = cfg.ue_jitter_frac * cfg.range_halfwidth_wl
    lam_offsets = rng.uniform(-jitter, jitter, size=2)
    wavelength = SPEED_OF_LIGHT / cfg.carrier_hz
    geometry = geometry_from(cfg, ue_offset=tuple(lam_offsets * wavelength))
    realization = synthesize_channel(
        cfg.model, geometry, rng, n_paths_bs=cfg.paths_bs,
        n_paths_ue=cfg.paths_ue, nlos_rel_power=cfg.nlos_rel_power,
        gain_mode=cfg.gain_mode)
    return (geometry, realization, *grids_from(cfg, geometry))


def solve_cell(cfg: ExperimentConfig, seed: int) -> AOState:
    """Synthesize the seed's cell and run the alternating loop on it."""
    geometry, realization, grid_bs, grid_ue = cell_setup(cfg, seed)
    q = cfg.q or default_stream_count(cfg.model, geometry, cfg.paths_bs,
                                      cfg.paths_ue)
    return ao_loop(
        realization, geometry, p_max=cfg.p_max_w, noise_var=cfg.noise_w,
        grid_bs=grid_bs, grid_ue=grid_ue, layers=cfg.layers,
        max_iters=cfg.max_iters, tol=cfg.tol, scheme=cfg.training, q=q)


def run_cell(cfg: ExperimentConfig, seed: int,
             sweep_value: float) -> ResultRow:
    """One (seed, sweep value) cell: synthesize, optimize, report."""
    cell = apply_sweep(cfg, sweep_value)
    t0 = time.perf_counter()
    state = solve_cell(cell, seed)
    ms = (time.perf_counter() - t0) * 1000.0
    return ResultRow(seed=seed, sweep_param=cfg.sweep_param,
                     sweep_value=float(sweep_value), model=cell.model,
                     rate_bps_hz=state.rate, evaluations=state.evaluations,
                     iterations=state.iterations, ms=ms)


def _cell_job(args):
    cfg, seed, sweep_value = args
    try:
        return run_cell(cfg, seed, sweep_value), None
    except Exception as exc:  # recorded, not fatal
        row = ResultRow(seed=seed, sweep_param=cfg.sweep_param,
                        sweep_value=float(sweep_value), model=cfg.model,
                        rate_bps_hz=float("nan"), evaluations=0,
                        iterations=0, ms=0.0)
        return row, f"seed={seed} sweep_value={sweep_value}: {exc}"


def run_experiment(cfg: ExperimentConfig) -> ExperimentResult:
    """All (seed x sweep value) cells, merged in deterministic order.

    The experiment starts without training's kept work (see
    `training`), so its work, and a trace of it, is the same whatever
    ran earlier in the process.
    """
    training.drop_memos()
    jobs = [(cfg, seed, value)
            for value in cfg.sweep_values for seed in cfg.seeds]
    if cfg.workers > 1:
        # imported here so that single-worker runs, the default, neither
        # load nor keep the multi-process stack (multiprocessing, socket,
        # selectors, logging)
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=cfg.workers) as pool:
            outcomes = list(pool.map(_cell_job, jobs))
    else:
        outcomes = [_cell_job(job) for job in jobs]

    rows = [row for row, _ in outcomes]
    errors = [err for _, err in outcomes if err is not None]

    summary = []
    per_value = len(cfg.seeds)
    nan = float("nan")
    for vi, value in enumerate(cfg.sweep_values):
        rates = [row.rate_bps_hz for row, err
                 in outcomes[vi * per_value:(vi + 1) * per_value]
                 if err is None]
        mean, std = (np.mean(rates), np.std(rates)) if rates else (nan, nan)
        summary.append((cfg.sweep_param, float(value), cfg.model,
                        float(mean), float(std), len(rates)))
    return ExperimentResult(rows=rows, summary=summary, errors=errors)


def emit_results(result: ExperimentResult, path, timing: bool = False,
                 json_mirror: bool = False) -> None:
    """Write the result CSV (plus summary CSV and optional JSON mirror).

    Reals are written with 12 significant digits.  Unless timing is
    enabled the ms column is written as 0 so that reruns of the same
    config are byte-identical.
    """
    path = Path(path)
    try:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(RESULT_HEADER)
            for r in result.rows:
                ms = f"{r.ms:.12g}" if timing else "0"
                writer.writerow([r.seed, r.sweep_param,
                                 f"{r.sweep_value:.12g}", r.model,
                                 f"{r.rate_bps_hz:.12g}", r.evaluations,
                                 r.iterations, ms])
        summary_path = path.with_suffix(".summary.csv")
        with open(summary_path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["sweep_param", "sweep_value", "model",
                             "mean_rate_bps_hz", "std_rate_bps_hz", "n"])
            for param, value, model, mean, std, n in result.summary:
                writer.writerow([param, f"{value:.12g}", model,
                                 f"{mean:.12g}", f"{std:.12g}", n])
        if json_mirror:
            doc = {"rows": [asdict(r) for r in result.rows],
                   "errors": result.errors}
            with open(f"{path}.json", "w") as fh:
                json.dump(doc, fh, indent=1)
    except OSError as exc:
        raise OSError(f"cannot write results to {path}: {exc}") from exc


def parse_result_csv(path) -> list[ResultRow]:
    rows = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if tuple(header) != RESULT_HEADER:
            raise ValueError(f"unexpected result header in {path}: {header}")
        for rec in reader:
            rows.append(ResultRow(
                seed=int(rec[0]), sweep_param=rec[1],
                sweep_value=float(rec[2]), model=rec[3],
                rate_bps_hz=float(rec[4]), evaluations=int(rec[5]),
                iterations=int(rec[6]), ms=float(rec[7])))
    return rows
