import csv
import dataclasses
import errno
import json
import os
import runpy
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from risbeam import cli, harness
from risbeam.channel import load_channel_json
from risbeam.harness import (
    ConfigError,
    ExperimentResult,
    ResultRow,
    apply_sweep,
    dbm_to_watts,
    emit_results,
    geometry_from,
    grids_from,
    parse_config,
    parse_result_csv,
    rng_for,
    run_experiment,
)

ROOT = Path(__file__).resolve().parents[1]


def unreadable_config(tmp_path, kind):
    """A config path that cannot be read: a missing file, a directory or a
    file that is not UTF-8 text; with the reason its read gives."""
    path = tmp_path / "nothere.cfg"
    if kind == "directory":
        path.mkdir()
    elif kind == "binary":
        path.write_bytes(b"model: \xff\n")
    try:
        path.read_text()
    except (OSError, UnicodeDecodeError) as exc:
        return path, getattr(exc, "strerror", None) or str(exc)
    raise AssertionError(f"{path} reads")


UNREADABLE = ["missing", "directory", "binary"]

# the experiment scripts, each run as its entry point; bench_pairs.py
# drives the benchmark and has its own tests
SCRIPTS = sorted(p.stem for p in (ROOT / "scripts").glob("*.py")
                 if p.stem != "bench_pairs")
# what a script needs on its command line besides --out
SCRIPT_ARGS = {
    "variant_sweep": [str(ROOT / "configs" / "desk_power_sweep.cfg")]}

TINY = """
model: FF
layers: 2
max_iters: 4
seeds: [0, 1]
m_x: 8
n_bs: 4
n_ue: 2
"""


class TestConfigParsing:
    def test_empty_paper_config_carries_reference_values(self):
        cfg = parse_config("", scale="paper")
        assert cfg.carrier_hz == 30e9
        assert cfg.noise_dbm == -105.0
        assert cfg.power_dbm == 30.0
        assert cfg.p_max_w == pytest.approx(1.0)
        assert cfg.bs_pos_m == (0.0, 0.0, 0.0)
        assert cfg.ue_pos_m == (24.0, 0.0, 0.0)
        assert cfg.ris_pos_m == (10.0, 0.0, 8.0)
        assert (cfg.n_bs, cfg.n_ue, cfg.m_x, cfg.m_y) == (16, 8, 60, 2)
        assert cfg.spacing_wavelengths == 0.5
        assert cfg.paths_bs == cfg.paths_ue == 3  # LoS + two scattered paths
        assert cfg.layers == 12

    def test_desk_defaults_shrink_the_layout(self):
        cfg = parse_config("")
        assert cfg.ue_pos_m == (0.24, 0.0, 0.0)
        assert cfg.ris_pos_m == (0.1, 0.0, 0.08)
        assert (cfg.n_bs, cfg.n_ue, cfg.m_x, cfg.m_y) == (8, 4, 16, 2)
        assert cfg.power_dbm == -50.0

    def test_power_conversion(self):
        cfg = parse_config("power_dbm: 30")
        assert cfg.p_max_w == pytest.approx(1.0, rel=1e-15)
        assert dbm_to_watts(-105.0) == pytest.approx(10 ** -13.5, rel=1e-15)

    def test_sweep_parse(self):
        cfg = parse_config("sweep: ris_z in [2, 4, 6, 8, 10]")
        assert cfg.sweep_param == "ris_z"
        assert cfg.sweep_values == (2.0, 4.0, 6.0, 8.0, 10.0)

    def test_sweep_roundtrips_through_apply(self):
        cfg = parse_config("sweep: ris_z in [2, 4]", scale="paper")
        swept = apply_sweep(cfg, 4.0)
        assert swept.ris_pos_m == (10.0, 0.0, 4.0)
        swept = apply_sweep(parse_config("sweep: power_dbm in [0]"), 0.0)
        assert swept.p_max_w == pytest.approx(1e-3)

    def test_unknown_key_is_line_anchored(self):
        with pytest.raises(ConfigError, match=r"line 3: unknown key 'fnord'"):
            parse_config("model: NN\n\nfnord: 1\n")

    def test_multiple_sweeps_rejected(self):
        text = "sweep: ris_z in [1]\nsweep: power_dbm in [0]\n"
        with pytest.raises(ConfigError, match="line 2: multiple sweep"):
            parse_config(text)

    def test_unknown_sweep_parameter(self):
        with pytest.raises(ConfigError, match="unknown sweep parameter"):
            parse_config("sweep: bs_height in [1, 2]")

    def test_out_of_range_value(self):
        with pytest.raises(ConfigError, match=r"line 1: n_bs"):
            parse_config("n_bs: -2")
        with pytest.raises(ConfigError, match="tol"):
            parse_config("tol: 0")
        with pytest.raises(ConfigError, match="model"):
            parse_config("model: XY")

    def test_seed_forms(self):
        assert parse_config("seeds: 3").seeds == (0, 1, 2)
        assert parse_config("seeds: [5, 9]").seeds == (5, 9)
        with pytest.raises(ConfigError):
            parse_config("seeds: [-1]")

    def test_seeds_span_the_philox_key_word(self):
        top = 2**64 - 1
        cfg = parse_config(f"seeds: [0, {top}]")
        assert cfg.seeds == (0, top)
        rng_for(top)
        for bad in (f"{top + 1}", "1.9e19", f"{10**400}"):
            with pytest.raises(ConfigError,
                               match=r"line 2: seeds must be < 2\*\*64"):
                parse_config(f"model: FF\nseeds: [0, {bad}]")

    def test_comments_and_blank_lines_ignored(self):
        cfg = parse_config("# a comment\n\nmodel: FF  # trailing\n")
        assert cfg.model == "FF"

    def test_default_sweep_is_singleton(self):
        cfg = parse_config("")
        assert cfg.sweep_param == "none"
        assert cfg.sweep_values == (0.0,)

    def test_integer_sweep_rejects_fractional_values(self):
        cfg = parse_config("sweep: m_x in [8]")
        apply_sweep(cfg, 8.0)
        with pytest.raises(ConfigError, match="must be an integer"):
            parse_config("sweep: m_x in [8, 8.5]")


class TestGeometryBuilding:
    def test_nominal_positions(self):
        cfg = parse_config("", scale="paper")
        g = geometry_from(cfg)
        np.testing.assert_allclose(g.ue_mid, [24, 0, 0])
        assert g.spacing_m == pytest.approx(g.wavelength_m / 2)

    def test_jitter_offset_applied_to_user_only(self):
        cfg = parse_config("", scale="paper")
        g = geometry_from(cfg, ue_offset=(0.5, -0.25))
        np.testing.assert_allclose(g.ue_mid, [24.5, -0.25, 0])
        np.testing.assert_allclose(g.bs_mid, [0, 0, 0])

    def test_grids_centered_at_nominal_nodes(self):
        cfg = parse_config("", scale="paper")
        g = geometry_from(cfg, ue_offset=(1.0, 1.0))
        gb, gu = grids_from(cfg, g)
        half = 1000 * g.wavelength_m
        assert gu.x_min == pytest.approx(24 - half)
        assert gu.x_max == pytest.approx(24 + half)
        assert gb.fixed_z == 0.0


class TestRng:
    def test_counter_keyed_streams_are_stable(self):
        a = rng_for(7).standard_normal(4)
        b = rng_for(7).standard_normal(4)
        c = rng_for(8).standard_normal(4)
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)


class TestRunExperiment:
    def test_single_cell(self):
        cfg = parse_config("model: FF\nseeds: [0]\nmax_iters: 3\nlayers: 1")
        result = run_experiment(cfg)
        assert len(result.rows) == 1
        row = result.rows[0]
        assert row.model == "FF"
        assert row.rate_bps_hz > 0
        assert row.evaluations == row.iterations * cfg.m_x * cfg.m_y
        assert not result.errors

    def test_determinism_across_runs_and_workers(self, tmp_path):
        # whole rows, records included, which cross the process pool
        # pickled; ms is wall-clock
        cfg = parse_config(TINY + "sweep: power_dbm in [-50, -45]\n")
        r1 = run_experiment(cfg)
        r2 = run_experiment(cfg)
        cfg2 = dataclasses.replace(cfg, workers=2)
        r3 = run_experiment(cfg2)
        rows = [[dataclasses.replace(row, ms=0.0) for row in r.rows]
                for r in (r1, r2, r3)]
        assert rows[0] == rows[1] == rows[2]
        for row in rows[0]:
            assert row.records[-1].rate == row.rate_bps_hz
            assert row.records[-1].t == row.iterations

    # run in a fresh interpreter: pytest itself may have loaded these
    POOL_PROBE = """
import json, sys
from risbeam import harness
harness.emit_results(harness.run_experiment(harness.parse_config(sys.argv[1])),
                     sys.argv[2])
print(json.dumps({m: m in sys.modules
                  for m in ("concurrent.futures.process", "multiprocessing")}))
"""

    def test_process_pool_loaded_only_for_several_workers(self, tmp_path):
        env = dict(os.environ, PYTHONPATH=str(
            Path(__file__).resolve().parents[1] / "src"))
        loaded, csvs = {}, {}
        for workers in (1, 2):
            text = TINY.replace("seeds: [0, 1]", "seeds: [0]") \
                + f"workers: {workers}\n"
            out = tmp_path / f"w{workers}.csv"
            done = subprocess.run(
                [sys.executable, "-c", self.POOL_PROBE, text, str(out)],
                env=env, check=True, capture_output=True, text=True)
            loaded[workers] = json.loads(done.stdout)
            csvs[workers] = out.read_bytes()
        assert loaded[1] == {"concurrent.futures.process": False,
                             "multiprocessing": False}
        assert loaded[2]["concurrent.futures.process"]
        assert csvs[1] == csvs[2]

    def test_failed_cell_recorded_not_fatal(self):
        # 60 layers shrink the desk ranges until a layer's quadrants
        # degenerate, which fails inside the cell
        cfg = parse_config("model: NN\nlayers: 60\nseeds: [0]\n")
        result = run_experiment(cfg)
        # the message names the cell first and then the exception's class
        assert result.errors == [
            "seed=0 sweep_value=0.0: ValueError: degenerate sampling range"]
        assert np.isnan(result.rows[0].rate_bps_hz)

    def test_variant_sweep_reports_failed_cells(self, tmp_path, monkeypatch,
                                                capsys):
        cfg = tmp_path / "deep.cfg"
        cfg.write_text("model: NN\nlayers: 60\nsweep: power_dbm in [0]\n")
        out = tmp_path / "variants.csv"
        monkeypatch.setattr(sys, "argv", ["variant_sweep.py", str(cfg),
                                          "--seeds", "2", "--out", str(out)])
        with pytest.raises(SystemExit) as exited:
            runpy.run_path(str(ROOT / "scripts" / "variant_sweep.py"),
                           run_name="__main__")
        assert exited.value.code == 1
        # every refining variant descends until its ranges degenerate, so
        # their two cells raise each; the angular sweeps do not refine
        refining = ("NN-hierarchical", "NF-two-stage", "FN-two-stage")
        assert capsys.readouterr().err.splitlines() == [
            f"error: {name}: failed cell: seed={seed} sweep_value=0.0: "
            "ValueError: degenerate sampling range"
            for name in refining for seed in (0, 1)]
        rows = out.read_text().splitlines()
        assert len(rows) == 1 + len(harness.VARIANTS)
        assert rows[1:4] == [f"{name},0,nan,nan,0" for name in refining]
        assert all(row.endswith(",2") for row in rows[4:])

    def test_convergence_curves_reports_failed_cells(self, tmp_path,
                                                     monkeypatch, capsys):
        script = str(ROOT / "scripts" / "convergence_curves.py")
        def run(out):
            monkeypatch.setattr(sys, "argv", ["convergence_curves.py",
                                              "--seeds", "2", "--out", out])
            runpy.run_path(script, run_name="__main__")
        clean = tmp_path / "clean.csv"
        run(str(clean))
        solve_cell = harness.solve_cell
        def failing(cfg, seed):
            if (cfg.model, seed) == ("FN", 1):
                raise RuntimeError("boom")
            return solve_cell(cfg, seed)
        monkeypatch.setattr(harness, "solve_cell", failing)
        capsys.readouterr()
        out = tmp_path / "failed.csv"
        with pytest.raises(SystemExit) as exited:
            run(str(out))
        assert exited.value.code == 1
        assert capsys.readouterr().err.splitlines() == [
            "error: FN-two-stage: failed cell: seed=1 sweep_value=0.0: "
            "RuntimeError: boom"]
        # every other cell keeps its rows, in order
        kept = [line for line in clean.read_text().splitlines()
                if not line.startswith("FN-two-stage,1,")]
        assert len(kept) < len(clean.read_text().splitlines())
        assert out.read_text().splitlines() == kept

    @pytest.mark.parametrize("base", ["NF", "NN"])
    def test_variant_sweep_checks_each_variant_config(self, tmp_path,
                                                      monkeypatch, capsys,
                                                      base):
        # layers 0 refuses hierarchical training only, whatever the
        # base model: the other variants run
        cfg = tmp_path / "flat.cfg"
        cfg.write_text(f"model: {base}\nlayers: 0\nsweep: power_dbm in [0]\n")
        out = tmp_path / "variants.csv"
        monkeypatch.setattr(sys, "argv", ["variant_sweep.py", str(cfg),
                                          "--seeds", "1", "--out", str(out)])
        with pytest.raises(SystemExit) as exited:
            runpy.run_path(str(ROOT / "scripts" / "variant_sweep.py"),
                           run_name="__main__")
        assert exited.value.code == 1
        assert capsys.readouterr().err.splitlines() == [
            "error: NN-hierarchical: config rejected: line 2: layers 0 "
            "fails every cell: hierarchical training requires layers >= 1"]
        rows = out.read_text().splitlines()
        assert rows[1] == "NN-hierarchical,0,nan,nan,0"
        assert len(rows) == 1 + len(harness.VARIANTS)
        assert all(row.endswith(",1") for row in rows[2:])

    def test_variant_sweep_refused_by_every_variant_writes_nothing(
            self, tmp_path, monkeypatch, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("n_bs: 0\n")
        out = tmp_path / "variants.csv"
        monkeypatch.setattr(sys, "argv", ["variant_sweep.py", str(cfg),
                                          "--out", str(out)])
        with pytest.raises(SystemExit) as exited:
            runpy.run_path(str(ROOT / "scripts" / "variant_sweep.py"),
                           run_name="__main__")
        assert exited.value.code == 2
        assert capsys.readouterr().err == \
            f"error: {cfg}: line 1: n_bs must be >= 1\n"
        assert not out.exists()

    @pytest.mark.parametrize("kind", UNREADABLE)
    def test_variant_sweep_unreadable_config_writes_nothing(
            self, tmp_path, monkeypatch, capsys, kind):
        cfg, reason = unreadable_config(tmp_path, kind)
        out = tmp_path / "variants.csv"
        monkeypatch.setattr(sys, "argv", ["variant_sweep.py", str(cfg),
                                          "--out", str(out)])
        with pytest.raises(SystemExit) as exited:
            runpy.run_path(str(ROOT / "scripts" / "variant_sweep.py"),
                           run_name="__main__")
        assert exited.value.code == 2
        assert capsys.readouterr().err == f"error: {cfg}: {reason}\n"
        assert not out.exists()

    @pytest.mark.parametrize("count", ["0", "-2"])
    @pytest.mark.parametrize("script", ["variant_sweep", "convergence_curves",
                                        "rate_vs_layers"])
    def test_script_seed_counts_checked_as_config_seeds(
            self, tmp_path, monkeypatch, capsys, script, count):
        config = [str(ROOT / "configs" / "desk_power_sweep.cfg")] \
            if script == "variant_sweep" else []
        out = tmp_path / "out.csv"
        monkeypatch.setattr(sys, "argv", [f"{script}.py", *config, "--seeds",
                                          count, "--out", str(out)])
        with pytest.raises(SystemExit) as exited:
            runpy.run_path(str(ROOT / "scripts" / f"{script}.py"),
                           run_name="__main__")
        assert exited.value.code == 2
        assert f"--seeds: {count}: must be >= 1" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("script, flag, value", [
        ("overhead_vs_step", "--s", "0"),
        ("overhead_vs_step", "--s", "-1"),
        ("overhead_vs_step", "--m", "0"),
        ("overhead_vs_step", "--range-d", "-5"),
        ("overhead_vs_step", "--max-layers", "-2"),
        ("rate_vs_layers", "--max-layers", "-2"),
    ])
    def test_script_flags_checked_as_their_config_keys(
            self, tmp_path, monkeypatch, capsys, script, flag, value):
        out = tmp_path / "out.csv"
        monkeypatch.setattr(sys, "argv", [f"{script}.py", flag, value,
                                          "--out", str(out)])
        with pytest.raises(SystemExit) as exited:
            runpy.run_path(str(ROOT / "scripts" / f"{script}.py"),
                           run_name="__main__")
        assert exited.value.code == 2
        # the reason is the config key's: "must be >= 1", "must be >= 0" for
        # --max-layers, "must be a positive number" for --range-d
        assert f"argument {flag}: {value}: must be" in capsys.readouterr().err
        assert not out.exists()

    def test_sweep_values_see_the_same_draws(self):
        base = "model: FF\nseeds: [0, 1]\nmax_iters: 2\n"
        alone = run_experiment(parse_config(base + "sweep: power_dbm in [-50]"))
        paired = run_experiment(
            parse_config(base + "sweep: power_dbm in [-60, -50]"))
        assert not alone.errors and not paired.errors
        def cells(rows):
            return [(r.seed, r.sweep_value, r.rate_bps_hz, r.evaluations,
                     r.iterations) for r in rows]
        assert cells(paired.rows[2:]) == cells(alone.rows)
        assert paired.summary[1] == alone.summary[0]

    def test_summary_counts_successful_cells_only(self, tmp_path):
        base = "model: NN\nseeds: [0, 1]\nmax_iters: 2\n"
        result = run_experiment(parse_config(base + "sweep: layers in [0, 1]"))
        alone = run_experiment(parse_config(base + "sweep: layers in [1]"))
        assert len(result.errors) == 2
        _, value, _, mean, std, n = result.summary[0]
        assert value == 0 and np.isnan(mean) and np.isnan(std) and n == 0
        assert result.summary[1] == alone.summary[0]
        emit_results(result, tmp_path / "r.csv")
        lines = (tmp_path / "r.summary.csv").read_text().splitlines()
        assert lines[1] == "layers,0,NN,nan,nan,0"

    def test_aggregation_matches_independent_reimplementation(self):
        cfg = parse_config(TINY + "sweep: power_dbm in [-50, -45]\n")
        result = run_experiment(cfg)
        for vi, value in enumerate(cfg.sweep_values):
            rates = [r.rate_bps_hz for r in result.rows
                     if r.sweep_value == value]
            mean = sum(rates) / len(rates)
            var = sum((r - mean) ** 2 for r in rates) / len(rates)
            _, got_value, _, got_mean, got_std, got_n = result.summary[vi]
            assert got_value == value
            assert abs(got_mean - mean) <= 1e-12 * max(abs(mean), 1)
            assert abs(got_std - var ** 0.5) <= 1e-12 * max(var ** 0.5, 1)
            assert got_n == len(rates)


class TestEmit:
    def row(self, **kw):
        args = dict(seed=3, sweep_param="power_dbm", sweep_value=-45.0,
                    model="NN", rate_bps_hz=1.0 / 3.0, evaluations=256,
                    iterations=7, ms=123.456, records=())
        args.update(kw)
        return ResultRow(**args)

    def test_golden_layout(self, tmp_path):
        result = ExperimentResult(
            rows=[self.row()],
            summary=[("power_dbm", -45.0, "NN", 1.0 / 3.0, 0.0, 1)],
            errors=[])
        out = tmp_path / "r.csv"
        emit_results(result, out)
        text = out.read_text()
        assert text.splitlines() == [
            "seed,sweep_param,sweep_value,model,rate_bps_hz,evaluations,iterations,ms",
            "3,power_dbm,-45,NN,0.333333333333,256,7,0",
        ]
        summary = (tmp_path / "r.summary.csv").read_text().splitlines()
        assert summary[0] == "sweep_param,sweep_value,model,mean_rate_bps_hz,std_rate_bps_hz,n"
        assert summary[1] == "power_dbm,-45,NN,0.333333333333,0,1"

    def test_timing_column_opt_in(self, tmp_path):
        result = ExperimentResult(rows=[self.row()], summary=[], errors=[])
        out = tmp_path / "t.csv"
        emit_results(result, out, timing=True)
        assert out.read_text().splitlines()[1].endswith(",123.456")

    def test_roundtrip_is_formatting_fixed_point(self, tmp_path):
        rows = [self.row(seed=s, rate_bps_hz=np.pi * (s + 1)) for s in range(3)]
        result = ExperimentResult(rows=rows, summary=[], errors=[])
        first = tmp_path / "a.csv"
        emit_results(result, first)
        parsed = parse_result_csv(first)
        result2 = ExperimentResult(rows=parsed, summary=[], errors=[])
        second = tmp_path / "b.csv"
        emit_results(result2, second)
        assert first.read_text() == second.read_text()
        for orig, back in zip(rows, parsed):
            assert back.rate_bps_hz == pytest.approx(orig.rate_bps_hz, rel=1e-11)

    def test_json_mirror(self, tmp_path):
        result = ExperimentResult(rows=[self.row()], summary=[], errors=["x"])
        out = tmp_path / "m.csv"
        emit_results(result, out, json_mirror=True)
        doc = json.loads((tmp_path / "m.csv.json").read_text())
        assert doc["rows"][0]["seed"] == 3
        assert doc["errors"] == ["x"]

    def test_unwritable_path_raises_with_context(self, tmp_path):
        result = ExperimentResult(rows=[], summary=[], errors=[])
        bad = tmp_path / "nope" / "r.csv"
        with pytest.raises(OSError, match="nope"):
            emit_results(result, bad)

    def test_header_only_for_empty_table(self, tmp_path):
        out = tmp_path / "e.csv"
        emit_results(ExperimentResult(rows=[], summary=[], errors=[]), out)
        assert out.read_text().splitlines() == [
            "seed,sweep_param,sweep_value,model,rate_bps_hz,evaluations,iterations,ms"]


class TestCli:
    def write_config(self, tmp_path, text=TINY):
        path = tmp_path / "exp.cfg"
        path.write_text(text)
        return path

    def test_run_writes_results(self, tmp_path, capsys):
        cfg = self.write_config(tmp_path)
        out = tmp_path / "res.csv"
        rc = cli.main(["run", str(cfg), "--out", str(out)])
        assert rc == 0
        rows = parse_result_csv(out)
        assert len(rows) == 2
        assert "wrote 2 rows" in capsys.readouterr().out

    def test_run_seed_override(self, tmp_path):
        cfg = self.write_config(tmp_path)
        out = tmp_path / "res.csv"
        cli.main(["run", str(cfg), "--seed", "5", "--out", str(out)])
        rows = parse_result_csv(out)
        assert [r.seed for r in rows] == [5]

    def test_run_seed_override_at_the_top_seed(self, tmp_path):
        cfg = self.write_config(tmp_path)
        out = tmp_path / "res.csv"
        assert cli.main(["run", str(cfg), "--seed", str(2**64 - 1),
                         "--out", str(out)]) == 0
        assert [r.seed for r in parse_result_csv(out)] == [2**64 - 1]

    @pytest.mark.parametrize("seed, message", [
        ("-1", "must be >= 0"), (str(2**64), "must be < 2**64"),
        ("x", "invalid literal")])
    def test_seed_override_checked_as_config_seeds(self, tmp_path, capsys,
                                                   seed, message):
        cfg = self.write_config(tmp_path)
        with pytest.raises(SystemExit) as exited:
            cli.main(["run", str(cfg), "--seed", seed,
                      "--out", str(tmp_path / "res.csv")])
        assert exited.value.code == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "res.csv").exists()

    def test_run_json_mirror_holds_the_csv_fields(self, tmp_path):
        cfg = self.write_config(tmp_path)
        out = tmp_path / "res.csv"
        assert cli.main(["run", str(cfg), "--out", str(out), "--json"]) == 0
        mirror = json.loads((tmp_path / "res.csv.json").read_text())["rows"]
        with open(out, newline="") as fh:
            table = list(csv.reader(fh))
        assert len(mirror) == len(table) - 1 == 2
        for row, cells in zip(mirror, table[1:]):
            assert tuple(row) == harness.RESULT_HEADER
            # reals as the CSV writes them: 12 digits, and ms 0 untimed
            assert [f"{v:.12g}" if isinstance(v, float) else str(v)
                    for v in row.values()] == cells

    @pytest.mark.parametrize("entry, bad", [
        *((entry, bad) for entry in ["run", "run-out-key", "codebook",
                                     "channel", *SCRIPTS]
          for bad in ["missing", "directory"]),
        *((entry, bad) for entry in ["run", "run-out-key"]
          for bad in ["summary", "json"])])
    def test_unwritable_output_refused_before_any_work(
            self, tmp_path, monkeypatch, capsys, entry, bad):
        # a missing directory, or an existing directory given as the path;
        # for a run also as its summary path, or as its mirror's path
        # under --json
        out = tmp_path / "res.csv"
        # the refused path, and the paths a run claims before it
        refused, claimed = {
            "missing": (tmp_path / "missing" / "res.csv", []),
            "directory": (tmp_path / "res", []),
            "summary": (tmp_path / "res.summary.csv", [out]),
            "json": (tmp_path / "res.csv.json",
                     [out, tmp_path / "res.summary.csv"])}[bad]
        if bad in ("missing", "directory"):
            out = refused
        if bad != "missing":
            refused.mkdir()
        cfg = self.write_config(
            tmp_path, TINY + (f"out: {out}\n" if entry == "run-out-key"
                              else ""))
        calls = []
        for name in ("run_experiment", "cell_setup"):
            monkeypatch.setattr(harness, name,
                                lambda *a, name=name: calls.append(name))
        monkeypatch.chdir(tmp_path)
        made = sorted(tmp_path.rglob("*"))
        mirror = ["--json"] if bad == "json" else []
        argv = {"run": ["run", str(cfg), "--out", str(out), *mirror],
                "run-out-key": ["run", str(cfg), *mirror],
                "codebook": ["codebook", "dump", "--out", str(out)],
                "channel": ["channel", "dump", "--out", str(out)]}
        with pytest.raises(SystemExit) as exited:
            if entry in argv:
                cli.main(argv[entry])
            else:
                monkeypatch.setattr(sys, "argv", [
                    f"{entry}.py", *SCRIPT_ARGS.get(entry, ()),
                    "--out", str(out)])
                runpy.run_path(str(ROOT / "scripts" / f"{entry}.py"),
                               run_name="__main__")
        assert exited.value.code == 2
        reason = os.strerror(errno.ENOENT if bad == "missing"
                             else errno.EISDIR)
        assert capsys.readouterr().err == f"error: {refused}: {reason}\n"
        assert calls == []
        # a run claims its CSV, its summary and its mirror in that order:
        # the paths claimed before the refused one are left empty, and
        # nothing else is new
        assert sorted(tmp_path.rglob("*")) == sorted(made + claimed)
        assert all(path.stat().st_size == 0 for path in claimed)

    @pytest.mark.parametrize("argv", [
        ["run", "{cfg}"], ["codebook", "dump", "--config", "{cfg}"],
        ["channel", "dump", "--config", "{cfg}"]],
        ids=["run", "codebook", "channel"])
    def test_refused_config_ends_as_a_bad_flag(self, tmp_path, monkeypatch,
                                               capsys, argv):
        cfg = self.write_config(tmp_path, "n_bs: 0\n")
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exited:
            cli.main([arg.format(cfg=cfg) for arg in argv]
                     + ["--out", str(tmp_path / "out")])
        assert exited.value.code == 2
        assert capsys.readouterr().err == \
            f"error: {cfg}: line 1: n_bs must be >= 1\n"
        assert sorted(tmp_path.iterdir()) == [cfg]

    @pytest.mark.parametrize("kind", UNREADABLE)
    @pytest.mark.parametrize("argv", [
        ["run", "{cfg}"], ["codebook", "dump", "--config", "{cfg}"],
        ["channel", "dump", "--config", "{cfg}"]],
        ids=["run", "codebook", "channel"])
    def test_unreadable_config_ends_as_a_refused_one(
            self, tmp_path, monkeypatch, capsys, argv, kind):
        cfg, reason = unreadable_config(tmp_path, kind)
        made = sorted(tmp_path.iterdir())
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exited:
            cli.main([arg.format(cfg=cfg) for arg in argv]
                     + ["--out", str(tmp_path / "out")])
        assert exited.value.code == 2
        assert capsys.readouterr().err == f"error: {cfg}: {reason}\n"
        assert sorted(tmp_path.iterdir()) == made

    @pytest.mark.parametrize("label, model, scheme", harness.VARIANTS,
                             ids=[v[0] for v in harness.VARIANTS])
    @settings(max_examples=2, deadline=None)
    @given(seeds=st.lists(st.integers(0, 99), min_size=1, max_size=3,
                          unique=True))
    def test_run_bytes_independent_of_workers(self, tmp_path_factory, label,
                                              model, scheme, seeds):
        tmp = tmp_path_factory.mktemp("workers")
        outputs = []
        for workers in (1, 2):
            cfg = self.write_config(
                tmp, TINY.replace("model: FF", f"model: {model}")
                .replace("seeds: [0, 1]", f"seeds: {seeds}")
                + f"training: {scheme}\nworkers: {workers}\n")
            out = tmp / f"w{workers}.csv"
            assert cli.main(["run", str(cfg), "--out", str(out)]) == 0
            outputs.append((out.read_bytes(),
                            out.with_suffix(".summary.csv").read_bytes()))
        assert outputs[0] == outputs[1]

    def test_codebook_dump(self, tmp_path):
        out = tmp_path / "book.csv"
        rc = cli.main(["codebook", "dump", "--kind", "ff", "--out", str(out)])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 1 + 32  # desk grid: 16 * 2 codewords

    def test_channel_dump_roundtrips(self, tmp_path):
        out = tmp_path / "chan.json"
        rc = cli.main(["channel", "dump", "--model", "NF", "--seed", "3",
                       "--out", str(out)])
        assert rc == 0
        real = load_channel_json(out)
        assert real.model_tag == "NF"
        assert real.g_bs_ris.shape == (32, 8)
        # the nominal channel: the seed's stream without the jitter draw
        cfg = parse_config("model: NF")
        nominal = harness.channel_from(cfg, geometry_from(cfg), rng_for(3))
        for got, want in ((real.g_bs_ris, nominal.g_bs_ris),
                          (real.g_ris_ue, nominal.g_ris_ue)):
            assert got.tobytes() == want.tobytes()
        _, jittered, _, _ = harness.cell_setup(cfg, 3)
        assert not np.array_equal(real.g_ris_ue, jittered.g_ris_ue)

    @pytest.mark.parametrize("argv", [
        ["validate", "--seed", "1"], ["validate", "--out", "x"],
        ["codebook", "dump", "--seed", "1"]],
        ids=["validate-seed", "validate-out", "codebook-seed"])
    def test_unread_flags_are_rejected(self, tmp_path, monkeypatch, capsys,
                                       argv):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exited:
            cli.main(argv)
        assert exited.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_validate_passes(self, capsys):
        rc = cli.main(["validate"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "FAIL" not in out
        assert "checks passed" in out
