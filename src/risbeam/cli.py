"""Command-line entry point.

Subcommands:
    run <config>     run the configured sweep and write result CSVs
    codebook dump    write a codebook as CSV (index, provenance, phases)
    channel dump     write one channel realization as JSON
    validate         run the built-in invariant checks
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

import numpy as np

from . import channel, codebook, geometry, harness, optimizer, training


def config_flag(key: str, read):
    """An argparse type: a flag's text, read by `read`, held to the check
    of config key `key` as that key's value in a config would be."""
    def parse(text: str):
        try:
            return harness.CONFIG_SCHEMA[key].check(read(text))
        except ValueError as exc:
            raise argparse.ArgumentTypeError(f"{text}: {exc}") from None
    return parse


def _seed_flag(text: str) -> int:
    """--seed, held to the check of one entry of a config's seed list."""
    return config_flag("seeds", lambda t: [int(t)])(text)[0]


def seed_count(text: str) -> int:
    """A script's --seeds N, held to the check of a config's `seeds: N`;
    the seeds are 0..N-1."""
    return len(config_flag("seeds", int)(text))


def open_output(path):
    """`path` opened for writing, before any work is done; a path that
    cannot be opened ends the command as a refused config does."""
    try:
        return open(path, "w", newline="")
    except OSError as exc:
        print(f"error: {path}: {exc.strerror}", file=sys.stderr)
        sys.exit(2)


def _default_config(args) -> harness.ExperimentConfig:
    if args.config:
        cfg = harness.load_config(args.config, scale=args.scale)
    else:
        cfg = harness.parse_config("", scale=args.scale)
    if getattr(args, "seed", None) is not None:   # codebook dump has none
        cfg = replace(cfg, seeds=(args.seed,))
    if args.out:
        cfg = replace(cfg, out=args.out)
    return cfg


def _cmd_run(args) -> int:
    cfg = _default_config(args)
    for path in harness.output_paths(cfg.out, args.json):
        open_output(path).close()
    result = harness.run_experiment(cfg)
    harness.emit_results(result, cfg.out, timing=args.timing,
                         json_mirror=args.json)
    for err in result.errors:
        print(f"error: failed cell: {err}", file=sys.stderr)
    print(f"wrote {len(result.rows)} rows to {cfg.out}")
    return 1 if result.errors else 0


def _cmd_codebook(args) -> int:
    cfg = _default_config(args)
    out = args.out or f"codebook_{args.kind.lower()}.csv"
    open_output(out).close()
    geo = harness.geometry_from(cfg)
    grid_bs, grid_ue = harness.grids_from(cfg, geo)
    kind = args.kind.upper()
    if kind == "FF":
        book = codebook.build_ff_codebook(geo)
    elif kind == "NN":
        book = codebook.build_nn_codebook(grid_bs, grid_ue, geo)
    else:   # NF or FN: argparse's choices admit nothing else
        side = codebook.NEAR_SIDE[kind]
        grid = grid_bs if side == codebook.SIDE_BS else grid_ue
        book = codebook.build_hybrid_codebook(kind, grid, geo)
    book.to_csv(out)
    print(f"wrote {len(book)} codewords to {out}")
    return 0


def _cmd_channel(args) -> int:
    cfg = _default_config(args)
    if args.model:
        cfg = replace(cfg, model=args.model)
    out = args.out or f"channel_{cfg.model.lower()}.json"
    open_output(out).close()
    real = harness.channel_from(cfg, harness.geometry_from(cfg),
                                harness.rng_for(cfg.seeds[0]))
    channel.dump_channel_json(real, out)
    print(f"wrote {cfg.model} realization (M={real.m}) to {out}")
    return 0


def _cmd_validate(args) -> int:
    checks = _validation_checks(args.scale)
    failed = 0
    for name, ok in checks:
        print(f"{'PASS' if ok else 'FAIL'}  {name}")
        failed += 0 if ok else 1
    print(f"{len(checks) - failed}/{len(checks)} checks passed")
    return 1 if failed else 0


def _validation_checks(scale: str):
    """Quick invariant battery covering every module, on seed 0's `run`
    cell at the nominal user position; seconds, not minutes."""
    cfg = harness.parse_config("ue_jitter_frac: 0", scale=scale)
    geo, real, grid_bs, grid_ue = harness.cell_setup(cfg, 0)
    checks = []

    pos = geo.element_positions(geometry.NODE_RIS)
    mid_ok = np.allclose(pos.mean(axis=0), geo.ris_mid, rtol=1e-12, atol=1e-12)
    checks.append(("RIS element midpoint matches the stored midpoint", mid_ok))
    steps = np.diff(geo.element_positions(geometry.NODE_BS)[:, 0])
    checks.append(("BS element spacing equals d",
                   bool(np.allclose(steps, geo.spacing_m, rtol=1e-12))))

    ff = codebook.build_ff_codebook(geo)
    # Codebook construction itself rejects entries off the unit circle
    checks.append(("angular codebook has m_x*m_y unit-modulus codewords",
                   len(ff) == geo.m_x * geo.m_y))
    small = codebook.SamplingGrid(x_min=-1, x_max=1, y_min=-1, y_max=1,
                                  s_x=2, s_y=2, fixed_z=0.0)
    nn = codebook.build_nn_codebook(small, small, geo)
    checks.append(("doubly-sampled codebook size is (s_x*s_y)^2",
                   len(nn) == 16))

    w0 = optimizer.initial_precoder(
        channel.cascade(real, np.ones(geo.m)), 1, cfg.p_max_w)
    rep = training.hierarchical_nn(real, w0, cfg.noise_w, grid_bs, grid_ue,
                                   2, geo)
    checks.append(("hierarchical counter matches its closed form",
                   rep.evaluations == training.hierarchical_overhead(2, 2, 2)))
    rep2 = training.two_stage_hybrid(real, w0, cfg.noise_w, grid_bs, 2,
                                     "NF", geo)
    checks.append(("two-stage counter matches its closed form",
                   rep2.evaluations == training.two_stage_overhead(geo.m, 2, 2, 2)))

    rng2 = np.random.default_rng(7)
    h = rng2.standard_normal((4, 6)) + 1j * rng2.standard_normal((4, 6))
    w = rng2.standard_normal((6, 2)) + 1j * rng2.standard_normal((6, 2))
    u = optimizer.optimal_combiner(h, w, 0.5).u
    e = optimizer.mse_matrix(h, w, u, 0.5)
    f = optimizer.weight_update(e)
    p = optimizer.solve_precoder(h, u, f, p_max=1.0)
    stationarity, _, _ = optimizer.precoder_kkt(h, u, f, p.w, p_max=1.0)
    checks.append(("precoder satisfies its stationarity equation",
                   stationarity < 1e-7))

    state = harness.solve_cell(replace(cfg, layers=2, max_iters=5), 0)
    hist = np.array([r.rate for r in state.records])
    checks.append(("rate history is nondecreasing",
                   bool(np.all(np.diff(hist) >= -1e-6))))
    return checks


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="risbeam",
        description="RIS-assisted MIMO downlink experiments")
    sub = parser.add_subparsers(dest="command", required=True)

    flags = {
        "--scale": dict(choices=harness.SCALES, default="desk",
                        help="default parameter bundle (desk is CI-sized)"),
        "--seed": dict(type=_seed_flag, default=None,
                       help="replace the seed list with this single seed"),
        "--out": dict(default=None, help="output path"),
    }

    def add(p, *names):
        for name in names:
            p.add_argument(name, **flags[name])

    p_run = sub.add_parser("run", help="run a configured experiment sweep")
    p_run.add_argument("config", help="path to a key:value config file")
    add(p_run, "--scale", "--seed", "--out")
    p_run.add_argument("--timing", action="store_true",
                       help="write measured wall-clock ms (breaks byte "
                            "determinism of the CSV)")
    p_run.add_argument("--json", action="store_true",
                       help="also write a JSON mirror of the rows")
    p_run.set_defaults(func=_cmd_run)

    p_cb = sub.add_parser("codebook", help="codebook utilities")
    p_cb.add_argument("action", choices=("dump",))
    p_cb.add_argument("--kind", choices=("ff", "nn", "nf", "fn"), default="ff")
    p_cb.add_argument("--config", default=None)
    add(p_cb, "--scale", "--out")
    p_cb.set_defaults(func=_cmd_codebook)

    p_ch = sub.add_parser(
        "channel", help="channel utilities",
        description="dump: write the channel of the first seed (or --seed) "
        "as JSON.  It is the nominal-position channel: drawn from the "
        "seed's stream without the user-position jitter draw that `run` "
        "makes first, so it is not the channel that `run --seed` "
        "optimizes.  With ue_jitter_frac: 0 the two still differ in every "
        "drawn far-field link (FF, NF and FN).")
    p_ch.add_argument("action", choices=("dump",))
    p_ch.add_argument("--model", choices=channel.MODEL_TAGS, default=None)
    p_ch.add_argument("--config", default=None)
    add(p_ch, "--scale", "--seed", "--out")
    p_ch.set_defaults(func=_cmd_channel)

    p_val = sub.add_parser("validate", help="run the invariant suite")
    add(p_val, "--scale")
    p_val.set_defaults(func=_cmd_validate)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except harness.ConfigError as exc:
        # a config file the parser refuses ends the command as a bad flag does
        parser.exit(2, f"error: {args.config}: {exc}\n")


if __name__ == "__main__":
    raise SystemExit(main())
