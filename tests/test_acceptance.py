"""End-to-end acceptance suite.

Each test prints one PASS/FAIL line (run pytest with -s to see them all)
and asserts the stated tolerance.  Tolerances are fixed here, not
calibrated at runtime.

Known red: the model-ordering experiment (criterion 8) asserts a strict
five-way rate ordering across channel models.  Under this package's
semantics (each model tag synthesizes its own channel, and the combiner /
precoder updates use the true cascaded matrix), angular-only training on
the all-spherical channel structurally outperforms the two-stage hybrid
rows at full-scale proportions, so one link of the chain fails.  The
experiment is kept faithful rather than tuned to pass.
"""

import sys

import numpy as np
import pytest
from dataclasses import replace

from risbeam import harness
from risbeam.channel import (
    ChannelRealization,
    FarFieldSpec,
    PathSpec,
    cascade,
    exact_distances,
    far_channel,
    near_channel,
    synthesize_channel,
    taylor_distances,
    upa_response,
)
from risbeam.codebook import (
    SamplingGrid,
    angular_grid_values,
    build_ff_codebook,
    build_hybrid_codebook,
    build_nn_codebook,
)
from risbeam.geometry import LINK_BS_RIS, LINK_RIS_UE, SystemGeometry
from risbeam.optimizer import (
    ao_loop,
    default_stream_count,
    initial_precoder,
    mse_matrix,
    optimal_combiner,
    precoder_kkt,
    solve_precoder,
)
from risbeam.training import (
    angular_sweep,
    es_overhead_hybrid,
    es_overhead_nn,
    exhaustive_search,
    hierarchical_nn,
    hierarchical_overhead,
    sweep_overhead,
    two_stage_hybrid,
    two_stage_overhead,
)

from conftest import config_args

NOISE_W = 10 ** (-13.5)          # -105 dBm
DESK_P_W = 10 ** ((-50 - 30) / 10)

ES_MEASURE_CAP = 30_000          # largest baseline codebook actually scanned


def verdict(num, name, ok, detail=""):
    line = f"ACCEPTANCE {num:>2} {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  [{detail}]"
    print(line)
    if sys.stdout is not sys.__stdout__:     # visible even under capture
        print(line, file=sys.__stdout__)
    assert ok, line


def desk_cfg(**overrides):
    text = "\n".join(f"{k}: {v}" for k, v in overrides.items())
    return harness.parse_config(text, scale="desk")


def nn_channel(geometry):
    return ChannelRealization(g_bs_ris=near_channel(LINK_BS_RIS, geometry),
                              g_ris_ue=near_channel(LINK_RIS_UE, geometry),
                              model_tag="NN")


def test_01_overhead_exactness():
    mismatches = []
    for m_x in (16, 60):                       # M = 32 and 120
        g = SystemGeometry.build(30e9, n_bs=1, n_ue=1, m_x=m_x, m_y=2,
                                 bs_mid=(0, 0, 0), ue_mid=(0.24, 0, 0),
                                 ris_mid=(0.1, 0, 0.08),
                                 **config_args(SystemGeometry.build))
        m = g.m
        real = nn_channel(g)
        w = np.full((1, 1), np.sqrt(DESK_P_W), dtype=complex)
        half = 10 * g.wavelength_m
        def grid(cx, z, s):
            return SamplingGrid(x_min=cx - half, x_max=cx + half,
                                y_min=-half, y_max=half, s_x=s, s_y=s,
                                fixed_z=z)
        rep = angular_sweep(real, w, NOISE_W, g)
        if rep.evaluations != sweep_overhead(m_x, 2):
            mismatches.append(("sweep", m_x))
        for layers in range(1, 13):
            for s in (2, 4):
                hier = hierarchical_nn(real, w, NOISE_W, grid(0, 0, s),
                                       grid(0.24, 0, s), layers, g)
                if hier.evaluations != 16 * layers * (s * s) ** 2:
                    mismatches.append(("hier", m_x, layers, s))
                two = two_stage_hybrid(real, w, NOISE_W, grid(0, 0, s),
                                       layers, "NF", g)
                if two.evaluations != m + 4 * layers * s * s:
                    mismatches.append(("two", m_x, layers, s))
                # closed forms of the flat-search baselines
                if es_overhead_nn(layers, s, s) != 4 ** (layers + 1) * (s * s) ** 2:
                    mismatches.append(("es-nn-form", layers, s))
                if es_overhead_hybrid(m, layers, s, s) != m * 4 * layers * s * s:
                    mismatches.append(("es-hy-form", m, layers, s))
                # measured baselines wherever the codebook is tractable
                if es_overhead_nn(layers, s, s) <= ES_MEASURE_CAP:
                    side = grid(0, 0, s)
                    book = build_nn_codebook(
                        replace(side, s_x=2 ** (layers + 1) * s, s_y=s),
                        replace(grid(0.24, 0, s), s_x=2 ** (layers + 1) * s, s_y=s),
                        g)
                    es = exhaustive_search(real, w, NOISE_W, book)
                    if es.evaluations != es_overhead_nn(layers, s, s):
                        mismatches.append(("es-nn", m_x, layers, s))
                if es_overhead_hybrid(m, layers, s, s) <= ES_MEASURE_CAP:
                    book = build_hybrid_codebook(
                        "NF", replace(grid(0, 0, s), s_x=4 * layers * s, s_y=s), g)
                    es = exhaustive_search(real, w, NOISE_W, book)
                    if es.evaluations != es_overhead_hybrid(m, layers, s, s):
                        mismatches.append(("es-hy", m_x, layers, s))
    verdict(1, "overhead counters exact", not mismatches,
            detail=f"mismatches={mismatches[:4]}" if mismatches else
            "L=1..12, s=2,4, M=32,120")


def test_02_rank_claims(table2):
    rng = np.random.default_rng(0)

    def rand_path():
        return PathSpec(gain=complex(*rng.standard_normal(2)),
                        azimuth_aoa=rng.uniform(-1.2, 1.2),
                        elevation_aoa=rng.uniform(0.4, 2.6),
                        azimuth_aod=rng.uniform(-1.2, 1.2),
                        elevation_aod=rng.uniform(0.4, 2.6))

    los_only = ChannelRealization(
        g_bs_ris=far_channel(FarFieldSpec(LINK_BS_RIS, (rand_path(),)), table2),
        g_ris_ue=far_channel(FarFieldSpec(LINK_RIS_UE, (rand_path(),)), table2),
        model_tag="FF")
    phi = np.exp(-1j * rng.uniform(0, 2 * np.pi, table2.m))
    s = np.linalg.svd(cascade(los_only, phi), compute_uv=False)
    los_rank_one = s[1] / s[0] < 1e-10

    multi = ChannelRealization(
        g_bs_ris=far_channel(
            FarFieldSpec(LINK_BS_RIS, tuple(rand_path() for _ in range(3))), table2),
        g_ris_ue=far_channel(
            FarFieldSpec(LINK_RIS_UE, tuple(rand_path() for _ in range(3))), table2),
        model_tag="FF")
    s = np.linalg.svd(cascade(multi, phi), compute_uv=False)
    multi_rank = int(np.sum(s > 1e-8 * s[0]))

    small = SystemGeometry.build(30e9, n_bs=4, n_ue=2, m_x=8, m_y=2,
                                 bs_mid=(0, 0, 0), ue_mid=(0.24, 0, 0),
                                 ris_mid=(0.1, 0, 0.08),
                                 **config_args(SystemGeometry.build))
    s = np.linalg.svd(cascade(nn_channel(small), np.ones(small.m)),
                      compute_uv=False)
    nn_rank = int(np.sum(s > 1e-8 * s[0]))

    verdict(2, "cascaded rank structure",
            los_rank_one and multi_rank <= 3 and nn_rank == 2,
            detail=f"LoS s2/s1 ok={los_rank_one}, L=3 rank={multi_rank}, "
                   f"spherical desk rank={nn_rank}")


def test_03_hierarchical_matches_flat_search():
    cfg = desk_cfg()
    lam = 299792458.0 / cfg.carrier_hz
    half = cfg.range_halfwidth_wl * lam
    wins = 0
    worst = 1.0
    for seed in range(100):
        rng = harness.rng_for(seed)
        off = rng.uniform(-0.15 * half, 0.15 * half, 2)
        g = harness.geometry_from(cfg, ue_offset=tuple(off))
        real = nn_channel(g)
        gb, gu = harness.grids_from(cfg, g)
        q = default_stream_count("NN", g, cfg.paths_bs, cfg.paths_ue)
        w = initial_precoder(cascade(real, np.ones(g.m)), q, cfg.p_max_w)
        rep = hierarchical_nn(real, w, cfg.noise_w, gb, gu, 2, g)
        book = build_nn_codebook(replace(gb, s_x=8, s_y=8),
                                 replace(gu, s_x=8, s_y=8), g)
        es = exhaustive_search(real, w, cfg.noise_w, book)
        ratio = rep.best_rate / es.best_rate
        worst = min(worst, ratio)
        wins += ratio >= 0.99
    verdict(3, "layered search matches flat search", wins >= 90,
            detail=f"{wins}/100 instances at >=99% of flat-search rate, "
                   f"worst ratio {worst:.4f}")


def test_04_ao_monotone_and_convergent():
    cfg = desk_cfg()
    lam = 299792458.0 / cfg.carrier_hz
    half = cfg.range_halfwidth_wl * lam
    monotone = converged = total = 0
    for tag in ("FF", "NF", "FN", "NN"):
        tag_cfg = replace(cfg, model=tag)
        for seed in range(50):
            rng = harness.rng_for(seed)
            off = rng.uniform(-cfg.ue_jitter_frac * half,
                              cfg.ue_jitter_frac * half, 2)
            g = harness.geometry_from(tag_cfg, ue_offset=tuple(off))
            real = synthesize_channel(tag, g, rng, cfg.paths_bs,
                                      cfg.paths_ue, cfg.nlos_rel_power,
                                      cfg.gain_mode)
            gb, gu = harness.grids_from(tag_cfg, g)
            q = default_stream_count(tag, g, cfg.paths_bs, cfg.paths_ue)
            state = ao_loop(real, g, p_max=cfg.p_max_w, noise_var=cfg.noise_w,
                            grid_bs=gb, grid_ue=gu, layers=cfg.layers,
                            max_iters=cfg.max_iters, tol=cfg.tol,
                            scheme=cfg.training, q=q)
            total += 1
            monotone += bool(np.all(np.diff(state.rate_history) >= -1e-6))
            converged += (state.gamma < 1e-4 and state.iterations <= 20)
    verdict(4, "alternating optimization monotone and convergent",
            monotone >= 0.95 * total and converged >= 0.95 * total,
            detail=f"monotone {monotone}/{total}, converged {converged}/{total}")


def test_05_combiner_optimality():
    rng = np.random.default_rng(1)
    noise = 0.3
    beats_all = True
    worst_derivative = 0.0
    for _ in range(20):
        h = rng.standard_normal((4, 6)) + 1j * rng.standard_normal((4, 6))
        w = rng.standard_normal((6, 2)) + 1j * rng.standard_normal((6, 2))
        u_opt = optimal_combiner(h, w, noise).u
        best = np.trace(mse_matrix(h, w, u_opt, noise)).real
        for _ in range(100):
            u = rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))
            if best > np.trace(mse_matrix(h, w, u, noise)).real + 1e-12:
                beats_all = False
        eps = 1e-4
        for _ in range(100):
            d = rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))
            d /= np.linalg.norm(d)
            plus = np.trace(mse_matrix(h, w, u_opt + eps * d, noise)).real
            minus = np.trace(mse_matrix(h, w, u_opt - eps * d, noise)).real
            worst_derivative = max(worst_derivative, abs(plus - minus) / (2 * eps))
    verdict(5, "combiner minimizes the error trace",
            beats_all and worst_derivative < 1e-6,
            detail=f"stationarity residual {worst_derivative:.2e}")


def test_06_precoder_kkt():
    rng = np.random.default_rng(2)
    worst_stat = 0.0
    worst_slack = 0.0
    active = inactive = 0
    for k in range(100):
        h = rng.standard_normal((4, 6)) + 1j * rng.standard_normal((4, 6))
        u = rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))
        a0 = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        f = a0 @ a0.conj().T + 0.5 * np.eye(2)
        p_max = 1e-4 if k % 2 == 0 else 1e6
        p = solve_precoder(h, u, f, p_max)
        stationarity, slack, _ = precoder_kkt(h, u, f, p.w, p_max)
        worst_stat = max(worst_stat, stationarity)
        worst_slack = max(worst_slack, slack)
        power = float(np.sum(np.abs(p.w) ** 2))
        if p_max - power < 1e-6 * p_max:
            active += 1
        else:
            inactive += 1
    verdict(6, "precoder satisfies its optimality conditions",
            worst_stat <= 1e-8 and worst_slack <= 1e-6
            and active >= 10 and inactive >= 10,
            detail=f"stationarity {worst_stat:.2e}, slack {worst_slack:.2e}, "
                   f"{active} budget-active / {inactive} inactive")


def test_07_on_grid_alignment_gain():
    g = harness.geometry_from(desk_cfg())
    beta_g = angular_grid_values(16)[11]
    delta_g = 0.5
    el = np.arccos(delta_g)
    az = np.arcsin(beta_g * delta_g / np.sin(el))
    p_br = PathSpec(gain=1.0, azimuth_aoa=az, elevation_aoa=el,
                    azimuth_aod=0.3, elevation_aod=np.pi / 2)
    p_ru = PathSpec(gain=1.0, azimuth_aoa=0.2, elevation_aoa=np.pi / 2,
                    azimuth_aod=0.0, elevation_aod=np.pi / 2)
    real = ChannelRealization(
        g_bs_ris=far_channel(FarFieldSpec(LINK_BS_RIS, (p_br,)), g),
        g_ris_ue=far_channel(FarFieldSpec(LINK_RIS_UE, (p_ru,)), g),
        model_tag="FF")
    w = initial_precoder(cascade(real, np.ones(g.m)), 1, 1.0)
    rep = angular_sweep(real, w, NOISE_W, g)
    a_arr = upa_response(az, el, 16, 2, g) * np.sqrt(g.m)
    a_dep = upa_response(0.0, np.pi / 2, 16, 2, g) * np.sqrt(g.m)
    gain = abs(np.sum(rep.best_codeword.coeffs * a_arr * a_dep.conj()))
    verdict(7, "on-grid beam reaches coherent gain", gain >= 0.99 * g.m,
            detail=f"gain {gain:.2f} of M={g.m}")


def test_08_model_ordering(table2):
    # full-scale layout, CI-sized realization count
    half = 1000 * table2.wavelength_m
    layers = 12
    def grid(cx, z):
        return SamplingGrid(x_min=cx - half, x_max=cx + half,
                            y_min=-half, y_max=half, s_x=2, s_y=2, fixed_z=z)
    gb, gu = grid(0.0, 0.0), grid(24.0, 0.0)
    geometry_args = config_args(SystemGeometry.build, "paper")
    channel_args = config_args(synthesize_channel, "paper")
    paths = config_args(default_stream_count, "paper")
    variants = (("NN hierarchical", "NN", "auto"),
                ("NF two-stage", "NF", "auto"),
                ("FN two-stage", "FN", "auto"),
                ("NN angular-only", "NN", "angular"),
                ("FF angular", "FF", "auto"))
    means = {}
    for name, tag, scheme in variants:
        rates = []
        for seed in range(30):
            rng = harness.rng_for(seed)
            off = rng.uniform(-0.05 * half, 0.05 * half, 2)
            g = SystemGeometry.build(30e9, n_bs=16, n_ue=8, m_x=60, m_y=2,
                                     bs_mid=(0, 0, 0),
                                     ue_mid=(24 + off[0], off[1], 0),
                                     ris_mid=(10, 0, 8), **geometry_args)
            real = synthesize_channel(tag, g, rng, **channel_args)
            q = default_stream_count(tag, g, **paths)
            state = ao_loop(real, g, p_max=1.0, noise_var=NOISE_W,
                            grid_bs=gb, grid_ue=gu, layers=layers, q=q,
                            **config_args(ao_loop, "paper", scheme=scheme))
            rates.append(state.rate)
        means[name] = float(np.mean(rates))
    chain = [("NN hierarchical", "NF two-stage"),
             ("NF two-stage", "FN two-stage"),
             ("FN two-stage", "NN angular-only"),
             ("NN angular-only", "FF angular")]
    failures = [f"{a} ({means[a]:.2f}) !> {b} ({means[b]:.2f})"
                for a, b in chain if not means[a] > means[b]]
    detail = " | ".join(f"{k}={v:.2f}" for k, v in means.items())
    verdict(8, "model ordering", not failures,
            detail=detail + ("" if not failures else
                             " ; violated: " + "; ".join(failures)))


def test_09_taylor_fidelity(table2):
    worst = 0.0
    for link in (LINK_BS_RIS, LINK_RIS_UE):
        exact = exact_distances(link, table2)
        approx = taylor_distances(link, table2)
        worst = max(worst, float(np.max(np.abs(approx - exact) / exact)))
    verdict(9, "second-order distance expansion", worst < 1e-4,
            detail=f"max relative error {worst:.2e}")


def test_10_run_determinism(tmp_path):
    from risbeam import cli
    cfg = tmp_path / "det.cfg"
    cfg.write_text("model: FF\nlayers: 2\nmax_iters: 4\nseeds: [0, 1]\n"
                   "m_x: 8\nn_bs: 4\nn_ue: 2\n"
                   "sweep: power_dbm in [-55, -50]\n")
    out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
    cli.main(["run", str(cfg), "--out", str(out_a)])
    cli.main(["run", str(cfg), "--out", str(out_b)])
    same_rows = out_a.read_bytes() == out_b.read_bytes()
    same_summary = ((tmp_path / "a.summary.csv").read_bytes()
                    == (tmp_path / "b.summary.csv").read_bytes())
    verdict(10, "seeded runs byte-identical", same_rows and same_summary,
            detail=f"{len(out_a.read_bytes())} bytes compared")
