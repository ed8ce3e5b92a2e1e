"""End-to-end acceptance suite.

Each test prints one PASS/FAIL line (run pytest with -s to see them all)
and asserts the stated tolerance.  Tolerances are fixed here, not
calibrated at runtime.

Known red: the model-ordering experiment (criterion 8) asserts a strict
five-way ordering of mean final rates over `harness.VARIANTS`, each run
through `harness.run_experiment` at the paper-scale defaults, 30 seeds.
The link "FN two-stage above NN angular-only" fails (6.49 against 8.05).
Measured on the same 30 draws, the shortfall lies in the FN channel, not
in two-stage training alone: FN's best mean under any training scheme is
7.51 (hierarchical), still below NN angular-only's 8.05, and FN two-stage
equals FN angular in all 30 cells, as its stage two never beats its own
sweep.  The experiment is kept faithful rather than tuned to pass.
"""

import sys

import numpy as np
from dataclasses import replace

from risbeam import harness
from risbeam.channel import (
    ChannelRealization,
    FarFieldSpec,
    PathSpec,
    cascade,
    exact_distances,
    far_channel,
    taylor_distances,
    upa_response,
)
from risbeam.codebook import (
    angular_grid_values,
    build_hybrid_codebook,
    build_nn_codebook,
)
from risbeam.geometry import LINK_BS_RIS, LINK_RIS_UE
from risbeam.optimizer import (
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
    sweep_overhead,
    two_stage_hybrid,
)

from conftest import desk_geometry, desk_grids, nn_realization, rand_matrix

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


def test_01_overhead_exactness():
    mismatches = []
    for m_x in (16, 60):                       # M = 32 and 120
        g = desk_geometry(n_bs=1, n_ue=1, m_x=m_x)
        m = g.m
        real = nn_realization(g)
        w = np.full((1, 1), np.sqrt(DESK_P_W), dtype=complex)
        rep = angular_sweep(real, w, NOISE_W, g)
        if rep.evaluations != sweep_overhead(m_x, 2):
            mismatches.append(("sweep", m_x))
        for layers in range(1, 13):
            for s in (2, 4):
                gb, gu = desk_grids(g, s=s)
                hier = hierarchical_nn(real, w, NOISE_W, gb, gu, layers, g)
                if hier.evaluations != 16 * layers * (s * s) ** 2:
                    mismatches.append(("hier", m_x, layers, s))
                two = two_stage_hybrid(real, w, NOISE_W, gb, layers, "NF", g)
                if two.evaluations != m + 4 * layers * s * s:
                    mismatches.append(("two", m_x, layers, s))
                # closed forms of the flat-search baselines
                if es_overhead_nn(layers, s, s) != 4 ** (layers + 1) * (s * s) ** 2:
                    mismatches.append(("es-nn-form", layers, s))
                if es_overhead_hybrid(m, layers, s, s) != m * 4 * layers * s * s:
                    mismatches.append(("es-hy-form", m, layers, s))
                # measured baselines wherever the codebook is tractable
                if es_overhead_nn(layers, s, s) <= ES_MEASURE_CAP:
                    book = build_nn_codebook(
                        replace(gb, s_x=2 ** (layers + 1) * s, s_y=s),
                        replace(gu, s_x=2 ** (layers + 1) * s, s_y=s),
                        g)
                    es = exhaustive_search(real, w, NOISE_W, book)
                    if es.evaluations != es_overhead_nn(layers, s, s):
                        mismatches.append(("es-nn", m_x, layers, s))
                if es_overhead_hybrid(m, layers, s, s) <= ES_MEASURE_CAP:
                    book = build_hybrid_codebook(
                        "NF", replace(gb, s_x=4 * layers * s, s_y=s), g)
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

    small = desk_geometry(n_bs=4, n_ue=2, m_x=8)
    s = np.linalg.svd(cascade(nn_realization(small), np.ones(small.m)),
                      compute_uv=False)
    nn_rank = int(np.sum(s > 1e-8 * s[0]))

    verdict(2, "cascaded rank structure",
            los_rank_one and multi_rank <= 3 and nn_rank == 2,
            detail=f"LoS s2/s1 ok={los_rank_one}, L=3 rank={multi_rank}, "
                   f"spherical desk rank={nn_rank}")


def test_03_hierarchical_matches_flat_search():
    cfg = desk_cfg(ue_jitter_frac=0.15)
    wins = 0
    worst = 1.0
    for seed in range(100):
        g, real, gb, gu = harness.cell_setup(cfg, seed)
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
    monotone = converged = total = 0
    for tag in ("FF", "NF", "FN", "NN"):
        for seed in range(50):
            state = harness.solve_cell(replace(cfg, model=tag), seed)
            total += 1
            rates = [r.rate for r in state.records]
            monotone += bool(np.all(np.diff(rates) >= -1e-6))
            converged += (state.records[-1].gamma < 1e-4
                          and state.iterations <= 20)
    verdict(4, "alternating optimization monotone and convergent",
            monotone >= 0.95 * total and converged >= 0.95 * total,
            detail=f"monotone {monotone}/{total}, converged {converged}/{total}")


def test_05_combiner_optimality():
    rng = np.random.default_rng(1)
    noise = 0.3
    beats_all = True
    worst_derivative = 0.0
    for _ in range(20):
        h = rand_matrix(rng, (4, 6))
        w = rand_matrix(rng, (6, 2))
        u_opt = optimal_combiner(h, w, noise).u
        best = np.trace(mse_matrix(h, w, u_opt, noise)).real
        for _ in range(100):
            u = rand_matrix(rng, (4, 2))
            if best > np.trace(mse_matrix(h, w, u, noise)).real + 1e-12:
                beats_all = False
        eps = 1e-4
        for _ in range(100):
            d = rand_matrix(rng, (4, 2))
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
        h = rand_matrix(rng, (4, 6))
        u = rand_matrix(rng, (4, 2))
        a0 = rand_matrix(rng, (2, 2))
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


def test_08_model_ordering():
    # the paper-scale layout, CI-sized realization count; the labels name
    # harness.VARIANTS in its order
    labels = ("NN hierarchical", "NF two-stage", "FN two-stage",
              "NN angular-only", "FF angular")
    means = {}
    variants = harness.variant_configs("", "paper", 30)
    for name, cfg in zip(labels, variants.values()):
        result = harness.run_experiment(cfg)
        # the summary leaves failed cells out of its mean
        assert result.errors == []
        [(_, _, _, mean, _, n)] = result.summary
        assert n == 30
        means[name] = mean
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
