import math
import statistics
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from risbeam.channel import cascade, synthesize_channel
from risbeam import optimizer, training
from risbeam.harness import VARIANTS, cell_setup, parse_config, solve_cell
from risbeam.optimizer import (
    Combiner,
    Precoder,
    achievable_rate,
    ao_loop,
    default_stream_count,
    initial_precoder,
    mse_matrix,
    optimal_combiner,
    precoder_kkt,
    solve_precoder,
    weight_update,
)
from risbeam.training import rates_for_phase_batch

from conftest import config_args, desk_cell, rand_matrix

NOISE = 0.5


class TestAchievableRate:
    def test_zero_precoder(self):
        rng = np.random.default_rng(0)
        h = rand_matrix(rng, (4, 6))
        assert achievable_rate(h, np.zeros((6, 2)), NOISE) == 0.0

    def test_rank_one_scalar_reduction(self):
        rng = np.random.default_rng(1)
        u = rand_matrix(rng, (4,))
        v = rand_matrix(rng, (6,))
        w = rand_matrix(rng, (6, 1))
        h = np.outer(u, v.conj())
        expected = np.log2(1 + np.abs(v.conj() @ w[:, 0]) ** 2
                           * np.linalg.norm(u) ** 2 / NOISE)
        assert achievable_rate(h, w, NOISE) == pytest.approx(expected, rel=1e-12)

    def test_rate_decreases_with_noise(self):
        rng = np.random.default_rng(2)
        h, w = rand_matrix(rng, (4, 6)), rand_matrix(rng, (6, 3))
        assert achievable_rate(h, w, 2 * NOISE) < achievable_rate(h, w, NOISE)

    def test_determinant_identity(self):
        # log2|I_nu + HWW^H H^H/s2| == log2|I_q + W^H H^H H W/s2|
        rng = np.random.default_rng(3)
        h, w = rand_matrix(rng, (4, 6)), rand_matrix(rng, (6, 3))
        b = h @ w
        direct = np.log2(np.linalg.det(np.eye(4) + b @ b.conj().T / NOISE).real)
        gram = np.log2(np.linalg.det(np.eye(3) + b.conj().T @ b / NOISE).real)
        got = achievable_rate(h, w, NOISE)
        assert got == pytest.approx(direct, rel=1e-9)
        assert got == pytest.approx(gram, rel=1e-9)

    @pytest.mark.parametrize("noise_var", [0.0, -1e-12, np.nan])
    @pytest.mark.parametrize("fn", [achievable_rate, optimal_combiner])
    def test_nonpositive_noise_rejected(self, fn, noise_var):
        with pytest.raises(ValueError, match="noise_var must be positive"):
            fn(np.eye(3), np.ones((3, 1)), noise_var)

    def test_batch_matches_scalar_evaluation(self):
        g, real, _, _ = desk_cell()
        rng = np.random.default_rng(4)
        w = rand_matrix(rng, (g.n_bs, 2)) * 1e-5
        phis = np.exp(-1j * rng.uniform(0, 2 * np.pi, (5, g.m)))
        batch = rates_for_phase_batch(real, phis, w, 1e-13)
        from risbeam.channel import cascade
        singles = [achievable_rate(cascade(real, p), w, 1e-13) for p in phis]
        np.testing.assert_allclose(batch, singles, rtol=1e-10)


class TestMseMatrix:
    def test_zero_combiner_gives_identity(self):
        rng = np.random.default_rng(5)
        h, w = rand_matrix(rng, (4, 6)), rand_matrix(rng, (6, 3))
        np.testing.assert_allclose(mse_matrix(h, w, np.zeros((4, 3)), NOISE),
                                   np.eye(3))

    def test_perfectly_equalized_orthonormal_combiner(self):
        # U^H H W = I with orthonormal U columns -> E = noise * I
        q = 3
        u = np.linalg.qr(rand_matrix(np.random.default_rng(6), (5, q)))[0]
        h = np.eye(5)
        w = u  # then U^H H W = U^H U = I
        e = mse_matrix(h, w, u, NOISE)
        np.testing.assert_allclose(e, NOISE * np.eye(q), atol=1e-12)

    def test_monte_carlo_oracle(self):
        rng = np.random.default_rng(7)
        h, w = rand_matrix(rng, (4, 6)), 0.4 * rand_matrix(rng, (6, 2))
        u = 0.3 * rand_matrix(rng, (4, 2))
        e = mse_matrix(h, w, u, NOISE)
        n_draws = 100_000
        x = rand_matrix(rng, (n_draws, 2)) / np.sqrt(2)
        noise = np.sqrt(NOISE / 2) * rand_matrix(rng, (n_draws, 4))
        y = (h @ w @ x.T).T + noise
        err = (u.conj().T @ y.T).T - x
        mc = np.mean(np.sum(np.abs(err) ** 2, axis=1))
        assert mc == pytest.approx(np.trace(e).real, rel=0.01)

    def test_hermitian_psd(self):
        rng = np.random.default_rng(8)
        h, w, u = (rand_matrix(rng, (4, 6)), rand_matrix(rng, (6, 3)),
                   rand_matrix(rng, (4, 3)))
        e = mse_matrix(h, w, u, NOISE)
        np.testing.assert_allclose(e, e.conj().T)
        assert np.linalg.eigvalsh(e).min() >= -1e-12


class TestOptimalCombiner:
    def test_zero_channel(self):
        u = optimal_combiner(np.zeros((4, 6)), np.ones((6, 2)), NOISE).u
        np.testing.assert_allclose(u, 0.0)

    def test_scalar_closed_form(self):
        h, w = 1.7, 0.6
        u = optimal_combiner(np.array([[h]]), np.array([[w]]), NOISE).u
        assert u[0, 0] == pytest.approx(h * w / ((h * w) ** 2 + NOISE))

    def test_beats_random_alternatives(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            h, w = rand_matrix(rng, (4, 6)), rand_matrix(rng, (6, 2))
            u_opt = optimal_combiner(h, w, NOISE).u
            best = np.trace(mse_matrix(h, w, u_opt, NOISE)).real
            for _ in range(100):
                u = rand_matrix(rng, (4, 2))
                assert best <= np.trace(mse_matrix(h, w, u, NOISE)).real + 1e-12

    def test_finite_difference_stationarity(self):
        rng = np.random.default_rng(10)
        h, w = rand_matrix(rng, (4, 6)), rand_matrix(rng, (6, 2))
        u_opt = optimal_combiner(h, w, NOISE).u
        eps = 1e-4
        for _ in range(100):
            d = rand_matrix(rng, (4, 2))
            d /= np.linalg.norm(d)
            plus = np.trace(mse_matrix(h, w, u_opt + eps * d, NOISE)).real
            minus = np.trace(mse_matrix(h, w, u_opt - eps * d, NOISE)).real
            assert abs(plus - minus) / (2 * eps) < 1e-6


class TestWeightUpdate:
    def test_identity(self):
        np.testing.assert_allclose(weight_update(np.eye(3)), np.eye(3))

    def test_diagonal(self):
        np.testing.assert_allclose(weight_update(np.diag([0.5, 0.25])),
                                   np.diag([2.0, 4.0]), rtol=1e-12)

    def test_surrogate_value_at_optimum(self):
        # log|F| - Tr(F E) at F = E^-1 equals -log|E| - q
        rng = np.random.default_rng(11)
        a = rand_matrix(rng, (3, 3))
        e = a @ a.conj().T + 0.1 * np.eye(3)
        f = weight_update(e)
        sign, logdet_f = np.linalg.slogdet(f)
        _, logdet_e = np.linalg.slogdet(e)
        value = logdet_f - np.trace(f @ e).real
        assert value == pytest.approx(-logdet_e - 3, rel=1e-9)

    def test_singular_matrix_diagnosed(self):
        e = np.diag([1.0, 0.0])
        with pytest.raises(ValueError, match="singular"):
            weight_update(e)


class TestSolvePrecoder:
    def test_zero_channel_gives_zero(self):
        w = solve_precoder(np.zeros((4, 6)), np.zeros((4, 2)), np.eye(2), 1.0).w
        np.testing.assert_allclose(w, 0.0)

    def test_scalar_unconstrained_stationary_point(self):
        h, u, f = 2.0, 0.4, 3.0
        p = solve_precoder(np.array([[h]]), np.array([[u]]), np.array([[f]]),
                           p_max=100.0)
        assert p.w[0, 0] == pytest.approx(1.0 / (h * u), rel=1e-10)

    def _instance(self, rng, p_max):
        h = rand_matrix(rng, (4, 6))
        u = rand_matrix(rng, (4, 2))
        a = rand_matrix(rng, (2, 2))
        f = a @ a.conj().T + 0.5 * np.eye(2)
        return h, u, f, solve_precoder(h, u, f, p_max)

    def test_active_budget_met_with_equality(self):
        rng = np.random.default_rng(12)
        h, u, f, p = self._instance(rng, p_max=1e-4)
        assert np.sum(np.abs(p.w) ** 2) == pytest.approx(1e-4, rel=1e-6)

    def test_kkt_residuals(self):
        rng = np.random.default_rng(13)
        active = inactive = 0
        for _ in range(50):
            p_max = float(rng.choice([1e-4, 1e6]))
            h, u, f, p = self._instance(rng, p_max)
            stationarity, slack, _ = precoder_kkt(h, u, f, p.w, p_max)
            assert stationarity <= 1e-8
            assert slack <= 1e-6
            power = np.sum(np.abs(p.w) ** 2)
            if p_max - power < 1e-6 * p_max:
                active += 1
            else:
                inactive += 1
        assert active > 10 and inactive > 10

    def test_kkt_flags_an_inactive_budget_with_positive_multiplier(self):
        # half the optimal power with the budget left slack: mu > 0 but
        # the budget is not active, which complementary slackness forbids
        rng = np.random.default_rng(14)
        h, u, f, p = self._instance(rng, p_max=1e6)
        w = p.w * np.sqrt(0.5)
        _, slack, mu = precoder_kkt(h, u, f, w, 1e6)
        assert mu > 0 and slack > 1e-3

    def test_invalid_budget_rejected(self):
        with pytest.raises(ValueError):
            solve_precoder(np.eye(2), np.eye(2), np.eye(2), p_max=0.0)

    @settings(max_examples=30, deadline=None)
    @given(tag=st.sampled_from(["FF", "NF", "FN", "NN"]),
           scale=st.sampled_from(["desk", "paper"]),
           seed=st.integers(0, 2**32 - 1))
    def test_kkt_on_cell_channels_at_both_power_scales(self, tag, scale, seed):
        cfg = parse_config(f"model: {tag}\nlayers: 1\nmax_iters: 2",
                           scale=scale)
        _, real, _, _ = cell_setup(cfg, seed)
        state = solve_cell(cfg, seed)
        stationarity, slack, _ = precoder_kkt(
            cascade(real, state.phi), state.combiner.u, state.weight,
            state.precoder.w, cfg.p_max_w)
        assert stationarity <= 1e-8
        assert slack <= 1e-6

    @settings(max_examples=20, deadline=None)
    @given(scale=st.sampled_from(["desk", "paper"]),
           seed=st.integers(0, 2**32 - 1))
    def test_exact_budget_accepted_at_both_power_scales(self, scale, seed):
        p_max = parse_config("", scale=scale).p_max_w
        rng = np.random.default_rng(seed)
        w = rand_matrix(rng, (6, 2))
        Precoder(w=w * (np.sqrt(p_max) / np.linalg.norm(w)), p_max=p_max)
        # a weak channel pushes the unconstrained optimum far past the
        # budget, so the solve ends on it
        h = rand_matrix(rng, (4, 6)) * 1e-3 * np.sqrt(p_max)
        u = rand_matrix(rng, (4, 2))
        a = rand_matrix(rng, (2, 2))
        p = solve_precoder(h, u, a @ a.conj().T + 0.5 * np.eye(2), p_max)
        power = np.sum(np.abs(p.w) ** 2)
        assert p_max * (1 - 1e-9) <= power <= p_max * (1 + 1e-9)


def sequential_precoder(h, u, f, p_max, max_steps):
    """solve_precoder with each bisection step's norm evaluated as a numpy
    array, the result the float bisection must reproduce; returns (w,
    steps taken)."""
    hu = h.conj().T @ u
    b = hu @ f
    a = hu @ f @ hu.conj().T
    a = 0.5 * (a + a.conj().T)
    lam, basis = np.linalg.eigh(a)
    lam = np.maximum(lam, 0.0)
    bt = basis.conj().T @ b
    row_pow = np.sum(np.abs(bt) ** 2, axis=1)
    null = lam <= lam.max() * lam.size * np.finfo(float).eps if lam.size else lam < 0
    if np.sqrt(row_pow[null].sum()) <= 1e-10 * max(np.sqrt(row_pow.sum()), 1e-300):
        lam = np.where(null, 0.0, lam)
        bt[null] = 0.0
        row_pow = np.where(null, 0.0, row_pow)
    live = row_pow > 0.0
    terms = np.zeros_like(row_pow)

    def norm_sq(mu):
        np.divide(row_pow, (lam + mu) ** 2, out=terms, where=live)
        return float(terms.sum())

    mu, steps = 0.0, 0
    with np.errstate(divide="ignore"):
        unbounded = not norm_sq(0.0) <= p_max
    if unbounded:
        lo, hi = 0.0, float(np.sqrt(np.sum(row_pow) / p_max))
        for steps in range(1, max_steps + 1):
            mu = 0.5 * (lo + hi)
            val = norm_sq(mu)
            if val > p_max:
                lo = mu
            else:
                hi = mu
                if p_max - val <= 1e-12 * p_max:
                    break
        else:
            raise RuntimeError(
                f"power bisection did not converge in {max_steps} steps")
        mu = hi
    scaled = np.divide(bt, (lam + mu)[:, None], out=np.zeros_like(bt),
                       where=live[:, None])
    return basis @ scaled, steps


class TestFloatBisection:
    """solve_precoder bisects with its power summed over Python floats;
    every step, the step count at which it stops or raises, and W must be
    those of the bisection with numpy array norms, bit for bit."""

    @staticmethod
    def instance(rng, n_bs, n_ue, q, p_max, exponent, rank_one):
        h = rand_matrix(rng, (n_ue, n_bs))
        if rank_one:                     # A of rank one whatever q is
            h = np.outer(h[:, 0], h[0].conj())
        # with ||H|| = 10^exponent / sqrt(p_max) and ||U|| = 1 the
        # unconstrained optimum needs at least 10^(-2 exponent) p_max
        h *= 10.0 ** exponent / (np.sqrt(p_max) * np.linalg.norm(h))
        u = rand_matrix(rng, (n_ue, q))
        u /= np.linalg.norm(u)
        a = rand_matrix(rng, (q, q))
        return h, u, a @ a.conj().T + 0.1 * np.eye(q)

    @settings(max_examples=80, deadline=None)
    @given(scale=st.sampled_from(["desk", "paper"]),
           seed=st.integers(0, 2**32 - 1), n_bs=st.integers(1, 16),
           n_ue=st.integers(1, 8), rank_one=st.booleans(),
           binds=st.booleans(), data=st.data())
    def test_matches_the_sequential_oracle(self, scale, seed, n_bs, n_ue,
                                           rank_one, binds, data):
        p_max = parse_config("", scale=scale).p_max_w
        q = data.draw(st.integers(1, min(n_bs, n_ue)), label="q")
        exponent = data.draw(st.floats(-3.0, -1.0) if binds
                             else st.floats(1.0, 3.0), label="exponent")
        h, u, f = self.instance(np.random.default_rng(seed), n_bs, n_ue, q,
                                p_max, exponent, rank_one)
        want, steps = sequential_precoder(h, u, f, p_max, 500)
        assert solve_precoder(h, u, f, p_max).w.tobytes() == want.tobytes()
        if binds:
            assert steps > 0

    @pytest.mark.parametrize("tag", ["FF", "NF", "FN", "NN"])
    @pytest.mark.parametrize("scale", ["desk", "paper"])
    def test_matches_the_oracle_inside_the_loop(self, monkeypatch, tag, scale):
        cfg = parse_config(f"model: {tag}\nlayers: 2\nmax_iters: 4",
                           scale=scale)
        calls = []

        def spy(h, u, f, p_max):
            got = solve_precoder(h, u, f, p_max)
            calls.append((got.w, sequential_precoder(h, u, f, p_max, 500)))
            return got

        monkeypatch.setattr(optimizer, "solve_precoder", spy)
        solve_cell(cfg, 7)
        assert calls
        for w, (want, _) in calls:
            assert w.tobytes() == want.tobytes()

    def test_step_limit_raises_as_the_sequential_bisection_does(
            self, monkeypatch):
        p_max = parse_config("", scale="desk").p_max_w
        h, u, f = self.instance(np.random.default_rng(5), 8, 4, 2, p_max,
                                -2.0, False)
        want, steps = sequential_precoder(h, u, f, p_max, 500)
        assert steps > 8
        for limit in (0, 1, 7, steps - 1):
            monkeypatch.setattr(optimizer, "_MAX_BISECT", limit)
            with pytest.raises(RuntimeError) as oracle:
                sequential_precoder(h, u, f, p_max, limit)
            with pytest.raises(RuntimeError) as got:
                solve_precoder(h, u, f, p_max)
            assert str(got.value) == str(oracle.value)
        monkeypatch.setattr(optimizer, "_MAX_BISECT", steps)   # just enough
        assert solve_precoder(h, u, f, p_max).w.tobytes() == want.tobytes()

    def test_float_sum_is_numpys_sum(self):
        # a numpy whose summation order changed fails here, not in digests
        for n in [*range(41), 127, 128, 129, 136, 300]:
            rng = np.random.default_rng(n)
            terms = rng.standard_normal(n)     # cancelling: the order shows
            terms[::3] = 0.0                   # interleaved zeros
            with_inf = np.abs(terms)
            with_inf[n // 2:n // 2 + 1] = np.inf
            cases = [terms * 10.0 ** e for e in (-300, 0, 300)] + [
                with_inf, terms * 10.0 ** rng.uniform(-300.0, 300.0, n)]
            for case in cases:
                got = optimizer._pairwise_sum(case.tolist())
                assert got.hex() == float(np.sum(case)).hex(), n


def array_decision(rows, p_max, mu):
    """What the bisection decides at a midpoint mu over `_power`'s (p, lam)
    rows, its power summed as a numpy array: "over" budget, feasible and
    "within" _BUDGET_REL_TOL, or "feasible" and not within it."""
    p, lam = np.array(rows).T
    with np.errstate(divide="ignore"):
        val = float(np.divide(p, (lam + mu) ** 2, out=np.zeros_like(p),
                              where=p > 0.0).sum())
    if val > p_max:
        return "over"
    return "within" if p_max - val <= 1e-12 * p_max else "feasible"


class TestGuidedBisection:
    """The edges `_edges` places settle the bisection's steps away from its
    two roots; the steps between them, and every step where no edges are
    placed, sum `_power` as the plain bisection does."""

    @settings(max_examples=200, deadline=None)
    @given(rows=st.lists(st.tuples(
               st.one_of(st.just(0.0), st.floats(1e-30, 1e30)),
               st.one_of(st.just(0.0), st.floats(1e-30, 1e30))),
               min_size=1, max_size=300),
           mus=st.lists(st.floats(0.0, 1e30), min_size=2,
                        max_size=2).map(sorted),
           adjacent=st.booleans())
    def test_power_never_increases_with_mu(self, rows, mus, adjacent):
        # the edges rest on this: a step they settle ends as a sum would
        mu1, mu2 = mus
        if adjacent:                           # the next float above mu1
            mu2 = math.nextafter(mu1, math.inf)
        assert optimizer._power(rows, mu1) >= optimizer._power(rows, mu2)

    @pytest.mark.parametrize("scale", ["desk", "paper"])
    def test_placed_edges_pass_the_bisections_own_test(self, monkeypatch,
                                                       scale):
        placed = []
        edges = optimizer._edges

        def spy(rows, p_max, hi):
            placed.append((rows, p_max, edges(rows, p_max, hi)))
            return placed[-1][2]

        monkeypatch.setattr(optimizer, "_edges", spy)
        for _, model, scheme in VARIANTS:
            cfg = parse_config(f"model: {model}\ntraining: {scheme}",
                               scale=scale)
            for seed in range(3):
                solve_cell(cfg, seed)
        kept = [(rows, p_max, e) for rows, p_max, e in placed
                if e is not optimizer._NO_EDGES]
        assert len(kept) >= 20
        for rows, p_max, (a, b, c, d) in kept:
            assert [array_decision(rows, p_max, mu) for mu in (a, b, c, d)] \
                == ["over", "within", "within", "feasible"]

    @pytest.mark.parametrize("scale", ["desk", "paper"])
    def test_few_sums_per_bisecting_solve(self, monkeypatch, scale):
        # the power sums solve_precoder makes itself, the test at mu = 0
        # included; the plain bisection makes a median of 41
        sums, budgets = [], []
        power, solve = optimizer._power, optimizer.solve_precoder

        def counted(rows, mu):
            val = power(rows, mu)
            if sys._getframe(1).f_code.co_name == "solve_precoder":
                sums[-1].append(val)
            return val

        def spy(h, u, f, p_max):
            sums.append([])
            budgets.append(p_max)
            return solve(h, u, f, p_max)

        monkeypatch.setattr(optimizer, "_power", counted)
        monkeypatch.setattr(optimizer, "solve_precoder", spy)
        cfg = parse_config("", scale=scale)
        for seed in range(5):
            solve_cell(cfg, seed)
        bisecting = [len(vals) for vals, p_max in zip(sums, budgets)
                     if not vals[0] <= p_max]
        assert len(bisecting) >= 5
        assert statistics.median(bisecting) <= 4

    def test_refused_edges_give_the_plain_bisection(self, monkeypatch):
        p_max = parse_config("", scale="desk").p_max_w
        h, u, f = TestFloatBisection.instance(
            np.random.default_rng(5), 8, 4, 2, p_max, -2.0, False)
        want, steps = sequential_precoder(h, u, f, p_max, 500)
        placed = []
        edges = optimizer._edges

        def spy(*args):
            placed.append(edges(*args))
            return placed[-1]

        monkeypatch.setattr(optimizer, "_edges", spy)
        assert solve_precoder(h, u, f, p_max).w.tobytes() == want.tobytes()
        assert placed[-1] is not optimizer._NO_EDGES
        monkeypatch.setattr(optimizer, "_root", lambda *args: math.nan)
        assert solve_precoder(h, u, f, p_max).w.tobytes() == want.tobytes()
        assert placed[-1] is optimizer._NO_EDGES
        for limit in (0, 1, 7, steps - 1):
            monkeypatch.setattr(optimizer, "_MAX_BISECT", limit)
            with pytest.raises(RuntimeError) as oracle:
                sequential_precoder(h, u, f, p_max, limit)
            with pytest.raises(RuntimeError) as got:
                solve_precoder(h, u, f, p_max)
            assert str(got.value) == str(oracle.value)
            assert placed[-1] is optimizer._NO_EDGES


class TestStreamCounts:
    def test_defaults_per_tag(self, desk):
        paths = config_args(default_stream_count)           # 3 each
        assert default_stream_count("NN", desk, **paths) == 4   # min(8, 4, 32)
        assert default_stream_count("FF", desk, **paths) == 3
        assert default_stream_count("NF", desk, **paths | {"l_u": 2}) == 2
        assert default_stream_count("FN", desk, **paths | {"l_b": 1}) == 1

    def test_unknown_tag(self, desk):
        with pytest.raises(ValueError):
            default_stream_count("XX", desk,
                                 **config_args(default_stream_count))


class TestAOLoop:
    P_MAX = 1e-8
    NOISE_W = 10 ** (-13.5)

    def run(self, tag="NN", seed=0, **loop):
        """ao_loop on the desk layout at the config's loop values, with
        `loop` (max_iters, scheme) on top."""
        g, real, gb, gu = desk_cell()
        if tag != "NN":
            real = synthesize_channel(tag, g, np.random.default_rng(seed),
                                      **config_args(synthesize_channel))
        q = default_stream_count(tag, g, **config_args(default_stream_count))
        return ao_loop(real, g, p_max=self.P_MAX, noise_var=self.NOISE_W,
                       grid_bs=gb, grid_ue=gu, layers=4, q=q,
                       **config_args(ao_loop, **loop))

    def test_zero_iterations_returns_initialization(self):
        state = self.run(max_iters=0)
        assert state.iterations == 0
        assert len(state.records) == 1
        assert state.evaluations == 0

    def test_rate_history_monotone(self):
        for seed in range(5):
            state = self.run(tag="NF", seed=seed)
            diffs = np.diff([r.rate for r in state.records])
            assert np.all(diffs >= -1e-6)

    def test_converges_on_desk_instance(self):
        state = self.run()
        assert state.records[-1].gamma < 1e-4
        assert state.iterations <= 20

    def test_forced_angular_scheme_on_nn(self):
        state = self.run(scheme="angular")
        # angular sweep costs m_x*m_y per iteration
        assert state.evaluations == state.iterations * 32

    def test_hierarchical_evaluation_accounting(self):
        state = self.run()
        assert state.evaluations == state.iterations * 16 * 4 * 16

    def test_phases_stay_unit_modulus(self):
        state = self.run()
        np.testing.assert_allclose(np.abs(state.phi), 1.0, atol=1e-12)

    def test_final_weight_matrix_positive_definite(self):
        state = self.run(max_iters=3)
        eigs = np.linalg.eigvalsh(state.weight)
        assert eigs.min() > 0.0
        np.testing.assert_allclose(state.weight, state.weight.conj().T)

    def test_trace_records_every_iteration(self):
        state = self.run(max_iters=3)
        first, *cycles = state.records
        assert (first.t, first.gamma, first.evaluations, first.adopted) == \
            (0, np.inf, 0, True)
        assert [r.t for r in cycles] == [1, 2, 3] and state.iterations == 3
        for before, rec in zip(state.records, cycles):
            assert rec.evaluations == rec.t * 16 * 4 * 16
            assert rec.gamma == abs(rec.rate - before.rate) / abs(before.rate)
        assert state.rate == cycles[-1].rate
        assert state.evaluations == cycles[-1].evaluations

    def test_adopted_says_whether_training_kept_the_rate(self, monkeypatch):
        """A cycle adopts its trained codeword when the codeword's rate is
        no lower than the last record's or it is the applied codeword, whose
        kernel rate can sit a rounding below `achievable_rate`'s."""
        reports = []
        train = training.angular_sweep

        def spy(*args):
            reports.append(train(*args))
            return reports[-1]

        def replay(state):
            """(adopted, re-found, kernel rate lower) per trained cycle."""
            cycles = state.records[1:]
            assert len(reports) == len(cycles)
            phi, seen = np.ones(len(state.phi), dtype=complex), []
            for before, rec, rep in zip(state.records, cycles, reports):
                same = np.array_equal(rep.best_codeword.coeffs, phi)
                lower = rep.best_rate < before.rate
                assert rec.adopted == (not lower or same)
                if rec.adopted:
                    phi = rep.best_codeword.coeffs
                seen.append((rec.adopted, same, lower))
            assert np.array_equal(state.phi, phi)
            assert state.training_regressions == \
                sum(not adopted for adopted, _, _ in seen)
            reports.clear()
            return seen

        monkeypatch.setattr(training, "angular_sweep", spy)
        ff = [c for seed in range(5) for c in replay(self.run(tag="FF",
                                                              seed=seed))]
        # desk FF cycles re-find the applied codeword a rounding below
        assert (True, True, True) in ff
        angular = parse_config("training: angular")
        nn = [c for seed in range(5) for c in replay(solve_cell(angular, seed))]
        # desk NN-angular cells reject codewords other than the applied one
        assert (False, False, True) in nn


class TestContainers:
    def test_precoder_budget_enforced(self):
        with pytest.raises(ValueError, match="budget"):
            Precoder(w=np.ones((2, 2)), p_max=1.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_precoder_requires_finite(self, bad):
        with pytest.raises(ValueError, match="finite"):
            Precoder(w=np.full((2, 2), bad), p_max=1.0)

    def test_budget_overshoot_rejected_at_desk_power_scale(self):
        p_max = parse_config("", scale="desk").p_max_w      # 1e-8 W
        w = np.full((2, 2), np.sqrt(1.09 * p_max / 4))
        with pytest.raises(ValueError, match="budget"):
            Precoder(w=w, p_max=p_max)

    @pytest.mark.parametrize("p_max", [0.0, -1.0, np.nan])
    def test_budget_must_be_positive(self, p_max):
        eye = np.eye(2, dtype=complex)
        with pytest.raises(ValueError, match="p_max must be positive"):
            Precoder(w=np.zeros((2, 2)), p_max=p_max)
        with pytest.raises(ValueError, match="p_max must be positive"):
            solve_precoder(eye, eye, eye, p_max)
        with pytest.raises(ValueError, match="p_max must be positive"):
            initial_precoder(eye, 1, p_max)

    def test_combiner_requires_finite(self):
        with pytest.raises(ValueError):
            Combiner(u=np.array([[np.inf, 0.0]]))

    @pytest.mark.parametrize("layout", [np.transpose, np.asfortranarray])
    def test_combiner_takes_any_memory_order(self, layout):
        u = layout(rand_matrix(np.random.default_rng(4), (3, 5)))
        assert np.array_equal(Combiner(u=u).u, u)
        u[1, 2] = np.nan
        with pytest.raises(ValueError, match="finite"):
            Combiner(u=u)
