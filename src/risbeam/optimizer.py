"""Rate evaluation, MMSE combining, precoder solve, and the outer
alternating optimization loop.

The loop cycles RIS phases (beam training over the model's codebook),
the closed-form MMSE combiner, the inverse-MSE weight matrix, and the
power-constrained precoder, recording the achievable rate after every
full cycle.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import training
from .channel import NEAR_LINKS, ChannelRealization, PhaseShiftVector, cascade
from .codebook import NEAR_SIDE, SIDE_BS, SamplingGrid
from .geometry import LINK_BS_RIS, LINK_RIS_UE, SystemGeometry

# Precoder accepts powers up to p_max * (1 + slack): relative, so the check
# is as tight at desk power scale (p_max ~ 1e-8 W) as at paper scale (1 W)
_BUDGET_REL_SLACK = 1e-9
# solve_precoder's bisection stops once the budget is met to this relative gap
_BUDGET_REL_TOL = 1e-12
_MAX_BISECT = 500
# bisection steps per batched power evaluation (2^depth - 1 midpoints)
_BISECT_DEPTH = 4


@dataclass(frozen=True)
class Precoder:
    """Transmit precoder with its power budget; ||w||_F^2 <= p_max."""

    w: np.ndarray
    p_max: float

    def __post_init__(self):
        w = np.asarray(self.w, dtype=complex)
        if w.ndim != 2 or not np.all(np.isfinite(w)):
            raise ValueError("precoder must be a finite matrix")
        if self.p_max <= 0:
            raise ValueError("p_max must be positive")
        power = float(np.sum(np.abs(w) ** 2))
        if power > self.p_max * (1.0 + _BUDGET_REL_SLACK):
            raise ValueError(f"precoder power {power} exceeds budget {self.p_max}")
        object.__setattr__(self, "w", w)


@dataclass(frozen=True)
class Combiner:
    u: np.ndarray

    def __post_init__(self):
        u = np.asarray(self.u, dtype=complex)
        if u.ndim != 2 or not np.all(np.isfinite(u.view(float))):
            raise ValueError("combiner must be a finite matrix")
        object.__setattr__(self, "u", u)


@dataclass
class AOState:
    """Result of one alternating-optimization run."""

    precoder: Precoder
    combiner: Combiner
    phases: PhaseShiftVector
    weight: np.ndarray
    rate_history: list[float]
    gamma: float
    iterations: int
    evaluations: int
    training_regressions: int = 0
    trace: list[tuple] = field(default_factory=list)

    @property
    def rate(self) -> float:
        return self.rate_history[-1]


def achievable_rate(h: np.ndarray, w: np.ndarray, noise_var: float) -> float:
    """log2 det(I + H W W^H H^H / noise_var), via singular values of HW."""
    if not noise_var > 0:                   # NaN included
        raise ValueError("noise_var must be positive")
    b = np.asarray(h, dtype=complex) @ np.asarray(w, dtype=complex)
    if not np.all(np.isfinite(b.view(float))):
        raise ValueError("non-finite rate operands")
    s = np.linalg.svd(b, compute_uv=False)
    return float(np.sum(np.log2(1.0 + s * s / noise_var)))


def mse_matrix(h: np.ndarray, w: np.ndarray, u: np.ndarray,
               noise_var: float) -> np.ndarray:
    """Error covariance (U^H H W - I)(.)^H + noise_var * U^H U."""
    q = w.shape[1]
    d = u.conj().T @ h @ w - np.eye(q)
    e = d @ d.conj().T + noise_var * (u.conj().T @ u)
    return 0.5 * (e + e.conj().T)


def optimal_combiner(h: np.ndarray, w: np.ndarray, noise_var: float) -> Combiner:
    """MMSE combiner (H W W^H H^H + noise_var I)^-1 H W."""
    if not noise_var > 0:                   # NaN included
        raise ValueError("noise_var must be positive")
    hw = h @ w
    cov = hw @ hw.conj().T + noise_var * np.eye(h.shape[0])
    return Combiner(u=np.linalg.solve(cov, hw))


def weight_update(e: np.ndarray) -> np.ndarray:
    """Inverse of the MSE matrix; raises if E is numerically singular."""
    e = 0.5 * (e + e.conj().T)
    eigs = np.linalg.eigvalsh(e)
    if eigs[0] <= 1e-14 * max(eigs[-1], 1e-300):
        raise ValueError(
            "MSE matrix is singular to working precision; the stream count "
            "q likely exceeds the usable channel rank")
    f = np.linalg.inv(e)
    return 0.5 * (f + f.conj().T)


def _norm_sq(row_pow: np.ndarray, lam: np.ndarray, live: np.ndarray,
             mus: list, terms: np.ndarray) -> list:
    """||W(mu)||^2 = sum of row_pow / (lam + mu)^2 over the live rows, for
    each mu of `mus`, as one (len(mus), n) array operation into `terms`,
    whose masked entries stay zero.  A row's sum is bit-identical to the
    sum of the same terms as a 1-D array."""
    sq = lam + np.array(mus)[:, None]
    np.square(sq, out=sq)
    np.divide(row_pow, sq, out=terms, where=live)
    return terms.sum(axis=1).tolist()


def _bisect_budget(row_pow: np.ndarray, lam: np.ndarray, live: np.ndarray,
                   p_max: float, hi: float) -> float:
    """The multiplier mu in (0, hi] at which ||W(mu)||^2 meets p_max.

    Plain bisection: each step halves [lo, hi] at mu = 0.5 * (lo + hi),
    keeps the half on which the budget is crossed, and stops once the
    power at mu is feasible and within _BUDGET_REL_TOL of p_max; the
    feasible end hi is returned.  The steps are taken _BISECT_DEPTH at a
    time: a round forms, in Python floats, the 2^depth - 1 midpoints that
    its steps can reach (heap order: node i halves toward 2i + 1 when the
    power exceeds the budget, toward 2i + 2 otherwise), evaluates the power
    at all of them in one `_norm_sq` call, and then takes its steps from
    that table.  So the steps, the result and the _MAX_BISECT limit are
    those of one-at-a-time bisection, bit for bit.
    """
    terms = np.zeros((2 ** _BISECT_DEPTH - 1, lam.size))
    lo, steps = 0.0, 0
    while True:
        spans, mids = [(lo, hi)], []
        for _ in range(_BISECT_DEPTH):
            halves = []
            for a, b in spans:
                mid = 0.5 * (a + b)
                mids.append(mid)
                halves += [(mid, b), (a, mid)]
            spans = halves
        vals = _norm_sq(row_pow, lam, live, mids, terms)
        node = 0
        for _ in range(_BISECT_DEPTH):
            if steps == _MAX_BISECT:
                raise RuntimeError(
                    f"power bisection did not converge in {_MAX_BISECT} steps")
            steps += 1
            mu, val = mids[node], vals[node]
            if val > p_max:
                lo, node = mu, 2 * node + 1
            else:
                hi, node = mu, 2 * node + 2
                if p_max - val <= _BUDGET_REL_TOL * p_max:
                    return hi                # feasible side of the bracket


def solve_precoder(h: np.ndarray, u: np.ndarray, f: np.ndarray,
                   p_max: float) -> Precoder:
    """Minimize Tr(W^H A W) - 2 Tr(Re(F U^H H W)) s.t. ||W||_F^2 <= p_max.

    A = H^H U F U^H H.  Solved in closed form through the eigenbasis of A:
    W(mu) = (A + mu I)^-1 H^H U F with mu = 0 when the unconstrained
    solution fits the budget, otherwise mu > 0 found by bisection so the
    budget holds with equality (`_bisect_budget`).
    """
    if p_max <= 0:
        raise ValueError("p_max must be positive")
    hu = h.conj().T @ u                      # (n_bs, q)
    b = hu @ f                               # linear-term matrix
    a = hu @ f @ hu.conj().T
    a = 0.5 * (a + a.conj().T)
    lam, basis = np.linalg.eigh(a)
    lam = np.maximum(lam, 0.0)
    bt = basis.conj().T @ b
    row_pow = np.sum(np.abs(bt) ** 2, axis=1)
    # A is often rank deficient; the linear term lies in range(A) up to
    # rounding dust, which must not masquerade as an unbounded direction
    null = lam <= lam.max() * lam.size * np.finfo(float).eps if lam.size else lam < 0
    dust = float(np.sqrt(row_pow[null].sum()))
    b_norm = float(np.sqrt(row_pow.sum()))
    if dust <= 1e-10 * max(b_norm, 1e-300):
        lam = np.where(null, 0.0, lam)
        bt[null] = 0.0
        row_pow = np.where(null, 0.0, row_pow)

    live = row_pow > 0.0
    mu = 0.0
    with np.errstate(divide="ignore"):       # inf at mu = 0: unbounded
        unbounded = not _norm_sq(row_pow, lam, live, [0.0],
                                 np.zeros((1, lam.size)))[0] <= p_max
    if unbounded:                            # the test also catches inf
        mu = _bisect_budget(row_pow, lam, live, p_max,
                            float(np.sqrt(np.sum(row_pow) / p_max)))

    scaled = np.divide(bt, (lam + mu)[:, None], out=np.zeros_like(bt),
                       where=live[:, None])
    w = basis @ scaled
    return Precoder(w=w, p_max=p_max)


def precoder_kkt(h: np.ndarray, u: np.ndarray, f: np.ndarray, w: np.ndarray,
                 p_max: float) -> tuple[float, float, float]:
    """KKT residuals of `w` for the problem solve_precoder solves.

    Evaluates A and B = H^H U F afresh, recovers the multiplier
    mu = max(0, Re<W, B - A W> / ||W||^2), and returns (stationarity,
    slack, mu) with stationarity ||A W + mu W - B|| / ||B|| and slack
    mu (p_max - ||W||^2) / (||B|| sqrt(p_max)).  Both are dimensionless,
    so one threshold holds at any channel gain and power scale.
    """
    a = h.conj().T @ u @ f @ u.conj().T @ h
    b = h.conj().T @ u @ f
    power = float(np.sum(np.abs(w) ** 2))
    mu = max(0.0, float(np.real(np.vdot(w, b - a @ w)) / max(power, 1e-300)))
    b_norm = np.linalg.norm(b)
    stationarity = float(np.linalg.norm(a @ w + mu * w - b) / b_norm)
    slack = float(mu * (p_max - power) / (b_norm * np.sqrt(p_max)))
    return stationarity, slack, mu


def default_stream_count(tag: str, geometry: SystemGeometry,
                         l_b: int, l_u: int) -> int:
    """Stream count bounded by antenna counts and the model's rank budget.

    Planar-wave links cap the rank at their path count; the all-spherical
    model supports up to min(n_bs, n_ue, M) streams.
    """
    if tag not in NEAR_LINKS:
        raise ValueError(f"unknown model tag {tag!r}")
    far = [n for link, n in ((LINK_BS_RIS, l_b), (LINK_RIS_UE, l_u))
           if link not in NEAR_LINKS[tag]]
    return min(geometry.n_bs, geometry.n_ue, *(far or [geometry.m]))


def initial_precoder(h0: np.ndarray, q: int, p_max: float) -> np.ndarray:
    """Matched-filter columns of the zero-phase cascade, scaled to p_max."""
    w = h0.conj().T[:, :q].astype(complex).copy()
    norm = np.linalg.norm(w)
    if norm < 1e-300:
        w = np.zeros((h0.shape[1], q), dtype=complex)
        w[:q, :q] = np.eye(q)
        norm = np.linalg.norm(w)
    return w * (np.sqrt(p_max) / norm)


def ao_loop(realization: ChannelRealization, geometry: SystemGeometry, *,
            p_max: float, noise_var: float, grid_bs: SamplingGrid,
            grid_ue: SamplingGrid, layers: int, max_iters: int, tol: float,
            scheme: str, q: int) -> AOState:
    """Alternate RIS training, combiner, weight, and precoder updates.

    The caller passes every value from the config (`harness.solve_cell`
    turns q: 0 into `default_stream_count`); q is clamped to
    min(n_bs, n_ue).  scheme "auto" picks the training scheme for the
    realization's model tag (FF: angular sweep, NN: hierarchical over
    both grids, NF/FN: two-stage over the near side's grid); "angular"
    forces the plain sweep on any model.  Terminates after max_iters
    cycles or when the relative rate change drops below tol.  The trained
    codeword is only adopted when it does not reduce the current rate;
    rejected retrainings are counted in training_regressions.

    Training reuses its precoder-independent work across the cycles
    (see `training`).
    """
    tag = realization.model_tag
    if scheme == "auto":   # by the number of spherical-wave links
        scheme = ("angular", "two_stage", "hierarchical")[len(NEAR_LINKS[tag])]
    q = min(q, geometry.n_bs, geometry.n_ue)   # streams beyond this are dead
    if q < 1:
        raise ValueError("stream count must be at least 1")

    def train(w):
        if scheme == "angular":
            return training.angular_sweep(realization, w, noise_var, geometry)
        if scheme == "hierarchical":
            return training.hierarchical_nn(realization, w, noise_var,
                                            grid_bs, grid_ue, layers, geometry)
        if scheme == "two_stage":
            side = tag if tag in NEAR_SIDE else "FN"   # forced on FF or NN
            grid = grid_bs if NEAR_SIDE[side] == SIDE_BS else grid_ue
            return training.two_stage_hybrid(realization, w, noise_var,
                                             grid, layers, side, geometry)
        raise ValueError(f"unknown training scheme {scheme!r}")

    phi = np.ones(realization.m, dtype=complex)
    h = cascade(realization, phi)
    w = initial_precoder(h, q, p_max)
    u = optimal_combiner(h, w, noise_var).u
    f = np.eye(q, dtype=complex)
    rate = achievable_rate(h, w, noise_var)
    history = [rate]
    evaluations = 0
    regressions = 0
    gamma = np.inf
    trace = [(0, rate, np.inf, 0)]

    t = 0
    while t < max_iters and gamma >= tol:
        report = train(w)
        evaluations += report.evaluations
        if report.best_rate >= rate:
            phi = report.best_codeword.coeffs
        else:
            regressions += 1
        h = cascade(realization, phi)
        u = optimal_combiner(h, w, noise_var).u
        e = mse_matrix(h, w, u, noise_var)
        f = weight_update(e)
        w = solve_precoder(h, u, f, p_max).w
        new_rate = achievable_rate(h, w, noise_var)
        gamma = abs(new_rate - rate) / max(abs(rate), 1e-300)
        rate = new_rate
        history.append(rate)
        t += 1
        trace.append((t, rate, gamma, evaluations))

    return AOState(
        precoder=Precoder(w=w, p_max=p_max),
        combiner=Combiner(u=u),
        phases=PhaseShiftVector.from_coefficients(phi),
        weight=f,
        rate_history=history,
        gamma=float(gamma),
        iterations=t,
        evaluations=evaluations,
        training_regressions=regressions,
        trace=trace,
    )
