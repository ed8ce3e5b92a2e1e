"""Rate evaluation, MMSE combining, precoder solve, and the outer
alternating optimization loop.

The loop cycles RIS phases (beam training over the model's codebook),
the closed-form MMSE combiner, the inverse-MSE weight matrix, and the
power-constrained precoder, keeping one record per full cycle.  The
precoder's power multiplier is bisected over Python floats, summed in
numpy's pairwise order so that every step is an array evaluation's;
Newton-placed edges around the bisection's two roots settle the steps
away from them without a sum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import training
from .channel import NEAR_LINKS, ChannelRealization, cascade
from .codebook import NEAR_SIDE, SIDE_BS, SamplingGrid
from .geometry import LINK_BS_RIS, LINK_RIS_UE, SystemGeometry

# Precoder accepts powers up to p_max * (1 + slack): relative, so the check
# is as tight at desk power scale (p_max ~ 1e-8 W) as at paper scale (1 W)
_BUDGET_REL_SLACK = 1e-9
# solve_precoder's bisection stops once the budget is met to this relative gap
_BUDGET_REL_TOL = 1e-12
_MAX_BISECT = 500
# Newton steps _edges takes toward each root at most
_NEWTON_STEPS = 50
# the bisection's edges when none are placed: every step evaluates _power
_NO_EDGES = (-math.inf, math.inf, -math.inf, math.inf)


@dataclass(frozen=True)
class Precoder:
    """Transmit precoder with its power budget; ||w||_F^2 <= p_max."""

    w: np.ndarray
    p_max: float

    def __post_init__(self):
        w = np.asarray(self.w, dtype=complex)
        if w.ndim != 2 or not np.all(np.isfinite(w)):
            raise ValueError("precoder must be a finite matrix")
        if not self.p_max > 0:                # NaN included
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
        if u.ndim != 2 or not np.all(np.isfinite(u)):
            raise ValueError("combiner must be a finite matrix")
        object.__setattr__(self, "u", u)


@dataclass(frozen=True)
class Iteration:
    """Cycle t of the alternating loop (0 is the initialization): the rate
    after it, its relative change gamma, the training evaluations of
    cycles 1..t, and whether the cycle applied its trained codeword."""

    t: int
    rate: float
    gamma: float
    evaluations: int
    adopted: bool


@dataclass
class AOState:
    """Result of one alternating-optimization run: the last solves, the
    RIS coefficients phi they were made under, and one record per cycle."""

    precoder: Precoder
    combiner: Combiner
    phi: np.ndarray
    weight: np.ndarray
    records: list[Iteration]

    @property
    def rate(self) -> float:
        return self.records[-1].rate

    @property
    def iterations(self) -> int:
        return self.records[-1].t

    @property
    def evaluations(self) -> int:
        return self.records[-1].evaluations

    @property
    def training_regressions(self) -> int:
        """Cycles whose trained codeword was rejected."""
        return sum(not r.adopted for r in self.records)


def achievable_rate(h: np.ndarray, w: np.ndarray, noise_var: float) -> float:
    """log2 det(I + H W W^H H^H / noise_var), via singular values of HW."""
    if not noise_var > 0:                   # NaN included
        raise ValueError("noise_var must be positive")
    b = np.asarray(h, dtype=complex) @ np.asarray(w, dtype=complex)
    if not np.all(np.isfinite(b)):
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


def _pairwise_sum(terms: list) -> float:
    """The sum of the floats `terms` in numpy's float64 pairwise order, so
    it is bit-identical to np.sum of the same terms as an array: under 8
    terms added in order; up to 128 into 8 running sums combined as
    ((0+1)+(2+3))+((4+5)+(6+7)), the rest added in order; longer lists
    halved at a multiple of 8.  (Python's own `sum` has another order.)"""
    n = len(terms)
    if n > 128:
        half = n // 2 - n // 2 % 8
        return _pairwise_sum(terms[:half]) + _pairwise_sum(terms[half:])
    acc, rest = 0.0, terms
    if n >= 8:
        r, tail = terms[:8], n - n % 8
        for i in range(8, tail, 8):
            for j in range(8):
                r[j] += terms[i + j]
        acc = (((r[0] + r[1]) + (r[2] + r[3]))
               + ((r[4] + r[5]) + (r[6] + r[7])))
        rest = terms[tail:]
    for t in rest:
        acc += t
    return acc


def _power(rows: list, mu: float) -> float:
    """||W(mu)||^2 from the (row power p, eigenvalue lam) pairs: the sum of
    p / (lam + mu)^2 over the live rows (p > 0), a masked row adding 0.0
    and a zero denominator +inf, as numpy's masked divide and sum give it."""
    terms = []
    for p, lam in rows:
        d = (lam + mu) * (lam + mu)
        terms.append(0.0 if not p > 0.0 else (p / d if d else math.inf))
    return _pairwise_sum(terms)


def _root(live: list, target: float, mu: float) -> float:
    """Newton's estimate of the mu at which ||W(mu)||^2 = target, from `mu`
    below it, on g(mu) = ||W(mu)||^-1, which is concave and increasing, so
    that every step stays below the root (Moré and Sorensen's step for the
    secular equation); `live` holds the (p, lam) pairs with p > 0."""
    goal = target ** -0.5
    for _ in range(_NEWTON_STEPS):
        power = slope = 0.0              # sum p/(lam+mu)^2, sum p/(lam+mu)^3
        for p, lam in live:
            inv = 1.0 / (lam + mu)
            term = p * inv * inv
            power += term
            slope += term * inv
        step = (goal - power ** -0.5) * power ** 1.5 / slope
        if not step > mu * 2.0 ** -52:   # converged, or not finite
            break
        mu += step
    return mu


def _edges(rows: list, p_max: float, hi: float) -> tuple:
    """Points a < b < c < d of the bisection on (0, hi] at which `_power`
    settles a step without being evaluated, or `_NO_EDGES`.

    Newton (`_root`) estimates the budget root, where the power is p_max,
    from the lower bound max(0, hi - max lam, max(sqrt(p / p_max) - lam)),
    and from there the tolerance root, where it is p_max (1 -
    _BUDGET_REL_TOL).  a and b lie a quarter of the roots' gap below and
    above the first, c and d around the second.  Each is kept only if the
    bisection's own test there passes: over budget at a, feasible at b,
    within _BUDGET_REL_TOL at c and not within it at d.  `_power` never
    increases as mu >= 0 grows, also in floating point: it is a fixed tree
    of correctly rounded adds, squares and divides over lam >= 0.  So a
    step whose midpoint is <= a, in [b, c] or >= d ends exactly as
    evaluating `_power` there would end it.
    """
    live = [(p, lam) for p, lam in rows if p > 0.0]
    try:
        start = max(0.0, hi - max(lam for _, lam in live),
                    max(math.sqrt(p / p_max) - lam for p, lam in live))
        budget = _root(live, p_max, start)
        tol = _root(live, p_max * (1.0 - _BUDGET_REL_TOL), budget)
    except (ZeroDivisionError, OverflowError):
        return _NO_EDGES
    gap = 0.25 * (tol - budget)
    edges = a, b, c, d = budget - gap, budget + gap, tol - gap, tol + gap
    if not (a < b < c < d
            and _power(rows, a) > p_max
            and _power(rows, b) <= p_max
            and p_max - _power(rows, c) <= _BUDGET_REL_TOL * p_max
            and p_max - _power(rows, d) > _BUDGET_REL_TOL * p_max):
        return _NO_EDGES
    return edges


def solve_precoder(h: np.ndarray, u: np.ndarray, f: np.ndarray,
                   p_max: float) -> Precoder:
    """Minimize Tr(W^H A W) - 2 Tr(Re(F U^H H W)) s.t. ||W||_F^2 <= p_max.

    A = H^H U F U^H H.  Solved in closed form through the eigenbasis of A:
    W(mu) = (A + mu I)^-1 H^H U F with mu = 0 when the unconstrained
    solution fits the budget (an unbounded one, with a live row at a zero
    eigenvalue, does not), otherwise mu > 0 found by bisection on
    (0, ||B|| / sqrt(p_max)]: each step halves the bracket at
    mu = 0.5 * (lo + hi) and keeps the half on which the budget is
    crossed, and the first feasible mu whose power is within
    _BUDGET_REL_TOL of p_max is taken.  The power is summed over Python
    floats in numpy's order (`_power`), so mu and W are bit for bit those
    of an array evaluation.  `_edges` places each edge where this test
    itself passes, so a step whose midpoint is outside the edges, near
    neither root, takes the half that `_power` would give it without
    evaluating it, and only the steps between the edges sum.  Raises
    after _MAX_BISECT steps.
    """
    if not p_max > 0:                        # NaN included
        raise ValueError("p_max must be positive")
    hu = h.conj().T @ u                      # (n_bs, q)
    b = hu @ f                               # linear-term matrix
    a = b @ hu.conj().T
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
    rows = list(zip(row_pow.tolist(), lam.tolist()))
    mu = 0.0
    if not _power(rows, 0.0) <= p_max:       # the test also catches inf
        lo, hi = 0.0, float(np.sqrt(np.sum(row_pow) / p_max))
        a, b, c, d = _edges(rows, p_max, hi)
        for _ in range(_MAX_BISECT):
            mid = 0.5 * (lo + hi)
            if mid <= a:                     # over budget
                lo = mid
            elif b <= mid <= c:              # feasible, within tolerance
                hi = mid
                break
            elif mid >= d:                   # feasible, not within it
                hi = mid
            else:
                val = _power(rows, mid)
                if val > p_max:
                    lo = mid
                else:
                    hi = mid
                    if p_max - val <= _BUDGET_REL_TOL * p_max:
                        break
        else:
            raise RuntimeError(
                f"power bisection did not converge in {_MAX_BISECT} steps")
        mu = hi                              # feasible side of the bracket

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
    if not p_max > 0:                        # NaN included
        raise ValueError("p_max must be positive")
    w = h0.conj().T[:, :q].astype(complex).copy()
    norm = np.linalg.norm(w)
    if norm < 1e-300:
        w = np.zeros((h0.shape[1], q), dtype=complex)
        w[:q, :q] = np.eye(q)
        norm = np.linalg.norm(w)
    return w * (np.sqrt(p_max) / norm)


def training_scheme(scheme: str, tag: str) -> str:
    """The scheme `ao_loop` trains a model-`tag` channel with: "auto" by
    the number of spherical-wave links, any other scheme as given."""
    if scheme == "auto":
        return ("angular", "two_stage", "hierarchical")[len(NEAR_LINKS[tag])]
    return scheme


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
    codeword is adopted when it does not reduce the current rate or is
    the applied one; each cycle's record says whether it was.

    Training reuses its precoder-independent work across the cycles
    (see `training`).
    """
    tag = realization.model_tag
    scheme = training_scheme(scheme, tag)
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
    last = Iteration(t=0, rate=achievable_rate(h, w, noise_var),
                     gamma=np.inf, evaluations=0, adopted=True)
    records = [last]

    while last.t < max_iters and last.gamma >= tol:
        report = train(w)
        adopted = (report.best_rate >= last.rate
                   or np.array_equal(report.best_codeword.coeffs, phi))
        if adopted:
            phi = report.best_codeword.coeffs
        h = cascade(realization, phi)
        u = optimal_combiner(h, w, noise_var).u
        f = weight_update(mse_matrix(h, w, u, noise_var))
        w = solve_precoder(h, u, f, p_max).w
        rate = achievable_rate(h, w, noise_var)
        last = Iteration(
            t=last.t + 1, rate=rate,
            gamma=abs(rate - last.rate) / max(abs(last.rate), 1e-300),
            evaluations=last.evaluations + report.evaluations,
            adopted=adopted)
        records.append(last)

    return AOState(precoder=Precoder(w=w, p_max=p_max),
                   combiner=Combiner(u=u), phi=phi, weight=f,
                   records=records)
