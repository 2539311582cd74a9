"""Bernstein blocking: split a normalized partial sum into three blocks.

For a scaling sequence a and a fixed c in (0, 1), each horizon n of a
grid gets a leading-block length m_n (the largest k < n with a(n) <=
c a(k)), an infinitesimality level delta_n (smallest grid value with
tail(n, delta) <= delta), and a separating-block length q_n <=
delta_n^{-1/2} capped at n - m_n - 1.  The normalized sum then
decomposes exactly as

    U + V + W = a(n) S_n + b(n)
    U = (a(n)/a(m)) (a(m) S_m + b(m))         leading block, rescaled
    V = a(n) (S_{m+q} - S_m)                  short separating block
    W = a(n) (S_n - S_{m+q}) + b(n) - (a(n)/a(m)) b(m)

and the Monte Carlo report checks the per-block claims: V negligible
with analytic ceiling q delta, U close to the c-scaled limit, W tight,
the leading/trailing dependence dominated by the mixing coefficient at
lag q+1, and the limit's characteristic function factorizing into the
U and W factors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import processes, selfdecomp
from .probcore import PASSING, _cf_values, _freeze, judge, ks_distance
from .processes import NormingSequences, ProcessSpec

DEFAULT_DELTA_GRID_STEP = 0.05
DEFAULT_EPSILON = 0.1
DEFAULT_TIGHTNESS_BOUND = 10.0
DEFAULT_KS_TOL = 0.05
DEFAULT_N_GRID = (256, 512, 1024, 2048, 4096)


def compute_m_profile(a, c: float, n_values) -> np.ndarray:
    """m_n = max{1 <= k < n : a(n) <= c a(k)}, or 1 if none, per n in n_values.

    For a nonincreasing vectorized a these k are 1..m_n, found by bisection
    from about log2 n values of a, each checked against the values that
    bracket it: an increase raises ValueError."""
    n_values = np.asarray(n_values, dtype=int)
    if np.any(n_values < 2):
        raise ValueError("n must be at least 2")
    if not 0.0 < c < 1.0:
        raise ValueError("c must lie strictly inside (0, 1)")
    a_n = np.asarray(a(n_values), dtype=float)
    # k = lo qualifies (or is 0) and k = hi does not (or is n)
    lo, hi = np.zeros_like(n_values), n_values.copy()
    a_lo, a_hi = np.full(len(n_values), np.inf), a_n.copy()
    increase = np.any(np.diff(a_n[np.argsort(n_values)]) > 0)
    while not increase and len(live := np.nonzero(hi - lo > 1)[0]):
        mid = (lo[live] + hi[live]) // 2
        a_mid = np.asarray(a(mid), dtype=float)
        increase = np.any((a_mid > a_lo[live]) | (a_mid < a_hi[live]))
        ok = a_n[live] <= c * a_mid
        lo[live[ok]], a_lo[live[ok]] = mid[ok], a_mid[ok]
        hi[live[~ok]], a_hi[live[~ok]] = mid[~ok], a_mid[~ok]
    if increase:
        raise ValueError("the scaling a must not increase in n")
    return np.maximum(lo, 1)


def compute_deltas(tail, n_values, grid_step: float = DEFAULT_DELTA_GRID_STEP) -> np.ndarray:
    """delta_n per n in n_values: the smallest grid multiple of grid_step
    with tail(n, delta) <= delta, where tail(n, delta) is
    max_{k<=n} P(a_n |X_k| >= delta).  Every larger level must satisfy it
    too, so an increase of the tail in delta raises ValueError.  tail is
    called once, with n the column n_values[:, None] and delta the grid
    row, and its result is broadcast to (len(n_values), len(grid)), so a
    tail that ignores n may return one row."""
    n_values = np.asarray(n_values, dtype=int)
    if np.any(n_values < 1):
        raise ValueError("n must be positive")
    if not 0.0 < grid_step <= 1.0:
        raise ValueError("grid_step must lie in (0, 1]")
    grid = np.round(np.arange(1, int(np.floor(1.0 / grid_step)) + 1) * grid_step, 12)
    t = np.broadcast_to(np.asarray(tail(n_values[:, None], grid), dtype=float),
                        (len(n_values), len(grid)))
    if np.any(np.diff(t, axis=1) > 0):
        raise ValueError("the tail must not increase in its threshold")
    ok = t <= grid
    found = ok.any(axis=1)
    if not found.all():
        n = n_values[np.argmin(found)]
        raise ValueError(f"no grid level delta <= {grid[-1]} satisfies tail(n, delta) <= delta "
                         f"at n = {n}: the array is not infinitesimal at this horizon")
    return grid[ok.argmax(axis=1)]


def compute_q(delta_n: float, m_n: int, n: int) -> int:
    """q = max(1, min(floor(delta^{-1/2}), n - m - 1))."""
    cap = n - m_n - 1
    return int(max(1, min(np.floor(delta_n ** -0.5), cap))) if cap >= 1 else 1


@dataclass(frozen=True)
class BlockingPlan:
    """Per-n blocking data for one scaling sequence and one c."""

    c: float
    n_values: np.ndarray
    m: np.ndarray
    q: np.ndarray
    delta: np.ndarray
    ratio: np.ndarray            # a(n) / a(m_n)
    threshold: int               # first n in n_values with m + q < n; earlier ns are pre-asymptotic

    def __post_init__(self):
        _freeze(self, "n_values", "m", "q", "delta", "ratio", dtype=None)
        bad = (self.m > 1) & (self.ratio > self.c * (1 + 1e-12))
        if np.any(bad):
            raise ValueError("ratio a(n)/a(m) exceeds c at an n with m > 1")
        if np.any(np.diff(self.delta) > 1e-12):
            raise ValueError("delta sequence must be nonincreasing")
        if np.any(self.q > self.delta ** -0.5 + 1e-9):
            raise ValueError("q exceeds delta^{-1/2}")

    def index_of(self, n: int) -> int:
        hits = np.nonzero(self.n_values == n)[0]
        if len(hits) == 0:
            raise KeyError(f"n={n} is not in the plan grid")
        return int(hits[0])

    def is_pre_asymptotic(self, n: int) -> bool:
        return n < self.threshold


def make_plan(norming: NormingSequences, tail, c: float, n_values=DEFAULT_N_GRID) -> BlockingPlan:
    """(m, delta, q) at each n of n_values, delta on the DEFAULT_DELTA_GRID_STEP grid.

    tail(threshold) must return (an upper envelope of) max_k P(|X_k| >=
    threshold), elementwise over a 2-D array of thresholds.  The plan
    assumes a nonincreasing and the tail nonincreasing in its threshold,
    and checks both on every value it computes (ValueError otherwise).
    Then delta_n is nonincreasing in n at every n, not only on the grid,
    and m_n is found by bisection: a plan takes one tail call and about
    log2 n values of a per n.
    """
    n_values = np.asarray(sorted(int(n) for n in n_values))
    if len(n_values) == 0 or n_values[0] < 2:
        raise ValueError("blocking needs a nonempty grid of n >= 2")

    a = lambda ns: norming.values(ns)[0]
    delta = compute_deltas(lambda n, deltas: tail(deltas / a(n)), n_values)
    m = compute_m_profile(a, c, n_values)
    q = np.array([compute_q(d, int(mm), int(n)) for d, mm, n in zip(delta, m, n_values)])
    ratio = a(n_values) / a(m)
    past_threshold = n_values[(m + q) < n_values]
    threshold = int(past_threshold[0]) if len(past_threshold) else int(n_values[-1] + 1)
    return BlockingPlan(c=float(c), n_values=n_values, m=m, q=q, delta=delta, ratio=ratio,
                        threshold=threshold)


def _windows(plan: BlockingPlan, n: int) -> list:
    """The windows of S_m, S_{m+q} - S_m, S_n - S_{m+q} and S_n at n."""
    i = plan.index_of(n)
    m, q = int(plan.m[i]), int(plan.q[i])
    return [(0, m), (m, m + q), (m + q, n), (0, n)]


def _three_blocks(norming: NormingSequences, m: int, n: int, s_lead, s_sep, s_trail, s_all):
    """(U, V, W, total) from the sums over the _windows at n, m = m_n.

    total = a(n) S_n + b(n) is taken from S_n summed directly, so that
    _identity_relerr compares two independently rounded sides.
    """
    (a_n, a_m), (b_n, b_m) = norming.values([n, m])
    ratio = a_n / a_m
    u = ratio * (a_m * s_lead + b_m)
    v = a_n * s_sep
    w = a_n * s_trail + b_n - ratio * b_m
    return u, v, w, a_n * s_all + b_n


def _identity_relerr(u, v, w, total) -> float:
    """max |U + V + W - total| / max(1, |total|)."""
    return float(np.max(np.abs(u + v + w - total) / np.maximum(1.0, np.abs(total))))


def _split_alpha(x: np.ndarray, y: np.ndarray) -> float:
    """|P(AB) - P(A)P(B)| for the median-split events of two vectors."""
    a = x <= np.median(x)
    b = y <= np.median(y)
    return float(abs(np.mean(a & b) - np.mean(a) * np.mean(b)))


def verify_blocking(
    spec: ProcessSpec,
    c: float = 0.5,
    n_grid=DEFAULT_N_GRID,
    replications: int = 10_000,
    seed: int = 0,
) -> tuple:
    """Monte Carlo verification of the blocking decomposition claims, as a
    tuple of row dicts keyed n, m_n, q_n, delta_n, ratio, metric_name,
    value, analytic_ceiling and pass.

    Per n: the exact three-block identity, the separating-block tail
    probability against its analytic ceiling min(1, q delta) plus three
    standard errors, the leading block against the c-scaled limit (KS),
    a bounded-quantile tightness proxy for the trailing block, the
    empirical leading/trailing dependence against the mixing envelope at
    lag q+1, the recombined sum against the limit (KS), the
    characteristic-function factorization error, and (at the largest n)
    the CF-ratio positive-definiteness verdict on the normalized sum.
    The factorization error at t is |Cov(xi, eta)| for xi = e^{itU} and
    eta = e^{itW}, complex and bounded by 1.  With xi' = e^{i theta} xi it
    equals max_theta Re Cov(xi', eta) = Cov(Re xi', Re eta) - Cov(Im xi',
    Im eta) <= 4 alpha + 4 alpha, each part real and bounded by 1; so its
    ceiling is 8 alpha(q+1) plus the sampling slack 6/sqrt(replications).
    The row is its max over the 10 points t > 0 of the 21-point grid: it is
    0 at t = 0 and at -t (to 1.1e-16 on the grid) its value at t, conjugated.
    The ceilings are fixed: DEFAULT_EPSILON, DEFAULT_KS_TOL and
    DEFAULT_TIGHTNESS_BOUND here, the CF radius and c-values in selfdecomp.
    """
    norming, limit = processes.asymptotics(spec)
    tail = processes.marginal_abs_tail(spec)
    plan = make_plan(norming, tail, c, n_grid)
    usable = [int(n) for n in plan.n_values if not plan.is_pre_asymptotic(int(n))]
    if not usable:
        raise ValueError("every n in the grid is pre-asymptotic; enlarge the grid")
    n_max = max(usable)
    sums = processes.window_sums(spec, n_max, replications, seed, "blocking",
                                 [w for n in usable for w in _windows(plan, n)])
    alpha_env = processes.analytic_alpha_profile(
        spec, sorted({int(qq) + 1 for qq in plan.q})
    )
    rows = []
    se_alpha = 0.3536 / np.sqrt(replications)   # sd of the median-split statistic under independence
    freqs = selfdecomp.uniform_grid(selfdecomp.DEFAULT_EMPIRICAL_RADIUS, 21)[11:]  # t > 0

    def row(name, value, ceiling, band=0.0, status=None):
        """Add row name at the current n, judged value <= ceiling + band unless status is given."""
        rows.append({**base, "metric_name": name, "value": value, "analytic_ceiling": ceiling,
                     "pass": (status or judge(value, ceiling, band)) in PASSING})

    for k, n in enumerate(usable):
        i = plan.index_of(n)
        m, q, d, ratio = int(plan.m[i]), int(plan.q[i]), float(plan.delta[i]), float(plan.ratio[i])
        u, v, w, total = _three_blocks(norming, m, n, *sums[4 * k : 4 * k + 4])
        base = dict(n=n, m_n=m, q_n=q, delta_n=d, ratio=ratio)

        row("eq8_identity_max_relerr", _identity_relerr(u, v, w, total), 1e-9)

        p_hat = float(np.mean(np.abs(v) > DEFAULT_EPSILON))
        ceiling = min(1.0, q * d)
        se = float(np.sqrt(max(p_hat * (1 - p_hat), 0.0) / replications))
        row("step5_v_exceed_prob", p_hat, ceiling, band=3 * se)

        row("step6_u_ks_to_scaled_limit", ks_distance(u, limit.scaled(ratio).cdf), DEFAULT_KS_TOL)
        row("step7_w_abs_q99", float(np.quantile(np.abs(w), 0.99)), DEFAULT_TIGHTNESS_BOUND)

        alpha_bound = alpha_env.alpha_at(q + 1)
        row("eq11_uw_alpha_split", _split_alpha(u, w), alpha_bound + 3 * se_alpha)
        row("eq10_uw_sum_ks_to_limit", ks_distance(u + w, limit.cdf), DEFAULT_KS_TOL)

        cf_u, cf_w = _cf_values(freqs, u), _cf_values(freqs, w)
        row("eq12_cf_factorization_err",
            float(np.max(np.abs(_cf_values(freqs, u + w) - cf_u * cf_w))),
            8.0 * alpha_bound + 6.0 / np.sqrt(replications))

        if n == n_max:
            rep = selfdecomp.selfdecomp_test_sample(total)
            # NaN when every c is inconclusive
            worst = min((r["worst_violation"] for r in rep["per_c"]
                         if r["worst_violation"] is not None), default=float("nan"))
            row("eq5_selfdecomp_min_eig", worst, -rep["tol"], status=rep["verdict"])

    return tuple(rows)
