"""Bernstein blocking: split a normalized partial sum into three blocks.

For a scaling sequence a and a fixed c in (0, 1), each horizon n gets a
leading-block length m_n (the largest k < n with a(n)/a(k) <= c), an
infinitesimality level delta_n (smallest grid value with
tail(n, delta) <= delta, monotonized downward), and a separating-block
length q_n <= delta_n^{-1/2} capped at n - m_n - 1.  The normalized sum
then decomposes exactly as

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
from .probcore import _cf_values, ks_distance
from .processes import NormingSequences, ProcessSpec, _vectorized

DEFAULT_DELTA_GRID_STEP = 0.05
DEFAULT_EPSILON = 0.1
DEFAULT_TIGHTNESS_BOUND = 10.0
DEFAULT_KS_TOL = 0.05
DEFAULT_N_GRID = (256, 512, 1024, 2048, 4096)


def compute_m(a, c: float, n: int) -> int:
    """m_n = max{1 <= k <= n-1 : a(n)/a(k) <= c}, or 1 when no k qualifies."""
    return int(compute_m_profile(a, c, [n])[0])


def compute_m_profile(a, c: float, n_values) -> np.ndarray:
    """compute_m for every n in n_values, over a shared table of a(1..max n)."""
    n_values = np.asarray(n_values, dtype=int)
    if np.any(n_values < 2):
        raise ValueError("n must be at least 2")
    if not 0.0 < c < 1.0:
        raise ValueError("c must lie strictly inside (0, 1)")
    table = _a_values(a, int(n_values.max()))
    m = []
    for n in n_values:
        ok = np.nonzero(table[n - 1] <= c * table[: n - 1])[0]
        m.append(int(ok[-1] + 1) if len(ok) else 1)
    return np.array(m)


def _a_values(a, n_max: int) -> np.ndarray:
    vals = _vectorized(a.a if isinstance(a, NormingSequences) else a, np.arange(1, n_max + 1))
    if np.any(vals <= 0) or not np.all(np.isfinite(vals)):
        raise ValueError("scaling sequence a must be positive and finite")
    return vals


def compute_deltas(tail, horizon: int, grid_step: float = DEFAULT_DELTA_GRID_STEP) -> np.ndarray:
    """Infinitesimality levels delta_1..delta_horizon.

    tail(n, delta) must return max_{k<=n} P(a_n |X_k| >= delta).  Per n
    the smallest grid multiple of grid_step with tail(n, delta) <= delta
    is selected; a reverse running maximum then enforces a nonincreasing
    sequence.  Monotonization only ever raises a level, and tails are
    nonincreasing in delta, so the defining inequality survives it.
    """
    if horizon < 1:
        raise ValueError("horizon must be positive")
    if not 0.0 < grid_step <= 1.0:
        raise ValueError("grid_step must lie in (0, 1]")
    grid = np.round(np.arange(1, int(np.floor(1.0 / grid_step)) + 1) * grid_step, 12)
    raw = np.empty(horizon)
    for i, n in enumerate(range(1, horizon + 1)):
        t = np.asarray(tail(n, grid), dtype=float)
        ok = np.nonzero(t <= grid)[0]
        if len(ok) == 0:
            raise ValueError(
                f"no grid level delta <= {grid[-1]} satisfies tail(n, delta) <= delta "
                f"at n = {n}: the array is not infinitesimal at this horizon"
            )
        raw[i] = grid[ok[0]]
    return np.maximum.accumulate(raw[::-1])[::-1]


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
        for name in ("n_values", "m", "q", "delta", "ratio"):
            arr = np.asarray(getattr(self, name))
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
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


def make_plan(
    norming: NormingSequences,
    tail,
    c: float,
    n_values=DEFAULT_N_GRID,
) -> BlockingPlan:
    """Assemble (m, delta, q) for each n, with deltas monotonized over the
    full horizon 1..max(n_values) on the DEFAULT_DELTA_GRID_STEP grid.

    tail(threshold) must return max_k P(|X_k| >= threshold); it is
    rescaled internally by a(n).
    """
    n_values = np.asarray(sorted(int(n) for n in n_values))
    if len(n_values) == 0 or n_values[0] < 2:
        raise ValueError("blocking needs a nonempty grid of n >= 2")
    horizon = int(n_values.max())
    table = _a_values(norming, horizon)

    def array_tail(n, deltas):
        return np.asarray(tail(np.asarray(deltas) / table[n - 1]), dtype=float)

    deltas_full = compute_deltas(array_tail, horizon)
    m = compute_m_profile(norming, c, n_values)
    delta = deltas_full[n_values - 1]
    q = np.array([compute_q(d, int(mm), int(n)) for d, mm, n in zip(delta, m, n_values)])
    ratio = table[n_values - 1] / table[m - 1]
    past_threshold = n_values[(m + q) < n_values]
    threshold = int(past_threshold[0]) if len(past_threshold) else int(n_values[-1] + 1)
    return BlockingPlan(
        c=float(c), n_values=n_values, m=m, q=q, delta=delta, ratio=ratio, threshold=threshold
    )


def _three_blocks(values, norming: NormingSequences, m: int, q: int, n: int):
    """(U, V, W, total) of the first n values along the last axis.

    total = a(n) S_n + b(n) sums the n values directly, so that
    _identity_relerr compares two independently rounded sides.  It stays
    private: it runs on worker threads, and bench/tracer.py wraps every
    public function with a span stack that is not thread-safe.
    """
    x = np.moveaxis(np.asarray(values, dtype=float), -1, 0)
    (a_n, b_n), (a_m, b_m) = norming.at(n), norming.at(m)
    ratio = a_n / a_m
    u = ratio * (a_m * x[:m].sum(axis=0) + b_m)
    v = a_n * x[m : m + q].sum(axis=0)
    w = a_n * x[m + q : n].sum(axis=0) + b_n - ratio * b_m
    total = norming.normalized_sum(x[:n], axis=0)
    return u, v, w, total


def _identity_relerr(u, v, w, total) -> float:
    """max |U + V + W - total| / max(1, |total|)."""
    return float(np.max(np.abs(u + v + w - total) / np.maximum(1.0, np.abs(total))))


def _block_sums(spec: ProcessSpec, norming: NormingSequences, plan: BlockingPlan, ns,
                replications: int, seed: int) -> dict:
    """{n: (U, V, W, total)} over replications simulated paths of length max(ns).

    Each block of paths is split as it is drawn and then dropped, so no
    (replications, n) matrix is held.  Every entry is a per-row sum,
    bitwise equal to the same split of the simulate_many matrix.
    """
    def split(r0, block):
        out = []
        for n in ns:
            i = plan.index_of(n)
            out.append(_three_blocks(block, norming, int(plan.m[i]), int(plan.q[i]), n))
        return out

    parts = processes._map_blocks(spec, max(ns), replications, seed, "blocking", split)
    return {n: tuple(map(np.concatenate, zip(*(p[k] for p in parts)))) for k, n in enumerate(ns)}


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
    The ceilings are fixed: DEFAULT_EPSILON, DEFAULT_KS_TOL and
    DEFAULT_TIGHTNESS_BOUND here, the CF radius and c-values in selfdecomp.
    """
    norming = processes.norming_for(spec)
    tail = processes.marginal_abs_tail(spec)
    plan = make_plan(norming, tail, c, n_grid)
    usable = [int(n) for n in plan.n_values if not plan.is_pre_asymptotic(int(n))]
    if not usable:
        raise ValueError("every n in the grid is pre-asymptotic; enlarge the grid")
    n_max = max(usable)
    blocks = _block_sums(spec, norming, plan, usable, replications, seed)
    limit = processes.limit_cdf(spec)
    alpha_env = processes.analytic_alpha_profile(
        spec, sorted({int(qq) + 1 for qq in plan.q})
    )
    rows = []
    se_alpha = 0.3536 / np.sqrt(replications)   # sd of the median-split statistic under independence
    freqs = selfdecomp.uniform_grid(selfdecomp.DEFAULT_EMPIRICAL_RADIUS, 21)

    for n in usable:
        i = plan.index_of(n)
        m, q, d, ratio = int(plan.m[i]), int(plan.q[i]), float(plan.delta[i]), float(plan.ratio[i])
        u, v, w, total = blocks[n]
        relerr = _identity_relerr(u, v, w, total)
        base = dict(n=n, m_n=m, q_n=q, delta_n=d, ratio=ratio)

        rows.append({**base, "metric_name": "eq8_identity_max_relerr", "value": relerr,
                     "analytic_ceiling": 1e-9, "pass": relerr <= 1e-9})

        p_hat = float(np.mean(np.abs(v) > DEFAULT_EPSILON))
        ceiling = min(1.0, q * d)
        se = float(np.sqrt(max(p_hat * (1 - p_hat), 0.0) / replications))
        rows.append({**base, "metric_name": "step5_v_exceed_prob", "value": p_hat,
                     "analytic_ceiling": ceiling, "pass": p_hat <= ceiling + 3 * se})

        scaled_limit = lambda x, r=ratio: limit(np.asarray(x) / r)
        ks_u = ks_distance(u, scaled_limit)
        rows.append({**base, "metric_name": "step6_u_ks_to_scaled_limit", "value": ks_u,
                     "analytic_ceiling": DEFAULT_KS_TOL, "pass": ks_u <= DEFAULT_KS_TOL})

        q99 = float(np.quantile(np.abs(w), 0.99))
        rows.append({**base, "metric_name": "step7_w_abs_q99", "value": q99,
                     "analytic_ceiling": DEFAULT_TIGHTNESS_BOUND,
                     "pass": q99 <= DEFAULT_TIGHTNESS_BOUND})

        alpha_bound = alpha_env.alpha_at(q + 1)
        emp_alpha = _split_alpha(u, w)
        rows.append({**base, "metric_name": "eq11_uw_alpha_split", "value": emp_alpha,
                     "analytic_ceiling": alpha_bound + 3 * se_alpha,
                     "pass": emp_alpha <= alpha_bound + 3 * se_alpha})

        ks_uw = ks_distance(u + w, limit)
        rows.append({**base, "metric_name": "eq10_uw_sum_ks_to_limit", "value": ks_uw,
                     "analytic_ceiling": DEFAULT_KS_TOL, "pass": ks_uw <= DEFAULT_KS_TOL})

        cf_u, cf_w = _cf_values(freqs, u), _cf_values(freqs, w)
        prod_err = float(np.max(np.abs(_cf_values(freqs, u + w) - cf_u * cf_w)))
        prod_ceiling = 4.0 * alpha_bound + 6.0 / np.sqrt(replications)
        rows.append({**base, "metric_name": "eq12_cf_factorization_err", "value": prod_err,
                     "analytic_ceiling": prod_ceiling, "pass": prod_err <= prod_ceiling})

        if n == n_max:
            rep = selfdecomp.selfdecomp_test_sample(total)
            # NaN when every c is inconclusive
            worst = min((r["worst_violation"] for r in rep["per_c"]
                         if r["worst_violation"] is not None), default=float("nan"))
            rows.append({**base, "metric_name": "eq5_selfdecomp_min_eig", "value": worst,
                         "analytic_ceiling": -rep["tol"], "pass": rep["verdict"] == "pass"})

    return tuple(rows)
