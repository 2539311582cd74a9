import functools
import json
import math
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.stats

from mixlimit import blocking, harness, processes
from mixlimit.blocking import (
    DEFAULT_DELTA_GRID_STEP,
    DEFAULT_N_GRID,
    BlockingPlan,
    _identity_relerr,
    _three_blocks,
    _windows,
    compute_deltas,
    compute_m_profile,
    compute_q,
    make_plan,
    verify_blocking,
)
from mixlimit.harness import CSV_COLUMNS, csv_text
from mixlimit.probcore import FiniteJointDistribution, alpha_exact, ks_distance
from mixlimit.mixing import MarkovChainSpec
from mixlimit.selfdecomp import DEFAULT_EMPIRICAL_RADIUS, uniform_grid
from mixlimit.processes import (
    InnovationLaw,
    NormingSequences,
    ProcessSpec,
    analytic_alpha_profile,
    asymptotics,
    marginal_abs_tail,
    window_sums,
)
from pathref import BLOCK_BOUNDARY_REPS, FINDING1, chunk_rule_sums, one_shot_paths, whole_matrix_sums

A_RECIP = lambda n: 1.0 / np.asarray(n, dtype=float)
A_SQRT = lambda n: np.asarray(n, dtype=float) ** -0.5

BLOCKING_SPECS = {
    "iid-normal": ProcessSpec(family="iid"),
    "iid-uniform": ProcessSpec(family="iid", innovations=InnovationLaw("uniform", 0.0, 1.0)),
    "iid-rademacher": ProcessSpec(family="iid", innovations=InnovationLaw("rademacher", 0.0, 1.0)),
    "ar1": ProcessSpec(family="ar1", phi=0.5),
    "ma_q": ProcessSpec(family="ma_q", weights=(1.0, 0.5, 0.25)),
    "markov_function": FINDING1,
}
PLAN_SPECS = {
    **BLOCKING_SPECS,
    "ar1-negative": ProcessSpec(family="ar1", phi=-0.4),
    "ma_q-mixed": ProcessSpec(family="ma_q", weights=(0.5, -0.2, 1.1)),
}


def scan_oracle(a, c, n):
    """m_n by its definition: the largest k < n with a(n) <= c a(k), or 1."""
    best = 1
    for k in range(1, n):
        if a(n) <= c * a(k):
            best = k
    return best


def m_at(a, c, n):
    """m_n of the vectorized sequence a at n."""
    return int(compute_m_profile(a, c, [n])[0])


# ---------------------------------------------------------------- compute_m_profile

def test_compute_m_examples():
    assert m_at(A_RECIP, 0.5, 10) == 5 == scan_oracle(lambda n: 1 / n, 0.5, 10)
    assert m_at(A_SQRT, 0.5, 100) == 25 == scan_oracle(lambda n: n ** -0.5, 0.5, 100)


def test_compute_m_empty_set_fallback():
    # a(2)/a(1) = 1/sqrt(2) > 0.5: the qualifying set is empty
    assert m_at(A_SQRT, 0.5, 2) == 1


def test_compute_m_matches_scan_on_irregular_sequence():
    # nonincreasing in steps of random size, a third of them flat
    rng = np.random.default_rng(0)
    vals = np.cumprod(np.where(rng.random(60) < 0.3, 1.0, rng.uniform(0.3, 1.0, 60)))

    def a(n):
        n = np.asarray(n)
        return vals[n - 1]

    for n in (5, 17, 42, 60):
        assert m_at(a, 0.4, n) == scan_oracle(lambda k: float(vals[k - 1]), 0.4, n)


def test_compute_m_rejects_bad_input():
    with pytest.raises(ValueError):
        m_at(A_SQRT, 0.5, 1)
    with pytest.raises(ValueError):
        m_at(A_SQRT, 1.5, 10)
    with pytest.raises(ValueError, match="must not increase"):
        m_at(lambda n: np.asarray(n, dtype=float), 0.5, 10)


def test_sandwich_inequality_sqrt_scaling():
    ns = np.arange(4, 2001)
    a = A_SQRT(np.arange(1, 2002, dtype=float))
    ms = compute_m_profile(A_SQRT, 0.5, ns)
    for n, m in zip(ns, ms):
        if m > 1:
            assert a[n - 1] / a[m - 1] <= 0.5 + 1e-12
            if m + 1 <= n - 1:
                assert a[n - 1] / a[m] > 0.5


def test_m_growth_along_grid():
    ns = np.array([64, 128, 256, 512, 1024])
    ms = compute_m_profile(A_SQRT, 0.5, ns)
    assert np.all(np.diff(ms) > 0)
    assert np.all(np.diff(ns - ms) > 0)


# ---------------------------------------------------------------- compute_deltas

def test_deltas_zero_process():
    tail = lambda n, d: np.zeros_like(np.asarray(d, dtype=float))
    ds = compute_deltas(tail, np.arange(1, 21), 0.01)
    assert np.allclose(ds, 0.01)


def test_deltas_gaussian_oracle_value():
    # iid standard normal, a(n) = n^{-1/2}: P(|Z| >= 1.5) = 0.1336 <= 0.15
    # while P(|Z| >= 1.4) = 0.1615 > 0.14, so delta_100 = 0.15 on a 0.01 grid
    tail = lambda n, d: 2 * scipy.stats.norm.sf(np.asarray(d) * np.sqrt(n))
    (d100,) = compute_deltas(tail, [100], 0.01)
    assert d100 == pytest.approx(0.15, abs=1e-12)
    assert 2 * scipy.stats.norm.sf(1.5) <= 0.15
    assert 2 * scipy.stats.norm.sf(1.4) > 0.14


def test_deltas_monotone_and_inequality_reverified():
    tail = lambda n, d: 2 * scipy.stats.norm.sf(np.asarray(d) * np.sqrt(n))
    ds = compute_deltas(tail, np.arange(1, 10_001), 0.01)
    assert np.all(np.diff(ds) <= 1e-15)
    ns = np.array([10, 100, 1000, 10_000])
    for n in ns:
        assert tail(n, ds[n - 1]) <= ds[n - 1] + 1e-15
    assert ds[9999] < ds[99]


def test_deltas_failure_names_n():
    tail = lambda n, d: np.ones_like(np.asarray(d, dtype=float)) * 1.5  # impossible tail
    with pytest.raises(ValueError, match="n = 1"):
        compute_deltas(tail, np.arange(1, 6), 0.5)


def loop_deltas(tail, horizon, grid_step):
    """The levels delta_1..delta_horizon by their definition over the whole
    horizon: one tail call per n, then the reverse running maximum."""
    grid = np.round(np.arange(1, int(np.floor(1.0 / grid_step)) + 1) * grid_step, 12)
    raw = np.empty(horizon)
    for i, n in enumerate(range(1, horizon + 1)):
        t = np.asarray(tail(n, grid), dtype=float)
        ok = np.nonzero(t <= grid)[0]
        assert len(ok), n
        raw[i] = grid[ok[0]]
    return np.maximum.accumulate(raw[::-1])[::-1]


def plan_tail(spec, horizon):
    """The rescaled tail make_plan hands to compute_deltas."""
    table, _ = asymptotics(spec)[0].values(np.arange(1, horizon + 1))
    tail = marginal_abs_tail(spec)
    return lambda n, d: tail(np.asarray(d) / table[n - 1])


def spread_n(horizon, count=200):
    """About count n from 1 to horizon, spread geometrically."""
    return np.unique(np.geomspace(1, horizon, count).astype(int))


@pytest.mark.parametrize("grid_step", [0.05, 0.003])
def test_deltas_equal_the_per_n_loop_on_a_gaussian_tail(grid_step):
    tail = plan_tail(ProcessSpec(family="ar1", phi=0.5), 10_000)
    ns = spread_n(10_000)
    assert np.array_equal(compute_deltas(tail, ns, grid_step),
                          loop_deltas(tail, 10_000, grid_step)[ns - 1])


def test_deltas_equal_the_per_n_loop_on_a_markov_function_tail():
    tail = plan_tail(FINDING1, 5000)
    ns = spread_n(5000)
    assert np.array_equal(compute_deltas(tail, ns, 0.01), loop_deltas(tail, 5000, 0.01)[ns - 1])


def test_deltas_tail_that_ignores_n():
    # one row of len(grid) values is broadcast over the rows of n;
    # 0.3 / delta <= delta first holds at delta = 0.55
    tail = lambda n, d: np.minimum(1.0, 0.3 / np.asarray(d))
    ds = compute_deltas(tail, np.arange(1, 10_001), 0.05)
    assert np.array_equal(ds, loop_deltas(tail, 10_000, 0.05))
    assert np.all(ds == 0.55)


def test_deltas_failure_names_the_first_failing_n():
    tail = lambda n, d: np.where(np.asarray(n) >= 5000, 1.5, 0.0) + 0.0 * np.asarray(d)
    with pytest.raises(ValueError, match="at n = 5000: "):
        compute_deltas(tail, [10, 4999, 5000, 6000], 0.05)


# ---------------------------------------------------------------- compute_q

def test_compute_q_examples():
    assert compute_q(0.01, 25, 100) == 10      # min(10, 74)
    assert compute_q(1.0, 25, 100) == 1        # floor(1) = 1
    assert compute_q(0.0001, 49, 100) == 50    # cap n - m - 1 binds


# ---------------------------------------------------------------- the U/V/W split

def hand_plan():
    return BlockingPlan(
        c=0.5,
        n_values=np.array([4, 6]),
        m=np.array([2, 3]),
        q=np.array([2, 2]),
        delta=np.array([0.25, 0.25]),
        ratio=np.array([0.5, 0.5]),
        threshold=6,
    )


def hand_norming():
    return NormingSequences(
        a=lambda n: 1.0 / np.asarray(n, dtype=float),
        b=lambda n: np.zeros_like(np.asarray(n, dtype=float)),
        provenance="a(n) = 1/n, b = 0",
    )


def cycle(values):
    """A markov_function whose every path runs through values from the
    first one on, cyclically."""
    k = len(values)
    return ProcessSpec(family="markov_function", chain=MarkovChainSpec(
        values, np.roll(np.eye(k), 1, axis=1), np.eye(k)[0]))


def hand_split(values, n=6):
    """(U, V, W, total) of three paths of cycle(values), split by the hand
    plan at n."""
    plan = hand_plan()
    sums = window_sums(cycle(values), n, 3, 0, "hand", _windows(plan, n))
    return _three_blocks(hand_norming(), int(plan.m[plan.index_of(n)]), n, *sums)


def test_decompose_hand_example():
    u, v, w, total = hand_split(np.arange(1.0, 7.0))
    assert u == pytest.approx([1.0] * 3)     # (a6/a3)(S3/3) = 0.5 * 2
    assert v == pytest.approx([1.5] * 3)     # (S5 - S3)/6
    assert w == pytest.approx([1.0] * 3)     # (S6 - S5)/6
    assert total == pytest.approx([3.5] * 3)
    assert _identity_relerr(u, v, w, total) < 1e-15
    # with m + q = n the trailing window is empty: W = 0 and U + V is the sum
    u, v, w, total = hand_split(np.arange(1.0, 7.0), n=4)
    assert w.tolist() == [0.0] * 3
    assert u == pytest.approx([0.75] * 3)    # (a4/a2)(S2/2) = 0.5 * 1.5
    assert v == pytest.approx([1.75] * 3)    # (S4 - S2)/4
    assert total == pytest.approx([2.5] * 3)
    assert _identity_relerr(u, v, w, total) < 1e-15


def test_decompose_identity_random_paths():
    rng = np.random.default_rng(1)
    nm, _ = asymptotics(ProcessSpec(family="iid"))
    tail = marginal_abs_tail(ProcessSpec(family="iid"))
    plan = make_plan(nm, tail, 0.5, (64, 128))
    for std in rng.uniform(0.5, 2, 4):
        spec = ProcessSpec(family="iid", innovations=InnovationLaw(std=float(std)))
        paths = one_shot_paths(spec, 128, 20, 1, "identity")
        for n in (64, 128):
            i = plan.index_of(n)
            sums = window_sums(spec, 128, 20, 1, "identity", _windows(plan, n))
            u, v, w, total = _three_blocks(nm, int(plan.m[i]), n, *sums)
            direct = nm.values([n])[0] * paths[:, :n].sum(axis=1)
            assert u + v + w == pytest.approx(direct, rel=1e-12)
            assert _identity_relerr(u, v, w, total) < 1e-9


def test_decompose_zero_middle_block_gives_zero_v():
    _, v, _, _ = hand_split(np.array([1.0, 2.0, 3.0, 0.0, 0.0, 4.0]))
    assert v.tolist() == [0.0] * 3


def test_decompose_row_matches_verify_blocking_split():
    # the split of one row of the one-shot paths, alone, and the split
    # of the window sums that verify_blocking takes agree bit for bit; so
    # does the split of a run of one replication, which is row 0 of any run
    spec = ProcessSpec(family="ar1", phi=0.5)
    nm, _ = asymptotics(spec)
    plan = make_plan(nm, marginal_abs_tail(spec), 0.5, (256, 512))
    paths = one_shot_paths(spec, 512, 8, 4, label="blocking")
    for n in (256, 512):
        i = plan.index_of(n)
        m, windows = int(plan.m[i]), _windows(plan, n)
        whole = _three_blocks(nm, m, n, *window_sums(spec, 512, 8, 4, "blocking", windows))
        for r in (0, 5):
            row = _three_blocks(nm, m, n, *(chunk_rule_sums(paths[r], s, e) for s, e in windows))
            assert row == tuple(part[r] for part in whole)
        first = _three_blocks(nm, m, n, *window_sums(spec, 512, 1, 4, "blocking", windows))
        assert all(np.array_equal(a, b[:1]) for a, b in zip(first, whole))


def test_decompose_rejects_pre_asymptotic():
    # at n=4: m+q = 4 is not < n, so the blocks do not separate yet; from
    # the threshold n=6 on they do
    assert hand_plan().is_pre_asymptotic(4)
    assert not hand_plan().is_pre_asymptotic(6)


# ---------------------------------------------------------------- plans

@functools.lru_cache(maxsize=None)
def horizon_deltas(name, horizon):
    """The levels delta_1..delta_horizon of PLAN_SPECS[name], as the
    plan once built them over its whole horizon."""
    spec = PLAN_SPECS[name]
    return loop_deltas(plan_tail(spec, horizon), horizon, DEFAULT_DELTA_GRID_STEP)


def horizon_plan(name, c, n_values):
    """(delta, m, ratio) at n_values by their definition over the whole
    horizon N = max(n_values): the levels' reverse running maximum over
    1..N, and m_n by a scan of the table a(1..N)."""
    n_values = np.array(sorted(n_values))
    table, _ = asymptotics(PLAN_SPECS[name])[0].values(np.arange(1, n_values[-1] + 1))
    m = np.array([scan_oracle(lambda k: table[k - 1], c, int(n)) for n in n_values])
    return horizon_deltas(name, int(n_values[-1]))[n_values - 1], m, table[n_values - 1] / table[m - 1]


PLAN_GRIDS = [
    DEFAULT_N_GRID,
    (64, 256),
    (2, 3, 4, 5, 8),
    (1023, 1024, 1025, 4999),
    tuple(np.random.default_rng(12).choice(np.arange(2, 5000), 12, replace=False).tolist()),
]


@pytest.mark.parametrize("name", sorted(PLAN_SPECS))
def test_plan_equals_the_horizon_wide_definition(name):
    # 5 grids and 3 values of c for each of 8 specs: 120 plans in all
    nm, tail = asymptotics(PLAN_SPECS[name])[0], marginal_abs_tail(PLAN_SPECS[name])
    for n_values in PLAN_GRIDS:
        for c in (0.3, 0.5, 0.8):
            plan = make_plan(nm, tail, c, n_values)
            delta, m, ratio = horizon_plan(name, c, n_values)
            assert np.array_equal(plan.delta, delta), (n_values, c)
            assert np.array_equal(plan.m, m), (n_values, c)
            assert np.array_equal(plan.ratio, ratio), (n_values, c)


def test_plan_rejects_an_increasing_norming():
    tail = marginal_abs_tail(ProcessSpec(family="iid"))
    zero = lambda n: np.zeros_like(np.asarray(n, dtype=float))
    rising = NormingSequences(a=lambda n: np.sqrt(np.asarray(n, dtype=float)), b=zero,
                              provenance="a(n) = sqrt(n)")
    with pytest.raises(ValueError, match="scaling a must not increase"):
        make_plan(rising, tail, 0.5, (64, 256))
    # decreasing on the grid, with a(33) above a(32): at n = 64 and c = 0.5
    # the bisection tests k = 32, 48, 40, 36, 34 and then 33, next to 32
    bump = NormingSequences(a=lambda n: np.where(np.asarray(n) == 33, 0.0625, A_RECIP(n)),
                            b=zero, provenance="1/n with a bump at 33")
    with pytest.raises(ValueError, match="scaling a must not increase"):
        make_plan(bump, tail, 0.5, (64, 256))


def test_plan_rejects_a_tail_that_increases_along_the_delta_grid():
    nm, _ = asymptotics(ProcessSpec(family="iid"))
    with pytest.raises(ValueError, match="tail must not increase in its threshold"):
        make_plan(nm, lambda t: np.minimum(1.0, 0.001 * np.asarray(t)), 0.5, (64, 256))


def plan_peak(n_values):
    """(traced peak of make_plan above its baseline, the plan) for AR(1)."""
    spec = ProcessSpec(family="ar1", phi=0.5)
    nm, tail = asymptotics(spec)[0], marginal_abs_tail(spec)
    make_plan(nm, tail, 0.5, n_values)                  # first-call work
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        plan = make_plan(nm, tail, 0.5, n_values)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    return peak, plan


def test_plan_peak_memory_does_not_grow_with_n():
    # a table of a(1..n) alone would take 8 n bytes: 8 TB at n = 2^40, and
    # 128 MB at n = 2^24
    _, plan = plan_peak((256, 2 ** 40))
    assert plan.m.tolist() == [64, 2 ** 38] and plan.delta.tolist() == [0.1, 0.05]
    small, _ = plan_peak((256, 2 ** 12))
    large, _ = plan_peak((256, 2 ** 24))
    assert large < 1.5 * small


def test_plan_invariants_sqrt_norming():
    nm, _ = asymptotics(ProcessSpec(family="iid"))
    tail = marginal_abs_tail(ProcessSpec(family="iid"))
    plan = make_plan(nm, tail, 0.5, (256, 512, 1024, 2048, 4096))
    assert np.all(plan.ratio <= 0.5 + 1e-12)
    assert np.all(np.diff(plan.delta) <= 1e-15)
    assert np.all(plan.q <= plan.delta ** -0.5 + 1e-9)
    assert np.all(plan.m + plan.q < plan.n_values)
    # ratio approaches c from below for the sqrt scaling
    assert plan.ratio[-1] == pytest.approx(0.5, rel=0.05)


def test_plan_invariant_violation_detected():
    with pytest.raises(ValueError, match="nonincreasing"):
        BlockingPlan(c=0.5, n_values=np.array([4, 8]), m=np.array([1, 2]),
                     q=np.array([1, 1]), delta=np.array([0.5, 0.9]),
                     ratio=np.array([0.4, 0.4]), threshold=4)
    with pytest.raises(ValueError, match="exceeds c"):
        BlockingPlan(c=0.5, n_values=np.array([8]), m=np.array([4]),
                     q=np.array([1]), delta=np.array([0.5]),
                     ratio=np.array([0.7]), threshold=8)


# ---------------------------------------------------------------- verify

@pytest.fixture(scope="module")
def small_iid_report():
    return verify_blocking(ProcessSpec(family="iid"), c=0.5, n_grid=(256, 512),
                           replications=2000, seed=3)


def metric(rows, n, name):
    """The row of rows for horizon n and metric name."""
    (row,) = [r for r in rows if r["n"] == n and r["metric_name"] == name]
    return row


def test_verify_blocking_passes_iid(small_iid_report):
    assert all(r["pass"] for r in small_iid_report)


def test_verify_report_metrics_present(small_iid_report):
    names = {r["metric_name"] for r in small_iid_report}
    assert names >= {
        "eq8_identity_max_relerr", "step5_v_exceed_prob", "step6_u_ks_to_scaled_limit",
        "step7_w_abs_q99", "eq11_uw_alpha_split", "eq10_uw_sum_ks_to_limit",
        "eq12_cf_factorization_err", "eq5_selfdecomp_min_eig",
    }


def test_verify_iid_uw_alpha_statistically_zero(small_iid_report):
    r = metric(small_iid_report, 512, "eq11_uw_alpha_split")
    assert r["value"] <= 3 * 0.3536 / np.sqrt(2000)


def test_verify_step5_respects_ceiling(small_iid_report):
    for n in (256, 512):
        r = metric(small_iid_report, n, "step5_v_exceed_prob")
        se = np.sqrt(r["value"] * (1 - r["value"]) / 2000)
        assert r["value"] <= r["analytic_ceiling"] + 3 * se + 1e-12


@pytest.mark.parametrize("t", [0.3, 0.1, 0.01])
def test_complex_covariance_exceeds_the_real_bound(t):
    # X, Z on {0, 1, 2} with p(x, z) = (1 + t cos(2 pi (x - z) / 3)) / 9 and
    # w = e^(2 pi i / 3): |Cov(w^X, w^-Z)| = t/2 = 4.5 alpha, above the real
    # bound 4 alpha that eq12 once used and within the complex bound 8 alpha
    atoms = np.arange(3)
    pmf = (1 + t * np.cos(2 * np.pi * (atoms[:, None] - atoms[None, :]) / 3)) / 9
    alpha = alpha_exact(FiniteJointDistribution(atoms, atoms, pmf))
    xi, eta = np.exp(2j * np.pi * atoms / 3), np.exp(-2j * np.pi * atoms / 3)
    cov = xi @ pmf @ eta - (pmf.sum(axis=1) @ xi) * (pmf.sum(axis=0) @ eta)
    assert alpha == pytest.approx(t / 9, rel=1e-9)
    assert abs(cov) == pytest.approx(t / 2, rel=1e-9)
    assert 4 * alpha < abs(cov) <= 8 * alpha


def test_eq12_ceiling_is_the_complex_covariance_bound():
    spec, reps = ProcessSpec(family="ar1", phi=0.5), 600
    rows = [r for r in verify_blocking(spec, n_grid=(64, 128), replications=reps, seed=8)
            if r["metric_name"] == "eq12_cf_factorization_err"]
    assert len(rows) == 2
    for r in rows:
        alpha = analytic_alpha_profile(spec, [r["q_n"] + 1]).alpha_at(r["q_n"] + 1)
        assert alpha > 0
        assert r["analytic_ceiling"] == 8.0 * alpha + 6.0 / np.sqrt(reps)


@pytest.mark.parametrize("name", ["blocking_verify", "blocking_markov"])
def test_eq12_on_the_positive_half_is_the_max_over_the_whole_grid(monkeypatch, name):
    # the row is the max over the 10 points t > 0 of the 21-point grid; on
    # the U and W of both blocking goldens it is the max over all 21 points,
    # each CF a complex exp, though the grid's mirrored points differ by up
    # to 1.1e-16
    cfg = json.loads((Path(__file__).parent / "golden" / f"{name}.json").read_text())
    blocks = []
    monkeypatch.setattr(blocking, "_three_blocks",
                        lambda *args: blocks.append(_three_blocks(*args)) or blocks[-1])
    rows = verify_blocking(harness._parse_process(cfg["process"], "config.process"),
                           c=cfg["c"], n_grid=cfg["n_grid"], replications=cfg["replications"],
                           seed=cfg["seed"])
    grid = uniform_grid(DEFAULT_EMPIRICAL_RADIUS, 21)
    cf = lambda x: np.exp(1j * np.multiply.outer(grid, x)).mean(axis=1)
    whole = [float(np.max(np.abs(cf(u + w) - cf(u) * cf(w)))) for u, _, w, _ in blocks]
    assert len(whole) == len(cfg["n_grid"])
    assert whole == [r["value"] for r in rows if r["metric_name"] == "eq12_cf_factorization_err"]


def test_eq5_row_when_every_c_is_inconclusive():
    # 50 replications lift the empirical CF floor 8/sqrt(50) above 1, so
    # every c is inconclusive: the row has no eigenvalue and does not pass
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rows = verify_blocking(ProcessSpec("iid"), n_grid=(256, 512), replications=50, seed=1)
    (row,) = [r for r in rows if r["metric_name"] == "eq5_selfdecomp_min_eig"]
    assert math.isnan(row["value"])
    assert row["pass"] is False
    cells = csv_text(CSV_COLUMNS, [row]).split("\n")[1].split(",")
    assert cells[CSV_COLUMNS.index("value")] == "nan"


def test_verify_csv_schema(small_iid_report):
    lines = csv_text(CSV_COLUMNS, small_iid_report).strip().split("\n")
    assert lines[0] == "n,m_n,q_n,delta_n,ratio,metric_name,value,analytic_ceiling,pass"
    assert all(len(line.split(",")) == 9 for line in lines[1:])
    assert {line.split(",")[-1] for line in lines[1:]} <= {"true", "false"}


def test_iid_trailing_block_reaches_its_gaussian_limit():
    # for iid sequences the remainder block has an explicit limit
    # N(0, 1 - c^2): KS must come in under 0.05 at n = 4096
    spec = ProcessSpec(family="iid")
    nm, _ = asymptotics(spec)
    plan = make_plan(nm, marginal_abs_tail(spec), 0.5, (256, 4096))
    i = plan.index_of(4096)
    m, q = int(plan.m[i]), int(plan.q[i])
    paths = one_shot_paths(spec, 4096, 2000, 17, label="wlimit")
    (a_n,), _ = nm.values([4096])
    w = a_n * paths[:, m + q:].sum(axis=1)
    sd = np.sqrt(1 - 0.5 ** 2)
    ks = ks_distance(w, lambda x: scipy.stats.norm.cdf(np.asarray(x) / sd))
    assert ks < 0.05


@pytest.mark.parametrize("reps", BLOCK_BOUNDARY_REPS)
@pytest.mark.parametrize("name", sorted(BLOCKING_SPECS))
def test_chunked_block_sums_equal_the_whole_matrix_split(name, reps):
    # the split's windows, an empty one at m + q and one from n to the
    # horizon, which is empty at n = 128
    spec = BLOCKING_SPECS[name]
    nm, _ = asymptotics(spec)
    plan = make_plan(nm, marginal_abs_tail(spec), 0.5, (64, 128))
    paths = one_shot_paths(spec, 128, reps, 8, label="blocking")
    for n in (64, 128):
        i = plan.index_of(n)
        m, q = int(plan.m[i]), int(plan.q[i])
        windows = _windows(plan, n) + [(m + q, m + q), (n, 128)]
        sums = window_sums(spec, 128, reps, 8, "blocking", windows)
        whole = [chunk_rule_sums(paths, s, e) for s, e in windows]
        assert all(a.tobytes() == b.tobytes() for a, b in zip(sums, whole, strict=True))


@pytest.mark.parametrize("reps", BLOCK_BOUNDARY_REPS)
@pytest.mark.parametrize("name", sorted(BLOCKING_SPECS))
def test_verify_blocking_rows_equal_the_whole_matrix_rows(monkeypatch, name, reps):
    # the reference hands verify_blocking the window sums of the one-shot
    # paths, taken one value at a time by the rounding rule of window_sums
    spec = BLOCKING_SPECS[name]
    rows = verify_blocking(spec, n_grid=(64, 128), replications=reps, seed=8)
    whole = one_shot_paths(spec, 128, reps, 8, label="blocking")
    monkeypatch.setattr(processes, "window_sums", whole_matrix_sums(whole))
    reference = verify_blocking(spec, n_grid=(64, 128), replications=reps, seed=8)
    assert {r["n"] for r in rows} == {64, 128}
    assert repr(rows) == repr(reference)


@pytest.mark.parametrize("name", sorted(BLOCKING_SPECS))
def test_verify_blocking_rows_do_not_depend_on_the_worker_count(monkeypatch, name):
    spec = BLOCKING_SPECS[name]
    runs = []
    for workers in (1, 2, 3):
        monkeypatch.setattr(processes, "_WORKERS", workers)
        runs.append(repr(verify_blocking(spec, n_grid=(64, 128), replications=1031, seed=8)))
    assert runs[1] == runs[0] and runs[2] == runs[0]


def verify_blocking_peak(spec, reps, n_grid):
    """Traced peak of verify_blocking above its baseline."""
    verify_blocking(spec, n_grid=n_grid, replications=50, seed=3)   # first-call work
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        rows = verify_blocking(spec, n_grid=n_grid, replications=reps, seed=3)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert {r["n"] for r in rows} == set(n_grid)
    return peak


def test_verify_blocking_peak_memory_below_a_quarter_of_the_paths():
    # the whole-matrix run held the (reps, n) paths and, in the CF-ratio
    # test, a (frequencies, reps) table of exponentials
    reps, n_grid = 16384, (256, 512)
    assert verify_blocking_peak(FINDING1, reps, n_grid) < reps * max(n_grid) * 8 / 4


def test_ar1_verify_blocking_peak_memory_below_a_quarter_of_the_paths():
    # AR(1) drew its (reps, burn + n) innovations for every replication at
    # once: more than the (reps, n) paths
    reps, n_grid = 16384, (256, 512)
    spec = ProcessSpec(family="ar1", phi=0.5)
    assert verify_blocking_peak(spec, reps, n_grid) < reps * max(n_grid) * 8 / 4


def test_an_n_with_no_c_scaled_leading_block_is_pre_asymptotic(tmp_path):
    # a(n) = (n v)^(-1/2) <= c a(k) for some k < n only from n = c^-2 on; below
    # it m_n = 1 and U is a single summand, so the c-scaled limit does not apply
    spec = ProcessSpec(family="ar1", phi=0.5)
    plan = make_plan(asymptotics(spec)[0], marginal_abs_tail(spec), 0.5, (3, 256))
    assert plan.m[0] == 1 and plan.ratio[0] > 0.5
    assert plan.is_pre_asymptotic(3) and not plan.is_pre_asymptotic(256)
    reports = []
    for n_grid in ([3, 256], [256]):
        cfg = {"kind": "blocking-verify", "seed": 5, "process": {"family": "ar1", "phi": 0.5},
               "c": 0.5, "n_grid": n_grid, "replications": 2000}
        path = tmp_path / f"{len(n_grid)}.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / f"out{len(n_grid)}"
        assert harness.run(str(path), out_dir=str(out)) == 0
        reports.append((out / "blocking_report.csv").read_bytes())
    assert reports[0] == reports[1]


def test_verify_blocking_rejects_degenerate():
    with pytest.raises(ValueError, match="degenerate"):
        verify_blocking(ProcessSpec(family="ma_q", weights=(1.0, -1.0)), n_grid=(64,),
                        replications=10, seed=0)
