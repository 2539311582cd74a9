import math
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.stats

from mixlimit import processes
from mixlimit.blocking import (
    BlockingPlan,
    _block_sums,
    _identity_relerr,
    _three_blocks,
    compute_deltas,
    compute_m,
    compute_m_profile,
    compute_q,
    make_plan,
    verify_blocking,
)
from mixlimit.harness import CSV_COLUMNS, csv_text
from mixlimit.probcore import ks_distance
from mixlimit.mixing import MarkovChainSpec
from mixlimit.processes import (
    _CHUNK_ROWS,
    InnovationLaw,
    NormingSequences,
    ProcessSpec,
    marginal_abs_tail,
    norming_for,
    simulate_many,
)

A_RECIP = lambda n: 1.0 / np.asarray(n, dtype=float)
A_SQRT = lambda n: np.asarray(n, dtype=float) ** -0.5


def scan_oracle(a, c, n):
    best = 1
    for k in range(1, n):
        if a(n) / a(k) <= c:
            best = k
    return best


# ---------------------------------------------------------------- compute_m

def test_compute_m_examples():
    assert compute_m(A_RECIP, 0.5, 10) == 5 == scan_oracle(lambda n: 1 / n, 0.5, 10)
    assert compute_m(A_SQRT, 0.5, 100) == 25 == scan_oracle(lambda n: n ** -0.5, 0.5, 100)


def test_compute_m_empty_set_fallback():
    # a(2)/a(1) = 1/sqrt(2) > 0.5: the qualifying set is empty
    assert compute_m(A_SQRT, 0.5, 2) == 1


def test_compute_m_matches_scan_on_irregular_sequence():
    rng = np.random.default_rng(0)
    vals = np.exp(rng.normal(0, 0.5, 60)) / np.arange(1, 61)

    def a(n):
        n = np.asarray(n)
        return vals[n - 1]

    for n in (5, 17, 42, 60):
        assert compute_m(a, 0.4, n) == scan_oracle(lambda k: float(vals[k - 1]), 0.4, n)


def test_compute_m_rejects_bad_input():
    with pytest.raises(ValueError):
        compute_m(A_SQRT, 0.5, 1)
    with pytest.raises(ValueError):
        compute_m(A_SQRT, 1.5, 10)
    # a scaling sequence is evaluated on whole arrays of n, never n by n
    with pytest.raises(ValueError, match="vectorized"):
        compute_m(lambda n: 1.0 / math.sqrt(n), 0.5, 10)
    with pytest.raises(ValueError, match="vectorized"):
        compute_m(lambda n: 0.5, 0.5, 10)


def test_sandwich_inequality_sqrt_scaling():
    ns = np.arange(4, 2001)
    ms = compute_m_profile(A_SQRT, 0.5, ns)
    a = A_SQRT(np.arange(1, 2002, dtype=float))
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
    ds = compute_deltas(tail, 20, 0.01)
    assert np.allclose(ds, 0.01)


def test_deltas_gaussian_oracle_value():
    # iid standard normal, a(n) = n^{-1/2}: P(|Z| >= 1.5) = 0.1336 <= 0.15
    # while P(|Z| >= 1.4) = 0.1615 > 0.14, so delta_100 = 0.15 on a 0.01 grid
    tail = lambda n, d: 2 * scipy.stats.norm.sf(np.asarray(d) * np.sqrt(n))
    ds = compute_deltas(tail, 100, 0.01)
    assert ds[99] == pytest.approx(0.15, abs=1e-12)
    assert 2 * scipy.stats.norm.sf(1.5) <= 0.15
    assert 2 * scipy.stats.norm.sf(1.4) > 0.14


def test_deltas_monotone_and_inequality_reverified():
    tail = lambda n, d: 2 * scipy.stats.norm.sf(np.asarray(d) * np.sqrt(n))
    ds = compute_deltas(tail, 10_000, 0.01)
    assert np.all(np.diff(ds) <= 1e-15)
    ns = np.array([10, 100, 1000, 10_000])
    for n in ns:
        assert tail(n, ds[n - 1]) <= ds[n - 1] + 1e-15
    assert ds[9999] < ds[99]


def test_deltas_failure_names_n():
    tail = lambda n, d: np.ones_like(np.asarray(d, dtype=float)) * 1.5  # impossible tail
    with pytest.raises(ValueError, match="n = 1"):
        compute_deltas(tail, 5, 0.5)


# ---------------------------------------------------------------- compute_q

def test_compute_q_examples():
    assert compute_q(0.01, 25, 100) == 10      # min(10, 74)
    assert compute_q(1.0, 25, 100) == 1        # floor(1) = 1
    assert compute_q(0.0001, 49, 100) == 50    # cap n - m - 1 binds


# ---------------------------------------------------------------- the U/V/W split

def hand_plan():
    return BlockingPlan(
        c=0.5,
        n_values=np.array([6]),
        m=np.array([3]),
        q=np.array([2]),
        delta=np.array([0.25]),
        ratio=np.array([0.5]),
        threshold=6,
    )


def hand_norming():
    return NormingSequences(
        a=lambda n: 1.0 / np.asarray(n, dtype=float),
        b=lambda n: np.zeros_like(np.asarray(n, dtype=float)),
        provenance="a(n) = 1/n, b = 0",
    )


def hand_split(values, n=6):
    """(U, V, W, total) of values by the hand plan at n."""
    i = hand_plan().index_of(n)
    return _three_blocks(values, hand_norming(), int(hand_plan().m[i]),
                         int(hand_plan().q[i]), n)


def test_decompose_hand_example():
    u, v, w, total = hand_split(np.arange(1.0, 7.0))
    assert u == pytest.approx(1.0)     # (a6/a3)(S3/3) = 0.5 * 2
    assert v == pytest.approx(1.5)     # (S5 - S3)/6
    assert w == pytest.approx(1.0)     # (S6 - S5)/6
    assert total == pytest.approx(3.5)
    assert _identity_relerr(u, v, w, total) < 1e-15


def test_decompose_identity_random_paths():
    rng = np.random.default_rng(1)
    nm = norming_for(ProcessSpec(family="iid"))
    tail = marginal_abs_tail(ProcessSpec(family="iid"))
    plan = make_plan(nm, tail, 0.5, (64, 128))
    for _ in range(20):
        vals = rng.standard_normal(128) * rng.uniform(0.5, 2)
        for n in (64, 128):
            i = plan.index_of(n)
            u, v, w, total = _three_blocks(vals, nm, int(plan.m[i]), int(plan.q[i]), n)
            direct = nm.a_values(np.array([n]))[0] * vals[:n].sum()
            assert u + v + w == pytest.approx(direct, rel=1e-12)
            assert _identity_relerr(u, v, w, total) < 1e-9


def test_decompose_zero_middle_block_gives_zero_v():
    _, v, _, _ = hand_split(np.array([1.0, 2.0, 3.0, 0.0, 0.0, 4.0]))
    assert v == 0.0


def test_decompose_row_matches_verify_blocking_split():
    # the split of one row of a simulate_many matrix, alone, and the split
    # that verify_blocking applies to the whole matrix agree bit for bit
    spec = ProcessSpec(family="ar1", phi=0.5)
    nm = norming_for(spec)
    plan = make_plan(nm, marginal_abs_tail(spec), 0.5, (256, 512))
    paths = simulate_many(spec, 512, 8, 4, label="blocking")
    for n in (256, 512):
        i = plan.index_of(n)
        m, q = int(plan.m[i]), int(plan.q[i])
        whole = _three_blocks(paths, nm, m, q, n)
        for r in (0, 5):
            row = _three_blocks(paths[r], nm, m, q, n)
            assert row == tuple(part[r] for part in whole)


def test_decompose_rejects_pre_asymptotic():
    # at n=4: m+q = 4 is not < n, so the blocks do not separate yet; from
    # the threshold n=6 on they do
    plan = BlockingPlan(
        c=0.5, n_values=np.array([4, 6]), m=np.array([2, 3]), q=np.array([2, 2]),
        delta=np.array([0.25, 0.25]), ratio=np.array([0.5, 0.5]), threshold=6,
    )
    assert plan.is_pre_asymptotic(4)
    assert not plan.is_pre_asymptotic(6)
    assert not hand_plan().is_pre_asymptotic(6)


# ---------------------------------------------------------------- plans

def test_plan_invariants_sqrt_norming():
    nm = norming_for(ProcessSpec(family="iid"))
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
    nm = norming_for(spec)
    plan = make_plan(nm, marginal_abs_tail(spec), 0.5, (256, 4096))
    i = plan.index_of(4096)
    m, q = int(plan.m[i]), int(plan.q[i])
    paths = simulate_many(spec, 4096, 2000, 17, label="wlimit")
    a_n = nm.a_values(np.array([4096]))[0]
    w = a_n * paths[:, m + q:].sum(axis=1)
    sd = np.sqrt(1 - 0.5 ** 2)
    ks = ks_distance(w, lambda x: scipy.stats.norm.cdf(np.asarray(x) / sd))
    assert ks < 0.05


FINDING1 = ProcessSpec(family="markov_function", chain=MarkovChainSpec(
    [-1.0, 2.0, 0.5], [[0.6, 0.3, 0.1], [0.3, 0.6, 0.1], [0.2, 0.2, 0.6]], [1 / 3, 1 / 3, 1 / 3]))
BLOCKING_SPECS = {
    "iid-normal": ProcessSpec(family="iid"),
    "iid-uniform": ProcessSpec(family="iid", innovations=InnovationLaw("uniform", 0.0, 1.0)),
    "iid-rademacher": ProcessSpec(family="iid", innovations=InnovationLaw("rademacher", 0.0, 1.0)),
    "ar1": ProcessSpec(family="ar1", phi=0.5),
    "ma_q": ProcessSpec(family="ma_q", weights=(1.0, 0.5, 0.25)),
    "markov_function": FINDING1,
}
# one block, a block less or more by one row, two blocks and seven rows, and
# two and four blocks less or more by at most seven rows
BLOCK_BOUNDARY_REPS = (1, _CHUNK_ROWS - 1, _CHUNK_ROWS, _CHUNK_ROWS + 1, 2 * _CHUNK_ROWS + 7,
                       1023, 1024, 1025, 2055)


@pytest.mark.parametrize("reps", BLOCK_BOUNDARY_REPS)
@pytest.mark.parametrize("name", sorted(BLOCKING_SPECS))
def test_chunked_block_sums_equal_the_whole_matrix_split(name, reps):
    spec = BLOCKING_SPECS[name]
    nm = norming_for(spec)
    plan = make_plan(nm, marginal_abs_tail(spec), 0.5, (64, 128))
    blocks = _block_sums(spec, nm, plan, [64, 128], reps, 8)
    paths = simulate_many(spec, 128, reps, 8, label="blocking")
    for n in (64, 128):
        i = plan.index_of(n)
        whole = _three_blocks(paths, nm, int(plan.m[i]), int(plan.q[i]), n)
        assert all(np.array_equal(a, b) for a, b in zip(blocks[n], whole))


@pytest.mark.parametrize("reps", BLOCK_BOUNDARY_REPS)
@pytest.mark.parametrize("name", sorted(BLOCKING_SPECS))
def test_verify_blocking_rows_equal_the_whole_matrix_rows(monkeypatch, name, reps):
    # the reference hands verify_blocking the whole simulate_many matrix as
    # one block, so _three_blocks splits it at once
    spec = BLOCKING_SPECS[name]
    rows = verify_blocking(spec, n_grid=(64, 128), replications=reps, seed=8)
    whole = simulate_many(spec, 128, reps, 8, label="blocking")
    monkeypatch.setattr(processes, "_map_blocks",
                        lambda spec, n, reps, seed, label, reduce: [reduce(0, whole)])
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
    verify_blocking(spec, n_grid=n_grid, replications=50, seed=3)   # loads scipy first
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


def test_verify_blocking_rejects_degenerate():
    with pytest.raises(ValueError, match="degenerate"):
        verify_blocking(ProcessSpec(family="ma_q", weights=(1.0, -1.0)), n_grid=(64,),
                        replications=10, seed=0)
