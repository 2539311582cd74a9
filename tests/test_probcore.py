import math
import tracemalloc

import numpy as np
import pytest
import scipy.stats

from mixlimit import selfdecomp
from mixlimit.coupling import CouplingProblem
from mixlimit.mixing import MarkovChainSpec
from mixlimit.probcore import (
    PASSING,
    FiniteJointDistribution,
    _cf_values,
    alpha_exact,
    as_sample,
    empirical_cdf,
    judge,
    ks_distance,
    normal_cdf,
    psd_check,
)
from mixlimit.selfdecomp import selfdecomp_test_sample


def brute_alpha(pmf):
    """Independent oracle: exhaust every event pair (A, B)."""
    pmf = np.asarray(pmf, dtype=float)
    nx, nz = pmf.shape
    px, pz = pmf.sum(axis=1), pmf.sum(axis=0)
    best = 0.0
    for ma in range(1 << nx):
        a = [i for i in range(nx) if ma >> i & 1]
        for mb in range(1 << nz):
            b = [k for k in range(nz) if mb >> k & 1]
            pab = pmf[np.ix_(a, b)].sum() if a and b else 0.0
            pa = px[a].sum() if a else 0.0
            pb = pz[b].sum() if b else 0.0
            best = max(best, abs(pab - pa * pb))
    return best


def random_pmf(rng, nx, nz):
    m = rng.random((nx, nz))
    return m / m.sum()


# ---------------------------------------------------------------- empirical CF

def test_cf_point_mass_at_origin():
    values = _cf_values(np.array([-2.0, -1.0, 0.0, 1.0, 2.0]), np.zeros(3))
    assert np.allclose(values, 1.0)


def test_cf_single_point():
    b, t = 0.7, 1.3
    values = _cf_values(np.array([-t, 0.0, t]), np.array([b]))
    assert values[2] == pytest.approx(np.exp(1j * t * b), abs=1e-15)


def test_cf_two_point_is_cosine():
    sample = np.array([1.0, -1.0])
    grid = np.linspace(-3, 3, 13)
    values = _cf_values(grid, sample)
    # direct two-term summation oracle
    direct = 0.5 * (np.exp(1j * grid * 1.0) + np.exp(1j * grid * -1.0))
    assert np.allclose(values, direct, atol=1e-15)
    assert np.allclose(values.imag, 0.0, atol=1e-15)
    assert np.allclose(values.real, np.cos(grid), atol=1e-15)


@pytest.mark.parametrize("n_freqs", [1, 15, 16, 17, 41])
@pytest.mark.parametrize("size", [1, 1023, 1024, 1025, 2055])
def test_cf_blocks_equal_the_one_shot_table(n_freqs, size):
    rng = np.random.default_rng(n_freqs * size)
    freqs, x = rng.normal(0.0, 3.0, n_freqs), rng.standard_t(3, size)
    one_shot = np.exp(1j * np.multiply.outer(freqs, x)).mean(axis=1)
    assert np.array_equal(_cf_values(freqs, x), one_shot)


@pytest.mark.parametrize("n_freqs", [1, 10, 17, 121])
def test_cf_cos_sin_halves_are_the_complex_exp_bit_for_bit(n_freqs):
    # t = 0, both signs of t and, at 17 and 121 frequencies, a partial last
    # chunk of 16; on a sample of both signs and on one of negative values,
    # whose products with t = 0 are all -0.0
    rng = np.random.default_rng(32 + n_freqs)
    freqs = rng.normal(0.0, 1.0, n_freqs)
    freqs[n_freqs // 2] = 0.0
    x = rng.normal(0.3, 2.0, 10_000)
    for t, sample in ((freqs, x), (-freqs, x), (freqs, -np.abs(x))):
        one_shot = np.exp(1j * np.multiply.outer(t, sample)).mean(axis=1)
        assert _cf_values(t, sample).tobytes() == one_shot.tobytes()


def test_cf_peak_memory_is_one_cos_sin_buffer():
    # the chunks share one (16, n, 2) buffer of cos and sin, which holds the
    # phases too; each chunk's complex exp held its phases, their complex
    # copy and the exponentials, two such buffers, made afresh for every chunk
    x = np.random.default_rng(7).standard_normal(20_000)
    freqs = np.linspace(-0.5, 0.5, 121)
    buffer = 16 * len(x) * 2 * 8
    _cf_values(freqs[:2], x)                                # first-call work
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        _cf_values(freqs, x)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert buffer <= peak < 1.05 * buffer


def test_cf_rejects_empty_sample():
    with pytest.raises(ValueError, match="nonempty 1-D"):
        as_sample(np.array([]))
    with pytest.raises(ValueError, match="nonempty 1-D"):
        selfdecomp_test_sample(np.array([]))
    with pytest.raises(ValueError, match="nonempty 1-D"):
        ks_distance([], scipy.stats.norm.cdf)


def test_sample_check_rejects_matrices_and_non_finite_points():
    assert np.array_equal(as_sample([1, 2]), np.array([1.0, 2.0]))
    with pytest.raises(ValueError, match="nonempty 1-D"):
        as_sample(np.zeros((3, 1)))
    with pytest.raises(ValueError, match="nonempty 1-D"):
        as_sample(0.5)
    for bad in (np.inf, -np.inf, np.nan):
        with pytest.raises(ValueError, match="non-finite"):
            as_sample([0.0, bad])
        with pytest.raises(ValueError, match="non-finite"):
            selfdecomp_test_sample([0.0, bad])
        with pytest.raises(ValueError, match="non-finite"):
            ks_distance([0.0, bad], scipy.stats.norm.cdf)


def test_cf_invariants_random_samples(monkeypatch):
    # the sample CF the ratio test reads has phi(0) = 1 and
    # phi(-t) = conj(phi(t)) exactly, and modulus at most 1
    evaluators = []
    monkeypatch.setattr(selfdecomp, "_ratio_test", lambda evaluate, *args: evaluators.append(evaluate))
    rng = np.random.default_rng(5)
    for _ in range(10):
        x = rng.standard_normal(rng.integers(1, 200))
        r = float(rng.uniform(0.5, 4.0))
        grid = np.linspace(-r, r, 2 * int(rng.integers(2, 12)) + 1)
        selfdecomp_test_sample(x)
        values = evaluators[-1](grid)
        i0 = len(grid) // 2
        assert values[i0] == 1.0
        assert np.array_equal(values[::-1], np.conj(values))
        assert np.all(np.abs(values) <= 1.0 + 1e-9)


def test_cf_difference_matrix_is_psd():
    # an empirical CF is exactly positive-definite: the ratio-free matrix
    # phi(t_j - t_k) built from one sample must pass at tol 1e-9
    rng = np.random.default_rng(17)
    x = rng.standard_normal(500)
    t = np.linspace(-2, 2, 21)
    diffs = np.round(t[:, None] - t[None, :], 12)
    M = _cf_values(diffs.ravel(), x).reshape(diffs.shape)
    assert psd_check(M) >= -1e-9


# ---------------------------------------------------------------- psd_check

def test_psd_constant_one_rank_one():
    M = np.ones((3, 3))
    assert psd_check(M) >= -1e-12


def test_psd_gaussian_kernel_matches_eig_oracle():
    t = np.array([-1.0, 0.0, 1.0])
    M = np.exp(-((t[:, None] - t[None, :]) ** 2) / 2)
    smallest = psd_check(M)
    # M = [[1, a, b], [a, 1, a], [b, a, 1]] with a = e^{-1/2}, b = e^{-2}:
    # (1, 0, -1) has eigenvalue 1 - b, and on the span of (1, 0, 1)/sqrt 2
    # and (0, 1, 0) M acts as [[1 + b, sqrt(2) a], [sqrt(2) a, 1]], whose
    # eigenvalues are (2 + b -+ sqrt(b^2 + 8 a^2)) / 2
    a, b = np.exp(-0.5), np.exp(-2.0)
    root = np.sqrt(b * b + 8.0 * a * a)
    oracle = min(1.0 - b, (2.0 + b - root) / 2.0, (2.0 + b + root) / 2.0)
    assert smallest >= -1e-9
    assert smallest == pytest.approx(oracle, abs=1e-12)
    assert oracle == pytest.approx(0.2072, abs=1e-4)


def test_psd_detects_indefinite():
    # psi(t) = 1 + t^2 on {-1, 0, 1}: leading 2x2 minor [[1,2],[2,1]] has det -3
    t = np.array([-1.0, 0.0, 1.0])
    M = 1.0 + (t[:, None] - t[None, :]) ** 2
    assert psd_check(M) < -0.5


def test_psd_rejects_non_hermitian():
    with pytest.raises(ValueError, match="Hermitian"):
        psd_check(np.array([[1.0, 2.0], [0.0, 1.0]]))


# ---------------------------------------------------------------- judge

def test_judge_truth_table():
    # a ceiling claim passes at value = ceiling + band and fails above it
    assert judge(0.5, 0.4, band=0.1) == "pass"
    assert judge(0.5 + 1e-9, 0.4, band=0.1) == "fail"
    assert judge(0.4, 0.4) == "pass" and judge(0.41, 0.4) == "fail"
    # a negative control must exceed its ceiling: equal to it fails, and it takes no band
    assert judge(0.05, 0.05, negative=True) == "fail"
    assert judge(0.0500001, 0.05, negative=True) == "pass"
    assert judge(0.04, 0.05, band=0.1, negative=True) == "fail"
    # no value: inconclusive, in either direction
    assert judge(None, 1.0) == "inconclusive"
    assert judge(None, 1.0, negative=True) == "inconclusive"
    # a claim that does not apply is pre_asymptotic whatever its value
    for value in (0.0, 2.0, None, float("nan")):
        assert judge(value, 1.0, applies=False) == "pre_asymptotic"
        assert judge(value, 1.0, negative=True, applies=False) == "pre_asymptotic"
    # NaN fails, as a <= or > comparison with it is false
    assert judge(float("nan"), 1.0) == "fail"
    assert judge(float("nan"), 1.0, band=1.0) == "fail"
    assert judge(float("nan"), 1.0, negative=True) == "fail"
    # only pass and pre_asymptotic render as a true flag
    assert PASSING == ("pass", "pre_asymptotic")
    assert "fail" not in PASSING and "inconclusive" not in PASSING


# ---------------------------------------------------------------- ks_distance

def test_ks_own_ecdf_is_zero():
    rng = np.random.default_rng(1)
    x = rng.standard_normal(50)
    assert ks_distance(x, empirical_cdf(x)) == 0.0


def test_ks_point_mass_vs_normal():
    assert ks_distance(np.array([0.0]), scipy.stats.norm.cdf) == pytest.approx(0.5, abs=1e-12)


def test_ks_two_points_vs_uniform():
    u = lambda x: np.clip(x, 0.0, 1.0)
    assert ks_distance(np.array([0.25, 0.75]), u) == pytest.approx(0.25, abs=1e-12)


def test_ks_triangle_like_bound():
    rng = np.random.default_rng(2)
    x = rng.standard_normal(200)
    f = scipy.stats.norm.cdf
    g = lambda t: scipy.stats.norm.cdf(t, scale=1.5)
    zs = np.linspace(-10, 10, 4001)
    sup_fg = np.max(np.abs(f(zs) - g(zs)))
    assert ks_distance(x, f) <= ks_distance(x, g) + sup_fg + 1e-12


def searchsorted_ks(sample, reference_cdf):
    """ks_distance with the empirical cdf's one-sided limits at each point
    counted by binary search, the form the run counts replace."""
    x = np.sort(np.asarray(sample, dtype=float))
    n = len(x)
    right = np.searchsorted(x, x, side="right") / n
    left = np.searchsorted(x, x, side="left") / n
    f_right = np.asarray(reference_cdf(x), dtype=float)
    f_left = np.asarray(reference_cdf(np.nextafter(x, -np.inf)), dtype=float)
    return float(min(1.0, max(np.max(np.abs(right - f_right)), np.max(np.abs(left - f_left)))))


@pytest.mark.parametrize("sample", [
    np.random.default_rng(8).standard_normal(1000),
    np.round(np.random.default_rng(9).standard_normal(5000), 1),
    np.random.default_rng(10).integers(-3, 4, 777).astype(float),
    np.array([0.25, -0.0, 0.0, 0.25, 0.25, -1.0]),
    np.array([0.3]),
    np.full(64, 2.0),
], ids=["continuous", "ties", "lattice", "signed-zero", "single", "all-equal"])
def test_ks_run_counts_equal_the_searchsorted_form(sample):
    # the result is byte-identical to the binary-search counts, against a
    # continuous reference and against a step reference with jumps at the
    # lattice points
    step = lambda t: np.clip(np.floor(np.asarray(t) + 4.0) / 8.0, 0.0, 1.0)
    for ref in (normal_cdf, step):
        assert ks_distance(sample, ref) == searchsorted_ks(sample, ref)


def test_ks_rejects_decreasing_reference():
    with pytest.raises(ValueError):
        ks_distance(np.array([0.0, 1.0]), lambda t: -np.asarray(t))


# ---------------------------------------------------------------- alpha_exact

def test_alpha_product_measure_is_zero():
    rng = np.random.default_rng(3)
    px = rng.dirichlet(np.ones(3))
    pz = rng.dirichlet(np.ones(4))
    j = FiniteJointDistribution(np.arange(3), np.arange(4), np.outer(px, pz))
    assert alpha_exact(j) <= 1e-15


def test_alpha_diagonal_half():
    j = FiniteJointDistribution([0, 1], [0, 1], [[0.5, 0.0], [0.0, 0.5]])
    assert alpha_exact(j) == pytest.approx(0.25, abs=1e-15)
    assert brute_alpha(j.pmf) == pytest.approx(0.25, abs=1e-15)


def test_alpha_weakly_dependent_2x2():
    pmf = [[0.3, 0.2], [0.2, 0.3]]
    j = FiniteJointDistribution([0, 1], [0, 1], pmf)
    assert alpha_exact(j) == pytest.approx(0.05, abs=1e-15)
    # optimum sits at A={x1}, B={z1}
    assert abs(0.3 - 0.5 * 0.5) == pytest.approx(0.05)
    assert brute_alpha(pmf) == pytest.approx(0.05, abs=1e-15)


def test_alpha_matches_brute_force_random():
    rng = np.random.default_rng(4)
    for _ in range(25):
        nx, nz = int(rng.integers(2, 4)), int(rng.integers(2, 5))
        pmf = random_pmf(rng, nx, nz)
        j = FiniteJointDistribution(np.arange(nx), np.arange(nz), pmf)
        assert alpha_exact(j) == pytest.approx(brute_alpha(pmf), abs=1e-13)


def test_alpha_range_and_transpose_symmetry():
    rng = np.random.default_rng(6)
    for _ in range(20):
        pmf = random_pmf(rng, 3, 3)
        j = FiniteJointDistribution(np.arange(3), np.arange(3), pmf)
        a = alpha_exact(j)
        assert 0.0 <= a <= 0.25 + 1e-12
        transposed = FiniteJointDistribution(np.arange(3), np.arange(3), pmf.T)
        assert a == pytest.approx(alpha_exact(transposed), abs=1e-13)


def test_alpha_coarsening_never_increases():
    rng = np.random.default_rng(7)
    for _ in range(20):
        pmf = random_pmf(rng, 3, 3)
        merged = np.vstack([pmf[0] + pmf[1], pmf[2]])
        fine = FiniteJointDistribution(np.arange(3), np.arange(3), pmf)
        coarse = FiniteJointDistribution(np.arange(2), np.arange(3), merged)
        assert alpha_exact(coarse) <= alpha_exact(fine) + 1e-13


def z_side_alpha(pmf):
    """Independent oracle: enumerate every event B on the Z side; for each B
    the best A holds the x atoms with P({x} & B) > P({x}) P(B)."""
    nx, nz = pmf.shape
    px, pz = pmf.sum(axis=1), pmf.sum(axis=0)
    best = 0.0
    for start in range(0, 1 << nz, 1 << 14):
        masks = np.arange(start, min(start + (1 << 14), 1 << nz))
        sel = ((masks[:, None] >> np.arange(nz)) & 1).astype(float)      # (M, nz)
        d = sel @ pmf.T - np.outer(sel @ pz, px)                         # (M, nx)
        best = max(best, float(np.clip(d, 0.0, None).sum(axis=1).max()))
    return best


# The smaller side is the one enumerated, so a k x n_z pmf with n_z <= 4
# never reaches the 14-row split; the square cases do, from both sides.
@pytest.mark.parametrize("k, nz", [(k, nz) for k in (1, 2, 14, 15, 16, 20) for nz in (1, 2, 3, 4)]
                         + [(15, 15), (16, 16), (20, 20)])
def test_alpha_matches_z_side_oracle_across_split(k, nz):
    pmf = random_pmf(np.random.default_rng(1000 * k + nz), k, nz) ** 3
    pmf /= pmf.sum()
    want = z_side_alpha(pmf)
    for p in (pmf, pmf.T):
        j = FiniteJointDistribution(np.arange(p.shape[0]), np.arange(p.shape[1]), p)
        assert abs(alpha_exact(j) - want) <= 1e-15


@pytest.mark.parametrize("k", [3, 16, 20])
def test_alpha_optimum_holds_the_last_atom(k):
    # X's last atom has mass 1/2 and forces Z = 0; the other atoms are
    # independent of Z.  The only optimal events are A = {last atom} and its
    # complement, so the enumeration, which keeps the last atom out of A,
    # must reach the event holding every other atom.
    pmf = np.full((k, k), 1.0 / (2 * (k - 1) * k))
    pmf[-1] = 0.0
    pmf[-1, 0] = 0.5
    want = 0.25 * (1.0 - 1.0 / k)
    assert z_side_alpha(pmf) == pytest.approx(want, abs=1e-15)
    j = FiniteJointDistribution(np.arange(k), np.arange(k), pmf)
    assert abs(alpha_exact(j) - want) <= 1e-15


def test_alpha_enumeration_limit():
    n = 22
    pmf = np.full((n, 2), 1.0 / (2 * n))
    j = FiniteJointDistribution(np.arange(n), np.arange(2), pmf)
    assert alpha_exact(j) <= 1e-15          # small side is enumerated: fine
    big = FiniteJointDistribution(np.arange(n), np.arange(n), np.eye(n) / n)
    with pytest.raises(ValueError, match="limit"):
        alpha_exact(big)


def test_joint_distribution_validation():
    with pytest.raises(ValueError, match="sum"):
        FiniteJointDistribution([0, 1], [0, 1], [[0.5, 0.0], [0.0, 0.4]])
    with pytest.raises(ValueError, match="nonnegative"):
        FiniteJointDistribution([0, 1], [0, 1], [[0.6, 0.5], [0.0, -0.1]])


@pytest.mark.parametrize("atoms_x, atoms_z, pmf, field", [
    ([0, 1], [0, 1], [[0.5, np.nan], [0.0, 0.5]], "pmf"),
    ([0, np.nan], [0, 1], [[0.5, 0.0], [0.0, 0.5]], "atoms_x"),
    ([0, 1], [-np.inf, 1], [[0.5, 0.0], [0.0, 0.5]], "atoms_z"),
], ids=["pmf-nan", "atoms-x-nan", "atoms-z-inf"])
def test_joint_distribution_rejects_non_finite_entries(atoms_x, atoms_z, pmf, field):
    with pytest.raises(ValueError, match=f"^{field} has a non-finite entry$"):
        FiniteJointDistribution(atoms_x, atoms_z, pmf)


@pytest.mark.parametrize("build, fields", [
    (MarkovChainSpec, {"states": [0.0, 1.0], "transition": [[0.75, 0.25], [0.25, 0.75]],
                       "initial": [0.5, 0.5]}),
    (FiniteJointDistribution, {"atoms_x": [0.0, 1.0], "atoms_z": [0.0, 1.0],
                               "pmf": [[0.5, 0.0], [0.0, 0.5]]}),
    (lambda net: CouplingProblem(FiniteJointDistribution([0.0, 1.0], [0.0, 1.0], np.eye(2) / 2),
                                 epsilon=0.4, net=net, delta=0.0), {"net": [0.0, 1.0]}),
], ids=["chain", "joint", "coupling-net"])
def test_records_hold_read_only_copies_of_caller_arrays(build, fields):
    arrays = {name: np.array(v, dtype=float) for name, v in fields.items()}
    record = build(**arrays)
    for name, a in arrays.items():
        held = getattr(record, name)
        assert a.flags.writeable and not held.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            held[...] = 0.0
        a[...] = 7.0            # the caller's array is its own: the record does not move
        assert np.array_equal(held, fields[name])


def assert_within_cdf_bound(x, got, ref):
    """|got - ref| <= 8 (z^2 + 1) eps ref with z = |x|/sqrt(2) wherever scipy's
    ref is a normal float, and below the smallest normal float elsewhere.

    normal_cdf is erfc(-x/sqrt(2))/2 with the C library's erfc; scipy's
    Cephes ndtr forms the same z = |x|/sqrt(2), so that rounding is common,
    and then evaluates erf or erfc(z) = exp(-z^2) P(z)/Q(z).  It rounds z^2
    before the exp, a relative error of at most eps/2 in z^2 and so of
    z^2 eps/2 in exp(-z^2).  The rest is a few eps on each side: the exp,
    the rational approximations, the division and the C library's erfc,
    and on 1 <= |x| < sqrt(2) the cancellation in 1 - erf(z), which
    multiplies erf's error by erf(z)/erfc(z) < 6.  8 (z^2 + 1) eps covers
    both terms with room.
    """
    eps, tiny = np.finfo(float).eps, np.finfo(float).tiny
    z = np.abs(x) / math.sqrt(2.0)
    normal = ref >= tiny
    assert np.all(np.abs(got - ref)[normal] <= 8.0 * (z * z + 1.0)[normal] * eps * ref[normal])
    assert np.all(np.abs(got - ref)[~normal & ~np.isnan(x)] < tiny)
    assert np.array_equal(np.isnan(got), np.isnan(x))


def test_normal_cdf_is_within_its_bound_of_scipy_norm():
    # signed zeros, infinities, nan, both tails out to +-40 (where the cdf
    # underflows and the upper tail rounds to 1) and a dense middle
    x = np.concatenate([
        [0.0, -0.0, np.inf, -np.inf, np.nan, 40.0, -40.0, 38.5, -38.5, 8.3, -8.3],
        np.linspace(-40.0, 40.0, 8001),
        np.random.default_rng(5).standard_normal(10_000) * 3.0,
    ])
    assert_within_cdf_bound(x, normal_cdf(x), scipy.stats.norm.cdf(x))
    assert_within_cdf_bound(x, normal_cdf(-x), scipy.stats.norm.sf(x))
    assert normal_cdf(0.0) == normal_cdf(-0.0) == 0.5
    assert normal_cdf(-np.inf) == 0.0 and normal_cdf(np.inf) == 1.0
    assert math.isnan(normal_cdf(np.nan))
    assert np.ndim(normal_cdf(1.25)) == 0 and normal_cdf(np.zeros((2, 3))).shape == (2, 3)


def test_normal_cdf_is_within_its_bound_of_scipy_at_the_cephes_branch_ends():
    # 200 ulps either side of the ends of each branch of Cephes ndtr: z =
    # |x|/sqrt(2) at sqrt(1/2) (|x| = 1), 1 and 8, and z^2 = MAXLOG, where
    # Cephes' exp(-z^2) underflows; the cdf stays subnormal beyond
    edges = np.array([1.0, math.sqrt(2.0), 8.0 * math.sqrt(2.0), math.sqrt(2.0 * 709.782712893384)])
    x = (edges.view(np.int64)[:, None] + np.arange(-200, 201)).ravel().view(np.float64)
    x = np.concatenate([x, -x])
    assert_within_cdf_bound(x, normal_cdf(x), scipy.stats.norm.cdf(x))
    assert_within_cdf_bound(x, normal_cdf(-x), scipy.stats.norm.sf(x))
    assert np.any((normal_cdf(x) > 0) & (normal_cdf(x) < np.finfo(float).tiny))
