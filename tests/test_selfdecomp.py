import json
import tracemalloc

import numpy as np
import pytest
import scipy.integrate
import scipy.stats

from mixlimit import processes, rngstreams
from mixlimit.probcore import _cf_values, ks_distance, psd_check
from mixlimit.processes import _CHUNK_ROWS
from mixlimit.selfdecomp import (
    BDLPSpec,
    DiscreteJumps,
    DyadicTowerJumps,
    NormalJumps,
    log_moment_check,
    sample_random_integral,
    selfdecomp_test,
    selfdecomp_test_sample,
    uniform_grid,
)

GAUSS_CF = lambda t: np.exp(-np.asarray(t, dtype=float) ** 2 / 2.0)
EXP_CF = lambda t: 1.0 / (1.0 - 1j * np.asarray(t, dtype=float))
UNIF_CF = lambda t: np.sinc(np.asarray(t, dtype=float) / np.pi)

# exact-formula eigen-oracle values for the uniform(-1,1) CF ratio matrix
# on the default grid (41 points, radius 8), computed before the build
UNIFORM_VIOLATION = {0.3: -12.698861, 0.8: -12.542182}


# ---------------------------------------------------------------- CF ratio test

def test_gaussian_cf_passes_all_c():
    rep = selfdecomp_test(GAUSS_CF, (0.3, 0.5, 0.8))
    assert rep["verdict"] == "pass"
    assert all(r["psd_pass"] for r in rep["per_c"])


def test_gaussian_ratio_matches_closed_form():
    # phi(s)/phi(cs) = exp(-s^2 (1-c^2)/2), entrywise to 1e-12
    t = uniform_grid(8.0, 41)
    s = t[:, None] - t[None, :]
    for c in (0.3, 0.5, 0.8):
        ratio = GAUSS_CF(s) / GAUSS_CF(c * s)
        closed = np.exp(-(s ** 2) * (1 - c ** 2) / 2.0)
        assert np.max(np.abs(ratio - closed)) < 1e-12


def test_exponential_cf_passes_with_mixture_identity():
    rep = selfdecomp_test(EXP_CF, (0.3, 0.5, 0.8))
    assert rep["verdict"] == "pass"
    # algebraic decomposition: phi(t)/phi(ct) = c + (1-c)/(1-it)
    t = np.linspace(-16, 16, 101)
    for c in (0.3, 0.5, 0.8):
        ratio = EXP_CF(t) / EXP_CF(c * t)
        mixture = c + (1 - c) * EXP_CF(t)
        assert np.max(np.abs(ratio - mixture)) < 1e-12


def test_uniform_cf_fails_with_pinned_magnitude():
    rep = selfdecomp_test(UNIF_CF, (0.3, 0.5, 0.8), grid_radius=8.0)
    assert rep["verdict"] == "fail"
    by_c = {r["c"]: r for r in rep["per_c"]}
    for c, expected in UNIFORM_VIOLATION.items():
        assert not by_c[c]["psd_pass"]
        assert by_c[c]["worst_violation"] == pytest.approx(expected, abs=1e-4)
        # independent eigensolver oracle
        t = uniform_grid(8.0, 41)
        s = t[:, None] - t[None, :]
        M = UNIF_CF(s) / UNIF_CF(c * s)
        oracle = np.linalg.eigvalsh(0.5 * (M + M.T)).min()
        assert by_c[c]["worst_violation"] == pytest.approx(oracle, abs=1e-8)


def test_empirical_gaussian_sample_passes_small_radius():
    rng = np.random.default_rng(3)
    s = rng.standard_normal(10_000)
    rep = selfdecomp_test_sample(s, (0.3, 0.5, 0.8))
    assert rep["verdict"] == "pass"
    assert all(r["worst_violation"] >= -1e-3 for r in rep["per_c"])


def test_empirical_wide_grid_is_inconclusive_not_pass():
    # on a radius-8 grid the denominators of a gaussian empirical CF sink
    # below the sampling-noise floor; the verdict must refuse to resolve
    rng = np.random.default_rng(4)
    s = rng.standard_normal(10_000)
    rep = selfdecomp_test_sample(s, (0.5, 0.8), grid_radius=8.0)
    assert rep["verdict"] == "inconclusive"
    assert any(r["inconclusive_at"] is not None for r in rep["per_c"])


def test_report_json_schema():
    rep = selfdecomp_test(GAUSS_CF, (0.5,))
    assert set(rep) == {"verdict", "tol", "source", "per_c"}
    row = rep["per_c"][0]
    assert set(row) == {"c", "psd_pass", "worst_violation", "grid_radius", "inconclusive_at"}


def test_c_outside_unit_interval_rejected():
    for bad in (0.0, 1.0, -0.2, 1.4):
        with pytest.raises(ValueError):
            selfdecomp_test(GAUSS_CF, (bad,))


def union_grid_test_sample(sample, c_values, radius, points):
    """selfdecomp_test_sample as it used to run, kept as a reference: pinned
    CF values on the union of the difference lattice and its c-scaled
    copies, then per c each frequency of the ratio looked up at its nearest
    union point, which must lie within 1e-9."""
    x = np.asarray(sample, dtype=float)
    t = uniform_grid(radius, points)
    diffs = np.round(t[:, None] - t[None, :], 12)
    uniq, inv = np.unique(diffs, return_inverse=True)
    grid = np.unique(np.concatenate([uniq] + [np.round(c * uniq, 12) for c in c_values]))
    values = _cf_values(grid, x)
    values[int(np.searchsorted(grid, 0.0))] = 1.0
    values = 0.5 * (values + np.conj(values[::-1]))

    def at(freqs):
        idx = np.clip(np.searchsorted(grid, freqs), 0, len(grid) - 1)
        left = np.clip(idx - 1, 0, len(grid) - 1)
        idx = np.where(np.abs(grid[left] - freqs) < np.abs(grid[idx] - freqs), left, idx)
        assert np.all(np.abs(grid[idx] - freqs) <= 1e-9)
        return values[idx]

    floor = max(1e-6, 8.0 / np.sqrt(len(x)))
    per_c, verdicts = [], set()
    for c in c_values:
        row = {"c": c, "grid_radius": float(radius), "inconclusive_at": None}
        den = at(np.round(c * uniq, 12))
        small = np.abs(den) < floor
        if np.any(small):
            row.update(psd_pass=False, worst_violation=None,
                       inconclusive_at=float(uniq[np.argmax(small)] * c))
            verdicts.add("inconclusive")
        else:
            res = psd_check((at(uniq) / den)[inv].reshape(diffs.shape), tol=1e-3)
            row.update(psd_pass=bool(res["is_psd"]), worst_violation=float(res["worst_violation"]))
            verdicts.add("pass" if res["is_psd"] else "fail")
        per_c.append(row)
    verdict = next(v for v in ("fail", "inconclusive", "pass") if v in verdicts)
    return {"verdict": verdict, "tol": 1e-3, "source": f"empirical(n={len(x)})",
            "per_c": per_c}


def test_sample_test_matches_union_grid_reference():
    # the CF evaluated where the test asks for it gives the same report
    # bytes as the union grid with its nearest-point lookup, for every verdict
    rng = np.random.default_rng(11)
    samples = [
        ("pass", rng.standard_normal(5000), (0.3, 0.5, 0.8), 0.5, 41),
        ("pass", rng.standard_normal(30_000), (0.25, 0.7), 0.5, 21),
        ("pass", rng.standard_normal(1000), (0.3, 0.5, 0.8), 0.5, 41),
        ("fail", rng.uniform(-1, 1, 20_000), (0.3, 0.5, 0.8), 1.0, 21),
        ("fail", rng.integers(0, 2, 20_000).astype(float), (0.3, 0.5, 0.8), 0.5, 41),
        ("fail", rng.choice([-1.0, 1.0], 7001), (0.25, 0.7), 3.0, 21),
        ("fail", rng.integers(-3, 4, 12_000).astype(float), (0.3, 0.5, 0.8), 1.0, 21),
        ("inconclusive", rng.standard_normal(10_000), (0.3, 0.5, 0.8), 8.0, 41),
        ("inconclusive", rng.standard_normal(16), (0.5,), 0.5, 21),
        ("inconclusive", rng.uniform(-1, 1, 20_000), (0.25, 0.7), 6.0, 21),
        ("inconclusive", 3.0 + rng.standard_normal(2000), (0.3, 0.5, 0.8), 4.0, 5),
    ]
    for verdict, x, cs, radius, points in samples:
        rep = selfdecomp_test_sample(x, cs, grid_radius=radius, grid_points=points)
        assert rep["verdict"] == verdict
        ref = union_grid_test_sample(x, cs, radius, points)
        assert json.dumps(rep, sort_keys=True) == json.dumps(ref, sort_keys=True)


# ---------------------------------------------------------------- random integral

def test_drift_only_exact_any_step_count():
    expect = 2.0 * (1.0 - np.exp(-20.0))
    for n_steps in (1, 7, 64, 1000):
        s = sample_random_integral(BDLPSpec(drift=2.0), 20.0, n_steps, 4, seed=0)
        assert np.max(np.abs(s - expect)) < 1e-8


def test_gaussian_bdlp_variance():
    # isometry: Var = sigma^2 integral e^{-2t} dt = 1/2
    s = sample_random_integral(BDLPSpec(gaussian_sigma=1.0), 20.0, 400, 100_000, seed=1)
    assert s.var() == pytest.approx(0.5, rel=0.03)


def test_compound_poisson_bdlp_moments():
    law = DiscreteJumps((-1.0, 1.0), (0.5, 0.5))
    s = sample_random_integral(BDLPSpec(jump_rate=1.0, jump_law=law), 20.0, 50, 100_000, seed=2)
    assert s.mean() == pytest.approx(0.0, abs=0.01)
    assert s.var() == pytest.approx(0.5, rel=0.05)


def test_integral_determinism():
    a = sample_random_integral(BDLPSpec(gaussian_sigma=1.0, jump_rate=2.0,
                                        jump_law=NormalJumps()), 10.0, 50, 100, seed=5)
    b = sample_random_integral(BDLPSpec(gaussian_sigma=1.0, jump_rate=2.0,
                                        jump_law=NormalJumps()), 10.0, 50, 100, seed=5)
    assert np.array_equal(a, b)


def test_resolution_doubling_ks_small():
    s1 = sample_random_integral(BDLPSpec(gaussian_sigma=1.0), 20.0, 200, 50_000, seed=6)
    s2 = sample_random_integral(BDLPSpec(gaussian_sigma=1.0), 20.0, 400, 50_000, seed=7)
    x2 = np.sort(s2)
    cdf2 = lambda x: np.searchsorted(x2, np.asarray(x), side="right") / len(x2)
    assert ks_distance(s1, cdf2) < 0.01


def one_shot_random_integral(bdlp, t_max, n_steps, n_samples, seed):
    """sample_random_integral by its definition: sample r is entry r mod
    _CHUNK_ROWS of block r // _CHUNK_ROWS, and each block draws its
    Gaussian increments in one shot from its own stream, then its jumps,
    which are added one sample at a time."""
    edges = np.linspace(0.0, t_max, n_steps + 1)
    mids = 0.5 * (edges[:-1] + edges[1:])
    blocks = []
    for b, r0 in enumerate(range(0, n_samples, _CHUNK_ROWS)):
        rng = rngstreams.stream(seed, "bdlp-integral", b)
        out = np.full(min(_CHUNK_ROWS, n_samples - r0), bdlp.drift * -np.expm1(-t_max))
        if bdlp.gaussian_sigma > 0:
            z = rng.standard_normal((len(out), n_steps))
            out += bdlp.gaussian_sigma * (z * (np.exp(-mids) * np.sqrt(np.diff(edges)))).sum(axis=1)
        if bdlp.jump_rate > 0:
            counts = rng.poisson(bdlp.jump_rate * t_max, size=len(out))
            times = rng.random(counts.sum()) * t_max
            sizes = bdlp.jump_law.sample(rng, counts.sum())
            owners = np.repeat(np.arange(len(out)), counts)
            for i in range(len(out)):
                acc = 0.0
                for t, size in zip(times[owners == i], sizes[owners == i]):
                    acc += np.exp(-t) * size
                out[i] += acc
        blocks.append(out)
    return np.concatenate(blocks)


@pytest.mark.parametrize("n_samples", [1, _CHUNK_ROWS - 1, _CHUNK_ROWS, _CHUNK_ROWS + 1,
                                       2 * _CHUNK_ROWS + 7, 1023, 1024, 1025, 2055])
def test_chunked_integral_equals_the_one_shot_draw(n_samples):
    # each block draws its jumps after its Gaussian increments
    bdlp = BDLPSpec(drift=0.5, gaussian_sigma=1.5, jump_rate=2.0, jump_law=NormalJumps(0.5, 1.0))
    chunked = sample_random_integral(bdlp, 12.0, 37, n_samples, seed=9)
    assert np.array_equal(chunked, one_shot_random_integral(bdlp, 12.0, 37, n_samples, 9))


def test_integral_does_not_depend_on_the_worker_count(monkeypatch):
    bdlp = BDLPSpec(drift=0.5, gaussian_sigma=1.5, jump_rate=2.0, jump_law=NormalJumps(0.5, 1.0))
    runs = []
    for workers in (1, 2, 3):
        monkeypatch.setattr(processes, "_WORKERS", workers)
        runs.append(sample_random_integral(bdlp, 12.0, 37, 1031, seed=9))
    assert np.array_equal(runs[1], runs[0]) and np.array_equal(runs[2], runs[0])


def test_integral_memory_does_not_grow_with_the_samples():
    # every jump of every sample was drawn at once: the peak grew 7.5 times
    # from 8 to 64 blocks of samples
    bdlp = BDLPSpec(drift=1.0, gaussian_sigma=1.0, jump_rate=2.0, jump_law=NormalJumps(0.5, 1.0))
    sample_random_integral(bdlp, 20.0, 50, 1, seed=5)     # imports the thread pool first
    peaks = []
    for blocks in (8, 64):
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            sample_random_integral(bdlp, 20.0, 50, blocks * _CHUNK_ROWS, seed=5)
            peaks.append(tracemalloc.get_traced_memory()[1] - base)
        finally:
            tracemalloc.stop()
    assert peaks[1] < 2 * peaks[0]


def test_integral_validation():
    with pytest.raises(ValueError, match="t_max"):
        sample_random_integral(BDLPSpec(drift=1.0), 2.0, 10, 10, seed=0)
    with pytest.raises(ValueError, match="n_steps"):
        sample_random_integral(BDLPSpec(drift=1.0), 10.0, 0, 10, seed=0)
    with pytest.raises(ValueError, match="jump_law"):
        BDLPSpec(jump_rate=1.0)
    with pytest.raises(ValueError, match="nonnegative"):
        BDLPSpec(gaussian_sigma=-1.0)


@pytest.mark.parametrize("kwargs", [
    {"gaussian_sigma": np.nan}, {"jump_rate": np.inf, "jump_law": NormalJumps()},
    {"drift": np.nan},
], ids=["sigma-nan", "rate-inf", "drift-nan"])
def test_bdlp_rejects_non_finite_parameters(kwargs):
    # a NaN sigma passed the old sigma < 0 test
    with pytest.raises(ValueError, match="drift, gaussian_sigma and jump_rate must be finite"):
        BDLPSpec(**kwargs)


@pytest.mark.parametrize("mean, std, needle", [
    (0.0, -1.0, "jump std must be nonnegative"),
    (0.0, np.nan, "jump mean 0.0 and std nan must be finite"),
    (np.inf, 1.0, "jump mean inf and std 1.0 must be finite"),
], ids=["std-negative", "std-nan", "mean-inf"])
def test_normal_jumps_reject_bad_parameters(mean, std, needle):
    # NormalJumps(std=-1.0) constructed and sampled
    with pytest.raises(ValueError, match=needle):
        NormalJumps(mean, std)


@pytest.mark.parametrize("values, probs, field", [
    ((1.0, 2.0), (np.nan, 0.5), "probs"),
    ((1.0, np.inf), (0.5, 0.5), "values"),
], ids=["probs-nan", "values-inf"])
def test_discrete_jumps_reject_non_finite_entries(values, probs, field):
    with pytest.raises(ValueError, match=f"^{field} has a non-finite entry$"):
        DiscreteJumps(values, probs)


# ---------------------------------------------------------------- log moment

def test_log_moment_drift_only_exact():
    res = log_moment_check(BDLPSpec(drift=1.0), 1000, seed=0)
    assert res["estimate"] == pytest.approx(np.log(2.0), abs=1e-15)
    assert res["diagnostic"] == "finite"


def test_log_moment_gaussian_matches_quadrature():
    oracle, err = scipy.integrate.quad(
        lambda z: np.log1p(abs(z)) * scipy.stats.norm.pdf(z), -np.inf, np.inf
    )
    assert err < 1e-6
    assert oracle == pytest.approx(0.5348, abs=5e-4)   # frozen before the build
    res = log_moment_check(BDLPSpec(gaussian_sigma=1.0), 100_000, seed=1)
    assert res["diagnostic"] == "finite"
    assert res["estimate"] == pytest.approx(oracle, abs=0.02)


def test_log_moment_divergent_jump_law_fires():
    # P(J = 2^(2^k)) = 2^-k: sum 2^-k log(1 + 2^(2^k)) ~ sum log 2 diverges
    bdlp = BDLPSpec(jump_rate=1.0, jump_law=DyadicTowerJumps())
    res = log_moment_check(bdlp, 100_000, seed=2)
    assert res["diagnostic"] == "suspect-infinite"
