import io
import sys
import threading
import time
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from mixlimit import processes, rngstreams
from mixlimit.harness import write_path_csv
from mixlimit.mixing import MarkovChainSpec
from mixlimit.probcore import normal_cdf
from mixlimit.processes import (
    _AR1_INIT_TOL,
    _CHUNK_ROWS,
    _block,
    _map_blocks,
    _markov_paths,
    InnovationLaw,
    ProcessSpec,
    analytic_alpha_profile,
    limit_cdf,
    long_run_variance,
    marginal_abs_tail,
    normalized_sums,
    norming_for,
    simulate_many,
)

AR1 = ProcessSpec(family="ar1", phi=0.5)
MA11 = ProcessSpec(family="ma_q", weights=(1.0, 1.0))


def markov_spec(transition, initial=None, states=None):
    transition = np.asarray(transition, dtype=float)
    k = len(transition)
    initial = np.full(k, 1.0 / k) if initial is None else initial
    states = np.arange(k) * 1.5 - 1.0 if states is None else states
    return ProcessSpec(family="markov_function",
                       chain=MarkovChainSpec(states, transition, initial))


TWO_STATE = markov_spec([[0.6, 0.4], [0.3, 0.7]], [0.5, 0.5], [-1.0, 2.0])
FINDING1 = markov_spec([[0.6, 0.3, 0.1], [0.3, 0.6, 0.1], [0.2, 0.2, 0.6]], None,
                       [-1.0, 2.0, 0.5])
# zero-probability transitions; the third row's cumsum ends at 1 - 2^-52
SPARSE4 = markov_spec(
    [[0.5, 0.0, 0.5, 0.0], [0.0, 0.0, 0.0, 1.0], [0.7, 0.2, 0.0999999999999999, 0.0],
     [0.25, 0.25, 0.25, 0.25]],
    [0.3, 0.0, 0.7, 0.0],
)


def many_state_spec(k=300):
    p = np.random.default_rng(0).random((k, k)) ** 4
    return markov_spec(p / p.sum(axis=1, keepdims=True))


def loop_markov_paths(spec, u):
    """markov_function paths from the uniforms u, one time step at a time."""
    chain = spec.chain
    kmax = chain.n_states - 1
    cum = np.cumsum(chain.transition, axis=1)
    states = np.empty(u.shape, dtype=np.intp)
    states[:, 0] = np.minimum(
        np.searchsorted(np.cumsum(chain.initial), u[:, 0], side="right"), kmax
    )
    for k in range(1, u.shape[1]):
        rows = cum[states[:, k - 1]]
        states[:, k] = np.minimum((u[:, k, None] > rows).sum(axis=1), kmax)
    return spec.mapped_values()[states]


def one_shot_innovations(law, rng, shape):
    """law.sample as one draw scaled out of place, as mean + std * z."""
    if law.name == "normal":
        z = rng.standard_normal(shape)
    elif law.name == "uniform":
        z = (rng.random(shape) - 0.5) * np.sqrt(12.0)
    else:
        z = rng.integers(0, 2, shape) * 2.0 - 1.0
    return law.mean + law.std * z


def loop_ar1_paths(spec, n, eps):
    """ar1 paths from the innovations eps, one time column at a time, started
    at the stationary mean and kept over the last n columns."""
    phi = spec.phi
    prev = np.full(len(eps), spec.innovations.mean / (1.0 - phi))
    out = np.empty(eps.shape)
    for k in range(eps.shape[1]):
        prev = phi * prev + eps[:, k]
        out[:, k] = prev
    return out[:, eps.shape[1] - n :]


def one_shot_block(spec, n, rows, rng):
    """(rows, n) paths drawn from rng in one draw, by the loop references and
    with the innovations scaled as mean + std * z."""
    law = spec.innovations
    if spec.family == "iid" or (spec.family == "ar1" and spec.phi == 0.0):
        return one_shot_innovations(law, rng, (rows, n))
    if spec.family == "ar1":
        burn = int(np.ceil(np.log(_AR1_INIT_TOL) / np.log(abs(spec.phi))))
        return loop_ar1_paths(spec, n, one_shot_innovations(law, rng, (rows, burn + n)))
    if spec.family == "ma_q":
        q = len(spec.weights) - 1
        eps = one_shot_innovations(law, rng, (rows, n + q))
        out = np.zeros((rows, n))
        for i, wi in enumerate(spec.weights):
            out += wi * eps[:, q - i : q - i + n]
        return out
    return loop_markov_paths(spec, rng.random((rows, n)))


def block_stream(spec, seed, label, b):
    """The stream of replication block b."""
    return rngstreams.stream(seed, label, spec.spec_hash(), b)


def one_shot_paths(spec, n, reps, seed, label="path"):
    """The (reps, n) paths of simulate_many by their definition: replication
    r is row r mod _CHUNK_ROWS of block r // _CHUNK_ROWS, and each block is
    drawn in one shot from its own stream."""
    return np.concatenate([
        one_shot_block(spec, n, min(_CHUNK_ROWS, reps - r0), block_stream(spec, seed, label, b))
        for b, r0 in enumerate(range(0, reps, _CHUNK_ROWS))
    ])


def loop_markov_tail(spec):
    """The per-threshold tail of a markov_function, one mask per point."""
    chain = spec.chain
    vals = np.abs(spec.mapped_values())
    dist = chain.initial.copy()
    envelope = dist.copy()
    for _ in range(10_000):
        nxt = dist @ chain.transition
        envelope = np.maximum(envelope, nxt)
        if np.abs(nxt - dist).sum() < 1e-13:
            break
        dist = nxt
    return lambda t: np.array([envelope[vals >= ti].sum() if np.any(vals >= ti) else 0.0
                               for ti in np.atleast_1d(np.asarray(t, dtype=float))])


def empirical_long_run_variance(spec, n, reps, seed, chunk=1000):
    """Oracle: Var(S_n)/n across replications, accumulated chunkwise."""
    sums = []
    for i in range(0, reps, chunk):
        paths = simulate_many(spec, n, min(chunk, reps - i), seed, label=f"lrv{i}")
        sums.append(paths.sum(axis=1))
    s = np.concatenate(sums)
    return s.var() / n


def test_spec_validation():
    with pytest.raises(ValueError, match="phi"):
        ProcessSpec(family="ar1", phi=1.0)
    with pytest.raises(ValueError, match="weight"):
        ProcessSpec(family="ma_q", weights=())
    with pytest.raises(ValueError, match="family"):
        ProcessSpec(family="garch")
    with pytest.raises(ValueError, match="std"):
        InnovationLaw(name="normal", std=-1.0)
    with pytest.raises(ValueError, match="unknown process family 'constant'"):
        ProcessSpec(family="constant")
    for values in ((1.0, 2.0), (1.0, 2.0, 3.0, 4.0)):
        with pytest.raises(ValueError, match=f"state_values has {len(values)} entries"):
            ProcessSpec(family="markov_function", chain=FINDING1.chain, state_values=values)


@pytest.mark.parametrize("mean, std", [(0.0, np.nan), (0.0, np.inf), (np.nan, 1.0),
                                       (-np.inf, 1.0)],
                         ids=["std-nan", "std-inf", "mean-nan", "mean-minus-inf"])
def test_innovation_law_rejects_non_finite_parameters(mean, std):
    # a NaN std passed the old std < 0 test, and every path came out NaN
    needle = f"innovation mean {mean!r} and std {std!r} must be finite"
    with pytest.raises(ValueError, match=needle):
        InnovationLaw("normal", mean, std)


def test_reproducibility_bit_identical():
    for spec in (AR1, MA11, ProcessSpec(family="iid")):
        a = simulate_many(spec, 200, 1, 42)[0]
        b = simulate_many(spec, 200, 1, 42)[0]
        assert np.array_equal(a, b)
        c = simulate_many(spec, 200, 1, 43)[0]
        assert not np.array_equal(a, c)


@pytest.mark.parametrize("spec, n, reps", [
    (markov_spec([[1.0]]), 50, 30),
    (TWO_STATE, 300, 777),
    (FINDING1, 300, 777),
    (SPARSE4, 300, 777),
    (many_state_spec(), 40, 30),
    (FINDING1, 1, 1),
    (FINDING1, 1, 600),
    (FINDING1, 300, 1),
    (TWO_STATE, 20, 2500),
], ids=["one-state", "two-state", "finding1", "zero-probability", "300-states",
        "n1-reps1", "n1", "reps1", "reps2500"])
def test_markov_kernel_matches_loop_reference(spec, n, reps):
    out = simulate_many(spec, n, reps, 3)
    assert np.array_equal(out, one_shot_paths(spec, n, reps, 3))
    assert out.dtype == np.float64 and out.flags.c_contiguous


@pytest.mark.parametrize("spec", [TWO_STATE, FINDING1, SPARSE4, many_state_spec(100)],
                         ids=["two-state", "finding1", "zero-probability", "100-states"])
def test_markov_kernel_ties_and_capped_rows(spec):
    # uniforms drawn from the thresholds themselves, their neighbours, 0 and
    # the largest double below 1: the initial draw counts cum <= u, a step
    # counts cum < u, and a row whose cumsum ends below u is capped at K - 1
    chain = spec.chain
    cuts = np.concatenate([np.cumsum(chain.transition, axis=1).ravel(),
                           np.cumsum(chain.initial)])
    pool = np.concatenate([cuts, np.nextafter(cuts, 0.0), np.nextafter(cuts, 1.0),
                           [0.0, np.nextafter(1.0, 0.0)]])
    pool = pool[(pool >= 0.0) & (pool < 1.0)]
    u = np.random.default_rng(4).choice(pool, size=(1100, 60))
    out = _markov_paths(spec, u.copy())
    assert np.array_equal(out, loop_markov_paths(spec, u))


def test_markov_paths_peak_memory_below_twice_the_output():
    # the step loop held the uniforms, the intp states and the output:
    # 3.01 times the output
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        out = simulate_many(FINDING1, 256, 10_000, 3)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < 2 * out.nbytes


CHUNKED_SPECS = {
    "iid-normal": ProcessSpec(family="iid", innovations=InnovationLaw("normal", 0.7, 1.3)),
    "iid-uniform": ProcessSpec(family="iid", innovations=InnovationLaw("uniform", -0.2, 2.0)),
    "iid-rademacher": ProcessSpec(family="iid", innovations=InnovationLaw("rademacher", 0.1, 0.5)),
    "ar1": ProcessSpec(family="ar1", phi=-0.9, innovations=InnovationLaw("uniform", 0.3, 2.0)),
    "ar1-phi0": ProcessSpec(family="ar1", phi=0.0),
    "ma_q": ProcessSpec(family="ma_q", weights=(1.0, 0.5, 0.25),
                        innovations=InnovationLaw("uniform", 0.2, 1.0)),
    "markov_function": FINDING1,
}
# one block, a block less or more by one row, two blocks and seven rows, and
# two and four blocks less or more by at most seven rows
BLOCK_BOUNDARY_REPS = (1, _CHUNK_ROWS - 1, _CHUNK_ROWS, _CHUNK_ROWS + 1, 2 * _CHUNK_ROWS + 7,
                       1023, 1024, 1025, 2055)


@pytest.mark.parametrize("reps", BLOCK_BOUNDARY_REPS)
@pytest.mark.parametrize("name", sorted(CHUNKED_SPECS))
def test_chunks_concatenate_to_the_one_shot_paths(name, reps):
    # 260 steps cross the time-major block of 256 steps
    spec = CHUNKED_SPECS[name]
    out = simulate_many(spec, 260, reps, 6, "chunks")
    assert np.array_equal(out, one_shot_paths(spec, 260, reps, 6, "chunks"))
    # block b, drawn alone from its key, is rows [b B, (b + 1) B) of the run
    for b, r0 in enumerate(range(0, reps, _CHUNK_ROWS)):
        rows = min(_CHUNK_ROWS, reps - r0)
        alone = _block(spec, 260, rows, block_stream(spec, 6, "chunks", b), SimpleNamespace())
        assert np.array_equal(alone, out[r0 : r0 + rows])


@pytest.mark.parametrize("reps", BLOCK_BOUNDARY_REPS)
@pytest.mark.parametrize("name", sorted(CHUNKED_SPECS))
def test_normalized_sums_equal_the_whole_matrix_sums(name, reps):
    spec = CHUNKED_SPECS[name]
    sums = normalized_sums(spec, 260, reps, 6, "sums")
    whole = norming_for(spec).normalized_sum(simulate_many(spec, 260, reps, 6, "sums"))
    assert np.array_equal(sums, whole)
    assert np.array_equal(sums, norming_for(spec).normalized_sum(
        one_shot_paths(spec, 260, reps, 6, "sums")))


@pytest.mark.parametrize("name", sorted(CHUNKED_SPECS))
def test_paths_do_not_depend_on_the_worker_count(monkeypatch, name):
    spec = CHUNKED_SPECS[name]
    runs = []
    for workers in (1, 2, 3):
        monkeypatch.setattr(processes, "_WORKERS", workers)
        runs.append((simulate_many(spec, 260, 1031, 6, "chunks"),
                     normalized_sums(spec, 260, 1031, 6, "sums")))
    for paths, sums in runs[1:]:
        assert np.array_equal(paths, runs[0][0])
        assert np.array_equal(sums, runs[0][1])


def test_blocks_run_on_one_thread_per_worker(monkeypatch):
    # the barrier breaks after 10 s unless three blocks run at once
    barrier = threading.Barrier(3, timeout=10)
    threads = set()

    def task(b, r0, rows):
        threads.add(threading.get_ident())
        barrier.wait()
        return b, r0, rows

    monkeypatch.setattr(processes, "_WORKERS", 3)
    assert processes._run_blocks(task, 2 * _CHUNK_ROWS + 7) == [
        (0, 0, _CHUNK_ROWS), (1, _CHUNK_ROWS, _CHUNK_ROWS), (2, 2 * _CHUNK_ROWS, 7)]
    assert len(threads) == 3


def test_more_workers_than_cpus_under_frequent_switches_give_the_same_paths(monkeypatch):
    # the workers share the output matrix and each reuses its own scratch
    # array; a block written to the wrong rows or drawn into another
    # worker's scratch would change the matrix
    spec = CHUNKED_SPECS["ar1"]
    monkeypatch.setattr(processes, "_WORKERS", 1)
    serial = simulate_many(spec, 40, 20 * _CHUNK_ROWS + 3, 4)
    monkeypatch.setattr(processes, "_WORKERS", 8)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threaded = simulate_many(spec, 40, 20 * _CHUNK_ROWS + 3, 4)
    finally:
        sys.setswitchinterval(interval)
    assert np.array_equal(threaded, serial)


def test_a_failing_block_raises_at_the_call():
    def task(b, r0, rows):
        if b == 1:
            raise RuntimeError("block 1")
        return b

    with pytest.raises(RuntimeError, match="block 1"):
        processes._run_blocks(task, 3 * _CHUNK_ROWS)


def test_blocks_after_a_failing_block_are_not_run():
    # block 0 fails at once while the other worker draws block 1 for 0.2 s;
    # the blocks still queued then must be dropped, not drawn
    ran = []

    def task(b, r0, rows):
        if b == 0:
            raise RuntimeError("block 0")
        ran.append(b)
        time.sleep(0.2)
        return b

    with pytest.raises(RuntimeError, match="block 0"):
        processes._run_blocks(task, 40 * _CHUNK_ROWS)
    assert len(ran) <= processes._WORKERS


def test_ar1_row_does_not_depend_on_the_replication_count():
    # the burn-in runs through the recursion, so no product's rounding
    # depends on how many rows a block has
    specs = (ProcessSpec(family="ar1", phi=-0.9, innovations=InnovationLaw("uniform", 0.0, 1.0)),
             ProcessSpec(family="ar1", phi=0.5), ProcessSpec(family="ar1", phi=0.95))
    differ = [(seed, spec.phi) for seed in range(200) for spec in specs
              if not np.array_equal(simulate_many(spec, 16, 1, seed)[0],
                                    simulate_many(spec, 16, 4, seed)[0])]
    assert differ == []


def test_path_arguments_are_checked_at_the_call():
    def reduce(r0, block):
        raise AssertionError("a block was drawn")

    for n, reps in ((0, 5), (5, 0), (-1, 5)):
        with pytest.raises(ValueError, match="n and reps must be positive"):
            simulate_many(MA11, n, reps, 1)
        with pytest.raises(ValueError, match="n and reps must be positive"):
            normalized_sums(MA11, n, reps, 1, "x")
        with pytest.raises(ValueError, match="n and reps must be positive"):
            _map_blocks(MA11, n, reps, 1, "x", reduce)


def test_normalized_sums_peak_memory_below_a_quarter_of_the_paths():
    # the whole-matrix draw held the innovations, the paths and a product
    # temporary: about three times the (reps, n) matrix
    spec = ProcessSpec(family="ma_q", weights=(1.0, 0.5, 0.25))
    n, reps = 1024, 16384
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        sums = normalized_sums(spec, n, reps, 2, "memory")
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert sums.shape == (reps,)
    assert peak < reps * n * 8 / 4


@pytest.mark.parametrize("spec, n, reps", [
    (AR1, 300, 777),
    (ProcessSpec(family="ar1", phi=-0.9, innovations=InnovationLaw("uniform", 0.3, 2.0)), 257, 1025),
    (ProcessSpec(family="ar1", phi=0.99, innovations=InnovationLaw("rademacher", -1.0, 0.5)), 600, 3),
    (AR1, 1, 1),
    (AR1, 20, 2500),
], ids=["phi0.5", "uniform-blocks-plus-one", "rademacher-slow", "n1-reps1", "reps2500"])
def test_ar1_kernel_matches_loop_reference(spec, n, reps):
    out = simulate_many(spec, n, reps, 5)
    assert np.array_equal(out, one_shot_paths(spec, n, reps, 5))
    assert out.dtype == np.float64 and out.flags.c_contiguous


def test_ar1_stationary_variance():
    # stationary variance sigma^2/(1 - phi^2) = 4/3, within 3% at 1e5 draws
    path = simulate_many(AR1, 100_000, 1, 7)[0]
    assert path.var() == pytest.approx(4.0 / 3.0, rel=0.03)


def test_ar1_first_value_already_stationary():
    many = simulate_many(AR1, 2, 50_000, 3, label="stat")
    assert many[:, 0].var() == pytest.approx(4.0 / 3.0, rel=0.05)
    assert many[:, 0].mean() == pytest.approx(0.0, abs=0.02)


def test_ma_lag2_autocovariance_vanishes():
    x = simulate_many(MA11, 100_000, 1, 9)[0]
    lag2 = np.mean(x[:-2] * x[2:]) - x.mean() ** 2
    assert abs(lag2) < 0.03         # 1-dependence of MA(1)


def test_stationarity_split_halves():
    for spec in (AR1, MA11):
        x = simulate_many(spec, 200_000, 1, 21)[0]
        h1, h2 = x[:100_000], x[100_000:]
        assert h1.mean() == pytest.approx(h2.mean(), abs=0.05)
        assert h1.var() == pytest.approx(h2.var(), rel=0.05)


def test_norming_iid_standard_normal():
    nm = norming_for(ProcessSpec(family="iid"))
    ns = np.array([1, 4, 100])
    assert np.allclose(nm.a_values(ns), ns ** -0.5)
    assert np.allclose(nm.b_values(ns), 0.0)


def test_norming_at_matches_vectorized_values_bitwise():
    chain = MarkovChainSpec([-1.0, 2.0], [[0.6, 0.4], [0.3, 0.7]], [0.5, 0.5])
    specs = (ProcessSpec(family="iid", innovations=InnovationLaw(mean=1.0)), AR1, MA11,
             ProcessSpec(family="markov_function", chain=chain))
    ns = np.array([1, 7, 256, 4096])
    for spec in specs:
        nm = norming_for(spec)
        a, b = nm.a_values(ns), nm.b_values(ns)
        assert [nm.at(int(n)) for n in ns] == list(zip(a, b))


def test_norming_ar1_closed_form_and_oracle():
    # v_inf = sigma^2/(1-phi)^2 = 4: a(n) = 1/(2 sqrt(n)); empirical oracle
    # Var(S_n)/n at n = 2^14 over 1e4 replications within 3%
    assert long_run_variance(AR1) == pytest.approx(4.0, abs=1e-12)
    assert norming_for(AR1).a_values(np.array([16]))[0] == pytest.approx(1 / 8)
    v_emp = empirical_long_run_variance(AR1, 2 ** 14, 10_000, 5)
    assert v_emp == pytest.approx(4.0, rel=0.03)


def test_norming_ma_closed_form_and_oracle():
    assert long_run_variance(MA11) == pytest.approx(4.0, abs=1e-12)
    v_emp = empirical_long_run_variance(MA11, 2 ** 14, 10_000, 6)
    assert v_emp == pytest.approx(4.0, rel=0.03)


def test_norming_markov_function():
    # symmetric two-state chain with values -1/+1: autocovariance 0.5^k,
    # so v_inf = 1 + 2 sum_k 0.5^k = 3
    chain = MarkovChainSpec([-1.0, 1.0], [[0.75, 0.25], [0.25, 0.75]], [0.5, 0.5])
    spec = ProcessSpec(family="markov_function", chain=chain)
    assert long_run_variance(spec) == pytest.approx(3.0, abs=1e-12)
    v_emp = empirical_long_run_variance(spec, 2 ** 12, 4000, 8)
    assert v_emp == pytest.approx(3.0, rel=0.10)


def test_norming_rejects_degenerate():
    with pytest.raises(ValueError, match="degenerate"):
        norming_for(ProcessSpec(family="ma_q", weights=(1.0, -1.0)))
    with pytest.raises(ValueError, match="ergodic"):
        chain = MarkovChainSpec([0.0, 1.0], [[1.0, 0.0], [0.0, 1.0]], [0.5, 0.5])
        norming_for(ProcessSpec(family="markov_function", chain=chain))


def test_normalized_sums_have_unit_variance():
    nm = norming_for(AR1)
    n = 4096
    paths = simulate_many(AR1, n, 2000, 10, label="unitvar")
    t = nm.normalized_sum(paths)
    assert t.var() == pytest.approx(1.0, rel=0.08)


def test_marginal_tail_gaussian_families():
    import scipy.stats
    tail = marginal_abs_tail(ProcessSpec(family="iid"))
    assert tail(1.5) == pytest.approx(2 * scipy.stats.norm.sf(1.5), abs=1e-12)
    tail_ar = marginal_abs_tail(AR1)
    sd = np.sqrt(4.0 / 3.0)
    assert tail_ar(2.0) == pytest.approx(2 * scipy.stats.norm.sf(2.0 / sd), abs=1e-12)
    # bit for bit the scipy.stats form, off-centre too
    law = InnovationLaw(mean=0.3, std=1.7)
    t = np.concatenate([[0.0, 0.3, np.inf], np.linspace(0.0, 70.0, 7001)])
    m, sd = law.mean, law.std
    ref = scipy.stats.norm.sf((t - m) / sd) + scipy.stats.norm.cdf((-t - m) / sd)
    assert np.array_equal(marginal_abs_tail(ProcessSpec(family="iid", innovations=law))(t), ref)


LAWS = {
    "normal": InnovationLaw(mean=0.3, std=1.7),
    "normal-std0": InnovationLaw(mean=-0.5, std=0.0),
    "uniform": InnovationLaw("uniform", mean=0.25, std=2.0),
    "rademacher": InnovationLaw("rademacher", mean=-1.0, std=0.5),
}
LINEAR_SPECS = {
    f"{fam}-{name}": ProcessSpec(family=fam.split("(")[0], innovations=law, **kw)
    for name, law in LAWS.items()
    for fam, kw in (("iid", {}), ("ar1(-0.9)", {"phi": -0.9}), ("ar1(1/3)", {"phi": 1 / 3}),
                    ("ma_q", {"weights": (1.0, -0.5, 0.25)}))
}


def written_out(spec):
    """(mean, v_inf, sd, support bound) of a linear family, one expression each."""
    law, phi, w = spec.innovations, spec.phi, np.asarray(spec.weights)
    eps_bound = abs(law.mean) + law.std * (np.sqrt(3.0) if law.name == "uniform" else 1.0)
    if spec.family == "iid":
        return law.mean, law.std ** 2, law.std, eps_bound
    if spec.family == "ar1":
        return (law.mean / (1.0 - phi), law.std ** 2 / (1.0 - phi) ** 2,
                law.std / np.sqrt(1.0 - phi ** 2), eps_bound / (1.0 - abs(phi)))
    return (law.mean * w.sum(), w.sum() ** 2 * law.std ** 2,
            law.std * np.sqrt(np.sum(w ** 2)), eps_bound * np.sum(np.abs(w)))


@pytest.mark.parametrize("spec", LINEAR_SPECS.values(), ids=LINEAR_SPECS.keys())
def test_linear_tail_and_norming_are_the_closed_forms(spec):
    m, v, sd, bound = written_out(spec)
    t = np.concatenate([[0.0, abs(m), bound, np.nextafter(bound, np.inf), np.inf],
                        np.linspace(0.0, 12.0, 1201)])
    if spec.innovations.name != "normal":
        want = np.where(t <= bound, 1.0, 0.0)
    elif sd == 0.0:
        want = np.where(t <= abs(m), 1.0, 0.0)
    else:
        want = normal_cdf(-((t - m) / sd)) + normal_cdf((-t - m) / sd)
    assert np.array_equal(marginal_abs_tail(spec)(t), want)
    if v == 0.0:
        with pytest.raises(ValueError, match="degenerate"):
            norming_for(spec)
        return
    for n in (1, 7, 4096):
        want = (1.0 / np.sqrt(n * v), -float(n) * m / np.sqrt(n * v))
        assert np.array_equal(norming_for(spec).at(n), want)


@pytest.mark.parametrize("spec", [
    FINDING1, SPARSE4, many_state_spec(12),
    markov_spec(np.full((9, 9), 1 / 9), None, [-1.0, 0.5, 1.0, -0.5, 0.0, 2.0, 1.0, -2.0, 0.5]),
], ids=["finding1", "zero-probability", "12-states", "repeated-values"])
def test_markov_tail_matches_per_threshold_sums(spec):
    tail, ref = marginal_abs_tail(spec), loop_markov_tail(spec)
    vals = np.abs(spec.mapped_values())
    t = np.concatenate([np.linspace(-0.5, 3.0, 71), vals, np.nextafter(vals, np.inf), [np.inf]])
    assert np.array_equal(tail(t), ref(t))
    for ti in t:
        got = tail(ti)
        assert type(got) is float and got == ref(ti)[0]


def test_plug_in_alpha_vanishes_beyond_dependence_range():
    # iid at any lag and MA(1) beyond lag 1 are independent pairs: the
    # median-split plug-in estimate must sit at its sampling-noise floor
    from mixlimit.blocking import _split_alpha
    n = 100_000
    noise_3sd = 3 * 0.3536 / np.sqrt(n)
    lag_alpha = lambda v, lag: _split_alpha(v[:-lag], v[lag:])
    iid = simulate_many(ProcessSpec(family="iid"), n, 1, 31)[0]
    for lag in (1, 3):
        assert lag_alpha(iid, lag) <= noise_3sd
    ma = simulate_many(MA11, n, 1, 32)[0]
    assert lag_alpha(ma, 2) <= noise_3sd and lag_alpha(ma, 4) <= noise_3sd
    assert lag_alpha(ma, 1) > 3 * noise_3sd        # within range the dependence is visible


def test_analytic_alpha_profiles():
    assert all(a == 0.0 for _, a in analytic_alpha_profile(ProcessSpec(family="iid"), [1, 5]).values)
    ma = dict(analytic_alpha_profile(MA11, [1, 2, 3]).values)
    assert ma[1] == 0.25 and ma[2] == 0.0 and ma[3] == 0.0
    ar = dict(analytic_alpha_profile(AR1, [1, 4]).values)
    assert ar[1] == pytest.approx(0.125) and ar[4] == pytest.approx(0.25 * 0.5 ** 4)


def test_path_csv_export():
    # innovations of std 0 make every value their mean
    flat = ProcessSpec(family="iid", innovations=InnovationLaw("normal", 2.5, 0.0))
    path = simulate_many(flat, 3, 1, 0)[0]
    buf = io.StringIO()
    write_path_csv(buf, path)
    lines = buf.getvalue().strip().split("\n")
    assert lines[0] == "index,value"
    assert lines[1] == "1,2.5"
    assert len(lines) == 4
    buf = io.StringIO()
    write_path_csv(buf, np.array([0.1, 1.0 / 3.0]))
    assert buf.getvalue() == "index,value\n1,0.1\n2,0.3333333333333333\n"


def test_limit_cdf_degenerate_raises():
    with pytest.raises(ValueError, match="degenerate"):
        limit_cdf(ProcessSpec(family="ma_q", weights=(1.0, -1.0)))


def test_spec_hash_pinned():
    # every Philox stream is keyed by the spec hash: a change here changes
    # every Monte Carlo report
    chain = MarkovChainSpec(
        [-1.0, 2.0, 0.5], [[0.6, 0.3, 0.1], [0.3, 0.6, 0.1], [0.2, 0.2, 0.6]], [1.0 / 3.0] * 3
    )
    pinned = {
        "35abcd9f21f7eda2": AR1,
        "1134c5da955b5036": ProcessSpec(family="iid"),
        "d108eebde9ceef28": ProcessSpec(family="ma_q", weights=(1, 0.5, 0.25)),
        "bec30666177072a9": ProcessSpec(family="markov_function", chain=chain),
        "b8f88d974fe9ab59": ProcessSpec(family="markov_function", chain=chain,
                                        state_values=(1, -2, 0.5)),
        "6126ef36e301bdb7": ProcessSpec(family="ar1", phi=-0.25,
                                        innovations=InnovationLaw("rademacher", 1, 2)),
    }
    for want, spec in pinned.items():
        assert spec.spec_hash() == want
        assert spec.describe()["dimension"] == 1
