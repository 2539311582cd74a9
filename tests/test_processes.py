import io
import math
import re
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest

from mixlimit import processes, rngstreams
from mixlimit.harness import write_path_csv
from mixlimit.mixing import MarkovChainSpec
from mixlimit.probcore import STANDARD_NORMAL, normal_cdf
from mixlimit.processes import (
    AR1_BURN_LIMIT,
    _CHUNK_ROWS,
    _CHUNK_STEPS,
    _MAX_STEP_EDGES,
    _ar1_burn,
    _chunks,
    _markov_steps,
    _moments,
    InnovationLaw,
    NormingSequences,
    ProcessSpec,
    analytic_alpha_profile,
    asymptotics,
    marginal_abs_tail,
    normalized_sums,
    window_sums,
)
from mixlimit.selfdecomp import CLOSED_FORM_CFS
from pathref import (BLOCK_BOUNDARY_REPS, FINDING1, block_stream, chunk_rule_sums, chunked_block,
                     loop_markov_paths, mapped_paths, one_shot_paths)

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
# zero-probability transitions; the third row's cumsum ends at 1 - 2^-52
SPARSE4 = markov_spec(
    [[0.5, 0.0, 0.5, 0.0], [0.0, 0.0, 0.0, 1.0], [0.7, 0.2, 0.0999999999999999, 0.0],
     [0.25, 0.25, 0.25, 0.25]],
    [0.3, 0.0, 0.7, 0.0],
)


def many_state_spec(k=300):
    p = np.random.default_rng(0).random((k, k)) ** 4
    return markov_spec(p / p.sum(axis=1, keepdims=True))


def stepped_markov_paths(spec, u):
    """markov_function paths from the uniforms u, one row per replication,
    stepped by _markov_steps in time-major chunks of _CHUNK_STEPS steps."""
    step = _markov_steps(spec, len(u))
    return np.concatenate([step(t0, u[:, t0 : t0 + _CHUNK_STEPS].T.copy()).T
                           for t0 in range(0, u.shape[1], _CHUNK_STEPS)], axis=1)


def loop_markov_tail(spec):
    """The per-threshold tail of a markov_function, one mask per point, of
    the mass envelope max(max_{k<=K} mu_k, min(1, pi + TV(mu_K, pi))), K
    the first k with TV(mu_k, pi) < 1e-13, or 10^4."""
    chain = spec.chain
    vals = np.abs(chain.states)
    pi = chain.stationary()
    laws = [chain.initial]
    while len(laws) <= 10_000 and 0.5 * np.abs(laws[-1] - pi).sum() >= 1e-13:
        laws.append(laws[-1] @ chain.transition)
    tv = 0.5 * np.abs(laws[-1] - pi).sum()
    envelope = np.max(laws + [np.minimum(1.0, pi + tv)], axis=0)
    return lambda t: np.array([envelope[vals >= ti].sum() if np.any(vals >= ti) else 0.0
                               for ti in np.atleast_1d(np.asarray(t, dtype=float))])


def empirical_long_run_variance(spec, n, reps, seed, chunk=1000):
    """Oracle: Var(S_n)/n across replications, accumulated chunkwise."""
    sums = []
    for i in range(0, reps, chunk):
        paths = mapped_paths(spec, n, min(chunk, reps - i), seed, label=f"lrv{i}")
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


@pytest.mark.parametrize("law", ["uniform", "rademacher"])
@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_non_gaussian_ar1_burn_in_is_capped(law, sign):
    # ceil(log 1e-16 / log |phi|) rows: 2^16 at |phi| = 0.999438, the cap,
    # and one more at 0.99943801
    at, past = sign * 0.999438, sign * 0.99943801
    innovations = InnovationLaw(law)
    assert AR1_BURN_LIMIT == 1 << 16
    assert _ar1_burn(at, innovations) == AR1_BURN_LIMIT
    assert _ar1_burn(past, innovations) == AR1_BURN_LIMIT + 1
    assert ProcessSpec(family="ar1", phi=at, innovations=innovations).phi == at
    needle = (f"ar1 with {law} innovations and phi = {past} needs 65537 burn-in rows, "
              "above the limit 65536")
    with pytest.raises(ValueError, match=re.escape(needle)):
        ProcessSpec(family="ar1", phi=past, innovations=innovations)


def test_ar1_at_the_burn_in_cap_runs_and_exact_starts_have_none():
    # the cap's one block steps 2^16 + 1 rows before its first value; a
    # Gaussian ar1 starts in its stationary law and an ar1 with phi = 0 is
    # iid, so neither has a burn-in, whatever phi
    at = ProcessSpec(family="ar1", phi=0.999438, innovations=InnovationLaw("uniform"))
    (s,) = window_sums(at, 1, 1, 1, "cap", [(0, 1)])
    assert np.all(np.isfinite(s))
    assert _ar1_burn(0.9999999, InnovationLaw("normal")) == 0
    assert _ar1_burn(0.0, InnovationLaw("uniform")) == 0
    ProcessSpec(family="ar1", phi=0.9999999)


@pytest.mark.parametrize("mean, std", [(0.0, np.nan), (0.0, np.inf), (np.nan, 1.0),
                                       (-np.inf, 1.0)],
                         ids=["std-nan", "std-inf", "mean-nan", "mean-minus-inf"])
def test_innovation_law_rejects_non_finite_parameters(mean, std):
    # a NaN std passed the old std < 0 test, and every path came out NaN
    needle = f"innovation mean {mean!r} and std {std!r} must be finite"
    with pytest.raises(ValueError, match=needle):
        InnovationLaw("normal", mean, std)


@pytest.mark.parametrize("name", list(processes._LAWS))
def test_non_standard_law_is_mean_plus_std_times_the_standard_block(name):
    # the standard law skips its scaling pass, so a block of any other
    # (mean, std) is the standard block of the same stream, scaled; bitwise
    draw = lambda law: chunked_block(ProcessSpec(family="iid", innovations=law), 300,
                                     rngstreams.stream(3, "law", name))
    z = draw(InnovationLaw(name))
    for mean, std in ((0.3, 1.7), (-2.0, 1.0), (0.0, 0.5), (1.0, 0.0)):
        assert draw(InnovationLaw(name, mean, std)).tobytes() == (mean + std * z).tobytes()


@pytest.mark.parametrize("name", list(processes._LAWS))
def test_law_draws_fill_their_half_width_with_mean_0_and_variance_1(name):
    # 10^5 standardized draws lie within the record's half-width, those of a
    # bounded law reach 0.99 of it, and their mean and second moment are 0 and 1
    # within 5 standard errors (a rademacher draw's square is exactly 1)
    law = processes._LAWS[name]
    z = np.empty(100_000)
    law["draw"](rngstreams.stream(41, "law-draws", name), z)
    half_width, se = law["half_width"], 5.0 / np.sqrt(len(z))
    assert np.all(np.abs(z) <= half_width)
    assert np.isinf(half_width) or np.abs(z).max() >= 0.99 * half_width
    assert abs(z.mean()) <= se * z.std()
    assert abs(np.mean(z * z) - 1.0) <= se * np.std(z * z)


def test_process_spec_rejects_non_finite_weights():
    # NaN weights constructed, and asymptotics then gave v_inf = nan
    with pytest.raises(ValueError, match="ma_q weights .* must be finite"):
        ProcessSpec(family="ma_q", weights=(np.nan, 1.0))


def test_reproducibility_bit_identical():
    for spec in (AR1, MA11, ProcessSpec(family="iid")):
        a = mapped_paths(spec, 200, 1, 42)[0]
        b = mapped_paths(spec, 200, 1, 42)[0]
        assert np.array_equal(a, b)
        c = mapped_paths(spec, 200, 1, 43)[0]
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
    assert np.array_equal(mapped_paths(spec, n, reps, 3), one_shot_paths(spec, n, reps, 3))


def tie_pool(spec):
    """The thresholds of spec, their neighbours, 0 and the largest double
    below 1: the initial draw counts cum <= u, a step counts cum < u, and a
    row whose cumsum ends below u is capped at K - 1."""
    chain = spec.chain
    cuts = np.concatenate([np.cumsum(chain.transition, axis=1).ravel(),
                           np.cumsum(chain.initial)])
    pool = np.concatenate([cuts, np.nextafter(cuts, 0.0), np.nextafter(cuts, 1.0),
                           [0.0, np.nextafter(1.0, 0.0)]])
    return pool[(pool >= 0.0) & (pool < 1.0)]


@pytest.mark.parametrize("spec", [TWO_STATE, FINDING1, SPARSE4, many_state_spec(100)],
                         ids=["two-state", "finding1", "zero-probability", "100-states"])
def test_markov_kernel_ties_and_capped_rows(spec):
    u = np.random.default_rng(4).choice(tie_pool(spec), size=(1100, 60))
    assert np.array_equal(stepped_markov_paths(spec, u), loop_markov_paths(spec, u))


def edge_spec(nb, k=5):
    """A k-state chain whose step thresholds cum[:, :k - 1] take exactly nb
    distinct values, the multiples i/32, i = 1..nb, so the cumsums are exact."""
    cum = np.sort(np.resize(np.arange(1, nb + 1) / 32, (k, k - 1)), axis=1)
    spec = markov_spec(np.diff(cum, prepend=0.0, append=1.0, axis=1))
    assert len(np.unique(np.cumsum(spec.chain.transition, axis=1)[:, : k - 1])) == nb
    return spec


# the table path at its cap and the loop path just above it, the benchmark
# chain (its rows share the threshold 0.9), duplicate thresholds and one state
STEP_PATH_SPECS = {
    "cap-edges": edge_spec(_MAX_STEP_EDGES),
    "cap-plus-one-edges": edge_spec(_MAX_STEP_EDGES + 1),
    "finding1": FINDING1,
    "zero-probability": SPARSE4,
    "one-state": markov_spec([[1.0]]),
}


@pytest.mark.parametrize("name", sorted(STEP_PATH_SPECS))
def test_markov_step_paths_match_loop_reference_across_chunks(name):
    # n at the edges of the _CHUNK_STEPS-step chunks; half the uniforms tie
    # with a threshold or sit next to one
    spec = STEP_PATH_SPECS[name]
    rng = np.random.default_rng(5)
    for n in (1, _CHUNK_STEPS - 1, _CHUNK_STEPS, _CHUNK_STEPS + 1, 2 * _CHUNK_STEPS + 1, 1):
        u = np.where(rng.random((67, n)) < 0.5, rng.choice(tie_pool(spec), (67, n)),
                     rng.random((67, n)))
        assert np.array_equal(stepped_markov_paths(spec, u), loop_markov_paths(spec, u))


def two_threshold_spec(k=64):
    """P[s, 0] = 0.5 plus 0.5 on P[s, s]: the step thresholds are 0.5 and 1."""
    p = np.zeros((k, k))
    p[:, 0] = 0.5
    p[np.arange(k), np.arange(k)] += 0.5
    return markov_spec(p)


def traced_peak(fn):
    """The tracemalloc peak of fn() above the memory traced when it starts."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def drain(chunks):
    for _ in chunks:
        pass


@pytest.mark.parametrize("spec", [two_threshold_spec(), many_state_spec(300)],
                         ids=["64-states-table", "300-states-loop"])
def test_markov_paths_peak_memory_below_six_chunks(spec):
    # a block's working arrays are a few (_CHUNK_STEPS, rows) chunks and the
    # chain's own K x K tables; a table of successors per step and state or
    # one entry per state and threshold bucket with no cap (up to K^3) would
    # not fit.  The bound is six chunks of 256 steps, the chunk of the
    # row-major layout, in which the loop and table paths peaked at 5.7 and
    # 2.4 MB; they now peak at 3.5 and 0.6 MB
    rows, n = _CHUNK_ROWS, 2 * _CHUNK_STEPS + 88
    drain(_chunks(spec, 2, [np.random.default_rng(6)]))     # imports made once
    peak = traced_peak(lambda: drain(_chunks(spec, n, [np.random.default_rng(6)])))
    assert peak < 6 * 256 * rows * 8


@pytest.mark.parametrize("streams", [1, 16])
def test_ma_block_memory_is_all_scratch(streams):
    # the moving sum and each weighted term go into arrays a task makes
    # with its first chunk; a later chunk's draw or sum that made a
    # (_CHUNK_STEPS, width) array of its own, or a (width, n) array for
    # either, would exceed the bound
    spec = ProcessSpec(family="ma_q", weights=(1.0, 0.5))
    width, n = streams * _CHUNK_ROWS, 1024
    chunks = _chunks(spec, n, [np.random.default_rng(2 + j) for j in range(streams)])
    next(chunks)
    assert traced_peak(lambda: drain(chunks)) < width * n * 8 / 16


@pytest.mark.parametrize("spec", [AR1, MA11, FINDING1], ids=["ar1", "ma_q", "markov_function"])
def test_window_sums_peak_memory_does_not_grow_with_n_or_the_burn_in(monkeypatch, spec):
    # a task holds a few (_CHUNK_STEPS, width) arrays, whatever n and the
    # burn-in: its peak at n = 2^15 and, for an AR(1) with uniform
    # innovations and phi = 0.999 (a burn-in of 36824 rows), at n = 2^12 is
    # its peak at n = 2^12 within 16 KiB (0.86 MB for the AR(1)).  Blocks
    # that held their (rows, burn + n) draws peaked at 18 MB, 136 MB at
    # n = 2^15 and 169 MB for the burn-in
    monkeypatch.setattr(processes, "_WORKERS", 1)
    slow = ProcessSpec(family="ar1", phi=0.999, innovations=InnovationLaw("uniform"))
    sums = lambda spec, n: window_sums(spec, n, 2 * _CHUNK_ROWS, 1, "memory",
                                       [(0, n), (n // 4, n), (0, 1)])
    sums(spec, 2)                                           # imports made once
    base = traced_peak(lambda: sums(spec, 2 ** 12))
    peaks = [traced_peak(lambda: sums(spec, 2 ** 15))]
    if spec == AR1:
        peaks.append(traced_peak(lambda: sums(slow, 2 ** 12)))
    assert all(abs(p - base) < 16 * 1024 for p in peaks), (base, peaks)


CHUNKED_SPECS = {
    "iid-normal": ProcessSpec(family="iid", innovations=InnovationLaw("normal", 0.7, 1.3)),
    "iid-uniform": ProcessSpec(family="iid", innovations=InnovationLaw("uniform", -0.2, 2.0)),
    "iid-rademacher": ProcessSpec(family="iid", innovations=InnovationLaw("rademacher", 0.1, 0.5)),
    "ar1": ProcessSpec(family="ar1", phi=-0.9, innovations=InnovationLaw("uniform", 0.3, 2.0)),
    "ar1-phi0": ProcessSpec(family="ar1", phi=0.0),
    "ma_q": ProcessSpec(family="ma_q", weights=(1.0, 0.5, 0.25),
                        innovations=InnovationLaw("uniform", 0.2, 1.0)),
    # more weights than _CHUNK_STEPS: the q innovations before time 0 span
    # two draws, and each chunk's history reaches back over the chunk before
    "ma_q-long": ProcessSpec(family="ma_q", weights=tuple(0.9 ** k for k in range(70)),
                             innovations=InnovationLaw("rademacher")),
    "markov_function": FINDING1,
}


@pytest.mark.parametrize("reps", BLOCK_BOUNDARY_REPS)
@pytest.mark.parametrize("name", sorted(CHUNKED_SPECS))
def test_chunks_concatenate_to_the_one_shot_paths(name, reps):
    # 260 steps cross the time-major block of 256 steps
    spec = CHUNKED_SPECS[name]
    out = mapped_paths(spec, 260, reps, 6, "chunks")
    assert np.array_equal(out, one_shot_paths(spec, 260, reps, 6, "chunks"))
    # block b, drawn alone from its key, is rows [b B, (b + 1) B) of the run
    for b, r0 in enumerate(range(0, reps, _CHUNK_ROWS)):
        rows = min(_CHUNK_ROWS, reps - r0)
        alone = chunked_block(spec, 260, block_stream(spec, 6, "chunks", b))[:rows]
        assert np.array_equal(alone, out[r0 : r0 + rows])


@pytest.mark.parametrize("reps", BLOCK_BOUNDARY_REPS)
@pytest.mark.parametrize("name", sorted(CHUNKED_SPECS))
def test_normalized_sums_equal_the_whole_matrix_sums(name, reps):
    spec = CHUNKED_SPECS[name]
    sums = normalized_sums(spec, 260, reps, 6, "sums")
    (a_n,), (b_n,) = asymptotics(spec)[0].values([260])
    whole = a_n * chunk_rule_sums(one_shot_paths(spec, 260, reps, 6, "sums"), 0, 260) + b_n
    assert sums.tobytes() == whole.tobytes()


# empty windows at both ends and inside, windows that end at n, one inside
# a chunk, one that ends on a chunk's edge and one across several chunks;
# then nested windows, which share the parts of the chunks they cover, ones
# that end inside a chunk, a repeated one and two that span the same steps
# of the chunk at 64 only
WINDOWS = [(0, 0), (0, 1), (3, 3), (3, 260), (0, 260), (259, 260), (260, 260), (100, 257),
           (70, 90), (1, _CHUNK_STEPS), (_CHUNK_STEPS - 1, 3 * _CHUNK_STEPS + 1),
           (0, 257), (0, 192), (0, 128), (0, 100), (0, 64), (5, 100), (5, 100), (64, 260),
           (64, 100), (128, 192)]


@pytest.mark.parametrize("workers", (1, 2, 3))
@pytest.mark.parametrize("name", sorted(CHUNKED_SPECS))
def test_window_sums_equal_the_whole_matrix_sums(monkeypatch, name, workers):
    # bitwise the rounding rule of window_sums, applied to the one-shot
    # paths one value at a time
    monkeypatch.setattr(processes, "_WORKERS", workers)
    spec = CHUNKED_SPECS[name]
    sums = window_sums(spec, 260, 1031, 6, "sums", WINDOWS)
    paths = one_shot_paths(spec, 260, 1031, 6, "sums")
    assert len(sums) == len(WINDOWS)
    for (s, e), got in zip(WINDOWS, sums):
        assert got.tobytes() == chunk_rule_sums(paths, s, e).tobytes()
    assert window_sums(spec, 260, 1031, 6, "sums", []) == []


@pytest.mark.parametrize("name", sorted(CHUNKED_SPECS))
def test_window_sums_do_not_depend_on_the_blocks_per_task(monkeypatch, name):
    # 17 blocks: tasks of 1, 3, 9 or 17 blocks on one worker, and of 1, 3
    # or 9 on two
    spec, reps = CHUNKED_SPECS[name], 16 * _CHUNK_ROWS + 7
    runs = {}
    for group in (1, 3, 16, 17):
        for workers in (1, 2):
            monkeypatch.setattr(processes, "_GROUP_BLOCKS", group)
            monkeypatch.setattr(processes, "_WORKERS", workers)
            runs[group, workers] = np.array(window_sums(spec, 130, reps, 6, "group", WINDOWS[:2]
                                                        + [(0, 130), (3, 129)])).tobytes()
    assert len(set(runs.values())) == 1


@pytest.mark.parametrize("workers, blocks, sizes", [
    (2, 40, [10] * 4), (2, 196, [14] * 14), (2, 20, [10] * 2), (2, 33, [9, 9, 9, 6]),
    (2, 5, [3, 2]), (2, 1, [1]), (1, 40, [14, 14, 12]), (1, 4, [4]), (3, 50, [9] * 5 + [5]),
])
def test_tasks_come_in_multiples_of_the_worker_count(monkeypatch, workers, blocks, sizes):
    # tasks = workers ceil(blocks / (workers 16)) of ceil(blocks / tasks)
    # blocks each, the last short: the 40 blocks of selfdecomp-ma2 run as
    # four tasks of 10, not 16 + 16 + 8 with one worker idle for the last
    # third, and the 196 of corollary-independent as 14 tasks of 14
    monkeypatch.setattr(processes, "_WORKERS", workers)
    run_blocks, groups = processes._run_blocks, []

    def recorded(task, total, group):
        groups.append(group)
        return run_blocks(task, total, group)

    monkeypatch.setattr(processes, "_run_blocks", recorded)
    reps = (blocks - 1) * _CHUNK_ROWS + 3
    (sums,) = window_sums(MA11, 1, reps, 1, "tasks", [(0, 1)])
    (group,) = groups
    assert [min(group, blocks - b) for b in range(0, blocks, group)] == sizes
    assert len(sums) == reps


@pytest.mark.parametrize("name", sorted(CHUNKED_SPECS))
def test_path_prefix_does_not_depend_on_n(name):
    # a path's first k values are drawn and stepped alike whatever n is, and
    # so is a window sum inside them
    spec = CHUNKED_SPECS[name]
    paths = mapped_paths(spec, 260, 515, 6, "prefix")
    sums = window_sums(spec, 260, 515, 6, "prefix", [(0, 1), (3, 130)])
    for n in (1, _CHUNK_STEPS - 1, _CHUNK_STEPS, _CHUNK_STEPS + 1, 130):
        assert mapped_paths(spec, n, 515, 6, "prefix").tobytes() == paths[:, :n].copy().tobytes()
    assert np.array(window_sums(spec, 130, 515, 6, "prefix", [(0, 1), (3, 130)])).tobytes() \
        == np.array(sums).tobytes()


def test_windows_outside_the_path_are_rejected(monkeypatch):
    def chunks(*args):
        raise AssertionError("a block was drawn")

    monkeypatch.setattr(processes, "_chunks", chunks)
    for window in ((-1, 3), (4, 3), (0, 11)):
        with pytest.raises(ValueError, match=r"must satisfy 0 <= s <= e <= n = 10"):
            window_sums(MA11, 10, 5, 1, "x", [(0, 10), window])


@pytest.mark.parametrize("name", sorted(CHUNKED_SPECS))
def test_paths_do_not_depend_on_the_worker_count(monkeypatch, name):
    spec = CHUNKED_SPECS[name]
    runs = []
    for workers in (1, 2, 3):
        monkeypatch.setattr(processes, "_WORKERS", workers)
        runs.append((mapped_paths(spec, 260, 1031, 6, "chunks"),
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
    serial = mapped_paths(spec, 40, 20 * _CHUNK_ROWS + 3, 4)
    monkeypatch.setattr(processes, "_WORKERS", 8)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threaded = mapped_paths(spec, 40, 20 * _CHUNK_ROWS + 3, 4)
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
    # depends on how many rows a block has; a row's values are its sums over
    # windows of one step
    specs = (ProcessSpec(family="ar1", phi=-0.9, innovations=InnovationLaw("uniform", 0.0, 1.0)),
             ProcessSpec(family="ar1", phi=0.5), ProcessSpec(family="ar1", phi=0.95))
    steps = [(k, k + 1) for k in range(16)]
    row = lambda spec, reps, seed: np.array(window_sums(spec, 16, reps, seed, "path", steps))[:, 0]
    differ = [(seed, spec.phi) for seed in range(200) for spec in specs
              if not np.array_equal(row(spec, 1, seed), row(spec, 4, seed))]
    assert differ == []


def test_path_arguments_are_checked_at_the_call(monkeypatch):
    def chunks(*args):
        raise AssertionError("a block was drawn")

    monkeypatch.setattr(processes, "_chunks", chunks)
    for n, reps in ((0, 5), (5, 0), (-1, 5)):
        with pytest.raises(ValueError, match="n and reps must be positive"):
            normalized_sums(MA11, n, reps, 1, "x")
        with pytest.raises(ValueError, match="n and reps must be positive"):
            window_sums(MA11, n, reps, 1, "x", [(0, 0)])


def test_normalized_sums_peak_memory_below_a_quarter_of_the_paths():
    # the whole-matrix draw held the innovations, the paths and a product
    # temporary: about three times the (reps, n) matrix
    spec = ProcessSpec(family="ma_q", weights=(1.0, 0.5, 0.25))
    n, reps = 1024, 16384
    out = []
    peak = traced_peak(lambda: out.append(normalized_sums(spec, n, reps, 2, "memory")))
    assert out[0].shape == (reps,)
    assert peak < reps * n * 8 / 4


@pytest.mark.parametrize("spec, n, reps", [
    (AR1, 300, 777),
    (ProcessSpec(family="ar1", phi=-0.9, innovations=InnovationLaw("uniform", 0.3, 2.0)), 257, 1025),
    (ProcessSpec(family="ar1", phi=0.99, innovations=InnovationLaw("rademacher", -1.0, 0.5)), 600, 3),
    (AR1, 1, 1),
    (AR1, 20, 2500),
], ids=["phi0.5", "uniform-blocks-plus-one", "rademacher-slow", "n1-reps1", "reps2500"])
def test_ar1_kernel_matches_loop_reference(spec, n, reps):
    assert np.array_equal(mapped_paths(spec, n, reps, 5), one_shot_paths(spec, n, reps, 5))


def normal_band(sd, eta):
    """The half-width of the band that a normal variable of standard
    deviation sd leaves with probability eta."""
    import scipy.stats
    return sd * scipy.stats.norm.isf(eta / 2)


def test_ar1_stationary_variance():
    # stationary variance sigma^2/(1 - phi^2) = 4/3.  The sample variance of
    # n values of the Gaussian AR(1) has variance (2/n) gamma_0^2 (1 +
    # phi^2)/(1 - phi^2) to O(1/n^2), matched by the chi^2 band of n (1 -
    # phi^2)/(1 + phi^2) = 6e4 degrees of freedom: a correct program leaves
    # it (about +-2.9%) with probability 1e-6 (the old rel=0.03: 2e-7)
    n, phi = 100_000, 0.5
    path = mapped_paths(AR1, n, 1, 7)[0]
    lo, hi = chi2_variance_band(4.0 / 3.0, round(n * (1 - phi ** 2) / (1 + phi ** 2)), eta=1e-6)
    assert lo <= path.var() <= hi


def test_ar1_first_value_already_stationary():
    # X_0 of a Gaussian AR(1) is exactly N(0, 4/3), so over 5e4 replications
    # the sample variance has a chi^2 law and the mean a normal one: a
    # correct program leaves each band with probability 1e-6 (the old
    # rel=0.05 and abs=0.02: 3e-15 and 1e-4)
    reps = 50_000
    x0 = mapped_paths(AR1, 2, reps, 3, label="stat")[:, 0]
    lo, hi = chi2_variance_band(4.0 / 3.0, reps, eta=1e-6)
    assert lo <= x0.var() <= hi
    assert abs(x0.mean()) <= normal_band(np.sqrt(4.0 / 3.0 / reps), eta=1e-6)


def test_ma_lag2_autocovariance_vanishes():
    # 1-dependence of MA(1): the m = n - 2 products x_k x_{k+2} have mean 0,
    # variance gamma_0^2 = 4 and covariance gamma_1^2 = 1 at lag 1, 0 beyond,
    # so their mean has variance (4 m + 2 (m - 1))/m^2 and a correct program
    # leaves its normal band (about +-0.038) with probability 1e-6 (the old
    # 0.03: 1e-4); x.mean()^2 adds a bias of about 4/n = 4e-5
    n = 100_000
    x = mapped_paths(MA11, n, 1, 9)[0]
    lag2 = np.mean(x[:-2] * x[2:]) - x.mean() ** 2
    m = n - 2
    assert abs(lag2) <= normal_band(np.sqrt(4 * m + 2 * (m - 1)) / m, eta=1e-6)


def test_stationarity_split_halves():
    # the halves' means are exactly Gaussian; their difference has variance
    # (4 Var S_m - Var S_2m)/m^2.  Each half's sample variance has variance
    # (2/m) sum_k gamma(k)^2 to O(1/m^2): 2 (16/9)(5/3)/m for the AR(1),
    # 2 (4 + 2)/m for the MA(1).  A correct program leaves each normal band
    # with probability 1e-6 (the old abs=0.05 and rel=0.05: 2e-8 and 9e-10
    # for the AR(1), 2e-8 and 1e-10 for the MA(1))
    m = 100_000
    var_sum = {AR1: lambda n: n * ar1_sum_variance(n), MA11: lambda n: 4.0 * n - 2.0}
    sum_sq_gamma = {AR1: (16 / 9) * (5 / 3), MA11: 4.0 + 2.0}
    for spec in (AR1, MA11):
        x = mapped_paths(spec, 2 * m, 1, 21)[0]
        h1, h2 = x[:m], x[m:]
        sd_mean = np.sqrt(4 * var_sum[spec](m) - var_sum[spec](2 * m)) / m
        assert abs(h1.mean() - h2.mean()) <= normal_band(sd_mean, eta=1e-6)
        sd_var = np.sqrt(2 * 2 * sum_sq_gamma[spec] / m)
        assert abs(h1.var() - h2.var()) <= normal_band(sd_var, eta=1e-6)


def test_norming_iid_standard_normal():
    nm, _ = asymptotics(ProcessSpec(family="iid"))
    ns = np.array([1, 4, 100])
    a, b = nm.values(ns)
    assert np.allclose(a, ns ** -0.5)
    assert np.allclose(b, 0.0)


def test_norming_values_rejects_unvectorized_and_nonpositive_sequences():
    # a norming is evaluated on whole arrays of n, never n by n
    ns = np.arange(1, 11)
    zero = lambda n: np.zeros(np.shape(n))
    for a in (lambda n: 1.0 / math.sqrt(n), lambda n: 0.5):
        with pytest.raises(ValueError, match="vectorized"):
            NormingSequences(a=a, b=zero, provenance="").values(ns)
    with pytest.raises(ValueError, match="vectorized"):
        NormingSequences(a=lambda n: n ** -0.5, b=lambda n: 0.0, provenance="").values(ns)
    for a in (zero, lambda n: -(n ** -0.5), lambda n: np.where(n < 5, np.inf, 1.0)):
        with pytest.raises(ValueError, match="positive and finite"):
            NormingSequences(a=a, b=zero, provenance="").values(ns)


@pytest.mark.parametrize("spec", [ProcessSpec(family="iid"), AR1, MA11, TWO_STATE, FINDING1],
                         ids=["iid", "ar1", "ma_q", "two-state", "finding1"])
def test_asymptotics_limit_is_the_standard_normal_record(spec):
    # the record is read by every KS reference and by the closed-form
    # gaussian CF; the corollary's N(0, 2) is its sum of two copies
    _, limit = asymptotics(spec)
    assert limit == STANDARD_NORMAL and limit.name == "N(0,1)" and limit.index == 2.0
    two = limit.scaled(2 ** (1 / limit.index))
    x = np.concatenate([[0.0, -0.0, np.inf, -np.inf], np.linspace(-12.0, 12.0, 4801)])
    assert np.array_equal(two.cdf(x), normal_cdf(x / np.sqrt(2.0)))
    assert np.array_equal(limit.cdf(x), normal_cdf(x))
    assert two.name == "N(0,2)"
    assert CLOSED_FORM_CFS["gaussian"] == limit.cf


def ar1_sum_variance(n):
    """Var(S_n)/n of the stationary AR(1) with phi = 1/2 and sigma = 1:
    gamma(k) = (4/3) 2^-k, so n gamma(0) + 2 sum_{k<n} (n - k) gamma(k)
    = 4n - 16 (1 - 2^-n) / 3."""
    return 4.0 - 16.0 * (1.0 - 2.0 ** -n) / (3.0 * n)


def test_norming_ar1_closed_form_and_oracle():
    # v_inf = sigma^2/(1-phi)^2 = 4: a(n) = 1/(2 sqrt(n)).  S_n is exactly
    # Gaussian, so Var(S_n)/n over 1e4 replications has a chi^2 law: a
    # correct program leaves the band with probability 1e-6
    assert _moments(AR1)[1] == pytest.approx(4.0, abs=1e-12)
    assert asymptotics(AR1)[0].values([16])[0][0] == pytest.approx(1 / 8)
    for n in (1, 2, 5, 16):
        gamma = lambda k: 4.0 / 3.0 * 0.5 ** abs(k)
        brute = sum(gamma(j - k) for j in range(n) for k in range(n)) / n
        assert ar1_sum_variance(n) == pytest.approx(brute, rel=1e-14)
    n, reps = 2 ** 14, 10_000
    lo, hi = chi2_variance_band(ar1_sum_variance(n), reps, eta=1e-6)
    v_emp = empirical_long_run_variance(AR1, n, reps, 5)
    assert lo <= v_emp <= hi


def chi2_variance_band(var, reps, eta):
    """(lo, hi) with P(lo <= s2 <= hi) = 1 - eta, for the ddof-0 sample
    variance s2 of reps iid N(mu, var) draws: reps s2 / var is chi^2 with
    reps - 1 degrees of freedom, cut at eta/2 in each tail."""
    import scipy.stats
    law = scipy.stats.chi2(reps - 1)
    return var * law.ppf(eta / 2) / reps, var * law.isf(eta / 2) / reps


def test_norming_ma_closed_form_and_oracle():
    # S_n = eps_0 + 2 (eps_1 + ... + eps_{n-1}) + eps_n is N(0, 4n - 2), so
    # Var(S_n)/n over 1e4 replications has a chi^2 law: a correct program
    # leaves the band with probability 1e-6 (about +-6.9% here)
    assert _moments(MA11)[1] == pytest.approx(4.0, abs=1e-12)
    n, reps = 2 ** 14, 10_000
    lo, hi = chi2_variance_band((4.0 * n - 2.0) / n, reps, eta=1e-6)
    v_emp = empirical_long_run_variance(MA11, n, reps, 6)
    assert lo <= v_emp <= hi


def test_norming_markov_function():
    # symmetric two-state chain with values -1/+1, started stationary:
    # autocovariance 0.5^k, so v_inf = 1 + 2 sum_k 0.5^k = 3 and Var(S_n)/n
    # = 3 - 4 (1 - 2^-n)/n, three quarters of the AR(1)'s.  S_n is normal
    # to O(1/n), so over 4000 replications Var(S_n)/n has a chi^2 law: a
    # correct program leaves the band (about -11%, +11%) with probability
    # 1e-6 (the old rel=0.10: 8e-6)
    chain = MarkovChainSpec([-1.0, 1.0], [[0.75, 0.25], [0.25, 0.75]], [0.5, 0.5])
    spec = ProcessSpec(family="markov_function", chain=chain)
    assert _moments(spec)[1] == pytest.approx(3.0, abs=1e-12)
    n, reps = 2 ** 12, 4000
    lo, hi = chi2_variance_band(0.75 * ar1_sum_variance(n), reps, eta=1e-6)
    assert lo <= empirical_long_run_variance(spec, n, reps, 8) <= hi


def test_norming_rejects_degenerate():
    with pytest.raises(ValueError, match="degenerate"):
        asymptotics(ProcessSpec(family="ma_q", weights=(1.0, -1.0)))
    with pytest.raises(ValueError, match="ergodic"):
        chain = MarkovChainSpec([0.0, 1.0], [[1.0, 0.0], [0.0, 1.0]], [0.5, 0.5])
        asymptotics(ProcessSpec(family="markov_function", chain=chain))
    # finite weights whose sum overflows, times a zero variance: v_inf is NaN,
    # which the old v <= 0 guard let through
    zero = InnovationLaw("normal", 0.0, 0.0)
    with np.errstate(over="ignore"), pytest.raises(ValueError, match="long-run variance nan"):
        asymptotics(ProcessSpec(family="ma_q", weights=(1e308, 1e308), innovations=zero))


def test_normalized_sums_have_unit_variance():
    # a_n S_n is exactly Gaussian with variance Var(S_n)/(4n) = 1 - 4 (1 -
    # 2^-n)/(3n), 0.99967 at n = 4096, so over 2000 replications a correct
    # program leaves the chi^2 band [0.8521, 1.1615] with probability 1e-6
    n, reps = 4096, 2000
    lo, hi = chi2_variance_band(ar1_sum_variance(n) / 4.0, reps, eta=1e-6)
    t = normalized_sums(AR1, n, reps, 10, "unitvar")
    assert lo <= t.var() <= hi


def test_marginal_tail_gaussian_families():
    import scipy.stats
    tail = marginal_abs_tail(ProcessSpec(family="iid"))
    assert tail(1.5) == pytest.approx(2 * scipy.stats.norm.sf(1.5), abs=1e-12)
    tail_ar = marginal_abs_tail(AR1)
    sd = np.sqrt(4.0 / 3.0)
    assert tail_ar(2.0) == pytest.approx(2 * scipy.stats.norm.sf(2.0 / sd), abs=1e-12)
    # the scipy.stats form off-centre too, within the sum of its two terms'
    # bounds (tests/test_probcore.py: 8 (z^2 + 1) eps relative where scipy's
    # term is a normal float, below the smallest normal float elsewhere) and
    # eps relative for rounding the two sums
    law = InnovationLaw(mean=0.3, std=1.7)
    t = np.concatenate([[0.0, 0.3, np.inf], np.linspace(0.0, 70.0, 7001)])
    m, sd = law.mean, law.std
    eps, tiny = np.finfo(float).eps, np.finfo(float).tiny
    terms = scipy.stats.norm.sf((t - m) / sd), scipy.stats.norm.cdf((-t - m) / sd)
    zs = np.abs(t - m) / sd / np.sqrt(2.0), np.abs(t + m) / sd / np.sqrt(2.0)
    ref = terms[0] + terms[1]
    bound = eps * ref
    for r, z in zip(terms, zs):
        normal = r >= tiny
        bound[normal] += 8.0 * (z[normal] ** 2 + 1.0) * eps * r[normal]
        bound[~normal] += tiny
    got = marginal_abs_tail(ProcessSpec(family="iid", innovations=law))(t)
    assert np.all(np.abs(got - ref) <= bound)


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
            asymptotics(spec)
        return
    for n in (1, 7, 4096):
        want = (1.0 / np.sqrt(n * v), -float(n) * m / np.sqrt(n * v))
        assert np.array_equal(np.concatenate(asymptotics(spec)[0].values([n])), want)


@pytest.mark.parametrize("spec", [
    FINDING1, SPARSE4, many_state_spec(12),
    markov_spec(np.full((9, 9), 1 / 9), None, [-1.0, 0.5, 1.0, -0.5, 0.0, 2.0, 1.0, -2.0, 0.5]),
], ids=["finding1", "zero-probability", "12-states", "repeated-values"])
def test_markov_tail_matches_per_threshold_sums(spec):
    tail, ref = marginal_abs_tail(spec), loop_markov_tail(spec)
    vals = np.abs(spec.chain.states)
    t = np.concatenate([np.linspace(-0.5, 3.0, 71), vals, np.nextafter(vals, np.inf), [np.inf]])
    assert np.array_equal(tail(t), ref(t))
    for ti in t:
        got = tail(ti)
        assert type(got) is float and got == ref(ti)[0]


def test_markov_tail_bounds_a_slowly_mixing_chain():
    # the chain leaves each state with probability 1e-7 per step, so from
    # state 0 its law nears P(Y_k = 1) = 1/2 only after about 10^7 steps;
    # the laws of its first 10^4 steps alone put P(|X_k| >= 5) at 0.001
    e = 1e-7
    spec = markov_spec([[1 - e, e], [e, 1 - e]], [1.0, 0.0], [1.0, 10.0])
    pi = spec.chain.stationary()
    assert pi == pytest.approx([0.5, 0.5])
    sup_mass = 0.5 - 0.5 * (1 - 2 * e) ** 10 ** 8       # P(Y_k = 1) at k = 10^8
    assert sup_mass > 0.49
    assert marginal_abs_tail(spec)(5.0) >= sup_mass
    assert np.array_equal(marginal_abs_tail(spec)(np.array([5.0, 20.0])),
                          loop_markov_tail(spec)(np.array([5.0, 20.0])))


def test_plug_in_alpha_vanishes_beyond_dependence_range():
    # iid at any lag and MA(1) beyond lag 1 are independent pairs: the
    # median-split plug-in estimate must sit at its sampling-noise floor
    from mixlimit.blocking import _split_alpha
    n = 100_000
    noise_3sd = 3 * 0.3536 / np.sqrt(n)
    lag_alpha = lambda v, lag: _split_alpha(v[:-lag], v[lag:])
    iid = mapped_paths(ProcessSpec(family="iid"), n, 1, 31)[0]
    for lag in (1, 3):
        assert lag_alpha(iid, lag) <= noise_3sd
    ma = mapped_paths(MA11, n, 1, 32)[0]
    assert lag_alpha(ma, 2) <= noise_3sd and lag_alpha(ma, 4) <= noise_3sd
    assert lag_alpha(ma, 1) > 3 * noise_3sd        # within range the dependence is visible


def test_analytic_alpha_profiles():
    assert all(a == 0.0 for _, a in analytic_alpha_profile(ProcessSpec(family="iid"), [1, 5]).values)
    ma = dict(analytic_alpha_profile(MA11, [1, 2, 3]).values)
    assert ma[1] == 0.25 and ma[2] == 0.0 and ma[3] == 0.0
    ar = dict(analytic_alpha_profile(AR1, [1, 4]).values)
    assert ar[1] == pytest.approx(0.125) and ar[4] == pytest.approx(0.25 * 0.5 ** 4)
    # a uniform AR(1) has bounded states: min(1/4, |phi|^n / (4 (1 - |phi|)));
    # a rademacher one keeps 1/4, its coefficient when |phi| <= 1/2
    uniform = ProcessSpec(family="ar1", phi=-0.5, innovations=InnovationLaw("uniform", 0.3, 2.0))
    un = dict(analytic_alpha_profile(uniform, [1, 2, 4]).values)
    assert un[1] == 0.25 and un[2] == pytest.approx(0.125) and un[4] == pytest.approx(0.03125)
    rademacher = ProcessSpec(family="ar1", phi=0.5, innovations=InnovationLaw("rademacher"))
    assert analytic_alpha_profile(rademacher, [1, 4]).values == ((1, 0.25), (4, 0.25))


@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_uniform_ar1_envelope_bounds_quantile_split_alpha(n):
    # the largest |P(AB) - P(A)P(B)| over 25 events A = {X_0 <= x}, B =
    # {X_n <= y} at the 1/6 .. 5/6 quantiles is a lower bound on alpha(n);
    # it reads 0.069, 0.035, 0.017 and 0.0049 at n = 1, 2, 3 and 5, under
    # the envelope's 0.25, 0.125, 0.0625 and 0.0156, and above the noise of
    # 2 10^5 paths, about 0.001, at n <= 3
    spec = ProcessSpec(family="ar1", phi=0.5, innovations=InnovationLaw("uniform"))
    reps = 200_000
    x0, xn = window_sums(spec, n + 1, reps, 3, "envelope", [(0, 1), (n, n + 1)])
    qs = np.arange(1, 6) / 6
    a = x0[None, :] <= np.quantile(x0, qs)[:, None]
    b = xn[None, :] <= np.quantile(xn, qs)[:, None]
    lower = np.max(np.abs(a.astype(float) @ b.T.astype(float) / reps
                          - np.outer(a.mean(axis=1), b.mean(axis=1))))
    (_, envelope), = analytic_alpha_profile(spec, [n]).values
    assert envelope == pytest.approx(min(0.25, 0.5 ** n / 2))
    assert lower < envelope
    if n <= 3:
        assert lower > 0.005


@pytest.mark.parametrize("n", [1, 4, 16, 32])
def test_rademacher_ar1_with_phi_half_keeps_x0_in_every_later_value(n):
    # Andrews (1984): X_n = 2^-n X_0 + sum_{i<n} 2^-i eps_{n-i} with eps = +-1,
    # and the sum plus 2 - 2^(1-n) lies on the lattice 2^(2-n) Z, while
    # 2^-n X_0 lies in an open interval of that length (|X_0| < 2).  So X_0
    # is a function of X_n, and alpha(n) = 1/4 at every n: the 1/4 of
    # analytic_alpha_profile is the coefficient itself
    spec = ProcessSpec(family="ar1", phi=0.5, innovations=InnovationLaw("rademacher"))
    x0, xn = window_sums(spec, n + 1, 20_000, 0, "andrews", [(0, 1), (n, n + 1)])
    r = (xn + 2.0 - 2.0 ** (1 - n)) / 2.0 ** (2 - n)
    assert np.max(np.abs(4.0 * (r - np.round(r)) - x0)) < 1e-5


@pytest.mark.parametrize("law", [InnovationLaw("normal", 0.3, 1.7), InnovationLaw("uniform", 0.25, 2.0)],
                         ids=["normal", "uniform"])
def test_iid_ar1_with_phi_0_and_ma_with_weight_1_are_one_filter(law):
    # one linear filter X_k = phi X_{k-1} + sum_i w_i eps_{k-i} with phi = 0
    # and w = (1,): the same paths from one generator, and the same moments,
    # tail and mixing envelope
    same = (ProcessSpec(family="iid", innovations=law),
            ProcessSpec(family="ar1", phi=0.0, innovations=law),
            ProcessSpec(family="ma_q", weights=(1.0,), innovations=law))
    draw = lambda spec: chunked_block(spec, 260, np.random.default_rng(8))
    t = np.concatenate([np.linspace(0.0, 12.0, 1201), [np.inf]])
    paths, tail = draw(same[0]), marginal_abs_tail(same[0])(t)
    alpha = analytic_alpha_profile(same[0], [1, 2, 5]).values
    assert alpha == ((1, 0.0), (2, 0.0), (5, 0.0))
    for spec in same[1:]:
        assert np.array_equal(draw(spec), paths)
        assert _moments(spec) == _moments(same[0]) == (law.mean, law.std * law.std)
        assert np.array_equal(marginal_abs_tail(spec)(t), tail)
        assert analytic_alpha_profile(spec, [1, 2, 5]).values == alpha
    # one weight w scales the innovations: w iid
    scaled = ProcessSpec(family="ma_q", weights=(-2.5,), innovations=law)
    assert np.array_equal(draw(scaled), -2.5 * paths)
    assert _moments(scaled) == (-2.5 * law.mean, 2.5 * 2.5 * (law.std * law.std))
    assert analytic_alpha_profile(scaled, [1, 2, 5]).values == alpha


def test_path_csv_export():
    # innovations of std 0 make every value their mean
    flat = ProcessSpec(family="iid", innovations=InnovationLaw("normal", 2.5, 0.0))
    path = mapped_paths(flat, 3, 1, 0)[0]
    buf = io.StringIO()
    write_path_csv(buf, path)
    lines = buf.getvalue().strip().split("\n")
    assert lines[0] == "index,value"
    assert lines[1] == "1,2.5"
    assert len(lines) == 4
    buf = io.StringIO()
    write_path_csv(buf, np.array([0.1, 1.0 / 3.0]))
    assert buf.getvalue() == "index,value\n1,0.1\n2,0.3333333333333333\n"


def test_spec_hash_pinned():
    # every RNG stream is keyed by the spec hash: a change here changes
    # every Monte Carlo report
    chain = MarkovChainSpec(
        [-1.0, 2.0, 0.5], [[0.6, 0.3, 0.1], [0.3, 0.6, 0.1], [0.2, 0.2, 0.6]], [1.0 / 3.0] * 3
    )
    pinned = {
        "35abcd9f21f7eda2": AR1,
        "1134c5da955b5036": ProcessSpec(family="iid"),
        "d108eebde9ceef28": ProcessSpec(family="ma_q", weights=(1, 0.5, 0.25)),
        "bec30666177072a9": ProcessSpec(family="markov_function", chain=chain),
        "6126ef36e301bdb7": ProcessSpec(family="ar1", phi=-0.25,
                                        innovations=InnovationLaw("rademacher", 1, 2)),
    }
    for want, spec in pinned.items():
        assert spec.spec_hash() == want
        assert spec.describe()["dimension"] == 1
