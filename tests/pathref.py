"""The path oracle the tests share: the layout that processes.window_sums
documents, by its definition and with loop references for each family's
recursion, and the library's own chunks assembled into (reps, n) paths."""

import functools

import numpy as np

from mixlimit import rngstreams
from mixlimit.mixing import MarkovChainSpec
from mixlimit.processes import (_AR1_INIT_TOL, _CHUNK_ROWS, _CHUNK_STEPS, _chunks, _run_blocks,
                                ProcessSpec)

# the benchmark's 3-state chain, whose step5 rows fail by finding 1
FINDING1 = ProcessSpec(family="markov_function", chain=MarkovChainSpec(
    [-1.0, 2.0, 0.5], [[0.6, 0.3, 0.1], [0.3, 0.6, 0.1], [0.2, 0.2, 0.6]], [1 / 3, 1 / 3, 1 / 3]))
# one block, a block less or more by one row, two blocks and seven rows, and
# two and four blocks less or more by at most seven rows
BLOCK_BOUNDARY_REPS = (1, _CHUNK_ROWS - 1, _CHUNK_ROWS, _CHUNK_ROWS + 1, 2 * _CHUNK_ROWS + 7,
                       1023, 1024, 1025, 2055)


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


def ar1_lead(spec):
    """The rows an ar1 draws before time 0: none from the exact Gaussian
    start, else its burn-in."""
    if spec.innovations.name == "normal":
        return 0
    return int(np.ceil(np.log(_AR1_INIT_TOL) / np.log(abs(spec.phi))))


def loop_ar1_paths(spec, n, eps):
    """ar1 paths from the innovations eps, one time column at a time, kept
    over the last n columns: from the exact start X_0 = m + (eps_0 - mu) /
    sqrt(1 - phi^2) for Gaussian innovations, else from the stationary mean
    m before the first column."""
    phi, law = spec.phi, spec.innovations
    m = law.mean / (1.0 - phi)
    out = np.empty(eps.shape)
    if law.name == "normal":
        prev = m + (eps[:, 0] - law.mean) / np.sqrt(1.0 - phi * phi)
        out[:, 0], start = prev, 1
    else:
        prev, start = np.full(len(eps), m), 0
    for k in range(start, eps.shape[1]):
        prev = phi * prev + eps[:, k]
        out[:, k] = prev
    return out[:, eps.shape[1] - n :]


def one_shot_block(spec, n, rng):
    """The (_CHUNK_ROWS, n) paths of one block by their definition: one
    (lead + n, _CHUNK_ROWS) draw from rng, column r replication r, run
    through the loop references, with the innovations scaled as mean + std
    * z."""
    law = spec.innovations
    draw = lambda sample, lead: sample((lead + n, _CHUNK_ROWS)).T
    if spec.family == "markov_function":
        return loop_markov_paths(spec, draw(rng.random, 0))
    innovations = lambda lead: draw(lambda shape: one_shot_innovations(law, rng, shape), lead)
    if spec.family == "iid" or (spec.family == "ar1" and spec.phi == 0.0):
        return innovations(0)
    if spec.family == "ar1":
        return loop_ar1_paths(spec, n, innovations(ar1_lead(spec)))
    q = len(spec.weights) - 1
    eps = innovations(q)
    out = np.zeros((_CHUNK_ROWS, n))
    for i, wi in enumerate(spec.weights):
        out += wi * eps[:, q - i : q - i + n]
    return out


def block_stream(spec, seed, label, b):
    """The stream of replication block b."""
    return rngstreams.stream(seed, label, spec.spec_hash(), b)


def one_shot_paths(spec, n, reps, seed, label="path"):
    """The (reps, n) paths by their definition: replication r is row r mod
    _CHUNK_ROWS of block r // _CHUNK_ROWS, and each block is drawn in one
    shot from its own stream, the full _CHUNK_ROWS wide."""
    blocks = range(-(-reps // _CHUNK_ROWS))
    return np.concatenate([one_shot_block(spec, n, block_stream(spec, seed, label, b))
                           for b in blocks])[:reps]


def chunked_block(spec, n, rng):
    """The (_CHUNK_ROWS, n) paths of one block as the workers make them,
    assembled from its time-major chunks."""
    out = np.empty((_CHUNK_ROWS, n))
    for t0, c, x in _chunks(spec, n, [rng]):
        out[c : c + x.shape[1], t0 : t0 + len(x)] = x.T
    return out


def mapped_paths(spec, n, reps, seed, label="path", group=3):
    """The (reps, n) paths as the library's workers make them: the chunks
    of tasks of `group` consecutive blocks, run by processes._run_blocks on
    the current workers, written into one matrix.  The default of three
    blocks a task steps several blocks side by side, as the library's
    tasks do."""
    out = np.empty((reps, n))

    def task(b0, r0, rows):
        rngs = [block_stream(spec, seed, label, b) for b in range(b0, b0 - (-rows // _CHUNK_ROWS))]
        for t0, c, x in _chunks(spec, n, rngs):
            cols = min(x.shape[1], rows - c)
            out[r0 + c : r0 + c + cols, t0 : t0 + len(x)] = x[:, :cols].T

    _run_blocks(task, reps, group)
    return out


def chunk_rule_sums(paths, s, e):
    """X_s + ... + X_{e-1} of each row of paths by the rounding rule of
    window_sums, one value at a time: 0.0 plus the window's part of each
    _CHUNK_STEPS-step chunk, in time order, each part summed in time order."""
    parts = [range(max(s, c0), min(e, c0 + _CHUNK_STEPS))
             for c0 in range(s - s % _CHUNK_STEPS, e, _CHUNK_STEPS)]
    return sum((functools.reduce(np.add, (paths[..., k] for k in ks)) for ks in parts if ks),
               np.zeros(paths.shape[:-1]))


def whole_matrix_sums(whole):
    """A stand-in for processes.window_sums that sums the (reps, n) matrix
    whole by its rounding rule, one value at a time."""
    def window_sums(spec, n, reps, seed, label, windows):
        assert whole.shape == (reps, n)
        return [chunk_rule_sums(whole, s, e) for s, e in windows]

    return window_sums
