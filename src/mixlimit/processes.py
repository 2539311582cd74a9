"""Generators of strongly mixing sequences.

Each family has a known long-run variance, so the norming sequences
a_n = 1/sqrt(n v_inf), b_n = -a_n n mean make the normalized partial
sums a_n S_n + b_n converge to a standard normal.  That ground truth is
what the blocking diagnostics are checked against.

Families:
  iid, ar1, ma_q   the linear filter X_k = phi X_{k-1} + sum_i w_i eps_{k-i}
                   of iid innovations, started at stationarity, with
                   (phi, w) = (0, (1)), (phi, (1)) and (0, weights)
  markov_function  f(Y_k) for a finite-state chain Y
"""

from __future__ import annotations

import hashlib
import json
import threading
from dataclasses import dataclass, field

import numpy as np

from . import rngstreams
from .mixing import AlphaProfile, MarkovChainSpec, alpha_bound_geometric
from .probcore import STANDARD_NORMAL, normal_cdf

# the ProcessSpec fields each family reads: describe() records them, and a
# process config may set them and no others
FAMILIES = {
    "iid": ("innovations",),
    "ar1": ("phi", "innovations"),
    "ma_q": ("weights", "innovations"),
    "markov_function": ("chain", "state_values"),
}
_AR1_INIT_TOL = 1e-16
# replications (and the samples of sample_random_integral) are drawn and
# reduced in blocks of _CHUNK_ROWS, one keyed stream per block, on _WORKERS
# threads that each hold one block: the paths in flight take the memory of
# _IN_FLIGHT_ROWS rows, the one chunk of the sequential draw, on any host;
# ar1 and markov_function blocks are stepped in time-major chunks of
# _CHUNK_STEPS steps, copied in _COPY_ROWS rows at a time (see _time_major),
# in a (_CHUNK_STEPS, _CHUNK_ROWS) array that each worker reuses from block
# to block; a markov_function worker also keeps a chunk's state codes and
# bucket counts in such arrays, whatever the number of states
_CHUNK_ROWS = 512
_IN_FLIGHT_ROWS = 1024
_WORKERS = _IN_FLIGHT_ROWS // _CHUNK_ROWS
_CHUNK_STEPS = 256
_COPY_ROWS = 64
# a markov_function chain with at most this many distinct step thresholds
# steps through a table of K (_MAX_STEP_EDGES + 1) or fewer entries, and its
# buckets fit in int8 (see _markov_paths)
_MAX_STEP_EDGES = 16


@dataclass(frozen=True)
class InnovationLaw:
    """Innovation distribution for iid/ar1/ma_q: "normal", "uniform" or
    "rademacher", parametrized by mean and standard deviation."""

    name: str = "normal"
    mean: float = 0.0
    std: float = 1.0

    def __post_init__(self):
        if self.name not in ("normal", "uniform", "rademacher"):
            raise ValueError(f"unknown innovation law {self.name!r}")
        if not (np.isfinite(self.mean) and np.isfinite(self.std)):
            raise ValueError(f"innovation mean {self.mean!r} and std {self.std!r} must be finite")
        if self.std < 0:
            raise ValueError("innovation std must be nonnegative")

    def sample(self, rng: np.random.Generator, out: np.ndarray) -> np.ndarray:
        """out, filled with draws of the law in row-major order."""
        if self.name == "normal":
            rng.standard_normal(out=out)
        elif self.name == "uniform":
            rng.random(out=out)
            out -= 0.5
            out *= np.sqrt(12.0)
        else:
            np.multiply(rng.integers(0, 2, out.shape), 2.0, out=out)
            out -= 1.0
        # in place, so no temporary of the draw's size, and skipped for the
        # standard law, so the draw is its one pass; equal to mean + std * z
        # but on a -0.0 draw, which mean + std * z would turn into +0.0
        if (self.mean, self.std) != (0.0, 1.0):
            out *= self.std
            out += self.mean
        return out

    @property
    def variance(self) -> float:
        return self.std * self.std


@dataclass(frozen=True)
class ProcessSpec:
    family: str
    phi: float = 0.0
    weights: tuple = ()
    innovations: InnovationLaw = field(default_factory=InnovationLaw)
    chain: MarkovChainSpec | None = None
    state_values: tuple | None = None

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown process family {self.family!r}")
        if self.family == "ar1" and not abs(self.phi) < 1:
            raise ValueError(f"ar1 requires |phi| < 1, got {self.phi}")
        if self.family == "ma_q":
            if len(self.weights) == 0:
                raise ValueError("ma_q requires at least one weight")
            object.__setattr__(self, "weights", tuple(float(w) for w in self.weights))
            if not np.all(np.isfinite(self.weights)):
                raise ValueError(f"ma_q weights {self.weights!r} must be finite")
        if self.family == "markov_function":
            if self.chain is None:
                raise ValueError("markov_function requires a chain spec")
            if self.state_values is not None and len(self.state_values) != self.chain.n_states:
                raise ValueError(
                    f"state_values has {len(self.state_values)} entries, "
                    f"the chain has {self.chain.n_states} states"
                )
            if self.state_values is not None and not np.all(np.isfinite(self.mapped_values())):
                raise ValueError(f"state_values {self.state_values!r} must be finite")

    def describe(self) -> dict:
        # paths are scalar; the entry stays because spec_hash, and with it
        # every RNG stream key, is built from this dict
        d = {"family": self.family, "dimension": 1}
        for k in FAMILIES[self.family]:
            v = self.mapped_values() if k == "state_values" else getattr(self, k)
            if isinstance(v, InnovationLaw):
                v = {"name": v.name, "mean": v.mean, "std": v.std}
            elif isinstance(v, MarkovChainSpec):
                v = {"states": v.states.tolist(), "transition": v.transition.tolist(),
                     "initial": v.initial.tolist()}
            elif isinstance(v, (tuple, np.ndarray)):
                v = list(v)
            d[k] = v
        return d

    def mapped_values(self) -> np.ndarray:
        if self.state_values is not None:
            return np.asarray(self.state_values, dtype=float)
        return self.chain.states

    def spec_hash(self) -> str:
        blob = json.dumps(self.describe(), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:16]


@dataclass(frozen=True)
class NormingSequences:
    """Scaling a(n) > 0 and centering b(n) with a closed-form provenance."""

    a: object                   # vectorized callable n -> positive float
    b: object                   # vectorized callable n -> float
    provenance: str

    def values(self, ns) -> tuple:
        """(a(ns), b(ns)), float arrays of the shape of the integer array ns."""
        ns = np.asarray(ns)
        out = []
        for fn in (self.a, self.b):
            try:
                out.append(np.asarray(fn(ns), dtype=float))
            except TypeError as e:
                raise ValueError(f"sequence {fn!r} must be vectorized over arrays of n: {e}") from e
            if out[-1].shape != ns.shape:
                raise ValueError(f"sequence {fn!r} must be vectorized: it maps n of shape "
                                 f"{ns.shape} to shape {out[-1].shape}")
        a, b = out
        if np.any(a <= 0) or not np.all(np.isfinite(a)):
            raise ValueError("scaling sequence a must be positive and finite")
        return a, b


def simulate_many(spec: ProcessSpec, n: int, reps: int, seed: int, label: str = "path") -> np.ndarray:
    """(reps, n) matrix of independent paths; deterministic in (spec, n, reps, seed).

    Replication r is row r mod _CHUNK_ROWS of block r // _CHUNK_ROWS,
    whose stream is keyed by (seed, label, spec hash, block index); column
    k within a row is time index k.  So a row does not depend on reps:
    simulate_many(spec, n, 1, seed)[0] is row 0 of every larger draw.
    Each block is written into the matrix as it is drawn, so the matrix is
    the one array of its size a call holds; consumers that only need
    sums of paths over windows of time take them from window_sums instead.
    """
    # checked before the allocation, which would raise its own message
    _check_sizes(n, reps)
    out = np.empty((reps, n))

    def write(r0, block):
        out[r0 : r0 + len(block)] = block

    _map_blocks(spec, n, reps, seed, label, write)
    return out


def _check_sizes(n: int, reps: int) -> None:
    if n < 1 or reps < 1:
        raise ValueError("n and reps must be positive")


def _map_blocks(spec: ProcessSpec, n: int, reps: int, seed: int, label: str, reduce) -> list:
    """[reduce(r0, block)] over the blocks of _CHUNK_ROWS replications, in
    block order; block b is the (rows, n) paths of replications r0 = b
    _CHUNK_ROWS onwards (the last block may be shorter).

    Block b draws from the stream keyed by (seed, label, spec hash, b), so
    it and its reduction depend on b alone, and the result is the same on
    every number of workers.  The arguments are checked at the call,
    before any block is drawn.  reduce runs on a worker thread and must
    not touch state another block writes.  Each worker draws its blocks
    into one scratch array, so reduce must not keep the block it is given.
    """
    _check_sizes(n, reps)
    key = spec.spec_hash()
    scratch = threading.local()

    def task(b, r0, rows):
        rng = rngstreams.stream(seed, label, key, b)
        return reduce(r0, _block(spec, n, rows, rng, scratch))

    return _run_blocks(task, reps)


def _run_blocks(task, total: int) -> list:
    """[task(b, r0, rows)] over the blocks b of _CHUNK_ROWS of total items,
    in block order: block b holds the rows items from r0 = b _CHUNK_ROWS on
    (the last block may be shorter).

    The tasks run on _WORKERS threads.  numpy's generators and ufuncs
    release the GIL, so blocks drawn from separate streams overlap.  A
    task's exception, or an interrupt, is raised here once the running
    tasks end: Executor.map cancels the blocks not yet started.
    """
    from concurrent.futures import ThreadPoolExecutor

    starts = range(0, total, _CHUNK_ROWS)
    rows = [min(_CHUNK_ROWS, total - r0) for r0 in starts]
    with ThreadPoolExecutor(max_workers=min(_WORKERS, len(starts))) as pool:
        return list(pool.map(task, range(len(starts)), starts, rows))


def _scratch(scratch, shape, name: str = "buf", dtype=np.float64) -> np.ndarray:
    """An array of the given 2-D shape and dtype backed by the attribute
    name of scratch, which is allocated on first use and grown when too
    small.

    Reusing one array per worker keeps the allocator from handing out and
    taking back a block-sized array per block; glibc keeps such memory in
    each thread's arena, which raised the peak RSS of a two-worker
    markov_function blocking-verify run (10^4 replications, n up to
    4096) from 77 to 110 MB.
    """
    size = shape[0] * shape[1]
    buf = getattr(scratch, name, None)
    if buf is None or buf.size < size:
        buf = np.empty(size, dtype)
        setattr(scratch, name, buf)
    return buf[:size].reshape(shape)


def _filter(spec: ProcessSpec) -> tuple:
    """(phi, weights) of the linear filter X_k = phi X_{k-1} + sum_i w_i
    eps_{k-i} that spec is, from the fields its family reads: iid is
    (0, (1,)), ar1 (phi, (1,)) and ma_q (0, weights)."""
    fields = FAMILIES[spec.family]
    return (spec.phi if "phi" in fields else 0.0,
            spec.weights if "weights" in fields else (1.0,))


def _block(spec: ProcessSpec, n: int, rows: int, rng: np.random.Generator, scratch) -> np.ndarray:
    """(rows, n) independent paths drawn from rng.  The draws and the
    moving sum go into arrays of the per-worker object scratch (see
    _scratch), so the paths may be a view of one of them.

    A linear filter draws (rows, burn + q + n) innovations, takes the
    moving sum unless its weights are (1,), and unless phi is 0 steps the
    recursion from the stationary mean through a burn-in of burn steps
    and keeps the last n, so every row is a function of its own
    innovations, and iid, ar1 with phi 0 and ma_q with weights (1,) draw
    the same paths.
    """
    if spec.family == "markov_function":
        return _markov_paths(spec, rng.random(out=_scratch(scratch, (rows, n))), scratch)
    phi, weights = _filter(spec)
    q = len(weights) - 1
    burn = int(np.ceil(np.log(_AR1_INIT_TOL) / np.log(abs(phi)))) if phi else 0
    x = spec.innovations.sample(rng, _scratch(scratch, (rows, burn + q + n)))
    if weights != (1.0,):
        # X_k = sum_i w_i eps_{k-i}, where eps_k is column k + q; the sum
        # starts from w_0 eps_k, written straight into it
        x, eps = _scratch(scratch, (rows, burn + n), "sum"), x
        term = _scratch(scratch, x.shape, "term")
        np.multiply(eps[:, q : q + burn + n], weights[0], out=x)
        for i, wi in enumerate(weights[1:], 1):
            np.multiply(eps[:, q - i : q - i + burn + n], wi, out=term)
            np.add(x, term, out=x)
    if phi:
        x = _ar1_paths(phi, np.full(rows, _moments(spec)[0]), x, scratch)[:, burn:]
    return x


def _time_major(x: np.ndarray, scratch, step) -> np.ndarray:
    """x, stepped in place: each chunk of _CHUNK_STEPS columns from t0 on
    is copied into the per-worker array "steps" of scratch as (steps, rows),
    so a step reads and writes a contiguous row; step(t0, xt) rewrites that
    copy xt, and it is copied back.  The copy in goes _COPY_ROWS rows at a
    time: rows whose length is a power of two alias in cache, and whole
    chunks of 512 such rows took three times as long to copy in."""
    rows, n = x.shape
    tiles = [slice(r0, r0 + _COPY_ROWS) for r0 in range(0, rows, _COPY_ROWS)]
    for t0 in range(0, n, _CHUNK_STEPS):
        cols = slice(t0, min(t0 + _CHUNK_STEPS, n))
        xt = _scratch(scratch, (cols.stop - t0, rows), "steps")
        for r in tiles:
            np.copyto(xt[:, r], x[r, cols].T)
        step(t0, xt)
        x[:, cols] = xt.T
    return x


def _ar1_paths(phi: float, x0: np.ndarray, eps: np.ndarray, scratch) -> np.ndarray:
    """X_k = phi X_{k-1} + eps[:, k] from X_{-1} = x0, over the columns of
    eps, stepped through _time_major; the paths overwrite eps, which is
    returned.  Each value is the same product and sum as in a column loop
    over the whole matrix, so paths are bit-identical to it."""
    tmp = np.empty(len(x0))

    def step(t0, xt):
        prev = x0
        for x in xt:
            np.multiply(prev, phi, out=tmp)
            np.add(x, tmp, out=x)
            prev = x
        # the next chunk is copied into xt, so its last row is kept in x0
        np.copyto(x0, prev)

    return _time_major(eps, scratch, step)


def _markov_paths(spec: ProcessSpec, u: np.ndarray, scratch) -> np.ndarray:
    """markov_function paths from the uniforms u, one row per replication;
    the paths overwrite u, which is returned.  The per-chunk arrays live in
    the per-worker object scratch (see _scratch).

    The uniform u[r, k] picks the state at time k: the initial state is
    #{j : cum_initial[j] <= u} and the successor of state s is
    #{j : u > cum[s, j]}, both capped at K - 1.  The steps go through
    _time_major.

    A chain with at most _MAX_STEP_EDGES distinct thresholds e_0 < ... <
    e_{nb-1} among cum[:, :K - 1] steps through a table.  Each block of
    uniforms is classified once into buckets b(u) = #{i : e_i < u}; if u is
    in bucket b, then e_{b-1} < u <= e_b, so for a threshold c, u > c holds
    if and only if c < e_b (with e_nb = inf).  The successor of s is then
    succ(s, b) = #{j : cum[s, j] < e_b}, the same count as the comparison
    with u, so the paths are bit-identical to it.  State s is carried as the
    code s (nb + 1), and a step is table[code + b(u)], with table[s (nb + 1)
    + b] = succ(s, b) (nb + 1).  Above the cap the table's K (nb + 1)
    entries could reach K^3, so each step gathers the current states'
    thresholds, compares and counts instead.
    """
    chain = spec.chain
    kmax = chain.n_states - 1
    # cum rows are nondecreasing, so capping the count of thresholds below u
    # at K - 1 is the same as not comparing with the last one
    cum = np.cumsum(chain.transition, axis=1)[:, :kmax]
    edges = np.unique(cum)
    prev = np.minimum(np.searchsorted(np.cumsum(chain.initial), u[:, 0], side="right"), kmax)
    if len(edges) <= _MAX_STEP_EDGES:
        prev *= len(edges) + 1
        fill, code_vals = _table_steps(cum, edges, spec.mapped_values(), len(u), scratch)
    else:
        fill, code_vals = _loop_steps(cum, len(u)), spec.mapped_values()

    def step(t0, ub):
        nonlocal prev
        codes = _scratch(scratch, ub.shape, "codes", np.intp)
        if t0 == 0:
            codes[0] = prev
        # prev may be the last row of the codes buffer that this chunk
        # reuses; it is read in full by the chunk's first step, before any
        # row is written
        fill(ub, codes, prev, 1 if t0 == 0 else 0)
        prev = codes[-1]
        # the chunk's uniforms are spent, so ub takes its values; codes lie
        # in [0, len(code_vals)), so clipping never moves an index
        np.take(code_vals, codes, out=ub, mode="clip")

    return _time_major(u, scratch, step)


def _table_steps(cum: np.ndarray, edges: np.ndarray, vals: np.ndarray, rows: int, scratch):
    """(fill, code_vals) for the table steps of _markov_paths: state s has
    the code s (nb + 1), code_vals maps codes to values, and fill(ub, codes,
    prev, start) writes the codes of steps start onwards of the chunk of
    uniforms ub, which it spends, from the codes prev before them."""
    nb = len(edges)
    succ = np.empty((len(cum), nb + 1), dtype=np.intp)
    for b, e in enumerate(edges):
        succ[:, b] = np.count_nonzero(cum < e, axis=1)
    succ[:, nb] = cum.shape[1]
    table = (succ * (nb + 1)).ravel()
    code_vals = np.zeros(len(table))
    code_vals[:: nb + 1] = vals
    take = table.take
    idx = np.empty(rows, dtype=np.intp)

    def fill(ub, codes, prev, start):
        # b(u) = #{i : e_i < u} is at most _MAX_STEP_EDGES, so it is counted
        # in int8 and widened once per chunk, so that a step adds intp to
        # intp; the chunk's uniforms are spent once counted, so the widened
        # buckets take their memory
        count = _scratch(scratch, ub.shape, "count", np.int8)
        above = _scratch(scratch, ub.shape, "above", np.bool_)
        count.fill(0)
        for e in edges:
            np.greater(ub, e, out=above)
            np.add(count, above.view(np.int8), out=count)
        bucket = ub.view(np.intp)
        np.copyto(bucket, count)
        for t in range(start, len(ub)):
            np.add(prev, bucket[t], out=idx)
            # a code plus a bucket in [0, nb] lies in [0, K (nb + 1)), so
            # clipping never moves an index
            take(idx, out=codes[t], mode="clip")
            prev = codes[t]

    return fill, code_vals


def _loop_steps(cum: np.ndarray, rows: int):
    """fill(ub, codes, prev, start) for the loop steps of _markov_paths:
    each step gathers the thresholds of the states prev, compares them with
    the step's uniforms and counts those below."""
    # row j of thresholds holds cum[:, j]
    thresholds = np.ascontiguousarray(cum.T)
    # a step costs a few microseconds of call overhead, so it gathers with
    # the bound method (no np.take wrapper) and intp states (no index cast)
    take = thresholds.take
    cut = np.empty((len(thresholds), rows))
    above = np.empty((len(thresholds), rows), dtype=bool)

    def fill(ub, codes, prev, start):
        for t in range(start, len(ub)):
            # prev holds counts in [0, K - 1], so clipping never moves an
            # index; it only spares numpy a buffered copy
            take(prev, axis=1, out=cut, mode="clip")
            np.greater(ub[t], cut, out=above)
            np.add.reduce(above, axis=0, out=codes[t])
            prev = codes[t]

    return fill


def window_sums(spec: ProcessSpec, n: int, reps: int, seed: int, label: str, windows) -> list:
    """[X_s + ... + X_{e-1} for (s, e) in the list windows, 0 <= s <= e <=
    n]: one array per window, whose entry r is bitwise that window's sum in
    row r of simulate_many(spec, n, reps, seed, label).  Each block of
    paths is reduced as it is drawn, so no (reps, n) matrix is held."""
    _check_sizes(n, reps)
    for s, e in windows:
        if not 0 <= s <= e <= n:
            raise ValueError(f"window ({s}, {e}) must satisfy 0 <= s <= e <= n = {n}")
    parts = _map_blocks(spec, n, reps, seed, label,
                        lambda r0, block: [block[:, s:e].sum(axis=1) for s, e in windows])
    return [np.concatenate(sums) for sums in zip(*parts)]


def normalized_sums(spec: ProcessSpec, n: int, reps: int, seed: int, label: str) -> np.ndarray:
    """a_n S_n + b_n of each of reps simulated paths of length n."""
    # a(n) divides by n, so it is evaluated once window_sums has checked n
    norming, _ = asymptotics(spec)
    (s_n,) = window_sums(spec, n, reps, seed, label, [(0, n)])
    (a_n,), (b_n,) = norming.values([n])
    return a_n * s_n + b_n


def _moments(spec: ProcessSpec) -> tuple:
    """(mean, v_inf): the stationary mean and lim Var(S_n)/n, in closed form.
    A linear filter with weight sum s has mean s E eps / (1 - phi) and
    v_inf = s^2 Var eps / (1 - phi)^2."""
    if spec.family != "markov_function":
        law, (phi, weights) = spec.innovations, _filter(spec)
        s = float(np.sum(weights))
        return s * law.mean / (1.0 - phi), s * s * law.variance / (1.0 - phi) ** 2
    # markov_function: v_inf = 2 <f_bar, h>_pi - <f_bar, f_bar>_pi with
    # h solving the Poisson equation (I - P + 1 pi) h = f_bar
    chain = spec.chain
    ev = np.sort(np.abs(np.linalg.eigvals(chain.transition)))
    if len(ev) > 1 and ev[-2] >= 1.0 - 1e-9:
        raise ValueError("markov_function norming requires an ergodic chain")
    pi = chain.stationary()
    f = spec.mapped_values()
    mean = pi @ f
    fbar = f - mean
    k = chain.n_states
    h = np.linalg.solve(np.eye(k) - chain.transition + np.outer(np.ones(k), pi), fbar)
    return float(mean), float(pi @ (2.0 * fbar * h - fbar ** 2))


def asymptotics(spec: ProcessSpec) -> tuple:
    """(norming, limit): a(n) = 1/sqrt(n v_inf), b(n) = -a(n) n mean, and the
    limit law of a(n) S_n + b(n), the standard normal.

    Rejects specs whose long-run variance is not positive and finite: a
    vanishing one has a degenerate limit, and one that overflows to inf
    (or to NaN, an overflowing weight sum times a zero variance) gives
    a(n) = 0.  No non-degenerate norming exists for either.
    """
    mean, v = _moments(spec)
    if not 0.0 < v < np.inf:
        raise ValueError(
            f"degenerate spec: long-run variance {v!r} is not positive and finite, "
            "no non-degenerate norming exists"
        )
    a = lambda n: 1.0 / np.sqrt(np.asarray(n, dtype=float) * v)
    b = lambda n: -np.asarray(n, dtype=float) * mean / np.sqrt(np.asarray(n, dtype=float) * v)
    prov = (
        f"a(n) = (n * v_inf)^(-1/2), b(n) = -a(n) n mean "
        f"with v_inf = {v!r}, mean = {mean!r} [{spec.family}]"
    )
    return NormingSequences(a=a, b=b, provenance=prov), STANDARD_NORMAL


def marginal_abs_tail(spec: ProcessSpec):
    """t -> an upper envelope of max_k P(|X_k| >= t), for use as the
    infinitesimality tail of the triangular array.

    For the stationary families the marginal is time-invariant, so the
    max over k collapses.  Gaussian innovations give the exact normal
    tail; bounded innovations (uniform, rademacher) give a step envelope
    at the support bound; markov_function is exact over its finite
    support.  Any upper envelope is admissible: the level search only
    ever selects a larger (still valid) delta.
    """
    if spec.family == "markov_function":
        # per-state mass envelope m(s) = sup_k P(Y_k = s); the induced tail
        # dominates max_k P(|X_k| >= t), which is what the delta search needs
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
        # {s : vals[s] >= t} only changes at the distinct values, so the
        # masses are summed once per level and t looks its level up
        levels = np.unique(vals)
        mass = np.array([envelope[vals >= v].sum() for v in levels] + [0.0])

        def tail(t):
            t = np.asarray(t, dtype=float)
            sup_mass = mass[np.searchsorted(levels, t, side="left")]
            return sup_mass if t.shape else float(sup_mass)

        return tail
    # X_k is a linear filter of the innovations: its sd and support bound
    # are the innovations' times the filter's l2 and l1 norms
    law, (phi, weights) = spec.innovations, _filter(spec)
    w = np.asarray(weights)
    sd = law.std * np.sqrt(np.sum(w ** 2)) / np.sqrt(1.0 - phi ** 2)
    bound = abs(law.mean) + law.std * (np.sqrt(3.0) if law.name == "uniform" else 1.0)
    bound = bound * float(np.sum(np.abs(w))) / (1.0 - abs(phi))
    if law.name != "normal":
        return _step_tail(bound)
    m = _moments(spec)[0]
    if sd == 0.0:
        return _step_tail(abs(m))

    def tail(t):
        t = np.asarray(t, dtype=float)
        return normal_cdf(-((t - m) / sd)) + normal_cdf((-t - m) / sd)

    return tail


def _step_tail(bound: float):
    """t -> 1 where t <= bound, else 0: the tail of a variable with |X| <= bound."""
    return lambda t: np.where(np.asarray(t, dtype=float) <= bound, 1.0, 0.0)


def analytic_alpha_profile(spec: ProcessSpec, n_list) -> AlphaProfile:
    """Known mixing-rate metadata, as an upper envelope at each lag n >= 1.

    A linear filter with phi = 0 is q-dependent (iid is q = 0), so the
    coefficient vanishes beyond lag q.  One with phi != 0 is an AR(1) (no
    family sets both phi and q): with Gaussian innovations its maximal
    correlation between past and future is |phi|^n, hence alpha(n) <=
    |phi|^n / 4, and with others no decay is claimed.  markov_function
    inherits the Doeblin envelope of its chain.
    """
    n_list = [int(n) for n in n_list]
    if spec.family == "markov_function":
        return alpha_bound_geometric(spec.chain, n_list)
    phi, weights = _filter(spec)
    if phi == 0.0:
        q = len(weights) - 1
        vals = tuple((n, 0.0 if n > q else 0.25) for n in n_list)
        meta = f"{q}-dependent"
    elif spec.innovations.name == "normal":
        vals = tuple((n, min(0.25, 0.25 * abs(phi) ** n)) for n in n_list)
        meta = "gaussian ar1: maximal correlation phi^n, alpha(n) <= phi^n/4"
    else:
        vals = tuple((n, 0.25) for n in n_list)
        meta = "ar1 non-gaussian: trivial 1/4"
    return AlphaProfile(vals, kind="analytic-bound", meta=meta)
