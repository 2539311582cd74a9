"""Generators of strongly mixing sequences.

Each family has a known long-run variance, so the norming sequences
a_n = 1/sqrt(n v_inf), b_n = -a_n n mean make the normalized partial
sums a_n S_n + b_n converge to a standard normal.  That ground truth is
what the blocking diagnostics are checked against.

Families:
  iid              independent draws from the innovation law
  ar1              X_k = phi X_{k-1} + eps_k, started at stationarity
  ma_q             X_k = sum_i w_i eps_{k-i}, pre-sampled so the path is
                   stationary from index 1
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
from .probcore import normal_cdf

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
# ar1 and markov_function blocks are stepped in time-major blocks of
# _CHUNK_STEPS steps
_CHUNK_ROWS = 512
_IN_FLIGHT_ROWS = 1024
_WORKERS = _IN_FLIGHT_ROWS // _CHUNK_ROWS
_CHUNK_STEPS = 256


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
        # in place, so no temporary of the draw's size; bitwise equal to
        # mean + std * z
        out *= self.std
        out += self.mean
        return out

    @property
    def variance(self) -> float:
        return self.std ** 2


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
        if self.family == "markov_function":
            if self.chain is None:
                raise ValueError("markov_function requires a chain spec")
            if self.state_values is not None and len(self.state_values) != self.chain.n_states:
                raise ValueError(
                    f"state_values has {len(self.state_values)} entries, "
                    f"the chain has {self.chain.n_states} states"
                )

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


def _vectorized(fn, ns) -> np.ndarray:
    """fn evaluated elementwise on the integer array ns, as floats.

    fn must be vectorized: it maps an array to an array of the same shape.
    """
    ns = np.asarray(ns)
    try:
        out = np.asarray(fn(ns), dtype=float)
    except TypeError as e:
        raise ValueError(f"sequence {fn!r} must be vectorized over an array of n: {e}") from e
    if out.shape != ns.shape:
        raise ValueError(
            f"sequence {fn!r} must be vectorized: it maps n of shape {ns.shape} "
            f"to shape {out.shape}"
        )
    return out


@dataclass(frozen=True)
class NormingSequences:
    """Scaling a(n) > 0 and centering b(n) with a closed-form provenance."""

    a: object                   # vectorized callable n -> positive float
    b: object                   # vectorized callable n -> float
    provenance: str

    def a_values(self, ns) -> np.ndarray:
        return _vectorized(self.a, ns)

    def b_values(self, ns) -> np.ndarray:
        return _vectorized(self.b, ns)

    def at(self, n: int) -> tuple:
        """(a(n), b(n)) as floats."""
        ns = np.array([n])
        return float(self.a_values(ns)[0]), float(self.b_values(ns)[0])

    def normalized_sum(self, block, axis: int = -1) -> np.ndarray:
        """a(n) S + b(n), where S sums the n values of block along axis."""
        a_n, b_n = self.at(np.shape(block)[axis])
        return a_n * np.sum(block, axis=axis) + b_n


def simulate_many(spec: ProcessSpec, n: int, reps: int, seed: int, label: str = "path") -> np.ndarray:
    """(reps, n) matrix of independent paths; deterministic in (spec, n, reps, seed).

    Replication r is row r mod _CHUNK_ROWS of block r // _CHUNK_ROWS,
    whose stream is keyed by (seed, label, spec hash, block index); column
    k within a row is time index k.  So a row does not depend on reps:
    simulate_many(spec, n, 1, seed)[0] is row 0 of every larger draw.
    Each block is written into the matrix as it is drawn, so the matrix is
    the one array of its size a call holds; consumers that only need
    per-row reductions pass them to _map_blocks instead.
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


def _scratch(scratch, shape) -> np.ndarray:
    """A float array of the given 2-D shape backed by scratch.buf, which is
    allocated on first use and grown when too small.

    Reusing one array per worker keeps the allocator from handing out and
    taking back a block-sized array per block; glibc keeps such memory in
    each thread's arena, which raised the peak RSS of a two-worker
    markov_function blocking-verify run (10^4 replications, n up to
    4096) from 77 to 110 MB.
    """
    size = shape[0] * shape[1]
    buf = getattr(scratch, "buf", None)
    if buf is None or buf.size < size:
        buf = scratch.buf = np.empty(size)
    return buf[:size].reshape(shape)


def _block(spec: ProcessSpec, n: int, rows: int, rng: np.random.Generator, scratch) -> np.ndarray:
    """(rows, n) independent paths drawn from rng.  The draws go into the
    array of the per-worker object scratch (see _scratch), so the paths
    may be a view of it.

    ar1 draws (rows, burn + n) innovations, steps the recursion from the
    stationary mean through the burn-in, and keeps the last n steps, so
    every row is a function of its own innovations.
    """
    fam, law = spec.family, spec.innovations
    if fam == "iid" or (fam == "ar1" and spec.phi == 0.0):      # an ar1 with phi 0 is iid
        return law.sample(rng, _scratch(scratch, (rows, n)))
    if fam == "ar1":
        phi = spec.phi
        burn = int(np.ceil(np.log(_AR1_INIT_TOL) / np.log(abs(phi))))
        eps = law.sample(rng, _scratch(scratch, (rows, burn + n)))
        return _ar1_paths(phi, np.full(rows, _moments(spec)[0]), eps)[:, burn:]
    if fam == "ma_q":
        q = len(spec.weights) - 1
        return _ma_paths(spec.weights, law.sample(rng, _scratch(scratch, (rows, n + q))))
    return _markov_paths(spec, rng.random(out=_scratch(scratch, (rows, n))))


def _ma_paths(weights, eps: np.ndarray) -> np.ndarray:
    """X_k = sum_i w_i eps[:, k + q - i] over the last n = cols - q columns of eps."""
    q = len(weights) - 1
    n = eps.shape[1] - q
    out = np.zeros((len(eps), n))
    for i, wi in enumerate(weights):
        out += wi * eps[:, q - i : q - i + n]
    return out


def _ar1_paths(phi: float, x0: np.ndarray, eps: np.ndarray) -> np.ndarray:
    """X_k = phi X_{k-1} + eps[:, k] from X_{-1} = x0, over the columns of
    eps; the paths overwrite eps, which is returned.

    The rows are stepped through time-major blocks of _CHUNK_STEPS steps,
    so every step reads and writes contiguous rows.  Each value is the same
    product and sum as in a column-by-column loop over the whole matrix, so
    paths are bit-identical to it.
    """
    prev = x0
    step = np.empty(len(prev))
    for t0 in range(0, eps.shape[1], _CHUNK_STEPS):
        block = np.ascontiguousarray(eps[:, t0 : t0 + _CHUNK_STEPS].T)
        for x in block:
            np.multiply(prev, phi, out=step)
            np.add(x, step, out=x)
            prev = x
        eps[:, t0 : t0 + _CHUNK_STEPS] = block.T
    return eps


def _markov_paths(spec: ProcessSpec, u: np.ndarray) -> np.ndarray:
    """markov_function paths from the uniforms u, one row per replication;
    the paths overwrite u, which is returned.

    The uniform u[r, k] picks the state at time k: the initial state is
    #{j : cum_initial[j] <= u} and the successor of state s is
    #{j : u > cum[s, j]}, both capped at K - 1.  The rows are stepped
    through time-major blocks of _CHUNK_STEPS steps, so every step reads
    and writes contiguous rows.
    """
    chain = spec.chain
    vals = spec.mapped_values()
    kmax = chain.n_states - 1
    # cum rows are nondecreasing, so capping the count of thresholds below u
    # at K - 1 is the same as not comparing with the last one; row j of
    # thresholds holds cum[:, j]
    thresholds = np.ascontiguousarray(np.cumsum(chain.transition, axis=1)[:, :kmax].T)
    cum_initial = np.cumsum(chain.initial)
    # a step costs a few microseconds of call overhead, so it gathers with
    # the bound method (no np.take wrapper) and intp states (no index cast)
    take = thresholds.take
    rows, n = u.shape
    cut = np.empty((kmax, rows))
    above = np.empty((kmax, rows), dtype=bool)
    prev = np.minimum(np.searchsorted(cum_initial, u[:, 0], side="right"), kmax)
    for t0 in range(0, n, _CHUNK_STEPS):
        ub = np.ascontiguousarray(u[:, t0 : t0 + _CHUNK_STEPS].T)
        states = np.empty(ub.shape, dtype=np.intp)
        for t, ut in enumerate(ub):
            if t0 + t == 0:
                states[0] = prev
            else:
                # prev holds counts in [0, K - 1], so clipping never
                # moves an index; it only spares numpy a buffered copy
                take(prev, axis=1, out=cut, mode="clip")
                np.greater(ut, cut, out=above)
                np.add.reduce(above, axis=0, out=states[t])
            prev = states[t]
        # the block's uniforms are spent, so ub takes its values; states lie
        # in [0, K - 1], so clipping never moves an index
        np.take(vals, states, out=ub, mode="clip")
        u[:, t0 : t0 + _CHUNK_STEPS] = ub.T
    return u


def normalized_sums(spec: ProcessSpec, n: int, reps: int, seed: int, label: str) -> np.ndarray:
    """a_n S_n + b_n of each of reps simulated paths of length n, reduced
    one block at a time."""
    norming = norming_for(spec)
    return np.concatenate(_map_blocks(spec, n, reps, seed, label,
                                      lambda r0, block: norming.normalized_sum(block)))


def long_run_variance(spec: ProcessSpec) -> float:
    """v_inf = lim Var(S_n)/n, in closed form per family."""
    return _moments(spec)[1]


def _moments(spec: ProcessSpec) -> tuple:
    """(mean, v_inf): the stationary mean and lim Var(S_n)/n, in closed form per family."""
    law = spec.innovations
    if spec.family == "iid":
        return law.mean, law.variance
    if spec.family == "ar1":
        return law.mean / (1.0 - spec.phi), law.variance / (1.0 - spec.phi) ** 2
    if spec.family == "ma_q":
        w = float(np.sum(spec.weights))
        return w * law.mean, w ** 2 * law.variance
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


def norming_for(spec: ProcessSpec) -> NormingSequences:
    """a(n) = 1/sqrt(n v_inf), b(n) = -a(n) n mean.

    Rejects specs with vanishing long-run variance: those have a
    degenerate limit and no non-degenerate norming exists.
    """
    mean, v = _moments(spec)
    if v <= 0.0:
        raise ValueError(
            f"degenerate spec: long-run variance {v!r} is not positive, "
            "no non-degenerate norming exists"
        )
    a = lambda n: 1.0 / np.sqrt(np.asarray(n, dtype=float) * v)
    b = lambda n: -np.asarray(n, dtype=float) * mean / np.sqrt(np.asarray(n, dtype=float) * v)
    prov = (
        f"a(n) = (n * v_inf)^(-1/2), b(n) = -a(n) n mean "
        f"with v_inf = {v!r}, mean = {mean!r} [{spec.family}]"
    )
    return NormingSequences(a=a, b=b, provenance=prov)


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
    fam = spec.family
    if fam == "markov_function":
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
    law = spec.innovations
    sd = law.std
    bound = abs(law.mean) + law.std * (np.sqrt(3.0) if law.name == "uniform" else 1.0)
    if fam == "ar1":
        sd, bound = sd / np.sqrt(1.0 - spec.phi ** 2), bound / (1.0 - abs(spec.phi))
    elif fam == "ma_q":
        w = np.asarray(spec.weights)
        sd, bound = sd * np.sqrt(np.sum(w ** 2)), bound * float(np.sum(np.abs(w)))
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
    """Known mixing-rate metadata per family, as an upper envelope.

    iid sequences have coefficient 0; an MA(q) is q-dependent so the
    coefficient vanishes beyond lag q; a stationary Gaussian AR(1) has
    maximal correlation phi^n between past and future, hence
    alpha(n) <= phi^n / 4; markov_function inherits the Doeblin envelope
    of its chain.
    """
    n_list = [int(n) for n in n_list]
    fam = spec.family
    if fam == "iid":
        vals = tuple((n, 0.0) for n in n_list)
        return AlphaProfile(vals, kind="analytic-bound", meta="iid: independent")
    if fam == "ma_q":
        q = len(spec.weights) - 1
        vals = tuple((n, 0.0 if n > q else 0.25) for n in n_list)
        return AlphaProfile(vals, kind="analytic-bound", meta=f"ma_q: {q}-dependent")
    if fam == "ar1":
        if spec.innovations.name != "normal":
            # no decay certificate is claimed for non-gaussian AR(1)
            vals = tuple((n, 0.25) for n in n_list)
            return AlphaProfile(vals, kind="analytic-bound", meta="ar1 non-gaussian: trivial 1/4")
        vals = tuple((n, min(0.25, 0.25 * abs(spec.phi) ** n)) for n in n_list)
        meta = "gaussian ar1: maximal correlation phi^n, alpha(n) <= phi^n/4"
        return AlphaProfile(vals, kind="analytic-bound", meta=meta)
    return alpha_bound_geometric(spec.chain, n_list)


def limit_cdf(spec: ProcessSpec):
    """cdf of the weak limit of a_n S_n + b_n under norming_for: N(0, 1)."""
    if long_run_variance(spec) <= 0.0:
        raise ValueError("degenerate spec has no non-degenerate limit")
    return normal_cdf
