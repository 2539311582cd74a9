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
AR1_BURN_LIMIT = 1 << 16       # burn-in rows of a non-Gaussian ar1: |phi| <= 0.999438
# window_sums draws blocks of _CHUNK_ROWS replications in chunks of
# _CHUNK_STEPS steps, up to _GROUP_BLOCKS blocks a task on _WORKERS
# threads (the samples of sample_random_integral are drawn one block a task)
_CHUNK_ROWS = rngstreams.BLOCK_ROWS
_CHUNK_STEPS = 64
_GROUP_BLOCKS = 16
_WORKERS = 2
# a markov_function chain with at most this many distinct step thresholds
# steps through a table of K (_MAX_STEP_EDGES + 1) or fewer entries, and its
# buckets fit in int8 (see _markov_steps)
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
        if self.family == "ar1" and (burn := _ar1_burn(self.phi, self.innovations)) > AR1_BURN_LIMIT:
            raise ValueError(f"ar1 with {self.innovations.name} innovations and phi = {self.phi} "
                             f"needs {burn} burn-in rows, above the limit {AR1_BURN_LIMIT}")
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
    """Scaling a(n) > 0 and centering b(n) with a closed-form provenance.
    blocking.make_plan assumes a nonincreasing, as every shipped a is."""

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


def _run_blocks(task, total: int, group: int = 1) -> list:
    """[task(b, r0, rows)] over the groups of `group` consecutive blocks of
    _CHUNK_ROWS of total items, in order: a group starts at block b, holds
    the rows items from r0 = b _CHUNK_ROWS on (the last may hold fewer).

    The tasks run on _WORKERS threads.  numpy's generators and ufuncs
    release the GIL, so blocks drawn from separate streams overlap.  A
    task's exception, or an interrupt, is raised here once the running
    tasks end: Executor.map cancels the tasks not yet started.
    """
    from concurrent.futures import ThreadPoolExecutor

    starts = range(0, total, group * _CHUNK_ROWS)
    rows = [min(group * _CHUNK_ROWS, total - r0) for r0 in starts]
    with ThreadPoolExecutor(max_workers=min(_WORKERS, len(starts))) as pool:
        return list(pool.map(task, [r0 // _CHUNK_ROWS for r0 in starts], starts, rows))


def _filter(spec: ProcessSpec) -> tuple:
    """(phi, weights) of the linear filter X_k = phi X_{k-1} + sum_i w_i
    eps_{k-i} that spec is, from the fields its family reads: iid is
    (0, (1,)), ar1 (phi, (1,)) and ma_q (0, weights)."""
    fields = FAMILIES[spec.family]
    return (spec.phi if "phi" in fields else 0.0,
            spec.weights if "weights" in fields else (1.0,))


def _chunks(spec: ProcessSpec, n: int, rngs: list):
    """(t0, c, x) over the chunks of the paths drawn from the block streams
    rngs, laid out as window_sums describes: x, reused for the next chunk,
    is the (steps, width) values at times t0 .. t0 + steps - 1 of columns
    c .. c + width - 1, each column's chunks in time order.  A moving sum
    is taken block by block, on the chunks as drawn; ar1 and
    markov_function step all the blocks' replications at once, in one ufunc
    call per time step."""
    if spec.family == "markov_function":
        step = _markov_steps(spec, len(rngs) * _CHUNK_ROWS)
        uniforms = _drawn_chunks(lambda rng, out: rng.random(out=out), rngs, 0, n)
        return ((t0, 0, step(t0, u)) for t0, u in uniforms)
    phi, weights = _filter(spec)
    if phi:
        return _ar1_chunks(spec, phi, n, rngs)
    return ((t0, j * _CHUNK_ROWS, x) for j, rng in enumerate(rngs)
            for t0, x in _moving_sums(spec.innovations, weights, n, rng))


def _drawn_chunks(draw, rngs: list, lead: int, n: int):
    """(t0, u) over the draws of times -lead .. n - 1 of the streams rngs,
    cut at -lead and at the multiples of _CHUNK_STEPS: u[k, j _CHUNK_ROWS +
    r] is column r of row lead + t0 + k of stream j's time-major draw, made
    by draw(rng, out) in row-major order into a (steps, _CHUNK_ROWS) array
    and copied into its columns.  u is one array reused from chunk to
    chunk."""
    u_all = np.empty((_CHUNK_STEPS, len(rngs) * _CHUNK_ROWS))
    buf = np.empty((_CHUNK_STEPS, _CHUNK_ROWS))
    t0 = -lead
    while t0 < n:
        t1 = min(n, (t0 // _CHUNK_STEPS + 1) * _CHUNK_STEPS)
        u = u_all[: t1 - t0]
        for j, rng in enumerate(rngs):
            u[:, j * _CHUNK_ROWS : (j + 1) * _CHUNK_ROWS] = draw(rng, buf[: t1 - t0])
        yield t0, u
        t0 = t1


def _moving_sums(law: InnovationLaw, weights: tuple, n: int, rng: np.random.Generator):
    """(t0, x) over the chunks of one block's paths X_k = sum_i w_i eps_{k-i},
    k < n, from its innovations eps_{-q}, eps_{1-q}, ... drawn from rng.
    Each chunk is drawn under the q innovations before it, so with the
    weights (1,) x is the drawn chunk itself; the sum starts from w_0 eps_k,
    written straight into x."""
    q = len(weights) - 1
    eps = np.empty((q + _CHUNK_STEPS, _CHUNK_ROWS))
    x, term = (eps[q:], None) if weights == (1.0,) else np.empty((2, _CHUNK_STEPS, _CHUNK_ROWS))
    law.sample(rng, eps[:q])
    for t0 in range(0, n, _CHUNK_STEPS):
        steps = min(_CHUNK_STEPS, n - t0)
        if t0:
            # the chunk before was full, so its last q innovations are rows
            # _CHUNK_STEPS onwards
            eps[:q] = eps[_CHUNK_STEPS:]
        law.sample(rng, eps[q : q + steps])
        if term is not None:
            np.multiply(eps[q : q + steps], weights[0], out=x[:steps])
            for i, wi in enumerate(weights[1:], 1):
                np.multiply(eps[q - i : q - i + steps], wi, out=term[:steps])
                np.add(x[:steps], term[:steps], out=x[:steps])
        yield t0, x[:steps]


def _ar1_chunks(spec: ProcessSpec, phi: float, n: int, rngs: list):
    """(t0, 0, x) over the chunks of the ar1 paths X_k = phi X_{k-1} + eps_k
    of the streams rngs, side by side as _drawn_chunks lays them out; the
    paths overwrite the innovations.

    A Gaussian ar1 starts in its stationary law, X_0 = m + (eps_0 - mu) /
    sqrt(1 - phi^2) for the stationary mean m and the innovation mean mu,
    so it draws exactly n rows.  Any other innovation law has no closed-form
    stationary law, so its paths start at m at time -burn - 1, burn =
    ceil(log _AR1_INIT_TOL / log |phi|) <= AR1_BURN_LIMIT, and the burn-in
    rows are stepped and dropped: the start's weight in X_0 is |phi|^(burn + 1).
    """
    law, m = spec.innovations, _moments(spec)[0]
    exact, burn = law.name == "normal", _ar1_burn(phi, law)
    last = np.full(len(rngs) * _CHUNK_ROWS, m)
    tmp = np.empty_like(last)
    for t0, x in _drawn_chunks(law.sample, rngs, burn, n):
        rows, prev = iter(x), last
        if exact and t0 == 0:
            prev = next(rows)
            np.copyto(prev, m + (prev - law.mean) / np.sqrt(1.0 - phi * phi))
        for xt in rows:
            np.multiply(prev, phi, out=tmp)
            np.add(xt, tmp, out=xt)
            prev = xt
        # the next chunk is drawn into x, so its last row is kept in last
        np.copyto(last, prev)
        if t0 >= 0:
            yield t0, 0, x


def _ar1_burn(phi: float, law: InnovationLaw) -> int:
    """The burn-in rows of an ar1 path, 0 if it starts exactly or phi = 0."""
    exact = law.name == "normal" or phi == 0.0
    return 0 if exact else int(np.ceil(np.log(_AR1_INIT_TOL) / np.log(abs(phi))))


def _markov_steps(spec: ProcessSpec, width: int):
    """step(t0, u): the markov_function values at times t0 .. t0 + steps - 1
    of width replications from the (steps, width) uniforms u, one column
    per replication, given the chunks in time order from t0 = 0; the values
    overwrite u, which is returned.

    The uniform u[k, r] picks the state at time t0 + k: the initial state
    is #{j : cum_initial[j] <= u} and the successor of state s is
    #{j : u > cum[s, j]}, both capped at K - 1.

    A chain with at most _MAX_STEP_EDGES distinct thresholds e_0 < ... <
    e_{nb-1} among cum[:, :K - 1] steps through a table.  Each chunk of
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
    if len(edges) <= _MAX_STEP_EDGES:
        scale = len(edges) + 1
        fill, code_vals = _table_steps(cum, edges, spec.mapped_values(), width)
    else:
        scale, fill, code_vals = 1, _loop_steps(cum, width), spec.mapped_values()
    last = np.empty(width, dtype=np.intp)

    def step(t0, u):
        if t0 == 0:
            np.multiply(np.minimum(np.searchsorted(np.cumsum(chain.initial), u[0], side="right"),
                                   kmax), scale, out=last)
        # a step spends its row of uniforms before it writes the row's codes
        # there, so the codes take the uniforms' memory
        codes = u.view(np.intp)
        fill(u, codes, last, 1 if t0 == 0 else 0)
        np.copyto(last, codes[-1])
        # and so do the values: take reads each index before it writes the
        # value at the same place, and codes lie in [0, len(code_vals)), so
        # clipping never moves an index
        return np.take(code_vals, codes, out=u, mode="clip")

    return step


def _table_steps(cum: np.ndarray, edges: np.ndarray, vals: np.ndarray, width: int):
    """(fill, code_vals) for the table steps of _markov_steps: state s has
    the code s (nb + 1), code_vals maps codes to values, and fill(ub, codes,
    prev, start) spends the chunk of uniforms ub and writes into codes the
    codes prev at step 0 if start is 1, and those of the steps from start
    on, from the codes prev before them."""
    nb = len(edges)
    succ = np.empty((len(cum), nb + 1), dtype=np.intp)
    for b, e in enumerate(edges):
        succ[:, b] = np.count_nonzero(cum < e, axis=1)
    succ[:, nb] = cum.shape[1]
    table = (succ * (nb + 1)).ravel()
    code_vals = np.zeros(len(table))
    code_vals[:: nb + 1] = vals
    take = table.take
    idx = np.empty(width, dtype=np.intp)
    count_all = np.empty((_CHUNK_STEPS, width), dtype=np.int8)
    above_all = np.empty((_CHUNK_STEPS, width), dtype=np.bool_)

    def fill(ub, codes, prev, start):
        # b(u) = #{i : e_i < u} is at most _MAX_STEP_EDGES, so it is counted
        # in int8 and widened once per chunk into codes, so that a step adds
        # intp to intp and writes its codes over its buckets
        count, above = count_all[: len(ub)], above_all[: len(ub)]
        count.fill(0)
        for e in edges:
            np.greater(ub, e, out=above)
            np.add(count, above.view(np.int8), out=count)
        np.copyto(codes, count)
        codes[:start] = prev
        for t in range(start, len(ub)):
            np.add(prev, codes[t], out=idx)
            # a code plus a bucket in [0, nb] lies in [0, K (nb + 1)), so
            # clipping never moves an index
            take(idx, out=codes[t], mode="clip")
            prev = codes[t]

    return fill, code_vals


def _loop_steps(cum: np.ndarray, width: int):
    """fill(ub, codes, prev, start) for the loop steps of _markov_steps, as
    _table_steps fills: each step gathers the thresholds of the states prev,
    compares them with the step's uniforms and counts those below."""
    # row j of thresholds holds cum[:, j]
    thresholds = np.ascontiguousarray(cum.T)
    # a step costs a few microseconds of call overhead, so it gathers with
    # the bound method (no np.take wrapper) and intp states (no index cast)
    take = thresholds.take
    cut = np.empty((len(thresholds), width))
    above = np.empty((len(thresholds), width), dtype=bool)

    def fill(ub, codes, prev, start):
        codes[:start] = prev
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
    n]: one array per window, whose entry r is that window's sum over the
    path of replication r.  The arguments are checked at the call, before
    any block is drawn.

    Replication r is column r mod _CHUNK_ROWS of block r // _CHUNK_ROWS,
    and block b draws from the stream keyed by (seed, label, spec hash, b),
    time-major, as one (lead + n, _CHUNK_ROWS) array would be: row lead + k
    holds time k (lead is an ma_q's q innovations before time 0, or a
    non-Gaussian ar1's burn-in).  Every block is drawn the full _CHUNK_ROWS
    wide and row by row, and every value is computed column by column, so a
    path depends neither on reps nor, in its first k values, on n, and the
    sums are the same on every number of workers and every grouping.  A
    worker task takes a group of ceil(blocks / tasks) consecutive blocks,
    where tasks = _WORKERS ceil(blocks / (_WORKERS _GROUP_BLOCKS)) is a
    multiple of _WORKERS, so that no thread idles while another runs a
    last task; columns from reps on pad the last block.  A task holds a
    few (_CHUNK_STEPS, group width) arrays whatever n, the burn-in or reps.

    A sum is rounded in time order, one chunk at a time: 0.0, plus the
    window's part of each chunk of _CHUNK_STEPS steps [t0, t0 +
    _CHUNK_STEPS) it meets, in time order, each part summed in time order,
    once for all windows that span the same steps of it.  Each chunk is
    reduced as it is stepped, while it is in cache, so no (reps, n) matrix
    is held."""
    if n < 1 or reps < 1:
        raise ValueError("n and reps must be positive")
    for s, e in windows:
        if not 0 <= s <= e <= n:
            raise ValueError(f"window ({s}, {e}) must satisfy 0 <= s <= e <= n = {n}")
    key = spec.spec_hash()

    def task(b0, r0, rows):
        rngs = [rngstreams.stream(seed, label, key, b)
                for b in range(b0, b0 - (-rows // _CHUNK_ROWS))]
        acc = np.zeros((len(windows), len(rngs) * _CHUNK_ROWS))
        for t0, c, x in _chunks(spec, n, rngs):
            parts = {}
            for a, (s, e) in zip(acc, windows):
                lo, hi = max(s, t0) - t0, min(e, t0 + len(x)) - t0
                if lo < hi:
                    # rows of a chunk >= _CHUNK_ROWS wide add row by row, in time order
                    if (lo, hi) not in parts:
                        parts[lo, hi] = x[lo:hi].sum(axis=0)
                    a[c : c + x.shape[1]] += parts[lo, hi]
        return acc[:, :rows]

    blocks = -(-reps // _CHUNK_ROWS)
    tasks = _WORKERS * -(-blocks // (_WORKERS * _GROUP_BLOCKS))
    return list(np.concatenate(_run_blocks(task, reps, -(-blocks // tasks)), axis=1))


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
    at the support bound; markov_function sums a per-state mass envelope.
    Any upper envelope is admissible: the level search only ever selects
    a larger (still valid) delta.
    """
    if spec.family == "markov_function":
        # mass envelope m(s) >= sup_k P(Y_k = s): max_k mu_k(s) up to the first
        # K with TV(mu_K, pi) < 1e-13 (or K = 10^4), and pi(s) + TV(mu_K, pi)
        # beyond K, as TV(mu_k, pi) does not increase in k
        chain = spec.chain
        vals = np.abs(spec.mapped_values())
        pi = chain.stationary()
        dist = envelope = chain.initial
        for _ in range(10_000):
            if 0.5 * np.abs(dist - pi).sum() < 1e-13:
                break
            dist = dist @ chain.transition
            envelope = np.maximum(envelope, dist)
        envelope = np.maximum(envelope, np.minimum(1.0, pi + 0.5 * np.abs(dist - pi).sum()))
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
    takes its chain's Dobrushin envelope delta(P^n)/4, from any initial law.
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
