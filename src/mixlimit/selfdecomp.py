"""Class-L machinery: the CF-ratio test and random integrals.

A law mu is selfdecomposable when for every 0 < c < 1 the ratio of
characteristic functions psi_c(t) = phi(t) / phi(ct) is again a
characteristic function.  The finitely checkable surrogate used here is
positive semidefiniteness of the matrix psi_c(t_j - t_k) on a uniform
frequency grid.  The companion representation samples
integral_0^inf e^{-t} dY(t) for a Levy process Y with drift, Gaussian
part and compound-Poisson jumps, truncated at T_max with an exact
e^{-T_max} tail disclosure.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import rngstreams
from .probcore import _cf_values, as_sample, psd_check
from .processes import _run_blocks

DEFAULT_C_VALUES = (0.3, 0.5, 0.8)
DEFAULT_GRID_RADIUS = 8.0
DEFAULT_GRID_POINTS = 41
DEFAULT_EMPIRICAL_RADIUS = 0.5
CLOSED_FORM_TOL = 1e-9
EMPIRICAL_TOL = 1e-3
CLOSED_FORM_FLOOR = 1e-100
EMPIRICAL_FLOOR_BASE = 1e-6
EMPIRICAL_FLOOR_SCALE = 8.0    # times 1/sqrt(sample_size)
LOG_MOMENT_GROWTH = 1.5        # log_moment_check: full-sample / tenth-sample estimate ceiling


# --------------------------------------------------------------------------
# CF-ratio positive-definiteness test

def uniform_grid(radius: float, points: int) -> np.ndarray:
    if points < 3 or points % 2 == 0:
        raise ValueError("grid needs an odd number of points >= 3 to contain 0")
    if radius <= 0:
        raise ValueError("grid radius must be positive")
    return np.linspace(-radius, radius, points)


def _c_tuple(c_values) -> tuple:
    """The c-values as floats: at least one, each strictly inside (0, 1)."""
    cs = tuple(float(c) for c in c_values)
    if not cs:
        raise ValueError("c_values must hold at least one c")
    if any(not (0.0 < c < 1.0) for c in cs):
        raise ValueError("every c must lie strictly between 0 and 1")
    return cs


def _ratio_test(evaluate, c_values, grid_radius, grid_points, floor, tol, source):
    """The CF-ratio PSD test of evaluate, a CF on sorted frequency arrays,
    as the dict {verdict, tol, source, per_c} that selfdecomp-test writes.

    per_c holds one row {c, psd_pass, worst_violation, grid_radius,
    inconclusive_at} per c.  verdict is "fail" iff some c fails beyond
    tol, otherwise "inconclusive" if any c hit the denominator floor (its
    worst_violation is None), else "pass".

    evaluate is called once, on the frequencies the ratios need: the
    difference lattice of the uniform grid together with its c-scaled
    copies, sorted, without repeats and symmetric about 0.
    """
    cs = _c_tuple(c_values)
    t = uniform_grid(grid_radius, grid_points)
    diffs = np.round(t[:, None] - t[None, :], 12)
    uniq, inv = np.unique(diffs, return_inverse=True)
    freqs, where = np.unique(
        np.concatenate([uniq] + [np.round(c * uniq, 12) for c in cs]), return_inverse=True)
    num_u, *dens = evaluate(freqs)[where].reshape(len(cs) + 1, len(uniq))
    per_c = []
    failed = inconclusive = False
    for c, den_u in zip(cs, dens):
        small = np.abs(den_u) < floor
        if np.any(small):
            bad = float(uniq[np.argmax(small)] * c)
            per_c.append({
                "c": c, "psd_pass": False, "worst_violation": None,
                "grid_radius": float(grid_radius), "inconclusive_at": bad,
            })
            inconclusive = True
            continue
        ratio = (num_u / den_u)[inv].reshape(diffs.shape)
        res = psd_check(ratio, tol=tol)
        per_c.append({
            "c": c, "psd_pass": bool(res["is_psd"]),
            "worst_violation": float(res["worst_violation"]),
            "grid_radius": float(grid_radius), "inconclusive_at": None,
        })
        if not res["is_psd"]:
            failed = True
    verdict = "fail" if failed else ("inconclusive" if inconclusive else "pass")
    return {"verdict": verdict, "tol": float(tol), "source": source, "per_c": per_c}


def selfdecomp_test(
    cf,
    c_values=DEFAULT_C_VALUES,
    grid_radius: float = DEFAULT_GRID_RADIUS,
    grid_points: int = DEFAULT_GRID_POINTS,
) -> dict:
    """Test phi(t)/phi(ct) for positive semidefiniteness per c in (0, 1).

    cf is a closed-form characteristic function, callable on frequency
    arrays; selfdecomp_test_sample tests a sample.  The ratio matrix is
    psi_c(t_j - t_k) on the uniform grid.  Frequencies where |phi(ct)|
    falls below the floor make that c inconclusive rather than silently
    passing or failing: nothing can be resolved there.  Closed forms use
    a tiny floor and the PSD tolerance 1e-9.
    """
    return _ratio_test(
        lambda f: np.asarray(cf(f), dtype=complex), c_values, grid_radius, grid_points,
        CLOSED_FORM_FLOOR, CLOSED_FORM_TOL, "closed-form",
    )


def selfdecomp_test_sample(
    sample,
    c_values=DEFAULT_C_VALUES,
    grid_radius: float = DEFAULT_EMPIRICAL_RADIUS,
    grid_points: int = DEFAULT_GRID_POINTS,
) -> dict:
    """The ratio test on the empirical CF of a 1-D sample of n points.

    The CF is evaluated at exactly the frequencies the test asks for,
    with phi(0) = 1 and phi(-t) = conj(phi(t)) pinned.  The floor is the
    sampling-noise level max(1e-6, 8/sqrt(n)) and the PSD tolerance
    1e-3.  The default radius is small: at radius 0.5 the sampling noise
    of 10^4-point CFs stays an order of magnitude below the tolerance.
    """
    x = as_sample(sample)

    def cf(freqs):
        # freqs is sorted and symmetric about 0, so v[::-1] holds the
        # values at -freqs; the pinned identities hold up to rounding anyway
        v = _cf_values(freqs, x)
        v[np.searchsorted(freqs, 0.0)] = 1.0
        return 0.5 * (v + np.conj(v[::-1]))

    floor = max(EMPIRICAL_FLOOR_BASE, EMPIRICAL_FLOOR_SCALE / np.sqrt(len(x)))
    return _ratio_test(
        cf, c_values, grid_radius, grid_points, floor, EMPIRICAL_TOL, f"empirical(n={len(x)})",
    )


# --------------------------------------------------------------------------
# background-driving Levy process and the random e^{-t} integral

class JumpLaw:
    """Base for compound-Poisson jump size laws."""

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        raise NotImplementedError


@dataclass(frozen=True)
class DiscreteJumps(JumpLaw):
    values: tuple
    probs: tuple

    def __post_init__(self):
        v = tuple(float(x) for x in self.values)
        p = tuple(float(x) for x in self.probs)
        if len(v) != len(p) or not v:
            raise ValueError("values and probs must be equal-length and nonempty")
        for name, a in (("values", v), ("probs", p)):
            if not np.all(np.isfinite(a)):
                raise ValueError(f"{name} has a non-finite entry")
        if any(x < 0 for x in p) or abs(sum(p) - 1.0) > 1e-12:
            raise ValueError("probs must be a probability vector")
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "probs", p)

    def sample(self, rng, size):
        idx = rng.choice(len(self.values), size=size, p=self.probs)
        return np.asarray(self.values)[idx]


@dataclass(frozen=True)
class NormalJumps(JumpLaw):
    mean: float = 0.0
    std: float = 1.0

    def __post_init__(self):
        if not (np.isfinite(self.mean) and np.isfinite(self.std)):
            raise ValueError(f"jump mean {self.mean!r} and std {self.std!r} must be finite")
        if self.std < 0:
            raise ValueError("jump std must be nonnegative")

    def sample(self, rng, size):
        return self.mean + self.std * rng.standard_normal(size)


@dataclass(frozen=True)
class DyadicTowerJumps(JumpLaw):
    """Jumps J = 2^(2^K) with P(K = k) = 2^-k, k >= 1.

    The series sum_k 2^-k log(1 + 2^(2^k)) diverges, so the log-moment
    of any compound-Poisson process with these jumps is infinite; sizes
    beyond float range overflow to inf, which downstream treats as a
    divergence signal."""

    def sample(self, rng, size):
        k = rng.geometric(0.5, size=size).astype(float)
        with np.errstate(over="ignore"):
            return np.exp2(np.exp2(k))


@dataclass(frozen=True)
class BDLPSpec:
    """Levy triplet at desk scale: drift + sigma W(t) + compound Poisson."""

    drift: float = 0.0
    gaussian_sigma: float = 0.0
    jump_rate: float = 0.0
    jump_law: JumpLaw | None = None

    def __post_init__(self):
        if not all(np.isfinite(x) for x in (self.drift, self.gaussian_sigma, self.jump_rate)):
            raise ValueError("drift, gaussian_sigma and jump_rate must be finite")
        if self.gaussian_sigma < 0 or self.jump_rate < 0:
            raise ValueError("gaussian_sigma and jump_rate must be nonnegative")
        if self.jump_rate > 0 and self.jump_law is None:
            raise ValueError("a positive jump_rate requires a jump_law")


def sample_random_integral(
    bdlp: BDLPSpec,
    t_max: float,
    n_steps: int,
    n_samples: int,
    seed: int,
) -> np.ndarray:
    """Samples of integral_0^{t_max} e^{-t} dY(t), as a 1-D array.

    The drift contribution uses the exact per-step integral of e^{-t},
    so with randomness disabled the result is drift (1 - e^{-t_max}) for
    every step count.  The Gaussian part weights each increment by the
    step-midpoint value e^{-t_mid} (error <= e^{-t} dt/2 per step).  The
    compound-Poisson part draws the exact arrival-time law (Poisson
    counts with conditionally uniform times, equivalent to exponential
    inter-arrivals) and weights each jump by e^{-(arrival time)}, with
    no discretization at all.  Truncating the upper limit at t_max
    discards an exp(-t_max)-sized tail.  Samples whose jumps overflow
    (sizes beyond float range) come back non-finite; callers decide what
    that means, as integral-sample does with the log-moment probe.

    The samples are drawn in blocks of processes._CHUNK_ROWS on worker
    threads (processes._run_blocks).  Block b draws from the stream keyed
    by (seed, "bdlp-integral", b): its (rows, n_steps) Gaussian increments,
    then its jumps.  So memory per block is bounded, and the result is the
    same on every number of workers.
    """
    if t_max < 5.0:
        raise ValueError("t_max must be at least 5 (truncation error e^{-t_max})")
    if n_steps < 1 or n_samples < 1:
        raise ValueError("n_steps and n_samples must be positive")
    edges = np.linspace(0.0, t_max, n_steps + 1)
    mids = 0.5 * (edges[:-1] + edges[1:])
    weights = np.exp(-mids) * np.sqrt(np.diff(edges))

    def block(b, r0, rows):
        rng = rngstreams.stream(seed, "bdlp-integral", b)
        out = np.full(rows, bdlp.drift * -np.expm1(-t_max))
        if bdlp.gaussian_sigma > 0:
            z = rng.standard_normal((rows, n_steps))
            out += bdlp.gaussian_sigma * (z * weights).sum(axis=1)
        if bdlp.jump_rate > 0:
            out = _add_jumps(out, bdlp, rng, t_max, discounted=True)
        return out

    return np.concatenate(_run_blocks(block, n_samples))


def _add_jumps(out: np.ndarray, bdlp: BDLPSpec, rng, horizon: float, discounted: bool) -> np.ndarray:
    """out plus, per sample, the compound-Poisson jumps on [0, horizon],
    each weighted by e^{-(arrival time)} when discounted.

    Draws Poisson counts, then (discounted only) the conditionally
    uniform arrival times, then the jump sizes.
    """
    counts = rng.poisson(bdlp.jump_rate * horizon, size=len(out))
    total = int(counts.sum())
    if total == 0:
        return out
    times = rng.random(total) * horizon if discounted else None
    weights = np.asarray(bdlp.jump_law.sample(rng, total), dtype=float)
    if discounted:
        with np.errstate(invalid="ignore"):
            weights = np.exp(-times) * weights
    owner = np.repeat(np.arange(len(out)), counts)
    return out + np.bincount(owner, weights=weights, minlength=len(out))


def log_moment_check(bdlp: BDLPSpec, n_samples: int = 100_000, seed: int = 0) -> dict:
    """Monte Carlo estimate of E[log(1 + |Y(1)|)] with a divergence probe.

    The estimate is recomputed at n_samples/10 and n_samples; growth
    beyond LOG_MOMENT_GROWTH (or a non-finite estimate) flags the
    log-moment as suspect-infinite.  A finite log-moment is the
    admissibility condition for the background process of the e^{-t}
    integral.
    """
    if n_samples < 20:
        raise ValueError("n_samples too small for the growth probe")
    rng = rngstreams.stream(seed, "bdlp-logmoment")
    # Y(1) = drift + sigma W(1) + the jumps on [0, 1]
    y = np.full(n_samples, float(bdlp.drift))
    if bdlp.gaussian_sigma > 0:
        y += bdlp.gaussian_sigma * rng.standard_normal(n_samples)
    if bdlp.jump_rate > 0:
        y = _add_jumps(y, bdlp, rng, 1.0, discounted=False)
    with np.errstate(invalid="ignore"):
        logs = np.log1p(np.abs(y))
    small = float(np.mean(logs[: n_samples // 10]))
    full = float(np.mean(logs))
    if not np.isfinite(full) or not np.isfinite(small):
        return {"estimate": full, "diagnostic": "suspect-infinite"}
    grew = small > 0 and full > LOG_MOMENT_GROWTH * small
    return {"estimate": full, "diagnostic": "suspect-infinite" if grew else "finite"}
