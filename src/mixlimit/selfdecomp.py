"""Class-L machinery: the CF-ratio test and random integrals.

A law mu is selfdecomposable when for every 0 < c < 1 the ratio of
characteristic functions psi_c(t) = phi(t) / phi(ct) is again a
characteristic function.  The finitely checkable surrogate used here is
positive semidefiniteness of the matrix psi_c(t_j - t_k) on a uniform
frequency grid.  The companion representation samples
integral_0^inf e^{-t} dY(t) for a Levy process Y with drift, Gaussian
part and compound-Poisson jumps, each part from its exact law, truncated
at T_max with an exact e^{-T_max} tail disclosure.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import rngstreams
from .probcore import PASSING, STANDARD_NORMAL, _cf_values, as_sample, judge, psd_check
from .processes import _run_blocks

DEFAULT_C_VALUES = (0.3, 0.5, 0.8)
DEFAULT_GRID_RADIUS = 8.0
DEFAULT_GRID_POINTS = 41
# the ratio test's memory grows as points^2 and its time as points^3: at
# 1001 points and three c-values it peaks near 62 MB of traced memory and
# takes 1.0 s on a closed form, 1.5 s on a 10^4-point sample (2 vCPUs)
MAX_GRID_POINTS = 1001
DEFAULT_EMPIRICAL_RADIUS = 0.5
CLOSED_FORM_TOL = 1e-9
EMPIRICAL_TOL = 1e-3
CLOSED_FORM_FLOOR = 1e-100
EMPIRICAL_FLOOR_BASE = 1e-6
EMPIRICAL_FLOOR_SCALE = 8.0    # times 1/sqrt(sample_size)


# --------------------------------------------------------------------------
# CF-ratio positive-definiteness test

def _grid_points(points: int) -> int:
    """points, once it is odd and at least 3 (so that the grid holds 0) and
    at most MAX_GRID_POINTS."""
    if points < 3 or points % 2 == 0:
        raise ValueError("grid needs an odd number of points >= 3 to contain 0")
    if points > MAX_GRID_POINTS:
        raise ValueError(f"grid_points {points} is above the cap MAX_GRID_POINTS = {MAX_GRID_POINTS}")
    return points


def uniform_grid(radius: float, points: int) -> np.ndarray:
    _grid_points(points)
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
    as the dict {verdict, tol, source, per_c, claim} that selfdecomp-test writes.

    per_c holds one row {c, psd_pass, worst_violation, grid_radius,
    inconclusive_at} per c, judged on the smallest eigenvalue worst_violation
    >= -tol, or inconclusive where it hit the denominator floor (worst_violation
    None).  verdict is "fail" if any c fails, else "inconclusive" if any is.

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
    per_c, statuses = [], []
    for c, den_u in zip(cs, dens):
        small = np.abs(den_u) < floor
        worst = None if np.any(small) else psd_check((num_u / den_u)[inv].reshape(diffs.shape))
        statuses.append(judge(None if worst is None else -worst, tol))
        per_c.append({
            "c": c, "psd_pass": statuses[-1] in PASSING, "worst_violation": worst,
            "grid_radius": float(grid_radius),
            "inconclusive_at": float(uniq[np.argmax(small)] * c) if worst is None else None,
        })
    verdict = next((s for s in ("fail", "inconclusive") if s in statuses), "pass")
    return {"verdict": verdict, "tol": float(tol), "source": source, "per_c": per_c,
            "claim": "eq5_convolution_decomposition"}


# the named closed-form CFs that selfdecomp-test's cf_form chooses from
CLOSED_FORM_CFS = {
    "gaussian": STANDARD_NORMAL.cf,
    "exponential": lambda t: 1.0 / (1.0 - 1j * np.asarray(t, dtype=float)),
    "uniform": lambda t: np.sinc(np.asarray(t, dtype=float) / np.pi),     # sin(t)/t
}


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

    The CF is evaluated at exactly the frequencies > 0 the test asks for,
    phi(0) = 1 is pinned, and phi(-t) = conj(phi(t)) fills in the
    negative ones.  The floor is the sampling-noise level
    max(1e-6, 8/sqrt(n)) and the PSD tolerance 1e-3.  The default radius
    is small: at radius 0.5 the sampling noise of 10^4-point CFs stays an
    order of magnitude below the tolerance.
    """
    x = as_sample(sample)

    def cf(freqs):
        # freqs is sorted and exactly symmetric about 0, so its negative
        # half is the mirror of the positive one
        pos = _cf_values(freqs[np.searchsorted(freqs, 0.0) + 1 :], x)
        return np.concatenate([np.conj(pos[::-1]), [1.0], pos])

    floor = max(EMPIRICAL_FLOOR_BASE, EMPIRICAL_FLOOR_SCALE / np.sqrt(len(x)))
    return _ratio_test(
        cf, c_values, grid_radius, grid_points, floor, EMPIRICAL_TOL, f"empirical(n={len(x)})",
    )


# --------------------------------------------------------------------------
# background-driving Levy process and the random e^{-t} integral

class JumpLaw:
    """Base for compound-Poisson jump size laws.

    log_moment_finite states whether E log(1 + |J|) < inf for a jump J.
    A Levy process Y has E log(1 + |Y(1)|) < inf iff its Levy measure
    has a finite log-moment off [-1, 1] (Sato 1999, Thm 25.3), which for
    a compound-Poisson part is this fact of its jump law; and exactly
    then does integral_0^inf e^{-t} dY(t) converge to a selfdecomposable
    law (Thm 17.5).
    """

    log_moment_finite: bool

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        raise NotImplementedError


@dataclass(frozen=True)
class DiscreteJumps(JumpLaw):
    values: tuple = ()
    probs: tuple = ()
    log_moment_finite = True       # finite support

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
    log_moment_finite = True       # every moment is finite

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

    The series sum_k 2^-k log(1 + 2^(2^k)) >= sum_k log 2 diverges, so
    the log-moment of any compound-Poisson process with these jumps is
    infinite.  Sizes beyond float range overflow to inf."""

    log_moment_finite = False

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

    @property
    def log_moment_finite(self) -> bool:
        """E log(1 + |Y(1)|) < inf: the drift and the Gaussian part have
        every moment, so this is the jump law's fact (JumpLaw)."""
        return self.jump_rate == 0 or self.jump_law.log_moment_finite


def sample_random_integral(
    bdlp: BDLPSpec,
    t_max: float,
    n_samples: int,
    seed: int,
) -> np.ndarray:
    """Samples of integral_0^{t_max} e^{-t} dY(t), as a 1-D array.

    Each part is drawn from its exact law, with no time grid.  The drift
    contributes drift (1 - e^{-t_max}).  The Gaussian part is
    N(0, sigma^2 (1 - e^{-2 t_max}) / 2) by the Ito isometry, drawn as one
    standard normal per sample.  The compound-Poisson part draws the exact
    arrival-time law (Poisson counts with conditionally uniform times,
    equivalent to exponential inter-arrivals) and weights each jump by
    e^{-(arrival time)}.  Truncating the upper limit at t_max discards an
    exp(-t_max)-sized tail.  Samples whose jumps overflow (sizes beyond
    float range) come back non-finite; callers decide what that means.
    Whether the untruncated integral exists at all is the fact
    bdlp.log_moment_finite, not a property of any sample.

    The samples are drawn in blocks of processes._CHUNK_ROWS on worker
    threads (processes._run_blocks).  Block b draws from the stream keyed
    by (seed, "bdlp-integral", b): one standard normal per sample, then
    its jumps.  So memory per block is bounded, and the result is the same on
    every number of workers.
    """
    if t_max < 5.0:
        raise ValueError("t_max must be at least 5 (truncation error e^{-t_max})")
    if n_samples < 1:
        raise ValueError("n_samples must be positive")
    gauss_sd = bdlp.gaussian_sigma * np.sqrt(-np.expm1(-2.0 * t_max) / 2.0)

    def block(b, r0, rows):
        rng = rngstreams.stream(seed, "bdlp-integral", b)
        out = np.full(rows, bdlp.drift * -np.expm1(-t_max))
        if bdlp.gaussian_sigma > 0:
            out += gauss_sd * rng.standard_normal(rows)
        if bdlp.jump_rate > 0:
            counts = rng.poisson(bdlp.jump_rate * t_max, size=rows)
            times = rng.random(int(counts.sum())) * t_max
            sizes = np.asarray(bdlp.jump_law.sample(rng, len(times)), dtype=float)
            with np.errstate(invalid="ignore"):
                out += np.bincount(np.repeat(np.arange(rows), counts),
                                   weights=np.exp(-times) * sizes, minlength=rows)
        return out

    return np.concatenate(_run_blocks(block, n_samples))


def integral_summary(bdlp: BDLPSpec, t_max: float, sample: np.ndarray) -> tuple:
    """(summary, flag) of the samples of sample_random_integral(bdlp,
    t_max, ...): the document integral-sample writes, and whether the
    log-moment is finite and every sample finite.  The flag is a fact of
    the jump law and of the sample, not a statistic judged against a
    ceiling."""
    finite = bool(np.all(np.isfinite(sample)))
    return {
        "mean": float(sample.mean()) if finite else None,
        "variance": float(sample.var()) if finite else None,
        "n_samples": len(sample),
        "truncation_error_factor": float(np.exp(-t_max)),
        # admissibility is a fact of the jump law, not an estimate (JumpLaw)
        "log_moment_diagnostic": "finite" if bdlp.log_moment_finite else "infinite",
        "claim": "eq6_bdlp_integral",
    }, bdlp.log_moment_finite and finite
