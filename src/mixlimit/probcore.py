"""Foundational probability primitives.

Scalar samples (1-D float arrays, one number per draw), exact finite
joint distributions, the empirical characteristic function of a sample
at given frequencies, a Kolmogorov-Smirnov distance that is exact for
step references, the standard normal cdf, a positive-semidefiniteness
check, the judge of a report's claims, and the exact dependence coefficient

    alpha(X, Z) = sup_{A, B} |P(A & B) - P(A) P(B)|

over all events A built from the atoms of X and B from the atoms of Z.
For finitely generated sigma-fields the supremum is attained on unions
of atoms, so subset enumeration computes it exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

PMF_TOL = 1e-12
ENUM_LIMIT = 20                # atoms on the enumerated side of alpha_exact
HERMITIAN_TOL = 1e-8           # psd_check: largest relative asymmetry accepted
PASSING = ("pass", "pre_asymptotic")   # the statuses of judge that render as a true pass flag

_SQRTH = 7.07106781186547524401e-1


def _freeze(record, *names, dtype=float) -> list:
    """Set each named field of the frozen dataclass record to a read-only copy
    np.array(value, dtype=dtype), finite in every entry; return the copies."""
    copies = []
    for name in names:
        a = np.array(getattr(record, name), dtype=dtype)
        if not np.all(np.isfinite(a)):
            raise ValueError(f"{name} has a non-finite entry")
        a.flags.writeable = False
        object.__setattr__(record, name, a)
        copies.append(a)
    return copies


def as_sample(x) -> np.ndarray:
    """x as a float vector, rejected unless it is nonempty, 1-D and finite."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 1 or x.shape[0] == 0:
        raise ValueError("sample must be a nonempty 1-D array")
    if not np.all(np.isfinite(x)):
        raise ValueError("sample contains non-finite points")
    return x


@dataclass(frozen=True)
class FiniteJointDistribution:
    """Exact joint pmf over a finite product of labeled atom sets.

    atoms_x, atoms_z: vectors of scalar atom locations.
    pmf: (|X|, |Z|) nonnegative matrix summing to 1 within tol, PMF_TOL for
    a pmf given as input; a computed one may take its rounding bound.
    """

    atoms_x: np.ndarray
    atoms_z: np.ndarray
    pmf: np.ndarray
    tol: float = field(default=PMF_TOL, repr=False, compare=False)

    def __post_init__(self):
        ax, az, pmf = _freeze(self, "atoms_x", "atoms_z", "pmf")
        if ax.ndim != 1 or az.ndim != 1:
            raise ValueError(
                f"atoms must be vectors of scalars, got shapes {ax.shape} and {az.shape}")
        if pmf.shape != (ax.shape[0], az.shape[0]):
            raise ValueError(
                f"pmf shape {pmf.shape} does not match atom counts "
                f"({ax.shape[0]}, {az.shape[0]})"
            )
        if np.any(pmf < 0):
            raise ValueError("pmf entries must be nonnegative")
        if abs(pmf.sum() - 1.0) > self.tol:
            raise ValueError(f"pmf entries sum to {float(pmf.sum())!r}, not 1 within {self.tol}")

    @property
    def margin_x(self) -> np.ndarray:
        return self.pmf.sum(axis=1)

    @property
    def margin_z(self) -> np.ndarray:
        return self.pmf.sum(axis=0)


def _cf_values(freqs, x) -> np.ndarray:
    """(1/n) sum_j exp(i t x_j) at each frequency t of the sample x, with no pinning.

    The frequencies are taken 16 at a time, so the (frequencies, n) table
    of exponentials is never held whole; each mean runs over the same
    values in the same order, so the result does not depend on the block.
    exp(i theta) = (cos theta, sin theta) fills one (16, n, 2) buffer made
    once per call, theta first in the sin half, and the mean of its complex
    view is np.exp(1j * theta).mean() bit for bit.
    """
    freqs = np.asarray(freqs)
    out = np.empty(len(freqs), dtype=complex)
    pairs = np.empty((min(16, len(freqs)), len(x), 2))
    for k in range(0, len(freqs), 16):
        p = pairs[: len(freqs) - k]
        np.multiply.outer(freqs[k : k + 16], x, out=p[..., 1])
        np.cos(p[..., 1], out=p[..., 0])
        np.sin(p[..., 1], out=p[..., 1])
        out[k : k + 16] = p.view(complex)[..., 0].mean(axis=1)
    return out


def psd_check(matrix: np.ndarray) -> float:
    """The smallest eigenvalue of the Hermitian part of a Hermitian matrix,
    the first of numpy's ascending eigvalsh (LAPACK), so no scipy is loaded;
    the matrix is positive semidefinite iff it is >= 0.  Inputs that are
    non-Hermitian beyond HERMITIAN_TOL are rejected.
    """
    M = np.asarray(matrix)
    if M.ndim != 2 or M.shape[0] != M.shape[1] or M.shape[0] < 1:
        raise ValueError("matrix must be square and nonempty")
    asym = np.max(np.abs(M - M.conj().T))
    scale = max(1.0, float(np.max(np.abs(M)))) if M.size else 1.0
    if asym > HERMITIAN_TOL * scale:
        raise ValueError(f"matrix is not Hermitian: max asymmetry {asym:.3e}")
    H = 0.5 * (M + M.conj().T)
    return float(np.linalg.eigvalsh(H)[0])


def judge(value, ceiling, band=0.0, negative=False, applies=True) -> str:
    """The status of the claim value <= ceiling + band (value > ceiling if negative):
    pre_asymptotic unless it applies, inconclusive for a None value, else pass or fail."""
    if not applies:
        return "pre_asymptotic"
    if value is None:
        return "inconclusive"
    return "pass" if (value > ceiling if negative else value <= ceiling + band) else "fail"


def normal_cdf(x):
    """Standard normal cdf, elementwise; normal_cdf(-x) is the upper tail.

    Phi(x) = erfc(-x/sqrt(2))/2, with math.erfc, the C library's erfc,
    mapped over the array (numpy has none), so no scipy is loaded.  The one
    formula keeps the relative accuracy of both tails, and the lower tail
    stays nonzero (subnormal) down to x near -38.4.
    """
    x = np.asarray(x, dtype=float)
    w = (-_SQRTH * x).ravel().tolist()
    y = 0.5 * np.fromiter(map(math.erfc, w), float, len(w)).reshape(x.shape)
    return y if y.ndim else y[()]


@dataclass(frozen=True)
class Limit:
    """The limit law of a_n S_n + b_n: N(0, scale^2), the law of scale Z for
    Z standard normal, strictly stable of index 2, so that the sum of two
    independent copies is the copy scaled by 2^(1/index)."""

    scale: float = 1.0
    index = 2.0

    @property
    def name(self) -> str:
        return f"N(0,{self.scale ** 2:g})"

    def cdf(self, x):
        return normal_cdf(np.asarray(x) / self.scale)

    def cf(self, t):
        return np.exp(-(self.scale * np.asarray(t, dtype=float)) ** 2 / 2.0)

    def scaled(self, s: float) -> "Limit":
        """The law of s X for X of this law."""
        return Limit(self.scale * s)


STANDARD_NORMAL = Limit()


def ks_distance(sample, reference_cdf) -> float:
    """sup_x |empirical cdf - reference cdf| for a sample.

    Both one-sided limits are evaluated at every jump of the empirical
    cdf, so the supremum is exact even when the reference itself is a
    step function (left limits are taken at the nearest representable
    float below each jump).
    """
    x = np.sort(as_sample(sample))
    n = len(x)
    # the points equal to x[i] are one run x[lo:hi] of the sorted sample, so
    # the empirical cdf is hi/n at x[i] and lo/n just below it; the runs'
    # first indices give both in O(n), as counts equal to searchsorted's
    first = np.empty(n, dtype=bool)
    first[0] = True
    np.not_equal(x[1:], x[:-1], out=first[1:])
    starts = np.flatnonzero(first)
    run = np.cumsum(first) - 1
    right = np.append(starts[1:], n)[run] / n
    left = starts[run] / n
    f_right = np.asarray(reference_cdf(x), dtype=float)
    f_left = np.asarray(reference_cdf(np.nextafter(x, -np.inf)), dtype=float)
    if np.any(np.diff(f_right) < -1e-12):
        raise ValueError("reference_cdf is not nondecreasing on the sample")
    d = max(np.max(np.abs(right - f_right)), np.max(np.abs(left - f_left)))
    return float(min(1.0, d))


def empirical_cdf(values: np.ndarray):
    """Right-continuous empirical cdf of a data vector, as a callable."""
    v = np.sort(np.asarray(values, dtype=float).ravel())

    def cdf(x):
        return np.searchsorted(v, np.asarray(x, dtype=float), side="right") / len(v)

    return cdf


def _subset_sums(rows: np.ndarray) -> np.ndarray:
    """(2^m, n) table whose row s is the sum of the rows i of `rows` with bit i set in s."""
    m, n = rows.shape
    table = np.zeros((1 << m, n))
    for i in range(m):
        table[1 << i : 2 << i] = table[: 1 << i] + rows[i]
    return table


def alpha_exact(joint: FiniteJointDistribution) -> float:
    """Exact dependence coefficient of a finite joint distribution.

    Let D = pmf - p_X p_Z^T, so D[x, z] = P({x} & {z}) - P({x}) P({z}),
    and let k be the atom count of the smaller side (the pmf is
    transposed if need be), which is the side enumerated.

    - Every row and every column of D sums to 0.  For a fixed event A the
      signed masses d(A, z) = (1_A^T D)[z] therefore sum to 0 over z, so
      the optimal B collects the z with d(A, z) > 0 and attains
      (1/2) ||1_A^T D||_1; hence alpha = (1/2) max_A ||1_A^T D||_1.
    - The complement of A gives -1_A^T D, the same norm, so the last
      atom can be kept out of A: 2^(k-1) events remain.
    - Their sums 1_A^T D are built by doubling, never one event at a
      time: one table holds the subset sums of the first min(14, k-1)
      rows of D, and each subset sum of the remaining high rows is added
      to the whole table at once.  That costs O(2^(k-1) n_z) additions,
      one per event and Z atom, and the table holds at most 2^14 n_z
      floats.

    The result lies in [0, 1/4] and is 0 iff the pmf is a product measure.
    """
    pmf = joint.pmf
    if pmf.shape[0] > pmf.shape[1]:
        pmf = pmf.T
    k = pmf.shape[0]
    if k > ENUM_LIMIT:
        raise ValueError(f"enumeration side has {k} atoms, above the limit {ENUM_LIMIT}")
    d = pmf - np.outer(pmf.sum(axis=1), pmf.sum(axis=0))
    low = min(14, k - 1)
    table = _subset_sums(d[:low])
    events = np.empty_like(table)
    best = 0.0
    for shift in _subset_sums(d[low : k - 1]):
        np.abs(np.add(table, shift, out=events), out=events)
        best = max(best, float(events.sum(axis=1).max()))
    return 0.5 * best
