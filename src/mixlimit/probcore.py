"""Foundational probability primitives.

Scalar samples (1-D float arrays, one number per draw), exact finite
joint distributions, empirical characteristic functions, a
Kolmogorov-Smirnov distance that is exact for step references, the
standard normal cdf, a positive-semidefiniteness check, and the exact
dependence coefficient

    alpha(X, Z) = sup_{A, B} |P(A & B) - P(A) P(B)|

over all events A built from the atoms of X and B from the atoms of Z.
For finitely generated sigma-fields the supremum is attained on unions
of atoms, so subset enumeration computes it exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

PMF_TOL = 1e-12
ENUM_LIMIT = 20                # atoms on the enumerated side of alpha_exact
GRID_MATCH_TOL = 1e-9          # EmpiricalCF.at: largest distance to a grid point
HERMITIAN_TOL = 1e-8           # psd_check: largest relative asymmetry accepted


def _frozen(a: np.ndarray) -> np.ndarray:
    a = np.asarray(a)
    a.flags.writeable = False
    return a


def as_sample(x) -> np.ndarray:
    """x as a float vector, rejected unless it is nonempty, 1-D and finite."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 1 or x.shape[0] == 0:
        raise ValueError("sample must be a nonempty 1-D array")
    if not np.all(np.isfinite(x)):
        raise ValueError("sample contains non-finite points")
    return x


@dataclass(frozen=True)
class EmpiricalCF:
    """Characteristic function of a sample evaluated on a symmetric grid.

    grid: strictly increasing frequencies, symmetric about 0, containing 0.
    values: (1/n) sum_j exp(i t x_j) at each grid frequency.
    """

    grid: np.ndarray
    values: np.ndarray
    sample_size: int

    def __post_init__(self):
        grid = _frozen(np.asarray(self.grid, dtype=float))
        values = _frozen(np.asarray(self.values, dtype=complex))
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "values", values)
        if grid.ndim != 1 or grid.shape != values.shape:
            raise ValueError("grid and values must be 1-d arrays of equal length")
        if self.sample_size < 1:
            raise ValueError("sample_size must be positive")
        _check_symmetric_grid(grid)
        i0 = int(np.searchsorted(grid, 0.0))
        if values[i0] != 1.0 + 0.0j:
            raise ValueError(f"value at frequency 0 must be exactly 1, got {values[i0]}")
        if not np.allclose(values[::-1], np.conj(values), rtol=0.0, atol=1e-12):
            raise ValueError("values must be conjugate-symmetric in the frequency")
        if np.any(np.abs(values) > 1.0 + 1e-9):
            raise ValueError("characteristic function values must have modulus <= 1")

    def at(self, freqs: np.ndarray) -> np.ndarray:
        """Values at given frequencies, which must be grid points."""
        freqs = np.asarray(freqs, dtype=float)
        idx = np.clip(np.searchsorted(self.grid, freqs.ravel()), 0, len(self.grid) - 1)
        left = np.clip(idx - 1, 0, len(self.grid) - 1)
        use_left = np.abs(self.grid[left] - freqs.ravel()) < np.abs(self.grid[idx] - freqs.ravel())
        idx = np.where(use_left, left, idx)
        err = np.abs(self.grid[idx] - freqs.ravel())
        if np.any(err > GRID_MATCH_TOL):
            bad = freqs.ravel()[np.argmax(err)]
            raise ValueError(f"frequency {bad!r} is not on the stored grid")
        return self.values[idx].reshape(freqs.shape)


def _check_symmetric_grid(grid: np.ndarray, tol: float = 1e-12) -> None:
    if np.any(np.diff(grid) <= 0):
        raise ValueError("grid must be strictly increasing")
    if not np.any(np.abs(grid) <= tol):
        raise ValueError("grid must contain the frequency 0")
    idx = np.clip(np.searchsorted(grid, -grid), 0, len(grid) - 1)
    left = np.clip(idx - 1, 0, len(grid) - 1)
    gap = np.minimum(np.abs(grid[idx] + grid), np.abs(grid[left] + grid))
    if np.any(gap > tol):
        bad = [float(f) for f in grid[gap > tol][:5]]
        raise ValueError(f"grid is not symmetric about 0: no mirror for frequencies {bad}")


@dataclass(frozen=True)
class FiniteJointDistribution:
    """Exact joint pmf over a finite product of labeled atom sets.

    atoms_x, atoms_z: (n, d) arrays of atom locations.
    pmf: (|X|, |Z|) nonnegative matrix summing to 1.
    """

    atoms_x: np.ndarray
    atoms_z: np.ndarray
    pmf: np.ndarray

    def __post_init__(self):
        ax = np.asarray(self.atoms_x, dtype=float)
        az = np.asarray(self.atoms_z, dtype=float)
        if ax.ndim == 1:
            ax = ax[:, None]
        if az.ndim == 1:
            az = az[:, None]
        pmf = np.asarray(self.pmf, dtype=float)
        object.__setattr__(self, "atoms_x", _frozen(ax))
        object.__setattr__(self, "atoms_z", _frozen(az))
        object.__setattr__(self, "pmf", _frozen(pmf))
        if pmf.shape != (ax.shape[0], az.shape[0]):
            raise ValueError(
                f"pmf shape {pmf.shape} does not match atom counts "
                f"({ax.shape[0]}, {az.shape[0]})"
            )
        if np.any(pmf < 0):
            raise ValueError("pmf entries must be nonnegative")
        if abs(pmf.sum() - 1.0) > PMF_TOL:
            raise ValueError(f"pmf entries sum to {pmf.sum()!r}, not 1 within {PMF_TOL}")

    @property
    def margin_x(self) -> np.ndarray:
        return self.pmf.sum(axis=1)

    @property
    def margin_z(self) -> np.ndarray:
        return self.pmf.sum(axis=0)


def _cf_values(freqs, x) -> np.ndarray:
    """(1/n) sum_j exp(i t x_j) at each frequency t, with no pinning."""
    return np.exp(1j * np.multiply.outer(freqs, x)).mean(axis=1)


def empirical_cf(sample, grid) -> EmpiricalCF:
    """Empirical characteristic function of a sample on a grid.

    values[t] = (1/n) sum_j exp(i t x_j).  The grid must be strictly
    increasing, symmetric about 0 and contain 0.
    """
    x = as_sample(sample)
    grid = np.asarray(grid, dtype=float)
    _check_symmetric_grid(grid)
    vals = _cf_values(grid, x)
    # pin the structural identities exactly; they hold up to rounding anyway
    i0 = int(np.searchsorted(grid, 0.0))
    vals[i0] = 1.0
    vals = 0.5 * (vals + np.conj(vals[::-1]))
    return EmpiricalCF(grid=grid, values=vals, sample_size=len(x))


def psd_check(matrix: np.ndarray, tol: float = 1e-9):
    """Check a Hermitian matrix for positive semidefiniteness.

    Returns a dict {"is_psd": bool, "worst_violation": float} where
    worst_violation is the smallest eigenvalue of the Hermitian part.
    Inputs that are non-Hermitian beyond HERMITIAN_TOL are rejected.
    """
    M = np.asarray(matrix)
    if M.ndim != 2 or M.shape[0] != M.shape[1] or M.shape[0] < 1:
        raise ValueError("matrix must be square and nonempty")
    if tol < 0:
        raise ValueError("tol must be nonnegative")
    asym = np.max(np.abs(M - M.conj().T))
    scale = max(1.0, float(np.max(np.abs(M)))) if M.size else 1.0
    if asym > HERMITIAN_TOL * scale:
        raise ValueError(f"matrix is not Hermitian: max asymmetry {asym:.3e}")
    H = 0.5 * (M + M.conj().T)
    # imported here, so that runs without a PSD test never load scipy.linalg
    import scipy.linalg

    smallest = float(scipy.linalg.eigvalsh(H, subset_by_index=[0, 0])[0])
    return {"is_psd": smallest >= -tol, "worst_violation": smallest}


def normal_cdf(x):
    """Standard normal cdf, elementwise; normal_cdf(-x) is the upper tail.

    scipy.special.ndtr is what scipy.stats.norm.cdf and norm.sf evaluate
    at loc 0 and scale 1, so the values agree with them to the bit.  The
    import sits here, so that runs that never use the normal law do not
    load scipy.special.
    """
    import scipy.special

    return scipy.special.ndtr(x)


def ks_distance(sample, reference_cdf) -> float:
    """sup_x |empirical cdf - reference cdf| for a sample.

    Both one-sided limits are evaluated at every jump of the empirical
    cdf, so the supremum is exact even when the reference itself is a
    step function (left limits are taken at the nearest representable
    float below each jump).
    """
    x = np.sort(as_sample(sample))
    n = len(x)
    right = np.searchsorted(x, x, side="right") / n
    left = np.searchsorted(x, x, side="left") / n
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


def alpha_exact(joint: FiniteJointDistribution) -> float:
    """Exact dependence coefficient of a finite joint distribution.

    Enumerates every event A on the smaller atom side; for fixed A the
    optimal B collects the atoms z whose signed mass
    d(A, z) = P(A & {z}) - P(A) P({z}) is positive (the negative side
    gives the same absolute sum since the signed masses cancel).  The
    result lies in [0, 1/4] and is 0 iff the pmf is a product measure.
    """
    pmf = joint.pmf
    if pmf.shape[0] > pmf.shape[1]:
        pmf = pmf.T
    nx, nz = pmf.shape
    if nx > ENUM_LIMIT:
        raise ValueError(f"enumeration side has {nx} atoms, above the limit {ENUM_LIMIT}")
    px = pmf.sum(axis=1)
    pz = pmf.sum(axis=0)
    best = 0.0
    # chunked subset enumeration keeps memory flat for up to 2^20 subsets
    chunk = 1 << 14
    masks = np.arange(1, 1 << nx, dtype=np.uint32)
    bits = 1 << np.arange(nx, dtype=np.uint32)
    for start in range(0, len(masks), chunk):
        sel = (masks[start:start + chunk, None] & bits[None, :]) != 0
        pa = sel @ px
        d = sel @ pmf - np.outer(pa, pz)
        pos = np.where(d > 0, d, 0.0).sum(axis=1)
        neg = np.where(d < 0, -d, 0.0).sum(axis=1)
        best = max(best, float(np.max(np.maximum(pos, neg))))
    return best
