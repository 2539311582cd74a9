"""Dependence coefficients for finite-state Markov chains.

Two complementary routes bracket the (not finitely computable) mixing
coefficient of a chain:

* exact window-truncated values: the joint law of a finite block of the
  past and a finite block of the future is built by matrix propagation
  and handed to the exact finite-distribution coefficient.  These are
  LOWER bounds for the full-sigma-field coefficient.
* an analytic geometric envelope from a Doeblin minorization: an UPPER
  bound alpha(n) <= min(1/4, C * rho^n).

Reports always label which side of the true coefficient a number sits on.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np

from .probcore import ENUM_LIMIT, FiniteJointDistribution, alpha_exact

STOCHASTIC_TOL = 1e-12
DOEBLIN_MAX_POWER = 8
J_SCAN_EXTRA = 10


@dataclass(frozen=True)
class MarkovChainSpec:
    """Finite chain: real state labels, row-stochastic transition, initial law."""

    states: np.ndarray
    transition: np.ndarray
    initial: np.ndarray

    def __post_init__(self):
        s = np.asarray(self.states, dtype=float)
        p = np.asarray(self.transition, dtype=float)
        pi0 = np.asarray(self.initial, dtype=float)
        for a in (s, p, pi0):
            a.flags.writeable = False
        object.__setattr__(self, "states", s)
        object.__setattr__(self, "transition", p)
        object.__setattr__(self, "initial", pi0)
        k = len(s)
        if p.shape != (k, k):
            raise ValueError(f"transition must be {k}x{k}, got {p.shape}")
        if np.any(p < 0) or np.any(np.abs(p.sum(axis=1) - 1.0) > STOCHASTIC_TOL):
            raise ValueError("transition matrix is not row-stochastic")
        if len(pi0) != k or np.any(pi0 < 0) or abs(pi0.sum() - 1.0) > STOCHASTIC_TOL:
            raise ValueError("initial distribution is not a probability vector")

    @property
    def n_states(self) -> int:
        return len(self.states)

    def stationary(self) -> np.ndarray:
        """Stationary distribution (unique one for ergodic chains)."""
        k = self.n_states
        A = np.vstack([self.transition.T - np.eye(k), np.ones(k)])
        b = np.zeros(k + 1)
        b[-1] = 1.0
        pi, *_ = np.linalg.lstsq(A, b, rcond=None)
        pi = np.clip(pi, 0.0, None)
        return pi / pi.sum()


@dataclass(frozen=True)
class AlphaProfile:
    """Per-lag dependence values with their provenance.

    kind is "exact-window" (lower bounds from truncated sigma-fields)
    or "analytic-bound" (upper envelope).
    """

    values: tuple          # ((n, alpha), ...)
    kind: str
    meta: str = ""

    def __post_init__(self):
        if self.kind not in ("exact-window", "analytic-bound"):
            raise ValueError(f"unknown profile kind {self.kind!r}")
        alphas = [a for _, a in self.values]
        if any(a < -1e-12 or a > 0.25 + 1e-12 for a in alphas):
            raise ValueError("alpha values must lie in [0, 1/4]")
        if self.kind == "analytic-bound" and np.any(np.diff(alphas) > 1e-12):
            raise ValueError("analytic-bound profiles must be nonincreasing in n")

    def alpha_at(self, n: int) -> float:
        for m, a in self.values:
            if m == n:
                return a
        raise KeyError(f"no value stored for n={n}")


def _block_distribution(chain: MarkovChainSpec, start: int, length: int) -> np.ndarray:
    """Joint pmf tensor of (X_start, ..., X_{start+length-1}); X_1 ~ initial."""
    p = chain.transition
    dist = chain.initial @ np.linalg.matrix_power(p, start - 1)
    out = dist
    for _ in range(length - 1):
        out = out[..., :, None] * p
    return out


def joint_window_distribution(
    chain: MarkovChainSpec, j: int, n: int, past_window: int, future_window: int
) -> FiniteJointDistribution:
    """Exact joint law of the past block (X_{j-p+1..j}) and future block
    (X_{j+n..j+n+f-1}), with the past block clipped at time 1."""
    if j < 1 or n < 1 or past_window < 1 or future_window < 1:
        raise ValueError("j, n and window sizes must be positive")
    p_eff = min(past_window, j)
    start = j - p_eff + 1
    past = _block_distribution(chain, start, p_eff)        # tensor over p_eff indices
    pn = np.linalg.matrix_power(chain.transition, n)       # X_j -> X_{j+n}
    k = chain.n_states
    # conditional tensor of the future block given its first state
    cond = np.eye(k)
    for _ in range(future_window - 1):
        cond = cond[..., :, None] * chain.transition
    past_flat = past.reshape(-1, k) if p_eff > 1 else past.reshape(1, k)
    # rows of past_flat are joint masses over (prefix, X_j); couple X_j to X_{j+n}
    coupled = past_flat[:, :, None] * pn[None, :, :]       # (prefix, X_j, X_{j+n})
    joint = coupled.reshape(-1, k) @ cond.reshape(k, -1)
    past_atoms = np.array(
        [[chain.states[i] for i in tup] for tup in product(range(k), repeat=p_eff)]
    )
    fut_atoms = np.array(
        [[chain.states[i] for i in tup] for tup in product(range(k), repeat=future_window)]
    )
    return FiniteJointDistribution(past_atoms, fut_atoms, joint.reshape(len(past_atoms), len(fut_atoms)))


def alpha_window(chain: MarkovChainSpec, j: int, n: int, past_window: int, future_window: int) -> float:
    """Exact dependence coefficient between two finite state windows.

    A lower bound for the untruncated coefficient (which takes the full
    past and future sigma-fields).
    """
    # checked before the joint pmf is built: it has k^(p_eff + future_window) entries
    k = chain.n_states
    side = min(past_window, j, future_window)      # the enumerated (smaller) side
    if k ** side > ENUM_LIMIT:
        raise ValueError(
            f"window atom count {k}^{side} = {k ** side} exceeds the enumeration limit {ENUM_LIMIT}"
        )
    return alpha_exact(joint_window_distribution(chain, j, n, past_window, future_window))


def alpha_sequence(
    chain: MarkovChainSpec,
    n_list,
    past_window: int = 1,
    future_window: int = 1,
    j_scan: int | None = None,
) -> AlphaProfile:
    """Window-truncated profile: per n, the max of alpha_window over a j range.

    The default scan covers j = 1 .. past_window + 10, which is exact for
    chains started at stationarity (the value is then j-independent) and
    guards moderately non-stationary starts.
    """
    if len(n_list) == 0:
        raise ValueError("n_list must hold at least one lag")
    if j_scan is None:
        j_scan = past_window + J_SCAN_EXTRA
    if j_scan < 1:
        raise ValueError(f"j_scan must be at least 1, got {j_scan}")
    vals = []
    for n in n_list:
        a = max(
            alpha_window(chain, j, n, past_window, future_window)
            for j in range(1, j_scan + 1)
        )
        vals.append((int(n), a))
    meta = f"windows=({past_window},{future_window}), j_scan=1..{j_scan}; lower bounds"
    return AlphaProfile(values=tuple(vals), kind="exact-window", meta=meta)


def doeblin_certificate(chain: MarkovChainSpec):
    """Smallest power r <= DOEBLIN_MAX_POWER whose transition power has positive
    column mass, with the per-step contraction rate rho = (1 - eps)^(1/r).

    Returns (r, eps, rho) or None when no power certifies minorization.
    """
    p = np.eye(chain.n_states)
    for r in range(1, DOEBLIN_MAX_POWER + 1):
        p = p @ chain.transition
        eps = float(p.min(axis=0).sum())
        if eps > 0.0:
            rho = (1.0 - eps) ** (1.0 / r)
            return r, eps, rho
    return None


def alpha_bound_geometric(chain: MarkovChainSpec, n_list) -> AlphaProfile:
    """Analytic upper envelope alpha(n) <= min(1/4, C rho^n).

    From a Doeblin minorization of power r with mass eps: the Dobrushin
    contraction gives total-variation distance (1-eps)^floor(n/r) between
    n-step laws, and the covariance bound |P(A&B) - P(A)P(B)| <= osc/4
    turns it into alpha(n) <= (1/4)(1-eps)^(n/r - 1) = C rho^n with
    rho = (1-eps)^(1/r) and C = (1/4)/rho^r.  Chains without a
    certificate fall back to the trivial envelope 1/4.
    """
    cert = doeblin_certificate(chain)
    if cert is None:
        vals = tuple((int(n), 0.25) for n in n_list)
        return AlphaProfile(vals, kind="analytic-bound", meta="no Doeblin certificate; trivial 1/4")
    r, eps, rho = cert
    vals = []
    for n in n_list:
        n = int(n)
        if eps >= 1.0:
            b = 0.25 if n < r else 0.0
        else:
            b = min(0.25, 0.25 * rho ** (n - r))
        vals.append((n, b))
    meta = f"Doeblin power r={r}, eps={eps:.6g}, rho={rho:.6g}, C=(1/4)/rho^r"
    return AlphaProfile(tuple(vals), kind="analytic-bound", meta=meta)
