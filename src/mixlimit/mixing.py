"""Dependence coefficients for finite-state Markov chains.

Two complementary routes bracket the mixing coefficient
alpha(n) = sup_j alpha(sigma(X_1..X_j), sigma(X_{j+n}, ...)) of a chain:

* exact values at each j: the coefficient between the whole past up to
  time j and the whole future from time j+n is that of the pair
  (X_j, X_{j+n}), for any window (see alpha_window).  Only their max over
  a finite j range is a LOWER bound, for the sup over every j.
* an analytic geometric envelope from a Doeblin minorization: an UPPER
  bound alpha(n) <= min(1/4, C * rho^n).

Reports always label which side of the true coefficient a number sits on.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .probcore import FiniteJointDistribution, alpha_exact

STOCHASTIC_TOL = 1e-12
DOEBLIN_MAX_POWER = 8
J_SCAN = 11


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
        for name, a in (("states", s), ("initial", pi0)):
            if a.ndim != 1:
                raise ValueError(f"{name} must be a vector, got shape {a.shape}")
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

    kind is "exact-window" (the max over a finite j range of the exact
    coefficient at j: a lower bound) or "analytic-bound" (upper envelope).
    """

    values: tuple          # ((n, alpha), ...)
    kind: str
    meta: str = ""

    def __post_init__(self):
        if self.kind not in ("exact-window", "analytic-bound"):
            raise ValueError(f"unknown profile kind {self.kind!r}")
        alphas = [a for _, a in sorted(self.values)]    # in order of n
        if any(a < -1e-12 or a > 0.25 + 1e-12 for a in alphas):
            raise ValueError("alpha values must lie in [0, 1/4]")
        if self.kind == "analytic-bound" and np.any(np.diff(alphas) > 1e-12):
            raise ValueError("analytic-bound profiles must be nonincreasing in n")

    def alpha_at(self, n: int) -> float:
        for m, a in self.values:
            if m == n:
                return a
        raise KeyError(f"no value stored for n={n}")


def alpha_window(chain: MarkovChainSpec, j: int, n: int) -> float:
    """Exact coefficient between the past up to time j (X_1 ~ initial) and the
    future from time j+n: that of the pair (X_j, X_{j+n}), for any window
    (Bradley 2005, "Basic properties of strong mixing conditions", Thm 7.3).

    Proof: for a past event A and a future event B, write f(s) = P(A | X_j = s)
    and g(t) = P(B | X_{j+n} = t); both lie in [0,1]^k.  By the Markov property
    P(AB) - P(A)P(B) = f^T D g, where D is the joint of (X_j, X_{j+n}) minus the
    product of its margins.  A bilinear sup over the cube is attained at its
    vertices, which are indicator events of X_j and X_{j+n}.
    """
    if j < 1 or n < 1:
        raise ValueError("j and n must be positive")
    p = chain.transition
    mu_j = chain.initial @ np.linalg.matrix_power(p, j - 1)
    joint = mu_j[:, None] * np.linalg.matrix_power(p, n)
    return alpha_exact(FiniteJointDistribution(chain.states, chain.states, joint))


def alpha_sequence(chain: MarkovChainSpec, n_list, j_scan: int = J_SCAN) -> AlphaProfile:
    """Per n, the max of alpha_window over j = 1 .. j_scan: a lower bound for
    alpha(n), the sup over every j, and exact for chains started at
    stationarity (alpha_window is then j-independent)."""
    if len(n_list) == 0:
        raise ValueError("n_list must hold at least one lag")
    if j_scan < 1:
        raise ValueError(f"j_scan must be at least 1, got {j_scan}")
    vals = []
    for n in n_list:
        a = max(alpha_window(chain, j, n) for j in range(1, j_scan + 1))
        vals.append((int(n), a))
    meta = f"j_scan=1..{j_scan}; exact at each j, a lower bound over all j"
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
