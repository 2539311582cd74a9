"""Dependence coefficients for finite-state Markov chains.

Two complementary routes bracket the mixing coefficient
alpha(n) = sup_j alpha(sigma(X_1..X_j), sigma(X_{j+n}, ...)) of a chain:

* exact values at each j: the coefficient between the whole past up to
  time j and the whole future from time j+n is that of the pair
  (X_j, X_{j+n}), for any window (see alpha_window).  Only their max over
  a finite j range is a LOWER bound, for the sup over every j.
* Dobrushin's envelope alpha(n) <= delta(P^n)/4 (see alpha_bound_geometric):
  an UPPER bound for every start and every j.

Reports always label which side of the true coefficient a number sits on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .probcore import PASSING, FiniteJointDistribution, _freeze, alpha_exact, judge

STOCHASTIC_TOL = 1e-12
J_SCAN = 11
ENVELOPE_SLACK = 1e-12         # rounding room of alpha_report's window <= envelope rule


@dataclass(frozen=True)
class MarkovChainSpec:
    """Finite chain: real state labels, row-stochastic transition, initial law."""

    states: np.ndarray
    transition: np.ndarray
    initial: np.ndarray

    def __post_init__(self):
        s, p, pi0 = _freeze(self, "states", "transition", "initial")
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


def _rounding_margin(k: int, n: int) -> float:
    """Rounding room of alpha_bound_geometric's delta(P^n)/4, for a k-state P
    whose rows sum to 1 within STOCHASTIC_TOL.  A float product of nonnegative
    k x k matrices is entrywise within relative g = k u / (1 - k u), u = 2^-53,
    of the exact product of its factors; however matrix_power groups them,
    P^n is a tree of n - 1 products, so each computed row is within
    e = ((1 + g)^(n-1) - 1)(1 + STOCHASTIC_TOL)^n of the exact one in l1, and
    summing k rounded differences loses relative g more: below the cap, delta/4
    is within g/2 + e/4 of the value computed.  The margin g + e doubles that,
    which covers the last addition, this formula and underflow (2^-1074 units).
    """
    g = k * 2.0 ** -53 / (1.0 - k * 2.0 ** -53)
    return g + math.expm1((n - 1) * math.log1p(g)) * math.exp(n * STOCHASTIC_TOL)


def alpha_bound_geometric(chain: MarkovChainSpec, n_list) -> AlphaProfile:
    """Dobrushin's upper envelope alpha(n) <= min(1/4, delta(P^n)/4 plus the
    _rounding_margin), delta(Q) = max over x, x' of TV(Q(x, .), Q(x', .))
    (Dobrushin 1956; Bradley 2007, Vol. 1).  Proof, in the notation of
    alpha_window: P(AB) - P(A)P(B) = sum_x mu_j(x) f(x) h(x), with mu_j the
    law of X_j and h = P^n g - mu_{j+n} g.  Under mu_j, h has mean 0, and as g
    lies in [0, 1], h(x) - h(x') = sum_y (P^n(x, y) - P^n(x', y)) g(y) <= delta(P^n).
    With f in [0, 1] the sum lies in [-E[h-], E[h+]], and E[h-] = E[h+].  Between
    m = min h <= 0 <= M = max h the chord gives h+ <= M (h - m)/(M - m), so
    E[h+] <= M (-m)/(M - m) <= (M - m)/4 <= delta/4.  This holds for every j,
    so it bounds alpha(n), the sup over j, from any initial law, and so any
    function of the chain, whose sigma-fields are smaller.  delta is
    submultiplicative, so the profile is nonincreasing; each value is the
    least bound at a listed lag up to n, which keeps it so as the margin grows
    with n.  A periodic or reducible chain has delta = 1 and gets 1/4.
    """
    k, at, bound = chain.n_states, {}, 0.25
    for n in sorted({int(n) for n in n_list}):
        q = np.linalg.matrix_power(chain.transition, n)
        # 2 delta(q), one row against the rows below it at a time: O(K^2) memory
        l1 = max((np.abs(q[x] - q[x + 1:]).sum(axis=1).max() for x in range(k - 1)), default=0.0)
        bound = at[n] = min(bound, float(l1) / 8.0 + _rounding_margin(k, n))
    meta = "Dobrushin: alpha(n) <= delta(P^n)/4 + rounding margin, delta = max row TV of P^n"
    return AlphaProfile(tuple((int(n), at[int(n)]) for n in n_list), kind="analytic-bound", meta=meta)


def alpha_report(chain: MarkovChainSpec, n_list, j_scan: int = J_SCAN) -> list:
    """Rows {n, alpha, kind, claim, pass} of the window values (eq1), then of the
    envelope (eq2); both rows at n pass iff the window is <= envelope + ENVELOPE_SLACK."""
    profile = alpha_sequence(chain, n_list, j_scan)
    bound = alpha_bound_geometric(chain, n_list)
    ok = {n: judge(a, bound.alpha_at(n), ENVELOPE_SLACK) in PASSING for n, a in profile.values}
    return [
        {"n": n, "alpha": a, "kind": p.kind, "claim": claim, "pass": ok[n]}
        for p, claim in ((profile, "eq1_window_alpha"), (bound, "eq2_analytic_bound"))
        for n, a in p.values
    ]
