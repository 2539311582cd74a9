"""Optimal finite-space coupling and the near-independence bound.

Given a joint law of (X, Z) on finite scalar atom sets, a tolerance
epsilon, a finite net a_1..a_N covering a set D of X-atoms with
P(X in D) >= 1 - delta, the coupling problem asks for a third variable Y
with the same law as X, independent of Z, making P(|X - Y| > 2 eps)
small.  The existence bound is

    P(|X - Y| > 2 eps) <= delta + 4 sqrt(N) alpha(X, Z)

and the artifact realizes the OPTIMAL such Y, by one exact greedy
transport per Z atom (solve_coupling).  Any variable the existence
argument produces is feasible for that problem, so the optimum inherits
the bound; a violation fails the case's pass flag in the suite report.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import processes, rngstreams
from .probcore import (PASSING, FiniteJointDistribution, _freeze, alpha_exact, empirical_cdf, judge,
                       ks_distance)

RESIDUAL_TOL = 1e-9
VAR_LIMIT = 8000               # entries (nx * nz * nx) of the largest plan solve_coupling holds

# the corollary-sum pass rule: a convolution fit is within COROLLARY_KS_TOL,
# the duplicate negative control is beyond NEGATIVE_CONTROL_MIN_KS
COROLLARY_KS_TOL = 0.02
NEGATIVE_CONTROL_MIN_KS = 0.05


@dataclass(frozen=True)
class CouplingProblem:
    joint: FiniteJointDistribution
    epsilon: float
    net: np.ndarray
    delta: float

    def __post_init__(self):
        net, = _freeze(self, "net")
        if net.ndim != 1 or net.shape[0] == 0:
            raise ValueError(f"net must be a nonempty vector of points, got shape {net.shape}")
        if self.epsilon <= 0:
            raise ValueError("epsilon must be positive")
        if not 0.0 <= self.delta < 1.0:
            raise ValueError("delta must lie in [0, 1)")
        # D = the X atoms covered by the net within epsilon; it must carry
        # at least 1 - delta of the X mass
        dist = np.abs(self.joint.atoms_x[:, None] - net[None, :]).min(axis=1)
        covered = dist <= self.epsilon + 1e-12
        mass = float(self.joint.margin_x[covered].sum())
        if mass < 1.0 - self.delta - 1e-12:
            raise ValueError(
                f"net covers only mass {mass!r} of X within epsilon; "
                f"needs at least 1 - delta = {1.0 - self.delta!r}"
            )

    @property
    def n_net(self) -> int:
        return self.net.shape[0]


@dataclass(frozen=True)
class CouplingSolution:
    triple_pmf: np.ndarray       # (x, z, y) with y ranging over the X atoms
    objective: float             # P(|X - Y| > 2 eps) at the optimum
    bound: float                 # delta + 4 sqrt(N) alpha
    alpha: float
    n_net: int
    delta: float
    residual_marginal: float
    residual_independence: float

    def __post_init__(self):
        _freeze(self, "triple_pmf")


def _fill(plan, supply, demand, lo, hi) -> None:
    """Move supply onto demand in place: each source i, from the left, fills
    the leftmost target in [lo[i], hi[i]) with demand left.  As lo and hi
    never decrease, a passed target is spent or out of reach for good."""
    j = 0
    for i in range(len(supply)):
        j = max(j, lo[i])
        while supply[i] > 0 and j < hi[i]:
            m = min(supply[i], demand[j])
            plan[i, j] += m
            supply[i] -= m
            demand[j] -= m
            if demand[j] == 0:
                j += 1


def solve_coupling(problem: CouplingProblem) -> CouplingSolution:
    """Exact minimizer of P(|X - Y| > 2 eps) under the coupling constraints.

    For each atom z, the plan moves P(X = ., Z = z) onto P(Z = z) P(X = .),
    and mass moved from x_i to x_j misses when |x_i - x_j| > 2 eps, so the
    least miss is what a maximum flow on the near pairs leaves over; it is
    Strassen's sup_A mu(A) - nu(A^{2 eps}) (Strassen 1965, Ann. Math.
    Statist. 36).  With sorted atoms, the targets near each source form an
    interval whose ends never decrease, and on such a convex bipartite graph
    the left-to-right greedy of _fill is a maximum flow (Glover 1967, Naval
    Res. Logist. Q. 14).  Leftovers are paired in order at cost 1.  The plan
    is re-certified (residuals below RESIDUAL_TOL), and a failure, a solver
    fault, raises; verify_prop1_suite judges the bound.
    """
    joint = problem.joint
    nx, nz = joint.pmf.shape
    if nx * nz * nx > VAR_LIMIT:
        raise ValueError(f"coupling plan has {nx * nz * nx} entries, above the limit {VAR_LIMIT}")
    order = np.argsort(joint.atoms_x, kind="stable")
    xs, px = joint.atoms_x[order], joint.margin_x[order]
    miss = np.abs(xs[:, None] - xs[None, :]) > 2 * problem.epsilon
    lo = (~miss).argmax(axis=1)
    hi = lo + (~miss).sum(axis=1)
    t = np.zeros((nx, nz, nx))
    for k, pz in enumerate(joint.margin_z):
        supply, demand = joint.pmf[order, k], pz * px
        _fill(t[:, k], supply, demand, lo, hi)
        _fill(t[:, k], supply, demand, np.zeros(nx, dtype=int), np.full(nx, nx))
    back = np.argsort(order)              # the plan and miss pairs in the caller's atom order
    t, miss = t[back][:, :, back], miss[np.ix_(back, back)]
    residual_marginal = float(np.max(np.abs(t.sum(axis=2) - joint.pmf)))
    residual_independence = float(np.max(np.abs(
        t.sum(axis=0) - np.outer(joint.margin_z, joint.margin_x))))
    if max(residual_marginal, residual_independence) > RESIDUAL_TOL:
        raise RuntimeError(
            f"coupling plan failed feasibility certification: residuals "
            f"({residual_marginal:.3e}, {residual_independence:.3e}) above {RESIDUAL_TOL}"
        )
    objective = float(np.sum(t, where=miss[:, None, :]))
    alpha = alpha_exact(joint)
    bound = problem.delta + 4.0 * np.sqrt(problem.n_net) * alpha
    return CouplingSolution(
        triple_pmf=t,
        objective=objective,
        bound=float(bound),
        alpha=alpha,
        n_net=problem.n_net,
        delta=problem.delta,
        residual_marginal=residual_marginal,
        residual_independence=residual_independence,
    )


def verify_prop1_suite(cases) -> dict:
    """Solve every coupling case and collect the bound/residual report.

    Returns {"cases": [...], "all_pass": bool}; per-case rows follow the
    JSON schema {case_id, objective, bound, alpha, N, delta,
    residual_marginal, residual_independence, pass, claim}; a case passes iff
    objective <= bound + RESIDUAL_TOL (solve_coupling certified its residuals).
    """
    if len(cases) == 0:
        raise ValueError("a coupling suite needs at least one case")
    rows = []
    for case_id, problem in enumerate(cases):
        sol = solve_coupling(problem)
        rows.append({
            "case_id": case_id,
            "objective": sol.objective,
            "bound": sol.bound,
            "alpha": sol.alpha,
            "N": sol.n_net,
            "delta": sol.delta,
            "residual_marginal": sol.residual_marginal,
            "residual_independence": sol.residual_independence,
            "pass": judge(sol.objective, sol.bound, RESIDUAL_TOL) in PASSING,
            "claim": "prop1_bound",
        })
    return {"cases": rows, "all_pass": all(r["pass"] for r in rows)}


# --------------------------------------------------------------------------
# weakly dependent summands converge to the convolution

def corollary_sum_experiment(
    spec_x: processes.ProcessSpec,
    spec_z: processes.ProcessSpec | None = None,
    mode: str = "independent",
    n: int = 1024,
    lags=(0, 2, 4, 8, 16),
    replications: int = 100_000,
    seed: int = 0,
    block_length: int = 4,
) -> list:
    """Check that sums of weakly dependent normalized variables fit the
    convolution of their limit laws: one row {grid, ks, reference,
    alpha_bound, pass, claim} per grid point.

    modes:
      independent   X and Z are normalized sums of two independent paths;
                    reference = closed-form N(0, 2); passes iff KS <= COROLLARY_KS_TOL.
      lagged_blocks X and Z are normalized sums of two blocks of ONE path
                    separated by a growing lag; reference = the resampled
                    independent convolution (X + shuffled Z), so the KS
                    statistic isolates the dependence.  One row per lag, held to
                    COROLLARY_KS_TOL at the largest lag, pre_asymptotic below it (item 10).
      duplicate     negative control Z = X: the sum is 2X and must NOT fit the
                    convolution; passes iff KS > NEGATIVE_CONTROL_MIN_KS.
    """
    if mode in ("independent", "duplicate"):
        control = mode == "duplicate"
        x = processes.normalized_sums(spec_x, n, replications, seed, "corr-x")
        # the control's X + X is 2.0 * X bit for bit
        z = x if control else processes.normalized_sums(
            spec_z if spec_z is not None else spec_x, n, replications, seed + 1, "corr-z")
        limit = processes.asymptotics(spec_x)[1]
        reference = limit.scaled(2 ** (1 / limit.index))
        ks = ks_distance(x + z, reference.cdf)
        return [{"grid": n, "ks": ks, "reference": f"closed-form {reference.name}",
                 "alpha_bound": 0.25 if control else 0.0,
                 "pass": judge(ks, NEGATIVE_CONTROL_MIN_KS if control else COROLLARY_KS_TOL,
                               negative=control) in PASSING,
                 "claim": "cor1b_negative_control" if control else "cor1b_convolution_fit"}]
    if mode != "lagged_blocks":
        raise ValueError(f"unknown mode {mode!r}")
    if block_length < 1:
        raise ValueError(f"block_length must be at least 1, got {block_length}")
    if len(lags) == 0 or min(lags) < 0:
        raise ValueError(f"lags must be a nonempty list of nonnegative integers, got {list(lags)}")
    lags = [int(lag) for lag in lags]
    nb = block_length
    (a_nb,), (b_nb,) = processes.asymptotics(spec_x)[0].values([nb])
    # the sums of the first block and of the block after each lag
    starts = [0] + [nb + lag for lag in lags]
    sums = processes.window_sums(spec_x, 2 * nb + max(lags), replications, seed, "corr-lag",
                                 [(s, s + nb) for s in starts])
    x, *zs = [a_nb * s + b_nb for s in sums]
    shuffle = rngstreams.stream(seed, "corr-shuffle").permutation(replications)
    alpha_env = processes.analytic_alpha_profile(spec_x, sorted({lag + 1 for lag in lags}))
    rows = []
    for lag, z in zip(lags, zs):
        ks = ks_distance(x + z, empirical_cdf(x + z[shuffle]))
        rows.append({"grid": lag, "ks": ks, "reference": "resampled independent convolution",
                     "alpha_bound": alpha_env.alpha_at(lag + 1),
                     "pass": judge(ks, COROLLARY_KS_TOL, applies=lag == max(lags)) in PASSING,
                     "claim": "cor1b_lagged_convolution"})
    return rows
