"""Optimal finite-space coupling and the near-independence bound.

Given a joint law of (X, Z) on finite atom sets, a tolerance epsilon, a
finite net a_1..a_N covering a set D of X-atoms with P(X in D) >= 1 -
delta, the coupling problem asks for a third variable Y with the same
law as X, independent of Z, making P(|X - Y| > 2 eps) small.  The
existence bound is

    P(|X - Y| > 2 eps) <= delta + 4 sqrt(N) alpha(X, Z)

and the artifact realizes the OPTIMAL such Y by a transportation-style
linear program over joint pmfs of (X, Z, Y): minimizing the miss
probability subject to the (X, Z)-marginal constraint and the
independence-with-correct-law constraint on (Y, Z).  Any variable the
existence argument produces is feasible for this program, so the
optimum inherits the bound; a violation is a correctness error, not a
tolerance issue.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import processes, rngstreams
from .probcore import (
    FiniteJointDistribution, alpha_exact, empirical_cdf, ks_distance, normal_cdf,
)

RESIDUAL_TOL = 1e-9
VAR_LIMIT = 8000               # largest LP (nx * nz * nx variables) solve_coupling accepts


class CouplingBoundError(RuntimeError):
    """The LP optimum exceeded the existence bound: a build-stopping bug."""


@dataclass(frozen=True)
class CouplingProblem:
    joint: FiniteJointDistribution
    epsilon: float
    net: np.ndarray
    delta: float

    def __post_init__(self):
        net = np.asarray(self.net, dtype=float)
        if net.ndim == 1:
            net = net[:, None]
        net.flags.writeable = False
        object.__setattr__(self, "net", net)
        if self.epsilon <= 0:
            raise ValueError("epsilon must be positive")
        if not 0.0 <= self.delta < 1.0:
            raise ValueError("delta must lie in [0, 1)")
        if net.shape[1] != self.joint.atoms_x.shape[1]:
            raise ValueError("net points and X atoms must share a dimension")
        # D = the X atoms covered by the net within epsilon; it must carry
        # at least 1 - delta of the X mass
        dist = np.linalg.norm(
            self.joint.atoms_x[:, None, :] - net[None, :, :], axis=2
        ).min(axis=1)
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
        t = np.asarray(self.triple_pmf, dtype=float)
        t.flags.writeable = False
        object.__setattr__(self, "triple_pmf", t)


def solve_coupling(problem: CouplingProblem) -> CouplingSolution:
    """Exact minimizer of P(|X - Y| > 2 eps) under the coupling constraints.

    Solved with the HiGHS simplex backend; the returned solution is
    re-certified arithmetically (marginal and independence residuals
    below 1e-9) and checked against the existence bound.
    """
    # imported here, so that only coupling suites load the LP solver
    import scipy.optimize
    import scipy.sparse

    joint = problem.joint
    ax, az = joint.atoms_x, joint.atoms_z
    nx, nz = ax.shape[0], az.shape[0]
    nvar = nx * nz * nx
    if nvar > VAR_LIMIT:
        raise ValueError(f"LP has {nvar} variables, above the limit {VAR_LIMIT}")
    # variable (i, k, j) = P(X = x_i, Z = z_k, Y = x_j) sits at (i * nz + k) * nx + j;
    # rows 0..nx*nz-1 sum it over j to P(X = x_i, Z = z_k), the next nz*nx rows
    # sum it over i to P(Z = z_k) P(X = x_j)
    miss = np.linalg.norm(ax[:, None, :] - ax[None, :, :], axis=2) > 2 * problem.epsilon
    cost = np.broadcast_to(miss[:, None, :], (nx, nz, nx)).ravel().astype(float)
    A = scipy.sparse.vstack([
        scipy.sparse.kron(scipy.sparse.identity(nx * nz), np.ones((1, nx))),
        scipy.sparse.kron(np.ones((1, nx)), scipy.sparse.identity(nz * nx)),
    ], format="csr")
    rhs = np.concatenate([joint.pmf.ravel(), np.outer(joint.margin_z, joint.margin_x).ravel()])
    res = scipy.optimize.linprog(cost, A_eq=A, b_eq=rhs, bounds=(0, None), method="highs")
    if not res.success:
        raise RuntimeError(f"LP solver failed: {res.message}")
    t = np.clip(res.x, 0.0, None)
    resid = A @ t - rhs
    n_marg = nx * nz
    residual_marginal = float(np.max(np.abs(resid[:n_marg])))
    residual_independence = float(np.max(np.abs(resid[n_marg:])))
    if max(residual_marginal, residual_independence) > RESIDUAL_TOL:
        raise RuntimeError(
            f"LP solution failed feasibility certification: residuals "
            f"({residual_marginal:.3e}, {residual_independence:.3e}) above {RESIDUAL_TOL}"
        )
    objective = float(cost @ t)
    alpha = alpha_exact(joint)
    bound = problem.delta + 4.0 * np.sqrt(problem.n_net) * alpha
    if objective > bound + RESIDUAL_TOL:
        raise CouplingBoundError(
            f"optimal miss probability {objective!r} exceeds the existence bound "
            f"{bound!r}; the coupling construction is broken"
        )
    return CouplingSolution(
        triple_pmf=t.reshape(nx, nz, nx),
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
    residual_marginal, residual_independence, pass}.
    """
    if len(cases) == 0:
        raise ValueError("a coupling suite needs at least one case")
    rows = []
    for case_id, problem in enumerate(cases):
        sol = solve_coupling(problem)
        ok = (
            sol.objective <= sol.bound + RESIDUAL_TOL
            and sol.residual_marginal < RESIDUAL_TOL
            and sol.residual_independence < RESIDUAL_TOL
        )
        rows.append({
            "case_id": case_id,
            "objective": sol.objective,
            "bound": sol.bound,
            "alpha": sol.alpha,
            "N": sol.n_net,
            "delta": sol.delta,
            "residual_marginal": sol.residual_marginal,
            "residual_independence": sol.residual_independence,
            "pass": ok,
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
    alpha_bound} per grid point.

    modes:
      independent   X and Z are normalized sums of two independent paths;
                    reference = closed-form N(0, 2).
      lagged_blocks X and Z are normalized sums of two blocks of ONE path
                    separated by a growing lag; reference = the resampled
                    independent convolution (X + shuffled Z), so the KS
                    statistic isolates the dependence.  One row per lag.
      duplicate     negative control Z = X: the sum is 2X and must NOT
                    fit the convolution.
    """
    rows = []
    n02_cdf = lambda v: normal_cdf(v / np.sqrt(2.0))    # the closed-form N(0, 2)
    if mode == "independent":
        x = processes.normalized_sums(spec_x, n, replications, seed, "corr-x")
        z = processes.normalized_sums(spec_z if spec_z is not None else spec_x,
                                      n, replications, seed + 1, "corr-z")
        ks = ks_distance(x + z, n02_cdf)
        rows.append({"grid": n, "ks": ks, "reference": "closed-form N(0,2)",
                     "alpha_bound": 0.0})
    elif mode == "duplicate":
        x = processes.normalized_sums(spec_x, n, replications, seed, "corr-x")
        ks = ks_distance(2.0 * x, n02_cdf)
        rows.append({"grid": n, "ks": ks, "reference": "closed-form N(0,2)",
                     "alpha_bound": 0.25})
    elif mode == "lagged_blocks":
        if block_length < 1:
            raise ValueError(f"block_length must be at least 1, got {block_length}")
        if len(lags) == 0 or min(lags) < 0:
            raise ValueError(f"lags must be a nonempty list of nonnegative integers, got {list(lags)}")
        norming = processes.norming_for(spec_x)
        nb = block_length
        horizon = 2 * nb + int(max(lags))
        paths = processes.simulate_many(spec_x, horizon, replications, seed, label="corr-lag")
        shuffle = rngstreams.stream(seed, "corr-shuffle").permutation(replications)
        alpha_env = processes.analytic_alpha_profile(spec_x, sorted({int(L) + 1 for L in lags}))
        x = norming.normalized_sum(paths[:, :nb])
        for lag in lags:
            lag = int(lag)
            z = norming.normalized_sum(paths[:, nb + lag : 2 * nb + lag])
            ks = ks_distance(x + z, empirical_cdf(x + z[shuffle]))
            rows.append({"grid": lag, "ks": ks,
                         "reference": "resampled independent convolution",
                         "alpha_bound": alpha_env.alpha_at(lag + 1)})
    else:
        raise ValueError(f"unknown mode {mode!r}")
    return rows
