"""The benchmark's four workloads, as `mixlimit run` configs.

Every config is built here from fixed numbers and nothing else: the
Monte Carlo seeds are pinned (the README config and the finding-1
repro), so a workload's failed-operation count is the same in every
run.  `configs(name)` returns an ordered list of (label, config dict).
"""

from __future__ import annotations

import math

WORKLOADS = ("blocking-ar1", "blocking-markov", "exact-finite", "limit-laws")

N_GRID = [256, 512, 1024, 2048, 4096]

# README config: three-block verification of a Gaussian AR(1).
AR1_PHI = 0.5

# ROADMAP finding 1: the 3-state chain on which step5's ceiling min(1, q*delta)
# is not implied (q*delta > epsilon), started from the uniform law.
MARKOV_STATES = [-1.0, 2.0, 0.5]
MARKOV_P = [[0.6, 0.3, 0.1], [0.3, 0.6, 0.1], [0.2, 0.2, 0.6]]
MARKOV_INITIAL = [1.0 / 3.0] * 3

# exact-finite: a 4-state chain started off stationarity (state 0), so the
# j scan of the window coefficient is not trivially j-independent.
ALPHA_STATES = [0.0, 1.0, 2.0, 3.0]
ALPHA_P = [
    [0.5, 0.2, 0.2, 0.1],
    [0.2, 0.5, 0.1, 0.2],
    [0.1, 0.2, 0.5, 0.2],
    [0.2, 0.1, 0.2, 0.5],
]
ALPHA_INITIAL = [1.0, 0.0, 0.0, 0.0]
ALPHA_LAGS = list(range(1, 17))
ALPHA_WINDOW = 2
ALPHA_J_SCAN = 4

COUPLING_SIZES = (20, 16, 12)      # 20*20*20 = 8000 LP variables, the default limit
COUPLING_EPS = 0.25
COUPLING_TILT = 0.3

# limit-laws
MA2_WEIGHTS = [1.0, 0.5, 0.25]
BDLP = {
    "drift": 1.0,
    "gaussian_sigma": 1.0,
    "jump_rate": 2.0,
    "jump_law": {"kind": "normal", "mean": 0.5, "std": 1.0},
}
BDLP_T_MAX = 20.0
LAGGED_PHI = 0.5


def _chain(states, transition, initial) -> dict:
    return {"states": states, "transition": transition, "initial": initial}


def _blocking(process: dict, seed: int) -> dict:
    return {
        "kind": "blocking-verify",
        "seed": seed,
        "process": process,
        "c": 0.5,
        "n_grid": N_GRID,
        "replications": 10_000,
    }


def near_independent_pmf(k: int) -> list:
    """A k x k joint pmf with smooth positive margins and a small rank-one tilt.

    pmf = px pz^T + t (px*a)(pz*b)^T with sum(px*a) = sum(pz*b) = 0, so the
    margins are exactly px and pz and the dependence is of order t.
    """
    px = [1.0 + 0.5 * math.sin(1.3 * i) for i in range(k)]
    pz = [1.0 + 0.5 * math.cos(0.7 * j) for j in range(k)]
    sx, sz = sum(px), sum(pz)
    px = [v / sx for v in px]
    pz = [v / sz for v in pz]
    a = [math.cos(2.1 * i) for i in range(k)]
    b = [math.sin(1.7 * j + 0.4) for j in range(k)]
    ma = sum(p * v for p, v in zip(px, a))
    mb = sum(p * v for p, v in zip(pz, b))
    a = [v - ma for v in a]
    b = [v - mb for v in b]
    pmf = [[px[i] * pz[j] * (1.0 + COUPLING_TILT * a[i] * b[j]) for j in range(k)]
           for i in range(k)]
    total = sum(map(sum, pmf))
    return [[v / total for v in row] for row in pmf]


def coupling_case(k: int) -> dict:
    # atoms sit at 0..k-1, so with epsilon = 1/4 a miss is any Y != X and the
    # net must hold every atom (N = k, delta = 0)
    net = [float(x) for x in range(k)]
    return {"pmf": near_independent_pmf(k), "epsilon": COUPLING_EPS, "net": net, "delta": 0.0}


def configs(name: str) -> list:
    if name == "blocking-ar1":
        return [("blocking-ar1", _blocking({"family": "ar1", "phi": AR1_PHI}, 2026))]
    if name == "blocking-markov":
        process = {
            "family": "markov_function",
            "chain": _chain(MARKOV_STATES, MARKOV_P, MARKOV_INITIAL),
        }
        return [("blocking-markov", _blocking(process, 3))]
    if name == "exact-finite":
        return [
            ("alpha-profile", {
                "kind": "alpha-profile",
                "seed": 11,
                "chain": _chain(ALPHA_STATES, ALPHA_P, ALPHA_INITIAL),
                "n_list": ALPHA_LAGS,
                "past_window": ALPHA_WINDOW,
                "future_window": ALPHA_WINDOW,
                "j_scan": ALPHA_J_SCAN,
            }),
            ("coupling-suite", {
                "kind": "coupling-suite",
                "seed": 12,
                "cases": [coupling_case(k) for k in COUPLING_SIZES],
            }),
        ]
    if name == "limit-laws":
        return [
            ("selfdecomp-ma2", {
                "kind": "selfdecomp-test",
                "seed": 21,
                "c_values": [0.3, 0.5, 0.8],
                "process": {"family": "ma_q", "weights": MA2_WEIGHTS},
                "n": 2048,
                "replications": 20_000,
            }),
            ("integral-sample", {
                "kind": "integral-sample",
                "seed": 22,
                "bdlp": BDLP,
                "t_max": BDLP_T_MAX,
                "n_steps": 400,
                "n_samples": 100_000,
            }),
            ("corollary-lagged", {
                "kind": "corollary-sum",
                "seed": 23,
                "mode": "lagged_blocks",
                "process_x": {"family": "ar1", "phi": LAGGED_PHI},
                "replications": 200_000,
            }),
            ("corollary-independent", {
                "kind": "corollary-sum",
                "seed": 24,
                "mode": "independent",
                "process_x": {"family": "iid"},
                "n": 256,
                "replications": 100_000,
            }),
        ]
    raise KeyError(f"unknown workload {name!r}")
