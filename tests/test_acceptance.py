"""Acceptance criteria, one test per criterion, with stated tolerances.

Each test prints a single PASS line (or fails with the offending
numbers).  Monte Carlo criteria use fixed seeds, so the suite is
deterministic.
"""

import json
import os
import time

import numpy as np
import pytest
import scipy.integrate
import scipy.optimize
import scipy.stats

from mixlimit import blocking, coupling, harness, mixing, processes, selfdecomp
from mixlimit.probcore import FiniteJointDistribution, alpha_exact, ks_distance

A_SQRT = lambda n: np.asarray(n, dtype=float) ** -0.5
IID = processes.ProcessSpec(family="iid")
AR1 = processes.ProcessSpec(family="ar1", phi=0.5)


def report(criterion, ok, detail):
    line = f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


def brute_alpha(pmf):
    pmf = np.asarray(pmf, dtype=float)
    nx, nz = pmf.shape
    px, pz = pmf.sum(axis=1), pmf.sum(axis=0)
    best = 0.0
    for ma in range(1 << nx):
        a = [i for i in range(nx) if ma >> i & 1]
        for mb in range(1 << nz):
            b = [k for k in range(nz) if mb >> k & 1]
            pab = pmf[np.ix_(a, b)].sum() if a and b else 0.0
            pa = px[a].sum() if a else 0.0
            pb = pz[b].sum() if b else 0.0
            best = max(best, abs(pab - pa * pb))
    return best


def test_criterion_1_exact_alpha_oracle_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2026)
    worst = 0.0
    for seed in range(10):
        for shape in ((2, 2), (3, 3)):
            pmf = rng.random(shape)
            pmf /= pmf.sum()
            j = FiniteJointDistribution(np.arange(shape[0]), np.arange(shape[1]), pmf)
            worst = max(worst, abs(alpha_exact(j) - brute_alpha(pmf)))
    chain = mixing.MarkovChainSpec([0.0, 1.0], [[0.75, 0.25], [0.25, 0.75]], [0.5, 0.5])
    window_err = max(
        abs(mixing.alpha_window(chain, 1, n) - 0.25 * 0.5 ** n) for n in (1, 2, 3)
    )
    elapsed = time.perf_counter() - t0
    report(
        1,
        worst <= 1e-12 and window_err <= 1e-12 and elapsed < 1.0,
        f"enum gap {worst:.2e}, window gap {window_err:.2e}, {elapsed:.2f}s",
    )


def test_criterion_2_leading_block_construction():
    t0 = time.perf_counter()
    c = 0.5
    assert blocking.compute_m(A_SQRT, c, 100) == 25
    ns = np.arange(4, 10_001)
    ms = blocking.compute_m_profile(A_SQRT, c, ns)
    a = A_SQRT(np.arange(1, 10_002, dtype=float))
    an = a[ns - 1]
    am = a[ms - 1]
    nontrivial = ms > 1
    sandwich_low = np.all(an[nontrivial] <= c * am[nontrivial] + 1e-15)
    next_ok = ms + 1 <= ns - 1
    sel = nontrivial & next_ok
    sandwich_high = np.all(an[sel] / a[ms[sel]] > c)
    m_last = ms[-1]
    gap = abs(an[-1] / a[m_last - 1] - c)
    elapsed = time.perf_counter() - t0
    report(
        2,
        bool(sandwich_low and sandwich_high) and m_last == 2500
        and gap < 0.05 * c and elapsed < 1.0,
        f"m_100=25, m_10000={m_last}, |ratio-c|={gap:.2e}, {elapsed:.2f}s",
    )


def test_criterion_3_infinitesimality_levels():
    tail = lambda n, d: 2 * scipy.stats.norm.sf(np.asarray(d) * np.sqrt(n))
    deltas = blocking.compute_deltas(tail, 10_000, grid_step=0.01)
    d100 = deltas[99]
    monotone = bool(np.all(np.diff(deltas[9:]) <= 1e-15))
    ns = np.arange(10, 10_001)
    defining = bool(np.all(tail(ns, deltas[ns - 1]) <= deltas[ns - 1] + 1e-15))
    report(
        3,
        d100 == pytest.approx(0.15, abs=1e-12) and monotone and defining,
        f"delta_100={d100}, monotone={monotone}, defining inequality={defining}",
    )


def test_criterion_4_blocking_identity():
    t0 = time.perf_counter()
    rng = np.random.default_rng(7)
    chain = mixing.MarkovChainSpec([-1.0, 2.0], [[0.6, 0.4], [0.3, 0.7]], [0.5, 0.5])
    specs = [
        IID,
        processes.ProcessSpec(family="iid", innovations=processes.InnovationLaw("uniform")),
        processes.ProcessSpec(family="iid", innovations=processes.InnovationLaw("rademacher")),
        AR1,
        processes.ProcessSpec(family="ar1", phi=-0.4),
        processes.ProcessSpec(family="ma_q", weights=(1.0, 1.0)),
        processes.ProcessSpec(family="ma_q", weights=(0.5, -0.2, 1.1)),
        processes.ProcessSpec(family="markov_function", chain=chain),
    ]
    worst = 0.0
    paths_done = 0
    per_spec = 125
    for si, spec in enumerate(specs):
        nm = processes.norming_for(spec)
        tailf = processes.marginal_abs_tail(spec)
        plan = blocking.make_plan(nm, tailf, 0.5, (64, 256))
        for r in range(per_spec):
            n = int(rng.choice([64, 256]))
            path = processes.simulate_many(spec, 256, 1, seed=1000 * si + r)[0]
            assert not plan.is_pre_asymptotic(n)
            i = plan.index_of(n)
            split = blocking._three_blocks(path, nm, int(plan.m[i]), int(plan.q[i]), n)
            worst = max(worst, blocking._identity_relerr(*split))
            paths_done += 1
    elapsed = time.perf_counter() - t0
    report(
        4,
        paths_done == 1000 and worst <= 1e-9 and elapsed < 10.0,
        f"{paths_done} paths, worst relative identity error {worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_5_separating_block_ceiling():
    t0 = time.perf_counter()
    grid, reps = (256, 512, 1024, 2048, 4096), 10_000
    reports = {
        "iid": blocking.verify_blocking(IID, c=0.5, n_grid=grid, replications=reps, seed=2026),
        "ar1": blocking.verify_blocking(AR1, c=0.5, n_grid=grid, replications=reps, seed=2027),
    }
    worst_excess = -np.inf
    p_at_top = {}
    for fam, rows in reports.items():
        step5 = {r["n"]: r for r in rows if r["metric_name"] == "step5_v_exceed_prob"}
        for n in (256, 512, 1024, 2048, 4096):
            row = step5[n]
            p = row["value"]
            se = np.sqrt(max(p * (1 - p), 0.0) / reps)
            worst_excess = max(worst_excess, p - (row["analytic_ceiling"] + 3 * se))
            if n == 4096:
                p_at_top[fam] = p
    elapsed = time.perf_counter() - t0
    report(
        5,
        worst_excess <= 0 and all(p <= 0.05 for p in p_at_top.values()) and elapsed < 300,
        f"max excess over ceiling {worst_excess:.3e}, "
        f"P at n=4096: {p_at_top}, {elapsed:.1f}s",
    )


def test_criterion_6_theorem_end_to_end():
    t0 = time.perf_counter()
    n, reps, c = 4096, 10_000, 0.5
    nm = processes.norming_for(AR1)
    paths = processes.simulate_many(AR1, n, reps, seed=2028, label="acceptance6")
    a_n = float(nm.a_values(np.array([n]))[0])
    total = a_n * paths.sum(axis=1)
    ks_total = ks_distance(total, scipy.stats.norm.cdf)

    tailf = processes.marginal_abs_tail(AR1)
    plan = blocking.make_plan(nm, tailf, c, (256, 512, 1024, 2048, 4096))
    i = plan.index_of(n)
    m = int(plan.m[i])
    a_m = float(nm.a_values(np.array([m]))[0])
    u = (a_n / a_m) * (a_m * paths[:, :m].sum(axis=1))
    ks_u = ks_distance(u, lambda x: scipy.stats.norm.cdf(np.asarray(x) / c))

    sd_report = selfdecomp.selfdecomp_test_sample(
        total, (0.3, 0.5, 0.8),
        grid_radius=selfdecomp.DEFAULT_EMPIRICAL_RADIUS,
    )
    min_eig = min(r["worst_violation"] for r in sd_report["per_c"])
    elapsed = time.perf_counter() - t0
    report(
        6,
        ks_total <= 0.03 and ks_u <= 0.04
        and sd_report["verdict"] == "pass" and min_eig >= -1e-3 and elapsed < 600,
        f"KS(total)={ks_total:.4f} (<=0.03), KS(U)={ks_u:.4f} (<=0.04), "
        f"CF-ratio min eig {min_eig:.2e} (>=-1e-3), {elapsed:.1f}s",
    )


def test_criterion_7_cf_ratio_discrimination():
    t0 = time.perf_counter()
    gauss = lambda t: np.exp(-np.asarray(t, dtype=float) ** 2 / 2.0)
    expo = lambda t: 1.0 / (1.0 - 1j * np.asarray(t, dtype=float))
    unif = lambda t: np.sinc(np.asarray(t, dtype=float) / np.pi)
    rep_g = selfdecomp.selfdecomp_test(gauss, (0.3, 0.5, 0.8))
    rep_e = selfdecomp.selfdecomp_test(expo, (0.3, 0.5, 0.8))
    rep_u = selfdecomp.selfdecomp_test(unif, (0.3, 0.5, 0.8), grid_radius=8.0)
    by_c = {r["c"]: r["worst_violation"] for r in rep_u["per_c"]}
    # magnitudes pinned by the exact-formula eigen-oracle before the build
    pinned = abs(by_c[0.3] + 12.698861) < 1e-3 and abs(by_c[0.8] + 12.542182) < 1e-3
    elapsed = time.perf_counter() - t0
    report(
        7,
        rep_g["verdict"] == "pass" and rep_e["verdict"] == "pass"
        and rep_u["verdict"] == "fail" and pinned and elapsed < 1.0,
        f"gaussian/exponential pass, uniform fails with violations "
        f"{by_c[0.3]:.3f}, {by_c[0.8]:.3f}, {elapsed:.2f}s",
    )


def test_criterion_8_random_integral_sampler():
    t0 = time.perf_counter()
    drift_sample = selfdecomp.sample_random_integral(
        selfdecomp.BDLPSpec(drift=2.0), 20.0, 37, 100, seed=1
    )
    drift_err = float(np.max(np.abs(drift_sample - 2.0 * (1 - np.exp(-20.0)))))

    gauss_sample = selfdecomp.sample_random_integral(
        selfdecomp.BDLPSpec(gaussian_sigma=1.0), 20.0, 400, 100_000, seed=2
    )
    gauss_var = float(gauss_sample.var())

    cp_sample = selfdecomp.sample_random_integral(
        selfdecomp.BDLPSpec(jump_rate=1.0, jump_law=selfdecomp.DiscreteJumps((-1.0, 1.0), (0.5, 0.5))),
        20.0, 50, 100_000, seed=3,
    )
    cp_var = float(cp_sample.var())

    probe = selfdecomp.log_moment_check(
        selfdecomp.BDLPSpec(jump_rate=1.0, jump_law=selfdecomp.DyadicTowerJumps()),
        100_000, seed=4,
    )
    elapsed = time.perf_counter() - t0
    report(
        8,
        drift_err <= 1e-8
        and abs(gauss_var - 0.5) <= 0.03 * 0.5
        and abs(cp_var - 0.5) <= 0.05 * 0.5
        and probe["diagnostic"] == "suspect-infinite" and elapsed < 60,
        f"drift err {drift_err:.1e}, gaussian var {gauss_var:.4f}, "
        f"cp var {cp_var:.4f}, divergence probe fired, {elapsed:.1f}s",
    )


def test_criterion_9_coupling_bound():
    t0 = time.perf_counter()
    fair = coupling.CouplingProblem(
        joint=FiniteJointDistribution([0.0, 1.0], [0.0, 1.0], [[0.5, 0.0], [0.0, 0.5]]),
        epsilon=0.4, net=[0.0, 1.0], delta=0.0,
    )
    sol = coupling.solve_coupling(fair)
    fair_ok = (
        abs(sol.objective - 0.5) <= 1e-9
        and sol.objective <= 4 * np.sqrt(2) * 0.25
    )
    rng = np.random.default_rng(11)
    atoms = np.array([0.0, 1.0, 2.0])
    cases = []
    for _ in range(10):
        pmf = rng.random((3, 3))
        pmf /= pmf.sum()
        cases.append(coupling.CouplingProblem(
            joint=FiniteJointDistribution(atoms, atoms, pmf),
            epsilon=0.4, net=atoms, delta=0.0,
        ))
    suite = coupling.verify_prop1_suite(cases)
    resid = max(max(r["residual_marginal"], r["residual_independence"])
                for r in suite["cases"])
    elapsed = time.perf_counter() - t0
    report(
        9,
        fair_ok and suite["all_pass"] and resid < 1e-9 and elapsed < 10.0,
        f"fair-bit objective {sol.objective}, suite residuals {resid:.1e}, {elapsed:.1f}s",
    )


def test_criterion_10_convolution_fit_and_negative_control():
    t0 = time.perf_counter()
    rep_ind = coupling.corollary_sum_experiment(
        IID, IID, mode="independent", n=256, replications=100_000, seed=12,
    )
    ks_ind = rep_ind[0]["ks"]

    res = scipy.optimize.minimize_scalar(
        lambda x: -abs(scipy.stats.norm.cdf(x / 2) - scipy.stats.norm.cdf(x / np.sqrt(2))),
        bounds=(0.1, 5.0), method="bounded",
    )
    oracle = -res.fun
    rep_dup = coupling.corollary_sum_experiment(
        IID, mode="duplicate", n=256, replications=100_000, seed=13,
    )
    ks_dup = rep_dup[0]["ks"]
    elapsed = time.perf_counter() - t0
    report(
        10,
        ks_ind < 0.02 and abs(ks_dup - oracle) <= 0.01 and ks_dup > 0.05 and elapsed < 60,
        f"independent KS {ks_ind:.4f} (<0.02), control KS {ks_dup:.4f} "
        f"vs oracle {oracle:.4f} (+/-0.01, >0.05), {elapsed:.1f}s",
    )


def test_criterion_11_reproducibility(tmp_path):
    configs = [
        {"kind": "blocking-verify", "seed": 21, "process": {"family": "ar1", "phi": 0.5},
         "c": 0.5, "n_grid": [256, 512], "replications": 2000},
        {"kind": "selfdecomp-test", "seed": 22, "c_values": [0.3, 0.5, 0.8],
         "cf_form": "exponential"},
        {"kind": "integral-sample", "seed": 23, "bdlp": {"gaussian_sigma": 1.0},
         "t_max": 20.0, "n_steps": 64, "n_samples": 50, "log_moment_samples": 2000},
    ]
    identical = True
    for i, cfg in enumerate(configs):
        p = tmp_path / f"cfg{i}.json"
        p.write_text(json.dumps(cfg))
        outs = []
        for run_dir in (f"r{i}a", f"r{i}b"):
            code = harness.run(str(p), out_dir=str(tmp_path / run_dir))
            assert code == 0
            tree = {}
            for dirpath, _, files in os.walk(tmp_path / run_dir):
                for f in files:
                    with open(os.path.join(dirpath, f), "rb") as fh:
                        tree[f] = fh.read()
            outs.append(tree)
        identical = identical and outs[0] == outs[1]
    report(11, identical, f"{len(configs)} experiment kinds rerun byte-identically")
