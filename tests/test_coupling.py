from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
import scipy.optimize
import scipy.sparse
import scipy.stats

from mixlimit import coupling, processes
from mixlimit.coupling import (
    CouplingProblem,
    corollary_sum_experiment,
    solve_coupling,
    verify_prop1_suite,
)
from mixlimit.probcore import FiniteJointDistribution
from mixlimit.processes import ProcessSpec
from pathref import one_shot_paths, whole_matrix_sums


def exact_vertex_oracle(pmf_fractions, atoms, two_eps):
    """Enumerate every LP vertex in exact rational arithmetic (2x2 scale)."""
    nx = len(pmf_fractions)
    nz = len(pmf_fractions[0])
    px = [sum(row) for row in pmf_fractions]
    pz = [sum(pmf_fractions[i][k] for i in range(nx)) for k in range(nz)]
    nvar = nx * nz * nx
    vid = lambda i, k, j: (i * nz + k) * nx + j
    rows, rhs = [], []
    for i in range(nx):
        for k in range(nz):
            r = [Fraction(0)] * nvar
            for j in range(nx):
                r[vid(i, k, j)] = Fraction(1)
            rows.append(r)
            rhs.append(pmf_fractions[i][k])
    for k in range(nz):
        for j in range(nx):
            r = [Fraction(0)] * nvar
            for i in range(nx):
                r[vid(i, k, j)] = Fraction(1)
            rows.append(r)
            rhs.append(pz[k] * px[j])
    cost = [
        Fraction(1) if abs(atoms[i] - atoms[j]) > two_eps else Fraction(0)
        for i in range(nx) for k in range(nz) for j in range(nx)
    ]
    m = len(rows)

    def eliminate(mat, ncols):
        piv = 0
        pivcols = []
        for c in range(ncols):
            p = next((r for r in range(piv, len(mat)) if mat[r][c] != 0), None)
            if p is None:
                continue
            mat[piv], mat[p] = mat[p], mat[piv]
            pv = mat[piv][c]
            mat[piv] = [v / pv for v in mat[piv]]
            for r in range(len(mat)):
                if r != piv and mat[r][c] != 0:
                    f = mat[r][c]
                    mat[r] = [a - f * b for a, b in zip(mat[r], mat[piv])]
            pivcols.append(c)
            piv += 1
        return piv, pivcols

    rank, _ = eliminate([row[:] for row in rows], nvar)

    def solve_basis(cols):
        mat = [[rows[r][c] for c in cols] + [rhs[r]] for r in range(m)]
        piv, pivcols = eliminate(mat, len(cols))
        if piv < len(cols):
            return None
        for r in range(piv, m):
            if mat[r][-1] != 0:
                return None
        sol = [mat[pivcols.index(c)][-1] if c in pivcols else Fraction(0)
               for c in range(len(cols))]
        if any(v < 0 for v in sol):
            return None
        return sol

    best = None
    for cols in combinations(range(nvar), rank):
        sol = solve_basis(list(cols))
        if sol is None:
            continue
        obj = sum(c * v for c, v in zip([cost[c] for c in cols], sol))
        if best is None or obj < best:
            best = obj
    return best


def loop_lp(joint, epsilon):
    """(cost, A_eq, b_eq) of the coupling LP, built entry by entry."""
    ax = joint.atoms_x
    nx, nz = joint.pmf.shape
    nvar = nx * nz * nx
    vid = lambda i, k, j: (i * nz + k) * nx + j
    miss = np.abs(ax[:, None] - ax[None, :]) > 2 * epsilon
    cost = np.zeros(nvar)
    rows_a, cols_a, rhs = [], [], []
    r = 0
    for i in range(nx):
        for k in range(nz):
            for j in range(nx):
                rows_a.append(r)
                cols_a.append(vid(i, k, j))
                if miss[i, j]:
                    cost[vid(i, k, j)] = 1.0
            rhs.append(joint.pmf[i, k])
            r += 1
    px, pz = joint.margin_x, joint.margin_z
    for k in range(nz):
        for j in range(nx):
            for i in range(nx):
                rows_a.append(r)
                cols_a.append(vid(i, k, j))
            rhs.append(pz[k] * px[j])
            r += 1
    A = scipy.sparse.csr_matrix((np.ones(len(rows_a)), (rows_a, cols_a)), shape=(r, nvar))
    return cost, A, np.asarray(rhs)


def duality_certificate(joint, epsilon, triple_objective):
    """Verify LP optimality by exhibiting a feasible dual with equal value."""
    cost, A, rhs = loop_lp(joint, epsilon)
    res = scipy.optimize.linprog(cost, A_eq=A, b_eq=rhs, bounds=(0, None), method="highs")
    y = res.eqlin.marginals
    reduced = cost - A.T @ y
    assert np.all(reduced >= -1e-9), "dual infeasibility"
    dual_value = float(rhs @ y)
    assert dual_value == pytest.approx(triple_objective, abs=1e-9)


def joint_2x2(pmf):
    return FiniteJointDistribution([0.0, 1.0], [0.0, 1.0], pmf)


# ---------------------------------------------------------------- solve

def test_independent_joint_objective_zero():
    j = joint_2x2([[0.35, 0.35], [0.15, 0.15]])   # product of (0.7, 0.3) x (0.5, 0.5)
    prob = CouplingProblem(joint=j, epsilon=0.4, net=[0.0, 1.0], delta=0.0)
    sol = solve_coupling(prob)
    assert sol.objective == pytest.approx(0.0, abs=1e-12)
    assert sol.alpha == pytest.approx(0.0, abs=1e-12)


def test_fair_bit_fully_dependent():
    j = joint_2x2([[0.5, 0.0], [0.0, 0.5]])
    prob = CouplingProblem(joint=j, epsilon=0.4, net=[0.0, 1.0], delta=0.0)
    sol = solve_coupling(prob)
    assert sol.objective == pytest.approx(0.5, abs=1e-9)
    assert sol.bound == pytest.approx(4 * np.sqrt(2) * 0.25, abs=1e-12)
    assert sol.objective <= sol.bound
    oracle = exact_vertex_oracle(
        [[Fraction(1, 2), Fraction(0)], [Fraction(0), Fraction(1, 2)]], [0.0, 1.0], Fraction(4, 5)
    )
    assert float(oracle) == 0.5


def reference_objective(joint, epsilon):
    """The loop-built LP solved by HiGHS, or None where its solution
    fails the 1e-9 feasibility certification."""
    cost, A, rhs = loop_lp(joint, epsilon)
    res = scipy.optimize.linprog(cost, A_eq=A, b_eq=rhs, bounds=(0, None), method="highs")
    t = np.clip(res.x, 0.0, None)
    if not res.success or np.max(np.abs(A @ t - rhs)) > coupling.RESIDUAL_TOL:
        return None
    return float(cost @ t)


def random_cases(rng, count, draw_atoms, draw_eps):
    for _ in range(count):
        nx = rng.integers(2, 9)
        nz = rng.integers(1, 6)
        pmf = rng.random((nx, nz)) ** 3
        pmf /= pmf.sum()
        atoms = draw_atoms(nx)
        eps = draw_eps()
        joint = FiniteJointDistribution(atoms, np.arange(nz), pmf)
        yield CouplingProblem(joint=joint, epsilon=eps, net=atoms, delta=0.99)


def assert_optimal_where_highs_certifies(problems):
    certified = 0
    for prob in problems:
        sol = solve_coupling(prob)
        assert max(sol.residual_marginal, sol.residual_independence) < 1e-15
        want = reference_objective(prob.joint, prob.epsilon)
        if want is not None:
            certified += 1
            assert sol.objective == pytest.approx(want, abs=1e-12)
    return certified


def test_every_small_case_certifies_and_matches_the_lp():
    # 17 of these 300 cases once raised "LP solution failed feasibility
    # certification": HiGHS left residuals of 1.2e-9 to 9.5e-8, inside its
    # own 1e-7 feasibility tolerance but above RESIDUAL_TOL
    rng = np.random.default_rng(1)
    cases = random_cases(rng, 300, lambda nx: np.sort(rng.random(nx) * 3),
                         lambda: rng.random() * 0.5 + 0.05)
    assert assert_optimal_where_highs_certifies(cases) > 250


def test_greedy_matches_the_lp_on_unsorted_and_repeated_atoms():
    # atoms on a grid of 0.25, so some pairs sit exactly 2 eps apart
    rng = np.random.default_rng(2)
    cases = random_cases(rng, 200, lambda nx: rng.integers(0, 6, nx) * 0.25,
                         lambda: rng.choice([0.125, 0.25, 0.3, 0.5]))
    assert assert_optimal_where_highs_certifies(cases) > 150


def test_solve_coupling_evaluates_alpha_once(monkeypatch):
    calls = []
    alpha_exact = coupling.alpha_exact
    monkeypatch.setattr(coupling, "alpha_exact",
                        lambda joint: calls.append(joint) or alpha_exact(joint))
    j = joint_2x2([[0.3, 0.2], [0.2, 0.3]])
    solve_coupling(CouplingProblem(joint=j, epsilon=0.4, net=[0.0, 1.0], delta=0.0))
    assert calls == [j]


def test_weakly_dependent_2x2_vertex_oracle():
    pmf = [[0.3, 0.2], [0.2, 0.3]]
    j = joint_2x2(pmf)
    prob = CouplingProblem(joint=j, epsilon=0.4, net=[0.0, 1.0], delta=0.0)
    sol = solve_coupling(prob)
    oracle = exact_vertex_oracle(
        [[Fraction(3, 10), Fraction(2, 10)], [Fraction(2, 10), Fraction(3, 10)]],
        [0.0, 1.0], Fraction(4, 5),
    )
    assert float(oracle) == pytest.approx(0.1, abs=1e-15)   # frozen before the build
    assert sol.objective == pytest.approx(float(oracle), abs=1e-9)
    assert sol.alpha == pytest.approx(0.05, abs=1e-12)
    assert sol.objective <= sol.bound
    duality_certificate(j, 0.4, sol.objective)


def test_solution_invariants():
    j = joint_2x2([[0.4, 0.1], [0.2, 0.3]])
    sol = solve_coupling(CouplingProblem(joint=j, epsilon=0.4, net=[0.0, 1.0], delta=0.0))
    t = sol.triple_pmf
    assert np.allclose(t.sum(axis=2), j.pmf, atol=1e-9)                # (X, Z) marginal
    indep = np.einsum("ikj->kj", t)
    assert np.allclose(indep, np.outer(j.margin_z, j.margin_x), atol=1e-9)
    assert sol.residual_marginal < 1e-9 and sol.residual_independence < 1e-9


def test_objective_monotone_in_epsilon():
    rng = np.random.default_rng(5)
    atoms = np.array([0.0, 0.7, 1.8])
    pmf = rng.random((3, 3))
    pmf /= pmf.sum()
    j = FiniteJointDistribution(atoms, atoms, pmf)
    objs = []
    for eps in (0.2, 0.5, 1.0):
        prob = CouplingProblem(joint=j, epsilon=eps, net=atoms, delta=0.0)
        objs.append(solve_coupling(prob).objective)
    assert objs[0] >= objs[1] - 1e-12 >= objs[2] - 2e-12


def test_objective_below_product_baseline():
    rng = np.random.default_rng(6)
    pmf = rng.random((3, 3))
    pmf /= pmf.sum()
    atoms = np.array([0.0, 1.0, 2.0])
    j = FiniteJointDistribution(atoms, atoms, pmf)
    sol = solve_coupling(CouplingProblem(joint=j, epsilon=0.4, net=atoms, delta=0.0))
    px = j.margin_x
    miss = np.abs(atoms[:, None] - atoms[None, :]) > 0.8
    product_obj = float(px @ miss @ px)   # feasible baseline: Y independent copy
    assert sol.objective <= product_obj + 1e-9


def test_relabeling_atoms_preserves_objective():
    pmf = np.array([[0.25, 0.15, 0.05], [0.1, 0.2, 0.05], [0.05, 0.05, 0.1]])
    atoms = np.array([0.0, 1.0, 2.0])
    j1 = FiniteJointDistribution(atoms, atoms, pmf)
    perm = [2, 0, 1]
    j2 = FiniteJointDistribution(atoms[perm], atoms, pmf[perm])
    s1 = solve_coupling(CouplingProblem(joint=j1, epsilon=0.4, net=atoms, delta=0.0))
    s2 = solve_coupling(CouplingProblem(joint=j2, epsilon=0.4, net=atoms, delta=0.0))
    assert s1.objective == pytest.approx(s2.objective, abs=1e-9)


def test_degenerate_single_atom_pair():
    j = FiniteJointDistribution([0.0, 1.0], [0.0, 1.0], [[1.0, 0.0], [0.0, 0.0]])
    sol = solve_coupling(CouplingProblem(joint=j, epsilon=0.1, net=[0.0], delta=0.0))
    assert sol.objective == pytest.approx(0.0, abs=1e-12)


def test_problem_validation():
    j = joint_2x2([[0.5, 0.0], [0.0, 0.5]])
    with pytest.raises(ValueError, match="covers only"):
        CouplingProblem(joint=j, epsilon=0.1, net=[0.0], delta=0.0)  # atom 1 uncovered
    CouplingProblem(joint=j, epsilon=0.1, net=[0.0], delta=0.5)      # allowed: delta soaks it
    with pytest.raises(ValueError, match="delta"):
        CouplingProblem(joint=j, epsilon=0.1, net=[0.0, 1.0], delta=1.0)
    with pytest.raises(ValueError, match="epsilon"):
        CouplingProblem(joint=j, epsilon=0.0, net=[0.0, 1.0], delta=0.0)


def test_net_rejects_non_finite_points():
    # an infinite net point covers no atom, but would count in N and loosen the bound
    j = joint_2x2([[0.5, 0.0], [0.0, 0.5]])
    with pytest.raises(ValueError, match="^net has a non-finite entry$"):
        CouplingProblem(joint=j, epsilon=0.4, net=[0.0, 1.0, np.inf], delta=0.0)


def test_size_limit():
    n = 21
    pmf = np.eye(n) / n
    j = FiniteJointDistribution(np.arange(n), np.arange(n), pmf)
    with pytest.raises(ValueError, match="limit"):
        solve_coupling(CouplingProblem(joint=j, epsilon=0.4, net=np.arange(n), delta=0.0))


def test_suite_randomized_3x3_bound_and_residuals():
    rng = np.random.default_rng(7)
    atoms = np.array([0.0, 1.0, 2.0])
    cases = []
    for _ in range(10):
        pmf = rng.random((3, 3))
        pmf /= pmf.sum()
        j = FiniteJointDistribution(atoms, atoms, pmf)
        cases.append(CouplingProblem(joint=j, epsilon=0.4, net=atoms, delta=0.0))
    report = verify_prop1_suite(cases)
    assert report["all_pass"]
    for row in report["cases"]:
        assert row["objective"] <= row["bound"] + 1e-9
        assert row["residual_marginal"] < 1e-9
        assert row["residual_independence"] < 1e-9
        assert set(row) == {"case_id", "objective", "bound", "alpha", "N", "delta",
                            "residual_marginal", "residual_independence", "pass", "claim"}
        assert row["claim"] == "prop1_bound" and row["pass"] is True


# ---------------------------------------------------------------- corollary

def test_independent_normals_fit_convolution():
    rows = corollary_sum_experiment(
        ProcessSpec(family="iid"), ProcessSpec(family="iid"),
        mode="independent", n=256, replications=100_000, seed=8,
    )
    assert rows[0]["ks"] < 0.02


def test_negative_control_misses_convolution():
    # X = Z: the sum is N(0,4); its KS distance to N(0,2) has the
    # closed-form value sup_x |Phi(x/2) - Phi(x/sqrt(2))|
    res = scipy.optimize.minimize_scalar(
        lambda x: -abs(scipy.stats.norm.cdf(x / 2) - scipy.stats.norm.cdf(x / np.sqrt(2))),
        bounds=(0.1, 5.0), method="bounded",
    )
    oracle = -res.fun
    assert oracle == pytest.approx(0.08303, abs=1e-5)
    rows = corollary_sum_experiment(
        ProcessSpec(family="iid"), mode="duplicate", n=256,
        replications=100_000, seed=9,
    )
    ks = rows[0]["ks"]
    assert ks == pytest.approx(oracle, abs=0.01)
    assert ks > 0.05


@pytest.mark.parametrize("mode, scale, shift, ok, claim", [
    ("independent", np.sqrt(0.5), 0.0, True, "cor1b_convolution_fit"),
    ("independent", np.sqrt(0.5), 0.1, False, "cor1b_convolution_fit"),
    ("duplicate", 1.0, 0.0, True, "cor1b_negative_control"),
    ("duplicate", np.sqrt(0.5), 0.0, False, "cor1b_negative_control"),
])
def test_corollary_pass_rule_and_claim(monkeypatch, mode, scale, shift, ok, claim):
    # every normalized sum is the 4000 N(0, scale^2) quantile points, shifted:
    # X + Z is exactly N(0, 2) at scale sqrt(1/2) with no shift, so the fit
    # passes and the control (which must miss N(0, 2)) fails; at scale 1 the
    # control's 2X is N(0, 4), KS 0.083 > NEGATIVE_CONTROL_MIN_KS; a shift of
    # 0.1 moves X + Z by 0.2, KS 0.056 > COROLLARY_KS_TOL
    q = scipy.stats.norm.ppf((np.arange(4000) + 0.5) / 4000)
    calls = []
    monkeypatch.setattr(processes, "normalized_sums",
                        lambda *args: calls.append(args[-1]) or scale * q + shift)
    (row,) = corollary_sum_experiment(ProcessSpec(family="iid"), mode=mode, n=16, seed=1)
    assert row["pass"] is ok and row["claim"] == claim
    assert (row["ks"] <= coupling.COROLLARY_KS_TOL if mode == "independent"
            else row["ks"] > coupling.NEGATIVE_CONTROL_MIN_KS) is ok
    # the control's Z is X itself: one draw
    assert calls == (["corr-x"] if mode == "duplicate" else ["corr-x", "corr-z"])


def test_lagged_blocks_test_only_their_largest_lag():
    # ROADMAP item 10, FOUND B: a smaller lag passes whatever its KS; at these
    # small replications every row's KS is above COROLLARY_KS_TOL
    rows = corollary_sum_experiment(
        ProcessSpec(family="ar1", phi=0.5), mode="lagged_blocks",
        lags=(0, 2, 4), replications=2000, seed=1, block_length=4,
    )
    assert [r["grid"] for r in rows] == [0, 2, 4]
    assert all(r["ks"] > coupling.COROLLARY_KS_TOL for r in rows)
    assert [r["pass"] for r in rows] == [True, True, False]
    assert {r["claim"] for r in rows} == {"cor1b_lagged_convolution"}


def test_lagged_blocks_decay_toward_independence():
    rows = corollary_sum_experiment(
        ProcessSpec(family="ar1", phi=0.5), mode="lagged_blocks",
        lags=(0, 2, 4, 8, 16), replications=100_000, seed=10, block_length=4,
    )
    ks = {r["grid"]: r["ks"] for r in rows}
    assert ks[16] < 0.012
    assert ks[0] > 2.0 * ks[16]
    bounds = {r["grid"]: r["alpha_bound"] for r in rows}
    assert bounds[16] < bounds[0]


def test_lagged_blocks_are_the_block_sums_of_simulated_paths(monkeypatch):
    # the reference hands the corollary the block sums of the one-shot
    # paths, taken one value at a time by the rounding rule of window_sums;
    # the rows must not depend on the worker count either
    spec = ProcessSpec(family="ar1", phi=0.5)
    kwargs = dict(mode="lagged_blocks", lags=(0, 3), replications=1031, seed=10, block_length=4)
    runs = []
    for workers in (1, 2, 3):
        monkeypatch.setattr(processes, "_WORKERS", workers)
        runs.append(repr(corollary_sum_experiment(spec, **kwargs)))
    whole = one_shot_paths(spec, 11, 1031, 10, label="corr-lag")
    monkeypatch.setattr(processes, "window_sums", whole_matrix_sums(whole))
    assert runs == [repr(corollary_sum_experiment(spec, **kwargs))] * 3
