import tracemalloc
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from mixlimit import mixing
from mixlimit.mixing import (
    ENVELOPE_SLACK,
    AlphaProfile,
    MarkovChainSpec,
    alpha_bound_geometric,
    alpha_sequence,
    _rounding_margin,
    alpha_window,
)
from mixlimit.probcore import ENUM_LIMIT, PMF_TOL, FiniteJointDistribution, alpha_exact


def symmetric_chain(p=0.25):
    return MarkovChainSpec([0.0, 1.0], [[1 - p, p], [p, 1 - p]], [0.5, 0.5])


def iid_chain():
    return MarkovChainSpec([0.0, 1.0, 2.0],
                           [[0.2, 0.5, 0.3]] * 3,
                           [0.2, 0.5, 0.3])


def identity_chain():
    return MarkovChainSpec([0.0, 1.0], [[1.0, 0.0], [0.0, 1.0]], [0.5, 0.5])


def random_chain(rng, k):
    t = rng.random((k, k)) + 0.05
    t /= t.sum(axis=1, keepdims=True)
    init = rng.dirichlet(np.ones(k))
    return MarkovChainSpec(np.arange(k, dtype=float), t, init)


def window_joint_reference(chain, j, n, past_window, future_window):
    """Joint law of the past block (X_{j-p+1..j}) and the future block
    (X_{j+n..j+n+f-1}), the past block clipped at time 1, built as whole
    window tensors: the construction alpha_window reduces to one step.
    Each block is labeled by its index; the coefficient reads only the pmf."""
    k = chain.n_states
    p_eff = min(past_window, j)
    past = chain.initial @ np.linalg.matrix_power(chain.transition, j - p_eff)
    for _ in range(p_eff - 1):
        past = past[..., :, None] * chain.transition
    pn = np.linalg.matrix_power(chain.transition, n)        # X_j -> X_{j+n}
    # conditional tensor of the future block given its first state
    cond = np.eye(k)
    for _ in range(future_window - 1):
        cond = cond[..., :, None] * chain.transition
    coupled = past.reshape(-1, k)[:, :, None] * pn[None, :, :]   # (prefix, X_j, X_{j+n})
    joint = coupled.reshape(-1, k) @ cond.reshape(k, -1)
    npast, nfut = k ** p_eff, k ** future_window
    return FiniteJointDistribution(np.arange(npast), np.arange(nfut), joint.reshape(npast, nfut))


def test_chain_validation():
    with pytest.raises(ValueError, match="stochastic"):
        MarkovChainSpec([0.0, 1.0], [[0.9, 0.2], [0.5, 0.5]], [0.5, 0.5])
    with pytest.raises(ValueError, match="probability"):
        MarkovChainSpec([0.0, 1.0], [[0.5, 0.5], [0.5, 0.5]], [0.7, 0.6])
    with pytest.raises(ValueError, match=r"states must be a vector, got shape \(2, 1\)"):
        MarkovChainSpec([[0.0], [1.0]], [[0.5, 0.5], [0.5, 0.5]], [0.5, 0.5])
    with pytest.raises(ValueError, match=r"initial must be a vector, got shape \(2, 1\)"):
        MarkovChainSpec([0.0, 1.0], [[0.5, 0.5], [0.5, 0.5]], [[0.5], [0.5]])


@pytest.mark.parametrize("states, transition, initial, field", [
    ([0.0, 1.0], [[np.nan, 0.25], [0.25, 0.75]], [0.5, 0.5], "transition"),
    ([0.0, 1.0], [[0.75, 0.25], [0.25, 0.75]], [np.nan, 0.5], "initial"),
    ([0.0, np.inf], [[0.75, 0.25], [0.25, 0.75]], [0.5, 0.5], "states"),
], ids=["transition-nan", "initial-nan", "states-inf"])
def test_chain_rejects_non_finite_entries(states, transition, initial, field):
    # NaN passes both the sign test and the row-sum test
    with pytest.raises(ValueError, match=f"^{field} has a non-finite entry$"):
        MarkovChainSpec(states, transition, initial)


def test_alpha_window_iid_chain_is_zero():
    c = iid_chain()
    for j in (1, 2, 5):
        for n in (1, 3):
            assert alpha_window(c, j, n) <= 1e-14


def test_alpha_window_symmetric_chain_exact():
    # two-state symmetric chain at stationarity: the lag-n joint is
    # (1 +/- lambda^n)/4 with lambda = 1 - 2p, so alpha = lambda^n / 4
    c = symmetric_chain(0.25)
    lam = 0.5
    for n in (1, 3):
        got = alpha_window(c, 1, n)
        joint = np.array([[1 + lam ** n, 1 - lam ** n],
                          [1 - lam ** n, 1 + lam ** n]]) / 4.0
        from test_probcore import brute_alpha
        assert got == pytest.approx(brute_alpha(joint), abs=1e-15)
        assert got == pytest.approx(0.25 * lam ** n, abs=1e-15)
    assert alpha_window(c, 1, 1) == pytest.approx(0.125, abs=1e-15)
    assert alpha_window(c, 1, 3) == pytest.approx(0.03125, abs=1e-15)


def test_joint_window_matches_hand_propagation():
    c = symmetric_chain(0.25)
    p2 = c.transition @ c.transition
    hand = 0.5 * p2
    assert np.allclose(window_joint_reference(c, 1, 2, 1, 1).pmf, hand, atol=1e-15)
    hand_joint = FiniteJointDistribution(c.states, c.states, hand)
    assert alpha_window(c, 1, 2) == pytest.approx(alpha_exact(hand_joint), abs=1e-15)


@pytest.mark.parametrize("chain, lag", [
    (MarkovChainSpec([0.0, 1.0, 2.0, 3.0], [[0.5, 0.2, 0.2, 0.1], [0.2, 0.5, 0.1, 0.2],
                                           [0.1, 0.2, 0.5, 0.2], [0.2, 0.1, 0.2, 0.5]],
                     [1.0, 0.0, 0.0, 0.0]), 2 ** 15),
    (MarkovChainSpec([0.0, 1.0], [[0.9, 0.1], [0.2, 0.8]], [0.5, 0.5]), 2 ** 16),
    (MarkovChainSpec([-1.0, 2.0, 0.5], [[0.6, 0.3, 0.1], [0.3, 0.6, 0.1], [0.2, 0.2, 0.6]],
                     [1 / 3] * 3), 2 ** 17),
], ids=["four-state", "two-state", "finding-1"])
def test_alpha_window_accepts_its_joint_at_long_lags(chain, lag):
    # at the first such power of 2 the joint's sum drifts from 1 by rounding
    # beyond PMF_TOL, within the margin alpha_window checks it against
    drift = abs((chain.initial[:, None] * np.linalg.matrix_power(chain.transition, lag)).sum() - 1)
    assert PMF_TOL < drift <= _rounding_margin(chain.n_states, lag + 1)
    bound = alpha_bound_geometric(chain, [lag]).alpha_at(lag)
    for j in (1, 2, mixing.J_SCAN):
        assert 0.0 <= alpha_window(chain, j, lag) <= bound


def test_alpha_sequence_examples():
    assert all(a <= 1e-14 for _, a in alpha_sequence(iid_chain(), [1, 2, 3]).values)

    prof = alpha_sequence(symmetric_chain(0.25), [1, 2, 3])
    expect = {1: 0.125, 2: 0.0625, 3: 0.03125}
    for n, a in prof.values:
        assert a == pytest.approx(expect[n], abs=1e-15)
    assert prof.kind == "exact-window"

    ident = alpha_sequence(identity_chain(), [1, 2, 5])
    for _, a in ident.values:
        assert a == pytest.approx(0.25, abs=1e-15)


def test_alpha_window_equals_every_window_coefficient():
    # the Markov reduction: no past or future window raises the coefficient
    # of the pair (X_j, X_{j+n}); larger windows are checked while the
    # smaller side stays within the enumeration limit (one 4-state chain:
    # its 16-atom windows take about 4 s)
    rng = np.random.default_rng(11)
    worst = 0.0
    for k, chains in ((2, 5), (3, 5), (4, 1)):
        for _ in range(chains):
            c = random_chain(rng, k)
            for pw, fw in product((1, 2, 3), repeat=2):
                for j in range(1, 6):
                    if k ** min(pw, j, fw) > ENUM_LIMIT:
                        continue
                    for n in range(1, 5):
                        ref = alpha_exact(window_joint_reference(c, j, n, pw, fw))
                        worst = max(worst, abs(alpha_window(c, j, n) - ref))
    assert worst <= 1e-14, worst


def test_window_invariant_under_relabeling():
    rng = np.random.default_rng(12)
    c = random_chain(rng, 3)
    perm = [2, 0, 1]
    t = c.transition[np.ix_(perm, perm)]
    relabeled = MarkovChainSpec(c.states, t, c.initial[perm])
    for n in (1, 2):
        assert alpha_window(c, 2, n) == pytest.approx(
            alpha_window(relabeled, 2, n), abs=1e-13
        )


def test_chain_above_enumeration_limit_rejected():
    k = ENUM_LIMIT + 1
    c = MarkovChainSpec(np.arange(k, dtype=float), np.full((k, k), 1.0 / k), np.full(k, 1.0 / k))
    with pytest.raises(ValueError, match=f"{k} atoms, above the limit"):
        alpha_window(c, 1, 1)


def test_geometric_bound_symmetric_chain():
    # delta(P^n) = |1 - 2p|^n, so the envelope is 1/4 |1 - 2p|^n plus the
    # margin, which alpha_window meets at the uniform start
    ns = [1, 2, 3, 10]
    for p in (0.25, 0.1, 0.7):
        c = symmetric_chain(p)
        prof = alpha_bound_geometric(c, ns)
        assert prof.kind == "analytic-bound"
        for n, a in prof.values:
            exact = 0.25 * abs(1 - 2 * p) ** n
            assert exact - 1e-15 <= a <= exact + _rounding_margin(2, n) + 1e-15, (p, n)
            assert alpha_window(c, 1, n) <= a
            if p == 0.25:       # P^n has dyadic entries, so delta is computed exactly
                assert a == exact + _rounding_margin(2, n)
        # lags keep their order, and no value depends on it
        assert alpha_bound_geometric(c, ns[::-1]).values == prof.values[::-1]


def test_geometric_bound_identity_chain_trivial():
    prof = alpha_bound_geometric(identity_chain(), [1, 5, 10])
    assert all(a == 0.25 for _, a in prof.values)


def test_geometric_bound_periodic_and_reducible_chains_trivial():
    # delta(P^n) = 1 at every n: the formula itself gives 1/4
    cycle = MarkovChainSpec([0.0, 1.0, 2.0], [[0, 1, 0], [0, 0, 1], [1, 0, 0]], [1, 0, 0])
    blocks = MarkovChainSpec([0.0, 1.0, 2.0, 3.0],
                             [[0.5, 0.5, 0, 0], [0.5, 0.5, 0, 0], [0, 0, 0.3, 0.7], [0, 0, 0.6, 0.4]],
                             [0.25] * 4)
    for c in (cycle, blocks):
        assert alpha_bound_geometric(c, [1, 2, 3, 5, 8]).values == tuple(
            (n, 0.25) for n in (1, 2, 3, 5, 8))


def test_geometric_bound_dominates_exact_windows():
    # 250 chains with 2..6 states, Dirichlet rows and random starts, so most
    # start away from stationarity: no window value at j <= 6 may exceed the
    # envelope, with no slack
    rng = np.random.default_rng(26)
    lags, ratios = [1, 2, 3, 5, 8], []
    for i in range(250):
        k = 2 + i % 5
        c = MarkovChainSpec(np.arange(k, dtype=float), rng.dirichlet(np.ones(k), size=k),
                            rng.dirichlet(np.ones(k)))
        bound = dict(alpha_bound_geometric(c, lags).values)
        for n, exact in alpha_sequence(c, lags, 6).values:
            assert exact <= bound[n], (i, n, exact, bound[n])
            if exact > 1e-9:
                ratios.append(bound[n] / exact)
    # the envelope is near the exact values, not merely above them
    assert np.median(ratios) < 2.0


def test_geometric_bound_iid_chain_vanishes():
    # delta(P^n) = 0 at every n: only the rounding margin at lag 1 is left
    prof = alpha_bound_geometric(iid_chain(), [1, 2, 8, 1000])
    assert all(0.0 <= a <= _rounding_margin(3, 1) for _, a in prof.values)


def test_envelope_is_above_the_exact_delta_of_the_stored_matrix():
    # delta(P^n)/4 in exact rational arithmetic on the float entries; the
    # margin must cover matrix_power's rounding, and rows that sum to 1
    # only within STOCHASTIC_TOL.  Without it, the chain of the alpha_profile
    # and blocking_markov goldens read 0.01562499999999999 at lag 4
    golden = [[0.6, 0.3, 0.1], [0.3, 0.6, 0.1], [0.2, 0.2, 0.6]]
    off_by_tol = [[0.5 + 9e-13, 0.25, 0.25], [0.25, 0.5 - 9e-13, 0.25], [0.1, 0.1, 0.8 + 9e-13]]
    for t in (golden, off_by_tol):
        c = MarkovChainSpec([0.0, 1.0, 2.0], t, [1.0, 0.0, 0.0])
        ns = list(range(1, 9))
        bound = dict(alpha_bound_geometric(c, ns).values)
        p = [[Fraction(x) for x in row] for row in c.transition]
        q = p
        for n in ns:
            delta = max(sum(abs(a - b) for a, b in zip(qx, qy)) for qx in q for qy in q) / 2
            assert Fraction(bound[n]) >= delta / 4, (n, bound[n], float(delta / 4))
            q = [[sum(qx[i] * p[i][y] for i in range(3)) for y in range(3)] for qx in q]


def test_envelope_memory_is_a_few_k_squared_floats():
    # the row distances are taken one row at a time: a (K, K, K) array
    # would need 512 MB at K = 400, and the envelope peaks near 3 K^2 floats
    k, rng = 400, np.random.default_rng(27)
    c = MarkovChainSpec(np.arange(k, dtype=float), rng.dirichlet(np.ones(k), size=k),
                        np.full(k, 1.0 / k))
    tracemalloc.start()
    try:
        alpha_bound_geometric(c, [1, 2, 5])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * 8 * k * k, peak / (8 * k * k)


def test_alpha_report_rows_and_envelope_rule(monkeypatch):
    chain = symmetric_chain()
    rows = mixing.alpha_report(chain, [1, 3], j_scan=2)
    assert [(r["n"], r["kind"], r["claim"], r["pass"]) for r in rows] == [
        (1, "exact-window", "eq1_window_alpha", True), (3, "exact-window", "eq1_window_alpha", True),
        (1, "analytic-bound", "eq2_analytic_bound", True),
        (3, "analytic-bound", "eq2_analytic_bound", True)]
    # a window value may exceed the envelope by ENVELOPE_SLACK and no more;
    # both rows at n carry the flag of that one claim
    bound = alpha_bound_geometric(chain, [3]).alpha_at(3)
    for excess, want in ((0.0, True), (ENVELOPE_SLACK, True), (2 * ENVELOPE_SLACK, False)):
        monkeypatch.setattr(mixing, "alpha_sequence", lambda chain, n_list, j_scan: AlphaProfile(
            ((3, bound + excess),), kind="exact-window"))
        assert [r["pass"] for r in mixing.alpha_report(chain, [3])] == [want, want]
