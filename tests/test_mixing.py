from itertools import product

import numpy as np
import pytest

from mixlimit.mixing import (
    MarkovChainSpec,
    alpha_bound_geometric,
    alpha_sequence,
    alpha_window,
    doeblin_certificate,
)
from mixlimit.probcore import ENUM_LIMIT, FiniteJointDistribution, alpha_exact


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


def test_doeblin_certificate_symmetric():
    r, eps, rho = doeblin_certificate(symmetric_chain(0.25))
    assert r == 1
    assert eps == pytest.approx(0.5, abs=1e-15)
    assert rho == pytest.approx(0.5, abs=1e-15)


def test_geometric_bound_symmetric_chain():
    prof = alpha_bound_geometric(symmetric_chain(0.25), [1, 2, 3, 10])
    assert prof.kind == "analytic-bound"
    vals = dict(prof.values)
    # C rho^n with rho = 0.5, C = 1/2: capped at 1/4
    assert vals[1] == pytest.approx(0.25)
    assert vals[2] == pytest.approx(0.125)
    assert vals[3] == pytest.approx(0.0625)
    assert vals[10] == pytest.approx(0.25 * 0.5 ** 9)


def test_geometric_bound_identity_chain_trivial():
    prof = alpha_bound_geometric(identity_chain(), [1, 5, 10])
    assert all(a == 0.25 for _, a in prof.values)


def test_geometric_bound_dominates_exact_windows():
    rng = np.random.default_rng(13)
    for k in (2, 3):
        for _ in range(5):
            c = random_chain(rng, k)
            ns = [1, 2, 3, 4, 5, 6]
            bound = dict(alpha_bound_geometric(c, ns).values)
            for n in ns:
                exact = max(alpha_window(c, j, n) for j in range(1, 6))
                assert bound[n] >= exact - 1e-12, (k, n, bound[n], exact)


def test_geometric_bound_iid_chain_vanishes():
    prof = alpha_bound_geometric(iid_chain(), [1, 2])
    assert all(a == 0.0 for _, a in prof.values)
