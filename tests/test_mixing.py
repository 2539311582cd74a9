import numpy as np
import pytest

from mixlimit.mixing import (
    MarkovChainSpec,
    alpha_bound_geometric,
    alpha_sequence,
    alpha_window,
    doeblin_certificate,
    joint_window_distribution,
)
from mixlimit.probcore import alpha_exact


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


def test_chain_validation():
    with pytest.raises(ValueError, match="stochastic"):
        MarkovChainSpec([0.0, 1.0], [[0.9, 0.2], [0.5, 0.5]], [0.5, 0.5])
    with pytest.raises(ValueError, match="probability"):
        MarkovChainSpec([0.0, 1.0], [[0.5, 0.5], [0.5, 0.5]], [0.7, 0.6])


def test_alpha_window_iid_chain_is_zero():
    c = iid_chain()
    for j in (1, 2, 5):
        for n in (1, 3):
            assert alpha_window(c, j, n, 1, 1) <= 1e-14


def test_alpha_window_symmetric_chain_exact():
    # two-state symmetric chain at stationarity: the lag-n joint is
    # (1 +/- lambda^n)/4 with lambda = 1 - 2p, so alpha = lambda^n / 4
    c = symmetric_chain(0.25)
    lam = 0.5
    for n in (1, 3):
        got = alpha_window(c, 1, n, 1, 1)
        joint = np.array([[1 + lam ** n, 1 - lam ** n],
                          [1 - lam ** n, 1 + lam ** n]]) / 4.0
        from test_probcore import brute_alpha
        assert got == pytest.approx(brute_alpha(joint), abs=1e-15)
        assert got == pytest.approx(0.25 * lam ** n, abs=1e-15)
    assert alpha_window(c, 1, 1, 1, 1) == pytest.approx(0.125, abs=1e-15)
    assert alpha_window(c, 1, 3, 1, 1) == pytest.approx(0.03125, abs=1e-15)


def test_joint_window_matches_hand_propagation():
    c = symmetric_chain(0.25)
    j = joint_window_distribution(c, j=1, n=2, past_window=1, future_window=1)
    p2 = c.transition @ c.transition
    hand = 0.5 * p2
    assert np.allclose(j.pmf, hand, atol=1e-15)


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


def test_window_monotone_in_window_sizes():
    rng = np.random.default_rng(11)
    c = random_chain(rng, 2)
    for n in (1, 2):
        a11 = alpha_window(c, 3, n, 1, 1)
        a21 = alpha_window(c, 3, n, 2, 1)
        a22 = alpha_window(c, 3, n, 2, 2)
        assert a21 >= a11 - 1e-13
        assert a22 >= a21 - 1e-13


def test_window_invariant_under_relabeling():
    rng = np.random.default_rng(12)
    c = random_chain(rng, 3)
    perm = [2, 0, 1]
    t = c.transition[np.ix_(perm, perm)]
    relabeled = MarkovChainSpec(c.states, t, c.initial[perm])
    for n in (1, 2):
        assert alpha_window(c, 2, n, 1, 1) == pytest.approx(
            alpha_window(relabeled, 2, n, 1, 1), abs=1e-13
        )


def test_window_too_large_rejected():
    c = iid_chain()
    with pytest.raises(ValueError, match="limit"):
        alpha_window(c, 4, 1, 3, 3)    # 3^3 = 27 atoms a side
    # the past window is clipped at time 1, so the smaller side is the past one
    with pytest.raises(ValueError, match=r"3\^3 = 27 exceeds"):
        alpha_window(c, 3, 1, 5, 4)


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
                exact = max(alpha_window(c, j, n, 1, 1) for j in range(1, 6))
                assert bound[n] >= exact - 1e-12, (k, n, bound[n], exact)


def test_geometric_bound_iid_chain_vanishes():
    prof = alpha_bound_geometric(iid_chain(), [1, 2])
    assert all(a == 0.0 for _, a in prof.values)
