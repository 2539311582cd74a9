# How dependent are the past and the future of a sequence?
#
# The dependence coefficient between two finite random variables is the
# largest gap |P(A & B) - P(A) P(B)| over all events A, B built from
# their atoms.  It is 0 exactly for independence and can never exceed
# 1/4.  For a finite-state Markov chain the coefficient between the whole
# past up to time j and the whole future from time j+n is exactly that of
# the pair (X_j, X_{j+n}), so we can compute it.  Dobrushin's coefficient
# delta(P^n), the largest total-variation distance between two rows of
# P^n, certifies the upper envelope alpha(n) <= delta(P^n)/4 from any start.

import numpy as np

from mixlimit.mixing import (
    MarkovChainSpec,
    alpha_bound_geometric,
    alpha_sequence,
    alpha_window,
)
from mixlimit.probcore import FiniteJointDistribution, alpha_exact

# --- exact coefficient of a small joint table ------------------------------
pmf = np.array([[0.3, 0.2], [0.2, 0.3]])
joint = FiniteJointDistribution([0.0, 1.0], [0.0, 1.0], pmf)
print("joint pmf:\n", pmf)
print("alpha =", alpha_exact(joint), "(0.05: the optimum is A={x1}, B={z1})")

product = np.outer(pmf.sum(axis=1), pmf.sum(axis=0))
print("product of its margins -> alpha =", alpha_exact(
    FiniteJointDistribution([0.0, 1.0], [0.0, 1.0], product)))

# --- a lazily mixing two-state chain ---------------------------------------
chain = MarkovChainSpec(
    states=[0.0, 1.0],
    transition=[[0.75, 0.25], [0.25, 0.75]],
    initial=[0.5, 0.5],
)
print("\ntwo-state chain, flip probability 0.25, stationary start")
print("exact window coefficients (lag n, one-step windows):")
for n in (1, 2, 3, 5, 8):
    print(f"  n={n}: alpha = {alpha_window(chain, j=1, n=n):.6f}"
          f"   (closed form: 0.25 * 0.5^{n} = {0.25 * 0.5 ** n:.6f})")

# --- lower bounds vs the analytic envelope ---------------------------------
ns = [1, 2, 3, 5, 8]
window = alpha_sequence(chain, ns)
envelope = alpha_bound_geometric(chain, ns)
print("\nwindow values are LOWER bounds, the Dobrushin envelope is an UPPER bound")
print("(here delta(P^n) = 0.5^n, so the two meet up to a rounding margin):")
print(f"  {envelope.meta}")
for (n, lo), (_, hi) in zip(window.values, envelope.values):
    print(f"  n={n}: {lo:.8f} <= alpha(n) <= {hi:.8f}")

# --- a chain that never mixes ----------------------------------------------
frozen = MarkovChainSpec([0.0, 1.0], [[1.0, 0.0], [0.0, 1.0]], [0.5, 0.5])
print("\nidentity-transition chain (X_{j+n} = X_j forever):")
print("  alpha at any lag =", alpha_window(frozen, 1, 10), "(the maximum 1/4)")
print("  envelope at lags 1 and 10:", [a for _, a in alpha_bound_geometric(frozen, [1, 10]).values],
      "(delta(P^n) = 1: the same formula gives 1/4)")
