# Sampling the exponential-kernel random integral.
#
# Every selfdecomposable law is the law of integral_0^inf e^{-t} dY(t)
# for a background Levy process Y with E log(1 + |Y(1)|) finite.  The
# sampler truncates the integral at T_max (tail error e^{-T_max}) and
# draws each part from its exact law: drift integrates exactly, the
# Gaussian part is one N(0, sigma^2 (1 - e^{-2 T_max}) / 2) draw, and
# compound-Poisson jumps land at exact arrival times.

import numpy as np

from mixlimit.selfdecomp import (
    BDLPSpec,
    DiscreteJumps,
    DyadicTowerJumps,
    sample_random_integral,
)

# --- drift only: the integral is deterministic ------------------------------
drifty = BDLPSpec(drift=2.0)
s = sample_random_integral(drifty, t_max=20.0, n_samples=3, seed=0)
print("drift-only integral      :", s)
print("closed form 2 (1 - e^-20):", 2.0 * (1 - np.exp(-20.0)))

# --- Brownian driver: the isometry fixes the variance ------------------------
brownian = BDLPSpec(gaussian_sigma=1.0)
s = sample_random_integral(brownian, 20.0, 100_000, seed=1)
print(f"\nBrownian driver: sample variance {s.var():.4f} "
      f"(isometry: integral e^-2t dt = 1/2)")

# --- compound Poisson driver -------------------------------------------------
cp = BDLPSpec(jump_rate=1.0, jump_law=DiscreteJumps((-1.0, 1.0), (0.5, 0.5)))
s = sample_random_integral(cp, 20.0, 100_000, seed=2)
print(f"unit-rate +/-1 jumps: mean {s.mean():+.4f} (-> 0), "
      f"variance {s.var():.4f} (-> lambda E[J^2]/2 = 1/2)")

# --- the admissibility condition ---------------------------------------------
# E log(1 + |Y(1)|) must be finite (Sato 1999, Thm 17.5).  By Thm 25.3 that
# is a fact of the jump law alone, and each law states it exactly.
for name, bdlp in (
    ("drift 1", BDLPSpec(drift=1.0)),
    ("standard normal", BDLPSpec(gaussian_sigma=1.0)),
    ("dyadic tower jumps", BDLPSpec(jump_rate=1.0, jump_law=DyadicTowerJumps())),
):
    print(f"log-moment of {name:20s}: {'finite' if bdlp.log_moment_finite else 'infinite'}")
print("(the tower law P(J = 2^(2^k)) = 2^-k makes the defining series diverge)")
