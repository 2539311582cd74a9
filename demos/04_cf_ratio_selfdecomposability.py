# Which laws decompose into a scaled copy of themselves plus noise?
#
# A law with characteristic function phi is selfdecomposable when, for
# every 0 < c < 1, the ratio phi(t) / phi(ct) is again a characteristic
# function.  By Bochner's criterion that requires the matrix
# psi(t_j - t_k) to be positive semidefinite on every frequency grid,
# which is finitely checkable: the smallest eigenvalue must not dip
# below -tolerance.
#
# The normal and exponential laws pass; the uniform law (not even
# infinitely divisible) fails spectacularly.

import numpy as np

from mixlimit.selfdecomp import CLOSED_FORM_CFS, selfdecomp_test, selfdecomp_test_sample

gaussian, exponential, uniform = (CLOSED_FORM_CFS[k]
                                  for k in ("gaussian", "exponential", "uniform"))

for name, cf in (("gaussian", gaussian), ("exponential", exponential),
                 ("uniform(-1,1)", uniform)):
    rep = selfdecomp_test(cf, c_values=(0.3, 0.5, 0.8))
    print(f"{name:14s} verdict: {rep['verdict']}")
    for row in rep["per_c"]:
        print(f"    c={row['c']}: min eigenvalue {row['worst_violation']:+.3e} "
              f"({'ok' if row['psd_pass'] else 'VIOLATION'})")

# why the ratios pass: closed-form identities
t = np.linspace(-4, 4, 9)
c = 0.5
print("\ngaussian ratio == CF of N(0, 1 - c^2):",
      np.allclose(gaussian(t) / gaussian(c * t), np.exp(-t ** 2 * (1 - c ** 2) / 2)))
print("exponential ratio == mixture c + (1-c)/(1-it):",
      np.allclose(exponential(t) / exponential(c * t), c + (1 - c) * exponential(t)))

# --- the same test on an empirical CF ---------------------------------------
# Sampling noise moves every matrix entry by ~1/sqrt(n), so the empirical
# test lives on a narrow frequency grid where the denominators stay well
# above that noise; wider grids come back "inconclusive" rather than
# pretending to resolve the tail.
rng = np.random.default_rng(0)
normal_sample = rng.standard_normal(10_000)
rep = selfdecomp_test_sample(normal_sample, (0.3, 0.5, 0.8))
print(f"\nempirical CF of 10^4 normal draws (radius 0.5): {rep['verdict']}, "
      f"min eig {min(r['worst_violation'] for r in rep['per_c']):+.2e}")

wide = selfdecomp_test_sample(normal_sample, (0.5, 0.8), grid_radius=8.0)
print("same sample on radius 8:", wide["verdict"],
      "(denominators sink below the sampling-noise floor)")

exp_sample = rng.exponential(size=10_000)
rep = selfdecomp_test_sample(exp_sample, (0.3, 0.5, 0.8))
print("empirical CF of 10^4 exponential draws:", rep["verdict"])
