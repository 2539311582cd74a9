# Norming sequences and the infinitesimality of the triangular array.
#
# Each generator family has a closed-form long-run variance v_inf, so
# a_n = 1/sqrt(n v_inf) and b_n = -a_n n mean make a_n S_n + b_n settle
# onto a standard normal.  This script checks the scaling regularity
# (a_n -> 0, consecutive ratio -> 1, vanishing drift) and builds the
# nonincreasing levels delta_n with P(a_n |X_k| >= delta_n) <= delta_n.

import io

import numpy as np

from mixlimit.blocking import compute_deltas
from mixlimit.harness import write_path_csv
from mixlimit.processes import ProcessSpec, marginal_abs_tail, norming_for, simulate_many


def scaling_diagnostics(a_values, b_values, n_max):
    """(a(n_max)/a(1), |a(n_max)/a(n_max - 1) - 1|, |b(n_max) - b(n_max - 1) r|)
    with r = a(n_max)/a(n_max - 1): small values indicate a_n -> 0,
    a_{n+1}/a_n -> 1 and a vanishing drift."""
    ns = np.arange(1, n_max + 1)
    a, b = a_values(ns), b_values(ns)
    ratio = a[-1] / a[-2]
    return a[-1] / a[0], abs(ratio - 1.0), abs(b[-1] - b[-2] * ratio)


ar1 = ProcessSpec(family="ar1", phi=0.5)
norming = norming_for(ar1)
print("AR(1) with phi = 0.5:", norming.provenance)

# empirical check of the closed form: Var(S_n)/n should approach v_inf = 4
for n in (64, 1024, 16384):
    paths = simulate_many(ar1, n, 2000, seed=1, label=f"demo{n}")
    print(f"  empirical Var(S_n)/n at n={n:6d}: {paths.sum(axis=1).var() / n:.3f}")

# scaling regularity
decay, gap, drift = scaling_diagnostics(norming.a_values, norming.b_values, 10_000)
print("scaling diagnostics: a decays:", decay < 0.1,
      "| ratio -> 1:", gap < 0.01, "| drift -> 0:", drift < 0.01)

geo_gap = scaling_diagnostics(lambda ns: 2.0 ** -ns, np.zeros_like, 100)[1]
print("a(n) = 2^-n would fail the ratio test: gap =", round(geo_gap, 3))

# --- infinitesimality levels ------------------------------------------------
# delta_n is the smallest grid level with P(a_n |X_k| >= delta) <= delta,
# monotonized so the sequence never increases.
tail = marginal_abs_tail(ar1)
a_tab = norming.a_values(np.arange(1, 4097))
deltas = compute_deltas(lambda n, d: tail(np.asarray(d) / a_tab[n - 1]), 4096, 0.05)
print("\ndelta levels (AR(1), grid step 0.05):")
for n in (10, 100, 1000, 4096):
    print(f"  n={n:5d}: delta = {deltas[n - 1]:.2f}, "
          f"tail at that level = {float(tail(deltas[n - 1] / a_tab[n - 1])):.4f}")

path = simulate_many(ar1, 8, 1, seed=7)[0]
print("\na sample path prefix:", np.round(path, 3))
csv_text = io.StringIO()
write_path_csv(csv_text, path)
print("export as CSV:\n" + csv_text.getvalue()[:120] + "...")
