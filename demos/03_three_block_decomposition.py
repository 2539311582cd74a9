# The three-block decomposition of a normalized partial sum.
#
# Fix c in (0, 1).  Split S_n into a leading block of length m_n (chosen
# so the scale ratio a_n / a_{m_n} lands just below c), a short
# separating block of length q_n, and the trailing remainder:
#
#   U = (a_n / a_m)(a_m S_m + b_m)   -> converges to the c-scaled limit
#   V = a_n (S_{m+q} - S_m)          -> negligible (at most q_n delta_n)
#   W = a_n (S_n - S_{m+q}) + b_n - (a_n / a_m) b_m
#                                    -> tight, nearly independent of U
#
# Together U + V + W = a_n S_n + b_n exactly, which is what makes the
# limit law decompose into a c-scaled copy of itself convolved with a
# remainder: the defining property of class-L laws.

from mixlimit.blocking import _three_blocks, _windows, compute_m_profile, make_plan, verify_blocking
from mixlimit.processes import ProcessSpec, asymptotics, marginal_abs_tail, window_sums

spec = ProcessSpec(family="ar1", phi=0.5)
norming, _ = asymptotics(spec)
tail = marginal_abs_tail(spec)

# --- the plan: m_n, delta_n, q_n per horizon --------------------------------
plan = make_plan(norming, tail, c=0.5, n_values=(256, 512, 1024, 2048, 4096))
print("blocking plan for c = 0.5:")
print("     n     m_n   q_n  delta_n  a_n/a_m")
for i, n in enumerate(plan.n_values):
    print(f"  {n:5d}  {plan.m[i]:5d}  {plan.q[i]:4d}    {plan.delta[i]:.2f}    "
          f"{plan.ratio[i]:.4f}")
print("the ratio hugs c from below; m_n and n - m_n both grow")

# leading-block length is the maximizer of a simple scale condition
print("\ncompute_m at n=4096:", compute_m_profile(norming.a, 0.5, [4096])[0],
      "(sqrt scaling: k <= c^2 n = 1024)")

# --- one path, decomposed ----------------------------------------------------
n = 4096
m = int(plan.m[plan.index_of(n)])
# the sums of the path over the leading, separating and trailing blocks and
# over the whole path, which is summed directly, so the identity is checked
# between two independently rounded sides
sums = window_sums(spec, n, 1, 5, "path", _windows(plan, n))
(u,), (v,), (w,), (total,) = _three_blocks(norming, m, n, *sums)
print(f"\none path at n={n}: U={u:+.4f}  V={v:+.4f}  W={w:+.4f}")
print(f"U + V + W = {u + v + w:+.4f}, "
      f"identity error {abs(u + v + w - total) / max(1.0, abs(total)):.1e}")

# --- Monte Carlo verification of every block claim --------------------------
rows = verify_blocking(spec, c=0.5, n_grid=(512, 2048), replications=4000, seed=6)
print("\nMonte Carlo diagnostics (4000 replications):")
for row in rows:
    print(f"  n={row['n']:5d}  {row['metric_name']:28s} value={row['value']:.5f}  "
          f"ceiling={row['analytic_ceiling']:.5f}  pass={row['pass']}")
print("all claims pass:", all(row["pass"] for row in rows))
