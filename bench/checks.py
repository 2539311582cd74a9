"""Checks of `mixlimit run` reports, computed apart from the program.

Nothing here imports mixlimit.  Each check rebuilds the quantity a
report row claims from the config alone (closed forms, exact
enumeration, a separately built LP) or tests a property the method must
have.  Every check returns a list of error strings; an empty list means
the report is correct.

An operation is one report row that carries a pass flag.  Reports
without per-row flags (alpha-profile, integral-sample) count as one
operation, flagged by the manifest's all_pass.  An invocation that ends
in a config or usage error (exit status 1) is one failed operation.
"""

from __future__ import annotations

import csv
import json
import math
from fractions import Fraction
from itertools import product
from pathlib import Path

import numpy as np
import scipy.optimize
import scipy.sparse
import scipy.stats

Z_BAND = 5.0              # sampling bands are 5 standard errors wide
DKW_LEVEL = 1e-6          # false-alarm level of the DKW band
EPSILON = 0.1             # blocking-verify's default epsilon (the configs do not set it)
EXACT_TOL = 1e-12
LP_TOL = 1e-9
ENUM_CHUNK = 1 << 12

REPORTS = {
    "alpha-profile": ("alpha_profile.csv",),
    "blocking-verify": ("blocking_report.csv",),
    "selfdecomp-test": ("selfdecomp_report.json",),
    "integral-sample": ("integral_samples.csv", "integral_summary.json"),
    "coupling-suite": ("coupling_report.json",),
    "corollary-sum": ("corollary_report.csv",),
}


def _csv_rows(path: Path) -> list:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _corollary_rows(path: Path) -> list:
    """corollary_report.csv rows.  The reference cell may hold an unquoted
    comma ("closed-form N(0,2)"), so the row is split from both ends."""
    with open(path) as fh:
        header = fh.readline().rstrip("\n").split(",")
        rows = []
        for line in fh:
            cells = line.rstrip("\n").split(",")
            cells = cells[:2] + [",".join(cells[2:-3])] + cells[-3:]
            rows.append(dict(zip(header, cells)))
    return rows


def _flag(cell: str) -> bool:
    # blocking_report.csv spells numpy booleans "True"/"False", Python ones "true"/"false"
    if cell.lower() not in ("true", "false"):
        raise ValueError(f"pass cell {cell!r} is not a boolean")
    return cell.lower() == "true"


def _json(path: Path):
    with open(path) as fh:
        return json.load(fh)


def pass_flags(kind: str, out: Path) -> list:
    """The pass flags of one invocation's reports, one per operation."""
    if kind == "blocking-verify":
        return [_flag(r["pass"]) for r in _csv_rows(out / "blocking_report.csv")]
    if kind == "corollary-sum":
        return [_flag(r["pass"]) for r in _corollary_rows(out / "corollary_report.csv")]
    if kind == "selfdecomp-test":
        return [bool(r["psd_pass"]) for r in _json(out / "selfdecomp_report.json")["per_c"]]
    if kind == "coupling-suite":
        return [bool(r["pass"]) for r in _json(out / "coupling_report.json")["cases"]]
    return [bool(_json(out / "manifest.json")["all_pass"])]


def operations(kind: str, out: Path, exit_code: int) -> tuple:
    """(attempted, failed) for one invocation."""
    if exit_code == 1 or not (out / "manifest.json").is_file():
        return 1, 1
    flags = pass_flags(kind, out)
    return len(flags), flags.count(False)


def check(cfg: dict, out: Path, exit_code: int) -> list:
    kind = cfg["kind"]
    if exit_code not in (0, 2):
        return [f"{kind}: exit status {exit_code}"]
    missing = [f for f in REPORTS[kind] + ("manifest.json",) if not (out / f).is_file()]
    if missing:
        return [f"{kind}: missing reports {missing}"]
    manifest = _json(out / "manifest.json")
    errors = []
    if manifest["config"] != cfg or manifest["kind"] != kind:
        errors.append(f"{kind}: manifest does not echo the config")
    if manifest["all_pass"] != all(pass_flags(kind, out)):
        errors.append(f"{kind}: manifest all_pass disagrees with the report flags")
    if (exit_code == 0) != manifest["all_pass"]:
        errors.append(f"{kind}: exit status {exit_code} disagrees with all_pass")
    return errors + _CHECKS[kind](cfg, out)


def _close(got: float, want: float, tol: float) -> bool:
    return abs(got - want) <= tol * max(1.0, abs(want))


# --------------------------------------------------------------------------
# blocking-verify


class _GaussianAR1:
    """Stationary X_k = phi X_{k-1} + eps_k with standard normal innovations."""

    def __init__(self, process: dict):
        self.phi = float(process["phi"])
        self.v_inf = 1.0 / (1.0 - self.phi) ** 2
        self.sd = 1.0 / math.sqrt(1.0 - self.phi ** 2)

    def tail(self, t: float) -> float:
        return 2.0 * scipy.stats.norm.sf(t / self.sd)

    def v_exceed(self, a_n: float, m: int, q: int, eps: float) -> float:
        """Exact P(|a_n (X_{m+1} + ... + X_{m+q})| > eps): a centred Gaussian."""
        lags = np.abs(np.subtract.outer(np.arange(q), np.arange(q)))
        var = a_n ** 2 * float(np.sum(self.phi ** lags)) * self.sd ** 2
        return 2.0 * scipy.stats.norm.sf(eps / math.sqrt(var))


class _ChainFunction:
    """X_k = f(Y_k) for a finite chain Y with Y_1 drawn from the initial law."""

    def __init__(self, process: dict):
        chain = process["chain"]
        self.P = np.asarray(chain["transition"], dtype=float)
        self.init = np.asarray(chain["initial"], dtype=float)
        self.f = np.asarray(process.get("state_values", chain["states"]), dtype=float)
        # sup-mass envelope sup_k P(Y_k = s), by power iteration
        dist = self.init.copy()
        self.envelope = dist.copy()
        for _ in range(100_000):
            nxt = dist @ self.P
            self.envelope = np.maximum(self.envelope, nxt)
            if np.max(np.abs(nxt - dist)) < 1e-16:
                break
            dist = nxt
        pi = dist
        # long-run variance as the autocovariance series sum_k gamma_k under pi
        fbar = self.f - pi @ self.f
        g = fbar.copy()
        v = float(pi @ (fbar * fbar))
        for _ in range(100_000):
            g = self.P @ g
            term = float(pi @ (fbar * g))
            v += 2.0 * term
            if abs(term) < 1e-18:
                break
        self.v_inf = v

    def tail(self, t: float) -> float:
        return float(self.envelope[np.abs(self.f) >= t].sum())

    def v_exceed(self, a_n: float, m: int, q: int, eps: float) -> float:
        """Exact P(|a_n (X_{m+1} + ... + X_{m+q})| > eps), over all k^q state paths."""
        start = self.init @ np.linalg.matrix_power(self.P, m)
        k = len(self.f)
        total = 0.0
        for path in product(range(k), repeat=q):
            p = start[path[0]]
            for s, t in zip(path, path[1:]):
                p *= self.P[s, t]
            if abs(a_n * sum(self.f[s] for s in path)) > eps:
                total += p
        return total


def _largest_m(n: int, c: float) -> int:
    """max{1 <= k <= n-1 : sqrt(k/n) <= c}, or 1, in exact arithmetic."""
    c2 = Fraction(c) ** 2
    k = min(n - 1, math.floor(c2 * n))
    return max(1, k)


def check_blocking(cfg: dict, out: Path) -> list:
    process = cfg["process"]
    law = _GaussianAR1(process) if process["family"] == "ar1" else _ChainFunction(process)
    reps = int(cfg["replications"])
    c = float(cfg["c"])
    rows = _csv_rows(out / "blocking_report.csv")
    errors = []
    deltas = []
    for n in sorted({int(r["n"]) for r in rows}):
        group = [r for r in rows if int(r["n"]) == n]
        m, q = int(group[0]["m_n"]), int(group[0]["q_n"])
        delta, ratio = float(group[0]["delta_n"]), float(group[0]["ratio"])
        deltas.append(delta)
        where = f"blocking n={n}"
        if any((r["m_n"], r["q_n"], r["delta_n"], r["ratio"]) != (
                group[0]["m_n"], group[0]["q_n"], group[0]["delta_n"], group[0]["ratio"])
               for r in group):
            errors.append(f"{where}: rows disagree on (m, q, delta, ratio)")
        if m != _largest_m(n, c):
            errors.append(f"{where}: m_n={m}, expected {_largest_m(n, c)}")
        if not _close(ratio, math.sqrt(m / n), EXACT_TOL):
            errors.append(f"{where}: ratio {ratio} != sqrt(m/n) = {math.sqrt(m / n)}")
        a_n = 1.0 / math.sqrt(n * law.v_inf)
        if not 0.0 < delta <= 1.0 or law.tail(delta / a_n) > delta + EXACT_TOL:
            errors.append(f"{where}: delta_n={delta} violates P(a_n|X| >= delta) <= delta")
        q_want = max(1, min(math.floor(delta ** -0.5), n - m - 1))
        if q != q_want:
            errors.append(f"{where}: q_n={q}, expected {q_want}")
        for r in group:
            name, value = r["metric_name"], float(r["value"])
            if name == "eq8_identity_max_relerr" and not value <= 1e-9:
                errors.append(f"{where}: eq8 identity error {value} > 1e-9")
            if name == "step5_v_exceed_prob":
                p = law.v_exceed(a_n, m, q, EPSILON)
                band = Z_BAND * math.sqrt(p * (1.0 - p) / reps) + 1.0 / reps
                if abs(value - p) > band:
                    errors.append(f"{where}: step5 {value} outside {p} +- {band}")
    if any(b > a for a, b in zip(deltas, deltas[1:])):
        errors.append(f"blocking: delta_n increases along the grid: {deltas}")
    if len(deltas) != len(cfg["n_grid"]):
        errors.append(f"blocking: {len(deltas)} grid points reported, config has {len(cfg['n_grid'])}")
    return errors


# --------------------------------------------------------------------------
# alpha-profile and coupling-suite


def alpha_by_z_events(joints: np.ndarray) -> np.ndarray:
    """Exact alpha of each (X, Z) pmf in a (G, nx, nz) stack.

    Enumerates every event B on the Z side; for fixed B the best A
    collects the x with P({x} & B) > P({x}) P(B).
    """
    g, nx, nz = joints.shape
    px = joints.sum(axis=2)                                 # (G, nx)
    pz = joints.sum(axis=1)                                 # (G, nz)
    stacked = joints.reshape(g * nx, nz)
    bits = 1 << np.arange(nz, dtype=np.int64)
    best = np.zeros(g)
    for start in range(1, 1 << nz, ENUM_CHUNK):
        masks = np.arange(start, min(start + ENUM_CHUNK, 1 << nz), dtype=np.int64)
        sel = ((masks[:, None] & bits[None, :]) != 0).astype(float).T   # (nz, M)
        pab = (stacked @ sel).reshape(g, nx, -1)
        pb = pz @ sel                                       # (G, M)
        d = pab - px[:, :, None] * pb[:, None, :]
        best = np.maximum(best, np.clip(d, 0.0, None).sum(axis=1).max(axis=1))
    return best


def window_joint(P: np.ndarray, init: np.ndarray, j: int, lag: int, pw: int, fw: int) -> np.ndarray:
    """Joint pmf of (Y_{j-p+1..j}, Y_{j+lag..j+lag+fw-1}) with p = min(pw, j), Y_1 ~ init,
    by summing path probabilities over every past and future tuple."""
    k = len(init)
    p_eff = min(pw, j)
    start = init @ np.linalg.matrix_power(P, j - p_eff)
    past = list(product(range(k), repeat=p_eff))
    future = list(product(range(k), repeat=fw))
    p_past = np.array([start[t[0]] * np.prod([P[a, b] for a, b in zip(t, t[1:])]) for t in past])
    p_fut = np.array([np.prod([P[a, b] for a, b in zip(t, t[1:])]) for t in future])
    bridge = np.linalg.matrix_power(P, lag)
    last = np.array([t[-1] for t in past])
    first = np.array([t[0] for t in future])
    return p_past[:, None] * bridge[last[:, None], first[None, :]] * p_fut[None, :]


def check_alpha_profile(cfg: dict, out: Path) -> list:
    chain = cfg["chain"]
    P = np.asarray(chain["transition"], dtype=float)
    init = np.asarray(chain["initial"], dtype=float)
    pw, fw = int(cfg.get("past_window", 1)), int(cfg.get("future_window", 1))
    j_scan = int(cfg["j_scan"])
    lags = [int(n) for n in cfg["n_list"]]
    k = len(init)
    joints = np.zeros((len(lags) * j_scan, k ** pw, k ** fw))
    for i, (lag, j) in enumerate(product(lags, range(1, j_scan + 1))):
        joint = window_joint(P, init, j, lag, pw, fw)
        joints[i, : joint.shape[0]] = joint          # zero rows carry no mass
    alphas = alpha_by_z_events(joints).reshape(len(lags), j_scan).max(axis=1)
    rows = _csv_rows(out / "alpha_profile.csv")
    window = {int(r["n"]): float(r["alpha"]) for r in rows if r["claim"] == "eq1_window_alpha"}
    envelope = {int(r["n"]): float(r["alpha"]) for r in rows if r["claim"] == "eq2_analytic_bound"}
    errors = []
    if sorted(window) != lags or sorted(envelope) != lags:
        return [f"alpha-profile: rows cover lags {sorted(window)}, config has {lags}"]
    for lag, want in zip(lags, alphas):
        if abs(window[lag] - want) > EXACT_TOL:
            errors.append(f"alpha-profile lag {lag}: alpha {window[lag]} != recomputed {want}")
        if window[lag] > envelope[lag] + EXACT_TOL:
            errors.append(f"alpha-profile lag {lag}: alpha {window[lag]} above envelope {envelope[lag]}")
    return errors


def min_miss_probability(pmf: np.ndarray, atoms: np.ndarray, eps: float) -> float:
    """Optimal P(|X - Y| > 2 eps) over Y ~ X independent of Z.

    The LP splits by the Z atom: for each z it is a transport problem
    moving P(X = ., Z = z) onto P(Z = z) P(X = .) at 0/1 miss cost.
    """
    nx, nz = pmf.shape
    px, pz = pmf.sum(axis=1), pmf.sum(axis=0)
    cost = (np.abs(atoms[:, None] - atoms[None, :]) > 2.0 * eps).astype(float).ravel()
    eye, ones = scipy.sparse.identity(nx), np.ones((1, nx))
    A = scipy.sparse.vstack([scipy.sparse.kron(eye, ones), scipy.sparse.kron(ones, eye)]).tocsr()
    total = 0.0
    for z in range(nz):
        res = scipy.optimize.linprog(
            cost, A_eq=A, b_eq=np.concatenate([pmf[:, z], pz[z] * px]),
            bounds=(0, None), method="highs",
        )
        if not res.success:
            raise RuntimeError(f"transport LP for z={z} failed: {res.message}")
        total += res.fun
    return total


def check_coupling(cfg: dict, out: Path) -> list:
    rows = _json(out / "coupling_report.json")["cases"]
    if len(rows) != len(cfg["cases"]):
        return [f"coupling: {len(rows)} rows for {len(cfg['cases'])} cases"]
    errors = []
    for i, (case, row) in enumerate(zip(cfg["cases"], rows)):
        pmf = np.asarray(case["pmf"], dtype=float)
        atoms = np.asarray(case.get("atoms_x", np.arange(pmf.shape[0])), dtype=float)
        alpha = float(alpha_by_z_events(pmf[None])[0])
        n_net = len(case["net"])
        bound = case["delta"] + 4.0 * math.sqrt(n_net) * alpha
        objective = min_miss_probability(pmf, atoms, case["epsilon"])
        where = f"coupling case {i}"
        if row["N"] != n_net:
            errors.append(f"{where}: N={row['N']}, net has {n_net} points")
        if abs(row["alpha"] - alpha) > EXACT_TOL:
            errors.append(f"{where}: alpha {row['alpha']} != recomputed {alpha}")
        if not _close(row["bound"], bound, EXACT_TOL):
            errors.append(f"{where}: bound {row['bound']} != delta + 4 sqrt(N) alpha = {bound}")
        if abs(row["objective"] - objective) > LP_TOL:
            errors.append(f"{where}: objective {row['objective']} != re-solved {objective}")
        if row["objective"] > bound + LP_TOL:
            errors.append(f"{where}: objective {row['objective']} above the bound {bound}")
    return errors


# --------------------------------------------------------------------------
# limit-laws kinds


def check_selfdecomp(cfg: dict, out: Path) -> list:
    doc = _json(out / "selfdecomp_report.json")
    errors = []
    # the limit of an MA(q) normalized sum is Gaussian, hence selfdecomposable
    if doc["verdict"] != "pass":
        errors.append(f"selfdecomp: verdict {doc['verdict']!r}, the Gaussian limit must pass")
    if [r["c"] for r in doc["per_c"]] != cfg["c_values"]:
        errors.append("selfdecomp: per-c rows do not follow c_values")
    if doc["source"] != f"empirical(n={cfg['replications']})":
        errors.append(f"selfdecomp: source {doc['source']!r}")
    return errors


def check_integral(cfg: dict, out: Path) -> list:
    b = cfg["bdlp"]
    jl = b["jump_law"]
    if jl["kind"] != "normal":
        raise ValueError("the integral check covers normal jump laws")
    lam, mu, sd = b["jump_rate"], jl["mean"], jl["std"]
    sigma, t_max, n = b["gaussian_sigma"], cfg["t_max"], cfg["n_samples"]
    # cumulants of int_0^T e^{-t} dY(t): kappa_r(Y_1) (1 - e^{-rT}) / r for r >= 2
    ej1, ej2 = mu, mu ** 2 + sd ** 2
    ej4 = mu ** 4 + 6 * mu ** 2 * sd ** 2 + 3 * sd ** 4
    mean = (b["drift"] + lam * ej1) * -math.expm1(-t_max)
    var = (sigma ** 2 + lam * ej2) / 2.0 * -math.expm1(-2 * t_max)
    k4 = lam * ej4 / 4.0 * -math.expm1(-4 * t_max)
    mu4 = k4 + 3.0 * var ** 2
    summary = _json(out / "integral_summary.json")
    samples = np.loadtxt(out / "integral_samples.csv", delimiter=",", skiprows=1)[:, 1]
    errors = []
    if len(samples) != n or summary["n_samples"] != n:
        errors.append(f"integral: {len(samples)} samples written, config asks {n}")
    if not _close(summary["mean"], float(samples.mean()), 1e-12):
        errors.append("integral: summary mean differs from the written samples")
    if not _close(summary["variance"], float(samples.var()), 1e-12):
        errors.append("integral: summary variance differs from the written samples")
    mean_band = Z_BAND * math.sqrt(var / n)
    var_band = Z_BAND * math.sqrt((mu4 - var ** 2) / n)
    if abs(summary["mean"] - mean) > mean_band:
        errors.append(f"integral: mean {summary['mean']} outside {mean} +- {mean_band}")
    if abs(summary["variance"] - var) > var_band:
        errors.append(f"integral: variance {summary['variance']} outside {var} +- {var_band}")
    if summary["log_moment_diagnostic"] != "finite":
        errors.append("integral: normal jumps have a finite log-moment")
    return errors


def check_corollary(cfg: dict, out: Path) -> list:
    rows = _corollary_rows(out / "corollary_report.csv")
    errors = []
    if cfg["mode"] == "independent":
        # x + z is exactly N(0, 2) for normal innovations; DKW bounds the sampling KS
        reps = cfg["replications"]
        band = math.sqrt(math.log(2.0 / DKW_LEVEL) / (2.0 * reps))
        for r in rows:
            if not float(r["ks"]) <= band:
                errors.append(f"corollary independent: KS {r['ks']} above the DKW band {band}")
        if len(rows) != 1:
            errors.append(f"corollary independent: {len(rows)} rows")
    elif cfg["mode"] == "lagged_blocks":
        phi = cfg["process_x"]["phi"]
        lags = [int(r["grid"]) for r in rows]
        if lags != list(cfg.get("lags", (0, 2, 4, 8, 16))):
            errors.append(f"corollary lagged: rows cover lags {lags}")
        for r in rows:
            want = min(0.25, abs(phi) ** (int(r["grid"]) + 1) / 4.0)
            if not _close(float(r["alpha_bound"]), want, EXACT_TOL):
                errors.append(f"corollary lag {r['grid']}: alpha_bound {r['alpha_bound']} != {want}")
    else:
        raise ValueError(f"no check for corollary mode {cfg['mode']!r}")
    return errors


_CHECKS = {
    "alpha-profile": check_alpha_profile,
    "blocking-verify": check_blocking,
    "selfdecomp-test": check_selfdecomp,
    "integral-sample": check_integral,
    "coupling-suite": check_coupling,
    "corollary-sum": check_corollary,
}
