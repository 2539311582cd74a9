"""Configuration-driven experiment runner.

A single JSON document describes one experiment: its kind, a mandatory
seed, the model/spec parameters and optional tolerance overrides.
Unknown keys are hard errors (a silent typo would invalidate a
scientific report).  Each run writes a manifest (resolved config,
package version, seed, RNG scheme) plus the experiment's CSV/JSON
reports into the output directory; reruns of the same config and seed
are byte-identical.

Exit status: 0 when every pass-flag is true, 2 when any scientific
assertion failed, 1 on usage/config errors.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import numpy as np

from . import __version__, blocking, coupling, mixing, processes, selfdecomp
from .probcore import FiniteJointDistribution, Sample

ENV_OUT_DIR = "MIXLIMIT_OUT"
DEFAULT_OUT_DIR = "mixlimit-reports"

EXPERIMENT_KINDS = (
    ("alpha-profile", "window-exact and analytic mixing coefficients of a finite chain"),
    ("blocking-verify", "three-block decomposition diagnostics for a process spec"),
    ("selfdecomp-test", "CF-ratio positive-definiteness verdict for a law or a process limit"),
    ("integral-sample", "samples and moments of the exponential-kernel random integral"),
    ("coupling-suite", "optimal-coupling miss probabilities against the existence bound"),
    ("corollary-sum", "convolution fit for sums of weakly dependent variables"),
)

RNG_NOTE = (
    "Philox 64-bit counter RNG; streams keyed by (master seed, experiment label, "
    "spec hash), replications are rows of a stream's draw matrix"
)


class ConfigError(ValueError):
    """Bad config file: unknown kind/key, missing seed, malformed field."""


def list_experiments(as_json: bool = False) -> str:
    if as_json:
        return json.dumps(
            [{"kind": k, "description": d} for k, d in EXPERIMENT_KINDS],
            indent=2, sort_keys=True,
        )
    return "\n".join(f"{k}: {d}" for k, d in EXPERIMENT_KINDS)


def _require_keys(obj: dict, required, optional, where: str) -> None:
    if not isinstance(obj, dict):
        raise ConfigError(f"{where} must be a JSON object")
    for k in required:
        if k not in obj:
            raise ConfigError(f"{where} is missing required key {k!r}")
    allowed = set(required) | set(optional)
    for k in obj:
        if k not in allowed:
            raise ConfigError(f"{where} has unknown key {k!r}")


def _parse_chain(obj: dict, where: str) -> mixing.MarkovChainSpec:
    _require_keys(obj, ("states", "transition", "initial"), (), where)
    try:
        return mixing.MarkovChainSpec(
            states=np.asarray(obj["states"], dtype=float),
            transition=np.asarray(obj["transition"], dtype=float),
            initial=np.asarray(obj["initial"], dtype=float),
        )
    except ValueError as e:
        raise ConfigError(f"{where}: {e}") from e


def _parse_process(obj: dict, where: str) -> processes.ProcessSpec:
    _require_keys(
        obj, ("family",),
        ("phi", "weights", "innovations", "chain", "state_values", "value"),
        where,
    )
    fam = obj["family"]
    if fam not in processes.FAMILIES:
        raise ConfigError(f"{where}: unknown process family {fam!r}")
    kwargs = {"family": fam}
    if "innovations" in obj:
        _require_keys(obj["innovations"], (), ("name", "mean", "std"), f"{where}.innovations")
        kwargs["innovations"] = processes.InnovationLaw(**obj["innovations"])
    if "chain" in obj:
        kwargs["chain"] = _parse_chain(obj["chain"], f"{where}.chain")
    for k in ("phi", "value"):
        if k in obj:
            kwargs[k] = obj[k]
    if "weights" in obj:
        kwargs["weights"] = tuple(obj["weights"])
    if "state_values" in obj:
        kwargs["state_values"] = tuple(obj["state_values"])
    try:
        return processes.ProcessSpec(**kwargs)
    except ValueError as e:
        raise ConfigError(f"{where}: {e}") from e


def _parse_jump_law(obj: dict, where: str) -> selfdecomp.JumpLaw:
    _require_keys(obj, ("kind",), ("values", "probs", "mean", "std"), where)
    kind = obj["kind"]
    if kind == "discrete":
        return selfdecomp.DiscreteJumps(tuple(obj["values"]), tuple(obj["probs"]))
    if kind == "normal":
        return selfdecomp.NormalJumps(obj.get("mean", 0.0), obj.get("std", 1.0))
    if kind == "dyadic_tower":
        return selfdecomp.DyadicTowerJumps()
    raise ConfigError(f"{where}: unknown jump law kind {kind!r}")


_CLOSED_FORM_CFS = {
    "gaussian": lambda t: np.exp(-np.asarray(t, dtype=float) ** 2 / 2.0),
    "exponential": lambda t: 1.0 / (1.0 - 1j * np.asarray(t, dtype=float)),
    "uniform": lambda t: np.sinc(np.asarray(t, dtype=float) / np.pi),
}


def _write_csv(path: Path, columns, rows) -> None:
    with open(path, "w") as fh:
        blocking.write_csv(fh, columns, rows)


def _write_json(path: Path, obj) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


# --------------------------------------------------------------------------
# experiment implementations: each returns (files_written, all_pass)

def _run_alpha_profile(cfg: dict, out: Path):
    _require_keys(
        cfg, ("kind", "seed", "chain", "n_list"),
        ("past_window", "future_window", "j_scan", "include_bound", "out_dir"),
        "config",
    )
    chain = _parse_chain(cfg["chain"], "config.chain")
    n_list = [int(n) for n in cfg["n_list"]]
    pw = int(cfg.get("past_window", 1))
    fw = int(cfg.get("future_window", 1))
    profile = mixing.alpha_sequence(chain, n_list, pw, fw, j_scan=cfg.get("j_scan"))
    rows = [
        {"n": n, "alpha": a, "kind": profile.kind, "claim": "eq1_window_alpha"}
        for n, a in profile.values
    ]
    ok = True
    if cfg.get("include_bound", True):
        bound = mixing.alpha_bound_geometric(chain, n_list)
        for n, a in bound.values:
            rows.append({"n": n, "alpha": a, "kind": bound.kind, "claim": "eq2_analytic_bound"})
        for n, a in profile.values:
            if a > bound.alpha_at(n) + 1e-12:
                ok = False
    _write_csv(out / "alpha_profile.csv", ("n", "alpha", "kind", "claim"), rows)
    return ["alpha_profile.csv"], ok


def _run_blocking_verify(cfg: dict, out: Path):
    _require_keys(
        cfg, ("kind", "seed", "process", "c", "n_grid", "replications"),
        ("epsilon", "grid_step", "ks_tol", "tightness_bound", "cf_radius",
         "selfdecomp_c_values", "out_dir"),
        "config",
    )
    spec = _parse_process(cfg["process"], "config.process")
    report = blocking.verify_blocking(
        spec,
        c=float(cfg["c"]),
        n_grid=[int(n) for n in cfg["n_grid"]],
        replications=int(cfg["replications"]),
        seed=int(cfg["seed"]),
        epsilon=float(cfg.get("epsilon", blocking.DEFAULT_EPSILON)),
        grid_step=float(cfg.get("grid_step", blocking.DEFAULT_DELTA_GRID_STEP)),
        ks_tol=float(cfg.get("ks_tol", blocking.DEFAULT_KS_TOL)),
        tightness_bound=float(cfg.get("tightness_bound", blocking.DEFAULT_TIGHTNESS_BOUND)),
        cf_radius=float(cfg.get("cf_radius", selfdecomp.DEFAULT_EMPIRICAL_RADIUS)),
        selfdecomp_c_values=tuple(cfg.get("selfdecomp_c_values", (0.3, 0.5, 0.8))),
    )
    with open(out / "blocking_report.csv", "w") as fh:
        report.to_csv(fh)
    return ["blocking_report.csv"], report.all_pass


def _run_selfdecomp_test(cfg: dict, out: Path):
    _require_keys(
        cfg, ("kind", "seed", "c_values"),
        ("cf_form", "process", "n", "replications", "grid_radius", "grid_points",
         "tol", "out_dir"),
        "config",
    )
    cs = tuple(float(c) for c in cfg["c_values"])
    if "cf_form" in cfg:
        if "process" in cfg:
            raise ConfigError("config: give either cf_form or process, not both")
        form = cfg["cf_form"]
        if form not in _CLOSED_FORM_CFS:
            raise ConfigError(f"config.cf_form: unknown form {form!r}")
        radius = float(cfg.get("grid_radius", selfdecomp.DEFAULT_GRID_RADIUS))
        report = selfdecomp.selfdecomp_test(
            _CLOSED_FORM_CFS[form], cs,
            grid_radius=radius,
            grid_points=int(cfg.get("grid_points", selfdecomp.DEFAULT_GRID_POINTS)),
            tol=cfg.get("tol"),
        )
    elif "process" in cfg:
        spec = _parse_process(cfg["process"], "config.process")
        n = int(cfg.get("n", 4096))
        reps = int(cfg.get("replications", 10_000))
        paths = processes.simulate_many(spec, n, reps, int(cfg["seed"]), label="selfdecomp")
        total = processes.norming_for(spec).normalized_sum(paths)
        report = selfdecomp.selfdecomp_test_sample(
            Sample(total[:, None]), cs,
            grid_radius=float(cfg.get("grid_radius", selfdecomp.DEFAULT_EMPIRICAL_RADIUS)),
            grid_points=int(cfg.get("grid_points", selfdecomp.DEFAULT_GRID_POINTS)),
            tol=cfg.get("tol"),
        )
    else:
        raise ConfigError("config: selfdecomp-test needs cf_form or process")
    doc = json.loads(report.to_json())
    doc["claim"] = "eq5_convolution_decomposition"
    _write_json(out / "selfdecomp_report.json", doc)
    return ["selfdecomp_report.json"], report.verdict == "pass"


def _run_integral_sample(cfg: dict, out: Path):
    _require_keys(
        cfg, ("kind", "seed", "bdlp", "t_max", "n_steps", "n_samples"),
        ("write_samples", "log_moment_samples", "out_dir"),
        "config",
    )
    b = cfg["bdlp"]
    _require_keys(b, (), ("drift", "gaussian_sigma", "jump_rate", "jump_law"), "config.bdlp")
    law = _parse_jump_law(b["jump_law"], "config.bdlp.jump_law") if "jump_law" in b else None
    bdlp = selfdecomp.BDLPSpec(
        drift=float(b.get("drift", 0.0)),
        gaussian_sigma=float(b.get("gaussian_sigma", 0.0)),
        jump_rate=float(b.get("jump_rate", 0.0)),
        jump_law=law,
    )
    sample = selfdecomp.sample_random_integral(
        bdlp, float(cfg["t_max"]), int(cfg["n_steps"]), int(cfg["n_samples"]),
        seed=int(cfg["seed"]),
    )
    files = []
    if cfg.get("write_samples", True):
        path = processes.SamplePath(sample.points[:, 0], spec_hash="bdlp", seed=int(cfg["seed"]))
        with open(out / "integral_samples.csv", "w") as fh:
            path.to_csv(fh)
        files.append("integral_samples.csv")
    lm = selfdecomp.log_moment_check(
        bdlp, n_samples=int(cfg.get("log_moment_samples", 100_000)), seed=int(cfg["seed"])
    )
    summary = {
        "mean": float(sample.points.mean()),
        "variance": float(sample.points.var()),
        "n_samples": int(cfg["n_samples"]),
        "truncation_error_factor": float(np.exp(-float(cfg["t_max"]))),
        "log_moment_estimate": lm["estimate"] if np.isfinite(lm["estimate"]) else None,
        "log_moment_diagnostic": lm["diagnostic"],
        "claim": "eq6_bdlp_integral",
    }
    _write_json(out / "integral_summary.json", summary)
    files.append("integral_summary.json")
    return files, lm["diagnostic"] == "finite"


def _run_coupling_suite(cfg: dict, out: Path):
    _require_keys(cfg, ("kind", "seed", "cases"), ("out_dir",), "config")
    problems = []
    for i, case in enumerate(cfg["cases"]):
        where = f"config.cases[{i}]"
        _require_keys(case, ("pmf", "epsilon", "net", "delta"), ("atoms_x", "atoms_z"), where)
        pmf = np.asarray(case["pmf"], dtype=float)
        ax = np.asarray(case.get("atoms_x", np.arange(pmf.shape[0])), dtype=float)
        az = np.asarray(case.get("atoms_z", np.arange(pmf.shape[1])), dtype=float)
        try:
            joint = FiniteJointDistribution(ax, az, pmf)
            problems.append(coupling.CouplingProblem(
                joint=joint, epsilon=float(case["epsilon"]),
                net=np.asarray(case["net"], dtype=float), delta=float(case["delta"]),
            ))
        except ValueError as e:
            raise ConfigError(f"{where}: {e}") from e
    report = coupling.verify_prop1_suite(problems)
    for row in report["cases"]:
        row["claim"] = "prop1_bound"
    _write_json(out / "coupling_report.json", report)
    return ["coupling_report.json"], report["all_pass"]


def _run_corollary_sum(cfg: dict, out: Path):
    _require_keys(
        cfg, ("kind", "seed", "mode", "process_x"),
        ("process_z", "n", "lags", "block_length", "replications", "ks_tol",
         "negative_control_min_ks", "out_dir"),
        "config",
    )
    spec_x = _parse_process(cfg["process_x"], "config.process_x")
    spec_z = _parse_process(cfg["process_z"], "config.process_z") if "process_z" in cfg else None
    mode = cfg["mode"]
    if mode not in ("independent", "duplicate", "lagged_blocks"):
        raise ConfigError(f"config.mode: unknown mode {mode!r}")
    report = coupling.corollary_sum_experiment(
        spec_x, spec_z, mode=mode,
        n=int(cfg.get("n", 1024)),
        lags=[int(v) for v in cfg.get("lags", (0, 2, 4, 8, 16))],
        replications=int(cfg.get("replications", 100_000)),
        seed=int(cfg["seed"]),
        block_length=int(cfg.get("block_length", 4)),
    )
    ks_tol = float(cfg.get("ks_tol", 0.02))
    min_ks = float(cfg.get("negative_control_min_ks", 0.05))
    rows = []
    for r in report["rows"]:
        if mode == "duplicate":
            ok = r["ks"] > min_ks       # the control must NOT fit the convolution
            claim = "cor1b_negative_control"
        elif mode == "independent":
            ok = r["ks"] <= ks_tol
            claim = "cor1b_convolution_fit"
        else:
            ok = (r["grid"] != max(x["grid"] for x in report["rows"])) or r["ks"] <= ks_tol
            claim = "cor1b_lagged_convolution"
        rows.append({**r, "pass": ok, "claim": claim})
    _write_csv(
        out / "corollary_report.csv",
        ("grid", "ks", "reference", "alpha_bound", "pass", "claim"),
        rows,
    )
    return ["corollary_report.csv"], all(r["pass"] for r in rows)


_RUNNERS = {
    "alpha-profile": _run_alpha_profile,
    "blocking-verify": _run_blocking_verify,
    "selfdecomp-test": _run_selfdecomp_test,
    "integral-sample": _run_integral_sample,
    "coupling-suite": _run_coupling_suite,
    "corollary-sum": _run_corollary_sum,
}


def resolve_out_dir(cfg: dict, out_override: str | None) -> Path:
    if out_override:
        return Path(out_override)
    if cfg.get("out_dir"):
        return Path(cfg["out_dir"])
    return Path(os.environ.get(ENV_OUT_DIR, DEFAULT_OUT_DIR))


def run(config_path, out_dir: str | None = None) -> int:
    """Execute one experiment config; returns the process exit status."""
    try:
        with open(config_path) as fh:
            cfg = json.load(fh)
    except OSError as e:
        print(f"config error: cannot read {config_path}: {e}")
        return 1
    except json.JSONDecodeError as e:
        print(f"config error: {config_path} is not valid JSON: {e}")
        return 1
    try:
        if not isinstance(cfg, dict):
            raise ConfigError("config root must be a JSON object")
        if "kind" not in cfg:
            raise ConfigError("config is missing required key 'kind'")
        if "seed" not in cfg:
            raise ConfigError("config is missing required key 'seed' (no implicit entropy)")
        if not isinstance(cfg["seed"], int):
            raise ConfigError("config key 'seed' must be an integer")
        kind = cfg["kind"]
        if kind not in _RUNNERS:
            raise ConfigError(f"unknown experiment kind {kind!r}")
        out = resolve_out_dir(cfg, out_dir)
        out.mkdir(parents=True, exist_ok=True)
        files, ok = _RUNNERS[kind](cfg, out)
        manifest = {
            "kind": kind,
            "config": cfg,
            "version": __version__,
            "seed": cfg["seed"],
            "rng": RNG_NOTE,
            "reports": sorted(files),
            "all_pass": bool(ok),
        }
        _write_json(out / "manifest.json", manifest)
    except ValueError as e:
        # ConfigError, and any value a runner rejects, is a config error
        print(f"config error: {e}")
        return 1
    for f in sorted(files):
        print(f"wrote {out / f}")
    print(f"wrote {out / 'manifest.json'}")
    if not ok:
        print("scientific assertion failed (see report pass flags)")
        return 2
    return 0
