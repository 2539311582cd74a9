"""Configuration-driven experiment runner.

A single JSON document describes one experiment: its kind, a mandatory
seed and the model/spec parameters; the report ceilings are library
constants, and an optional key left out takes the library's default.
KINDS states each kind's keys and their JSON types, OBJECT_KEYS those of
the nested objects.  Unknown keys, and keys the chosen mode does not
read, are hard errors (a silent typo would invalidate a scientific
report).  Each run writes a
manifest (resolved config, package version, seed, RNG scheme) plus the
experiment's CSV/JSON reports into the output directory; reruns of the
same config and seed are byte-identical.  A config error, an output path
under a file or a report name taken by anything but a regular file among
them, writes nothing: the directory is created, and the files written,
only once the experiment has run, and they replace their old versions
only once all of them are written.

Exit status: 0 when every pass-flag is true, 2 when any scientific
assertion failed, 1 on usage/config errors.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import os
from pathlib import Path

import numpy as np

from . import __version__, blocking, coupling, mixing, processes, selfdecomp
from .probcore import FiniteJointDistribution

ENV_OUT_DIR = "MIXLIMIT_OUT"
DEFAULT_OUT_DIR = "mixlimit-reports"

RNG_NOTE = (
    "Philox 64-bit counter RNG; streams keyed by (master seed, experiment label, "
    f"spec hash, block index), replication r is row r mod {processes._CHUNK_ROWS} "
    f"of block r // {processes._CHUNK_ROWS}"
)


class ConfigError(ValueError):
    """Bad config file: unknown kind/key, missing seed, malformed field."""


def list_experiments(as_json: bool = False) -> str:
    if as_json:
        return json.dumps(
            [{"kind": k, "description": entry[0]} for k, entry in KINDS.items()],
            indent=2, sort_keys=True,
        )
    return "\n".join(f"{k}: {entry[0]}" for k, entry in KINDS.items())


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _is_number(v) -> bool:
    return _is_int(v) or isinstance(v, float)


# the JSON type a config value must have -> its test
_JSON_TYPES = {
    "an integer": _is_int,
    "an integer or null": lambda v: v is None or _is_int(v),
    "a positive integer": lambda v: _is_int(v) and v >= 1,
    "a number": _is_number,
    "a string": lambda v: isinstance(v, str),
    "a string or null": lambda v: v is None or isinstance(v, str),
    "an array": lambda v: isinstance(v, list),
    "an array of integers": lambda v: isinstance(v, list) and all(map(_is_int, v)),
    "an array of numbers": lambda v: isinstance(v, list) and all(map(_is_number, v)),
    "a JSON object": lambda v: isinstance(v, dict),
}

# the keys of every config whatever its kind: kind and seed are required
_COMMON_REQUIRED = {"seed": "an integer", "kind": "a string"}
_COMMON_OPTIONAL = {"out_dir": "a string or null"}

# each nested config object -> (required keys, optional keys), every key
# mapped to its JSON type; a process takes the keys its family reads
# (processes.FAMILIES), a case is one entry of a coupling-suite's cases
OBJECT_KEYS = {
    "chain": ({"states": "an array", "transition": "an array", "initial": "an array"}, {}),
    "process": ({"family": "a string"},
                {"phi": "a number", "weights": "an array of numbers",
                 "innovations": "a JSON object", "chain": "a JSON object",
                 "state_values": "an array of numbers"}),
    "innovations": ({}, {"name": "a string", "mean": "a number", "std": "a number"}),
    "bdlp": ({}, {"drift": "a number", "gaussian_sigma": "a number", "jump_rate": "a number",
                  "jump_law": "a JSON object"}),
    "jump_law": ({"kind": "a string"},
                 {"values": "an array of numbers", "probs": "an array of numbers",
                  "mean": "a number", "std": "a number"}),
    "case": ({"pmf": "an array", "epsilon": "a number", "net": "an array", "delta": "a number"},
             {"atoms_x": "an array", "atoms_z": "an array"}),
}


def _check(obj, required: dict, optional: dict, where: str) -> None:
    """obj must be an object with every required key, no key outside
    required and optional, and each value of the JSON type its table gives."""
    if not isinstance(obj, dict):
        raise ConfigError(f"{where} must be a JSON object, got {obj!r}")
    for k in required:
        if k not in obj:
            raise ConfigError(f"{where} is missing required key {k!r}")
    for k in obj:
        if k not in required and k not in optional:
            raise ConfigError(f"{where} has unknown key {k!r}")
    for k, json_type in (*required.items(), *optional.items()):
        if k in obj and not _JSON_TYPES[json_type](obj[k]):
            raise ConfigError(f"{where}.{k} must be {json_type}, got {obj[k]!r}")


def _finite(text: str, kind=float):
    """A JSON number literal as kind; NaN, Infinity and literals beyond float range fail."""
    if not np.isfinite(float(text)):
        raise ConfigError(f"the number {text} is not finite")
    return kind(text)


def _reject_keys(obj: dict, keys, reason: str, where: str = "config") -> None:
    for k in keys:
        if k in obj:
            raise ConfigError(f"{where}.{k} is not used {reason}")


@contextlib.contextmanager
def _naming(where: str):
    """Re-raise a ValueError of the library calls in the block as a
    ConfigError naming where (a ConfigError raised there would be named twice)."""
    try:
        yield
    except ValueError as e:
        raise ConfigError(f"{where}: {e}") from e


def _parse_chain(obj, where: str) -> mixing.MarkovChainSpec:
    _check(obj, *OBJECT_KEYS["chain"], where)
    with _naming(where):
        return mixing.MarkovChainSpec(
            states=np.asarray(obj["states"], dtype=float),
            transition=np.asarray(obj["transition"], dtype=float),
            initial=np.asarray(obj["initial"], dtype=float),
        )


def _parse_process(obj, where: str) -> processes.ProcessSpec:
    _check(obj, *OBJECT_KEYS["process"], where)
    fam = obj["family"]
    if fam not in processes.FAMILIES:
        raise ConfigError(f"{where}: unknown process family {fam!r}")
    _reject_keys(obj, [k for k in obj if k not in ("family", *processes.FAMILIES[fam])],
                 f"by family {fam!r}", where)
    # phi and the innovation law go into describe(), and so into the spec
    # hash, exactly as given: they are checked but not converted
    kwargs = {k: tuple(v) if isinstance(v, list) else v for k, v in obj.items()}
    if "innovations" in obj:
        _check(obj["innovations"], *OBJECT_KEYS["innovations"], f"{where}.innovations")
        with _naming(f"{where}.innovations"):
            kwargs["innovations"] = processes.InnovationLaw(**obj["innovations"])
    if "chain" in obj:
        kwargs["chain"] = _parse_chain(obj["chain"], f"{where}.chain")
    with _naming(where):
        return processes.ProcessSpec(**kwargs)


def _parse_jump_law(obj, where: str) -> selfdecomp.JumpLaw:
    _check(obj, *OBJECT_KEYS["jump_law"], where)
    kind = obj["kind"]
    with _naming(where):
        if kind == "discrete":
            return selfdecomp.DiscreteJumps(obj.get("values", ()), obj.get("probs", ()))
        if kind == "normal":
            return selfdecomp.NormalJumps(obj.get("mean", 0.0), obj.get("std", 1.0))
        if kind == "dyadic_tower":
            return selfdecomp.DyadicTowerJumps()
        raise ValueError(f"unknown jump law kind {kind!r}")


_CLOSED_FORM_CFS = {
    "gaussian": lambda t: np.exp(-np.asarray(t, dtype=float) ** 2 / 2.0),
    "exponential": lambda t: 1.0 / (1.0 - 1j * np.asarray(t, dtype=float)),
    "uniform": lambda t: np.sinc(np.asarray(t, dtype=float) / np.pi),
}


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


# the columns of blocking_report.csv, one per key of a verify_blocking row
CSV_COLUMNS = ("n", "m_n", "q_n", "delta_n", "ratio", "metric_name", "value",
               "analytic_ceiling", "pass")


def csv_text(columns, rows) -> str:
    """A header line of columns, then one line per row dict, quoted where a cell needs it."""
    buf = io.StringIO()
    out = csv.writer(buf, lineterminator="\n")
    out.writerow(columns)
    out.writerows([_csv_cell(row[c]) for c in columns] for row in rows)
    return buf.getvalue()


def _csv_cell(v) -> str:
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return f"{float(v):.17e}"
    return str(v)


def write_path_csv(fh, values) -> None:
    """Two-column CSV (index, value) of a path, each value as its shortest repr."""
    fh.write("index,value\n")
    for i, x in enumerate(values, start=1):
        fh.write(f"{i},{float(x)!r}\n")


# --------------------------------------------------------------------------
# experiment implementations: each takes a config run() has checked against
# its KINDS entry, returns ({file name: text}, all_pass) and writes nothing,
# so that a config error leaves the output directory alone

def _run_alpha_profile(cfg: dict):
    chain = _parse_chain(cfg["chain"], "config.chain")
    n_list = cfg["n_list"]
    j_scan = cfg.get("j_scan")
    profile = mixing.alpha_sequence(chain, n_list, mixing.J_SCAN if j_scan is None else j_scan)
    bound = mixing.alpha_bound_geometric(chain, n_list)
    rows = [
        {"n": n, "alpha": a, "kind": p.kind, "claim": claim}
        for p, claim in ((profile, "eq1_window_alpha"), (bound, "eq2_analytic_bound"))
        for n, a in p.values
    ]
    ok = all(a <= bound.alpha_at(n) + 1e-12 for n, a in profile.values)
    return {"alpha_profile.csv": csv_text(("n", "alpha", "kind", "claim"), rows)}, ok


def _run_blocking_verify(cfg: dict):
    rows = blocking.verify_blocking(
        _parse_process(cfg["process"], "config.process"), c=float(cfg["c"]),
        n_grid=cfg["n_grid"], replications=cfg["replications"], seed=cfg["seed"],
    )
    return {"blocking_report.csv": csv_text(CSV_COLUMNS, rows)}, all(r["pass"] for r in rows)


def _run_selfdecomp_test(cfg: dict):
    # checked before a process is simulated: a bad c is a config error at once
    cs = selfdecomp._c_tuple(cfg["c_values"])
    grid_points = cfg.get("grid_points", selfdecomp.DEFAULT_GRID_POINTS)
    if "cf_form" in cfg:
        if "process" in cfg:
            raise ConfigError("config: give either cf_form or process, not both")
        _reject_keys(cfg, ("n", "replications"), "with cf_form")
        form = cfg["cf_form"]
        if form not in _CLOSED_FORM_CFS:
            raise ConfigError(f"config.cf_form: unknown form {form!r}")
        report = selfdecomp.selfdecomp_test(_CLOSED_FORM_CFS[form], cs, grid_points=grid_points)
    elif "process" in cfg:
        spec = _parse_process(cfg["process"], "config.process")
        n, reps = cfg.get("n", 4096), cfg.get("replications", 10_000)
        total = processes.normalized_sums(spec, n, reps, cfg["seed"], "selfdecomp")
        report = selfdecomp.selfdecomp_test_sample(total, cs, grid_points=grid_points)
    else:
        raise ConfigError("config: selfdecomp-test needs cf_form or process")
    doc = {**report, "claim": "eq5_convolution_decomposition"}
    return {"selfdecomp_report.json": _json_text(doc)}, report["verdict"] == "pass"


def _run_integral_sample(cfg: dict):
    b = cfg["bdlp"]
    _check(b, *OBJECT_KEYS["bdlp"], "config.bdlp")
    law = _parse_jump_law(b["jump_law"], "config.bdlp.jump_law") if "jump_law" in b else None
    with _naming("config.bdlp"):
        bdlp = selfdecomp.BDLPSpec(
            **{k: float(b.get(k, 0.0)) for k in ("drift", "gaussian_sigma", "jump_rate")},
            jump_law=law)
    t_max = float(cfg["t_max"])
    n_samples = cfg["n_samples"]
    # the probe runs first: it is the diagnosis when the sample overflows
    # (the two draw from independent streams, so the order changes no value)
    probe = {"n_samples": cfg["log_moment_samples"]} if "log_moment_samples" in cfg else {}
    lm = selfdecomp.log_moment_check(bdlp, seed=cfg["seed"], **probe)
    sample = selfdecomp.sample_random_integral(
        bdlp, t_max, cfg["n_steps"], n_samples, seed=cfg["seed"],
    )
    finite = bool(np.all(np.isfinite(sample)))
    samples_csv = io.StringIO()
    write_path_csv(samples_csv, sample)
    summary = {
        "mean": float(sample.mean()) if finite else None,
        "variance": float(sample.var()) if finite else None,
        "n_samples": n_samples,
        "truncation_error_factor": float(np.exp(-t_max)),
        "log_moment_estimate": lm["estimate"] if np.isfinite(lm["estimate"]) else None,
        # a sample beyond float range is itself a sign of a divergent log-moment
        "log_moment_diagnostic": lm["diagnostic"] if finite else "suspect-infinite",
        "claim": "eq6_bdlp_integral",
    }
    files = {
        "integral_samples.csv": samples_csv.getvalue(),
        "integral_summary.json": _json_text(summary),
    }
    return files, summary["log_moment_diagnostic"] == "finite"


def _run_coupling_suite(cfg: dict):
    problems = []
    for i, case in enumerate(cfg["cases"]):
        where = f"config.cases[{i}]"
        _check(case, *OBJECT_KEYS["case"], where)
        with _naming(where):
            pmf = np.asarray(case["pmf"], dtype=float)
            if pmf.ndim != 2:
                raise ValueError(f"pmf must be a matrix, got shape {pmf.shape}")
            joint = FiniteJointDistribution(case.get("atoms_x", np.arange(pmf.shape[0])),
                                            case.get("atoms_z", np.arange(pmf.shape[1])), pmf)
            problems.append(coupling.CouplingProblem(
                joint=joint, epsilon=float(case["epsilon"]), net=case["net"],
                delta=float(case["delta"])))
    report = coupling.verify_prop1_suite(problems)
    for row in report["cases"]:
        row["claim"] = "prop1_bound"
    return {"coupling_report.json": _json_text(report)}, report["all_pass"]


# the corollary-sum pass rule: a convolution fit is within COROLLARY_KS_TOL,
# the duplicate negative control is beyond NEGATIVE_CONTROL_MIN_KS
COROLLARY_KS_TOL = 0.02
NEGATIVE_CONTROL_MIN_KS = 0.05

# the optional corollary-sum keys each mode does not read
_COROLLARY_UNUSED = {
    "independent": ("lags", "block_length"),
    "duplicate": ("process_z", "lags", "block_length"),
    "lagged_blocks": ("process_z", "n"),
}


def _run_corollary_sum(cfg: dict):
    spec_x = _parse_process(cfg["process_x"], "config.process_x")
    spec_z = _parse_process(cfg["process_z"], "config.process_z") if "process_z" in cfg else None
    mode = cfg["mode"]
    if mode not in _COROLLARY_UNUSED:
        raise ConfigError(f"config.mode: unknown mode {mode!r}")
    _reject_keys(cfg, _COROLLARY_UNUSED[mode], f"in mode {mode!r}")
    found = coupling.corollary_sum_experiment(
        spec_x, spec_z, mode=mode, seed=cfg["seed"],
        **{k: cfg[k] for k in ("n", "lags", "replications", "block_length") if k in cfg},
    )
    rows = []
    for r in found:
        if mode == "duplicate":
            ok = r["ks"] > NEGATIVE_CONTROL_MIN_KS   # the control must NOT fit the convolution
            claim = "cor1b_negative_control"
        elif mode == "independent":
            ok = r["ks"] <= COROLLARY_KS_TOL
            claim = "cor1b_convolution_fit"
        else:
            ok = r["grid"] != max(x["grid"] for x in found) or r["ks"] <= COROLLARY_KS_TOL
            claim = "cor1b_lagged_convolution"
        rows.append({**r, "pass": ok, "claim": claim})
    text = csv_text(("grid", "ks", "reference", "alpha_bound", "pass", "claim"), rows)
    return {"corollary_report.csv": text}, all(r["pass"] for r in rows)


# each experiment kind -> (description, runner, required keys, optional
# keys), every key besides kind, seed and out_dir mapped to its JSON type
KINDS = {
    "alpha-profile": (
        "exact mixing coefficients of a finite chain (max over j <= j_scan, "
        "a lower bound) and their analytic envelope", _run_alpha_profile,
        {"chain": "a JSON object", "n_list": "an array of integers"},
        # the windows are checked but inert: no window changes a chain's
        # coefficient (mixing.alpha_window)
        {"past_window": "a positive integer", "future_window": "a positive integer",
         "j_scan": "an integer or null"}),
    "blocking-verify": (
        "three-block decomposition diagnostics for a process spec", _run_blocking_verify,
        {"process": "a JSON object", "c": "a number", "n_grid": "an array of integers",
         "replications": "an integer"}, {}),
    "selfdecomp-test": (
        "CF-ratio positive-definiteness verdict for a law or a process limit",
        _run_selfdecomp_test, {"c_values": "an array of numbers"},
        {"cf_form": "a string", "process": "a JSON object", "n": "an integer",
         "replications": "an integer", "grid_points": "an integer"}),
    "integral-sample": (
        "samples and moments of the exponential-kernel random integral", _run_integral_sample,
        {"bdlp": "a JSON object", "t_max": "a number", "n_steps": "an integer",
         "n_samples": "an integer"}, {"log_moment_samples": "an integer"}),
    "coupling-suite": (
        "optimal-coupling miss probabilities against the existence bound", _run_coupling_suite,
        {"cases": "an array"}, {}),
    "corollary-sum": (
        "convolution fit for sums of weakly dependent variables", _run_corollary_sum,
        {"mode": "a string", "process_x": "a JSON object"},
        {"process_z": "a JSON object", "n": "an integer", "lags": "an array of integers",
         "block_length": "an integer", "replications": "an integer"}),
}


def _check_config(cfg) -> tuple:
    """cfg's KINDS entry, once every top-level key of cfg is checked against it."""
    if not isinstance(cfg, dict):
        raise ConfigError(f"config must be a JSON object, got {cfg!r}")
    if "kind" not in cfg:
        raise ConfigError("config is missing required key 'kind'")
    if "seed" not in cfg:
        raise ConfigError("config is missing required key 'seed' (no implicit entropy)")
    _check({k: cfg[k] for k in _COMMON_REQUIRED}, _COMMON_REQUIRED, {}, "config")
    if cfg["kind"] not in KINDS:
        raise ConfigError(f"unknown experiment kind {cfg['kind']!r}")
    entry = KINDS[cfg["kind"]]
    _check(cfg, {**_COMMON_REQUIRED, **entry[2]}, {**_COMMON_OPTIONAL, **entry[3]}, "config")
    return entry


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
            cfg = json.load(fh, parse_float=_finite, parse_int=lambda t: _finite(t, int),
                            parse_constant=_finite)
    except OSError as e:
        print(f"config error: cannot read {config_path}: {e}")
        return 1
    except json.JSONDecodeError as e:
        print(f"config error: {config_path} is not valid JSON: {e}")
        return 1
    except ConfigError as e:
        print(f"config error: {config_path}: {e}")
        return 1
    try:
        runner = _check_config(cfg)[1]
        out = resolve_out_dir(cfg, out_dir)
        nearest = next(p for p in (out, *out.parents) if p.exists())
        if not nearest.is_dir():
            raise ConfigError(f"output path {out}: {nearest} is not a directory")
        files, ok = runner(cfg)
        reports = sorted(files)
        names = (*reports, "manifest.json")
        for name in names:
            if (out / name).exists() and not (out / name).is_file():
                raise ConfigError(f"cannot write to {out}: {out / name} is not a regular file")
    except ValueError as e:
        # ConfigError, and any value a runner rejects, is a config error
        print(f"config error: {e}")
        return 1
    files["manifest.json"] = _json_text({
        "kind": cfg["kind"],
        "config": cfg,
        "version": __version__,
        "seed": cfg["seed"],
        "rng": RNG_NOTE,
        "reports": reports,
        "all_pass": bool(ok),
    })
    # the only place a run touches the output directory: after the runner
    # returned.  Each file is written to a temporary sibling, and the
    # temporaries replace the files only once every write has succeeded.
    temps = {}
    try:
        out.mkdir(parents=True, exist_ok=True)
        for name in names:
            tmp = out / f".{name}.{os.getpid()}.tmp"
            with open(tmp, "x") as fh:
                temps[name] = tmp
                fh.write(files[name])
        for name in names:
            os.replace(temps.pop(name), out / name)
            print(f"wrote {out / name}")
    except OSError as e:
        for tmp in temps.values():
            tmp.unlink(missing_ok=True)
        print(f"config error: cannot write to {out}: {e}")
        return 1
    if not ok:
        print("scientific assertion failed (see report pass flags)")
        return 2
    return 0
