"""Configuration-driven experiment runner.

A single JSON document describes one experiment: its kind, a mandatory
seed and the model/spec parameters; the report ceilings are library
constants, and an optional key left out takes the library's default.
Unknown keys, and keys the chosen mode does not read, are hard errors (a
silent typo would invalidate a scientific report).  Each run writes a
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

EXPERIMENT_KINDS = (
    ("alpha-profile", "exact mixing coefficients of a finite chain (max over j <= j_scan, "
                      "a lower bound) and their analytic envelope"),
    ("blocking-verify", "three-block decomposition diagnostics for a process spec"),
    ("selfdecomp-test", "CF-ratio positive-definiteness verdict for a law or a process limit"),
    ("integral-sample", "samples and moments of the exponential-kernel random integral"),
    ("coupling-suite", "optimal-coupling miss probabilities against the existence bound"),
    ("corollary-sum", "convolution fit for sums of weakly dependent variables"),
)

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
}


def _get(obj: dict, key: str, json_type: str, where: str = "config", default=None):
    """obj[key], or default when the key is absent, after checking its JSON type."""
    if key not in obj:
        return default
    value = obj[key]
    if not _JSON_TYPES[json_type](value):
        raise ConfigError(f"{where}.{key} must be {json_type}, got {value!r}")
    return value


def _given(obj: dict, keys_types, where: str = "config") -> dict:
    """The keys of (key, JSON type) pairs that obj sets, checked, as keyword arguments."""
    return {k: _get(obj, k, json_type, where) for k, json_type in keys_types if k in obj}


def _finite(text: str) -> float:
    """A JSON number literal as a float; NaN, Infinity and overflowing literals are rejected."""
    x = float(text)
    if not np.isfinite(x):
        raise ConfigError(f"the number {text} is not finite")
    return x


def _reject_keys(obj: dict, keys, reason: str, where: str = "config") -> None:
    for k in keys:
        if k in obj:
            raise ConfigError(f"{where}.{k} is not used {reason}")


def _parse_chain(obj: dict, where: str) -> mixing.MarkovChainSpec:
    _require_keys(obj, ("states", "transition", "initial"), (), where)
    for k in ("states", "transition", "initial"):
        _get(obj, k, "an array", where)
    try:
        return mixing.MarkovChainSpec(
            states=np.asarray(obj["states"], dtype=float),
            transition=np.asarray(obj["transition"], dtype=float),
            initial=np.asarray(obj["initial"], dtype=float),
        )
    except ValueError as e:
        raise ConfigError(f"{where}: {e}") from e


def _parse_process(obj: dict, where: str) -> processes.ProcessSpec:
    _require_keys(obj, ("family",), {k for ks in processes.FAMILIES.values() for k in ks}, where)
    fam = _get(obj, "family", "a string", where)
    if fam not in processes.FAMILIES:
        raise ConfigError(f"{where}: unknown process family {fam!r}")
    _reject_keys(obj, [k for k in obj if k not in ("family", *processes.FAMILIES[fam])],
                 f"by family {fam!r}", where)
    # phi, value and the innovation law go into describe(), and so into the
    # spec hash, exactly as given: they are checked but not converted
    kwargs = {"family": fam}
    if "innovations" in obj:
        law = obj["innovations"]
        _require_keys(law, (), ("name", "mean", "std"), f"{where}.innovations")
        for k, json_type in (("name", "a string"), ("mean", "a number"), ("std", "a number")):
            _get(law, k, json_type, f"{where}.innovations")
        kwargs["innovations"] = processes.InnovationLaw(**law)
    if "chain" in obj:
        kwargs["chain"] = _parse_chain(obj["chain"], f"{where}.chain")
    for k in ("phi", "value"):
        if k in obj:
            kwargs[k] = _get(obj, k, "a number", where)
    for k in ("weights", "state_values"):
        if k in obj:
            kwargs[k] = tuple(_get(obj, k, "an array of numbers", where))
    try:
        return processes.ProcessSpec(**kwargs)
    except ValueError as e:
        raise ConfigError(f"{where}: {e}") from e


def _parse_jump_law(obj: dict, where: str) -> selfdecomp.JumpLaw:
    _require_keys(obj, ("kind",), ("values", "probs", "mean", "std"), where)
    kind = obj["kind"]
    if kind == "discrete":
        return selfdecomp.DiscreteJumps(
            tuple(_get(obj, "values", "an array of numbers", where, ())),
            tuple(_get(obj, "probs", "an array of numbers", where, ())),
        )
    if kind == "normal":
        return selfdecomp.NormalJumps(_get(obj, "mean", "a number", where, 0.0),
                                      _get(obj, "std", "a number", where, 1.0))
    if kind == "dyadic_tower":
        return selfdecomp.DyadicTowerJumps()
    raise ConfigError(f"{where}: unknown jump law kind {kind!r}")


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


# --------------------------------------------------------------------------
# experiment implementations: each returns ({file name: text}, all_pass) and
# writes nothing, so that a config error leaves the output directory alone

def _run_alpha_profile(cfg: dict):
    _require_keys(
        cfg, ("kind", "seed", "chain", "n_list"),
        ("past_window", "future_window", "j_scan", "out_dir"),
        "config",
    )
    chain = _parse_chain(cfg["chain"], "config.chain")
    n_list = _get(cfg, "n_list", "an array of integers")
    # checked but inert: no window changes a chain's coefficient (mixing.alpha_window)
    _given(cfg, (("past_window", "a positive integer"), ("future_window", "a positive integer")))
    j_scan = _get(cfg, "j_scan", "an integer or null")
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
    _require_keys(
        cfg, ("kind", "seed", "process", "c", "n_grid", "replications"), ("out_dir",), "config",
    )
    rows = blocking.verify_blocking(
        _parse_process(cfg["process"], "config.process"),
        c=float(_get(cfg, "c", "a number")),
        n_grid=_get(cfg, "n_grid", "an array of integers"),
        replications=_get(cfg, "replications", "an integer"),
        seed=cfg["seed"],
    )
    return {"blocking_report.csv": csv_text(CSV_COLUMNS, rows)}, all(r["pass"] for r in rows)


def _run_selfdecomp_test(cfg: dict):
    _require_keys(
        cfg, ("kind", "seed", "c_values"),
        ("cf_form", "process", "n", "replications", "grid_points", "out_dir"),
        "config",
    )
    # checked before a process is simulated: a bad c is a config error at once
    cs = selfdecomp._c_tuple(_get(cfg, "c_values", "an array of numbers"))
    grid = _given(cfg, (("grid_points", "an integer"),))
    if "cf_form" in cfg:
        if "process" in cfg:
            raise ConfigError("config: give either cf_form or process, not both")
        _reject_keys(cfg, ("n", "replications"), "with cf_form")
        form = _get(cfg, "cf_form", "a string")
        if form not in _CLOSED_FORM_CFS:
            raise ConfigError(f"config.cf_form: unknown form {form!r}")
        report = selfdecomp.selfdecomp_test(_CLOSED_FORM_CFS[form], cs, **grid)
    elif "process" in cfg:
        spec = _parse_process(cfg["process"], "config.process")
        n = _get(cfg, "n", "an integer", default=4096)
        reps = _get(cfg, "replications", "an integer", default=10_000)
        total = processes.normalized_sums(spec, n, reps, cfg["seed"], "selfdecomp")
        report = selfdecomp.selfdecomp_test_sample(total, cs, **grid)
    else:
        raise ConfigError("config: selfdecomp-test needs cf_form or process")
    doc = {**report, "claim": "eq5_convolution_decomposition"}
    return {"selfdecomp_report.json": _json_text(doc)}, report["verdict"] == "pass"


def _run_integral_sample(cfg: dict):
    _require_keys(
        cfg, ("kind", "seed", "bdlp", "t_max", "n_steps", "n_samples"),
        ("log_moment_samples", "out_dir"),
        "config",
    )
    b = cfg["bdlp"]
    _require_keys(b, (), ("drift", "gaussian_sigma", "jump_rate", "jump_law"), "config.bdlp")
    law = _parse_jump_law(b["jump_law"], "config.bdlp.jump_law") if "jump_law" in b else None
    bdlp_number = lambda key: float(_get(b, key, "a number", "config.bdlp", 0.0))
    bdlp = selfdecomp.BDLPSpec(
        drift=bdlp_number("drift"),
        gaussian_sigma=bdlp_number("gaussian_sigma"),
        jump_rate=bdlp_number("jump_rate"),
        jump_law=law,
    )
    t_max = float(_get(cfg, "t_max", "a number"))
    n_samples = _get(cfg, "n_samples", "an integer")
    # the probe runs first: it is the diagnosis when the sample overflows
    # (the two draw from independent streams, so the order changes no value)
    probe = {}
    if "log_moment_samples" in cfg:
        probe["n_samples"] = _get(cfg, "log_moment_samples", "an integer")
    lm = selfdecomp.log_moment_check(bdlp, seed=cfg["seed"], **probe)
    sample = selfdecomp.sample_random_integral(
        bdlp, t_max, _get(cfg, "n_steps", "an integer"), n_samples, seed=cfg["seed"],
    )
    finite = bool(np.all(np.isfinite(sample)))
    samples_csv = io.StringIO()
    processes.write_path_csv(samples_csv, sample)
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
    _require_keys(cfg, ("kind", "seed", "cases"), ("out_dir",), "config")
    problems = []
    for i, case in enumerate(_get(cfg, "cases", "an array")):
        where = f"config.cases[{i}]"
        _require_keys(case, ("pmf", "epsilon", "net", "delta"), ("atoms_x", "atoms_z"), where)
        array = lambda key, default=None: _get(case, key, "an array", where, default)
        number = lambda key: float(_get(case, key, "a number", where))
        try:
            pmf = np.asarray(array("pmf"), dtype=float)
            if pmf.ndim != 2:
                raise ValueError(f"pmf must be a matrix, got shape {pmf.shape}")
            joint = FiniteJointDistribution(array("atoms_x", np.arange(pmf.shape[0])),
                                            array("atoms_z", np.arange(pmf.shape[1])), pmf)
            problems.append(coupling.CouplingProblem(
                joint=joint, epsilon=number("epsilon"), net=array("net"), delta=number("delta")))
        except ValueError as e:
            raise ConfigError(f"{where}: {e}") from e
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
    _require_keys(
        cfg, ("kind", "seed", "mode", "process_x"),
        ("process_z", "n", "lags", "block_length", "replications", "out_dir"),
        "config",
    )
    spec_x = _parse_process(cfg["process_x"], "config.process_x")
    spec_z = _parse_process(cfg["process_z"], "config.process_z") if "process_z" in cfg else None
    mode = _get(cfg, "mode", "a string")
    if mode not in _COROLLARY_UNUSED:
        raise ConfigError(f"config.mode: unknown mode {mode!r}")
    _reject_keys(cfg, _COROLLARY_UNUSED[mode], f"in mode {mode!r}")
    found = coupling.corollary_sum_experiment(
        spec_x, spec_z, mode=mode, seed=cfg["seed"], **_given(cfg, (
            ("n", "an integer"), ("lags", "an array of integers"),
            ("replications", "an integer"), ("block_length", "an integer"),
        )),
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
    if _get(cfg, "out_dir", "a string or null"):
        return Path(cfg["out_dir"])
    return Path(os.environ.get(ENV_OUT_DIR, DEFAULT_OUT_DIR))


def run(config_path, out_dir: str | None = None) -> int:
    """Execute one experiment config; returns the process exit status."""
    try:
        with open(config_path) as fh:
            cfg = json.load(fh, parse_float=_finite, parse_constant=_finite)
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
        if not isinstance(cfg, dict):
            raise ConfigError("config root must be a JSON object")
        if "kind" not in cfg:
            raise ConfigError("config is missing required key 'kind'")
        if "seed" not in cfg:
            raise ConfigError("config is missing required key 'seed' (no implicit entropy)")
        _get(cfg, "seed", "an integer")
        kind = _get(cfg, "kind", "a string")
        if kind not in _RUNNERS:
            raise ConfigError(f"unknown experiment kind {kind!r}")
        out = resolve_out_dir(cfg, out_dir)
        nearest = next(p for p in (out, *out.parents) if p.exists())
        if not nearest.is_dir():
            raise ConfigError(f"output path {out}: {nearest} is not a directory")
        files, ok = _RUNNERS[kind](cfg)
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
        "kind": kind,
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
