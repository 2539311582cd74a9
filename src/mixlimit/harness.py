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

Exit status: 1 on usage/config errors, else 0 iff every pass flag is true, and
2 otherwise.  A judged claim's flag is true iff its probcore.judge status is
"pass" or "pre_asymptotic", and false if it is "fail" or "inconclusive".
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
from pathlib import Path
from typing import TYPE_CHECKING

from . import __version__

if TYPE_CHECKING:
    import numpy as np

    from . import mixing, processes, selfdecomp

ENV_OUT_DIR = "MIXLIMIT_OUT"
DEFAULT_OUT_DIR = "mixlimit-reports"


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
    "an integer from 0 to 2^64 - 1": lambda v: _is_int(v) and 0 <= v < 1 << 64,
    "a number": _is_number,
    "a string": lambda v: isinstance(v, str),
    "a string or null": lambda v: v is None or isinstance(v, str),
    "an array": lambda v: isinstance(v, list),
    "an array of integers": lambda v: isinstance(v, list) and all(map(_is_int, v)),
    "an array of numbers": lambda v: isinstance(v, list) and all(map(_is_number, v)),
    "a JSON object": lambda v: isinstance(v, dict),
}

# the keys of every config whatever its kind: kind and seed are required
_COMMON_REQUIRED = {"seed": "an integer from 0 to 2^64 - 1", "kind": "a string"}
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
    if not math.isfinite(float(text)):
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


# the parsers and runners below import the library modules they use when
# they are called, so that `list`, `--help` and a config rejected before its
# runner starts load no numpy, and each run loads only its kind's modules

def _parse_chain(obj, where: str) -> mixing.MarkovChainSpec:
    from . import mixing

    _check(obj, *OBJECT_KEYS["chain"], where)
    with _naming(where):
        return mixing.MarkovChainSpec(**obj)


def _parse_process(obj, where: str) -> processes.ProcessSpec:
    from . import processes

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


# each jump law kind -> (its class in selfdecomp, the jump_law keys it
# reads); a jump_law config may set those keys and no others
_JUMP_LAWS = {
    "discrete": ("DiscreteJumps", ("values", "probs")),
    "normal": ("NormalJumps", ("mean", "std")),
    "dyadic_tower": ("DyadicTowerJumps", ()),
}


def _parse_jump_law(obj, where: str) -> selfdecomp.JumpLaw:
    from . import selfdecomp

    _check(obj, *OBJECT_KEYS["jump_law"], where)
    kind = obj["kind"]
    if kind not in _JUMP_LAWS:
        raise ConfigError(f"{where}: unknown jump law kind {kind!r}")
    law, keys = _JUMP_LAWS[kind]
    _reject_keys(obj, [k for k in obj if k not in ("kind", *keys)], f"by kind {kind!r}", where)
    with _naming(where):
        return getattr(selfdecomp, law)(**{k: obj[k] for k in keys if k in obj})


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
    import numpy as np

    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return f"{float(v):.17e}"
    return str(v)


def write_path_csv(fh, values: np.ndarray) -> None:
    """Two-column CSV (index, value) of a path, each value as its shortest repr."""
    fh.write("index,value\n" + "".join(
        f"{i},{x!r}\n" for i, x in enumerate(values.tolist(), start=1)))


# --------------------------------------------------------------------------
# experiment implementations: each takes a config run() has checked against
# its KINDS entry, returns ({file name: text}, pass flags) and writes nothing,
# so that a config error leaves the output directory alone.  Every pass flag
# and claim code, and the tolerance behind a flag, comes from the library call.

def _run_alpha_profile(cfg: dict):
    from . import mixing

    j_scan = cfg.get("j_scan")
    rows = mixing.alpha_report(_parse_chain(cfg["chain"], "config.chain"), cfg["n_list"],
                               mixing.J_SCAN if j_scan is None else j_scan)
    text = csv_text(("n", "alpha", "kind", "claim"), rows)
    return {"alpha_profile.csv": text}, [r["pass"] for r in rows]


def _run_blocking_verify(cfg: dict):
    from . import blocking

    rows = blocking.verify_blocking(
        _parse_process(cfg["process"], "config.process"), c=float(cfg["c"]),
        n_grid=cfg["n_grid"], replications=cfg["replications"], seed=cfg["seed"],
    )
    return {"blocking_report.csv": csv_text(CSV_COLUMNS, rows)}, [r["pass"] for r in rows]


def _run_selfdecomp_test(cfg: dict):
    from . import processes, selfdecomp

    # checked before a process is simulated: a bad c or grid is a config error at once
    cs = selfdecomp._c_tuple(cfg["c_values"])
    grid_points = selfdecomp._grid_points(cfg.get("grid_points", selfdecomp.DEFAULT_GRID_POINTS))
    if "cf_form" in cfg:
        if "process" in cfg:
            raise ConfigError("config: give either cf_form or process, not both")
        _reject_keys(cfg, ("n", "replications"), "with cf_form")
        form = cfg["cf_form"]
        cf = selfdecomp.CLOSED_FORM_CFS.get(form)
        if cf is None:
            raise ConfigError(f"config.cf_form: unknown form {form!r}")
        report = selfdecomp.selfdecomp_test(cf, cs, grid_points=grid_points)
    elif "process" in cfg:
        spec = _parse_process(cfg["process"], "config.process")
        n, reps = cfg.get("n", 4096), cfg.get("replications", 10_000)
        total = processes.normalized_sums(spec, n, reps, cfg["seed"], "selfdecomp")
        report = selfdecomp.selfdecomp_test_sample(total, cs, grid_points=grid_points)
    else:
        raise ConfigError("config: selfdecomp-test needs cf_form or process")
    return {"selfdecomp_report.json": _json_text(report)}, [r["psd_pass"] for r in report["per_c"]]


def _run_integral_sample(cfg: dict):
    from . import selfdecomp

    b = cfg["bdlp"]
    _check(b, *OBJECT_KEYS["bdlp"], "config.bdlp")
    law = _parse_jump_law(b["jump_law"], "config.bdlp.jump_law") if "jump_law" in b else None
    with _naming("config.bdlp"):
        bdlp = selfdecomp.BDLPSpec(
            **{k: float(b.get(k, 0.0)) for k in ("drift", "gaussian_sigma", "jump_rate")},
            jump_law=law)
    t_max = float(cfg["t_max"])
    sample = selfdecomp.sample_random_integral(bdlp, t_max, cfg["n_samples"], seed=cfg["seed"])
    summary, flag = selfdecomp.integral_summary(bdlp, t_max, sample)
    samples_csv = io.StringIO()
    write_path_csv(samples_csv, sample)
    return {"integral_samples.csv": samples_csv.getvalue(),
            "integral_summary.json": _json_text(summary)}, [flag]


def _run_coupling_suite(cfg: dict):
    import numpy as np

    from . import coupling
    from .probcore import FiniteJointDistribution

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
    return {"coupling_report.json": _json_text(report)}, [r["pass"] for r in report["cases"]]


# the optional corollary-sum keys each mode does not read
_COROLLARY_UNUSED = {
    "independent": ("lags", "block_length"),
    "duplicate": ("process_z", "lags", "block_length"),
    "lagged_blocks": ("process_z", "n"),
}


def _run_corollary_sum(cfg: dict):
    from . import coupling

    spec_x = _parse_process(cfg["process_x"], "config.process_x")
    spec_z = _parse_process(cfg["process_z"], "config.process_z") if "process_z" in cfg else None
    mode = cfg["mode"]
    if mode not in _COROLLARY_UNUSED:
        raise ConfigError(f"config.mode: unknown mode {mode!r}")
    _reject_keys(cfg, _COROLLARY_UNUSED[mode], f"in mode {mode!r}")
    rows = coupling.corollary_sum_experiment(
        spec_x, spec_z, mode=mode, seed=cfg["seed"],
        **{k: cfg[k] for k in ("n", "lags", "replications", "block_length") if k in cfg},
    )
    text = csv_text(("grid", "ks", "reference", "alpha_bound", "pass", "claim"), rows)
    return {"corollary_report.csv": text}, [r["pass"] for r in rows]


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
        {"bdlp": "a JSON object", "t_max": "a number", "n_samples": "an integer"},
        # n_steps is checked but inert: each part of the integral is drawn
        # from its exact law, with no time grid (sample_random_integral)
        {"n_steps": "a positive integer"}),
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
    for k in ("n_grid", "n_list", "lags", "c_values"):    # each value gives its own report rows
        values = cfg.get(k, [])
        for i, v in enumerate(values):
            if v in values[:i]:
                raise ConfigError(f"config.{k} repeats the value {v!r}")
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
        files, flags = runner(cfg)
        reports = sorted(files)
        names = (*reports, "manifest.json")
        for name in names:
            if (out / name).exists() and not (out / name).is_file():
                raise ConfigError(f"cannot write to {out}: {out / name} is not a regular file")
    except ValueError as e:
        # ConfigError, and any value a runner rejects, is a config error
        print(f"config error: {e}")
        return 1
    from .rngstreams import BLOCK_ROWS

    all_pass = all(flags)
    files["manifest.json"] = _json_text({
        "kind": cfg["kind"],
        "config": cfg,
        "version": __version__,
        "seed": cfg["seed"],
        "rng": "SFC64 RNG seeded by SeedSequence; streams keyed by (master seed, experiment "
               f"label, spec hash, block index), replication r is column r mod {BLOCK_ROWS} "
               f"of block r // {BLOCK_ROWS}, drawn time-major",
        "reports": reports,
        "all_pass": all_pass,
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
    if not all_pass:
        print("scientific assertion failed (see report pass flags)")
        return 2
    return 0
