import csv
import io
import json
import os
import re
from pathlib import Path

import pytest

from mixlimit import cli, harness, processes


def write_cfg(tmp_path, name, cfg):
    p = tmp_path / name
    p.write_text(json.dumps(cfg))
    return str(p)


def read_tree(root):
    out = {}
    for dirpath, _, files in os.walk(root):
        for f in files:
            p = os.path.join(dirpath, f)
            with open(p, "rb") as fh:
                out[os.path.relpath(p, root)] = fh.read()
    return out


BLOCKING_CFG = {
    "kind": "blocking-verify",
    "seed": 11,
    "process": {"family": "iid"},
    "c": 0.5,
    "n_grid": [256, 512],
    "replications": 2000,
}


def test_list_plain_and_json(capsys):
    assert cli.main(["list"]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert len(lines) == 6
    assert lines[0].startswith("alpha-profile:")
    assert cli.main(["list", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert [d["kind"] for d in doc] == list(harness.KINDS)


def test_unknown_flag_exits_one(tmp_path):
    assert cli.main(["list", "--bogus"]) == 1
    assert cli.main(["frobnicate"]) == 1
    assert cli.main(["run", write_cfg(tmp_path, "cfg.json", BLOCKING_CFG), "--threads", "2"]) == 1


def test_run_blocking_verify_and_reproducibility(tmp_path):
    cfg = write_cfg(tmp_path, "cfg.json", BLOCKING_CFG)
    assert cli.main(["run", cfg, "--out", str(tmp_path / "o1")]) == 0
    assert cli.main(["run", cfg, "--out", str(tmp_path / "o2")]) == 0
    t1, t2 = read_tree(tmp_path / "o1"), read_tree(tmp_path / "o2")
    assert set(t1) == {"blocking_report.csv", "manifest.json"}
    assert t1 == t2                                    # byte-identical reruns
    manifest = json.loads(t1["manifest.json"])
    assert manifest["seed"] == 11
    assert manifest["all_pass"] is True
    assert "version" in manifest and "rng" in manifest
    header = t1["blocking_report.csv"].decode().split("\n")[0]
    assert header == "n,m_n,q_n,delta_n,ratio,metric_name,value,analytic_ceiling,pass"


@pytest.mark.parametrize("cfg", [
    dict(BLOCKING_CFG, process={"family": "ar1", "phi": 0.5}, replications=1100),
    {"kind": "integral-sample", "seed": 5, "t_max": 20.0, "n_steps": 50, "n_samples": 1100,
     "log_moment_samples": 2000,
     "bdlp": {"drift": 1.0, "gaussian_sigma": 1.0, "jump_rate": 2.0,
              "jump_law": {"kind": "normal", "mean": 0.5, "std": 1.0}}},
], ids=["blocking-ar1", "integral-sample"])
def test_reports_do_not_depend_on_the_worker_count(tmp_path, monkeypatch, cfg):
    # 1100 replications make three blocks
    path = write_cfg(tmp_path, "cfg.json", cfg)
    for workers in (1, 2):
        monkeypatch.setattr(processes, "_WORKERS", workers)
        assert cli.main(["run", path, "--out", str(tmp_path / f"w{workers}")]) == 0
    assert read_tree(tmp_path / "w1") == read_tree(tmp_path / "w2")


def test_unknown_key_rejected(tmp_path):
    cfg = dict(BLOCKING_CFG)
    cfg["replicatons"] = 100   # typo must be a hard error naming the key
    del cfg["replications"]
    path = write_cfg(tmp_path, "bad.json", cfg)
    assert harness.run(path, out_dir=str(tmp_path / "o")) == 1


def test_unknown_family_rejected(tmp_path, capsys):
    cfg = dict(BLOCKING_CFG)
    cfg["process"] = {"family": "garch"}
    path = write_cfg(tmp_path, "bad.json", cfg)
    assert harness.run(path, out_dir=str(tmp_path / "o")) == 1
    assert "garch" in capsys.readouterr().out


def test_missing_seed_rejected(tmp_path):
    cfg = {k: v for k, v in BLOCKING_CFG.items() if k != "seed"}
    path = write_cfg(tmp_path, "noseed.json", cfg)
    assert harness.run(path, out_dir=str(tmp_path / "o")) == 1


TWO_STATE_CHAIN = {"states": [0.0, 1.0], "transition": [[0.75, 0.25], [0.25, 0.75]],
                   "initial": [0.5, 0.5]}
THREE_STATE_CHAIN = {"states": [0.0, 1.0, 2.0], "transition": [[1 / 3] * 3] * 3,
                     "initial": [1 / 3] * 3}
CHAIN_21 = {"states": list(range(21)), "transition": [[1 / 21] * 21] * 21,
            "initial": [1 / 21] * 21}
ALPHA_CFG = {"kind": "alpha-profile", "seed": 1, "chain": TWO_STATE_CHAIN, "n_list": [1]}
CLOSED_FORM_CFG = {"kind": "selfdecomp-test", "seed": 1, "c_values": [0.5], "cf_form": "gaussian"}
INTEGRAL_CFG = {"kind": "integral-sample", "seed": 1, "t_max": 20.0, "n_steps": 4,
                "n_samples": 4, "bdlp": {"drift": 1.0}}
COUPLING_CASE = {"pmf": [[0.5, 0.0], [0.0, 0.5]], "epsilon": 0.4, "net": [0.0, 1.0],
                 "delta": 0.0}


def corollary_cfg(mode, **keys):
    return {"kind": "corollary-sum", "seed": 1, "mode": mode, "replications": 100,
            "process_x": {"family": "iid"}, **keys}


# settable ceilings that became library constants: each is now an unknown key
# (alpha-profile's include_bound is the flag-string case below)
REMOVED_KEYS = [
    (BLOCKING_CFG, "epsilon", 0.1), (BLOCKING_CFG, "grid_step", 0.05),
    (BLOCKING_CFG, "ks_tol", 1), (BLOCKING_CFG, "tightness_bound", 10.0),
    (BLOCKING_CFG, "cf_radius", 0.5), (BLOCKING_CFG, "selfdecomp_c_values", [0.3, 0.5, 0.8]),
    (CLOSED_FORM_CFG, "grid_radius", 8.0), (CLOSED_FORM_CFG, "tol", None),
    (INTEGRAL_CFG, "write_samples", True),
    (corollary_cfg("independent"), "ks_tol", 0.02),
    (corollary_cfg("duplicate"), "negative_control_min_ks", 0.05),
]


@pytest.mark.parametrize("cfg, needle", [
    ({"kind": "selfdecomp-test", "seed": 1, "c_values": [1.5], "cf_form": "gaussian"},
     "between 0 and 1"),
    ({"kind": "selfdecomp-test", "seed": 1, "c_values": ["x"], "cf_form": "gaussian"}, "'x'"),
    ({"kind": "alpha-profile", "seed": 1, "chain": TWO_STATE_CHAIN, "n_list": [0]}, "positive"),
    ({"kind": "alpha-profile", "seed": 1, "chain": CHAIN_21, "n_list": [1]}, "above the limit"),
    ({"kind": "integral-sample", "seed": 1, "t_max": 20.0, "n_steps": 4, "n_samples": 4,
      "bdlp": {"jump_rate": 1.0,
               "jump_law": {"kind": "discrete", "values": [1, 2], "probs": [0.5]}}},
     "config.bdlp.jump_law: values and probs must be equal-length and nonempty"),
    (dict(BLOCKING_CFG, process={"family": "iid", "dimension": 2}), "unknown key 'dimension'"),
    # values of the wrong JSON type: the message names the key and the value
    ({"kind": "selfdecomp-test", "seed": 1, "c_values": 1.5, "cf_form": "gaussian"},
     "config.c_values must be an array of numbers, got 1.5"),
    ({"kind": "alpha-profile", "seed": 1, "chain": TWO_STATE_CHAIN, "n_list": [1],
      "j_scan": "3"}, "config.j_scan must be an integer or null, got '3'"),
    (dict(BLOCKING_CFG, process={"family": "iid", "innovations": {"std": "a"}}),
     "config.process.innovations.std must be a number, got 'a'"),
    (dict(BLOCKING_CFG, process={"family": "ar1", "phi": "0.5"}),
     "config.process.phi must be a number, got '0.5'"),
    ({"kind": "corollary-sum", "seed": 1, "mode": "lagged_blocks",
      "process_x": {"family": "iid"}, "lags": 3}, "config.lags must be an array of integers, got 3"),
    ({"kind": "integral-sample", "seed": 1, "t_max": 20.0, "n_steps": 4, "n_samples": 4,
      "bdlp": {"jump_rate": 1.0, "jump_law": {"kind": "normal", "mean": "x"}}},
     "config.bdlp.jump_law.mean must be a number, got 'x'"),
    ({"kind": "integral-sample", "seed": 1, "t_max": 20.0, "n_steps": 4, "n_samples": 4,
      "bdlp": {"jump_rate": 1.0,
               "jump_law": {"kind": "discrete", "values": 3, "probs": [1.0]}}},
     "config.bdlp.jump_law.values must be an array of numbers, got 3"),
    (dict(BLOCKING_CFG, replications=2.7), "config.replications must be an integer, got 2.7"),
    ({"kind": "coupling-suite", "seed": 1, "cases": {"pmf": [[1.0]]}},
     "config.cases must be an array, got {'pmf': [[1.0]]}"),
    (dict(BLOCKING_CFG, seed=True), "config.seed must be an integer, got True"),
    (dict(BLOCKING_CFG, n_grid=[256, "512"]), "config.n_grid must be an array of integers"),
    ({"kind": "alpha-profile", "seed": 1, "chain": TWO_STATE_CHAIN, "n_list": [1],
      "include_bound": "no"}, "config has unknown key 'include_bound'"),
    ({"kind": "coupling-suite", "seed": 1,
      "cases": [{"pmf": [0.5, 0.5], "epsilon": 0.1, "net": [0.0], "delta": 0.0}]},
     "config.cases[0]: pmf must be a matrix, got shape (2,)"),
    (dict(BLOCKING_CFG, n_grid=[]), "nonempty grid"),
    ({"kind": "corollary-sum", "seed": 1, "mode": "lagged_blocks", "replications": 100,
      "process_x": {"family": "ar1", "phi": 0.5}, "lags": [-3]},
     "lags must be a nonempty list of nonnegative integers, got [-3]"),
    ({"kind": "corollary-sum", "seed": 1, "mode": "lagged_blocks", "replications": 100,
      "process_x": {"family": "ar1", "phi": 0.5}, "lags": [0, 2], "block_length": 0},
     "block_length must be at least 1, got 0"),
    ({"kind": "coupling-suite", "seed": 1, "cases": []},
     "a coupling suite needs at least one case"),
    (dict(BLOCKING_CFG, process={"family": "markov_function", "chain": THREE_STATE_CHAIN,
                                 "state_values": [1.0, 2.0]}),
     "state_values has 2 entries, the chain has 3 states"),
    # a run that would check nothing
    (dict(ALPHA_CFG, n_list=[]), "n_list must hold at least one lag"),
    (dict(ALPHA_CFG, j_scan=0), "j_scan must be at least 1, got 0"),
    (dict(CLOSED_FORM_CFG, c_values=[]), "c_values must hold at least one c"),
    # keys the chosen mode would ignore
    (corollary_cfg("lagged_blocks", process_z={"family": "ar1", "phi": 0.9}, n=7),
     "config.process_z is not used in mode 'lagged_blocks'"),
    (corollary_cfg("lagged_blocks", n=7), "config.n is not used in mode 'lagged_blocks'"),
    (corollary_cfg("duplicate", process_z={"family": "iid"}),
     "config.process_z is not used in mode 'duplicate'"),
    (corollary_cfg("independent", lags=[0, 2]), "config.lags is not used in mode 'independent'"),
    (corollary_cfg("duplicate", block_length=4),
     "config.block_length is not used in mode 'duplicate'"),
    (dict(CLOSED_FORM_CFG, n=64), "config.n is not used with cf_form"),
    (dict(CLOSED_FORM_CFG, replications=100), "config.replications is not used with cf_form"),
    # the inert window keys are still checked
    (dict(ALPHA_CFG, past_window=0), "config.past_window must be a positive integer, got 0"),
    (dict(ALPHA_CFG, future_window="2"), "config.future_window must be a positive integer, got '2'"),
    # process keys the family would ignore
    (dict(BLOCKING_CFG, process={"family": "iid", "phi": 0.9, "chain": TWO_STATE_CHAIN}),
     "config.process.phi is not used by family 'iid'"),
    (dict(BLOCKING_CFG, process={"family": "ar1", "phi": 0.5, "weights": [1.0]}),
     "config.process.weights is not used by family 'ar1'"),
    (dict(BLOCKING_CFG, process={"family": "ma_q", "weights": [1.0], "chain": TWO_STATE_CHAIN}),
     "config.process.chain is not used by family 'ma_q'"),
    (dict(BLOCKING_CFG, process={"family": "markov_function", "chain": TWO_STATE_CHAIN,
                                 "innovations": {"name": "uniform"}}),
     "config.process.innovations is not used by family 'markov_function'"),
    (dict(BLOCKING_CFG, process={"family": "constant", "value": 1.0, "phi": 0.5}),
     "config.process has unknown key 'value'"),
    (corollary_cfg("independent", process_x={"family": "iid", "value": 2.0}),
     "config.process_x has unknown key 'value'"),
    (dict(BLOCKING_CFG, process={"family": ["iid"]}),
     "config.process.family must be a string, got ['iid']"),
    # non-finite numbers: json reads NaN and Infinity, and 1e400 overflows
    (dict(ALPHA_CFG, chain=dict(TWO_STATE_CHAIN, transition=[[float("nan"), 0.25], [0.25, 0.75]])),
     "the number NaN is not finite"),
    ({"kind": "coupling-suite", "seed": 1, "cases": [dict(COUPLING_CASE, pmf=[[0.5, float("nan")],
                                                                            [0.0, 0.5]])]},
     "the number NaN is not finite"),
    (dict(BLOCKING_CFG, c=float("-inf")), "the number -Infinity is not finite"),
    (dict(BLOCKING_CFG, process={"family": "iid", "innovations": {"std": 10 ** 400}}),
     f"the number {10 ** 400} is not finite"),
    # chain states and initial laws that are not vectors
    ({"kind": "selfdecomp-test", "seed": 1, "c_values": [0.5], "n": 64, "replications": 100,
      "process": {"family": "markov_function",
                  "chain": dict(THREE_STATE_CHAIN, states=[[-1.0], [2.0], [0.5]])}},
     "config.process.chain: states must be a vector, got shape (3, 1)"),
    ({"kind": "selfdecomp-test", "seed": 1, "c_values": [0.5], "n": 64, "replications": 100,
      "process": {"family": "markov_function",
                  "chain": dict(THREE_STATE_CHAIN, initial=[[0.4], [0.3], [0.3]])}},
     "config.process.chain: initial must be a vector, got shape (3, 1)"),
    (dict(ALPHA_CFG, chain=dict(TWO_STATE_CHAIN, states=[[0.0], [1.0]])),
     "config.chain: states must be a vector, got shape (2, 1)"),
    # a library ValueError inside a nested object carries the object's name
    (dict(BLOCKING_CFG, process={"family": "iid", "innovations": {"name": "cauchy"}}),
     "config.process.innovations: unknown innovation law 'cauchy'"),
    (dict(BLOCKING_CFG, process={"family": "iid", "innovations": {"std": -1}}),
     "config.process.innovations: innovation std must be nonnegative"),
    (dict(INTEGRAL_CFG, bdlp={"jump_rate": 1.0, "jump_law": {"kind": "normal", "std": -1}}),
     "config.bdlp.jump_law: jump std must be nonnegative"),
    (dict(INTEGRAL_CFG, bdlp={"gaussian_sigma": -1.0}),
     "config.bdlp: gaussian_sigma and jump_rate must be nonnegative"),
    (dict(INTEGRAL_CFG, bdlp={"jump_rate": 1.0}),
     "config.bdlp: a positive jump_rate requires a jump_law"),
    # a degenerate sequence has no norming, so the family is gone
    (dict(BLOCKING_CFG, process={"family": "constant"}),
     "config.process: unknown process family 'constant'"),
] + [(dict(base, **{key: value}), f"config has unknown key {key!r}")
     for base, key, value in REMOVED_KEYS],
    ids=["c-above-one", "c-not-a-number", "lag-zero", "window-too-large",
         "jump-law-mismatch", "dimension-key", "c-values-not-array", "j-scan-string",
         "innovation-std-string", "phi-string", "lags-not-array", "jump-mean-string",
         "discrete-values-not-array", "replications-float", "cases-object", "seed-bool",
         "n-grid-string-entry", "flag-string", "pmf-vector", "n-grid-empty",
         "lags-negative", "block-length-zero", "cases-empty", "state-values-short",
         "n-list-empty", "j-scan-zero", "c-values-empty", "lagged-process-z-and-n",
         "lagged-n", "duplicate-process-z", "independent-lags", "duplicate-block-length",
         "cf-form-n", "cf-form-replications", "past-window-zero", "future-window-string",
         "iid-phi", "ar1-weights", "ma-q-chain", "markov-innovations", "constant-phi",
         "corollary-process-x-value", "family-array", "alpha-transition-nan",
         "coupling-pmf-nan", "c-minus-infinity", "int-beyond-float-range", "states-matrix",
         "initial-matrix", "alpha-states-matrix", "innovations-unknown-name",
         "innovations-std-negative",
         "jump-normal-std-negative", "bdlp-sigma-negative", "bdlp-rate-without-law",
         "constant-family"]
    + [f"removed-{base['kind']}-{key}" for base, key, _ in REMOVED_KEYS])
def test_runner_value_errors_are_config_errors(tmp_path, capsys, cfg, needle):
    path = write_cfg(tmp_path, "bad.json", cfg)
    assert harness.run(path, out_dir=str(tmp_path / "o")) == 1
    lines = capsys.readouterr().out.strip().split("\n")
    assert len(lines) == 1 and lines[0].startswith("config error: ")
    assert needle in lines[0]
    assert not (tmp_path / "o").exists()


# one minimal process of each family: every family must reach a report
FAMILY_PROCESSES = {
    "iid": {"family": "iid"},
    "ar1": {"family": "ar1", "phi": 0.5},
    "ma_q": {"family": "ma_q", "weights": [1.0, 0.5]},
    "markov_function": {"family": "markov_function", "chain": TWO_STATE_CHAIN},
}


@pytest.mark.parametrize("family", sorted(processes.FAMILIES))
def test_every_family_can_run(tmp_path, family):
    assert set(FAMILY_PROCESSES) == set(processes.FAMILIES)
    cfg = dict(BLOCKING_CFG, process=FAMILY_PROCESSES[family], n_grid=[256], replications=200)
    path = write_cfg(tmp_path, "cfg.json", cfg)
    assert harness.run(path, out_dir=str(tmp_path / "o")) in (0, 2)


# MA(1) with weights (1, -1) has long-run variance 0, so no norming exists
DEGENERATE = {"family": "ma_q", "weights": [1.0, -1.0]}


@pytest.mark.parametrize("cfg", [
    dict(BLOCKING_CFG, process=DEGENERATE),
    {"kind": "selfdecomp-test", "seed": 1, "c_values": [0.5], "process": DEGENERATE,
     "n": 64, "replications": 100},
    corollary_cfg("independent", process_x=DEGENERATE),
], ids=["blocking-verify", "selfdecomp-test", "corollary-sum"])
def test_a_degenerate_process_is_a_config_error(tmp_path, capsys, cfg):
    path = write_cfg(tmp_path, "degenerate.json", cfg)
    assert harness.run(path, out_dir=str(tmp_path / "o")) == 1
    assert capsys.readouterr().out == (
        "config error: degenerate spec: long-run variance 0.0 is not positive, "
        "no non-degenerate norming exists\n")
    assert not (tmp_path / "o").exists()


# a config of each kind that passes the key table
MINIMAL_CFGS = {
    "alpha-profile": ALPHA_CFG,
    "blocking-verify": BLOCKING_CFG,
    "selfdecomp-test": CLOSED_FORM_CFG,
    "integral-sample": INTEGRAL_CFG,
    "coupling-suite": {"kind": "coupling-suite", "seed": 1, "cases": [COUPLING_CASE]},
    "corollary-sum": corollary_cfg("independent"),
}
KIND_KEYS = [(kind, key, json_type) for kind, (_, _, required, optional) in harness.KINDS.items()
             for key, json_type in {**required, **optional}.items()]


@pytest.mark.parametrize("kind, key, json_type", KIND_KEYS,
                         ids=[f"{kind}-{key}" for kind, key, _ in KIND_KEYS])
def test_every_key_of_the_wrong_json_type_is_a_config_error(tmp_path, capsys, kind, key,
                                                            json_type):
    # a number where a string is due, a string where anything else is
    wrong = 1 if "string" in json_type else "1"
    path = write_cfg(tmp_path, "bad.json", dict(MINIMAL_CFGS[kind], **{key: wrong}))
    assert harness.run(path, out_dir=str(tmp_path / "o")) == 1
    assert capsys.readouterr().out == (
        f"config error: config.{key} must be {json_type}, got {wrong!r}\n")
    assert not (tmp_path / "o").exists()


def test_out_dir_of_the_wrong_type_is_a_config_error_under_out(tmp_path, capsys):
    path = write_cfg(tmp_path, "a.json", dict(ALPHA_CFG, out_dir=3))
    assert cli.main(["run", path, "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().out == (
        "config error: config.out_dir must be a string or null, got 3\n")
    assert not (tmp_path / "o").exists()


def test_a_top_level_type_error_is_reported_before_a_nested_error(tmp_path, capsys):
    cfg = dict(BLOCKING_CFG, process={"family": "garch"}, replications=2.7)
    path = write_cfg(tmp_path, "bad.json", cfg)
    assert harness.run(path, out_dir=str(tmp_path / "o")) == 1
    assert capsys.readouterr().out == (
        "config error: config.replications must be an integer, got 2.7\n")


@pytest.mark.parametrize("cfg, where, value", [
    ([1, 2], "config", [1, 2]),
    (dict(BLOCKING_CFG, process=3), "config.process", 3),
    (dict(ALPHA_CFG, chain=[0.5]), "config.chain", [0.5]),
    (dict(BLOCKING_CFG, process={"family": "markov_function", "chain": "c"}),
     "config.process.chain", "c"),
    (dict(BLOCKING_CFG, process={"family": "iid", "innovations": 1.5}),
     "config.process.innovations", 1.5),
    (dict(INTEGRAL_CFG, bdlp=[]), "config.bdlp", []),
    (dict(INTEGRAL_CFG, bdlp={"jump_rate": 1.0, "jump_law": "normal"}),
     "config.bdlp.jump_law", "normal"),
    ({"kind": "coupling-suite", "seed": 1, "cases": [COUPLING_CASE, 3]}, "config.cases[1]", 3),
], ids=["root", "process", "chain", "process-chain", "innovations", "bdlp", "jump-law", "case"])
def test_a_non_object_is_named_with_its_value(tmp_path, capsys, cfg, where, value):
    path = write_cfg(tmp_path, "bad.json", cfg)
    assert harness.run(path, out_dir=str(tmp_path / "o")) == 1
    assert capsys.readouterr().out == f"config error: {where} must be a JSON object, got {value!r}\n"


def test_jump_law_kind_must_be_a_string(tmp_path, capsys):
    cfg = dict(INTEGRAL_CFG, bdlp={"jump_rate": 1.0, "jump_law": {"kind": 3}})
    path = write_cfg(tmp_path, "bad.json", cfg)
    assert harness.run(path, out_dir=str(tmp_path / "o")) == 1
    assert capsys.readouterr().out == (
        "config error: config.bdlp.jump_law.kind must be a string, got 3\n")


def test_process_keys_are_the_family_fields():
    _, optional = harness.OBJECT_KEYS["process"]
    assert set(optional) == {k for keys in processes.FAMILIES.values() for k in keys}


def readme_key_tables():
    """{row name: (required, optional)} of the README's key tables, each a {key: JSON type}."""
    text = (Path(__file__).parent.parent / "README.md").read_text()
    section = text.split("### Config keys", 1)[1].split("\n### ", 1)[0]
    rows = {}
    for line in section.split("\n"):
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        if line.startswith("| ") and len(cells) >= 3 and "(" in "".join(cells[-2:]):
            name = cells[0].strip("`")
            assert name not in rows, f"README key tables list {name} twice"
            rows[name] = tuple(dict(re.findall(r"`(\w+)` \(([^)]*)\)", c)) for c in cells[-2:])
    return rows


def test_readme_key_tables_match_the_harness():
    expected = {"every kind": (harness._COMMON_REQUIRED, harness._COMMON_OPTIONAL),
                **{kind: (required, optional)
                   for kind, (_, _, required, optional) in harness.KINDS.items()},
                **harness.OBJECT_KEYS}
    assert readme_key_tables() == expected


@pytest.mark.parametrize("cfg", [
    {"kind": "selfdecomp-test", "seed": 1, "c_values": [0.5],
     "process": {"family": "ma_q", "weights": [1.0, 0.5]}, "n": 64, "replications": 0},
    corollary_cfg("independent", n=64, replications=0),
    corollary_cfg("duplicate", n=64, replications=0),
    corollary_cfg("lagged_blocks", process_x={"family": "ar1", "phi": 0.5}, lags=[0, 2],
                  replications=0),
    dict(BLOCKING_CFG, replications=0),
], ids=["selfdecomp-test", "corollary-independent", "corollary-duplicate",
        "corollary-lagged", "blocking-verify"])
def test_zero_replications_is_a_config_error(tmp_path, capsys, cfg):
    # the row-chunked paths check their arguments before the first chunk
    path = write_cfg(tmp_path, "zero.json", cfg)
    assert harness.run(path, out_dir=str(tmp_path / "o")) == 1
    assert capsys.readouterr().out == "config error: n and reps must be positive\n"
    assert not (tmp_path / "o").exists()


def test_config_error_writes_nothing(tmp_path, capsys):
    # the runner rejects the config after the output directory is resolved:
    # a new directory is not created and an existing one is left as it was
    cfg = {"kind": "selfdecomp-test", "seed": 1, "c_values": [],
           "process": {"family": "ar1", "phi": 0.5}}
    path = write_cfg(tmp_path, "bad.json", cfg)
    assert cli.main(["run", path, "--out", str(tmp_path / "fo" / "x")]) == 1
    assert not (tmp_path / "fo").exists()
    existing = tmp_path / "existing"
    existing.mkdir()
    (existing / "manifest.json").write_text("{}")
    assert cli.main(["run", path, "--out", str(existing)]) == 1
    assert read_tree(existing) == {"manifest.json": b"{}"}
    assert capsys.readouterr().out.count("config error: c_values must hold at least one c") == 2


def test_output_path_under_a_file_is_config_error(tmp_path, capsys, monkeypatch):
    # found before the experiment runs, so the runner must not be reached
    afile = tmp_path / "afile"
    afile.write_text("keep")
    path = write_cfg(tmp_path, "a.json", ALPHA_CFG)
    description, _, required, optional = harness.KINDS["alpha-profile"]
    monkeypatch.setitem(harness.KINDS, "alpha-profile",
                        (description, lambda cfg: pytest.fail("runner ran"), required, optional))
    for out in (afile / "x", afile):
        assert cli.main(["run", path, "--out", str(out)]) == 1
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines == [f"config error: output path {out}: {afile} is not a directory"]
    assert afile.read_text() == "keep"


def test_unwritable_report_is_config_error(tmp_path, capsys):
    # a directory where a report file should go is found before any write
    (tmp_path / "o" / "alpha_profile.csv").mkdir(parents=True)
    path = write_cfg(tmp_path, "a.json", ALPHA_CFG)
    assert cli.main(["run", path, "--out", str(tmp_path / "o")]) == 1
    lines = capsys.readouterr().out.strip().split("\n")
    assert len(lines) == 1
    assert lines[0].startswith(f"config error: cannot write to {tmp_path / 'o'}: ")


def listing(root):
    """Every entry under root, directories included, with the bytes of each file."""
    return sorted((os.path.relpath(d, root), sorted(dirs), sorted(files))
                  for d, dirs, files in os.walk(root)), read_tree(root)


def test_manifest_name_taken_by_a_directory_changes_nothing(tmp_path, capsys):
    # the old report of a reused directory must not be replaced when the
    # manifest cannot be written next to it
    out = tmp_path / "o"
    (out / "manifest.json").mkdir(parents=True)
    (out / "alpha_profile.csv").write_text("old")
    before = listing(out)
    path = write_cfg(tmp_path, "a.json", ALPHA_CFG)
    assert cli.main(["run", path, "--out", str(out)]) == 1
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines == [f"config error: cannot write to {out}: {out / 'manifest.json'} "
                     "is not a regular file"]
    assert listing(out) == before


def test_failed_write_removes_its_temporaries(tmp_path, capsys, monkeypatch):
    out = tmp_path / "o"
    out.mkdir()
    (out / "alpha_profile.csv").write_text("old")
    before = listing(out)
    opened = []

    def failing_open(file, mode="r", *args, **kwargs):
        # the write of the second file fails, after its temporary exists
        fh = open(file, mode, *args, **kwargs)
        opened.append(file)
        if len(opened) == 2:
            def full(text):
                raise OSError(28, "No space left on device")
            fh.write = full
        return fh

    monkeypatch.setattr(harness, "open", failing_open, raising=False)
    path = write_cfg(tmp_path, "a.json", ALPHA_CFG)
    assert cli.main(["run", path, "--out", str(out)]) == 1
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines == [f"config error: cannot write to {out}: [Errno 28] No space left on device"]
    assert len(opened) == 2
    assert listing(out) == before


def test_divergent_jump_law_integral_reports_suspect_infinite(tmp_path, capsys):
    # dyadic_tower jump sizes overflow to inf: the valid config is a failed
    # scientific check (exit 2) with the log-moment flagged, and the summary
    # holds null moments instead of an Infinity in the JSON
    path = write_cfg(tmp_path, "tower.json", {
        "kind": "integral-sample", "seed": 3, "t_max": 20.0, "n_steps": 8,
        "n_samples": 2000, "log_moment_samples": 2000,
        "bdlp": {"jump_rate": 1.0, "jump_law": {"kind": "dyadic_tower"}},
    })
    assert harness.run(path, out_dir=str(tmp_path / "o")) == 2
    assert capsys.readouterr().out.strip().split("\n")[-1] == (
        "scientific assertion failed (see report pass flags)")
    summary = json.loads((tmp_path / "o" / "integral_summary.json").read_text())
    assert summary["log_moment_diagnostic"] == "suspect-infinite"
    assert summary["mean"] is None and summary["variance"] is None
    manifest = json.loads((tmp_path / "o" / "manifest.json").read_text())
    assert manifest["all_pass"] is False
    assert manifest["reports"] == ["integral_samples.csv", "integral_summary.json"]


def test_unknown_kind_rejected(tmp_path):
    path = write_cfg(tmp_path, "k.json", {"kind": "mystery", "seed": 1})
    assert harness.run(path, out_dir=str(tmp_path / "o")) == 1


def test_malformed_json_rejected(tmp_path):
    p = tmp_path / "broken.json"
    p.write_text("{not json")
    assert harness.run(str(p), out_dir=str(tmp_path / "o")) == 1


def test_alpha_profile_run(tmp_path):
    cfg = {
        "kind": "alpha-profile",
        "seed": 3,
        "chain": {
            "states": [0.0, 1.0],
            "transition": [[0.75, 0.25], [0.25, 0.75]],
            "initial": [0.5, 0.5],
        },
        "n_list": [1, 2, 3],
    }
    path = write_cfg(tmp_path, "a.json", cfg)
    assert harness.run(path, out_dir=str(tmp_path / "o")) == 0
    csv = (tmp_path / "o" / "alpha_profile.csv").read_text().strip().split("\n")
    assert csv[0] == "n,alpha,kind,claim"
    assert len(csv) == 7          # 3 window rows + 3 bound rows


def test_alpha_profile_unsorted_lags(tmp_path):
    # each lag's rows do not depend on the order the lags are listed in
    rows = {}
    for name, n_list in (("unsorted", [5, 1, 3]), ("sorted", [1, 3, 5])):
        path = write_cfg(tmp_path, f"{name}.json", dict(ALPHA_CFG, n_list=n_list))
        assert harness.run(path, out_dir=str(tmp_path / name)) == 0
        text = (tmp_path / name / "alpha_profile.csv").read_text()
        rows[name] = {(r["n"], r["claim"]): r for r in csv.DictReader(io.StringIO(text))}
    assert len(rows["sorted"]) == 6
    assert rows["unsorted"] == rows["sorted"]


def test_selfdecomp_closed_form_run_and_failure_exit(tmp_path):
    good = write_cfg(tmp_path, "g.json", {
        "kind": "selfdecomp-test", "seed": 1, "c_values": [0.3, 0.5, 0.8],
        "cf_form": "gaussian",
    })
    assert harness.run(good, out_dir=str(tmp_path / "og")) == 0
    doc = json.loads((tmp_path / "og" / "selfdecomp_report.json").read_text())
    assert doc["verdict"] == "pass"
    bad = write_cfg(tmp_path, "b.json", {
        "kind": "selfdecomp-test", "seed": 1, "c_values": [0.3, 0.5, 0.8],
        "cf_form": "uniform",
    })
    assert harness.run(bad, out_dir=str(tmp_path / "ob")) == 2   # scientific failure
    doc = json.loads((tmp_path / "ob" / "selfdecomp_report.json").read_text())
    assert doc["verdict"] == "fail"
    row = doc["per_c"][0]
    assert set(row) == {"c", "psd_pass", "worst_violation", "grid_radius", "inconclusive_at"}


def test_inconclusive_selfdecomp_report_is_strict_json(tmp_path):
    # 50 replications put every c under the sampling-noise floor: each
    # worst_violation is undefined and must be written as null, not NaN
    path = write_cfg(tmp_path, "s.json", {
        "kind": "selfdecomp-test", "seed": 1, "c_values": [0.3, 0.5, 0.8],
        "process": {"family": "iid"}, "n": 16, "replications": 50, "grid_points": 21,
    })
    assert harness.run(path, out_dir=str(tmp_path / "o")) == 2

    def reject(constant):
        raise ValueError(f"not JSON: {constant}")

    text = (tmp_path / "o" / "selfdecomp_report.json").read_text()
    doc = json.loads(text, parse_constant=reject)
    assert doc["verdict"] == "inconclusive"
    assert [r["worst_violation"] for r in doc["per_c"]] == [None, None, None]


def test_integral_sample_run(tmp_path):
    cfg = write_cfg(tmp_path, "i.json", {
        "kind": "integral-sample", "seed": 2,
        "bdlp": {"drift": 2.0}, "t_max": 20.0, "n_steps": 16, "n_samples": 8,
        "log_moment_samples": 1000,
    })
    assert harness.run(cfg, out_dir=str(tmp_path / "o")) == 0
    summary = json.loads((tmp_path / "o" / "integral_summary.json").read_text())
    assert summary["mean"] == pytest.approx(2.0 * (1 - 2.0613e-9), rel=1e-6)
    assert summary["log_moment_diagnostic"] == "finite"
    samples = (tmp_path / "o" / "integral_samples.csv").read_text().strip().split("\n")
    assert samples[0] == "index,value" and len(samples) == 9


def test_coupling_suite_run(tmp_path):
    cfg = write_cfg(tmp_path, "c.json", {
        "kind": "coupling-suite", "seed": 4,
        "cases": [
            {"pmf": [[0.5, 0.0], [0.0, 0.5]], "atoms_x": [0.0, 1.0], "atoms_z": [0.0, 1.0],
             "epsilon": 0.4, "net": [0.0, 1.0], "delta": 0.0},
            {"pmf": [[0.3, 0.2], [0.2, 0.3]], "atoms_x": [0.0, 1.0], "atoms_z": [0.0, 1.0],
             "epsilon": 0.4, "net": [0.0, 1.0], "delta": 0.0},
        ],
    })
    assert harness.run(cfg, out_dir=str(tmp_path / "o")) == 0
    doc = json.loads((tmp_path / "o" / "coupling_report.json").read_text())
    assert doc["all_pass"]
    assert doc["cases"][0]["objective"] == pytest.approx(0.5, abs=1e-9)
    assert doc["cases"][1]["objective"] == pytest.approx(0.1, abs=1e-9)


@pytest.mark.parametrize("change, needle", [
    ({"net": []}, "net must be a nonempty vector of points, got shape (0,)"),
    ({"net": [[0.0], [1.0]]}, "net must be a nonempty vector of points, got shape (2, 1)"),
    ({"atoms_x": [[0.0], [1.0]]}, "atoms must be vectors of scalars, got shapes (2, 1) and (2,)"),
], ids=["net-empty", "net-matrix", "atoms-matrix"])
def test_coupling_atoms_and_net_must_be_scalar(tmp_path, capsys, change, needle):
    cfg = write_cfg(tmp_path, "c.json", {"kind": "coupling-suite", "seed": 4,
                                         "cases": [dict(COUPLING_CASE, **change)]})
    assert harness.run(cfg, out_dir=str(tmp_path / "o")) == 1
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines == [f"config error: config.cases[0]: {needle}"]
    assert not (tmp_path / "o").exists()


def test_corollary_sum_run(tmp_path):
    cfg = write_cfg(tmp_path, "s.json", {
        "kind": "corollary-sum", "seed": 5, "mode": "independent",
        "process_x": {"family": "iid"}, "process_z": {"family": "iid"},
        "n": 64, "replications": 20000,
    })
    assert harness.run(cfg, out_dir=str(tmp_path / "o")) == 0
    text = (tmp_path / "o" / "corollary_report.csv").read_text()
    assert text.split("\n")[0] == "grid,ks,reference,alpha_bound,pass,claim"
    rows = list(csv.DictReader(io.StringIO(text)))
    assert rows
    for row in rows:
        assert len(row) == 6       # DictReader files surplus cells under a None key
        assert row["reference"] == "closed-form N(0,2)"
        assert row["pass"] in ("true", "false")


def test_out_dir_env_default(tmp_path, monkeypatch):
    monkeypatch.setenv(harness.ENV_OUT_DIR, str(tmp_path / "envout"))
    cfg = write_cfg(tmp_path, "cfg.json", dict(BLOCKING_CFG, replications=2000))
    assert harness.run(cfg) == 0
    assert (tmp_path / "envout" / "manifest.json").exists()



# Report and manifest bytes of small configs of all six kinds, pinned:
# each golden/NAME.json must write exactly the files in golden/NAME/.
# Reruns are compared above; these files pin identity across changes.  A
# change that alters report bytes on purpose regenerates them with
#   PYTHONPATH=src python -m mixlimit.cli run tests/golden/NAME.json --out tests/golden/NAME
# and says why in CHANGES.md.
GOLDEN = Path(__file__).parent / "golden"
GOLDEN_NAMES = sorted(p.stem for p in GOLDEN.glob("*.json"))


def test_every_kind_has_a_golden_config():
    kinds = {json.loads((GOLDEN / f"{name}.json").read_text())["kind"] for name in GOLDEN_NAMES}
    assert kinds == set(harness.KINDS)


@pytest.mark.parametrize("name", GOLDEN_NAMES)
def test_reports_match_golden_bytes(tmp_path, name):
    status = harness.run(str(GOLDEN / f"{name}.json"), out_dir=str(tmp_path))
    expected = read_tree(GOLDEN / name)
    assert read_tree(tmp_path) == expected
    assert status == (0 if json.loads(expected["manifest.json"])["all_pass"] else 2)
