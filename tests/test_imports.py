"""What each command loads, checked in a fresh interpreter.

`import mixlimit`, `mixlimit.cli` and `mixlimit.harness` load neither
numpy nor any library module: each runner and parser imports the modules
it uses when it is called.  So `list`, `--help`, a usage error and a
config rejected before its runner starts load no numpy (importing it
costs about 0.1 s of each CLI child), and each run loads only its kind's
modules.

No run loads scipy either.  scipy is a test-only dependency: the normal
cdf is the C library's erfc through math.erfc, the PSD check uses numpy's
eigensolver and the coupling solver needs none.  Importing scipy.special
cost about 0.3 s of each run that drew a normal cdf, and scipy.stats
about 0.7 s.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = Path(__file__).parent / "golden"
GOLDEN_NAMES = sorted(p.stem for p in GOLDEN.glob("*.json"))

# imports mixlimit, runs the CLI on the arguments if there are any, and
# prints the exit status and the scipy, numpy and mixlimit modules then loaded
PROBE = """
import contextlib, io, json, sys
import mixlimit
code = None
if sys.argv[1:]:
    from mixlimit import cli
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(sys.argv[1:])
loaded = lambda top: sorted(m for m in sys.modules if m.split(".")[0] == top)
print(json.dumps({"exit": code, "scipy": loaded("scipy"), "numpy": loaded("numpy"),
                  "mixlimit": loaded("mixlimit")}))
"""

# the library modules each golden run loads: a kind's runner and what its
# modules import (processes imports mixing, selfdecomp imports processes)
KIND_MODULES = {
    "alpha-profile": {"mixing", "probcore", "rngstreams"},
    "blocking-verify": {"blocking", "mixing", "probcore", "processes", "rngstreams", "selfdecomp"},
    "selfdecomp-test": {"mixing", "probcore", "processes", "rngstreams", "selfdecomp"},
    "integral-sample": {"mixing", "probcore", "processes", "rngstreams", "selfdecomp"},
    "coupling-suite": {"coupling", "mixing", "probcore", "processes", "rngstreams"},
    "corollary-sum": {"coupling", "mixing", "probcore", "processes", "rngstreams"},
}


def probe(tmp_path, *argv) -> dict:
    path = [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    res = subprocess.run([sys.executable, "-c", PROBE, *argv], cwd=tmp_path, env=env,
                         capture_output=True, text=True, timeout=300)
    assert res.returncode == 0, res.stderr
    return json.loads(res.stdout.strip().split("\n")[-1])


@pytest.fixture(scope="module")
def golden_run(tmp_path_factory):
    """name -> the probe of that golden config's run, each run once."""
    runs = {}

    def get(name):
        if name not in runs:
            tmp = tmp_path_factory.mktemp(name)
            runs[name] = probe(tmp, "run", str(GOLDEN / f"{name}.json"), "--out", str(tmp / "o"))
            assert runs[name]["exit"] in (0, 2)
        return runs[name]

    return get


@pytest.mark.parametrize("name", GOLDEN_NAMES)
def test_golden_runs_load_only_the_scipy_they_use(golden_run, name):
    # they use none
    assert golden_run(name)["scipy"] == []


def test_import_loads_no_numpy_and_no_library_module(tmp_path):
    assert probe(tmp_path) == {"exit": None, "scipy": [], "numpy": [], "mixlimit": ["mixlimit"]}


@pytest.mark.parametrize("argv, code", [
    (["list"], 0),
    (["list", "--json"], 0),
    (["--help"], 0),
    (["frobnicate"], 1),
    (["run", "unknown-kind.json"], 1),
    (["run", "invalid.json"], 1),
    (["run", "unknown-key.json"], 1),
    (["run", "missing.json"], 1),
], ids=["list", "list-json", "help", "usage-error", "unknown-kind", "invalid-json",
        "unknown-key", "unreadable"])
def test_commands_that_run_no_experiment_load_no_numpy(tmp_path, argv, code):
    (tmp_path / "unknown-kind.json").write_text('{"kind": "frobnicate", "seed": 1}')
    (tmp_path / "invalid.json").write_text('{"kind": "alpha-profile", "seed": 1,')
    (tmp_path / "unknown-key.json").write_text('{"kind": "alpha-profile", "seed": 1, "chian": {}}')
    assert probe(tmp_path, *argv) == {"exit": code, "scipy": [], "numpy": [],
                                      "mixlimit": ["mixlimit", "mixlimit.cli", "mixlimit.harness"]}


@pytest.mark.parametrize("name", GOLDEN_NAMES)
def test_golden_runs_load_only_the_modules_their_kind_uses(golden_run, name):
    got = golden_run(name)
    assert "numpy" in got["numpy"]
    loaded = {m.removeprefix("mixlimit.") for m in got["mixlimit"]} - {"mixlimit", "cli", "harness"}
    assert loaded == KIND_MODULES[json.loads((GOLDEN / f"{name}.json").read_text())["kind"]]
