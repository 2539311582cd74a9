"""No run loads scipy, each checked in a fresh interpreter.

scipy is a test-only dependency: the normal cdf is the C library's erfc
through math.erfc, the PSD check uses numpy's eigensolver and the coupling
solver needs none.  Importing scipy.special cost about 0.3 s of each run
that drew a normal cdf, and scipy.stats about 0.7 s.
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
# prints the exit status and the scipy modules then loaded
PROBE = """
import contextlib, io, json, sys
import mixlimit
code = None
if sys.argv[1:]:
    from mixlimit import cli
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(sys.argv[1:])
print(json.dumps({"exit": code,
                  "scipy": sorted(m for m in sys.modules if m.split(".")[0] == "scipy")}))
"""


def probe(tmp_path, *argv) -> dict:
    path = [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    res = subprocess.run([sys.executable, "-c", PROBE, *argv], cwd=tmp_path, env=env,
                         capture_output=True, text=True, timeout=300)
    assert res.returncode == 0, res.stderr
    return json.loads(res.stdout.strip().split("\n")[-1])


def test_import_and_list_load_no_scipy(tmp_path):
    assert probe(tmp_path) == {"exit": None, "scipy": []}
    assert probe(tmp_path, "list") == {"exit": 0, "scipy": []}


@pytest.mark.parametrize("name", GOLDEN_NAMES)
def test_golden_runs_load_only_the_scipy_they_use(tmp_path, name):
    # they use none
    got = probe(tmp_path, "run", str(GOLDEN / f"{name}.json"), "--out", str(tmp_path / "o"))
    assert got["exit"] in (0, 2)
    assert got["scipy"] == []
