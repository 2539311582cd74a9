"""Every golden's verdicts, pinned apart from its bytes.

The byte goldens move whenever the random streams or the numerics do, and
are then regenerated from the program.  The pass flags and verdicts they
carry must not move with them: a change of that kind is a change of what
the lab claims, and it is made on purpose, here, where it shows.

Each report golden is read as (all_pass, verdict, flags): the manifest's
all_pass; the selfdecomp report's verdict (None for other kinds); and one
letter per flagged row, t or f, in report order.  Each demo golden is read
as the sequence of verdict words it prints.
"""

import csv
import io
import json
import re
from pathlib import Path

import pytest

GOLDEN = Path(__file__).parent / "golden"

REPORT_VERDICTS = {
    "alpha_profile": (True, None, ""),
    "blocking_markov": (False, None, "tfttttttfttttttttttttt"),
    "blocking_verify": (True, None, "ttttttttttttttt"),
    "corollary_duplicate": (True, None, "t"),
    "corollary_independent": (True, None, "t"),
    "corollary_lagged": (True, None, "ttt"),
    "coupling_suite": (True, None, "tt"),
    "integral_sample": (True, None, ""),
    "selfdecomp_closed_form": (True, "pass", "ttt"),
    "selfdecomp_inconclusive": (False, "inconclusive", "fff"),
    "selfdecomp_process": (True, "pass", "ttt"),
}

DEMO_WORDS = re.compile(r"\b(True|False|pass|fail|inconclusive|ok|VIOLATION|finite|infinite)\b")
DEMO_VERDICTS = {
    "01_dependence_coefficients": "",
    "02_norming_and_infinitesimality": "True True True fail",
    # 15 rows of pass=True, then "all claims pass: True"
    "03_three_block_decomposition": " ".join(["pass True"] * 16),
    "04_cf_ratio_selfdecomposability": ("pass ok ok ok pass ok ok ok fail VIOLATION ok VIOLATION "
                                        "True True pass inconclusive pass"),
    "05_exponential_integral_sampler": "finite finite infinite",
    "06_optimal_coupling_bound": "",
}


def report_verdicts(name):
    """(all_pass, verdict, flags) of the golden report directory name."""
    root = GOLDEN / name
    manifest = json.loads((root / "manifest.json").read_text())
    verdict, flags = None, []
    for report in manifest["reports"]:
        text = (root / report).read_text()
        if report.endswith(".csv"):
            rows = list(csv.DictReader(io.StringIO(text)))
            flags += [r["pass"] == "true" for r in rows if "pass" in r]
            continue
        body = json.loads(text)
        if "cases" in body:
            flags += [case["pass"] for case in body["cases"]]
        if "per_c" in body:
            verdict = body["verdict"]
            flags += [row["psd_pass"] for row in body["per_c"]]
    return manifest["all_pass"], verdict, "".join("t" if f else "f" for f in flags)


def test_every_golden_has_a_pinned_verdict():
    assert sorted(REPORT_VERDICTS) == sorted(p.stem for p in GOLDEN.glob("*.json"))
    assert sorted(DEMO_VERDICTS) == sorted(p.stem for p in (GOLDEN / "demos").glob("*.txt"))


@pytest.mark.parametrize("name", sorted(REPORT_VERDICTS))
def test_report_golden_verdicts_are_pinned(name):
    assert report_verdicts(name) == REPORT_VERDICTS[name]


@pytest.mark.parametrize("name", sorted(DEMO_VERDICTS))
def test_demo_golden_verdicts_are_pinned(name):
    text = (GOLDEN / "demos" / f"{name}.txt").read_text()
    assert " ".join(DEMO_WORDS.findall(text)) == DEMO_VERDICTS[name]
