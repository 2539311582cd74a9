"""mixlimit benchmark: time `mixlimit run` end to end and trace its modules.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S --trace 0|1
    python3 bench/run.py --write-configs DIR

Run from the root of a source checkout; the program is taken from its
`src/` directory.  With --trace 0 each round runs the workload's configs
as `python -m mixlimit.cli run CONFIG --out DIR` child processes, one
after another, and rounds repeat until S seconds have passed (two at
least, so reruns can be compared byte for byte).  It reports set-up
time, the wall time of a round and the largest child peak RSS.  With
--trace 1 the configs run in this process: once untraced, then in
traced rounds, and it reports the per-module metrics.  Every run checks
its reports with checks.py and prints, as its last line, one JSON
object {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import checks
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
TRACE_OUT = ROOT / ".bench_out"
SETUP_REPEATS = 3
MIN_ROUNDS = 2

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mb", "MB"))

PER_LAYER = (
    ("processes.simulate_many.s", "s"),
    ("processes.simulate_many.calls", "count"),
    ("processes.simulate_many.draws", "count"),
    ("processes.simulate_many.out_mb", "MB"),
    ("processes.tail.evals", "count"),
    ("blocking.compute_deltas.s", "s"),
    ("blocking.make_plan.s", "s"),
    ("blocking.verify_blocking.s", "s"),
    ("blocking.verify_blocking.self_s", "s"),
    ("probcore.ks_distance.s", "s"),
    ("probcore.ks_distance.calls", "count"),
    ("probcore.empirical_cf.s", "s"),
    ("probcore.empirical_cf.points", "count"),
    ("probcore.psd_check.s", "s"),
    ("probcore.alpha_exact.s", "s"),
    ("probcore.alpha_exact.calls", "count"),
    ("probcore.alpha_exact.subsets", "count"),
    ("mixing.alpha_window.calls", "count"),
    ("mixing.alpha_sequence.s", "s"),
    ("mixing.alpha_bound_geometric.s", "s"),
    ("coupling.solve_coupling.s", "s"),
    ("coupling.solve_coupling.self_s", "s"),
    ("coupling.linprog.s", "s"),
    ("coupling.lp_variables", "count"),
    ("coupling.alpha_exact.calls", "count"),
    ("selfdecomp.selfdecomp_test_sample.s", "s"),
    ("selfdecomp.sample_random_integral.s", "s"),
    ("selfdecomp.log_moment_check.s", "s"),
    ("coupling.corollary_sum_experiment.s", "s"),
    ("harness.run.s", "s"),
    ("harness.report_bytes", "bytes"),
    ("harness.traced_peak_mb", "MB"),
    ("trace.overhead_s", "s"),
)


class Round:
    """Outputs of one pass over a workload's configs."""

    def __init__(self, directory: Path):
        self.dir = directory
        self.exit_codes = {}
        self.walls = {}
        self.rss_mb = {}
        self.peak_mb = 0.0

    def out(self, label: str) -> Path:
        return self.dir / label


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def _timed_child(argv: list, log: Path) -> tuple:
    """Run one child to completion: (exit code, wall seconds, peak RSS in MB)."""
    with open(log, "wb") as fh:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, env=_child_env(), cwd=ROOT, stdout=fh, stderr=fh)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - t0
    # reaped by wait4 above; tell Popen so it does not wait on the pid again
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def measure_setup(work: Path) -> float:
    """Median wall time of a fresh interpreter that imports the CLI and lists the kinds."""
    times = []
    for i in range(SETUP_REPEATS):
        code, wall, _ = _timed_child(
            [sys.executable, "-m", "mixlimit.cli", "list"], work / f"setup-{i}.log")
        if code != 0:
            raise RuntimeError(f"`mixlimit list` exited {code}; see {work / f'setup-{i}.log'}")
        times.append(wall)
    return statistics.median(times)


def child_round(directory: Path, cfgs: list, paths: dict) -> Round:
    rnd = Round(directory)
    directory.mkdir(parents=True)
    for label, _ in cfgs:
        argv = [sys.executable, "-m", "mixlimit.cli", "run", str(paths[label]),
                "--out", str(rnd.out(label))]
        code, wall, rss = _timed_child(argv, directory / f"{label}.log")
        rnd.exit_codes[label], rnd.walls[label], rnd.rss_mb[label] = code, wall, rss
    return rnd


def inprocess_round(directory: Path, cfgs: list, paths: dict, track_memory: bool = False) -> Round:
    """Run the configs through mixlimit.cli.main in this process.

    With track_memory, tracemalloc runs for the round and rnd.peak_mb is the
    largest per-config peak of traced allocations.
    """
    import mixlimit.cli

    rnd = Round(directory)
    directory.mkdir(parents=True)
    if track_memory:
        tracemalloc.start()
    try:
        for label, _ in cfgs:
            if track_memory:
                tracemalloc.reset_peak()
            t0 = time.perf_counter()
            with contextlib.redirect_stdout(io.StringIO()):
                code = mixlimit.cli.main(["run", str(paths[label]), "--out", str(rnd.out(label))])
            rnd.walls[label] = time.perf_counter() - t0
            rnd.exit_codes[label] = code
            if track_memory:
                rnd.peak_mb = max(rnd.peak_mb, tracemalloc.get_traced_memory()[1] / 2 ** 20)
    finally:
        if track_memory:
            tracemalloc.stop()
    return rnd


def report_files(rnd: Round) -> dict:
    return {p.relative_to(rnd.dir).as_posix(): p.read_bytes()
            for p in sorted(rnd.dir.rglob("*")) if p.is_file() and p.parent != rnd.dir}


def verify(rounds: list, cfgs: list) -> tuple:
    """Check the first round's reports, compare every later round to it byte
    for byte, and count operations over all rounds: (errors, attempted, failed)."""
    first = rounds[0]
    errors = []
    for label, cfg in cfgs:
        errors += [f"{label}: {e}" for e in checks.check(cfg, first.out(label), first.exit_codes[label])]
    reference = report_files(first)
    attempted = failed = 0
    for i, rnd in enumerate(rounds):
        if i and report_files(rnd) != reference:
            errors.append(f"round {i + 1} reports differ from round 1")
        for label, cfg in cfgs:
            a, f = checks.operations(cfg["kind"], rnd.out(label), rnd.exit_codes[label])
            attempted += a
            failed += f
    return errors, attempted, failed


def run_timed(work: Path, cfgs: list, paths: dict, seconds: float) -> tuple:
    setup = measure_setup(work)
    rounds = []
    t0 = time.perf_counter()
    while len(rounds) < MIN_ROUNDS or time.perf_counter() - t0 < seconds:
        rounds.append(child_round(work / f"round-{len(rounds) + 1}", cfgs, paths))
    values = {
        "setup_s": setup,
        "wall_s": statistics.median(sum(r.walls.values()) for r in rounds),
        "peak_rss_mb": statistics.median(max(r.rss_mb.values()) for r in rounds),
    }
    return rounds, values, END_TO_END


def layer_metrics(tracer, rnd: Round, untraced_wall: float, peak_mb: float) -> dict:
    out = {}
    for name, _ in PER_LAYER:
        if name in tracer.counts:
            out[name] = tracer.counts[name]
        elif name.endswith(".self_s"):
            out[name] = tracer.self_seconds(name[: -len(".self_s")])
        elif name.endswith(".calls"):
            out[name] = tracer.calls(name[: -len(".calls")])
        elif name.endswith(".s"):
            out[name] = tracer.seconds(name[: -len(".s")])
    out["coupling.alpha_exact.calls"] = tracer.calls_under(
        "probcore.alpha_exact", "coupling.solve_coupling")
    out["harness.report_bytes"] = sum(len(b) for b in report_files(rnd).values())
    out["harness.traced_peak_mb"] = peak_mb
    out["trace.overhead_s"] = sum(rnd.walls.values()) - untraced_wall
    return out


def run_traced(work: Path, cfgs: list, paths: dict, seconds: float, trace_path: Path) -> tuple:
    """One round under tracemalloc for the memory peak (it also warms the
    process up), one untraced round, then span-traced rounds until `seconds`
    have passed since the first round began.  tracemalloc slows every Python
    allocation, so it never runs together with the timed rounds."""
    from tracer import Tracer

    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    memory = inprocess_round(work / "round-1", cfgs, paths, track_memory=True)
    untraced = inprocess_round(work / "round-2", cfgs, paths)
    untraced_wall = sum(untraced.walls.values())
    rounds, per_round, tracers = [memory, untraced], [], []
    while not per_round or time.perf_counter() - t0 < seconds:
        tracer = Tracer()
        tracer.install()
        try:
            rnd = inprocess_round(work / f"round-{len(rounds) + 1}", cfgs, paths)
        finally:
            tracer.uninstall()
        rounds.append(rnd)
        tracers.append(tracer)
        per_round.append(layer_metrics(tracer, rnd, untraced_wall, memory.peak_mb))
    tracers[0].write(trace_path)
    values = {name: statistics.median(m[name] for m in per_round) for name, _ in PER_LAYER}
    return rounds, values, PER_LAYER


def write_config(path: Path, cfg: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(cfg, indent=2) + "\n")


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    cfgs = workloads.configs(name)
    # the seed orders the invocations within a round; the configs are fixed
    random.Random(seed).shuffle(cfgs)
    work = WORK / f"{name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        paths = {label: work / "configs" / f"{label}.json" for label, _ in cfgs}
        for label, cfg in cfgs:
            write_config(paths[label], cfg)
        if trace:
            trace_path = TRACE_OUT / f"trace-{name}-seed{seed}.json"
            rounds, values, spec = run_traced(work, cfgs, paths, seconds, trace_path)
        else:
            rounds, values, spec = run_timed(work, cfgs, paths, seconds)
        errors, attempted, failed = verify(rounds, cfgs)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for e in errors:
        print(f"CHECK FAILED [{name}] {e}", file=sys.stderr)
    for i, rnd in enumerate(rounds, 1):
        walls = " ".join(f"{label}={w:.3f}" for label, w in rnd.walls.items())
        print(f"   round {i}: {sum(rnd.walls.values()):.3f} s ({walls})", file=sys.stderr)
    return {
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": values[n], "unit": u} for n, u in spec},
    }


def print_table(name: str, result: dict) -> None:
    print(f"== {name}: correct={result['correct']} attempted={result['attempted']} "
          f"failed={result['failed']}")
    for metric, v in result["metrics"].items():
        print(f"   {metric:40s} {v['value']:>16.6g} {v['unit']}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=workloads.WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--write-configs", metavar="DIR",
                   help="write every workload's configs as JSON files and exit")
    args = p.parse_args(argv)
    if args.write_configs:
        for name in workloads.WORKLOADS:
            for label, cfg in workloads.configs(name):
                path = Path(args.write_configs) / name / f"{label}.json"
                write_config(path, cfg)
                print(path)
        return 0
    if args.workload is None:
        p.error("--workload is required")
    if not (SRC / "mixlimit" / "__init__.py").is_file():
        print(f"error: no mixlimit sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        results[name] = run_workload(name, args.seed, args.seconds, bool(args.trace))
        print_table(name, results[name])
    if args.workload == "all":
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{m}": v for w, r in results.items() for m, v in r["metrics"].items()},
        }
    else:
        final = results[args.workload]
    print(json.dumps(final), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
