"""In-process tracing of mixlimit at its module boundaries.

`Tracer.install()` replaces every public function of the traced modules
with a wrapper that records a span (name, start, end, parent), wherever
a module holds a reference to it: `processes.simulate_many` as well as
the `ks_distance` that blocking imported by name.  A few spans also
count work from their arguments or results.  Spans stay in memory until
`write()`; `uninstall()` restores the original functions.

Self time of a span is its duration minus the durations of its direct
children (calls are sequential, so children never overlap).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from pathlib import Path

import scipy.optimize

LAYERS = ("processes", "blocking", "probcore", "mixing", "selfdecomp", "coupling", "harness", "cli")


def _draws(bound, result, counts):
    a = bound.arguments
    counts["processes.simulate_many.draws"] += int(a["n"]) * int(a["reps"])
    counts["processes.simulate_many.out_mb"] = max(
        counts["processes.simulate_many.out_mb"], result.nbytes / 2 ** 20)


def _subsets(bound, result, counts):
    counts["probcore.alpha_exact.subsets"] += (1 << min(bound.arguments["joint"].pmf.shape)) - 1


def _cf_points(bound, result, counts):
    counts["probcore.empirical_cf.points"] += len(result.grid) * result.sample_size


def _lp_variables(bound, result, counts):
    nx, nz = bound.arguments["problem"].joint.pmf.shape
    counts["coupling.lp_variables"] += nx * nz * nx


# counters read from a traced call: span name -> hook(bound arguments, result, counts)
_HOOKS = {
    "processes.simulate_many": _draws,
    "probcore.alpha_exact": _subsets,
    "probcore.empirical_cf": _cf_points,
    "coupling.solve_coupling": _lp_variables,
}

COUNTERS = (
    "processes.simulate_many.draws",
    "processes.simulate_many.out_mb",
    "processes.tail.evals",
    "probcore.alpha_exact.subsets",
    "probcore.empirical_cf.points",
    "coupling.lp_variables",
)


class Tracer:
    def __init__(self):
        self.spans = []            # [name, start, end, parent index or None]
        self.counts = dict.fromkeys(COUNTERS, 0)
        self._stack = []
        self._restore = []         # (namespace object, attribute, original)

    # ---------------------------------------------------------------- spans

    def _wrap(self, name, fn):
        hook = _HOOKS.get(name)
        sig = inspect.signature(fn) if hook else None
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, time.perf_counter(), None, stack[-1] if stack else None])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = time.perf_counter()
            if hook:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                hook(bound, result, self.counts)
            if name == "processes.marginal_abs_tail":
                result = self._count_tail(result)
            return result

        return traced

    def _count_tail(self, tail):
        counts = self.counts

        @functools.wraps(tail)
        def counted(t):
            counts["processes.tail.evals"] += 1
            return tail(t)

        return counted

    def _patch(self, owner, attr, new):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self) -> None:
        modules = {m: importlib.import_module(f"mixlimit.{m}") for m in LAYERS}
        modules["mixlimit"] = importlib.import_module("mixlimit")
        wrappers = {}
        for short in LAYERS:
            mod = modules[short]
            for attr, fn in vars(mod).items():
                if (inspect.isfunction(fn) and fn.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    wrappers[fn] = self._wrap(f"{short}.{attr}", fn)
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patch(mod, attr, wrappers[obj])
        # the LP solve sits in scipy, reached as scipy.optimize.linprog from coupling
        self._patch(scipy.optimize, "linprog", self._wrap("coupling.linprog", scipy.optimize.linprog))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # -------------------------------------------------------------- metrics

    def seconds(self, name) -> float:
        return sum(s[2] - s[1] for s in self.spans if s[0] == name)

    def calls(self, name) -> int:
        return sum(1 for s in self.spans if s[0] == name)

    def self_seconds(self, name) -> float:
        child_time = [0.0] * len(self.spans)
        for s in self.spans:
            if s[3] is not None:
                child_time[s[3]] += s[2] - s[1]
        return sum(s[2] - s[1] - child_time[i] for i, s in enumerate(self.spans) if s[0] == name)

    def calls_under(self, name, ancestor) -> int:
        n = 0
        for s in self.spans:
            if s[0] != name:
                continue
            parent = s[3]
            while parent is not None and self.spans[parent][0] != ancestor:
                parent = self.spans[parent][3]
            n += parent is not None
        return n

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        keys = ("name", "start", "end", "parent")
        doc = {"spans": [dict(zip(keys, s)) for s in self.spans], "counts": self.counts}
        with open(path, "w") as fh:
            json.dump(doc, fh)
