"""Spans at the program's module boundaries, and the per-layer metrics they give.

While a traced round runs, the public functions below are rebound, in every
module that calls them, with wrappers that record a span: layer name, start,
end, parent span and a note (b points, jobs, bytes).  The originals are put
back after the round, so untraced rounds run the program untouched.  Spans
stay in memory and are written out when the benchmark ends.  A span's self
time is its duration minus the duration of its child spans.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from pathlib import Path
from statistics import median
from time import perf_counter

import numpy as np

from workloads import experiments, incentives, sim, soap, svgchart


def _b_points(args, kwargs, result):
    return {"b_points": int(np.atleast_1d(args[2]).size)}


def _sim_note(args, kwargs, result):
    policy, cfg = args[1], args[2]
    return {"policy": policy.kind.value, "jobs": cfg.job_count * cfg.replications}


def _csv_note(args, kwargs, result):
    return {"bytes": Path(args[1]).stat().st_size}


def _svg_note(args, kwargs, result):
    return {"bytes": len(result.encode())}


# (module, attribute, span name, note): each public function at a module
# boundary, once for every module that binds it
BINDINGS = [
    (soap, "response_cube", "soap.cube", _b_points),
    (incentives, "response_cube", "soap.cube", _b_points),
    (incentives, "ic_region", "incentives.region", None),
    (experiments, "ic_region", "incentives.region", None),
    (experiments, "SystemConfig", "model.config", None),
    (experiments, "uniform_error_matrix", "model.matrix", None),
    (experiments, "diagonal_matrix", "model.matrix", None),
    (experiments, "optimal_b_curve", "experiments.curve", None),
    (experiments, "write_curve_csv", "experiments.csv", _csv_note),
    (svgchart, "curve_chart", "svgchart.svg", _svg_note),
    (sim, "simulate", "sim.simulate", _sim_note),
]

SIM_POLICIES = ("fcfs", "scf", "mt", "bt")


class Tracer:
    """Collects each traced round's spans as [name, start, end, parent, note]."""

    def __init__(self):
        self.rounds: dict[int, list[list]] = {}
        self.spans: list[list] = []
        self._stack: list[int] = []

    def _wrap(self, fn, name, note):
        def traced(*args, **kwargs):
            idx = len(self.spans)
            span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, None]
            self.spans.append(span)
            self._stack.append(idx)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                self._stack.pop()
            if note is not None:
                span[4] = note(args, kwargs, result)
            return result
        return traced

    @contextmanager
    def round(self, index: int):
        """Rebind every boundary function for the duration of one round."""
        saved = [(module, attr, getattr(module, attr)) for module, attr, _, _ in BINDINGS]
        self.spans = self.rounds[index] = []
        try:
            for (module, attr, name, note), (_, _, original) in zip(BINDINGS, saved):
                setattr(module, attr, self._wrap(original, name, note))
            yield
        finally:
            for module, attr, original in saved:
                setattr(module, attr, original)

    def write(self, path: Path) -> None:
        keys = ("name", "start", "end", "parent", "note")
        with open(path, "w") as fh:
            json.dump({index: [dict(zip(keys, s)) for s in spans]
                       for index, spans in self.rounds.items()}, fh)

    def round_metrics(self, index: int) -> dict[str, float]:
        """Per-layer counts, self times and ratios of one traced round."""
        spans = self.rounds[index]
        own = [s[2] - s[1] for s in spans]           # becomes self time below
        for s in spans:
            if s[3] >= 0:
                own[s[3]] -= s[2] - s[1]

        def ancestors(s):
            while s[3] >= 0:
                s = spans[s[3]]
                yield s[0]

        def self_s(name):
            return sum(t for s, t in zip(spans, own) if s[0] == name)

        def count(name):
            return sum(1 for s in spans if s[0] == name)

        def noted(name, key):
            return sum(s[4][key] for s in spans if s[0] == name and s[4])

        cube_s = self_s("soap.cube")
        b_points = noted("soap.cube", "b_points")
        regions = count("incentives.region")
        cubes_in_regions = sum(1 for s in spans
                               if s[0] == "soap.cube" and "incentives.region" in ancestors(s))
        curve_total = sum(s[2] - s[1] for s in spans if s[0] == "experiments.curve")
        analysis_in_curve = sum(t for s, t in zip(spans, own)
                                if s[0].startswith(("soap.", "incentives."))
                                and "experiments.curve" in ancestors(s))
        m = {
            "model.configs": count("model.config"),
            "model.build_s": self_s("model.config") + self_s("model.matrix"),
            "soap.cube_calls": count("soap.cube"),
            "soap.cube_b_points": b_points,
            "soap.cube_s": cube_s,
            "soap.us_per_b_point": 1e6 * cube_s / b_points if b_points else 0.0,
            "incentives.region_calls": regions,
            "incentives.region_self_s": self_s("incentives.region"),
            "incentives.cubes_per_region": cubes_in_regions / regions if regions else 0.0,
            "experiments.curve_self_s": self_s("experiments.curve"),
            "experiments.curve_analysis_share":
                analysis_in_curve / curve_total if curve_total else 0.0,
            "experiments.csv_s": self_s("experiments.csv"),
            "experiments.csv_bytes": noted("experiments.csv", "bytes"),
            "svgchart.svg_s": self_s("svgchart.svg"),
            "svgchart.svg_bytes": noted("svgchart.svg", "bytes"),
        }
        for policy in SIM_POLICIES:
            runs = [s for s in spans if s[0] == "sim.simulate" and s[4]["policy"] == policy]
            busy = sum(s[2] - s[1] for s in runs)
            m[f"sim.{policy}.jobs_per_s"] = sum(s[4]["jobs"] for s in runs) / busy if busy else 0.0
        return m


def per_layer(tracer: Tracer) -> dict[str, float]:
    """Median over the traced rounds of every per-round layer metric."""
    per_round = [tracer.round_metrics(i) for i in tracer.rounds]
    return {name: median(m[name] for m in per_round) for name in per_round[0]}
