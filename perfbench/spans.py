"""Spans around fleetcarbon's public functions, recorded from outside.

While `instrumented(tracer)` is active, each layer-boundary function in
BOUNDARIES is replaced, in every fleetcarbon module that holds a
reference to it, by a wrapper that records a span (name, start, end,
parent) and updates the tracer's counters from the call's arguments and
result. Per-row helpers (timestamp parsing, machine power) are left
alone: wrapping them would cost more than the work they do. On exit every
reference is restored, so untraced runs execute the original functions.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from functools import wraps


@dataclass(frozen=True)
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index of the enclosing span in Tracer.spans
    trace: int  # one identifier per pass

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Spans and counters for one process; kept in memory until read."""

    def __init__(self, trace: int = 0) -> None:
        self.trace = trace
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._open[-1] if self._open else None
        self.spans.append(None)  # reserve the slot so children link to it
        self._open.append(index)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._open.pop()
            self.spans[index] = Span(name, start, end, parent, self.trace)

    def wrap(self, name: str, fn, count=None):
        @wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if count is not None:
                count(self.counts, args, kwargs, result)
            return result

        return traced


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it its children cover."""
    children: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    out = []
    for i, span in enumerate(spans):
        covered, reach = 0.0, span.start
        for child in sorted(children.get(i, ()), key=lambda s: s.start):
            start, end = max(child.start, reach), min(child.end, span.end)
            if end > start:
                covered += end - start
                reach = end
        out.append(span.duration - covered)
    return out


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _count_ingest(c, args, kwargs, res) -> None:
    c["telemetry.rows_accepted"] += len(res.samples)
    c["telemetry.rows_rejected"] += len(res.rejections)


def _count_exclude(c, args, kwargs, res) -> None:
    c["telemetry.rows_excluded"] += sum(res.exclusions.values())


def _count_aggregate(c, args, kwargs, res) -> None:
    c["telemetry.aggregate_rows_scanned"] += len(_arg(args, kwargs, 0, "dataset").samples)
    c["telemetry.aggregate_rows_in_window"] += res.sample_count


def _count_weights(c, args, kwargs, res) -> None:
    c["weighting.fraction_weights"] += len(res)


def _count_balanced(c, args, kwargs, res) -> None:
    c["weighting.observations"] += len(_arg(args, kwargs, 0, "cohort"))
    c["weighting.positivity_warnings"] += sum("positivity" in w for w in res.warnings)


def _count_render(c, args, kwargs, res) -> None:
    c["report.render_bytes"] += len(res.encode("utf-8"))


def _count_runs(c, args, kwargs, res) -> None:
    c["workload.interval_records"] += sum(len(iv.power_w) for run in res for iv in run.intervals)


def _count_on_duty(c, args, kwargs, res) -> None:
    c["workload.intervals_included"] += res.included_intervals
    c["workload.intervals_excluded"] += res.excluded_intervals


# (module, function or Class.method, counter) at each layer boundary.
BOUNDARIES = (
    ("config", "load_config", None),
    ("config", "load_platforms", None),
    ("config", "load_inventories", None),
    ("config", "load_factors", None),
    ("telemetry", "ingest", _count_ingest),
    ("telemetry", "exclude_incomplete", _count_exclude),
    ("telemetry", "aggregate", _count_aggregate),
    ("telemetry", "lifetime_energy_per_chip", None),
    ("telemetry", "write_rejection_log", None),
    ("cci", "build_report", None),
    ("lca", "per_chip_embodied", None),
    ("lca", "inventory_views", None),
    ("lca", "machine_manufacturing", None),
    ("lca", "machine_transport", None),
    ("report", "platform_table", None),
    ("report", "stage_breakdown_table", None),
    ("report", "scenario_table", None),
    ("report", "manufacturing_table", None),
    ("report", "amortization_table", None),
    ("report", "workload_table", None),
    ("report", "weighting_table", None),
    ("report", "dataset_observations", None),
    ("report", "Table.render", _count_render),
    ("weighting", "propensity_scores", None),
    ("weighting", "weights", _count_weights),
    ("weighting", "balanced_comparison", _count_balanced),
    ("workload", "read_runs", _count_runs),
    ("workload", "on_duty_power", _count_on_duty),
    ("workload", "emissions_per_step", None),
)


@contextmanager
def instrumented(tracer: Tracer):
    """Route every call through BOUNDARIES into `tracer` while active."""
    importlib.import_module("fleetcarbon.cli")
    modules = [m for name, m in list(sys.modules.items()) if name.split(".")[0] == "fleetcarbon"]
    patched = []  # (holder, attribute, original)
    try:
        for module_name, qualname, count in BOUNDARIES:
            module = importlib.import_module(f"fleetcarbon.{module_name}")
            owner, holders, attr = module, modules, qualname
            if "." in qualname:  # a method: patch the class only
                cls_name, attr = qualname.split(".")
                owner = getattr(module, cls_name)
                holders = [owner]
            original = vars(owner)[attr]
            wrapper = tracer.wrap(f"{module_name}.{qualname}", original, count)
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        setattr(holder, key, wrapper)
                        patched.append((holder, key, original))
        yield tracer
    finally:
        for holder, key, original in reversed(patched):
            setattr(holder, key, original)


# Per-layer seconds: the summed self time of the named spans.
SELF_TIME_METRICS = {
    "telemetry.ingest_s": "telemetry.ingest",
    "telemetry.exclude_s": "telemetry.exclude_incomplete",
    "telemetry.aggregate_s": "telemetry.aggregate",
    "cci.build_report_s": "cci.build_report",
    "report.platform_table_s": "report.platform_table",
    "report.stage_breakdown_table_s": "report.stage_breakdown_table",
    "report.scenario_table_s": "report.scenario_table",
    "report.manufacturing_table_s": "report.manufacturing_table",
    "report.amortization_table_s": "report.amortization_table",
    "report.workload_table_s": "report.workload_table",
    "report.weighting_table_s": "report.weighting_table",
    "report.observations_s": "report.dataset_observations",
    "report.render_s": "report.Table.render",
    "weighting.propensity_s": "weighting.propensity_scores",
    "weighting.weights_s": "weighting.weights",
    "weighting.balanced_s": "weighting.balanced_comparison",
    "workload.read_runs_s": "workload.read_runs",
    "workload.on_duty_s": "workload.on_duty_power",
    "workload.step_emissions_s": "workload.emissions_per_step",
}
# Whole-module self time.
MODULE_METRICS = {"config.load_s": "config.", "lca.embodied_s": "lca."}
COUNT_METRICS = (
    "telemetry.rows_accepted",
    "telemetry.rows_rejected",
    "telemetry.rows_excluded",
    "telemetry.aggregate_rows_scanned",
    "report.render_bytes",
    "weighting.observations",
    "weighting.fraction_weights",
    "weighting.positivity_warnings",
    "workload.interval_records",
    "workload.intervals_included",
    "workload.intervals_excluded",
)


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer figures for one traced pass (no memory figures)."""
    spans, counts = tracer.spans, tracer.counts
    self_s, calls = Counter(), Counter(s.name for s in spans)
    for span, t in zip(spans, self_times(spans)):
        self_s[span.name] += t
    out = {metric: self_s[name] for metric, name in SELF_TIME_METRICS.items()}
    for metric, prefix in MODULE_METRICS.items():
        out[metric] = sum(t for name, t in self_s.items() if name.startswith(prefix))
    out.update({name: counts[name] for name in COUNT_METRICS})
    rows_read = counts["telemetry.rows_accepted"] + counts["telemetry.rows_rejected"]
    out["telemetry.rows_read"] = rows_read
    out["telemetry.ingest_us_per_row"] = out["telemetry.ingest_s"] / rows_read * 1e6 if rows_read else 0.0
    out["telemetry.aggregate_calls"] = calls["telemetry.aggregate"]
    scanned = counts["telemetry.aggregate_rows_scanned"]
    out["telemetry.aggregate_scan_yield"] = counts["telemetry.aggregate_rows_in_window"] / scanned if scanned else 0.0
    out["cci.build_report_calls"] = calls["cci.build_report"]
    return out
