"""repro.obs: unified tracing and metrics for real and simulated runs.

The observability layer of the reproduction: hierarchical spans tied to
the paper's bit-cost currency (:mod:`repro.obs.trace`), structured
JSONL run logs (:mod:`repro.obs.events`), Chrome trace-event export for
both real runs and simulated schedules (:mod:`repro.obs.chrometrace`),
a counter/gauge/histogram registry (:mod:`repro.obs.metrics`), span
rollups including the real-run utilization/parallel-efficiency summary
(:mod:`repro.obs.rollup`), versioned benchmark artifacts with a
regression gate (:mod:`repro.obs.perf`), the append-only cross-run
performance ledger (:mod:`repro.obs.ledger`), the durable JSONL file
under the ledger and every other append-only store
(:mod:`repro.obs.jsonl`), phase/lane trace diffing
with regression attribution (:mod:`repro.obs.tracediff`), an opt-in
sampling profiler with collapsed-stack/flamegraph output
(:mod:`repro.obs.profile`), Prometheus/OpenMetrics text exposition
of any metrics registry (:mod:`repro.obs.export`), and declarative
SLO objectives with rolling-window error-budget burn evaluated over
request timelines (:mod:`repro.obs.slo`).

Quickstart::

    from repro import RealRootFinder, IntPoly, CostCounter
    from repro.obs import Tracer, EventLog, spans_to_chrome

    counter = CostCounter()
    with EventLog("run.jsonl") as log:
        log.run_header("api", degree=3)
        tracer = Tracer(counter=counter, sink=log)
        finder = RealRootFinder(mu_bits=32, counter=counter, tracer=tracer)
        result = finder.find_roots(IntPoly.from_roots([-3, 0, 2]))
        log.run_end(counter=counter, stats=result.stats)

Untraced runs pay nothing: the default :data:`NULL_TRACER` mirrors
``NULL_COUNTER``.
"""

from repro.obs.trace import NULL_TRACER, NullTracer, Span, Tracer
from repro.obs.events import EventLog, read_events, validate_events
from repro.obs.chrometrace import (
    schedule_to_chrome,
    schedules_to_chrome,
    spans_to_chrome,
    worker_busy_series,
    write_chrome_trace,
)
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    histogram_from_dict,
    labeled,
    run_metrics,
    split_labels,
)
from repro.obs.perf import (
    BenchArtifact,
    MetricDiff,
    compare_artifacts,
    env_fingerprint,
    format_diff_table,
    read_artifact,
    render_gate_report,
    validate_artifact,
    write_artifact,
)
from repro.obs.ledger import Ledger, RunRecord, record_from_artifact
from repro.obs.tracediff import TraceDiff, diff_runs
from repro.obs.profile import SamplingProfiler, collapse, write_collapsed
from repro.obs.export import render_openmetrics, write_openmetrics
from repro.obs.slo import DEFAULT_SLO, Objective, SLOConfig, evaluate_slo
from repro.obs.rollup import (
    level_wall_ns,
    parallel_rollup,
    phase_rollup,
    self_wall_ns,
    worker_busy_intervals,
)

__all__ = [
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "Span",
    "EventLog",
    "read_events",
    "validate_events",
    "spans_to_chrome",
    "worker_busy_series",
    "schedule_to_chrome",
    "schedules_to_chrome",
    "write_chrome_trace",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "run_metrics",
    "labeled",
    "split_labels",
    "histogram_from_dict",
    "BenchArtifact",
    "MetricDiff",
    "compare_artifacts",
    "env_fingerprint",
    "format_diff_table",
    "read_artifact",
    "render_gate_report",
    "validate_artifact",
    "write_artifact",
    "Ledger",
    "RunRecord",
    "record_from_artifact",
    "TraceDiff",
    "diff_runs",
    "SamplingProfiler",
    "collapse",
    "write_collapsed",
    "render_openmetrics",
    "write_openmetrics",
    "Objective",
    "SLOConfig",
    "DEFAULT_SLO",
    "evaluate_slo",
    "phase_rollup",
    "self_wall_ns",
    "level_wall_ns",
    "parallel_rollup",
    "worker_busy_intervals",
]
