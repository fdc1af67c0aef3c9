"""``repro.obs`` — observability: tracing, metrics, exporters.

Three pillars (DESIGN.md §7):

* :mod:`repro.obs.tracer` — near-zero-overhead-when-disabled structured
  event tracing (``dram.cmd``, ``rrs.swap``, ``mitigation``,
  ``refresh``, ``attack``, ``exec``) with ring-buffer or JSONL sinks,
  enabled via ``REPRO_TRACE``/``--trace`` or an explicit
  :class:`Observability` object;
* :mod:`repro.obs.metrics` — a hierarchical metrics registry (counters,
  gauges, histograms, per-window series) serialized into
  ``SimMetrics.extra`` on request;
* :mod:`repro.obs.perfetto` / :mod:`repro.obs.timeline` — exporters:
  Chrome/Perfetto trace-event JSON and a text timeline summary.

Sweep-fleet observability (DESIGN.md §11) adds four more:

* :mod:`repro.obs.ledger` — append-only schema-versioned JSONL run
  ledger of every sweep point (``$REPRO_LEDGER`` or the cache dir);
* :mod:`repro.obs.health` — live straggler detection for sweeps;
* :mod:`repro.obs.regress` — cross-run drift detection (robust
  z-scores against ledger history, ``REG001``–``REG003`` findings);
* :mod:`repro.obs.reportgen` — the ``repro report`` single-file HTML
  dashboard.

The cardinal invariant: observation never perturbs simulation. Probes
only read simulator state, and ``tests/obs`` asserts traced and
untraced runs produce bit-identical :class:`SimMetrics`.
"""

from repro.obs.health import StragglerDetector
from repro.obs.install import Observability
from repro.obs.ledger import (
    LedgerEntry,
    RunLedger,
    default_ledger_path,
    read_ledger,
    split_latest_run,
)
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    Series,
)
from repro.obs.perfetto import (
    to_trace_events,
    validate_trace,
    validate_trace_file,
    write_trace,
)
from repro.obs.progress import SweepProgress
from repro.obs.regress import detect_drift, drift_report, robust_z
from repro.obs.reportgen import (
    extract_embedded_json,
    render_report,
    validate_report,
    write_report,
)
from repro.obs.timeline import render_timeline
from repro.obs.tracer import (
    CATEGORIES,
    JsonlSink,
    RingSink,
    TraceEvent,
    Tracer,
    parse_categories,
    read_jsonl,
    tracer_from_env,
)

__all__ = [
    "CATEGORIES",
    "Counter",
    "Gauge",
    "Histogram",
    "JsonlSink",
    "LedgerEntry",
    "MetricsRegistry",
    "Observability",
    "RingSink",
    "RunLedger",
    "Series",
    "StragglerDetector",
    "SweepProgress",
    "TraceEvent",
    "Tracer",
    "default_ledger_path",
    "detect_drift",
    "drift_report",
    "extract_embedded_json",
    "parse_categories",
    "read_jsonl",
    "read_ledger",
    "render_report",
    "render_timeline",
    "robust_z",
    "split_latest_run",
    "to_trace_events",
    "tracer_from_env",
    "validate_report",
    "validate_trace",
    "validate_trace_file",
    "write_report",
    "write_trace",
]
