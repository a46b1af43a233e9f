"""Observability for the reproduction: metrics, spans, request tracing,
structured event logging, time-series sampling, live HTTP export and
threshold alerting.

Usage sketch::

    from repro import obs

    registry = obs.MetricsRegistry()
    with obs.use_registry(registry):
        with obs.span("experiment.fig1"):
            run_fig1(config)
    payload = obs.build_payload(registry.snapshot(), meta={"cmd": "fig1"})

``obs.span`` is the one span call: it times its block on the active
registry and, inside a request trace (``obs.use_trace``), also adds a
node to that request's span tree.

Live layer::

    store = obs.TimeSeriesStore()
    with obs.use_registry(registry), \
         obs.use_event_log(obs.EventLog("events.jsonl")), \
         obs.ObsServer(registry, store=store, port=9464), \
         obs.Sampler(registry, store=store, interval=1.0):
        long_running_monitoring()          # scrape localhost:9464/metrics

Library code records into whatever registry its caller installed (a
pipeline run and a signature service included), so the server and
sampler see work as it happens.  ``obs.use_labels(shard="0")`` adds
labels to every counter, gauge and histogram a block creates, which is
how one registry keeps per-shard series apart.  When no registry / event log is installed, every helper routes
to a shared no-op, so instrumented code pays a single attribute read.
"""

from repro._exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".registry": (
            "Counter", "Gauge", "Histogram", "MetricsRegistry", "NullRegistry", "NULL_REGISTRY",
            "counter", "current_span_path", "detached_span_path", "enabled", "gauge",
            "get_registry", "histogram", "merge_into_active", "render_key", "span",
            "use_labels", "use_registry",
        ),
        ".digest": ("DEFAULT_RELATIVE_ACCURACY", "EXPORT_QUANTILES", "LatencyDigest"),
        ".tracing": (
            "RequestContext", "TraceSpan", "TraceStore", "current_trace", "new_trace_id",
            "use_trace",
        ),
        ".slo": (
            "DEFAULT_WINDOWS_S", "KIND_AVAILABILITY", "KIND_LATENCY", "ServiceObjective",
            "SLOTracker", "burn_rate_rule",
        ),
        ".export": (
            "SCHEMA_ID", "build_payload", "to_prometheus",
            "validate_payload", "validate_prometheus", "write_json", "write_prometheus",
        ),
        ".logs": (
            "EventLog", "LEVELS", "NULL_EVENT_LOG", "NullEventLog", "StdlibBridgeHandler",
            "attach_stdlib", "emit", "get_event_log", "new_run_id", "read_events",
            "use_event_log",
        ),
        ".timeseries": ("DEFAULT_QUANTILES", "Sampler", "Series", "TimeSeriesStore"),
        ".server": ("PROMETHEUS_CONTENT_TYPE", "ObsServer"),
        ".alerts": ("AlertEvent", "AlertManager", "AlertRule", "persistence_drop_rule"),
    },
)
