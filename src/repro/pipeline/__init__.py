"""Fault-tolerant windowed-signature pipeline (engineering robustness).

The paper"s central property is that good signatures are robust to graph
perturbation; this subpackage supplies the data-layer counterpart: an
ingestion-to-checkpoint pipeline that tolerates dirty rows, transient IO
failures, crashes and resource pressure without losing work or producing
silently wrong output.  See :mod:`repro.pipeline.runner` for the pipeline
itself and :mod:`repro.pipeline.faults` for the chaos-testing harness.
"""

from repro._exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".checkpoint": ("CheckpointScan", "CheckpointStore", "WindowEntry"),
        ".report": (
            "MODE_CACHED", "MODE_DEGRADED", "MODE_EXACT", "RunReport", "WindowReport",
            "mean_topk_overlap", "topk_overlap",
        ),
        ".retry": ("RetryPolicy", "call_with_retry"),
        ".runner": ("PipelineConfig", "PipelineResult", "SignaturePipeline"),
        ".sources": ("CsvRecordSource", "IterableRecordSource", "RecordSource"),
    },
)
