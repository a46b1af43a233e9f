"""Application layer (Sections II-D and V of the paper).

Three signature-driven detectors, plus the framework"s Table I mapping of
applications to required signature properties.
"""

from repro._exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".requirements": ("APPLICATION_REQUIREMENTS", "Requirement"),
        ".multiusage": ("MultiusageDetector", "MultiusageReport"),
        ".masquerading": (
            "MasqueradeDetectionResult", "MasqueradeDetector", "masquerade_accuracy",
        ),
        ".anomaly": ("AnomalyDetector", "AnomalyReport"),
        ".monitor": ("MonitorResult", "SequenceMonitor", "persistence_by_lag"),
        ".deanonymize": (
            "AnonymizedRelease", "DeanonymizationResult", "Deanonymizer", "anonymize_graph",
        ),
    },
)
