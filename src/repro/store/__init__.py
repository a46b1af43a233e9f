"""Append-only columnar signature history storage with time-travel queries.

The persistence layer of the reproduction: every window of signatures
lands as an immutable mmap-readable columnar segment
(:mod:`repro.store.segments`), an append-only SHA-256 manifest makes the
set of committed windows durable and verifiable
(:mod:`repro.store.history`), and a persisted MinHash/LSH band index
(:mod:`repro.store.index`) answers the paper"s historical questions —
"who looked like X in window t", "how did X"s signature drift over
[t0, t1)" — sub-linearly in the stored history.
:class:`~repro.pipeline.checkpoint.CheckpointStore` keeps the pipeline"s
checkpoints in this store, so one on-disk format serves resume, service
recovery and forensics alike.
"""

from repro._exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".history": ("HistoryMatch", "HistoryStore", "SegmentRecord", "StoreScan"),
        ".index": ("IndexParams",),
        ".segments": (
            "SEGMENT_MAGIC", "SEGMENT_SUFFIX", "SEGMENT_VERSION", "Segment", "encode_segment",
            "read_segment", "write_segment",
        ),
    },
)
