"""Golden byte pins for the hash kernels' persisted and in-memory outputs.

A history segment's band table and a Count-Min table are both written by
``HashFamily.hash_columns``.  The SHA-256 digests here were computed with
exact Python big-int arithmetic, so any change to the hash arithmetic, the
fingerprints or the segment encoding that moves a single bit fails these
tests.  The service pin covers a whole window close — routing, canonical
order, the sliding aggregator, the sketch tier and the segments — and was
computed on the per-record ``EdgeRecord`` service path.  Its weights are
fractional, so its TT row totals are ``math.fsum``'s: the same bytes on
every Python.  Its stream has self-loops, which a TT row total leaves
out.
"""

import hashlib
import random
from pathlib import Path

from repro.core.signature import Signature
from repro.graph.batch import RecordBatch
from repro.graph.stream import EdgeRecord
from repro.service import ServiceConfig, ShardSupervisor
from repro.store import IndexParams
from repro.store.segments import encode_segment
from repro.streaming.stream_schemes import StreamingTopTalkers

LABELS = [f"10.0.{i // 256}.{i % 256}" for i in range(120)] + [
    "hôte-ü",
    "节点-7",
    "Ωmega",
    "emoji-🛰",
    "naïve café",
    "ключ",
]

SEGMENT_SHA256 = "a76496a9baebc4c305e86e27170b27aecaf7f3e772a707d7d718fd3001b40dd4"
COUNT_MIN_SHA256 = "59e40b9e360d0d4e2b9836127048bc67034ce48aef9849908edf7735baed9255"
SERVICE_SEGMENTS_SHA256 = "bfa2f241777ec10785d48f3d227cf1ee8c6e7d45bd512caf86b63e2292fc8a44"
SERVICE_COUNT_MIN_SHA256 = "411499d2ddf70988da79b891028f851da445bda51a97abb02dec10bc4560ed75"


def seeded_windows():
    """Three windows of 40 owners with 0–10 members each."""
    rng = random.Random(20081)
    windows = []
    for window in range(3):
        signatures = {}
        for owner in rng.sample(LABELS, 40):
            others = [label for label in LABELS if label != owner]
            members = rng.sample(others, rng.randint(0, 10))
            signatures[owner] = Signature(
                owner, {member: rng.uniform(0.01, 5.0) for member in members}
            )
        windows.append((window, signatures))
    return windows


def seeded_bucket():
    """30 sources over non-ASCII and non-str destinations (own hash keys)."""
    rng = random.Random(544)
    nodes = LABELS + [7, 1 << 40, ("tuple", 3)]
    weights = [1.0, 0.5, 3.0, 1e-3]
    return [
        EdgeRecord(float(t), rng.choice(LABELS[:30]), rng.choice(nodes), rng.choice(weights))
        for t in range(2000)
    ]


def test_segment_bytes_are_pinned():
    payload = encode_segment(seeded_windows(), index_params=IndexParams())
    assert hashlib.sha256(payload).hexdigest() == SEGMENT_SHA256


def test_count_min_tables_are_pinned():
    builder = StreamingTopTalkers()
    builder.observe_records(seeded_bucket())
    digest = hashlib.sha256()
    for source, sketch in builder._sketches.items():
        digest.update(repr(source).encode("utf-8"))
        digest.update(sketch._table.tobytes())
    assert digest.hexdigest() == COUNT_MIN_SHA256


def seeded_stream():
    """Three 400-record windows: repeated, unordered times (the canonical
    sort runs), non-ASCII labels, self-loops and zero weights."""
    rng = random.Random(1908)
    owners = LABELS[:30] + LABELS[120:]
    return [
        [
            EdgeRecord(
                100.0 * window + rng.randrange(50),
                rng.choice(owners),
                rng.choice(LABELS),
                rng.choice([1.0, 0.5, 3.0, 1e-3, 0.0]),
            )
            for _ in range(400)
        ]
        for window in range(3)
    ]


def test_service_window_close_is_pinned(tmp_path):
    supervisor = ShardSupervisor(
        ServiceConfig(num_shards=4, window_records=400, queue_capacity=1600, k=5),
        history_dir=tmp_path,
    )
    for bucket in seeded_stream():
        supervisor.ingest(RecordBatch.from_records(bucket, supervisor.labels))
    segments = hashlib.sha256()
    paths = sorted(Path(tmp_path).rglob("*.rseg"))
    assert len(paths) == 4 * 3
    for path in paths:
        segments.update(path.relative_to(tmp_path).as_posix().encode("utf-8"))
        segments.update(path.read_bytes())
    tables = hashlib.sha256()
    for state in supervisor.shards:
        for source, sketch in supervisor.sketch_tier(state).current._sketches.items():
            tables.update(repr(source).encode("utf-8"))
            tables.update(sketch._table.tobytes())
    assert segments.hexdigest() == SERVICE_SEGMENTS_SHA256
    assert tables.hexdigest() == SERVICE_COUNT_MIN_SHA256
