"""Golden byte pins for the hash kernels' persisted and in-memory outputs.

A history segment's band table and a Count-Min table are both written by
``HashFamily.hash_columns``.  The SHA-256 digests here were computed with
exact Python big-int arithmetic, so any change to the hash arithmetic, the
fingerprints or the segment encoding that moves a single bit fails these
tests.
"""

import hashlib
import random

from repro.core.signature import Signature
from repro.graph.stream import EdgeRecord
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
