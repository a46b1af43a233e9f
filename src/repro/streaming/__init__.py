"""Scalable signature computation (Section VI of the paper).

For graphs too large to store, the paper proposes the *semi-streaming*
model: constant-size summary state per node.  This subpackage provides the
building blocks — pairwise-independent hashing, Count-Min sketches for
per-source edge weights, Flajolet-Martin sketches for in-degrees, and
SpaceSaving heavy-hitter tracking — plus streaming builders that assemble
approximate Top Talkers and Unexpected Talkers signatures from a one-pass
edge stream.
"""

from repro.streaming.hashing import HashFamily, stable_hash64
from repro.streaming.countmin import CountMinSketch
from repro.streaming.fm import FlajoletMartin
from repro.streaming.spacesaving import SpaceSaving
from repro.streaming.stream_schemes import (
    StreamingTopTalkers,
    StreamingUnexpectedTalkers,
)

__all__ = [
    "HashFamily",
    "stable_hash64",
    "CountMinSketch",
    "FlajoletMartin",
    "SpaceSaving",
    "StreamingTopTalkers",
    "StreamingUnexpectedTalkers",
]
