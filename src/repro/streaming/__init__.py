"""Scalable signature computation (Section VI of the paper).

For graphs too large to store, the paper proposes the *semi-streaming*
model: constant-size summary state per node.  This subpackage provides the
building blocks — pairwise-independent hashing, Count-Min sketches for
per-source edge weights, Flajolet-Martin sketches for in-degrees, and
SpaceSaving heavy-hitter tracking — plus streaming builders that assemble
approximate Top Talkers and Unexpected Talkers signatures from a one-pass
edge stream.
"""

from repro._exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".hashing": ("HashFamily", "stable_hash64"),
        ".countmin": ("CountMinSketch",),
        ".fm": ("FlajoletMartin",),
        ".spacesaving": ("SpaceSaving",),
        ".stream_schemes": ("StreamingTopTalkers", "StreamingUnexpectedTalkers"),
    },
)
