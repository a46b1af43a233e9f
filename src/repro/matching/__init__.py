"""Scalable signature comparison (Section VI of the paper).

Applications compare many signatures pairwise — quadratic in the number of
nodes.  This subpackage provides an exact brute-force nearest-neighbour
index as the baseline, MinHash sketches of signature node-sets, and an LSH
banding index giving sub-linear approximate nearest-neighbour queries for
the Jaccard distance (the approach the paper points to via Indyk-Motwani).
"""

from repro._exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".index": ("SignatureIndex",),
        ".minhash": ("MinHasher", "estimate_jaccard_distance"),
        ".lsh": ("LshIndex", "ApproxSignatureIndex"),
    },
)
