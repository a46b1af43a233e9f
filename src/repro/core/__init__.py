"""Signature core: the paper"s primary contribution.

Implements Definition 1 (top-k weighted node-set signatures), the signature
schemes of Section III (Top Talkers, Unexpected Talkers, Random Walk with
Resets and its hop-limited variant), the four distance functions of
Section IV-B, and the property measurements (persistence, uniqueness,
robustness) plus ROC/AUC evaluation of Section IV.
"""

from repro._exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".signature": ("Signature",),
        ".execution": ("ComputeEngine", "make_engine"),
        ".scheme": ("SignatureScheme", "available_schemes", "create_scheme", "register_scheme"),
        ".top_talkers": ("TopTalkers",),
        ".unexpected_talkers": ("UnexpectedTalkers",),
        ".rwr": ("RandomWalkWithResets",),
        ".in_talkers": ("InTalkers",),
        ".rwr_push": ("PushRandomWalk",),
        ".signature_io": ("load_signatures", "save_signatures"),
        ".distances": (
            "DistanceFunction", "available_distances", "dist_dice", "dist_jaccard",
            "dist_scaled_dice", "dist_scaled_hellinger", "distance_name", "get_distance",
            "resolve_distance",
        ),
        ".packed": (
            "SignaturePack", "cross_matrix", "cross_pair_distances", "pair_distances",
            "pairwise_matrix", "signature_distances",
        ),
        ".properties": (
            "PropertyEllipse", "persistence", "property_ellipse", "robustness", "uniqueness",
        ),
        ".roc": ("RocCurve", "auc_from_ranks", "roc_identity", "roc_set_query"),
        ".selection": (
            "PropertyProfile", "SchemeRanking", "measure_scheme_properties", "select_scheme",
        ),
    },
)
