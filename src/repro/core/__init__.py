"""Signature core: the paper's primary contribution.

Implements Definition 1 (top-k weighted node-set signatures), the signature
schemes of Section III (Top Talkers, Unexpected Talkers, Random Walk with
Resets and its hop-limited variant), the four distance functions of
Section IV-B, and the property measurements (persistence, uniqueness,
robustness) plus ROC/AUC evaluation of Section IV.
"""

from repro.core.signature import Signature
from repro.core.execution import STRATEGIES, ComputeEngine, make_engine
from repro.core.scheme import (
    SignatureScheme,
    available_schemes,
    create_scheme,
    register_scheme,
)
from repro.core.top_talkers import TopTalkers
from repro.core.unexpected_talkers import UnexpectedTalkers
from repro.core.rwr import RandomWalkWithResets
from repro.core.in_talkers import InTalkers
from repro.core.rwr_push import PushRandomWalk
from repro.core.history import HistorySignatureBuilder
from repro.core.signature_io import load_signatures, save_signatures
from repro.core.distances import (
    DistanceFunction,
    available_distances,
    dist_dice,
    dist_jaccard,
    dist_scaled_dice,
    dist_scaled_hellinger,
    distance_name,
    get_distance,
    resolve_distance,
)
from repro.core.packed import (
    SignaturePack,
    cross_matrix,
    cross_pair_distances,
    pair_distances,
    pairwise_matrix,
    signature_distances,
)
from repro.core.properties import (
    PropertyEllipse,
    persistence,
    property_ellipse,
    robustness,
    uniqueness,
)
from repro.core.roc import RocCurve, auc_from_ranks, roc_identity, roc_set_query
from repro.core.selection import (
    PropertyProfile,
    SchemeRanking,
    measure_scheme_properties,
    select_scheme,
)

__all__ = [
    "Signature",
    "STRATEGIES",
    "ComputeEngine",
    "make_engine",
    "SignatureScheme",
    "available_schemes",
    "create_scheme",
    "register_scheme",
    "TopTalkers",
    "UnexpectedTalkers",
    "RandomWalkWithResets",
    "InTalkers",
    "PushRandomWalk",
    "HistorySignatureBuilder",
    "save_signatures",
    "load_signatures",
    "DistanceFunction",
    "available_distances",
    "dist_jaccard",
    "dist_dice",
    "dist_scaled_dice",
    "dist_scaled_hellinger",
    "distance_name",
    "get_distance",
    "resolve_distance",
    "SignaturePack",
    "cross_matrix",
    "cross_pair_distances",
    "pair_distances",
    "pairwise_matrix",
    "signature_distances",
    "PropertyEllipse",
    "persistence",
    "uniqueness",
    "robustness",
    "property_ellipse",
    "RocCurve",
    "auc_from_ranks",
    "roc_identity",
    "roc_set_query",
    "PropertyProfile",
    "SchemeRanking",
    "measure_scheme_properties",
    "select_scheme",
]
