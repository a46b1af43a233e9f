"""commgraph-signatures: signatures for communication graphs.

A production-quality reproduction of Cormode, Korn, Muthukrishnan & Wu,
"On Signatures for Communication Graphs" (ICDE 2008): a framework for
building, measuring and applying topological node signatures in weighted
communication graphs.

Quickstart::

    from repro import CommGraph, create_scheme, get_distance, persistence

    g1 = CommGraph([("alice", "bob", 5.0), ("alice", "carol", 2.0)])
    g2 = CommGraph([("alice", "bob", 4.0), ("alice", "dave", 1.0)])
    scheme = create_scheme("tt", k=10)
    dist = get_distance("shel")
    p = persistence(scheme.compute(g1, "alice"), scheme.compute(g2, "alice"), dist)

See DESIGN.md for the full system inventory and EXPERIMENTS.md for the
paper-vs-measured reproduction record.
"""

from repro.exceptions import (
    CheckpointError,
    DatasetError,
    DistanceError,
    ErrorBudgetExceeded,
    ExperimentError,
    GraphError,
    MatchingError,
    PerturbationError,
    PipelineError,
    ReproError,
    SchemeError,
    StreamingError,
)
from repro.graph import (
    BipartiteGraph,
    CommGraph,
    EdgeRecord,
    GraphBuilder,
    GraphSequence,
    ReadReport,
    RejectedRow,
    aggregate_records,
    combine_with_decay,
    edges_in_build_order,
    graph_from_edges,
    read_edge_records,
    rebuilt,
    split_records_into_windows,
    summarize_graph,
    write_edge_records,
)
from repro.core import (
    RandomWalkWithResets,
    Signature,
    SignatureScheme,
    TopTalkers,
    UnexpectedTalkers,
    available_distances,
    available_schemes,
    create_scheme,
    dist_dice,
    dist_jaccard,
    dist_scaled_dice,
    dist_scaled_hellinger,
    get_distance,
    persistence,
    property_ellipse,
    robustness,
    roc_identity,
    roc_set_query,
    uniqueness,
)
from repro.core import (
    HistorySignatureBuilder,
    InTalkers,
    SignaturePack,
    cross_matrix,
    load_signatures,
    measure_scheme_properties,
    pair_distances,
    pairwise_matrix,
    save_signatures,
    select_scheme,
)
from repro.parallel import SerialExecutor, parallel_map
from repro.perturb import apply_masquerade, perturb_graph, relabel_graph
from repro.apps import (
    AnomalyDetector,
    Deanonymizer,
    MasqueradeDetector,
    MultiusageDetector,
    SequenceMonitor,
    anonymize_graph,
    masquerade_accuracy,
    persistence_by_lag,
)
from repro.datasets import (
    EnterpriseFlowGenerator,
    EnterpriseParams,
    QueryLogGenerator,
    QueryLogParams,
)
from repro.streaming import (
    CountMinSketch,
    FlajoletMartin,
    SpaceSaving,
    StreamingTopTalkers,
    StreamingUnexpectedTalkers,
)
from repro.matching import ApproxSignatureIndex, MinHasher, SignatureIndex
from repro.pipeline import (
    CheckpointStore,
    CsvRecordSource,
    IterableRecordSource,
    PipelineConfig,
    PipelineResult,
    RetryPolicy,
    RunReport,
    SignaturePipeline,
    mean_topk_overlap,
)

__version__ = "1.0.0"

__all__ = [
    # exceptions
    "ReproError",
    "GraphError",
    "SchemeError",
    "DistanceError",
    "PerturbationError",
    "DatasetError",
    "StreamingError",
    "MatchingError",
    "ExperimentError",
    "PipelineError",
    "CheckpointError",
    "ErrorBudgetExceeded",
    # graph substrate
    "CommGraph",
    "BipartiteGraph",
    "GraphBuilder",
    "edges_in_build_order",
    "rebuilt",
    "EdgeRecord",
    "ReadReport",
    "RejectedRow",
    "GraphSequence",
    "aggregate_records",
    "graph_from_edges",
    "combine_with_decay",
    "split_records_into_windows",
    "read_edge_records",
    "write_edge_records",
    "summarize_graph",
    # signature core
    "Signature",
    "SignatureScheme",
    "TopTalkers",
    "UnexpectedTalkers",
    "RandomWalkWithResets",
    "available_schemes",
    "create_scheme",
    "available_distances",
    "get_distance",
    "dist_jaccard",
    "dist_dice",
    "dist_scaled_dice",
    "dist_scaled_hellinger",
    "persistence",
    "uniqueness",
    "robustness",
    "property_ellipse",
    "roc_identity",
    "roc_set_query",
    "measure_scheme_properties",
    "select_scheme",
    "InTalkers",
    "HistorySignatureBuilder",
    "save_signatures",
    "load_signatures",
    # batch distance kernels + parallel fan-out
    "SignaturePack",
    "pairwise_matrix",
    "cross_matrix",
    "pair_distances",
    "parallel_map",
    "SerialExecutor",
    # perturbation
    "perturb_graph",
    "apply_masquerade",
    "relabel_graph",
    # applications
    "MultiusageDetector",
    "MasqueradeDetector",
    "masquerade_accuracy",
    "AnomalyDetector",
    "SequenceMonitor",
    "persistence_by_lag",
    "Deanonymizer",
    "anonymize_graph",
    # datasets
    "EnterpriseFlowGenerator",
    "EnterpriseParams",
    "QueryLogGenerator",
    "QueryLogParams",
    # streaming
    "CountMinSketch",
    "FlajoletMartin",
    "SpaceSaving",
    "StreamingTopTalkers",
    "StreamingUnexpectedTalkers",
    # matching
    "SignatureIndex",
    "ApproxSignatureIndex",
    "MinHasher",
    # fault-tolerant pipeline
    "SignaturePipeline",
    "PipelineConfig",
    "PipelineResult",
    "CheckpointStore",
    "RetryPolicy",
    "RunReport",
    "CsvRecordSource",
    "IterableRecordSource",
    "mean_topk_overlap",
    "__version__",
]
