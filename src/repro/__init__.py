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

from repro._exports import lazy_exports

__version__ = "1.0.0"

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".exceptions": (
            "CheckpointError", "DatasetError", "DistanceError", "ErrorBudgetExceeded",
            "ExperimentError", "GraphError", "MatchingError", "PerturbationError",
            "PipelineError", "ReproError", "SchemeError", "StreamingError",
        ),
        ".graph": (
            "BipartiteGraph", "CommGraph", "EdgeRecord", "GraphBuilder", "GraphSequence",
            "ReadReport", "RejectedRow", "aggregate_records", "combine_with_decay",
            "edges_in_build_order", "graph_from_edges", "read_edge_records", "rebuilt",
            "split_records_into_windows", "summarize_graph", "write_edge_records",
        ),
        ".core": (
            "RandomWalkWithResets", "Signature", "SignatureScheme", "TopTalkers",
            "UnexpectedTalkers", "available_distances", "available_schemes", "create_scheme",
            "dist_dice", "dist_jaccard", "dist_scaled_dice", "dist_scaled_hellinger",
            "get_distance", "persistence", "property_ellipse", "robustness", "roc_identity",
            "roc_set_query", "uniqueness", "HistorySignatureBuilder", "InTalkers",
            "SignaturePack", "cross_matrix", "load_signatures", "measure_scheme_properties",
            "pair_distances", "pairwise_matrix", "save_signatures", "select_scheme",
        ),
        ".parallel": ("SerialExecutor", "parallel_map"),
        ".perturb": ("apply_masquerade", "perturb_graph", "relabel_graph"),
        ".apps": (
            "AnomalyDetector", "Deanonymizer", "MasqueradeDetector", "MultiusageDetector",
            "SequenceMonitor", "anonymize_graph", "masquerade_accuracy", "persistence_by_lag",
        ),
        ".datasets": (
            "EnterpriseFlowGenerator", "EnterpriseParams", "QueryLogGenerator", "QueryLogParams",
        ),
        ".streaming": (
            "CountMinSketch", "FlajoletMartin", "SpaceSaving", "StreamingTopTalkers",
            "StreamingUnexpectedTalkers",
        ),
        ".matching": ("ApproxSignatureIndex", "MinHasher", "SignatureIndex"),
        ".pipeline": (
            "CheckpointStore", "CsvRecordSource", "IterableRecordSource", "PipelineConfig",
            "PipelineResult", "RetryPolicy", "RunReport", "SignaturePipeline",
            "mean_topk_overlap",
        ),
    },
)
__all__.append("__version__")
