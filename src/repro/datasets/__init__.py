"""Synthetic datasets substituting the paper"s proprietary traces.

The paper evaluates on (a) six weeks of enterprise network flow records
and (b) a data-warehouse query log; neither is public.  These generators
reproduce the statistical structure that the paper"s measurements depend
on — heavy-tailed degrees, per-individual temporal consistency, globally
popular destinations, ground-truth alias sets — with seeded determinism.
See DESIGN.md section 2 for the substitution rationale.
"""

from repro._exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".profiles": ("BehaviorProfile", "zipf_weights"),
        ".enterprise": ("EnterpriseDataset", "EnterpriseFlowGenerator", "EnterpriseParams"),
        ".querylog": ("QueryLogDataset", "QueryLogGenerator", "QueryLogParams"),
        ".loaders": ("load_graph_sequence_csv", "save_graph_sequence_csv"),
    },
)
